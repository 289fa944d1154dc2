"""Regularization kernels: coefficients, evaluation, decay, parsing."""

import math

import mpmath
import numpy as np
import pytest

from exthyp.kernel import (
    EXP_KERNEL,
    kummer_kernel,
    log_theta_neg_asym,
    parse_kernel,
    theta_coeff,
    theta_eval,
    theta_eval_arr,
)
from exthyp.corefn import (
    SERIES_CAP,
    SERIES_EPS,
    _is_nonpositive_int,
    _kummer_amplitude,
    gammaln_real,
    kummer_1f1_arr,
    kummer_algebraic_tail,
    ln_gamma,
)
from exthyp.results import DomainError

KUM = kummer_kernel(1.0, 2.0)
KUM2 = kummer_kernel(1.5, 2.0)


def test_coefficients():
    assert theta_coeff(EXP_KERNEL, 7) == 1.0
    assert theta_coeff(KUM, 1) == 0.5
    for k in (EXP_KERNEL, KUM, KUM2):
        assert theta_coeff(k, 0) == 1.0


def test_exp_eval():
    assert theta_eval(EXP_KERNEL, 0.0).value == 1.0
    assert abs(theta_eval(EXP_KERNEL, -1.0).value - math.exp(-1.0)) < 1e-16


def test_kummer_eval_closed_form():
    # 1F1(1;2;z) = (e^z - 1)/z
    got = theta_eval(KUM, -1.0).value
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-13


def test_exp_multiplicativity():
    for z1 in (-2.0, 0.3, -7.5):
        for z2 in (-1.0, 0.9):
            lhs = theta_eval(EXP_KERNEL, z1 + z2).value
            rhs = theta_eval(EXP_KERNEL, z1).value * theta_eval(EXP_KERNEL, z2).value
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("k", [EXP_KERNEL, KUM, KUM2])
def test_monotone_decay_to_zero(k):
    zs = -np.arange(1.0, 51.0)
    vals = theta_eval_arr(k, zs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)  # decreasing along z = -1, -2, ...
    # exponential kernel decays superexponentially, confluent one like |z|^-a
    floor = 1e-20 if k is EXP_KERNEL else 50.0 ** -k.a * 2.0
    assert vals[-1] < vals[0] * floor


@pytest.mark.parametrize("k", [EXP_KERNEL, KUM, KUM2])
def test_taylor_sum_converges(k):
    for z in (-0.8, 0.5, 0.95):
        acc = 0.0
        fact = 1.0
        for l in range(31):
            if l:
                fact *= l
            acc += theta_coeff(k, l) * z ** l / fact
        want = theta_eval(k, z).value
        assert abs(acc - want) <= 1e-10 * (1 + abs(want))


def test_asymptotic_constants():
    assert EXP_KERNEL.asymptotic_amplitude == 1.0
    assert EXP_KERNEL.asymptotic_exponent == 0.0
    k = kummer_kernel(1.5, 2.0)
    want = math.exp(gammaln_real(2.0) - gammaln_real(1.5))
    assert abs(k.asymptotic_amplitude - want) < 1e-13
    assert k.asymptotic_exponent == -0.5


def test_kummer_large_argument_amplitude():
    # Theta(z) ~ M0 * z^omega * e^z as z -> +inf
    k = KUM2
    z = 80.0
    approx = k.asymptotic_amplitude * z ** k.asymptotic_exponent * math.exp(z)
    got = theta_eval(k, z).value
    assert abs(got - approx) <= 2e-2 * abs(got)


def test_parse_kernel():
    assert parse_kernel("exp") is EXP_KERNEL
    k = parse_kernel("kummer:1.5,2.0")
    assert k.a == 1.5 and k.c == 2.0
    with pytest.raises(DomainError):
        parse_kernel("kummer:1.5")
    with pytest.raises(DomainError):
        parse_kernel("gauss")
    with pytest.raises(DomainError):
        kummer_kernel(-1.0, 2.0)


def test_vectorized_matches_scalar_across_regimes():
    zs = np.array([-1e6, -500.0, -150.0, -20.0, -0.5, 0.0, 3.0])
    vals = theta_eval_arr(KUM2, zs)
    for z, v in zip(zs, vals):
        assert abs(v - theta_eval(KUM2, float(z)).value) <= 1e-12 * (1 + abs(v))


def _lockstep_kummer_1f1_arr(a, c, z):
    """Reference: the former lock-step 1F1, every node stepped together."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    neg_big = z <= -200.0
    if _is_nonpositive_int(c - a):
        neg_big = np.zeros_like(neg_big)
    rest = ~neg_big
    if np.any(rest):
        zr = z[rest]
        transform = zr < 0.0
        w = np.where(transform, -zr, zr)
        aa = np.where(transform, c - a, a)
        s = np.ones_like(w)
        term = np.ones_like(w)
        active = np.ones_like(w, dtype=bool)
        small = np.zeros_like(w, dtype=int)
        for m in range(SERIES_CAP * 3):
            term = term * (aa + m) / (c + m) * w / (m + 1)
            s = s + np.where(active, term, 0.0)
            tiny = np.abs(term) < SERIES_EPS * np.abs(s)
            small = np.where(tiny, small + 1, 0)
            active = active & (small < 3) & (term != 0.0)
            if not np.any(active):
                break
        out[rest] = np.where(transform, np.exp(zr) * s, s)
    if np.any(neg_big):
        w = -z[neg_big]
        g = np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(c - a))))
        lead = g.real * np.exp(-a * np.log(w))
        s = np.ones_like(w)
        term = np.ones_like(w)
        for k in range(1, 25):
            term = term * (a + k - 1) * (a - c + k) / (k * w)
            s = s + term
        out[neg_big] = lead * s
    return out


_EDGE = -200.0
_KUMMER_ZS = np.concatenate([
    np.linspace(-250.0, 60.0, 311),
    np.linspace(-250.0, 60.0, 97) + 0.37,
    [np.nextafter(_EDGE, -np.inf), _EDGE, np.nextafter(_EDGE, np.inf),
     0.0, -0.0, 1e-300, -1e-300],
])


@pytest.mark.parametrize("a,c", [
    (1.0, 2.0),
    (1.5, 2.0),
    (2.5, 1.0),
    (0.3, 4.7),
    (3.0, 1.0),    # c - a = -2: no algebraic branch, every node sums
    (2.0, 2.0),    # c - a = 0: exp(z)
    (-3.0, 1.5),   # terminating series
    (-1.0, 0.25),  # terminating series
])
def test_kummer_arr_bit_identical_to_lockstep(a, c):
    for z in (_KUMMER_ZS, np.empty(0), np.full(3, -0.0),
              np.array([[-1.0, 2.0]])):
        got = kummer_1f1_arr(a, c, z)
        want = _lockstep_kummer_1f1_arr(a, c, z)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("a,c", [
    (1.5, 2.5),
    (2.5, 1.0),      # aa = c - a < 0 on the transformed side
    (4.0, 1.5),
    (2.0, 2.0),      # c - a = 0
    (0.5, 1e300),    # terms underflow to 0 after the first
    (5e-324, 2.0),   # aa = 5e-324 on the direct side
])
def test_kummer_arr_fast_path_edges_bit_identical_to_lockstep(a, c):
    below = np.nextafter(200.0, 0.0)
    z = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160,
                  -1e-160, -below, below, -199.0, 199.0, -0.5, 0.5, 30.0])
    got = kummer_1f1_arr(a, c, z)
    with np.errstate(all="ignore"):  # lock-step terms run past their stop
        want = _lockstep_kummer_1f1_arr(a, c, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_algebraic_tail_in_place_matches_former_expressions():
    # below 200 the expansion is not used, but its terms are big enough
    # there for a change of rounding to reach the sum
    w = np.concatenate([np.geomspace(1.0, 1e12, 61), [np.inf, 250.5]])
    for a, c in ((1.5, 2.5), (0.3, 4.7), (2.5, 1.0), (1.0, 2.0)):
        g = np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(c - a))))
        s = np.ones_like(w)
        term = np.ones_like(w)
        for k in range(1, 25):
            term = term * (a + k - 1) * (a - c + k) / (k * w)
            s = s + term
        amp, got = kummer_algebraic_tail(a, c, w)
        assert np.float64(amp).view(np.int64) == np.float64(g.real).view(
            np.int64)
        assert np.array_equal(got.view(np.int64), s.view(np.int64))
        # the amplitude is computed once per (a, c)
        assert _kummer_amplitude(a, c) is amp


def test_kummer_arr_non_finite_bit_identical_to_lockstep():
    # NaN and +inf never meet the stopping rule, so both loops run to the cap
    z = np.array([np.nan, np.inf, -np.inf, -3.0])
    with np.errstate(all="ignore"):
        got = kummer_1f1_arr(1.5, 2.0, z)
        want = _lockstep_kummer_1f1_arr(1.5, 2.0, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kummer_arr_nan_exit_keeps_lockstep_bits():
    # a NaN node stops at once; an infinite partial sum must not, because for
    # a = -1 or -2 a later 0 * inf term turns it into NaN
    z = np.array([np.inf, np.nan, -np.nan])
    for a in (-1.0, -2.0):
        with np.errstate(all="ignore"):
            got = kummer_1f1_arr(a, 2.5, z)
            want = _lockstep_kummer_1f1_arr(a, 2.5, z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(got[0])


def test_kummer_arr_matches_mpmath():
    zs = np.array([-199.5, -80.0, -25.0, -3.0, -0.5, 0.0, 0.7, 12.0, 55.0])
    for a, c in ((1.5, 2.0), (0.3, 4.7), (2.5, 1.0)):
        got = kummer_1f1_arr(a, c, zs)
        for z, v in zip(zs, got):
            with mpmath.workdps(30):
                want = float(mpmath.hyp1f1(a, c, float(z)))
            assert abs(v - want) <= 1e-13 * abs(want), (a, c, z)


def test_log_theta_far_tail_matches_kernel_value():
    zs = np.array([-1e6, -3000.0, -500.0, -200.0])
    for k in (KUM, KUM2, kummer_kernel(0.3, 4.7)):
        got = log_theta_neg_asym(k, zs)
        want = np.log(theta_eval_arr(k, zs))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    with pytest.raises(DomainError):  # Gamma(1)/Gamma(-0.5) < 0
        log_theta_neg_asym(kummer_kernel(1.5, 1.0), zs)
