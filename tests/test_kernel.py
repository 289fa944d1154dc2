"""Regularization kernels: evaluation, Taylor sums, decay, parsing."""

import ast
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles
from exthyp.kernel import (
    EXP_KERNEL,
    kummer_kernel,
    log_theta_neg_asym,
    parse_kernel,
    theta_eval_arr,
)
from exthyp.corefn import (
    _KUMMER_EPS,
    _KUMMER_TERM_CAP,
    _is_nonpositive_int,
    _kummer_amplitude,
    _kummer_cut,
    gammaln_real,
    kummer_1f1_arr,
    kummer_algebraic_tail,
    ln_gamma,
)
from exthyp import corefn
from exthyp.extbeta import BetaArgs, RegPair, ext_beta
from exthyp.results import DomainError

KUM = kummer_kernel(1.0, 2.0)
KUM2 = kummer_kernel(1.5, 2.0)


def _theta(k, z):
    return float(theta_eval_arr(k, np.array([z]))[0])


def test_exp_eval():
    assert _theta(EXP_KERNEL, 0.0) == 1.0
    assert abs(_theta(EXP_KERNEL, -1.0) - math.exp(-1.0)) < 1e-16


def test_kummer_eval_closed_form():
    # 1F1(1;2;z) = (e^z - 1)/z
    got = _theta(KUM, -1.0)
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-13


def test_exp_multiplicativity():
    for z1 in (-2.0, 0.3, -7.5):
        for z2 in (-1.0, 0.9):
            lhs = _theta(EXP_KERNEL, z1 + z2)
            rhs = _theta(EXP_KERNEL, z1) * _theta(EXP_KERNEL, z2)
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
    # the Taylor coefficients are (a)_l / (c)_l for the confluent kernel
    # and 1 for exp
    def coeff(l):
        if k is EXP_KERNEL:
            return 1.0
        return corefn.pochhammer(k.a, l) / corefn.pochhammer(k.c, l)

    for z in (-0.8, 0.5, 0.95):
        acc = 0.0
        fact = 1.0
        for l in range(31):
            if l:
                fact *= l
            acc += coeff(l) * z ** l / fact
        want = _theta(k, z)
        assert abs(acc - want) <= 1e-10 * (1 + abs(want))


def test_kummer_large_argument_amplitude():
    # Theta(z) ~ Gamma(c)/Gamma(a) * z^(a-c) * e^z as z -> +inf
    k = KUM2
    z = 80.0
    amplitude = math.exp(gammaln_real(k.c) - gammaln_real(k.a))
    approx = amplitude * z ** (k.a - k.c) * math.exp(z)
    got = _theta(k, z)
    assert abs(got - approx) <= 2e-2 * abs(got)


def test_parse_kernel():
    assert parse_kernel("exp") is EXP_KERNEL
    k = parse_kernel("kummer:1.5,2.0")
    assert k.a == 1.5 and k.c == 2.0
    with pytest.raises(DomainError):
        parse_kernel("kummer:1.5")
    with pytest.raises(DomainError):
        parse_kernel("gauss")
    for bad in ("kummer:1,x", "kummer:1,2,3", "kummer:inf,2", "kummer:1,nan"):
        with pytest.raises(DomainError):
            parse_kernel(bad)
    with pytest.raises(DomainError):
        kummer_kernel(-1.0, 2.0)


def test_vectorized_matches_scalar_across_regimes():
    zs = np.array([-1e6, -500.0, -150.0, -20.0, -0.5, 0.0, 3.0])
    vals = theta_eval_arr(KUM2, zs)
    for z, v in zip(zs, vals):
        want = oracles.hyp1f1(KUM2.a, KUM2.c, float(z))
        assert abs(v - want) <= 1e-12 * (1 + abs(v))


def test_kummer_arr_matches_mpmath_where_c_far_exceeds_a():
    # the algebraic series of 1F1(1; 300; -250) ends at its 299th term (c - a
    # is an integer), but its first 48 terms grow, so an optimal truncation
    # of it is far off (-0.2296)
    want = oracles.hyp1f1(1.0, 300.0, -250.0)
    got = float(kummer_1f1_arr(1.0, 300.0, np.array([-250.0]))[0])
    assert abs(got - want) <= 1e-12 * abs(want)


def _lockstep_sum(ratio, x, asymptotic=False):
    """Reference for corefn._block_sum: every node stepped together, one
    term a step, with a per-node stop mask; the sum is 1 plus the running
    sum of the terms.  With ``asymptotic`` a sum that ends non-finite is
    taken up to its last term below both neighbours (1 if none)."""
    acc = np.zeros_like(x)
    s = np.ones_like(x)
    term = np.ones_like(x)
    active = np.ones(x.shape, dtype=bool)
    small = np.zeros(x.shape, dtype=int)
    mag = np.ones_like(x)
    fell = np.zeros(x.shape, dtype=bool)
    best = np.ones_like(x)
    for m in range(_KUMMER_TERM_CAP):
        if not active.any():
            break
        term = term * (ratio(float(m)) * x)
        # the previous term is a smallest one when it fell and this did not
        best = np.where(active & fell & ~(np.abs(term) < mag), s, best)
        fell = np.abs(term) < mag
        mag = np.abs(term)
        acc = np.where(active, acc + term, acc)
        s = 1.0 + acc
        tiny = np.abs(term) < _KUMMER_EPS * np.abs(s)
        small = np.where(tiny, small + 1, 0)
        active &= (small < 3) & (term != 0.0) & np.isfinite(s)
    if asymptotic:
        s = np.where(np.isfinite(s), s, best)
    return s


def _amplitude(a, c):
    g = np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(c - a))))
    return g.real


def _algebraic_ratio(a, c):
    return lambda m: (a + m) * (a - c + 1.0 + m) / (m + 1.0)


def _lockstep_kummer_1f1_arr(a, c, z):
    """Reference: the rule of kummer_1f1_arr on finite nodes, every node of
    a branch stepped together."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    alg = z <= -_kummer_cut(a, c)
    neg = (z <= 0.0) & ~alg
    pos = z > 0.0
    out[neg] = np.exp(z[neg]) * _lockstep_sum(
        lambda m: (c - a + m) / ((c + m) * (m + 1.0)), -z[neg])
    out[pos] = _lockstep_sum(lambda m: (a + m) / ((c + m) * (m + 1.0)),
                             z[pos])
    if alg.any():
        w = -z[alg]
        out[alg] = (_amplitude(a, c) * np.exp(-a * np.log(w))
                    * _lockstep_sum(_algebraic_ratio(a, c), 1.0 / w, True))
    return out


_EDGE = -200.0
_KUMMER_ZS = np.concatenate([
    np.linspace(-250.0, 60.0, 311),
    np.linspace(-250.0, 60.0, 97) + 0.37,
    [np.nextafter(_EDGE, -np.inf), _EDGE, np.nextafter(_EDGE, np.inf),
     0.0, -0.0, 1e-300, -1e-300],
])


def _around_cut(a, c):
    """The nodes next to -w0(a, c), where the branches meet."""
    edge = -_kummer_cut(a, c)
    if math.isinf(edge):
        return np.empty(0)
    return np.array([np.nextafter(edge, -np.inf), edge,
                     np.nextafter(edge, np.inf)])


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
    zs = np.concatenate([_KUMMER_ZS, _around_cut(a, c)])
    for z in (zs, np.empty(0), np.full(3, -0.0), np.array([[-1.0, 2.0]])):
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
    # edge arguments and parameters of the block sum, each node alone and
    # all together: a node's bits never depend on the other nodes, and the
    # library raises no floating-point warning on them
    below = np.nextafter(200.0, 0.0)
    z = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160,
                  -1e-160, -below, below, -199.0, 199.0, -0.5, 0.5, 30.0])
    got = kummer_1f1_arr(a, c, z)
    alone = np.array([kummer_1f1_arr(a, c, z[i:i + 1])[0]
                      for i in range(z.size)])
    with np.errstate(all="ignore"):  # lock-step terms run past their stop
        want = _lockstep_kummer_1f1_arr(a, c, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(alone.view(np.int64), got.view(np.int64))
    # next to the cut; at c = 1e300 (w0 capped at 200) the algebraic terms
    # overflow there, and the sum is cut off at t_0
    cut = _around_cut(a, c)
    with np.errstate(all="ignore"):
        got = kummer_1f1_arr(a, c, cut)
        want = _lockstep_kummer_1f1_arr(a, c, cut)
        alone = np.array([kummer_1f1_arr(a, c, cut[i:i + 1])[0]
                          for i in range(cut.size)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(alone.view(np.int64), got.view(np.int64))


def test_algebraic_tail_in_place_matches_former_expressions():
    # the 2F0 sum of the algebraic branch against the lock-step reference,
    # without floating-point warnings from w0 on; below w0 the expansion is
    # not used, and at w of a few units its terms grow until they overflow,
    # so both cut it off at its last smallest term
    w = np.concatenate([np.geomspace(1.0, 1e12, 61), [np.inf, 250.5]])
    for a, c in ((1.5, 2.5), (0.3, 4.7), (2.5, 1.0), (1.0, 2.0)):
        above = w >= _kummer_cut(a, c)
        amp, got = kummer_algebraic_tail(a, c, w[above])
        with np.errstate(all="ignore"):
            _, got_below = kummer_algebraic_tail(a, c, w[~above])
            want = _lockstep_sum(_algebraic_ratio(a, c), 1.0 / w, True)
        assert np.float64(amp).view(np.int64) == np.float64(
            _amplitude(a, c)).view(np.int64)
        assert np.array_equal(got.view(np.int64),
                              want[above].view(np.int64))
        assert np.array_equal(got_below.view(np.int64),
                              want[~above].view(np.int64))
        assert np.isfinite(got_below).all()
        # the amplitude is computed once per (a, c)
        assert _kummer_amplitude(a, c) is amp


def test_kummer_arr_diverging_expansion_is_cut_at_its_smallest_term(
        monkeypatch):
    # kummer:50.5,1 has no w <= 200 where the algebraic expansion reaches
    # 2^-56, so w0 is capped there; near w = 200 its terms grow until they
    # overflow.  The sum is cut off at its last smallest term, after a few
    # blocks, not at _KUMMER_TERM_CAP terms a node
    widths = []
    cumprod = np.cumprod

    def spy(block, axis=None):
        widths.append(block.shape[-1])
        return cumprod(block, axis=axis)

    monkeypatch.setattr(np, "cumprod", spy)
    z = -np.linspace(200.0, 260.0, 61)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kummer_1f1_arr(50.5, 1.0, z)
    assert max(widths) <= 2048
    with mpmath.workdps(50):
        want = np.array([float(mpmath.hyp1f1(50.5, 1.0, x)) for x in z])
    rel = np.abs(got - want) / np.abs(want)
    # the expansion is only as close as its smallest term: 9% at w = 200
    assert rel.max() < 0.1
    assert rel[z <= -250.0].max() < 1e-8


def test_kummer_arr_non_finite_bit_identical_to_lockstep():
    # non-finite nodes take their limits up front: NaN stays NaN, +inf
    # grows like e^z, -inf decays like |z|^-a; finite nodes are unaffected
    z = np.array([np.nan, np.inf, -np.inf, -3.0])
    got = kummer_1f1_arr(1.5, 2.0, z)
    assert np.isnan(got[0]) and got[1] == math.inf and got[2] == 0.0
    want = _lockstep_kummer_1f1_arr(1.5, 2.0, z[3:])
    assert np.array_equal(got[3:].view(np.int64), want.view(np.int64))


def test_kummer_node_at_plus_inf_returns_at_once(monkeypatch):
    # the +inf limit is taken before any series: a node summed to this cap
    # would take seconds
    monkeypatch.setattr(corefn, "_KUMMER_TERM_CAP", 3 * 10**7)
    start = time.perf_counter()
    got = kummer_1f1_arr(1.5, 2.0, np.array([np.inf]))
    elapsed = time.perf_counter() - start
    assert got[0] == math.inf
    assert elapsed < 0.5


def test_kummer_arr_nan_exit_keeps_lockstep_bits():
    # a NaN node stays NaN; at +inf the polynomials 1 - z/2.5 (a = -1) and
    # 1F1(-2; 2.5; z) (a = -2) take the limits of their leading terms
    z = np.array([np.inf, np.nan, -np.nan])
    for a, limit in ((-1.0, -math.inf), (-2.0, math.inf)):
        got = kummer_1f1_arr(a, 2.5, z)
        assert got[0] == limit
        assert np.isnan(got[1:]).all()


@pytest.mark.parametrize("a,c,z,limit", [
    (3.0, 1.0, -math.inf, 0.0),      # e^z times a polynomial
    (-1.0, 2.5, math.inf, -math.inf),
    (-1.0, 2.5, -math.inf, math.inf),
    (2.5, 1.0, math.inf, math.inf),
    (2.5, 1.0, -math.inf, 0.0),
    (0.0, 1.5, -math.inf, 1.0),
])
def test_kummer_arr_takes_the_limit_at_infinity(a, c, z, limit):
    assert kummer_1f1_arr(a, c, np.array([z, -2.0]))[0] == limit


def test_kummer_arr_matches_mpmath():
    zs = np.array([-199.5, -80.0, -25.0, -3.0, -0.5, 0.0, 0.7, 12.0, 55.0])
    for a, c in ((1.5, 2.0), (0.3, 4.7), (2.5, 1.0)):
        got = kummer_1f1_arr(a, c, zs)
        for z, v in zip(zs, got):
            with mpmath.workdps(30):
                want = float(mpmath.hyp1f1(a, c, float(z)))
            assert abs(v - want) <= 1e-13 * abs(want), (a, c, z)


def _former_kummer_1f1_arr(a, c, z):
    """The former rule of kummer_1f1_arr, as a lock-step copy: a series
    whose terms round as term * (aa+m) / (c+m) * w / (m+1) above z = -200,
    and 24 terms of the algebraic branch from there down."""
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
        for m in range(_KUMMER_TERM_CAP):
            term = term * (aa + m) / (c + m) * w / (m + 1)
            s = s + np.where(active, term, 0.0)
            tiny = np.abs(term) < _KUMMER_EPS * np.abs(s)
            small = np.where(tiny, small + 1, 0)
            active = active & (small < 3) & (term != 0.0)
            if not np.any(active):
                break
        out[rest] = np.where(transform, np.exp(zr) * s, s)
    if np.any(neg_big):
        w = -z[neg_big]
        s = np.ones_like(w)
        term = np.ones_like(w)
        for k in range(1, 25):
            term = term * (a + k - 1) * (a - c + k) / (k * w)
            s = s + term
        out[neg_big] = _amplitude(a, c) * np.exp(-a * np.log(w)) * s
    return out


_ACC_WS = np.concatenate([np.geomspace(1e-3, 1e4, 57),
                          [25.0, 33.0, 40.0, 47.0, 60.0, 120.0, 199.0, 201.0]])
_ACC_ZS = np.concatenate([-_ACC_WS, [1e-3, 0.1, 1.0, 5.0, 20.0, 50.0]])


def _worst_rel_error(vals, want):
    with mpmath.workdps(50):
        return max(float(abs((mpmath.mpf(float(v)) - w) / w))
                   for v, w in zip(vals, want))


def _new_and_former_worst(a, c, zs):
    with mpmath.workdps(50):
        want = [mpmath.hyp1f1(a, c, float(z)) for z in zs]
    new = _worst_rel_error(kummer_1f1_arr(a, c, zs), want)
    with np.errstate(all="ignore"):  # lock-step terms run past their stops
        old = _worst_rel_error(_former_kummer_1f1_arr(a, c, zs), want)
    return new, old


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 5.0, 10.0])
def test_kummer_arr_accuracy_not_worse_than_former_rule(a):
    # against 50-digit mpmath, per (a, c), over w = -z from 1e-3 to 1e4
    # and the nodes next to every cut the rule has used, c - a next to the
    # poles of Gamma(c - a) at -1 and -2 included
    for d in (0.3, 1.0, 2.5, 4.0, -0.5, 1e-6, -1.0 + 1e-6, -2.0 + 1e-3):
        c = a + d
        if c <= 0.0:
            continue  # the confluent kernel needs c > 0
        new, old = _new_and_former_worst(a, c, _ACC_ZS)
        assert new <= 1.1 * old, (a, c, new, old)
        assert new <= 2e-14, (a, c, new)


@pytest.mark.parametrize("a, c", [(10.0, 9.000001), (2.5, 1.500001)])
def test_kummer_amplitude_next_to_a_pole_matches_mpmath(a, c):
    with mpmath.workdps(40):
        want = mpmath.gamma(c) / mpmath.gamma(c - a)
        assert abs((_kummer_amplitude(a, c) - want) / want) <= 1e-13


@pytest.mark.parametrize("a,c", [(1.0, 30.0), (1.0, 60.0), (2.0, 40.0),
                                 (0.5, 40.5), (1.0, 300.0)])
def test_kummer_arr_accuracy_where_algebraic_terms_alternate(a, c):
    # with c - a > 1 the first algebraic terms alternate; the cut waits
    # until they fall like 3^-k, so below w = 200 (the former series range)
    # no digits are lost to their cancellation
    below = _ACC_ZS[(_ACC_ZS < 0.0) & (_ACC_ZS > -200.0)]
    assert _new_and_former_worst(a, c, below)[0] <= 5e-14
    new, old = _new_and_former_worst(a, c, _ACC_ZS)
    assert new <= 1.1 * old, (new, old)


def _dropped_pieces(a, c, w):
    """The larger of the smallest algebraic term and the exponential-piece
    bound, both relative to the leading algebraic term, at w."""
    k = np.arange(1.0, 400.0)
    smallest = np.cumprod(np.abs((a + k - 1) * (a - c + k) / (k * w))).min()
    drop = math.exp(math.lgamma(c - a) - math.lgamma(a) - w
                    + (2.0 * a - c) * math.log(w))
    return max(smallest, drop)


@pytest.mark.parametrize("a,c", [
    (1.5, 2.5), (0.3, 4.7), (2.5, 1.0), (1.0, 2.0), (10.0, 9.5),
    (1.0, 1.0 + 1e-6), (2.5, 1.5 + 1e-6), (5.0, 3.001), (0.3, 0.6),
])
def test_kummer_cut_is_where_both_dropped_pieces_are_below_2_pow_56(a, c):
    w0 = _kummer_cut(a, c)
    assert 1.0 <= w0 < 200.0
    for w in np.linspace(w0, 200.0, 60):
        assert _dropped_pieces(a, c, w) < 2.0 ** -56, (w0, w)
    # the cut is the smallest such w, up to the unit step of the scan that
    # finds the exponential piece's
    assert _dropped_pieces(a, c, w0 - 1.0) >= 2.0 ** -56
    assert _kummer_cut(a, c) is w0  # computed once per (a, c)


def test_kummer_cut_keeps_the_series_or_caps_at_200():
    assert _kummer_cut(3.0, 1.0) == math.inf    # c - a = -2
    assert _kummer_cut(2.0, 2.0) == math.inf    # c - a = 0
    assert _kummer_cut(0.5, 1e300) == 200.0     # never accurate: capped
    # the algebraic terms alternate while k < c - a: w >= 3 max(a, 1)
    # (c - a - 1), which is 174 here and 222 (capped) for (2, 40)
    assert _kummer_cut(1.0, 60.0) == 174.0
    assert _kummer_cut(2.0, 40.0) == 200.0


def test_tiny_confluent_parameters_are_no_polynomial_case():
    # a = 1e-20 and c - a = 2e-20 both lie within 1e-12 of 0, but not
    # within 1e-12 of c: 1F1(a; c; -w) is about 2/3 + e^-w / 3, whose
    # exponential piece the algebraic branch must wait out
    a, c = 1e-20, 3e-20
    assert 30.0 < _kummer_cut(a, c) < 200.0
    w = np.array([0.5, 1.0, 5.0, 20.0, 50.0])
    with mpmath.workdps(30):
        want = [float(mpmath.hyp1f1(a, c, -x)) for x in w]
    assert np.allclose(kummer_1f1_arr(a, c, -w), want, rtol=1e-14, atol=0)
    got = ext_beta(kummer_kernel(a, c), BetaArgs(0.5, 0.8), RegPair(1.8, 0.5))
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda t: (t ** -0.5 * (1 - t) ** mpmath.mpf(-0.2)
                       * mpmath.hyp1f1(a, c, -1.8 / t - 0.5 / (1 - t))),
            [0, 0.5, 1])
    assert got.converged and math.isfinite(got.value)
    assert abs(got.value - want) <= 1e-8


def test_kummer_kernel_iterates_no_nodes_in_python():
    # the confluent kernel is block sums over whole arrays: no per-node
    # series, no loop or comprehension over nodes, no .tolist()
    tree = ast.parse(Path(corefn.__file__).read_text(encoding="utf-8"))
    fns = {n.name: n for n in ast.walk(tree)
           if isinstance(n, ast.FunctionDef)}
    assert "_kummer_series_node" not in fns
    for name in ("kummer_1f1_arr", "kummer_algebraic_tail", "_block_sum",
                 "_kummer_cut", "_kummer_at_inf"):
        nodes = list(ast.walk(fns[name]))
        assert not any(isinstance(n, (ast.For, ast.AsyncFor,
                                      ast.comprehension))
                       for n in nodes), name
        assert not any(isinstance(n, ast.Attribute) and n.attr == "tolist"
                       for n in nodes), name


def test_log_theta_far_tail_matches_kernel_value():
    zs = np.array([-1e6, -3000.0, -500.0, -200.0])
    for k in (KUM, KUM2, kummer_kernel(0.3, 4.7)):
        got = log_theta_neg_asym(k, zs)
        want = np.log(theta_eval_arr(k, zs))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    with pytest.raises(DomainError):  # Gamma(1)/Gamma(-0.5) < 0
        log_theta_neg_asym(kummer_kernel(1.5, 1.0), zs)
