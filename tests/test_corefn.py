"""Classical building blocks against closed forms and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from exthyp import corefn
from exthyp.corefn import (
    beta_classical,
    gammaln_real,
    kummer_1f1_arr,
    ln_gamma,
    ln_gamma_arr,
    pochhammer,
)
from exthyp.results import DomainError

mpmath.mp.dps = 30


def _kummer(a, c, z):
    return float(kummer_1f1_arr(a, c, np.array([z]))[0])


def test_ln_gamma_trivial():
    assert abs(ln_gamma(1.0)) < 1e-14


def test_ln_gamma_half():
    assert abs(ln_gamma(0.5).real - math.log(math.sqrt(math.pi))) < 1e-13


def test_gamma_modulus_one_plus_i():
    # |Gamma(1+i)|^2 = pi / sinh(pi)
    want = math.sqrt(math.pi / math.sinh(math.pi))
    got = abs(np.exp(complex(ln_gamma(1 + 1j))))
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("z", [0.51 + 0.0j, 3.7 - 2.2j, 0.6 + 0.4j,
                               0.75 + 12.0j, 8.0 + 0.0j, 2.5 - 30.0j,
                               0.2 - 2.0j, 0.25 + 40.0j, 0.1 + 0.0j])
def test_ln_gamma_matches_mpmath_right_half(z):
    want = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
    got = ln_gamma(z)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("z", [-1.3 + 0.4j, -4.6 - 7.0j,
                               -0.5 + 0.0j, -2.5 + 0.0j])
def test_exp_ln_gamma_matches_mpmath_left_half(z):
    # Left of the reflection line only exp(ln_gamma) is contractual
    # (the log may differ from the principal branch by multiples of 2*pi*i).
    want = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
    got = np.exp(complex(ln_gamma(z)))
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("z", [-0.999999, -1.000001, -2.999, -7.0 + 1e-9,
                               -3.0000001 + 1e-7j])
def test_gamma_next_to_a_pole_matches_mpmath(z):
    # the reflection reduces its argument before sin(pi z), so it keeps
    # the digits that z holds next to the pole, in both copies
    want = complex(mpmath.gamma(mpmath.mpmathify(z)))
    for got in (ln_gamma(z), ln_gamma_arr(np.array([z]))[0]):
        assert abs(np.exp(complex(got)) - want) <= 1e-13 * abs(want)


def test_ln_gamma_pole():
    with pytest.raises(DomainError):
        ln_gamma(-3.0)


def test_gamma_functional_equation_grid():
    for x in np.linspace(0.1, 20.0, 41):
        lhs = math.exp(gammaln_real(x)) * x
        rhs = math.exp(gammaln_real(x + 1.0))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_pochhammer_basics():
    assert pochhammer(5.3, 0) == 1.0
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-2.0, 3) == 0.0


@given(st.floats(-10, 10), st.integers(0, 20))
@settings(max_examples=60, derandomize=True)
def test_pochhammer_recurrence(a, m):
    lhs = pochhammer(a, m + 1)
    rhs = pochhammer(a, m) * (a + m)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


def test_beta_classical_values():
    assert abs(beta_classical(1.0, 1.0) - 1.0) < 1e-14
    assert abs(beta_classical(2.0, 3.0) - 1.0 / 12.0) < 1e-15
    assert abs(beta_classical(0.5, 0.5) - math.pi) < 1e-13


@pytest.mark.parametrize("a, b", [(0.5, 1e308), (1e306, 1.0),
                                  (1e308, 1e308)])
def test_beta_classical_out_of_range_is_domain_error(a, b):
    # the log-gammas overflowed, and inf - inf gave a NaN with two warnings
    with pytest.raises(DomainError, match="log-gamma overflows"):
        beta_classical(a, b)


@pytest.mark.parametrize("a, b", [(1.0, 5e-324), (1e-310, 2.0)])
def test_beta_classical_past_double_range_is_domain_error(a, b):
    # B(1, b) = 1/b: the exp of its log raised OverflowError
    with pytest.raises(DomainError, match="overflows"):
        beta_classical(a, b)


@given(st.floats(0.05, 30.0), st.floats(0.05, 30.0))
@settings(max_examples=60, derandomize=True)
def test_beta_symmetry(a, b):
    assert beta_classical(a, b) == beta_classical(b, a)


def test_kummer_at_zero():
    assert _kummer(0.7, 2.3, 0.0) == 1.0


def test_kummer_closed_form():
    # 1F1(1; 2; z) = (e^z - 1)/z
    want = 1.0 - math.exp(-1.0)
    assert abs(_kummer(1.0, 2.0, -1.0) - want) <= 1e-13 * want


def test_kummer_equal_parameters_is_exp():
    got = _kummer(1.4, 1.4, -2.0)
    assert abs(got - math.exp(-2.0)) < 1e-13 * math.exp(-2.0)


def test_kummer_minus_infinity_keeps_zero_limit():
    assert _kummer(1.5, 2.0, -math.inf) == 0.0


@pytest.mark.parametrize("a,c", [(0.5, 1.5), (2.0, 3.7), (1.0, 2.0)])
def test_kummer_reflection_identity_grid(a, c):
    # on the kernel's half line z <= 0 (Kummer's reflection takes the
    # other side, z > 0, which the kernel refuses)
    zs = np.linspace(-30.0, 0.0, 7)
    for z, got in zip(zs, kummer_1f1_arr(a, c, zs)):
        want = oracles.hyp1f1(a, c, z)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("a,c,z", [
    (0.1 + 0.2, 0.3, -40.0),
    (3.0 + 1e-13, 1.0, -40.0),
    (3.0 - 1e-13, 1.0, -40.0),
])
def test_kummer_near_polynomial_keeps_its_non_terminating_part(a, c, z):
    # within 1e-12 of a polynomial (c - a next to a nonpositive integer)
    # the series is not cut at the degree: its delta-sized terms past it
    # decide the value (they were dropped, 110% off at the first case; the
    # last is e^-40 times 1F1(-2 + 1e-13; 1; 40), which was -23 for
    # -1.03e7)
    with mpmath.workdps(40):
        want = float(mpmath.hyp1f1(a, c, z))
    assert abs(_kummer(a, c, z) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("z", [-5.0, -50.0, -250.0, -4000.0])
def test_kummer_large_negative_matches_mpmath(z):
    want = oracles.hyp1f1(0.8, 2.1, z)
    assert abs(_kummer(0.8, 2.1, z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("x", [math.nan, -math.inf, 0.0, -1.0, 2e305,
                               math.inf])
def test_gammaln_real_refuses_x_outside_its_range(x):
    # 1e308 warned (overflow in the Lanczos sum) and gave inf
    with pytest.raises(DomainError):
        gammaln_real(x)


def test_gammaln_real_keeps_its_largest_argument():
    assert math.isfinite(gammaln_real(1e305))


def test_gammaln_real_sum_is_no_worse_than_the_complex_sum():
    # the same Lanczos sum in real arithmetic: on a log-uniform grid over
    # [0.5, 1e6] its worst error against 30-digit mpmath is the complex
    # sum's, and the few draws where the two differ differ by one ulp
    rng = np.random.default_rng(32)
    xs = np.exp(rng.uniform(math.log(0.5), math.log(1e6), 20000))
    real = np.array([gammaln_real(x) for x in xs])
    cplx = np.array([corefn._ln_gamma_right(complex(x)).real for x in xs])
    with mpmath.workdps(30):
        want = [mpmath.loggamma(mpmath.mpf(float(x))) for x in xs]

    def worst(got):
        return max(float(abs(mpmath.mpf(float(g)) - w) / max(abs(w), 1))
                   for g, w in zip(got, want))

    assert worst(real) <= worst(cplx) < 2e-15
    differ = np.flatnonzero(real != cplx)
    assert differ.size <= 10
    assert np.all(np.abs(real - cplx)[differ]
                  == np.array([math.ulp(v) for v in cplx[differ]]))
