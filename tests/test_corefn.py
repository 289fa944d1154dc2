"""Classical building blocks against closed forms and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exthyp.corefn import (
    ClassicalPfqSpec,
    beta_classical,
    classical_2f1,
    classical_pfq,
    gammaln_real,
    kummer_1f1,
    ln_gamma,
    pochhammer,
)
from exthyp.results import DomainError

mpmath.mp.dps = 30


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


@given(st.floats(0.05, 30.0), st.floats(0.05, 30.0))
@settings(max_examples=60, derandomize=True)
def test_beta_symmetry(a, b):
    assert beta_classical(a, b) == beta_classical(b, a)


def test_kummer_at_zero():
    assert kummer_1f1(0.7, 2.3, 0.0).value == 1.0


def test_kummer_closed_form():
    got = kummer_1f1(1.0, 2.0, -1.0)
    assert abs(got.value - (1.0 - math.exp(-1.0))) < 1e-13


def test_kummer_equal_parameters_is_exp():
    got = kummer_1f1(1.4, 1.4, 2.0)
    assert abs(got.value - math.exp(2.0)) < 1e-13 * math.exp(2.0)


@pytest.mark.parametrize("z", [math.nan, -math.nan, math.inf])
def test_kummer_non_finite_argument_is_domain_error(z):
    for a in (1.5, -2.0):  # a series and a terminating polynomial
        with pytest.raises(DomainError):
            kummer_1f1(a, 2.0, z)


def test_kummer_minus_infinity_keeps_zero_limit():
    got = kummer_1f1(1.5, 2.0, -math.inf)
    assert got.value == 0.0 and got.converged


@pytest.mark.parametrize("a,c", [(0.5, 1.5), (2.0, 3.7), (1.0, 2.0)])
def test_kummer_reflection_identity_grid(a, c):
    for z in np.linspace(-30.0, 30.0, 13):
        lhs = kummer_1f1(a, c, z).value
        rhs = math.exp(z) * kummer_1f1(c - a, c, -z).value
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@pytest.mark.parametrize("z", [-5.0, -50.0, -250.0, -4000.0])
def test_kummer_large_negative_matches_mpmath(z):
    want = float(mpmath.hyp1f1(0.8, 2.1, z))
    got = kummer_1f1(0.8, 2.1, z)
    assert abs(got.value - want) <= 1e-11 * (1 + abs(want))


def test_kummer_asymptotic_branch_flags_an_early_truncation():
    # with c - a large the algebraic series grows from its second term on,
    # so it stops after 2 terms far from 1F1 = 0.5450786402430993 (mpmath)
    got = kummer_1f1(1.0, 300.0, -250.0)
    assert got.terms_or_nodes == 2
    assert got.value == -0.22963200000004563
    assert not got.converged
    assert abs(got.value - float(mpmath.hyp1f1(1.0, 300.0, -250.0))) > 0.7
    assert kummer_1f1(0.8, 2.1, -250.0).converged


def test_classical_2f1_log_case():
    got = classical_pfq(ClassicalPfqSpec((1.0, 1.0), (2.0,)), 0.5)
    assert abs(got.value - 2.0 * math.log(2.0)) < 1e-12


def test_classical_2f1_gauss_summation():
    got = classical_pfq(ClassicalPfqSpec((1.0, 2.0), (4.0,)), 1.0)
    assert abs(got.value - 3.0) < 1e-10


def test_gauss_summation_gamma_quotient_grid():
    for (a, b, c) in [(0.5, 1.0, 3.0), (1.2, 0.7, 4.4), (0.3, 0.4, 2.0)]:
        got = classical_2f1(a, b, c, 1.0)
        want = math.exp(gammaln_real(c) + gammaln_real(c - a - b)
                        - gammaln_real(c - a) - gammaln_real(c - b))
        assert abs(got - want) <= 1e-10 * abs(want)


def test_exponential_series():
    got = classical_pfq(ClassicalPfqSpec((), ()), 1.0)
    assert abs(got.value - math.e) < 1e-13


def test_kummer_via_pfq():
    got = classical_pfq(ClassicalPfqSpec((1.0,), (2.0,)), 1.0)
    assert abs(got.value - (math.e - 1.0)) < 1e-13


def test_pfq_against_mpmath():
    cases = [
        (((0.5,), (1.5, 2.5)), 0.7),
        (((1.1, 2.2), (3.3,)), -0.4),
        (((0.9, 1.3, 2.0), (2.5, 3.1)), 0.6),
    ]
    for (upper, lower), z in cases:
        got = classical_pfq(ClassicalPfqSpec(upper, lower), z).value
        want = float(mpmath.hyper(list(upper), list(lower), z))
        assert abs(got - want) <= 1e-11 * (1 + abs(want))


def test_terminating_series_is_exact():
    got = classical_pfq(ClassicalPfqSpec((-3.0, 2.0), (1.5,)), 0.9)
    want = float(mpmath.hyper([-3, 2], [1.5], 0.9))
    assert got.abs_err_est == 0.0
    assert abs(got.value - want) < 1e-13


def test_lower_parameter_pole_rejected():
    with pytest.raises(DomainError):
        ClassicalPfqSpec((1.0,), (0.0,))


def test_divergent_domain_rejected():
    with pytest.raises(DomainError):
        classical_pfq(ClassicalPfqSpec((1.0, 2.0), (3.0,)), 1.5)
