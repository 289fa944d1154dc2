"""Extended Gauss/generalized hypergeometric functions and their identities."""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles
from exthyp import hyp, quadrature
from exthyp.corefn import gammaln_real
from exthyp.extbeta import BetaArgs, RegPair, ext_beta
from exthyp.hyp import (
    SERIES_CAP,
    PfqSpec,
    _CoeffLadder,
    cauchy_derivative,
    derivative,
    derivative_weighted,
    euler_step_integral,
    euler_transform,
    ext_2f1,
    ext_pfq,
    frac_deriv,
    pfaff_transform,
    pfq_series,
    pfq_series_vector,
    pfq_spec,
    recurrence_eval,
    summation_thm,
    weighted_derivative_lhs,
)
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.quadrature import unit_new_nodes
from exthyp.results import DomainError, EvalResult, KernelMismatchError

KUM = kummer_kernel(1.0, 2.0)
R0 = RegPair()


def test_ext_2f1_classical_log_case():
    got = ext_2f1(EXP_KERNEL, 1.0, 1.0, 2.0, 0.5)
    assert abs(got.value - 2.0 * math.log(2.0)) < 1e-10


def test_ext_2f1_zero_argument_is_coefficient_ratio():
    r = RegPair(0.3, 0.6)
    got = ext_2f1(EXP_KERNEL, 1.2, 0.8, 2.1, 0.0, r)
    want = (ext_beta(EXP_KERNEL, BetaArgs(0.8, 1.3), r).value
            / math.exp(gammaln_real(0.8) + gammaln_real(1.3)
                       - gammaln_real(2.1)))
    assert abs(got.value - want) <= 1e-11 * (1 + abs(want))


def test_ext_2f1_series_vs_integral_spec_grid():
    params = [(1.0, 1.0, 2.0), (0.5, 1.5, 3.0), (2.0, 0.7, 2.2)]
    regs = [RegPair(b, d) for b in (0.0, 0.25, 1.0) for d in (0.0, 0.25, 1.0)]
    worst = 0.0
    for kern in (EXP_KERNEL, KUM):
        for (a1, a2, b1) in params:
            for r in regs:
                for z in (-0.5, 0.0, 0.3, 0.7):
                    s = pfq_series(pfq_spec(kern, (a1, a2), (b1,), r), z)
                    i = ext_2f1(kern, a1, a2, b1, z, r, method="integral")
                    res = abs(s.value - i.value) / (1 + abs(i.value))
                    worst = max(worst, res)
    assert worst < 1e-8


def test_ext_2f1_integral_outside_series_domain():
    # z = -5: integral directly, cross-checked by the mapped series
    r = RegPair(0.2, 0.4)
    got = ext_2f1(EXP_KERNEL, 0.7, 1.2, 2.5, -5.0, r, method="integral")
    mapped = pfaff_transform(EXP_KERNEL, 0.7, 1.2, 2.5, -5.0, r)
    assert abs(got.value - mapped.value) <= 1e-9 * (1 + abs(got.value))


@pytest.mark.parametrize("a1, a2, b1, z", [(800.0, 1.0, 2.0, 0.8),
                                           (3000.0, 0.5, 1.5, 0.5)])
def test_series_value_out_of_double_range_is_domain_error(a1, a2, b1, z):
    # the terms overflow, so the sum is inf: refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="out of double range"):
            ext_2f1(EXP_KERNEL, a1, a2, b1, z, RegPair(0.1, 0.1))


def test_underflowed_beta_normalisation_is_refused_before_any_block(
        monkeypatch):
    # B(600, 800) underflows to 0.0, which made every coefficient ratio inf:
    # the series summed rows of inf/NaN and blamed convergence
    def no_block(*args, **kwargs):
        raise AssertionError("a coefficient block was computed")

    monkeypatch.setattr(hyp, "ext_beta_shifted_batch_arrays", no_block)
    hyp._coeff_block.cache_clear()
    spec = pfq_spec(EXP_KERNEL, (1.0, 600.0, 0.5), (1400.0, 2.0),
                    RegPair(0.1, 0.1))
    with pytest.raises(DomainError,
                       match=r"normalisation B\(600, 800\) underflows"):
        ext_pfq(spec, -0.5)


def test_ext_pfq_kummer_level_closed_form():
    got = ext_pfq(pfq_spec(EXP_KERNEL, (1.0,), (2.0,)), 1.0)
    assert abs(got.value - (math.e - 1.0)) < 1e-10


def test_ext_pfq_classical_reduction_1f2():
    spec = pfq_spec(EXP_KERNEL, (1.0,), (2.0, 1.5))
    got = ext_pfq(spec, 0.7)
    want = oracles.hyper((1.0,), (2.0, 1.5), 0.7)
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))


def test_ext_pfq_terminating_is_exact_polynomial():
    spec = pfq_spec(EXP_KERNEL, (-3.0, 1.2), (2.5,), RegPair(0.1, 0.2))
    got = ext_pfq(spec, 0.9)
    # explicit four-term sum with batched coefficients reproduced one by one
    total = 0.0
    for m in range(4):
        num = 1.0
        for i in range(m):
            num *= -3.0 + i
        coeff = (ext_beta(EXP_KERNEL, BetaArgs(1.2 + m, 1.3),
                          RegPair(0.1, 0.2), tol=1e-13).value
                 / math.exp(gammaln_real(1.2) + gammaln_real(1.3)
                            - gammaln_real(2.5)))
        total += num * coeff * 0.9 ** m / math.factorial(m)
    assert abs(got.value - total) <= 1e-11 * (1 + abs(total))


def test_euler_step_reduces_to_gauss_integral():
    r = RegPair(0.1, 0.2)
    spec = pfq_spec(EXP_KERNEL, (0.5, 1.5), (3.0,), r)
    a = euler_step_integral(spec, 0.3)
    b = ext_2f1(EXP_KERNEL, 0.5, 1.5, 3.0, 0.3, r, method="integral")
    assert abs(a.value - b.value) <= 1e-12 * (1 + abs(b.value))


def test_euler_step_3f2_matches_series():
    r = RegPair(0.1, 0.2)
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1, 1.4), (2.2, 2.9), r)
    got = euler_step_integral(spec, 0.4)
    want = pfq_series(spec, 0.4)
    assert abs(got.value - want.value) <= 1e-9 * (1 + abs(want.value))


def test_repeated_euler_steps_classical_3f2():
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1, 1.4), (2.2, 2.9))
    got = euler_step_integral(spec, 0.5)
    want = oracles.hyper((0.8, 1.1, 1.4), (2.2, 2.9), 0.5)
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))


def test_twofold_iterated_euler_representation():
    # applying the Euler step twice turns the two-lower function into a
    # double product-grid integral with coupling (1 - z t1 t2)^(-a1)
    import numpy as np

    from exthyp.corefn import gammaln_real
    from exthyp.quadrature import unit_grid

    a1, a2, a3 = 0.8, 1.1, 1.4
    b1, b2 = 2.2, 2.9
    z = 0.5
    for r in (R0, RegPair(0.15, 0.3)):
        lognorm = (gammaln_real(b1) - gammaln_real(a2)
                   - gammaln_real(b1 - a2) + gammaln_real(b2)
                   - gammaln_real(a3) - gammaln_real(b2 - a3))
        g = unit_grid(7)
        t, tc, w = g.nodes, g.complements, g.weights
        with np.errstate(over="ignore", under="ignore"):
            theta = np.exp(-(r.b / t + r.d / tc))
            w1 = w * t ** (a2 - 1.0) * tc ** (b1 - a2 - 1.0) * theta
            w2 = w * t ** (a3 - 1.0) * tc ** (b2 - a3 - 1.0) * theta
            coupling = (1.0 - z * t[:, None] * t[None, :]) ** -a1
        got = math.exp(lognorm) * float(w1 @ coupling @ w2)
        want = pfq_series(pfq_spec(EXP_KERNEL, (a1, a2, a3), (b1, b2), r), z)
        assert abs(got - want.value) <= 1e-9 * (1 + abs(want.value))


def test_derivative_formula_against_cauchy_derivative():
    r = RegPair(0.2, 0.3)
    spec = pfq_spec(EXP_KERNEL, (1.0, 1.3), (2.6,), r)
    for n in (0, 1, 2):
        got = derivative(spec, 0.35, n)
        want = (ext_pfq(spec, 0.35).value if n == 0
                else cauchy_derivative(spec, 0.35, n).value)
        assert abs(got.value - want) <= 1e-12 * (1 + abs(want))


# (upper, lower) at b = d = 0, where the extended function is the classical
# one: three Gauss sets and a 3F2
_CLASSICAL_SETS = [((0.7, 1.3), (2.1,)), ((1.0, 1.0), (2.0,)),
                   ((0.5, 2.2), (3.4,)), ((0.8, 1.1, 1.4), (2.2, 2.9))]


def _mp_classical(upper, lower, z):
    return mpmath.hyper(list(upper), list(lower), z)


@pytest.mark.parametrize("upper,lower", _CLASSICAL_SETS)
def test_cauchy_derivative_within_its_estimate_of_mpmath(upper, lower):
    # orders past 3 and arguments on both sides of 0, against 40-digit
    # derivatives of the classical function
    spec = pfq_spec(EXP_KERNEL, upper, lower)
    orders = (1, 2, 3, 4, 5) if len(upper) == 2 else (1, 2)
    for z in (-0.6, -0.2, 0.3, 0.8):
        for n in orders:
            got = cauchy_derivative(spec, z, n)
            with mpmath.workdps(40):
                want = float(mpmath.diff(
                    lambda x: _mp_classical(upper, lower, x), z, n))
            assert got.converged and got.method == "series"
            assert abs(got.value - want) <= got.abs_err_est, (z, n)
            assert got.abs_err_est <= 1e-10 * (1 + abs(want)), (z, n)


def test_weighted_derivative_lhs_within_its_estimate_of_mpmath():
    # the circle about z keeps clear of the branch point of z**(a1+n-1)
    a1, a2, b1 = 0.7, 1.3, 2.1
    for z in (0.1, 0.4, 0.8):
        for n in (1, 2, 4):
            got = weighted_derivative_lhs(EXP_KERNEL, a1, a2, b1, z, n)
            with mpmath.workdps(40):
                want = float(mpmath.diff(
                    lambda x: x ** (a1 + n - 1)
                    * mpmath.hyp2f1(a1, a2, b1, x), z, n))
            assert got.converged
            assert abs(got.value - want) <= got.abs_err_est, (z, n)
            assert got.abs_err_est <= 1e-10 * (1 + abs(want)), (z, n)


def test_cauchy_derivatives_refuse_outside_their_domains():
    spec = pfq_spec(EXP_KERNEL, (0.7, 1.3), (2.1,))
    for z, n in ((1.0, 1), (-1.2, 1), (math.nan, 1), (math.inf, 1),
                 (0.3, -1)):
        with pytest.raises(DomainError):
            cauchy_derivative(spec, z, n)
    for z in (0.0, -0.3, 1.0, math.nan):
        with pytest.raises(DomainError):
            weighted_derivative_lhs(EXP_KERNEL, 0.7, 1.3, 2.1, z, 1)
    # a series that converges everywhere takes a circle of radius 1/2
    entire = pfq_spec(EXP_KERNEL, (0.9,), (2.1,))
    assert cauchy_derivative(entire, 3.0, 2).converged


def test_derivative_closed_form_log_case():
    # d/dz [-ln(1-z)/z] at z = 0.5 equals 1/(z(1-z)) + ln(1-z)/z^2
    got = derivative(pfq_spec(EXP_KERNEL, (1.0, 1.0), (2.0,)), 0.5, 1)
    want = 1.0 / (0.5 * 0.5) + math.log(0.5) / 0.25
    assert abs(got.value - want) < 1e-9


def test_weighted_derivative_proof_variant_wins():
    r = RegPair(0.1, 0.15)
    for n in (1, 2):
        lhs = weighted_derivative_lhs(EXP_KERNEL, 1.0, 1.0, 2.0, 0.4, n, r)
        proof = derivative_weighted(EXP_KERNEL, 1.0, 1.0, 2.0, 0.4, n, r,
                                    variant="proof")
        printed = derivative_weighted(EXP_KERNEL, 1.0, 1.0, 2.0, 0.4, n, r,
                                      variant="printed")
        assert abs(lhs.value - proof.value) <= 1e-6 * (1 + abs(lhs.value))
        assert abs(lhs.value - printed.value) > 1e-3


@pytest.mark.parametrize("variant", ["prof", "Proof", "", "printed "])
def test_weighted_derivative_rejects_unknown_variant(variant):
    # a misspelt variant used to evaluate the printed (unshifted) form
    with pytest.raises(DomainError, match="unknown variant"):
        derivative_weighted(EXP_KERNEL, 1.0, 1.0, 2.0, 0.4, 1,
                            RegPair(0.1, 0.15), variant=variant)


def test_pfaff_proof_variant_log_case():
    lhs = ext_2f1(EXP_KERNEL, 1.0, 1.0, 2.0, 0.5)
    rhs = pfaff_transform(EXP_KERNEL, 1.0, 1.0, 2.0, 0.5)
    assert abs(lhs.value - rhs.value) < 1e-10


def test_pfaff_extended_residual():
    r = RegPair(0.3, 0.1)
    lhs = ext_2f1(EXP_KERNEL, 0.7, 1.2, 2.5, -0.4, r)
    rhs = pfaff_transform(EXP_KERNEL, 0.7, 1.2, 2.5, -0.4, r)
    assert abs(lhs.value - rhs.value) < 1e-8


def test_pfaff_printed_variant_fails():
    r = RegPair(0.3, 0.1)
    lhs = ext_2f1(EXP_KERNEL, 0.7, 1.8, 2.5, -0.4, r)
    rhs = pfaff_transform(EXP_KERNEL, 0.7, 1.8, 2.5, -0.4, r,
                          variant="printed")
    assert abs(lhs.value - rhs.value) > 1e-4


def test_pfaff_involution():
    lhs = ext_2f1(EXP_KERNEL, 0.9, 1.1, 2.4, 0.35, RegPair(0.2, 0.5))
    once = pfaff_transform(EXP_KERNEL, 0.9, 1.1, 2.4, 0.35, RegPair(0.2, 0.5))
    assert abs(lhs.value - once.value) < 2e-8


def test_euler_transform_classical_reduction():
    lhs = ext_2f1(EXP_KERNEL, 1.0, 1.0, 3.0, 0.3)
    rhs = euler_transform(EXP_KERNEL, 1.0, 1.0, 3.0, 0.3)
    assert abs(lhs.value - rhs.value) < 1e-10
    want = oracles.hyp2f1(1.0, 1.0, 3.0, 0.3)
    assert abs(rhs.value - want) < 1e-10


def test_euler_transform_proof_variant_wins():
    r = RegPair(0.2, 0.5)
    lhs = ext_2f1(EXP_KERNEL, 1.2, 0.8, 2.7, 0.45, r)
    proof = euler_transform(EXP_KERNEL, 1.2, 0.8, 2.7, 0.45, r)
    printed = euler_transform(EXP_KERNEL, 1.2, 0.8, 2.7, 0.45, r,
                              variant="printed")
    assert abs(lhs.value - proof.value) < 1e-8
    assert abs(lhs.value - printed.value) > 1e-3


def test_euler_transform_zero_argument_consistency():
    r = RegPair(0.4, 0.7)
    lhs = ext_2f1(EXP_KERNEL, 1.2, 0.8, 2.7, 0.0, r)
    proof = euler_transform(EXP_KERNEL, 1.2, 0.8, 2.7, 0.0, r)
    assert abs(lhs.value - proof.value) <= 1e-10 * (1 + abs(lhs.value))


def test_euler_transform_kernel_guard():
    with pytest.raises(KernelMismatchError):
        euler_transform(KUM, 1.0, 1.0, 2.0, 0.3)


@pytest.mark.parametrize("which", ["a1_plus", "a1_minus", "b1_plus"])
def test_recurrences_single_form(which):
    for n in (0, 1, 2, 3):
        lhs, rhs = recurrence_eval(which, EXP_KERNEL, 1.0, 1.0, 2.5, n, 0.3,
                                   RegPair(0.1, 0.1))
        assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))


def test_recurrence_a2_plus_proof_wins():
    for n in (1, 2):
        lhs, rhs = recurrence_eval("a2_plus", EXP_KERNEL, 0.9, 1.1, 4.2, n,
                                   0.25, RegPair(0.1, 0.1), variant="proof")
        assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))
    lhs, rhs = recurrence_eval("a2_plus", EXP_KERNEL, 0.9, 1.1, 4.2, 2,
                               0.25, RegPair(0.1, 0.1), variant="printed")
    assert abs(lhs.value - rhs.value) > 1e-4


def test_recurrence_degenerate_n0():
    lhs, rhs = recurrence_eval("a2_plus", EXP_KERNEL, 0.9, 1.1, 3.2, 0, 0.25,
                               RegPair(0.1, 0.1))
    assert abs(lhs.value - rhs.value) <= 1e-10 * (1 + abs(lhs.value))


def test_summation_identity_classical():
    lhs, rhs = summation_thm(EXP_KERNEL, 1.0, 1.0, 4.0)
    assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))
    # classical cross-check of the plain quadratic-ladder sum at 1
    want = oracles.hyper((1.0, 0.5, 1.0), (2.0, 2.5), 1.0)
    assert abs(lhs.value - want) <= 1e-8 * (1 + abs(want))


def test_summation_identity_points():
    for (a1, a2, b1, r) in [(0.5, 1.0, 3.0, R0),
                            (0.6, 0.9, 3.1, RegPair(0.2, 0.3)),
                            (1.0, 1.2, 4.0, RegPair(0.4, 0.1))]:
        lhs, rhs = summation_thm(EXP_KERNEL, a1, a2, b1, r)
        assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_frac_deriv_constant_closed_form():
    got = frac_deriv(EXP_KERNEL, -0.5, R0, lambda t: np.ones_like(t), 1.0)
    assert abs(got.value - 2.0 / math.sqrt(math.pi)) < 1e-9
    got2 = frac_deriv(EXP_KERNEL, -1.0, R0, lambda t: np.ones_like(t), 2.0)
    assert abs(got2.value - 2.0) < 1e-9


@pytest.mark.parametrize("mu, z", [(-200.0, 0.5), (-0.5, math.inf),
                                   (-30.0, 1e-12), (-160.0, 100.0)])
def test_frac_deriv_prefactor_out_of_range_raises_before_any_node(
        monkeypatch, mu, z):
    # Gamma(200) overflows, z**0.5 at z = inf is inf, 1e-12**30 underflows
    # and 100**160 overflows
    def no_nodes(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(quadrature, "_refine", no_nodes)
    with pytest.raises(DomainError, match="out of double range"):
        frac_deriv(EXP_KERNEL, mu, RegPair(0.1, 0.1), np.exp, z)


def test_frac_deriv_riemann_liouville_power():
    # order -mu integral of t^p is Gamma(p+1)/Gamma(p+1-mu) z^(p-mu)
    mu, p, z = -0.7, 1.3, 1.6
    got = frac_deriv(EXP_KERNEL, mu, R0, lambda t: t ** p, z)
    want = math.exp(gammaln_real(p + 1.0) - gammaln_real(p + 1.0 - mu)) \
        * z ** (p - mu)
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))


def test_frac_deriv_generates_gauss_function():
    # the weighted fractional derivative of t^(a2-1) (1-ct)^(-a1)
    # reproduces the extended Gauss function at cz
    kern, r = EXP_KERNEL, RegPair(0.2, 0.3)
    a1, a2, b1, c, z = 0.9, 1.1, 2.8, 0.5, 0.8
    lhs = ext_2f1(kern, a1, a2, b1, c * z, r)
    quot = math.exp(gammaln_real(b1) - gammaln_real(a2))
    d = frac_deriv(kern, -(b1 - a2), r,
                   lambda t: t ** (a2 - 1.0) * (1.0 - c * t) ** -a1, z)
    rhs = quot * z ** (1.0 - b1) * d.value
    assert abs(lhs.value - rhs) <= 1e-8 * (1 + abs(lhs.value))


def test_binomial_truncation_identity():
    # sum_{i<=n} (-n)_i t^i / i! = (1-t)^n
    for n in (1, 2, 4, 6):
        for t in (0.1, 0.5, 0.9):
            s = sum(math.prod(-n + j for j in range(i)) * t ** i
                    / math.factorial(i) for i in range(n + 1))
            assert abs(s - (1 - t) ** n) < 1e-12


def test_series_domain_guard():
    with pytest.raises(DomainError):
        pfq_series(pfq_spec(EXP_KERNEL, (1.0, 1.0), (2.0,)), 1.5)
    with pytest.raises(DomainError):
        ext_2f1(EXP_KERNEL, 1.0, 1.0, 2.0, 1.5)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_ext_pfq_non_finite_argument_is_domain_error(z):
    for spec in (pfq_spec(EXP_KERNEL, (0.5, 0.7), (1.9,)),
                 pfq_spec(EXP_KERNEL, (0.7, 1.2), (2.5,), RegPair(0.1, 0.2)),
                 pfq_spec(EXP_KERNEL, (0.8, 1.1, 1.4), (2.2, 2.9))):
        with pytest.raises(DomainError):
            ext_pfq(spec, z)
        # each engine checks its argument before any series term or
        # quadrature level, also when called directly
        for engine in (pfq_series, euler_step_integral):
            with pytest.raises(DomainError, match="argument must be finite"):
                engine(spec, z)


@pytest.mark.parametrize("upper, lower", [
    ((3.0,), (-math.inf, -1e308)),  # -inf was rounded by the surplus check
    ((-math.inf, 1.0), (2.0,)),     # and by the terminating check
    ((math.nan, 1.0), (2.0,)),
    ((0.5, 0.7), (math.inf,)),
])
def test_pfq_spec_needs_finite_parameters(upper, lower):
    with pytest.raises(DomainError, match="parameters must be finite"):
        pfq_spec(EXP_KERNEL, upper, lower)


def test_pairing_validation():
    with pytest.raises(DomainError):
        ext_2f1(EXP_KERNEL, 1.0, 2.0, 1.5, 0.3)  # b1 < a2


def test_kummer_kernel_2f1_dual_route():
    r = RegPair(0.2, 0.4)
    s = pfq_series(pfq_spec(KUM, (0.5, 1.5), (3.0,), r), 0.3)
    i = ext_2f1(KUM, 0.5, 1.5, 3.0, 0.3, r, method="integral")
    assert abs(s.value - i.value) <= 1e-9 * (1 + abs(s.value))


def test_extended_gauss_against_external_quadrature():
    # fully external route: arbitrary-precision coefficient integrals
    mpmath.mp.dps = 25
    a1, a2, b1, z, b, d = 0.7, 1.2, 2.5, 0.45, 0.3, 0.6

    def coeff(n):
        f = lambda t: (t ** (a2 + n - 1) * (1 - t) ** (b1 - a2 - 1)
                       * mpmath.exp(-b / t - d / (1 - t)))
        return mpmath.quad(f, [0, 0.5, 1])

    B = mpmath.beta(a2, b1 - a2)
    want = float(sum(mpmath.rf(a1, n) * coeff(n) / B * mpmath.mpf(z) ** n
                     / mpmath.factorial(n) for n in range(45)))
    got = ext_2f1(EXP_KERNEL, a1, a2, b1, z, RegPair(b, d))
    assert abs(got.value - want) <= 1e-12 * (1 + abs(want))


def _sum_per_term(spec, w, ladder, cap=SERIES_CAP, heads=None, weights=None):
    """Reference: the series engine ``hyp._pfq_sum``, one column and one term
    at a time.

    A column stops at its first term whose geometric tail |term| q / (1 - q)
    is at most 1e-16 (unit + |partial sum|): q bounds every later step
    factor, the tail is inf while q >= 1 and 0 after a term 0, and the unit
    is 1, or 1/n for n columns with ``weights`` (parts of one sum).  A
    complex ``w`` keeps its dtype; moduli are ``np.abs``, as the engine's."""
    w = np.asarray(w, dtype=complex if np.iscomplexobj(w) else float)
    head = spec.poch_head()
    lowers = spec.lower[:spec.surplus]
    unit = 1.0 if weights is None else 1.0 / max(w.size, 1)
    out, errs = np.zeros_like(w), np.zeros(w.shape)
    rows, done = 0, True
    for j, x in enumerate(w):
        a1 = None if head is None else (
            head[0] if heads is None else heads[j])
        wgt = 1.0 if weights is None else weights[j]
        s, e, tail, m = 0.0, 0.0, math.inf, 0
        while m < cap:
            ladder.ensure(m + 1)
            e = e + np.abs(wgt) * ladder.cerrs[m]
            term = wgt * ladder.coeffs[m]
            s = s + term
            if head is not None and head[1] > 1:
                q = math.inf
            elif head is not None and head[1] == 1:
                q = max((abs(a1) + m) * np.abs(x) / (m + 1), np.abs(x))
            else:
                q = np.abs(x) / (m + 1.0)
                for b in lowers:
                    q = q / (b + m) if b + m > 0.0 else math.inf
            last = np.abs(term)
            tail = (0.0 if last == 0.0 else
                    last * q / (1.0 - q) if q < 1.0 else math.inf)
            f = x / (m + 1.0)
            if head is not None:
                for i in range(head[1]):
                    f = f * (a1 + head[1] * m + i)
            for b in lowers:
                f = f / (b + m)
            wgt = wgt * f
            m += 1
            if tail <= 1e-16 * (unit + np.abs(s)):
                break
        else:
            done = False
        out[j], errs[j], rows = s, e + tail, max(rows, m)
    return out, errs, rows if done else cap, done


def _series_vector_per_term(spec, w, ladder):
    """pfq_series_vector's (values, errs) from the per-term reference."""
    s, errs, _rows, done = _sum_per_term(spec, w, ladder)
    assert done
    return s, errs


def _bits(x):
    return np.asarray(x).view(np.int64)  # a complex entry gives two


_R12 = RegPair(0.1, 0.2)
# (spec, largest |argument|): head shifts 1, 0 and 2 (terminating), p = q
# (no head), and p < q with a surplus lower parameter
_VECTOR_SPECS = [
    (PfqSpec(((0.7, 1), (1.3, 1)), (2.1,), _R12), 0.8),
    (PfqSpec(((0.7, 0), (1.3, 1)), (2.1,), _R12), 3.0),
    (PfqSpec(((-3.0, 2), (1.3, 1)), (2.1,), _R12), 0.9),
    (PfqSpec(((0.9, 1),), (2.3,), _R12), 40.0),
    (PfqSpec(((1.3, 1),), (2.5, 3.1), _R12), 30.0),
]


@pytest.mark.parametrize("size", [1, 31, 64, 65, 1296, 5184])
@pytest.mark.parametrize("case", range(len(_VECTOR_SPECS)))
def test_series_vector_bit_identical_to_per_term(size, case):
    # real arguments across the range, and a complex circle about 0.3 wmax
    # of radius 0.6 wmax, as a derivative's circle
    spec, wmax = _VECTOR_SPECS[case]
    line = np.linspace(-wmax, wmax, size) if size > 1 else np.array([-wmax])
    circle = wmax * (0.3 + 0.6 * np.exp(2j * np.pi * np.arange(size) / size))
    for w in (line, circle):
        got_ladder, want_ladder = _CoeffLadder(spec), _CoeffLadder(spec)
        got = pfq_series_vector(spec, w, ladder=got_ladder)
        want = _series_vector_per_term(spec, w, want_ladder)
        assert got[0].shape == want[0].shape
        assert got[0].dtype == w.dtype and got[1].dtype == float
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(_bits(got[1]), _bits(want[1]))
        # the same ladder blocks were built
        assert np.array_equal(_bits(got_ladder.coeffs),
                              _bits(want_ladder.coeffs))
        # a ladder already built past the end gives the same bits again
        again = pfq_series_vector(spec, w, ladder=got_ladder)
        assert np.array_equal(_bits(again[0]), _bits(want[0]))
        assert np.array_equal(_bits(again[1]), _bits(want[1]))


def test_series_vector_long_series_crosses_ladder_blocks():
    spec = PfqSpec(((0.7, 1), (1.3, 1)), (2.1,), _R12)
    w = np.linspace(-0.97, 0.97, 97)
    ladder = _CoeffLadder(spec)
    got = pfq_series_vector(spec, w, ladder=ladder)
    want = _series_vector_per_term(spec, w, _CoeffLadder(spec))
    assert ladder.coeffs.size > 4 * hyp._BLOCK
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


def _same_sums(got, want):
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))
    assert got[2:] == want[2:]


def test_series_vector_empty_and_cap_match_per_term(monkeypatch):
    spec = PfqSpec(((0.7, 1), (1.3, 1)), (2.1,), _R12)
    # no argument: no values and no errors
    got = pfq_series_vector(spec, np.zeros(0))
    want = _series_vector_per_term(spec, np.zeros(0), _CoeffLadder(spec))
    assert [a.shape for a in got + want] == [(0,)] * 4
    w = np.linspace(-0.8, 0.8, 65)
    for cap in (0, 5, 70):
        got = hyp._pfq_sum(spec, w, _CoeffLadder(spec), cap)
        want = _sum_per_term(spec, w, _CoeffLadder(spec), cap)
        _same_sums(got, want)
        assert got[2:] == (cap, False)
        monkeypatch.setattr(hyp, "SERIES_CAP", cap)
        with pytest.raises(DomainError, match=f"within {cap} terms"):
            pfq_series_vector(spec, w)


@pytest.mark.parametrize("upper,lower", _CLASSICAL_SETS)
def test_series_vector_complex_arguments_within_estimates_of_mpmath(upper,
                                                                    lower):
    # a complex array is summed as it is, with no cast: complex values and
    # real errors.  The estimate is the tail and the coefficient errors, 0 at
    # b = d = 0, with no rounding floor yet (ROADMAP item 2), so 16 ulps are
    # allowed; 0.3 + 0j, on the real axis, needs 8 of them
    spec = pfq_spec(EXP_KERNEL, upper, lower)
    w = [0.3 + 0.2j, -0.5 + 0.6j, 0.7j, 0.3 + 0.0j, -0.8 - 0.1j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, errs = pfq_series_vector(spec, w)
    assert vals.dtype == complex and errs.dtype == float
    for x, v, e in zip(w, vals, errs):
        with mpmath.workdps(40):
            want = complex(_mp_classical(upper, lower, x))
        assert abs(v - want) <= e + 16 * 2.0 ** -52 * abs(want), x
        assert e <= 1e-15 * (1 + abs(want)), x


@pytest.mark.parametrize("size", [1, 7, 65, 300])
def test_engine_per_column_heads_and_weights_match_per_term(size):
    # the type A layout: one argument, first parameter alpha + N and a
    # start weight per column; the large heads start tiny and still grow
    spec = PfqSpec(((0.9, 1), (0.7, 1)), (2.1,), _R12)
    w = np.full(size, 0.658)
    heads = 0.9 + np.arange(size)
    weights = np.cos(np.arange(size)) * 0.6 ** np.arange(size)
    for cols in ((heads, weights), (heads, None), (None, weights)):
        got_ladder, want_ladder = _CoeffLadder(spec), _CoeffLadder(spec)
        got = hyp._pfq_sum(spec, w, got_ladder, SERIES_CAP, *cols)
        want = _sum_per_term(spec, w, want_ladder, SERIES_CAP, *cols)
        _same_sums(got, want)
        assert got[3]
        assert got_ladder.coeffs.size == want_ladder.coeffs.size


@pytest.mark.parametrize("size", [7, 65, 300])
def test_engine_retires_zero_weight_columns_bit_identically(size):
    # the type A layout with every third degree at weight 0: those columns
    # stop at their first term (tail 0), the others run on with their own
    # heads
    spec = PfqSpec(((0.9, 1), (0.7, 1)), (2.1,), _R12)
    w = np.full(size, 0.658)
    heads = 0.9 + np.arange(size)
    weights = np.cos(np.arange(size)) * 0.6 ** np.arange(size)
    weights[::3] = 0.0
    got = hyp._pfq_sum(spec, w, _CoeffLadder(spec), SERIES_CAP, heads,
                       weights)
    want = _sum_per_term(spec, w, _CoeffLadder(spec), SERIES_CAP, heads,
                         weights)
    _same_sums(got, want)
    assert got[3] and np.all(got[0][::3] == 0.0)


def test_engine_ends_a_terminating_sum_at_a_block_boundary():
    # (-63)_m vanishes from m = 64, the first row of the second block: the
    # zero column has left at its first term, and the others, whose q is
    # at least 2 before, all stop at their first weight 0, tail 0
    spec = PfqSpec(((-63.0, 1), (1.3, 1)), (2.1,), _R12)
    w = np.array([0.0, 2.0, 2.5, 3.0])
    got = hyp._pfq_sum(spec, w, _CoeffLadder(spec), SERIES_CAP)
    want = _sum_per_term(spec, w, _CoeffLadder(spec))
    _same_sums(got, want)
    assert got[2:] == (hyp._BLOCK + 1, True)


def test_engine_keeps_a_nan_column_nan():
    # a NaN tail is never small, so its column never stops, while the
    # columns beside it do; the sum runs to the cap unfinished
    spec = PfqSpec(((0.7, 1), (1.3, 1)), (2.1,), _R12)
    w = np.linspace(-0.8, 0.8, 65)
    w[::4] = 0.0
    w[5] = np.nan
    got = hyp._pfq_sum(spec, w, _CoeffLadder(spec), 200)
    want = _sum_per_term(spec, w, _CoeffLadder(spec), 200)
    _same_sums(got, want)
    assert np.isnan(got[0][5]) and np.isfinite(np.delete(got[0], 5)).all()
    assert got[2:] == (200, False)


def test_ladder_refuses_a_non_finite_coefficient_before_its_rows(
        monkeypatch):
    # an inf in the third coefficient block: the ladder raises, naming the
    # block, before the engine forms any row of it
    spec = PfqSpec(((0.7, 1), (1.3, 1)), (2.1,), _R12)
    real = hyp._coeff_block

    def bad_block(kernel, reg, alpha, width, k, ctol):
        vals, errs, ok = real(kernel, reg, alpha, width, k, ctol)
        if alpha == 1.3 + 2 * hyp._BLOCK:
            vals = vals.copy()
            vals[5] = math.inf
        return vals, errs, ok

    rows = [0]
    tail = hyp._geometric_tail

    def spy(last, *args):
        rows[0] += last.shape[0]
        return tail(last, *args)

    monkeypatch.setattr(hyp, "_coeff_block", bad_block)
    monkeypatch.setattr(hyp, "_geometric_tail", spy)
    with pytest.raises(DomainError, match=r"non-finite coefficient in the "
                       r"block at first argument 129\.3, width 0\.8, "
                       r"stride 1$"):
        ext_pfq(spec, 0.97, method="series")
    assert 0 < rows[0] <= 2 * hyp._BLOCK


def test_engine_sums_a_column_past_its_peak():
    # 2F1(300, 0.7; 2.1; 0.658) scaled by 1e-30: its first terms are far
    # below 1e-16 of the sum, but each is larger than the one before
    spec = pfq_spec(EXP_KERNEL, (0.9, 0.7), (2.1,))
    got = hyp._pfq_sum(spec, np.array([0.658]), _CoeffLadder(spec),
                       SERIES_CAP, np.array([300.0]), np.array([1e-30]))
    want = 1e-30 * oracles.hyp2f1(300.0, 0.7, 2.1, 0.658)
    assert got[3] and got[2] > 500
    assert abs(got[0][0] - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("upper, lower, z", [
    ((0.7, 1.3), (2.1,), 0.8), ((0.7, 1.3), (2.1,), -0.6),
    ((0.9,), (2.3,), 40.0), ((1.3,), (2.5, 3.1), -30.0),
    ((0.8, 1.1, 1.4), (2.2, 2.9), 0.5), ((-3.0, 1.3), (2.1,), 0.9),
])
def test_scalar_series_is_the_engine_on_one_element(upper, lower, z):
    spec = pfq_spec(kummer_kernel(1.5, 2.5), upper, lower, _R12)
    got = pfq_series(spec, z)
    values, errs = pfq_series_vector(spec, np.array([z]))
    assert got.converged
    assert _bits(got.value) == _bits(values[0])
    assert _bits(got.abs_err_est) == _bits(errs[0])


def test_scalar_series_at_the_cap_is_unconverged_and_finite():
    got = pfq_series(pfq_spec(EXP_KERNEL, (1.0, 1.0), (2.0,)), 0.9995)
    assert not got.converged and got.terms_or_nodes == SERIES_CAP
    assert math.isfinite(got.value) and math.isfinite(got.abs_err_est)


def _same_result(got, want):
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.abs_err_est) == _bits(want.abs_err_est)
    assert got.terms_or_nodes == want.terms_or_nodes
    assert got.converged == want.converged
    assert got.method == want.method


def test_euler_step_builds_one_inner_ladder(monkeypatch):
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1, 1.4), (2.2, 2.9), _R12)
    built = []
    init = _CoeffLadder.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_CoeffLadder, "__init__", counting)
    got = euler_step_integral(spec, -0.7)
    assert len(built) == 1
    assert got.terms_or_nodes > unit_new_nodes(0)[0].size  # several levels

    def ladder_per_call(spec, w, ladder=None):
        # the former inner-series call: a fresh ladder every time
        return pfq_series_vector(spec, w)

    monkeypatch.setattr(hyp, "pfq_series_vector", ladder_per_call)
    del built[:]
    want = euler_step_integral(spec, -0.7)
    assert len(built) > 1
    _same_result(got, want)


def _count_builds(monkeypatch):
    built = []
    batch = hyp.ext_beta_shifted_batch_arrays

    def counting(*args, **kwargs):
        built.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(hyp, "ext_beta_shifted_batch_arrays", counting)
    return built


# The shared-block tests below keep their names from the former
# ``shared_coefficients()`` scope; the block cache, ``_coeff_block``, now
# does that sharing everywhere, so each test starts from an empty cache.
@pytest.mark.parametrize("kern", [EXP_KERNEL, kummer_kernel(1.5, 2.5)])
def test_shared_scope_builds_each_block_once(monkeypatch, kern):
    spec = pfq_spec(kern, (0.8, 1.1), (2.4,), _R12)
    built = _count_builds(monkeypatch)
    want = []
    for _ in range(2):
        hyp._coeff_block.cache_clear()
        want.append(ext_pfq(spec, 0.3))
    assert len(built) == 2
    del built[:]
    hyp._coeff_block.cache_clear()
    got = [ext_pfq(spec, 0.3), ext_pfq(spec, 0.3)]
    assert len(built) == 1
    for g, w in zip(got, want):
        _same_result(g, w)


def test_shared_scope_blocks_are_read_only_and_dropped(monkeypatch):
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), _R12)
    built = _count_builds(monkeypatch)
    hyp._coeff_block.cache_clear()
    ext_pfq(spec, 0.3)
    assert hyp._coeff_block.cache_info().currsize == 1
    ladder = _CoeffLadder(spec)
    (alpha, k, width), = ladder.pairs
    vals, errs, ok = hyp._coeff_block(spec.kernel, spec.reg, alpha, width, k,
                                      ladder.tols[0])
    assert hyp._coeff_block.cache_info().hits == 1
    assert not vals.flags.writeable and not errs.flags.writeable
    assert ok
    assert len(built) == 1
    hyp._coeff_block.cache_clear()  # a dropped block is built again
    ext_pfq(spec, 0.3)
    assert len(built) == 2
    assert hyp._coeff_block.cache_info().maxsize == hyp._BLOCK_CACHE_SIZE


@pytest.mark.parametrize("upper, lower, z", [
    ((0.8, 1.4), (1.46,), 0.3),
    ((0.829, 1.403, 0.522), (1.465, 2.586), -0.1999),
])
def test_confluent_kernel_zero_regularization_equals_exp_kernel(upper, lower,
                                                                z):
    # Theta(0) = 1 for both kernels, so at b = d = 0 the values agree; the
    # narrow pair width drives the power exponent past 600 at kernel
    # argument 0
    want = ext_pfq(pfq_spec(EXP_KERNEL, upper, lower), z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ext_pfq(pfq_spec(kummer_kernel(1.5, 2.5), upper, lower), z)
    assert got.converged
    assert got.value == want.value


def test_shared_scope_tells_apart_blocks_with_the_same_start():
    # every ladder here starts its pair at alpha = 1.1 with width 1.3
    specs = [pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,)),
             pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), ks=(1, 2)),
             pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), _R12),
             pfq_spec(kummer_kernel(1.5, 2.5), (0.8, 1.1), (2.4,), _R12)]
    want = []
    for spec in specs:
        hyp._coeff_block.cache_clear()
        want.append(ext_pfq(spec, 0.3))
    hyp._coeff_block.cache_clear()
    got = [ext_pfq(spec, 0.3) for spec in specs]
    assert hyp._coeff_block.cache_info().currsize == len(specs)
    for g, w in zip(got, want):
        _same_result(g, w)


def test_scaled_carries_a_prefactor():
    r = EvalResult(2.0, 0.5, 7, False, "series")
    assert r.scaled(-3.0) == EvalResult(-6.0, 1.5, 7, False, "series")


def _functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}


def test_one_series_engine_for_the_scalar_and_type_a_sums():
    # the scalar series and the type A series run no loop of their own:
    # their terms go through hyp._pfq_sum (the type D series sums its
    # diagonal weights itself, a coefficient block at a time)
    src = Path(hyp.__file__).parent
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    for module, name in (("hyp.py", "pfq_series"),
                         ("lauricella.py", "_fa_series")):
        fn = _functions(src / module)[name]
        assert not any(isinstance(n, loops) for n in ast.walk(fn)), name
    defined = set()
    for path in src.glob("*.py"):
        defined |= set(_functions(path))
    assert "_pfq_sum" in defined
    assert not defined & {"_step_factor", "nested_poch_series", "_axis_seq"}
    # the type D series keeps no cap and no stopping constants of its own
    tree = ast.parse((src / "lauricella.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_DIAG_CAP" not in names
    fd = _functions(src / "lauricella.py")["_fd_series"]
    consts = {n.value for n in ast.walk(fd) if isinstance(n, ast.Constant)}
    assert not consts & {1e-15, 0.97}
    # nor does the type A series: no recursion, no outer cap, no 1e-17 cut;
    # the engine and both series take their cuts from the one tail helper,
    # which hyp defines
    assert "_OUTER_CAP" not in names
    consts = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert 1e-17 not in consts
    called = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            called[fn.name] = {n.func.id for n in ast.walk(fn)
                               if isinstance(n, ast.Call)
                               and isinstance(n.func, ast.Name)}
            assert fn.name not in called[fn.name], fn.name
            # the only nested defs are integrands handed to the quadrature
            nested = {n.name for n in ast.walk(fn)
                      if isinstance(n, ast.FunctionDef) and n is not fn}
            assert nested <= {"powexp", "grid_sum"}, fn.name
    assert "_geometric_tail" in called["_fd_series"]
    assert "_geometric_tail" in called["_fd_diagonals"]
    assert "_geometric_tail" in called["_outer_terms"]
    assert "_geometric_tail" in _functions(src / "hyp.py")
    assert "_geometric_tail" not in _functions(src / "lauricella.py")
    engine = _functions(src / "hyp.py")["_pfq_sum"]
    assert "_geometric_tail" in {n.func.id for n in ast.walk(engine)
                                 if isinstance(n, ast.Call)
                                 and isinstance(n.func, ast.Name)}


@pytest.mark.parametrize("which", ["a1_plus", "a1_minus", "b1_plus",
                                   "a2_plus"])
def test_recurrence_sides_carry_their_pieces_flags(which, monkeypatch):
    args = (which, EXP_KERNEL, 0.9, 1.1, 3.2, 2, 0.25, RegPair(0.1, 0.1))
    lhs, rhs = recurrence_eval(*args)
    assert lhs.converged and rhs.converged
    real = hyp.ext_2f1
    calls = []

    def spy(kernel, a1, a2, b1, *rest, **kwargs):
        calls.append((a1, a2, b1))
        return real(kernel, a1, a2, b1, *rest, **kwargs)

    monkeypatch.setattr(hyp, "ext_2f1", spy)
    recurrence_eval(*args)
    # the left side is evaluated first; mark the last right-side piece
    piece = calls[-1]
    assert piece not in calls[:1]

    def flagged(kernel, a1, a2, b1, *rest, **kwargs):
        out = real(kernel, a1, a2, b1, *rest, **kwargs)
        return dataclasses.replace(
            out, converged=out.converged and (a1, a2, b1) != piece)

    monkeypatch.setattr(hyp, "ext_2f1", flagged)
    lhs, rhs = recurrence_eval(*args)
    assert lhs.converged and not rhs.converged


def test_shift_sums_carry_their_pieces_flags():
    def F(a, c, bad=None):
        return EvalResult(a / c, 1e-16, 10, (a, c) != bad, "series")

    for which, bad in (("lower", (1.1 + 1, 3.2 + 1)),
                       ("upper", (1.1 + 2 + 1, 3.2 + 2 + 1))):
        lhs, rhs = hyp._shift_sums(F, 1.1, 3.2, 2, which, "proof")
        assert lhs.converged and rhs.converged
        lhs, rhs = hyp._shift_sums(lambda a, c: F(a, c, bad), 1.1, 3.2, 2,
                                   which, "proof")
        assert lhs.converged and not rhs.converged
