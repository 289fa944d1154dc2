"""r-variable extended hypergeometric functions of types D and A."""

import ast
import itertools
import math
import pathlib
import time
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import oracles
from test_hyp import _sum_per_term
from exthyp import appell, hyp, lauricella, quadrature
from exthyp.appell import (
    AppellParams,
    f1_eval,
    f1_integral,
    f1_series,
    f2_eval,
    f2_integral,
    f2_series,
)
from exthyp.corefn import beta_classical
from exthyp.extbeta import (
    BetaArgs,
    RegPair,
    _beta_norm,
    ext_beta,
    safe_theta_product,
    unit_grid_kernel,
)
from exthyp.hyp import SERIES_CAP, ext_2f1, pfq_spec
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.lauricella import (
    IntervalProductParams,
    LauricellaParams,
    fa_eval,
    fa_integral,
    fa_partial_series,
    fa_series,
    fa_single_integral,
    fd_equal_arguments,
    fd_eval,
    fd_integral,
    fd_laplace_product,
    fd_series,
    fd_summation_unit,
    interval_product_integral,
    multinomial_exponential_identity,
)
from exthyp.results import DomainError, EvalResult

R0 = RegPair()


def PD(alpha, betas, gamma, xs, reg=R0):
    return LauricellaParams(alpha, tuple(betas), (gamma,), tuple(xs), reg,
                            EXP_KERNEL)


def PA(alpha, betas, gammas, xs, reg=R0):
    return LauricellaParams(alpha, tuple(betas), tuple(gammas), tuple(xs),
                            reg, EXP_KERNEL)


def test_fd_single_variable_reduction():
    r = RegPair(0.2, 0.1)
    got = fd_series(PD(1.0, [0.7], 2.2, [0.3], r))
    want = ext_2f1(EXP_KERNEL, 0.7, 1.0, 2.2, 0.3, r)
    assert abs(got.value - want.value) <= 1e-10 * (1 + abs(want.value))


def test_fd_classical_oracle():
    got = fd_series(PD(0.9, [0.4, 0.6, 0.8], 2.5, [0.2, -0.15, 0.3]))
    want = oracles.lauricella_fd(0.9, [0.4, 0.6, 0.8], 2.5, [0.2, -0.15, 0.3])
    assert abs(got.value - want) <= 1e-8 * (1 + abs(want))


def test_fd_equal_arguments_collapse():
    r = RegPair(0.1, 0.2)
    lhs, rhs = fd_equal_arguments(PD(1.0, [0.5, 0.7, 0.3], 2.4,
                                     [0.3, 0.3, 0.3], r))
    assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))


def test_fd_permutation_symmetry():
    r = RegPair(0.15, 0.05)
    a = fd_series(PD(0.8, [0.5, 1.2], 2.1, [0.25, -0.4], r)).value
    b = fd_series(PD(0.8, [1.2, 0.5], 2.1, [-0.4, 0.25], r)).value
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_fd_axis_deletion_is_exact():
    # shared coefficient: dropping a zero argument changes nothing at all
    r = RegPair(0.3, 0.2)
    a = fd_series(PD(0.8, [0.5, 1.2, 0.9], 2.1, [0.25, -0.4, 0.0], r)).value
    b = fd_series(PD(0.8, [0.5, 1.2], 2.1, [0.25, -0.4], r)).value
    assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_fd_series_vs_integral():
    for reg in (R0, RegPair(0.2, 0.2)):
        p = PD(1.0, [0.5, 0.5], 2.0, [0.2, 0.4], reg)
        s = fd_series(p)
        i = fd_integral(p)
        assert abs(s.value - i.value) <= 1e-9 * (1 + abs(s.value))
    p3 = PD(1.1, [0.4, 0.5, 0.6], 2.6, [0.15, -0.25, 0.1], RegPair(0.1, 0.3))
    s3 = fd_series(p3)
    i3 = fd_integral(p3)
    assert abs(s3.value - i3.value) <= 1e-9 * (1 + abs(s3.value))


@pytest.mark.parametrize("a, c", [(2.0, 1.0), (3.0, 1.5), (5.0, 1.0)])
def test_fd_series_estimate_covers_kernels_with_c_below_a(a, c):
    # with c < a the confluent kernel's beta ratios change sign; the tail
    # takes their moduli, so no estimate is negative and each series value
    # lies within the sum of its estimate and the Euler integral's
    kern = kummer_kernel(a, c)
    rng = np.random.default_rng(int(10 * a + c))
    points = [LauricellaParams(0.8, (0.9, 1.2), (2.5,), (0.15, 0.2),
                               RegPair(0.1, 0.1), kern)]
    for _ in range(12):
        r = int(rng.integers(1, 4))
        alpha = rng.uniform(0.2, 2.0)
        points.append(LauricellaParams(
            alpha, tuple(rng.uniform(0.2, 2.0, r)),
            (alpha + rng.uniform(0.3, 2.5),),
            tuple(rng.uniform(-0.9, 0.9, r) / r),
            RegPair(*rng.uniform(0.0, 0.5, 2)), kern))
    for p in points:
        for tol in (1e-8, 1e-12):
            s, i = fd_series(p, tol), fd_integral(p, tol)
            assert s.converged and s.abs_err_est >= 0.0, (p, tol)
            assert (abs(s.value - i.value)
                    <= s.abs_err_est + i.abs_err_est), (p, tol, s, i)


def test_fd_constant_when_betas_vanish():
    r = RegPair(0.2, 0.4)
    got = fd_series(PD(1.0, [0.0, 0.0], 2.0, [0.3, 0.6], r))
    want = (ext_beta(EXP_KERNEL, BetaArgs(1.0, 1.0), r).value
            / beta_classical(1.0, 1.0))
    assert abs(got.value - want) <= 1e-11 * (1 + abs(want))


def test_fd_unit_argument_summation():
    # classical single-variable case recovers the gamma-quotient sum
    lhs, rhs = fd_summation_unit(PD(1.0, [1.0], 4.0, [1.0]))
    assert abs(lhs.value - rhs.value) <= 1e-10 * (1 + abs(lhs.value))
    assert abs(lhs.value - oracles.gauss_sum(1.0, 1.0, 4.0)) <= 1e-9
    # regularized two-variable case
    lhs, rhs = fd_summation_unit(PD(0.9, [0.5, 0.6], 2.1, [1.0, 1.0],
                                    RegPair(0.2, 0.1)))
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))
    # degenerate: no linear factors at all
    lhs, rhs = fd_summation_unit(PD(0.9, [0.0], 2.1, [1.0], RegPair(0.2, 0.1)))
    assert abs(lhs.value - rhs.value) <= 1e-10 * (1 + abs(lhs.value))


def test_fd_unit_summation_at_large_parameters_lies_within_its_estimate():
    # B(300, 399.5) ~ 6.3e-209: the beta integral stopped on the absolute
    # scale and came back as 4.85e-209 +- 4.8e-209, then times 1/B it read
    # 1.0276 with converged=True; 1/B now goes to the refinement as norm
    p = PD(300.0, [0.5], 700.0, [1.0])
    with mpmath.workdps(30):
        want = float(mpmath.gamma(700) * mpmath.gamma(399.5)
                     / (mpmath.gamma(400) * mpmath.gamma(699.5)))
    lhs, rhs = fd_summation_unit(p, 1e-8)
    for side in (lhs, rhs):
        assert side.converged
        assert abs(side.value - want) <= side.abs_err_est, side
    assert dict(rhs.parts)["normalisation"] > 0.0


def test_interval_product_unit_interval():
    tp = IntervalProductParams(0.0, 1.0, 1.1, 0.9,
                               ((-0.3, 1.0, -0.7), (-0.5, 1.0, -1.2)),
                               RegPair(0.1, 0.2), EXP_KERNEL)
    lhs, rhs = interval_product_integral(tp)
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_interval_product_shifted_interval():
    tp = IntervalProductParams(1.0, 3.0, 0.8, 1.3, ((0.2, 0.5, -0.9),),
                               RegPair(0.3, 0.4), EXP_KERNEL)
    lhs, rhs = interval_product_integral(tp)
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_interval_product_constant_factor():
    # f = 0 makes the linear factor constant: reduces to a regularized beta
    tp = IntervalProductParams(0.0, 1.0, 1.2, 1.4, ((0.0, 2.0, -0.8),),
                               RegPair(0.1, 0.1), EXP_KERNEL)
    lhs, rhs = interval_product_integral(tp)
    want = 2.0 ** -0.8 * ext_beta(EXP_KERNEL, BetaArgs(1.2, 1.4),
                                  RegPair(0.1, 0.1)).value
    assert abs(lhs.value - want) <= 1e-9 * (1 + abs(want))
    assert abs(rhs.value - want) <= 1e-9 * (1 + abs(want))


def test_fd_laplace_product_r1():
    p = PD(0.9, [1.1], 2.3, [0.2], RegPair(0.1, 0.2))
    lhs, rhs = fd_laplace_product(p)
    assert abs(lhs.value - rhs.value) <= 1e-7 * (1 + abs(lhs.value))


def test_fd_laplace_product_r2():
    p = PD(0.8, [0.9, 1.2], 2.5, [0.15, 0.2], RegPair(0.1, 0.1))
    lhs, rhs = fd_laplace_product(p)
    assert abs(lhs.value - rhs.value) <= 1e-6 * (1 + abs(lhs.value))


def _fd_laplace_arguments(level):
    """The confluent factor's arguments on the level's product grid at the
    r = 2 conformance point, as fd_laplace_product forms them."""
    xs = (0.15, 0.2)
    t = quadrature.halfline_grid(level).nodes
    t = t[t < min(750.0 / (1.0 - max(xs)), 700.0 / sum(xs))]
    return (xs[0] * t[:, None] + xs[1] * t[None, :]).ravel()


def _counting_entries(monkeypatch):
    """Count the term entries that the series engine forms (one tail per
    entry)."""
    count = [0]
    tail = hyp._geometric_tail

    def spy(last, *args):
        count[0] += last.size
        return tail(last, *args)

    monkeypatch.setattr(hyp, "_geometric_tail", spy)
    return count


def test_series_retirement_is_bit_identical_on_the_laplace_grid(monkeypatch):
    # arguments from 1.7e-292 to 229: the small ones stop after a few
    # terms while the large ones still need hundreds of rows
    spec = pfq_spec(EXP_KERNEL, (0.8,), (2.5,), RegPair(0.1, 0.1))
    w = _fd_laplace_arguments(4)
    assert w.size == 143 ** 2 and w.min() < 1e-291 and w.max() > 228.0
    count = _counting_entries(monkeypatch)
    got = hyp._pfq_sum(spec, w, hyp._CoeffLadder(spec))
    want = _sum_per_term(spec, w, hyp._CoeffLadder(spec))
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    assert got[2:] == want[2:] and got[3]
    assert count[0] < 0.5 * got[2] * w.size


def test_fd_laplace_product_r2_forms_at_most_1m_series_entries(monkeypatch):
    # the half-line cut leaves 212,522 entries, the right side's series
    # included (459,910 with the overflow cut alone)
    count = _counting_entries(monkeypatch)
    fd_laplace_product(PD(0.8, [0.9, 1.2], 2.5, [0.15, 0.2],
                          RegPair(0.1, 0.1)), 1e-8)
    assert count[0] <= 220_000


@pytest.mark.parametrize("form, p", [
    (fd_laplace_product, PD(0.9, [1.1], 2.3, [0.2], RegPair(0.1, 0.2))),
    (fd_laplace_product, PD(0.8, [0.9, 1.2], 2.5, [0.15, 0.2],
                            RegPair(0.1, 0.1))),
    (fa_single_integral, PA(1.2, [0.5, 0.9], [1.4, 2.1], [0.3, 0.2],
                            RegPair(0.1, 0.2))),
])
def test_laplace_forms_weight_their_inner_errors(form, p):
    # each node's inner-series error counts times its outer weight, so the
    # estimate is of the tolerance's size and still covers the series side
    sides = form(p, 1e-8)
    integral, = (s for s in sides if s.method == "euler_integral")
    series, = (s for s in sides if s.method == "series")
    assert integral.converged
    assert integral.abs_err_est <= 1e-8
    assert (abs(integral.value - series.value)
            <= integral.abs_err_est + series.abs_err_est)


def test_multinomial_exponential_identity():
    lhs, rhs = multinomial_exponential_identity((0.2, 0.3))
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))
    lhs, rhs = multinomial_exponential_identity((0.1, 0.2, 0.15))
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_fa_single_variable_reduction():
    r = RegPair(0.2, 0.1)
    got = fa_series(PA(1.0, [0.7], [2.2], [0.3], r))
    want = ext_2f1(EXP_KERNEL, 1.0, 0.7, 2.2, 0.3, r)
    assert abs(got.value - want.value) <= 1e-10 * (1 + abs(want.value))


def test_fa_classical_oracle():
    got = fa_series(PA(0.9, [0.4, 0.6], [1.8, 2.1], [0.2, 0.25]))
    want = oracles.lauricella_fa(0.9, [0.4, 0.6], [1.8, 2.1], [0.2, 0.25])
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))
    got3 = fa_series(PA(1.1, [0.4, 0.6, 0.5], [1.8, 2.1, 1.9],
                        [0.15, 0.2, 0.1]))
    want3 = oracles.lauricella_fa(1.1, [0.4, 0.6, 0.5], [1.8, 2.1, 1.9],
                                  [0.15, 0.2, 0.1])
    assert abs(got3.value - want3) <= 1e-8 * (1 + abs(want3))
    # r = 4 runs a third outer axis; at sum |x_j| = 0.5 the float oracle's
    # 44 total degrees give the same bits as 54
    args4 = (1.2, [0.4, 0.6, 0.5, 0.7], [1.8, 2.1, 1.9, 2.3],
             [0.15, -0.12, 0.13, -0.1])
    got4 = fa_series(PA(*args4))
    want4 = oracles.lauricella_fa_float(*args4, terms=44)
    assert got4.converged
    assert abs(got4.value - want4) <= 1e-13 * abs(want4)


def test_fa_series_r4_holds_one_weight_per_degree():
    # r = 4 near the series edge: with one weight per total degree of the
    # outer axes, not one term per index vector, the traced peak is small
    p = PA(1.2, [0.5, 0.9, 0.7, 0.6], [1.4, 2.1, 1.6, 1.5],
           [0.3, -0.25, 0.2, -0.22], RegPair(0.1, 0.2))
    tracemalloc.start()
    try:
        got = fa_series(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.converged
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("alpha, betas, gammas, xs, degrees", [
    (5.0, [3.0] * 4, [3.5] * 4, [-0.2374, 0.2374, -0.2374, 0.2374], 300),
    (1.2, [0.5, 0.9, 0.7, 0.6], [1.4, 2.1, 1.6, 1.5], [0.3, 0.25, 0.2, 0.2],
     600),
    # negative axes first: summed in this order, the degree weights cancel
    (5.0, [3.0] * 4, [3.5] * 4, [-0.2374, -0.2374, 0.2374, 0.2374], 300),
    (5.0, [3.0] * 3, [3.5] * 3, [-0.3, -0.3, 0.3], 300),
])
def test_fa_series_r4_near_the_edge_matches_a_sum_by_degree(
        alpha, betas, gammas, xs, degrees):
    start = time.perf_counter()
    got = fa_series(PA(alpha, betas, gammas, xs))
    with mpmath.workdps(30):
        want, last = oracles.lauricella_fa_by_degree(alpha, betas, gammas,
                                                     xs, degrees)
        assert last < 1e-20 * abs(want)  # the reference's own truncation
    assert got.converged
    assert abs(got.value - want) <= 1e-14 * abs(want)
    assert time.perf_counter() - start <= 2.0


def test_fa_permutation_symmetry():
    r = RegPair(0.1, 0.25)
    a = fa_series(PA(0.9, [0.4, 0.6], [1.8, 2.1], [0.2, 0.25], r)).value
    b = fa_series(PA(0.9, [0.6, 0.4], [2.1, 1.8], [0.25, 0.2], r)).value
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_fa_zero_arguments_coefficient_product():
    r = RegPair(0.2, 0.3)
    got = fa_series(PA(1.3, [0.5, 0.8], [1.6, 2.0], [0.0, 0.0], r))
    want = 1.0
    for b, g in ((0.5, 1.6), (0.8, 2.0)):
        want *= (ext_beta(EXP_KERNEL, BetaArgs(b, g - b), r).value
                 / beta_classical(b, g - b))
    assert abs(got.value - want) <= 1e-11 * (1 + abs(want))


def test_fa_series_vs_integral():
    p = PA(1.0, [0.6, 0.7], [1.8, 2.1], [0.2, 0.25], RegPair(0.1, 0.1))
    s = fa_series(p)
    i = fa_integral(p)
    assert abs(s.value - i.value) <= 1e-7 * (1 + abs(s.value))
    p1 = PA(1.0, [0.6], [1.8], [0.35], RegPair(0.2, 0.3))
    assert abs(fa_series(p1).value - fa_integral(p1).value) <= 1e-9


def test_fa_integral_printed_normalization_fails():
    p = PA(1.0, [0.6, 0.7], [1.8, 2.1], [0.2, 0.25], RegPair(0.1, 0.1))
    s = fa_series(p)
    i = fa_integral(p, variant="printed")
    assert abs(s.value - i.value) > 1e-2


def test_fa_single_integral_infinite_upper():
    for reg in (R0, RegPair(0.1, 0.2)):
        p = PA(1.0, [0.8, 0.7], [2.0, 2.2], [0.3, 0.2], reg)
        series, integral = fa_single_integral(p)
        assert abs(series.value - integral.value) <= 1e-6 * (1 + abs(series.value))


def test_fa_single_integral_classical_r1():
    p = PA(1.0, [0.8], [2.0], [0.3])
    series, integral = fa_single_integral(p)
    want = oracles.hyp2f1(1.0, 0.8, 2.0, 0.3)
    assert abs(integral.value - want) <= 1e-7 * (1 + abs(want))


def test_fa_single_integral_unit_upper_fails():
    p = PA(1.0, [0.8, 0.7], [2.0, 2.2], [0.3, 0.2], RegPair(0.1, 0.2))
    series, integral = fa_single_integral(p, upper=1.0)
    assert abs(series.value - integral.value) / (1 + abs(series.value)) > 1e-2


def test_fa_partial_series():
    p = PA(1.0, [0.6, 0.7], [1.8, 2.1], [0.2, 0.25], RegPair(0.1, 0.1))
    lhs, rhs = fa_partial_series(p)
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))
    p3 = PA(0.9, [0.5, 0.6, 0.7], [1.7, 1.9, 2.2], [0.1, 0.15, 0.2],
            RegPair(0.05, 0.1))
    lhs, rhs = fa_partial_series(p3)
    assert abs(lhs.value - rhs.value) <= 1e-7 * (1 + abs(lhs.value))


@pytest.mark.parametrize("xs", [(-0.3, -0.3, 0.3),
                                (-0.2374, -0.2374, 0.2374, 0.2374)])
def test_fa_partial_series_right_side_sums_in_the_type_a_axis_order(xs):
    # summed in the given order, the outer weights of the leading negative
    # axes alternate and the split-off positive axis cancels them (1.7e-12
    # and 5.8e-13 relative); both type A sums take the x_j >= 0 axes first
    r = len(xs)
    p = PA(5.0, [3.0] * r, [3.5] * r, list(xs))
    lhs, rhs = fa_partial_series(p)
    with mpmath.workdps(30):
        want, last = oracles.lauricella_fa_by_degree(5.0, [3.0] * r,
                                                     [3.5] * r, xs, 300)
        assert last < 1e-20 * abs(want)
    assert lhs.converged and rhs.converged
    for side in (lhs, rhs):
        assert abs(side.value - want) <= 1e-14 * abs(want)


def test_fa_partial_series_zero_last_argument():
    r = RegPair(0.1, 0.1)
    p = PA(1.0, [0.6, 0.7], [1.8, 2.1], [0.2, 0.0], r)
    lhs, rhs = fa_partial_series(p)
    assert abs(lhs.value - rhs.value) <= 1e-10 * (1 + abs(lhs.value))


def test_domain_guards():
    with pytest.raises(DomainError):
        fa_series(PA(1.0, [0.6, 0.7], [1.8, 2.1], [0.6, 0.5]))
    with pytest.raises(DomainError):
        fd_series(PD(1.0, [0.5], 2.0, [1.2]))
    with pytest.raises(DomainError):
        fd_series(PD(1.0, [0.5, 0.5, 0.5, 0.5, 0.5], 3.0, [0.1] * 5))
    with pytest.raises(DomainError):
        fa_integral(PA(1.0, [0.5] * 3, [1.5] * 3, [0.1] * 3))


@pytest.mark.parametrize("alpha, betas, gamma, xs", [
    (0.9, [1.1], 2.3, [0.6]),
    (0.9, [1.1], 2.3, [0.8]),
    (0.8, [0.9, 1.2], 2.5, [0.5, 0.6]),
])
def test_fd_laplace_product_large_arguments_converge(alpha, betas, gamma, xs):
    # the truncation point used to let the confluent factor overflow where
    # the e^-t weight had underflowed: 0 * inf = NaN and a RuntimeWarning
    lhs, rhs = fd_laplace_product(PD(alpha, betas, gamma, xs,
                                     RegPair(0.1, 0.2)))
    assert lhs.converged and math.isfinite(lhs.value)
    assert abs(lhs.value - rhs.value) <= 1e-13 * abs(rhs.value)


def test_fa_single_integral_large_arguments_match_mpmath():
    p = PA(0.9, [0.7, 1.1], [2.0, 2.3], [0.3, 0.4])
    _, integral = fa_single_integral(p, 1e-10)
    want = float(mpmath.appellf2(0.9, 0.7, 1.1, 2.0, 2.3, 0.3, 0.4))
    assert integral.converged
    assert abs(integral.value - want) <= 1e-13 * abs(want)


def _bits(r):
    """int64 views of value and error, with the node count and flag."""
    return (np.float64(r.value).view(np.int64),
            np.float64(r.abs_err_est).view(np.int64), r.terms_or_nodes,
            r.converged, r.method)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("kernel", [EXP_KERNEL, kummer_kernel(1.5, 2.5)],
                         ids=["exp", "kummer"])
def test_appell_functions_are_the_r2_engines(kernel, tol):
    reg = RegPair(0.2, 0.3)
    p = AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, reg, kernel)

    def as_fd(x, y):
        return LauricellaParams(0.8, (1.1, 0.7), (2.4,), (x, y), reg, kernel)

    def as_fa(x, y):
        return LauricellaParams(0.8, (1.1, 0.7), (2.4, 2.1), (x, y), reg,
                                kernel)

    for x, y in ((0.3, -0.2), (-0.6, 0.5)):
        assert _bits(f1_series(p, x, y, tol)) == _bits(
            fd_series(as_fd(x, y), tol))
    for x, y in ((0.96, -0.4), (-0.5, 0.3)):
        assert _bits(f1_integral(p, x, y, tol)) == _bits(
            fd_integral(as_fd(x, y), tol))
    for x, y in ((-0.4, 0.35), (0.3, -0.25)):
        assert _bits(f2_series(p, x, y, tol)) == _bits(
            fa_series(as_fa(x, y), tol))
    for x, y in ((0.3, -0.35), (-0.5, 0.4)):
        assert _bits(f2_integral(p, x, y, tol)) == _bits(
            fa_integral(as_fa(x, y), tol))


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("kernel", [EXP_KERNEL, kummer_kernel(1.5, 2.5)],
                         ids=["exp", "kummer"])
def test_type_d_auto_is_the_euler_integral_inside_the_polydisk(kernel, tol):
    # auto reads only the method: F1 and FD (r = 2, 3, 4) take the single
    # Euler integral at every argument, and agree with the explicit series
    rng = np.random.default_rng(35)
    for func, r in (("f1", 2), ("fd", 2), ("fd", 3), ("fd", 4)) * 4:
        alpha = rng.uniform(0.3, 2.0)
        gamma = alpha + rng.uniform(0.3, 2.0)
        betas = tuple(rng.uniform(-0.5, 2.0, r))
        xs = tuple(rng.uniform(-0.9, 0.9, r))
        reg = RegPair(*rng.uniform(0.0, 0.4, 2))
        if func == "f1":
            q = AppellParams(alpha, *betas, gamma, math.nan, reg, kernel)
            run = lambda method: f1_eval(q, *xs, tol, method)
        else:
            p = LauricellaParams(alpha, betas, (gamma,), xs, reg, kernel)
            run = lambda method: fd_eval(p, tol, method)
        got, ref = run("auto"), run("series")
        assert got.method == "euler_integral" and got.converged
        assert ref.method == "series" and ref.converged
        assert abs(got.value - ref.value) <= 10 * tol * (1 + abs(ref.value))


@pytest.mark.parametrize("size", [0.3, 0.9, 0.96])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_type_a_auto_dispatch_table(r, size):
    # auto takes the product grid at every r <= 2 argument (F2 too); at
    # r >= 3 it sums the series inside sum_j |x_j| < 0.95, and past it the
    # grid refuses, as it has no r >= 3 path
    xs = tuple(size / r * (-1.0) ** j for j in range(r))
    p = LauricellaParams(0.8, (1.1, 0.7, 0.9, 0.6)[:r],
                         (2.4, 2.1, 1.9, 1.7)[:r], xs, RegPair(0.2, 0.3),
                         EXP_KERNEL)
    if r <= 2:
        assert fa_eval(p, 1e-8).method == "euler_integral"
    if r == 2:
        q = AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, p.reg, p.kernel)
        assert f2_eval(q, *xs, 1e-8).method == "euler_integral"
    if r >= 3 and size < 0.95:
        assert fa_eval(p, 1e-8).method == "series"
    if r >= 3 and size > 0.95:
        with pytest.raises(DomainError, match="implemented for r <= 2"):
            fa_eval(p, 1e-8)


def _fa_full_grid(p, tol):
    """The type A product grid as formed before it skipped the rows of
    zero axis-0 weight: the factor on every row of each block."""

    def grid_sum(level):
        g = quadrature.unit_grid(level)
        t, tc, wt = g.nodes, g.complements, g.weights
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            arg, theta = unit_grid_kernel(p.kernel, p.reg, level)
            factors = [safe_theta_product(
                p.kernel, (b - 1.0) * np.log(t) + (gam - b - 1.0)
                * np.log(tc), arg, theta)
                for b, gam in zip(p.betas, p.gammas)]
            axes = [wt * f for f in factors]
            caxes = [g.coarse * f for f in factors]
            moduli = ([np.abs(a) for a in axes]
                      if any((a < 0.0).any() for a in axes) else None)
            s = cs = modulus = 0.0
            if p.r == 1:
                m = np.exp(-p.alpha * np.log1p(-p.xs[0] * t))
                s, cs = float(axes[0] @ m), float(caxes[0] @ m)
                if moduli:
                    modulus = float(moduli[0] @ m)
            else:
                for i0 in range(0, t.size, 512):
                    blk = slice(i0, min(i0 + 512, t.size))
                    m = np.exp(-p.alpha * np.log1p(
                        -(p.xs[0] * t[blk][:, None] + p.xs[1] * t[None, :])))
                    s += float(axes[0][blk] @ m @ axes[1])
                    cs += float(caxes[0][blk] @ m @ caxes[1])
                    if moduli:
                        modulus += float(moduli[0][blk] @ m @ moduli[1])
            if moduli is None:
                modulus = abs(s)
        return (cs, s), t.size ** p.r, (modulus, {"inner": 0.0})

    # the refinement adds the floor 2 eps modulus of the last level, and
    # judges and reports in the units of the prefactor times the sum
    return quadrature._refine_grid(
        grid_sum, tol, _beta_norm(tuple(zip(p.betas, p.gammas))))


@pytest.mark.parametrize("kernel", [EXP_KERNEL, kummer_kernel(1.3, 2.1),
                                    kummer_kernel(3.0, 1.0)],
                         ids=["exp", "kummer", "kummer-signed"])
def test_type_a_grid_on_live_rows_keeps_the_full_grid_bits(kernel):
    # value, estimate, node count and flag equal the full-grid formula's,
    # at r = 1 and 2, with b and d each zero or not
    rng = np.random.default_rng(37)
    for r, b, d in itertools.product((1, 2), (0.0, 0.4), (0.0, 0.15)):
        for tol in (1e-6, 1e-10):
            betas = tuple(rng.uniform(0.2, 2.0, r))
            gammas = tuple(bj + rng.uniform(0.2, 2.0) for bj in betas)
            xs = tuple(rng.uniform(-1.0, 1.0, r) * rng.uniform(0.0, 0.97) / r)
            p = LauricellaParams(rng.uniform(0.2, 3.0), betas, gammas, xs,
                                 RegPair(b, d), kernel)
            assert _bits(fa_integral(p, tol)) == _bits(_fa_full_grid(p, tol))


def test_type_a_grid_forms_its_factor_on_live_rows_only(monkeypatch):
    # with the exp kernel at b, d > 0 the axis-0 weights and the axis-1
    # kernel factors underflow to 0 near both ends; log1p runs on the rows
    # of each 512-row block from its first to its last nonzero weight,
    # times the columns from the first to the last nonzero axis-1 factor
    # (at most half of them here), and on no other
    p = PA(0.9, [0.7, 1.1], [2.0, 2.3], [0.3, -0.4], RegPair(0.5, 0.4))
    entries = {}
    log1p = np.log1p

    def spy(x, *args, **kwargs):
        entries[x.shape[1]] = entries.get(x.shape[1], 0) + x.size
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", spy)
    fa_integral(p, 1e-10)
    monkeypatch.undo()
    assert entries
    formed, full = sum(entries.values()), 0
    for level in range(quadrature.GRID_LEVELS[-1] + 1):
        g = quadrature.unit_grid(level)
        n = g.nodes.size

        def factor(b, gam):
            with np.errstate(under="ignore", divide="ignore"):
                return np.exp((b - 1.0) * np.log(g.nodes) + (gam - b - 1.0)
                              * np.log(g.complements) - 0.5 / g.nodes
                              - 0.4 / g.complements)

        cols = np.flatnonzero(factor(1.1, 2.3))
        cols = cols[-1] - cols[0] + 1
        assert 2 * cols <= n  # else the window takes every column
        if cols not in entries:
            continue
        w = g.weights * factor(0.7, 2.0)
        live = 0
        for i0 in range(0, n, 512):
            nz = np.flatnonzero(w[i0:i0 + 512])
            live += nz[-1] - nz[0] + 1 if nz.size else 0
        assert entries.pop(cols) == live * cols
        full += n * n
    assert not entries
    assert formed < 0.4 * full, (formed, full)
    # the confluent kernel decays algebraically: its live span is wider
    # than half the columns, and each block's factor takes whole rows
    shapes = []
    monkeypatch.setattr(np, "log1p", lambda x, *args, **kwargs: (
        shapes.append(x.shape), log1p(x, *args, **kwargs))[1])
    fa_integral(replace(p, kernel=kummer_kernel(1.3, 2.1)), 1e-10)
    monkeypatch.undo()
    sizes = {g.nodes.size for g in map(quadrature.unit_grid, range(9))}
    assert shapes and all(cols in sizes for _rows, cols in shapes)


def test_integral_estimates_carry_a_rounding_floor():
    # at b = d = 0 a converged level difference can be exactly 0.0; the
    # estimate still adds eps times the sum of |w f| over the last level
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.uniform(0.2, 3.0)
        b1, b2 = rng.uniform(0.2, 2.0, 2)
        g = a + rng.uniform(0.3, 3.0)
        x, y = rng.uniform(-0.95, 0.95, 2)
        res = f1_integral(AppellParams(a, b1, b2, g), x, y, 1e-10)
        assert res.converged and res.value != 0.0 and res.abs_err_est > 0.0
    # the product grid: 0.0 at tol 1e-7 and 1e-10 without the floor, for
    # an error of 7.8e-16 against mpmath.appellf2
    for tol in (1e-7, 1e-10):
        res = f2_integral(AppellParams(0.9, 0.6, 0.7, 1.9, 2.1), -0.5, 0.3,
                          tol)
        assert res.converged and res.abs_err_est > 1e-16
    # a kernel of both signs (1F1(3; 1; -w) < 0 on w in (0.59, 3.41)), whose
    # floor is summed from the moduli: the estimate covers the series' gap
    p = AppellParams(0.9, 0.6, 0.7, 1.9, 2.1, RegPair(0.5, 0.5),
                     kummer_kernel(3.0, 1.0))
    res, ref = f2_integral(p, -0.5, 0.3, 1e-9), f2_series(p, -0.5, 0.3, 1e-9)
    assert res.converged and ref.converged
    assert (abs(res.value - ref.value)
            <= res.abs_err_est + ref.abs_err_est)


def test_euler_estimates_cover_their_error_at_b_d_zero():
    # the catalog's f2-transform-x printed 1 read 8.4e-16 from its 30-digit
    # value with an estimate of 2.5e-16, before the estimate took in the
    # error of its normalisation exp(log-gamma terms)
    res = f2_eval(AppellParams(0.9, 0.7, 0.5, 2.0, 1.9), 0.15, 0.3)
    assert res.method == "euler_integral" and res.converged
    assert abs(res.value - 1.14618686433595890551350071609) <= res.abs_err_est
    # the product grid (F2, F_A at r = 1) and the kernel integral (F1) over
    # eval-mix's ranges, and with betas and gammas in the tens, where the
    # log-gamma terms are about 100, against mpmath
    rng = np.random.default_rng(38)
    for i in range(60):
        hi, edge = (40.0, 0.3) if i % 2 else (2.0, 0.95)
        a, b1, b2 = rng.uniform(0.2, 2.5), *rng.uniform(0.1, hi, 2)
        g1, g2 = b1 + rng.uniform(0.3, hi), b2 + rng.uniform(0.3, hi)
        x = rng.uniform(-edge, edge)
        y = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, edge - abs(x))
        tol = (1e-10, 1e-14, 1e-6)[i // 3 % 3]
        with mpmath.workdps(25):
            if i % 3 == 0:
                c = a + g2 - b2
                res = f1_eval(AppellParams(a, b1, b2, c), x, y, tol)
                ref = mpmath.appellf1(a, b1, b2, c, x, y)
            elif i % 4:
                res = f2_eval(AppellParams(a, b1, b2, g1, g2), x, y, tol)
                ref = mpmath.appellf2(a, b1, b2, g1, g2, x, y)
            else:
                res = fa_eval(LauricellaParams(a, (b1,), (g1,), (x,)), tol)
                ref = mpmath.hyp2f1(a, b1, g1, x)
        assert res.method == "euler_integral" and res.converged
        assert abs(res.value - float(ref)) <= res.abs_err_est, (i, res)


def test_appell_imports_the_engines_and_runs_no_loop_of_its_own():
    src = pathlib.Path(lauricella.__file__).parent
    for node in ast.walk(ast.parse((src / "lauricella.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "appell"
            assert "appell" not in (a.name for a in node.names)
    tree = ast.parse((src / "appell.py").read_text())
    assert not any(isinstance(node, ast.While) for node in ast.walk(tree))


def test_non_finite_input_is_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a ladder or a quadrature started")

    monkeypatch.setattr(quadrature, "_refine", no_work)
    monkeypatch.setattr(lauricella, "_ratio_ladder", no_work)
    nan, inf = math.nan, math.inf
    p2 = AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, R0, EXP_KERNEL)

    def p1_inf():  # refused when it is built, inside each call below
        return AppellParams(0.8, 1.1, 0.7, inf, nan, R0, EXP_KERNEL)

    calls = [
        lambda: f2_eval(p2, 0.2, nan),
        lambda: f2_integral(p2, 0.2, nan),
        lambda: fa_integral(PA(0.8, [1.1, 0.7], [2.4, 2.1], [0.2, nan])),
        lambda: fa_series(PA(0.8, [1.1, 0.7], [2.4, inf], [0.2, 0.3])),
        lambda: f1_eval(p2, 0.2, nan),
        lambda: fd_series(PD(0.8, [1.1, 0.7], 2.4, [0.2, nan])),
        lambda: fd_series(PD(0.8, [1.1, inf], 2.4, [0.2, 0.3])),
        lambda: fd_integral(PD(0.8, [1.1, 0.7], 2.4, [0.2, nan])),
        lambda: f1_eval(p1_inf(), 0.2, 0.3),
        lambda: f1_eval(p1_inf(), 0.96, 0.3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError):
                call()


@pytest.mark.parametrize("method", ["integrl", "", "Series", "mellin"])
def test_unknown_method_is_rejected_before_any_work(monkeypatch, method):
    def no_work(*args, **kwargs):
        raise AssertionError("a ladder or a quadrature started")

    monkeypatch.setattr(quadrature, "_refine", no_work)
    for name in ("_ratio_ladder", "_CoeffLadder"):
        monkeypatch.setattr(lauricella, name, no_work)
    p = AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, R0, EXP_KERNEL)
    calls = [
        lambda: f1_eval(p, 0.2, 0.3, method=method),
        lambda: f2_eval(p, 0.2, 0.3, method=method),
        lambda: fd_eval(PD(0.8, [1.1, 0.7], 2.4, [0.2, 0.3]), method=method),
        lambda: fd_eval(PD(0.8, [1.1, 0.7], 2.4, [0.97, 0.3]),
                        method=method),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="unknown method"):
            call()


def test_fa_integral_rejects_an_unknown_variant():
    p = PA(0.8, [1.1, 0.7], [2.4, 2.1], [0.3, 0.35])
    assert abs(fa_integral(p, 1e-7).value - 1.2927) < 1e-4
    for variant in ("prof", "", "Proof"):
        with pytest.raises(DomainError):
            fa_integral(p, 1e-7, variant=variant)


@pytest.mark.parametrize("xs", [(0.3, 0.3, 0.3), (0.2, -0.3, 0.4),
                                (-0.45, 0.1, -0.4), (0.05, 0.1, 0.8)])
def test_fa_series_r3_matches_the_partial_series(xs):
    p = PA(0.9, [0.6, 0.7, 0.8], [1.9, 2.1, 2.2], list(xs), RegPair(0.1, 0.2))
    lhs, rhs = fa_partial_series(p)
    assert lhs.converged and rhs.converged
    assert abs(lhs.value - rhs.value) <= 1e-13 * abs(lhs.value)


# (alpha, betas, gamma, xs) at r = 1 to 4: mixed signs, a terminating
# beta_j = -2, beta_1 = beta_2 with x_2 = -x_1 (every odd weight vanishes,
# the first ones exactly), arguments near the series edge, and a zero one
_FD_CASES = [
    (0.8, (1.3,), 2.1, (0.9,)),
    (0.8, (1.1, 0.7), 2.4, (0.96, -0.9)),
    (1.2, (-2.0, 0.6), 2.9, (0.8, -0.5)),
    (0.7, (0.9, 0.9), 1.9, (0.93, -0.93)),
    (0.9, (0.4, -0.6, 1.8), 2.5, (-0.6, 0.3, 0.94)),
    (1.1, (0.5, 1.2, -2.0, 0.7), 2.6, (0.2, -0.85, 0.6, 0.0)),
]


@pytest.mark.parametrize("kernel", [EXP_KERNEL, kummer_kernel(1.5, 2.5)],
                         ids=["exp", "kummer"])
@pytest.mark.parametrize("case", range(len(_FD_CASES)))
def test_fd_series_is_the_engine_on_the_diagonal_weights(case, kernel):
    # term by term up to the first degree whose majorant tail, times the
    # coefficient, is small: the error adds |weight| times the coefficient
    # errors, then that tail
    alpha, betas, gamma, xs = _FD_CASES[case]
    reg = RegPair(0.1, 0.2)
    p = LauricellaParams(alpha, betas, (gamma,), xs, reg, kernel)
    got = fd_series(p)
    diag = lauricella._fd_diagonals(p)[0]
    big, rho = sum(abs(b) for b in betas), max(abs(x) for x in xs)
    ladder = lauricella._ratio_ladder(kernel, reg, alpha, gamma)
    s = err = 0.0
    majorant = 1.0
    for n, d in enumerate(diag):
        ladder.ensure(n + 1)
        c = ladder.coeffs[n]
        s = s + d * c
        err = err + abs(d) * ladder.cerrs[n]
        step = max((big + n) * rho / (n + 1), rho)
        last = majorant * c
        tail = (0.0 if last == 0.0 else
                last * step / (1 - step) if step < 1 else math.inf)
        if tail <= 1e-16 * (1 + abs(s)):
            break
        majorant = majorant * ((big + n) * rho / (n + 1))
    assert n + 1 < diag.size < SERIES_CAP
    want = EvalResult(float(s), err + tail, n + 1, True, "series")
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("case", range(len(_FD_CASES)))
def test_fd_diagonal_weights_are_the_multinomial_sums(case):
    alpha, betas, gamma, xs = _FD_CASES[case]
    diag, majorant, steps = lauricella._fd_diagonals(
        PD(alpha, betas, gamma, xs))
    big, rho = sum(abs(b) for b in betas), max(abs(x) for x in xs)
    # the majorant (big)_N rho^N / N! bounds every weight, and the weights
    # stop at the first degree where its tail is at most 1e-16
    n = np.arange(diag.size - 1.0)
    want = np.cumprod(np.concatenate(([1.0], (big + n) * rho / (n + 1))))
    assert np.allclose(majorant, want, rtol=1e-13, atol=0)
    assert np.all(np.abs(diag) <= majorant * (1.0 + 1e-13))
    n = np.arange(diag.size)
    assert np.array_equal(steps, np.maximum((big + n) * rho / (n + 1), rho))
    with np.errstate(divide="ignore"):
        tails = np.where(steps < 1, majorant * steps / (1 - steps), np.inf)
    assert tails[-1] <= 1e-16 < tails[:-1].min()
    for total in range(9):
        with mpmath.workdps(30):
            want = mpmath.fsum(
                mpmath.fprod(oracles.poch(b, m) * mpmath.mpf(x) ** m
                             / mpmath.factorial(m)
                             for b, x, m in zip(betas, xs, ms))
                for ms in itertools.product(range(total + 1),
                                            repeat=len(xs))
                if sum(ms) == total)
        assert abs(diag[total] - want) <= 1e-14 * majorant[total], total


def _fd_diagonals_full(p):
    """Reference: ``lauricella._fd_diagonals`` with its majorant, steps and
    tail test formed on all ``SERIES_CAP`` rows at once."""
    rho = max(abs(x) for x in p.xs)
    big = sum(abs(b) for b in p.betas)
    n = np.arange(SERIES_CAP, dtype=float)
    with np.errstate(over="ignore"):
        majorant = np.cumprod(np.concatenate(
            ([1.0], (big + n[:-1]) * rho / n[1:])))
    steps = hyp._majorant_step(big, n, rho)
    small = hyp._geometric_tail(majorant, steps, 0.0)[1]
    rows = int(small.argmax()) + 1 if small.any() else SERIES_CAP
    n, diag = n[:rows - 1], np.ones(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, x in zip(p.betas, p.xs):
            axis = np.cumprod(np.concatenate(([1.0], (b + n) * x / (n + 1.0))))
            cut = np.argmax(np.abs(axis) < np.finfo(float).tiny) or None
            diag = np.convolve(diag, axis[:cut])[:rows]
    return (np.concatenate([diag, np.zeros(rows - diag.size)]),
            majorant[:rows], steps[:rows])


def test_fd_diagonals_grown_by_doubling_keep_the_full_length_bits():
    # the majorant grows from 64 rows by doubling; 400 seeded draws with
    # r = 1 to 4, |x_j| up to 0.999 and beta_j up to 40 cut anywhere from
    # the first block to SERIES_CAP
    rng = np.random.default_rng(44)
    rows = []
    for _ in range(400):
        r = int(rng.integers(1, 5))
        betas = tuple(rng.uniform(-40.0, 40.0, r))
        xs = tuple(rng.uniform(-1.0, 1.0, r) * rng.choice([0.3, 0.9, 0.999]))
        p = PD(1.0, betas, 2.0, xs)
        got, want = lauricella._fd_diagonals(p), _fd_diagonals_full(p)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        rows.append(got[0].size)
    assert min(rows) < 64 < max(rows) and max(rows) > 1024, (min(rows),
                                                             max(rows))


def test_out_of_range_normalisations_raise_before_quadrature(monkeypatch):
    # 1/B(600, 800) ~ exp(958) for type D, 1/Gamma(180) ~ exp(-753) for the
    # single type A integral: both leave double range
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(quadrature, "_refine", no_quadrature)
    with pytest.raises(DomainError, match="normalisation"):
        fd_integral(LauricellaParams(600.0, (0.5,), (1400.0,), (0.2,)))
    with pytest.raises(DomainError, match="normalisation"):
        lauricella.fa_single_integral(LauricellaParams(
            180.0, (1.1, 0.7), (2.4, 2.1), (0.2, 0.3)), 1e-8)
    # Gamma(180) ~ exp(753) for the Laplace product, refused before its
    # grid's first axis
    monkeypatch.setattr(lauricella, "grid_axis", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="prod_j Gamma"):
            fd_laplace_product(LauricellaParams(0.9, (180.0,), (200.0,),
                                                (0.2,)))


@pytest.mark.parametrize("alpha, xs", [
    (1000.0, (0.9, 0.05)),   # the outer axis's terms overflow: value inf
    (400.0, (0.5, -0.45)),   # the last axis's columns overflow: value NaN
])
def test_type_a_series_out_of_double_range_is_a_domain_error(alpha, xs):
    p = LauricellaParams(alpha, (0.6, 0.6), (1.7, 1.7), xs, RegPair(0.1, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="out of double range"):
            fa_series(p)
        with pytest.raises(DomainError, match="out of double range"):
            f2_series(AppellParams(alpha, 0.6, 0.6, 1.7, 1.7,
                                   RegPair(0.1, 0.1)), *xs)


@pytest.mark.parametrize("factor", [(0.2, math.nan, -0.9), (math.inf, 0.5,
                                                            -0.9)])
def test_interval_product_params_refuse_non_finite_numbers(factor):
    # a NaN factor failed late, as a non-finite quadrature sample
    with pytest.raises(DomainError, match="must be finite"):
        IntervalProductParams(1.0, 3.0, 0.8, 1.3, (factor,))


@pytest.mark.parametrize("tp", [
    IntervalProductParams(0.2, 2.2, 2.3, 1e308, ((0.0, 0.3, 0.8),)),
    IntervalProductParams(-0.5, 5e-324, 2.5, 1e308, ((0.2, 1.8, 2.7),)),
    IntervalProductParams(0.0, 1.0, 0.7, 0.9, ((0.0, 2.6, 1e308),)),
], ids=["span-power-overflows", "span-power-underflows",
        "factor-power-overflows"])
def test_interval_product_prefactor_out_of_range_is_a_domain_error(tp):
    # Python's float power raised OverflowError, and a zero prefactor
    # ZeroDivisionError
    with pytest.raises(DomainError, match="prefactor"):
        interval_product_integral(tp)


def test_lauricella_params_need_1_to_max_variables():
    for r in (0, lauricella.MAX_VARIABLES + 1):
        with pytest.raises(DomainError, match="1 <= r"):
            LauricellaParams(0.8, (0.5,) * r, (2.4,), (0.1,) * r)
