"""Two-variable extended hypergeometric functions."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_hyp import _sum_per_term
from exthyp import appell, hyp, lauricella
from exthyp.appell import (
    AppellParams,
    f1_finite_sum,
    f1_integral,
    f1_series,
    f1_transform,
    f2_integral,
    f2_recursion,
    f2_series,
    f2_single_integral,
    f2_transform,
)
from exthyp.extbeta import RegPair
from exthyp.hyp import (
    SERIES_SMALL,
    _CoeffLadder,
    ext_2f1,
    pfq_series_vector,
    pfq_spec,
)
from exthyp.kernel import EXP_KERNEL
from exthyp.lauricella import LauricellaParams, _ratio_ladder
from exthyp.results import DomainError, EvalResult

R0 = RegPair()


def P1(alpha, b1, b2, g1, reg=R0):
    return AppellParams(alpha, b1, b2, g1, math.nan, reg, EXP_KERNEL)


def P2(alpha, b1, b2, g1, g2, reg=R0):
    return AppellParams(alpha, b1, b2, g1, g2, reg, EXP_KERNEL)


def test_f1_classical_oracle():
    got = f1_series(P1(1.0, 0.5, 0.5, 2.0), 0.2, 0.4)
    want = oracles.appell_f1(1.0, 0.5, 0.5, 2.0, 0.2, 0.4)
    assert abs(got.value - want) <= 1e-10 * (1 + abs(want))


def test_f1_equal_argument_collapse():
    # equal arguments collapse onto the Gauss-level function with summed
    # numerator parameters
    r = RegPair(0.1, 0.2)
    got = f1_series(P1(1.0, 0.5, 0.5, 2.0, r), 0.3, 0.3)
    want = ext_2f1(EXP_KERNEL, 1.0, 1.0, 2.0, 0.3, r)
    assert abs(got.value - want.value) <= 1e-9 * (1 + abs(want.value))


def test_f1_second_parameter_zero_drops_axis():
    r = RegPair(0.2, 0.1)
    got = f1_series(P1(0.8, 1.1, 0.0, 2.2, r), 0.25, 0.7)
    want = ext_2f1(EXP_KERNEL, 1.1, 0.8, 2.2, 0.25, r)
    assert abs(got.value - want.value) <= 1e-10 * (1 + abs(want.value))


def test_f1_argument_symmetry():
    p = P1(0.9, 0.6, 1.4, 2.3, RegPair(0.15, 0.25))
    a = f1_series(p, 0.2, 0.45).value
    q = P1(0.9, 1.4, 0.6, 2.3, RegPair(0.15, 0.25))
    b = f1_series(q, 0.45, 0.2).value
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_f1_series_vs_integral_grid():
    for reg in (R0, RegPair(0.2, 0.2), RegPair(0.0, 0.2), RegPair(0.2, 0.0)):
        for x in (-0.3, 0.1, 0.4):
            for y in (-0.2, 0.3, 0.5):
                p = P1(1.0, 0.5, 0.5, 2.0, reg)
                s = f1_series(p, x, y)
                i = f1_integral(p, x, y)
                assert abs(s.value - i.value) <= 1e-8 * (1 + abs(s.value))


def test_f1_integral_outside_series_domain():
    p = P1(1.0, 0.5, 0.5, 2.0, RegPair(0.1, 0.1))
    got = f1_integral(p, 0.2, -3.0)
    assert got.converged
    # map back into the series domain through the argument transformation
    _, proof = f1_transform(p, 0.2, -3.0, variant="proof")
    assert abs(got.value - proof.value) <= 1e-8 * (1 + abs(got.value))


def test_f1_transform_classical_picks_proof_variant():
    p = P1(1.0, 0.7, 0.9, 2.3)
    lhs, proof = f1_transform(p, 0.3, 0.5, variant="proof")
    _, printed = f1_transform(p, 0.3, 0.5, variant="printed")
    assert abs(lhs.value - proof.value) <= 1e-9 * (1 + abs(lhs.value))
    assert abs(lhs.value - printed.value) > 1e-3


def test_f1_transform_extended_proof_variant():
    p = P1(1.0, 0.7, 0.9, 2.3, RegPair(0.2, 0.1))
    lhs, proof = f1_transform(p, 0.3, 0.5, variant="proof")
    _, printed = f1_transform(p, 0.3, 0.5, variant="printed")
    assert abs(lhs.value - proof.value) <= 1e-8 * (1 + abs(lhs.value))
    assert abs(lhs.value - printed.value) > 1e-3


def test_f1_transform_one_right_side_per_variant(monkeypatch):
    # each call evaluates the left side and the selected right side only
    p = P1(1.0, 0.7, 0.9, 2.3, RegPair(0.2, 0.1))
    calls = []
    real = appell.f1_eval

    def counting(q, x, y, tol=1e-10):
        calls.append(q.alpha)
        return real(q, x, y, tol)

    monkeypatch.setattr(appell, "f1_eval", counting)
    for variant, alpha in (("printed", 1.0), ("proof", 2.3 - 1.0)):
        calls.clear()
        lhs, rhs = f1_transform(p, 0.3, 0.5, variant=variant)
        assert calls == [1.0, alpha]
    with pytest.raises(DomainError):
        f1_transform(p, 0.3, 0.5, variant="Proof")


def test_f2_classical_oracle():
    got = f2_series(P2(1.0, 0.5, 0.5, 1.5, 1.5), 0.25, 0.25)
    want = oracles.appell_f2(1.0, 0.5, 0.5, 1.5, 1.5, 0.25, 0.25)
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))


def test_f2_zero_second_argument():
    # the dropped axis leaves its zeroth coefficient ratio behind
    r = RegPair(0.1, 0.3)
    got = f2_series(P2(1.0, 0.8, 0.7, 1.9, 2.1, r), 0.3, 0.0)
    from exthyp.corefn import beta_classical
    from exthyp.extbeta import BetaArgs, ext_beta

    ratio0 = (ext_beta(EXP_KERNEL, BetaArgs(0.7, 1.4), r, tol=1e-13).value
              / beta_classical(0.7, 1.4))
    want = ratio0 * ext_2f1(EXP_KERNEL, 1.0, 0.8, 1.9, 0.3, r).value
    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))
    # at zero regularization the reduction is exact on the nose
    got0 = f2_series(P2(1.0, 0.8, 0.7, 1.9, 2.1), 0.3, 0.0)
    want0 = ext_2f1(EXP_KERNEL, 1.0, 0.8, 1.9, 0.3)
    assert abs(got0.value - want0.value) <= 1e-9 * (1 + abs(want0.value))


def test_f2_symmetry_under_axis_swap():
    r = RegPair(0.2, 0.4)
    a = f2_series(P2(0.9, 0.6, 1.1, 1.8, 2.4, r), 0.2, 0.35).value
    b = f2_series(P2(0.9, 1.1, 0.6, 2.4, 1.8, r), 0.35, 0.2).value
    assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_f2_series_vs_double_integral():
    for reg in (R0, RegPair(0.2, 0.2)):
        p = P2(1.0, 0.5, 0.5, 1.5, 1.5, reg)
        s = f2_series(p, 0.25, 0.25)
        i = f2_integral(p, 0.25, 0.25)
        assert abs(s.value - i.value) <= 1e-8 * (1 + abs(s.value))


def test_f2_single_integral_matches_series():
    p = P2(1.0, 0.6, 0.7, 2.0, 2.2, RegPair(0.1, 0.2))
    s = f2_series(p, 0.2, 0.3)
    one = f2_single_integral(p, 0.2, 0.3)
    assert abs(s.value - one.value) <= 1e-8 * (1 + abs(s.value))


def test_f2_single_integral_matches_double():
    p = P2(1.0, 0.6, 0.7, 2.0, 2.2, RegPair(0.1, 0.2))
    two = f2_integral(p, 0.2, 0.3)
    one = f2_single_integral(p, 0.2, 0.3)
    assert abs(two.value - one.value) <= 1e-8 * (1 + abs(two.value))


def test_f2_single_integral_domain_guard():
    with pytest.raises(DomainError):
        f2_single_integral(P2(1.0, 0.6, 0.7, 2.0, 2.2), 0.5, 0.6)


@pytest.mark.parametrize("which", ["x", "y", "xy"])
def test_f2_transforms_equal_reg(which):
    p = P2(1.0, 0.5, 0.6, 1.8, 2.1, RegPair(0.2, 0.2))
    lhs, rhs = f2_transform(p, 0.2, 0.25, which)
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_f2_transform_general_pair():
    p = P2(1.0, 0.5, 0.6, 1.8, 2.1, RegPair(0.1, 0.4))
    lhs, rhs = f2_transform(p, 0.2, 0.25, "xy_general")
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_f2_transform_general_reduces_to_equal_pair_form():
    p = P2(1.0, 0.5, 0.6, 1.8, 2.1, RegPair(0.3, 0.3))
    _, a = f2_transform(p, 0.2, 0.25, "xy")
    _, b = f2_transform(p, 0.2, 0.25, "xy_general")
    assert abs(a.value - b.value) <= 1e-10 * (1 + abs(a.value))


def test_f2_transform_needs_equal_pair():
    with pytest.raises(DomainError):
        f2_transform(P2(1.0, 0.5, 0.6, 1.8, 2.1, RegPair(0.1, 0.4)),
                     0.2, 0.25, "x")


def test_f2_recursion_gamma_shift():
    p = P2(1.0, 0.5, 0.6, 1.9, 2.0)
    for n in (1, 2):
        lhs, rhs = f2_recursion(p, n, "gamma2_shift", 0.2, 0.3)
        assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))
    pr = P2(1.0, 0.5, 0.6, 1.9, 2.0, RegPair(0.1, 0.1))
    lhs, rhs = f2_recursion(pr, 1, "gamma2_shift", 0.2, 0.3)
    assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_f2_recursion_beta_shift_proof_wins():
    p = P2(1.0, 0.5, 0.6, 1.9, 2.4, RegPair(0.1, 0.1))
    for n in (1, 2):
        lhs, rhs = f2_recursion(p, n, "beta2_shift", 0.2, 0.3)
        assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))
    lhs, rhs = f2_recursion(p, 1, "beta2_shift", 0.2, 0.3, variant="printed")
    assert abs(lhs.value - rhs.value) > 1e-4


def test_f2_recursion_rejects_negative_order():
    p = P2(1.0, 0.5, 0.6, 1.9, 2.4)
    for which in ("gamma2_shift", "beta2_shift"):
        with pytest.raises(DomainError):
            f2_recursion(p, -1, which, 0.2, 0.3)


def test_f2_recursion_degenerate():
    p = P2(1.0, 0.5, 0.6, 1.9, 2.0)
    lhs, rhs = f2_recursion(p, 0, "gamma2_shift", 0.2, 0.3)
    assert abs(lhs.value - rhs.value) <= 1e-12 * (1 + abs(lhs.value))


def test_finite_sum_log_closed_form():
    out = f1_finite_sum(EXP_KERNEL, 0, 0, 0.3, 0.6)
    want = (math.log(1.0 - 0.6) - math.log(1.0 - 0.3)) / (0.3 - 0.6)
    assert abs(out["direct"].value - want) <= 1e-9
    assert abs(out["proof"].value - want) <= 1e-9


@pytest.mark.parametrize("s,t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_finite_sum_proof_variant_wins(s, t):
    for reg in (R0, RegPair(0.1, 0.1)):
        out = f1_finite_sum(EXP_KERNEL, s, t, 0.25, 0.55, reg)
        d, p = out["direct"].value, out["proof"].value
        assert abs(d - p) <= 1e-8 * (1 + abs(d))
    if (s, t) != (0, 0):
        out = f1_finite_sum(EXP_KERNEL, s, t, 0.25, 0.55)
        assert abs(out["direct"].value - out["printed"].value) > 1e-6


def test_lemma1_expansion():
    from exthyp.appell import lemma1_expand

    for (s, t, u, x, y) in [(1, 1, 0.5, 0.2, 0.6), (2, 1, 0.3, 0.1, 0.7),
                            (1, 3, 0.9, -0.4, 0.5)]:
        lhs, rhs = lemma1_expand(s, t, u, x, y)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.01, 0.99),
       st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_lemma1_expansion_property(s, t, u, x, y):
    from hypothesis import assume

    from exthyp.appell import lemma1_expand

    assume(abs(x - y) > 0.05)
    lhs, rhs = lemma1_expand(s, t, u, x, y)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def _type_a_per_term(alpha, ladders, xs, last_spec, cap):
    """Reference: ``lauricella._fa_series`` as plain loops.

    Axis by axis, each total degree's weight is extended by its row one
    term at a time, with the same bound, tail and cut (or all ``cap``
    terms), and the kept terms are added to the weights of their new total
    degrees, in row order; then each degree's column is summed one term at
    a time by the engine reference of ``test_hyp``, to its own cut, and
    their errors added.  The error sums of each axis are numpy sums over
    the same values in the same order as the engine's.
    """
    r = len(xs)
    weights, err, done = [1.0], 0.0, True
    for j in range(r - 1):
        grow = 1.0 / (1.0 - sum(abs(x) for x in xs[j + 1:]))
        lgrow, xg = math.log(grow), abs(xs[j]) * grow
        grown, bounds, tails = {}, [], []
        for n, acc in enumerate(weights):
            head = abs(alpha) + n
            w, s = acc, 0.0
            for m in range(cap):
                ladders[j].ensure(m + 1)
                c, e = ladders[j].coeffs[m], ladders[j].cerrs[m]
                if m:
                    w = w * ((alpha + n + (m - 1)) * xs[j] / m)
                with np.errstate(divide="ignore", over="ignore"):
                    bound = np.exp(np.log(abs(w)) + (head + m) * lgrow)
                last = bound * abs(c)
                q = max((head + m) * xg / (m + 1), xg)
                tail = (0.0 if last == 0.0 else
                        last * q / (1.0 - q) if q < 1.0 else math.inf)
                grown[n + m] = grown.get(n + m, 0.0) + w * c
                bounds.append(bound * e)
                s = s + w * c
                if tail <= SERIES_SMALL * (1.0 + abs(s)):
                    break
            else:
                done = False
            tails.append(tail)
        err += float(np.sum(np.array(bounds)) + np.sum(np.array(tails)))
        done = done and ladders[j].ok
        weights = [grown.get(i, 0.0) for i in range(max(grown) + 1)]
    n = len(weights)
    cols, col_errs, rows, cols_done = _sum_per_term(
        last_spec, np.full(n, float(xs[-1])), ladders[-1], cap,
        alpha + np.arange(n), np.array(weights))
    return EvalResult(float(cols.sum()), err + float(col_errs.sum()),
                      rows * n, done and cols_done, "series")


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _same_result(got, want):
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.abs_err_est) == _bits(want.abs_err_est)
    assert got.terms_or_nodes == want.terms_or_nodes
    assert got.converged == want.converged
    assert got.method == want.method


_R13 = RegPair(0.1, 0.3)
# (alpha, (beta_j, gamma_j) per axis, arguments, cap); the mixed-sign
# arguments near |x| + |y| = 0.95 run the last axis past a 64-coefficient
# ladder block, the small caps stop sums early and clear the flag, and the
# r = 4 case runs three outer axes
_TYPE_A_CASES = [
    (0.9, [(0.6, 1.7), (0.7, 1.9)], [0.2, 0.3], 2048),
    (0.9, [(0.6, 1.7), (0.7, 1.9)], [0.28, -0.67], 2048),
    (1.3, [(0.6, 1.7), (0.7, 1.9)], [-0.6, 0.35], 2048),
    (0.8, [(0.5, 1.4), (0.9, 2.1), (0.7, 1.6)], [0.3, -0.25, 0.4], 2048),
    (1.1, [(0.5, 1.4), (0.9, 2.1), (0.7, 1.6)], [-0.4, 0.2, -0.33], 2048),
    (0.9, [(0.6, 1.7), (0.7, 1.9)], [0.28, -0.67], 70),
    (0.9, [(0.6, 1.7), (0.7, 1.9)], [0.28, -0.67], 4),
    (0.9, [(0.6, 1.7)], [0.9], 2048),
    (1.2, [(0.5, 1.4), (0.9, 2.1), (0.7, 1.6), (0.6, 1.5)],
     [0.3, -0.25, 0.2, -0.2], 2048),
]


@pytest.mark.parametrize("case", range(len(_TYPE_A_CASES)))
def test_type_a_series_bit_identical_to_per_term(case, monkeypatch):
    alpha, axes, xs, cap = _TYPE_A_CASES[case]
    # the case's cap bounds every outer row and the last axis' rows
    monkeypatch.setattr(hyp, "SERIES_CAP", cap)
    p = LauricellaParams(alpha, tuple(b for b, _ in axes),
                         tuple(g for _, g in axes), tuple(xs), _R13,
                         EXP_KERNEL)
    got = lauricella._fa_series(p, 1e-10)
    ladders = [_ratio_ladder(EXP_KERNEL, _R13, b, g) for b, g in axes]
    last_spec = pfq_spec(EXP_KERNEL, (alpha, axes[-1][0]), (axes[-1][1],),
                         _R13)
    want = _type_a_per_term(alpha, ladders, xs, last_spec, cap)
    _same_result(got, want)
    assert got.converged == (cap > 70)
    if case in (1, 2):
        assert ladders[-1].coeffs.size > 64


def test_nested_series_rejects_non_finite():
    for alpha, xs in ((math.nan, [0.2, 0.3]), (math.inf, [0.2, 0.3]),
                      (0.9, [math.nan, 0.3]), (0.9, [0.2, -math.inf])):
        with pytest.raises(DomainError):
            f2_series(P2(alpha, 0.6, 0.7, 1.7, 1.9), *xs)


def test_f2_single_integral_builds_one_inner_ladder(monkeypatch):
    p = P2(1.0, 0.6, 0.7, 2.0, 2.2, RegPair(0.1, 0.2))
    built = []
    init = _CoeffLadder.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_CoeffLadder, "__init__", counting)
    got = f2_single_integral(p, 0.2, 0.3)
    assert len(built) == 1

    def ladder_per_call(spec, w, ladder=None):
        # the former inner-series call: a fresh ladder every time
        return pfq_series_vector(spec, w)

    monkeypatch.setattr(appell, "pfq_series_vector", ladder_per_call)
    del built[:]
    want = f2_single_integral(p, 0.2, 0.3)
    assert len(built) > 1
    _same_result(got, want)


def test_finite_sum_carries_its_pieces_flags(monkeypatch):
    out = f1_finite_sum(EXP_KERNEL, 1, 2, 0.25, 0.55)
    assert all(r.converged for r in out.values())
    real = appell.ext_2f1

    def flagged(kernel, a, b, c, w, *rest, **kwargs):
        got = real(kernel, a, b, c, w, *rest, **kwargs)
        # one Gauss-level piece: F(1, 1; 2; x)
        return dataclasses.replace(got, converged=got.converged
                                   and (a, w) != (1.0, 0.25))

    monkeypatch.setattr(appell, "ext_2f1", flagged)
    out = f1_finite_sum(EXP_KERNEL, 1, 2, 0.25, 0.55)
    assert out["direct"].converged
    assert not out["proof"].converged and not out["printed"].converged


def _f2_grid(n, seed=20261018):
    """Seeded second-kind points at zero regularization, mixed signs and
    |x| + |y| up to 0.945, after the point of the truncation repro."""
    rng = np.random.default_rng(seed)
    points = [(0.9, 0.6, 0.7, 1.9, 2.1, 0.282, 0.658)]
    for _ in range(n - 1):
        alpha, b1, b2 = rng.uniform(0.2, 2.5), *rng.uniform(0.2, 2.0, 2)
        g1, g2 = b1 + rng.uniform(0.3, 2.5), b2 + rng.uniform(0.3, 2.5)
        total, share = rng.uniform(0.0, 0.945), rng.uniform()
        x = total * share * rng.choice([-1.0, 1.0])
        y = total * (1.0 - share) * rng.choice([-1.0, 1.0])
        points.append((alpha, b1, b2, g1, g2, float(x), float(y)))
    return points


def test_f2_series_matches_mpmath_on_a_seeded_grid():
    # an inner sum whose first terms are tiny but still growing used to
    # stop there: the repro point was off by 4e-7 with an estimate of 4e-16
    for alpha, b1, b2, g1, g2, x, y in _f2_grid(40):
        got = f2_series(P2(alpha, b1, b2, g1, g2), x, y)
        want = mpmath.appellf2(alpha, b1, b2, g1, g2, x, y)
        assert got.converged
        assert abs(got.value - want) <= 1e-14 * abs(want), (alpha, x, y)


def test_f2_series_with_most_of_the_sum_on_one_axis():
    # the power (1 - |y|)^-(alpha + m) of the outer bound passes 1e308
    # before the cut; formed on its own it raised OverflowError
    got = f2_series(P2(0.9, 0.6, 0.7, 1.9, 2.1), 0.09, 0.9)
    want = mpmath.appellf2(0.9, 0.6, 0.7, 1.9, 2.1, 0.09, 0.9)
    assert got.converged
    assert abs(got.value - want) <= 1e-14 * abs(want)


def _f1_grid(n, seed=20261019):
    """Seeded first-kind points at zero regularization: |x| in [0.9, 0.97]
    and |y| up to 0.97, with mixed signs."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        alpha, b1, b2 = rng.uniform(0.2, 2.5), *rng.uniform(0.2, 2.0, 2)
        g1 = alpha + rng.uniform(0.3, 2.5)
        x = rng.uniform(0.9, 0.97) * rng.choice([-1.0, 1.0])
        points.append((alpha, b1, b2, g1, float(x), rng.uniform(-0.97, 0.97)))
    return points


def test_f1_series_matches_mpmath_near_the_series_edge():
    # the series used to stop at 1e-15 of the sum, up to 2e-14 short of it
    # once the terms fall only like 0.97^N
    for alpha, b1, b2, g1, x, y in _f1_grid(30):
        got = f1_series(P1(alpha, b1, b2, g1), x, y)
        with mpmath.workdps(30):
            want = mpmath.appellf1(alpha, b1, b2, g1, x, y, maxterms=10**6)
        assert got.converged
        assert abs(got.value - want) <= 1e-14 * abs(want), (alpha, x, y)


def test_f1_on_the_antidiagonal():
    # beta_1 = beta_2 and y = -x: the odd diagonal weights vanish, the
    # first ones exactly, and must not end the sum; at zero regularization
    # F1 = 3F2(a/2, (a+1)/2, beta; c/2, (c+1)/2; x^2)
    alpha, beta, g1, x = 0.7, 0.9, 1.9, 0.93
    got = f1_series(P1(alpha, beta, beta, g1), x, -x)
    want = mpmath.hyp3f2(alpha / 2, (alpha + 1) / 2, beta, g1 / 2,
                         (g1 + 1) / 2, x * x)
    assert got.converged
    assert abs(got.value - want) <= 1e-14 * abs(want)
    p = P1(alpha, beta, beta, g1, RegPair(0.1, 0.2))
    got = f1_series(p, x, -x)
    want = f1_integral(p, x, -x, 1e-12)
    assert got.converged and want.converged
    assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
