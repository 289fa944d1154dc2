"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned here and match the stated contract; runtime budgets
are asserted with the stated bounds.
"""

import math
import subprocess
import sys
import time

import numpy as np

import oracles
from exthyp.appell import (
    AppellParams,
    f1_finite_sum,
    f1_integral,
    f1_series,
    f1_transform,
    f2_integral,
    f2_recursion,
    f2_series,
    f2_transform,
)
from exthyp.extbeta import RegPair, ext_gamma
from exthyp.hyp import (
    ext_2f1,
    ext_pfq,
    euler_transform,
    frac_deriv,
    pfaff_transform,
    pfq_series,
    pfq_spec,
    recurrence_eval,
    summation_thm,
)
from exthyp.ineq import (
    bump,
    classical_point,
    exp_decay,
    hilbert_check,
    hilbert_constant,
    lemma2_identity,
    midpoint_params,
    power_cut,
    weight_F,
    weight_F_quadrature,
    weight_G,
    weight_G_quadrature,
)
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.lauricella import (
    IntervalProductParams,
    LauricellaParams,
    fa_series,
    fa_single_integral,
    fd_integral,
    fd_series,
    fd_laplace_product,
    interval_product_integral,
)
from exthyp.mellin import ContourSpec, default_contour, mb_eval
from exthyp.quadrature import integrate_halfline, integrate_unit_batch, integrate_unit2
from exthyp.conformance import exit_code, run_conformance

KUM = kummer_kernel(1.0, 2.0)
R0 = RegPair()


def _rel(got, want):
    return abs(got - want) / (1.0 + abs(want))


def _verdict(n, label):
    print(f"ACCEPTANCE {n} PASS: {label}")


def test_criterion_01_classical_reduction_suite():
    t0 = time.perf_counter()
    worst = 0.0
    # extended Gauss, 24 points
    for (a1, a2, b1) in [(1.0, 1.0, 2.0), (0.5, 1.5, 3.0), (2.0, 0.7, 2.2),
                         (1.2, 0.9, 2.6), (0.8, 1.1, 2.4), (1.7, 1.3, 3.5)]:
        for z in (-0.6, 0.2, 0.5, 0.8):
            got = ext_2f1(EXP_KERNEL, a1, a2, b1, z).value
            want = oracles.hyp2f1(a1, a2, b1, z)
            worst = max(worst, _rel(got, want))
    # generalized, 20 points across shapes
    shapes = [((0.9,), (2.1,)), ((1.0,), (1.8, 2.3)), ((0.8, 1.2), (1.9, 2.5)),
              ((0.8, 1.1, 1.4), (2.2, 2.9))]
    for upper, lower in shapes:
        for z in (-1.5, -0.4, 0.3, 0.6, 0.8)[:5]:
            if len(upper) == len(lower) + 1 and abs(z) > 0.85:
                continue
            got = ext_pfq(pfq_spec(EXP_KERNEL, upper, lower), z).value
            want = oracles.hyper(upper, lower, z)
            worst = max(worst, _rel(got, want))
    # first-kind two-variable, 20 points
    pts = [(x, y) for x in (-0.4, 0.1, 0.3, 0.5) for y in (-0.3, 0.2, 0.45,
                                                           0.6, 0.7)]
    for x, y in pts:
        p = AppellParams(1.0, 0.6, 0.8, 2.2)
        got = f1_series(p, x, y).value
        want = oracles.appell_f1_float(1.0, 0.6, 0.8, 2.2, x, y, 120)
        worst = max(worst, _rel(got, want))
    # second-kind two-variable, 20 points
    pts = [(x, y) for x in (-0.3, 0.1, 0.25, 0.4) for y in (-0.25, 0.1, 0.2,
                                                            0.3, 0.45)]
    for x, y in pts:
        if abs(x) + abs(y) >= 0.9:
            continue
        p = AppellParams(0.9, 0.6, 0.7, 1.9, 2.1)
        got = f2_series(p, x, y).value
        want = oracles.appell_f2_float(0.9, 0.6, 0.7, 1.9, 2.1, x, y, 120)
        worst = max(worst, _rel(got, want))
    # type D, 20 points
    for i, xs in enumerate([(0.2, 0.4), (0.1, -0.3), (-0.2, 0.5),
                            (0.3, 0.3), (0.25, -0.45)]):
        for betas in [(0.5, 0.5), (0.4, 1.1)]:
            p = LauricellaParams(1.0, betas, (2.3,), xs)
            got = fd_series(p).value
            want = oracles.lauricella_fd_float(1.0, betas, 2.3, xs, 60)
            worst = max(worst, _rel(got, want))
    for xs in [(0.15, -0.25, 0.1), (0.2, 0.2, 0.2), (0.1, 0.3, -0.2),
               (-0.1, 0.2, 0.3), (0.25, 0.1, 0.15),
               (0.3, -0.2, 0.25), (0.05, 0.45, 0.1), (0.2, -0.3, -0.1),
               (0.35, 0.15, 0.05), (-0.3, -0.2, 0.4)]:
        p = LauricellaParams(0.9, (0.4, 0.6, 0.8), (2.5,), xs)
        got = fd_series(p).value
        want = oracles.lauricella_fd_float(0.9, (0.4, 0.6, 0.8), 2.5, xs, 50)
        worst = max(worst, _rel(got, want))
    # type A, 20 points
    for xs in [(0.2, 0.25), (0.1, -0.3), (-0.2, 0.35), (0.3, 0.1),
               (0.15, 0.15), (0.4, -0.2), (-0.1, -0.25), (0.05, 0.5),
               (0.45, 0.05), (0.25, 0.3)]:
        p = LauricellaParams(1.0, (0.6, 0.7), (1.8, 2.1), xs)
        got = fa_series(p).value
        want = oracles.lauricella_fa_float(1.0, (0.6, 0.7), (1.8, 2.1), xs,
                                           70)
        worst = max(worst, _rel(got, want))
    for xs in [(0.1, 0.15, 0.2), (0.2, -0.1, 0.15), (-0.15, 0.2, 0.1),
               (0.05, 0.1, 0.3), (0.25, 0.2, -0.15), (0.1, -0.2, -0.2),
               (0.3, 0.05, 0.1), (-0.1, -0.1, 0.25), (0.15, 0.3, 0.05),
               (0.2, 0.2, 0.2)]:
        p = LauricellaParams(0.8, (0.5, 0.6, 0.7), (1.7, 1.9, 2.2), xs)
        got = fa_series(p).value
        want = oracles.lauricella_fa_float(0.8, (0.5, 0.6, 0.7),
                                           (1.7, 1.9, 2.2), xs, 50)
        worst = max(worst, _rel(got, want))
    dt = time.perf_counter() - t0
    assert worst < 1e-8, worst
    assert dt < 30.0, dt
    _verdict(1, f"classical reductions max rel residual {worst:.2e} "
                f"in {dt:.1f}s")


def test_criterion_02_known_closed_forms():
    t0 = time.perf_counter()
    g = ext_gamma(EXP_KERNEL, 0.5, 1.0)
    want = math.sqrt(math.pi) * math.exp(-2.0)
    assert abs(g.value - want) <= 1e-10 * (1 + abs(want))
    f = ext_2f1(EXP_KERNEL, 1.0, 1.0, 2.0, 0.5)
    assert abs(f.value - 2.0 * math.log(2.0)) <= 1e-10
    s = ext_2f1(EXP_KERNEL, 1.0, 2.0, 4.0, 1.0, method="integral")
    assert abs(s.value - 3.0) <= 1e-9
    d = frac_deriv(EXP_KERNEL, -0.5, R0, lambda t: np.ones_like(t), 1.0)
    assert abs(d.value - 2.0 / math.sqrt(math.pi)) <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 5.0, dt
    _verdict(2, f"closed forms in {dt:.2f}s")


def test_criterion_03_dual_representation_agreement():
    t0 = time.perf_counter()
    worst_1d = 0.0
    regs = [RegPair(b, d) for b in (0.0, 0.25, 1.0) for d in (0.0, 0.25, 1.0)]
    for kern in (EXP_KERNEL, KUM):
        for (a1, a2, b1) in [(1.0, 1.0, 2.0), (0.5, 1.5, 3.0),
                             (2.0, 0.7, 2.2)]:
            for r in regs:
                for z in (-0.5, 0.0, 0.3, 0.7):
                    s = pfq_series(pfq_spec(kern, (a1, a2), (b1,), r), z)
                    i = ext_2f1(kern, a1, a2, b1, z, r, method="integral")
                    worst_1d = max(worst_1d, _rel(s.value, i.value))
    for r in (R0, RegPair(0.2, 0.2), RegPair(0.0, 0.2), RegPair(0.2, 0.0)):
        for x in (-0.3, 0.1, 0.4):
            for y in (-0.2, 0.3, 0.5):
                p = AppellParams(1.0, 0.5, 0.5, 2.0, math.nan, r)
                worst_1d = max(worst_1d, _rel(
                    f1_series(p, x, y).value, f1_integral(p, x, y).value))
    for p in (LauricellaParams(1.0, (0.5, 0.5), (2.0,), (0.2, 0.4),
                               RegPair(0.2, 0.2)),
              LauricellaParams(1.1, (0.4, 0.5, 0.6), (2.6,),
                               (0.15, -0.25, 0.1), RegPair(0.1, 0.3)),
              LauricellaParams(0.9, (0.7, 0.8), (2.4,), (-0.3, 0.5), R0)):
        worst_1d = max(worst_1d, _rel(fd_series(p).value,
                                      fd_integral(p).value))
    assert worst_1d < 1e-8, worst_1d
    worst_2d = 0.0
    for r in (R0, RegPair(0.2, 0.2)):
        for x, y in ((0.25, 0.25), (0.1, 0.35), (-0.3, 0.2)):
            p = AppellParams(1.0, 0.5, 0.5, 1.5, 1.5, r)
            worst_2d = max(worst_2d, _rel(
                f2_series(p, x, y).value, f2_integral(p, x, y).value))
    from exthyp.lauricella import fa_integral

    for pa in (LauricellaParams(1.0, (0.6, 0.7), (1.8, 2.1), (0.2, 0.25),
                                RegPair(0.1, 0.1)),
               LauricellaParams(0.9, (0.5, 0.8), (1.7, 2.3), (-0.2, 0.3),
                                R0)):
        worst_2d = max(worst_2d, _rel(fa_series(pa).value,
                                      fa_integral(pa).value))
    assert worst_2d < 1e-7, worst_2d
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    _verdict(3, f"dual routes: 1-D {worst_1d:.2e}, 2-D {worst_2d:.2e} "
                f"in {dt:.1f}s")


def test_criterion_04_transformation_identities():
    pts = [(1.0, 1.0, 2.0, 0.5, R0),
           (0.7, 1.2, 2.5, -0.4, RegPair(0.3, 0.1)),
           (1.2, 0.8, 2.7, 0.45, RegPair(0.2, 0.5)),
           (0.9, 1.4, 2.9, -0.35, RegPair(0.4, 0.1)),
           (1.1, 0.6, 2.1, 0.25, RegPair(0.1, 0.1))]
    for a1, a2, b1, z, r in pts:
        lhs = ext_2f1(EXP_KERNEL, a1, a2, b1, z, r)
        assert _rel(lhs.value,
                    pfaff_transform(EXP_KERNEL, a1, a2, b1, z, r).value) < 1e-8
        assert _rel(lhs.value,
                    euler_transform(EXP_KERNEL, a1, a2, b1, z, r).value) < 1e-8
    f1_pts = [(1.0, 0.7, 0.9, 2.3, 0.3, 0.5, R0),
              (1.0, 0.7, 0.9, 2.3, 0.3, 0.5, RegPair(0.2, 0.1)),
              (0.9, 0.8, 1.2, 2.6, -0.2, 0.4, RegPair(0.1, 0.3)),
              (1.1, 0.5, 0.6, 2.0, 0.15, -0.4, RegPair(0.3, 0.2)),
              (0.8, 1.0, 0.7, 2.4, 0.4, 0.2, RegPair(0.05, 0.15))]
    for alpha, b1, b2, g1, x, y, r in f1_pts:
        p = AppellParams(alpha, b1, b2, g1, math.nan, r)
        lhs, proof = f1_transform(p, x, y, variant="proof")
        assert _rel(lhs.value, proof.value) < 1e-8
        _, printed = f1_transform(p, x, y, variant="printed")
        assert _rel(lhs.value, printed.value) > 1e-4
    f2_pts = [(1.0, 0.5, 0.6, 1.8, 2.1, 0.2, 0.25),
              (0.9, 0.7, 0.5, 2.0, 1.9, 0.15, 0.3),
              (1.1, 0.6, 0.8, 2.2, 2.4, 0.1, 0.2),
              (0.8, 0.9, 0.4, 2.1, 1.7, 0.25, 0.15),
              (1.2, 0.5, 0.5, 1.9, 2.0, -0.2, 0.3)]
    for which in ("x", "y", "xy", "xy_general"):
        for alpha, b1, b2, g1, g2, x, y in f2_pts:
            reg = RegPair(0.2, 0.2) if which != "xy_general" \
                else RegPair(0.1, 0.4)
            p = AppellParams(alpha, b1, b2, g1, g2, reg)
            lhs, rhs = f2_transform(p, x, y, which)
            assert _rel(lhs.value, rhs.value) < 1e-8, (which, alpha)
    _verdict(4, "argument transformations at 1e-8 on 5+ points each")


def test_criterion_05_recurrences_and_conformance_exit():
    for which in ("a1_plus", "a1_minus", "b1_plus", "a2_plus"):
        for n in (1, 2, 3):
            lhs, rhs = recurrence_eval(which, EXP_KERNEL, 0.9, 1.1, 4.2, n,
                                       0.25, RegPair(0.1, 0.1))
            assert _rel(lhs.value, rhs.value) < 1e-8, (which, n)
    for which in ("beta2_shift", "gamma2_shift"):
        for n in (1, 2):
            p = AppellParams(1.0, 0.5, 0.6, 1.9, 2.4, RegPair(0.1, 0.1))
            lhs, rhs = f2_recursion(p, n, which, 0.2, 0.3)
            assert _rel(lhs.value, rhs.value) < 1e-8, (which, n)
    report = run_conformance("all", "small", 1e-8)
    assert exit_code(report) == 0
    winners = {a["identity_id"]: a["winner"] for a in report.aggregates}
    for ident in ("pfaff-transform", "weighted-derivative",
                  "recurrence-upper-second-plus", "f1-pfaff-transform",
                  "f2-recursion-upper-shift", "f1-finite-sum",
                  "fa-series-vs-integral", "fa-kummer-product-integral"):
        assert winners[ident] == "proof", ident
    _verdict(5, "recurrences at 1e-8; conformance small grid exit 0 with "
                "winning variants identified")


def test_criterion_06_summation_theorem():
    pts = [(1.0, 1.0, 4.0, R0), (0.5, 1.0, 3.0, R0),
           (0.6, 0.9, 3.1, RegPair(0.2, 0.3))]
    for a1, a2, b1, r in pts:
        lhs, rhs = summation_thm(EXP_KERNEL, a1, a2, b1, r)
        assert _rel(lhs.value, rhs.value) < 1e-8
    # classical specialization against the direct classical series
    lhs, _ = summation_thm(EXP_KERNEL, 0.5, 1.0, 3.0)
    want = oracles.hyper((0.5, 0.5, 1.0), (1.5, 2.0), 1.0)
    assert _rel(lhs.value, want) < 1e-8
    _verdict(6, "quadratic-argument summation at 1e-8 incl. a "
                "regularized point")


def test_criterion_07_finite_sum_representation():
    for s in (0, 1):
        for t in (0, 1):
            out = f1_finite_sum(EXP_KERNEL, s, t, 0.25, 0.55,
                                RegPair(0.1, 0.1))
            assert _rel(out["direct"].value, out["proof"].value) < 1e-8
    out = f1_finite_sum(EXP_KERNEL, 0, 0, 0.3, 0.6)
    want = (math.log(0.4) - math.log(0.7)) / (0.3 - 0.6)
    assert abs(out["proof"].value - want) <= 1e-9
    _verdict(7, "finite-sum expansion: proof variant at 1e-8, log closed "
                "form at 1e-9")


def test_criterion_08_mellin_barnes():
    t0 = time.perf_counter()
    for z in (-0.25, -0.5, -1.0):
        spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,))
        got = mb_eval(spec, z)
        want = oracles.hyp2f1(0.8, 1.1, 2.4, z)
        assert _rel(got.value, want) < 1e-6
        spec1 = pfq_spec(EXP_KERNEL, (0.9,), (2.1,))
        got1 = mb_eval(spec1, z)
        want1 = oracles.hyp1f1(0.9, 2.1, z)
        assert _rel(got1.value, want1) < 1e-6
    r = RegPair(0.2, 0.3)
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), r)
    got = mb_eval(spec, -0.4)
    mapped = pfaff_transform(EXP_KERNEL, 0.8, 1.1, 2.4, -0.4, r)
    assert _rel(got.value, mapped.value) < 1e-6
    base = default_contour(spec)
    shifted = ContourSpec(base.abscissa * 1.5, base.half_height, base.step)
    a = mb_eval(spec, -0.4, base)
    b = mb_eval(spec, -0.4, shifted)
    assert abs(a.value - b.value) <= 2.0 * max(a.abs_err_est, b.abs_err_est,
                                               1e-12)
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    _verdict(8, f"contour evaluation at 1e-6 with shift invariance "
                f"in {dt:.1f}s")


def test_criterion_09_lauricella_integrals():
    tp = IntervalProductParams(1.0, 3.0, 0.8, 1.3, ((0.2, 0.5, -0.9),),
                               RegPair(0.3, 0.4), EXP_KERNEL)
    lhs, rhs = interval_product_integral(tp)
    assert _rel(lhs.value, rhs.value) < 1e-6
    for p in (LauricellaParams(0.9, (1.1,), (2.3,), (0.2,), RegPair(0.1, 0.2)),
              LauricellaParams(0.8, (0.9, 1.2), (2.5,), (0.15, 0.2),
                               RegPair(0.1, 0.1))):
        lhs, rhs = fd_laplace_product(p)
        assert _rel(lhs.value, rhs.value) < 1e-6
    pa = LauricellaParams(1.0, (0.8, 0.7), (2.0, 2.2), (0.3, 0.2),
                          RegPair(0.1, 0.2))
    series, integral = fa_single_integral(pa)
    assert _rel(series.value, integral.value) < 1e-6
    series1, integral1 = fa_single_integral(pa, upper=1.0)
    assert _rel(series1.value, integral1.value) > 1e-2  # documented failure
    _verdict(9, "interval product / Laplace product at 1e-6; unit upper "
                "limit demonstrably fails")


def test_criterion_10_hardy_hilbert():
    for which in ("a", "b"):
        lhs, rhs = lemma2_identity(which, 1.1, 0.6, 0.9, 0.7, 1.0, 0.2, 0.3)
        assert _rel(lhs.value, rhs.value) < 1e-8
    for hp in (classical_point(),
               midpoint_params(1.8, 2.2, 0.6, 0.6, 1.0, 1.5, 0.1, 0.1)):
        for x in (0.7, 1.0, 2.3):
            assert _rel(weight_F(hp, x).value,
                        weight_F_quadrature(hp, x).value) < 1e-7
            assert _rel(weight_G(hp, x).value,
                        weight_G_quadrature(hp, x).value) < 1e-7
    assert abs(hilbert_constant(classical_point()) - math.pi) <= 1e-8
    pairs = [(exp_decay(0.0), exp_decay(0.0)),
             (exp_decay(1.0), exp_decay(0.5)),
             (exp_decay(0.0), bump(1.0, 2.0)),
             (exp_decay(1.0), bump(0.5, 1.5)),
             (bump(0.5, 1.5), bump(1.0, 2.0)),
             (exp_decay(2.0), power_cut(0.5, 2.0))]
    grids = [classical_point(),
             midpoint_params(1.8, 2.2, 0.6, 0.6, 1.0, 1.5, 0.2, 0.2),
             midpoint_params(3.0, 1.5, 0.8, 0.3, 1.2, 0.9, 0.0, 0.25),
             midpoint_params(2.0, 2.0, 0.7, 0.5, 0.8, 1.1, 0.2, 0.2)]
    for hp in grids:
        for f, g in pairs:
            bil, equiv = hilbert_check(hp, f, g)
            assert bil.holds and bil.margin >= -1e-9 * abs(bil.rhs)
            assert equiv.holds
    zero, _ = hilbert_check(classical_point(),
                            exp_decay(0.0, amplitude=0.0), exp_decay(0.0))
    assert zero.lhs == 0.0 and zero.rhs == 0.0 and zero.margin == 0.0
    _verdict(10, "identities at 1e-8, weights at 1e-7, constant pi at 1e-8, "
                 "24 inequality checks with nonnegative margin, zero case "
                 "exact")


def test_criterion_11_quadrature_honesty():
    closed = [
        (lambda t: np.ones_like(t), 1.0, "unit"),
        (lambda t: t ** -0.5, 2.0, "unit"),
        (lambda t: np.log(t) ** 2, 2.0, "unit"),
        (lambda t: 1.0 / (1.0 + t * t), math.pi / 4.0, "unit"),
        (lambda t: np.sqrt(t) * np.log(t), -4.0 / 9.0, "unit"),
        (lambda t: np.sqrt(1.0 - t), 2.0 / 3.0, "unit"),
        (lambda t: np.exp(-t), 1.0, "half"),
        (lambda t: t * np.exp(-t), 1.0, "half"),
        (lambda t: np.exp(-0.5 * np.log(t) - t - 1.0 / t),
         math.sqrt(math.pi) * math.exp(-2.0), "half"),
        (lambda t: np.exp(2.0 * np.log(t) - 3.0 * t), 2.0 / 27.0, "half"),
    ]
    for f, want, kind in closed:
        q = integrate_unit2(lambda t, tc: f(t), 1e-10) if kind == "unit" \
            else integrate_halfline(f, 1e-10)
        assert abs(q.value - want) <= 10.0 * max(q.abs_err_est, 1e-15), want
    def g(t, tc):
        return np.exp(-0.1 / t - 0.1 / tc)

    vals, _, _, ok = integrate_unit_batch(g, 5, 1e-13)
    assert ok
    for m in range(5):
        single = integrate_unit2(lambda t, tc, m=m: t ** m * g(t, tc), 1e-13)
        assert abs(vals[m] - single.value) <= 1e-13 * (1 + abs(single.value))
    _verdict(11, "true error within 10x estimate on 10 closed forms; "
                 "batch matches singles at 1e-13")


def test_criterion_12_determinism(tmp_path):
    outs = []
    for i in (1, 2):
        path = tmp_path / f"report{i}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "exthyp.cli", "conformance", "--suite",
             "all", "--grid", "small", "--report", str(path)],
            capture_output=True, text=True)
        assert r.returncode == 0
        outs.append((path.read_bytes(), r.stdout))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    _verdict(12, "consecutive conformance runs byte-identical")