"""Contour evaluation against series/integral routes."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import oracles
from exthyp import mellin
from exthyp.conformance import build_catalog
from exthyp.extbeta import RegPair
from exthyp.hyp import ext_2f1, ext_pfq, pfq_series, pfq_spec
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.mellin import (
    ContourSpec,
    _contour_integrand,
    default_contour,
    mb_eval,
)
from exthyp.results import DomainError

R0 = RegPair()


def test_gauss_level_log_point():
    spec = pfq_spec(EXP_KERNEL, (1.0, 1.0), (2.0,))
    got = mb_eval(spec, -0.5)
    want = 2.0 * math.log(1.5)  # -ln(1-z)/z at z = -1/2
    assert abs(got.value - want) <= 1e-8 * (1 + abs(want))


@pytest.mark.parametrize("z", [-0.25, -0.5, -1.0])
def test_gauss_level_classical_grid(z):
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,))
    got = mb_eval(spec, z)
    want = oracles.hyp2f1(0.8, 1.1, 2.4, z)
    assert abs(got.value - want) <= 1e-6 * (1 + abs(want))


@pytest.mark.parametrize("z", [-0.25, -0.5, -1.0])
def test_confluent_level_classical_grid(z):
    spec = pfq_spec(EXP_KERNEL, (0.9,), (2.1,))
    got = mb_eval(spec, z)
    want = oracles.hyp1f1(0.9, 2.1, z)
    assert abs(got.value - want) <= 1e-6 * (1 + abs(want))


def test_extended_gauss_against_series():
    r = RegPair(0.2, 0.3)
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), r)
    got = mb_eval(spec, -0.4)
    want = ext_2f1(EXP_KERNEL, 0.8, 1.1, 2.4, -0.4, r)
    assert abs(got.value - want.value) <= 1e-6 * (1 + abs(want.value))


def test_extended_gauss_confluent_kernel():
    from exthyp.kernel import kummer_kernel

    r = RegPair(0.2, 0.3)
    spec = pfq_spec(kummer_kernel(1.0, 2.0), (0.8, 1.1), (2.4,), r)
    got = mb_eval(spec, -0.4)
    from exthyp.hyp import pfq_series

    want = pfq_series(spec, -0.4)
    assert abs(got.value - want.value) <= 1e-6 * (1 + abs(want.value))


def test_extended_confluent_against_series():
    r = RegPair(0.15, 0.25)
    spec = pfq_spec(EXP_KERNEL, (0.9,), (2.1,), r)
    got = mb_eval(spec, -0.5)
    from exthyp.hyp import pfq_series

    want = pfq_series(spec, -0.5)
    assert abs(got.value - want.value) <= 1e-6 * (1 + abs(want.value))


def test_contour_shift_invariance():
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,))
    base = default_contour(spec)
    a = mb_eval(spec, -0.5, base)
    b = mb_eval(spec, -0.5, ContourSpec(base.abscissa * 1.5,
                                        base.half_height, base.step))
    assert abs(a.value - b.value) <= 2.0 * max(a.abs_err_est, b.abs_err_est,
                                               1e-12)


def test_step_refinement_within_estimate():
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,))
    coarse = mb_eval(spec, -0.5, ContourSpec(0.2, 40.0, 0.1))
    fine = mb_eval(spec, -0.5, ContourSpec(0.2, 40.0, 0.05))
    assert abs(coarse.value - fine.value) <= max(coarse.abs_err_est, 1e-13)


def _strip_spy(monkeypatch):
    """The half-heights of the strips mb_eval forms: the end of each
    integrand call that starts at s = c0 (the first one of a strip)."""
    heights = []
    integrand = mellin._contour_integrand

    def spy(spec, s, *rest):
        if s[0].imag == 0.0:
            heights.append(float(s[-1].imag))
        return integrand(spec, s, *rest)

    monkeypatch.setattr(mellin, "_contour_integrand", spy)
    return heights


def test_surplus_lower_branch_tail_guard(monkeypatch):
    # reciprocal gammas of surplus lower parameters cancel the exponential
    # decay along the line; the tail test must refuse rather than mis-sum,
    # and only once the strip has doubled from 20 to 320
    spec = pfq_spec(EXP_KERNEL, (0.9,), (1.7, 2.1))
    heights = _strip_spy(monkeypatch)
    with pytest.raises(DomainError, match="tail did not decay"):
        mb_eval(spec, -0.6)
    assert heights == [20.0, 40.0, 80.0, 160.0, 320.0]


def _bits(r):
    return (r.value.hex(), r.abs_err_est.hex(), r.terms_or_nodes,
            r.converged, r.method)


def test_tail_that_fails_at_the_first_height_doubles_onto_the_wider_strip(
        monkeypatch):
    # the p = q catalog point: its integrand decays like exp(-pi |Im s|/2),
    # so at tol 1e-13 the tail test fails at |Im s| = 12.6 (12.5 taken up
    # to whole level-0 steps of 0.2) and the strip doubles to 25.2, with
    # the very samples of an explicit height of 25.2
    spec = pfq_spec(EXP_KERNEL, (0.9,), (2.1,))
    c0 = default_contour(spec).abscissa
    heights = _strip_spy(monkeypatch)
    got = mb_eval(spec, -1.0, ContourSpec(c0, 12.5, 0.05), tol=1e-13)
    assert heights == [pytest.approx(12.6), pytest.approx(25.2)]
    want = mb_eval(spec, -1.0, ContourSpec(c0, 25.2, 0.05), tol=1e-13)
    assert _bits(got) == _bits(want) and got.converged
    # the nodes of the whole strip at the step of level 4, 0.2 / 16
    assert got.terms_or_nodes == 2 * 126 * 16 + 1
    # the default strip at that tol is already past the height it needs
    base = default_contour(spec, 1e-13)
    assert (base.half_height, base.step) == (587 * 0.05, 0.05)
    heights.clear()
    got = mb_eval(spec, -1.0, tol=1e-13)
    assert heights == [pytest.approx(588 * 0.05)]
    assert got.terms_or_nodes == 2 * 147 * 16 + 1
    assert _bits(got) == _bits(mb_eval(spec, -1.0, base, tol=1e-13))


def _rule_height(spec, tol):
    """The default half-height: the least whole number of 0.05 steps, at
    least 100, above 1.25 kappa ln(1e3 / tol) / pi, kappa = 1 for p = q+1
    and 2 for p = q."""
    kappa = 1 if spec.p == spec.q + 1 else 2
    steps = math.ceil(1.25 * kappa * math.log(1e3 / tol) / math.pi / 0.05)
    return max(100, steps) * 0.05


def _catalog_points():
    ident = next(i for i in build_catalog()
                 if i.identity_id == "mellin-barnes-contour")
    return ident, [(pfq_spec(EXP_KERNEL, pt["upper"], pt["lower"],
                             RegPair(pt["b"], pt["d"])), pt)
                   for pt in ident.points]


def _whole_level0_steps(height):
    """A half-height taken up to whole level-0 steps of 4 * 0.05."""
    return math.ceil(round(height / 0.05) / 4) * 0.2


def test_no_catalog_point_widens_its_strip_at_tol_1e_8(monkeypatch):
    # the catalog's own call, as a --tol 1e-8 conformance pass makes it:
    # one strip per point, of the rule's height taken up to whole level-0
    # steps (10.1 -> 10.2 for p = q+1, 20.2 for p = q)
    ident, points = _catalog_points()
    heights = _strip_spy(monkeypatch)
    for spec, pt in points:
        heights.clear()
        got, _ = ident.evaluate(pt, "printed", 1e-8)
        assert got.converged
        assert heights == [pytest.approx(
            _whole_level0_steps(_rule_height(spec, 1e-8)))]
    assert {round(_rule_height(s, 1e-8), 9) for s, _ in points} == {10.1,
                                                                    20.2}
    assert {round(_whole_level0_steps(_rule_height(s, 1e-8)), 9)
            for s, _ in points} == {10.2, 20.2}


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_first_height_follows_the_decay_rule(monkeypatch, tol):
    _ident, points = _catalog_points()
    heights = _strip_spy(monkeypatch)
    for spec, pt in points:
        contour = default_contour(spec, tol)
        assert contour.step == 0.05
        assert contour.half_height == pytest.approx(_rule_height(spec, tol))
        heights.clear()
        got = mb_eval(spec, pt["z"], tol=tol)
        assert heights == [pytest.approx(
            _whole_level0_steps(contour.half_height))]
    # a surplus lower parameter (p < q) has no decay to go by
    spec = pfq_spec(EXP_KERNEL, (0.9,), (1.7, 2.1))
    assert default_contour(spec, tol).half_height == 20.0
    # T / h stays >= 100 however loose the tolerance
    assert default_contour(pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,)),
                           0.5).half_height == 100 * 0.05


def _reference(spec, pt):
    """(value, its error): mpmath at b = d = 0, the tol-1e-14 series else."""
    if spec.reg.is_zero:
        oracle = oracles.hyp2f1 if spec.p == 2 else oracles.hyp1f1
        return oracle(*pt["upper"], *pt["lower"], pt["z"]), 0.0
    want = pfq_series(spec, pt["z"], 1e-14)
    assert want.converged
    return want.value, want.abs_err_est


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-13])
def test_catalog_contour_converges_within_its_estimate(tol):
    # the contour gate: each catalog point's contour stops at the tol asked
    # for, and lies within its estimate of an independent reference (at
    # 1e-13 the fixed-step estimate reached 1.2e-11 and was unconverged)
    _ident, points = _catalog_points()
    for spec, pt in points:
        got = mb_eval(spec, pt["z"], tol=tol)
        want, want_err = _reference(spec, pt)
        assert got.converged, (pt, tol)
        assert abs(got.value - want) <= got.abs_err_est + want_err, (pt, tol)
        assert got.abs_err_est <= tol, (pt, tol)
        assert [name for name, _ in got.parts] == [
            "discretisation", "dropped", "rounding"]


def test_guards():
    spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,))
    with pytest.raises(DomainError):
        mb_eval(spec, 0.5)
    with pytest.raises(DomainError):
        mb_eval(spec, -0.5, ContourSpec(0.8))  # on the pole ladder at 0.8
    with pytest.raises(DomainError):
        ContourSpec(0.2, 1.0, 0.5)  # too few steps


KUM_15_25 = kummer_kernel(1.5, 2.5)


def _mirror_cases():
    ident = next(i for i in build_catalog()
                 if i.identity_id == "mellin-barnes-contour")
    cases = [(pfq_spec(EXP_KERNEL, pt["upper"], pt["lower"],
                       RegPair(pt["b"], pt["d"])), pt["z"])
             for pt in ident.points]
    assert len(cases) == 5
    cases.append((pfq_spec(KUM_15_25, (0.8, 1.1), (2.4,), RegPair(0.2, 0.3)),
                  -0.4))
    cases.append((pfq_spec(KUM_15_25, (0.9,), (2.1,), RegPair(0.0, 0.7)),
                  -0.5))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_mirrored_strip_bit_identical_to_full_strip(case):
    # each level sums Re phi over the nodes with Im s >= 0 only, the others
    # twice: the integrand (and its bound) at conj(s) is the conjugate of
    # that at s, bit for bit, since z < 0, the parameters and the kernel
    # are real
    spec, z = _mirror_cases()[case]
    contour = default_contour(spec)
    c0, h = contour.abscissa, contour.step
    n = int(round(contour.half_height / h))
    lognz = math.log(-z)
    s = c0 + 1j * (np.arange(-2 * n, 2 * n + 1) * (h / 2.0))
    full, full_bound = _contour_integrand(spec, s, lognz, 1e-8)
    upper, bound = _contour_integrand(spec, s[2 * n:], lognz, 1e-8)
    mirrored = np.concatenate((np.conj(upper[:0:-1]), upper))
    assert np.array_equal(mirrored.view(np.int64), full.view(np.int64))
    assert np.array_equal(np.concatenate((bound[:0:-1], bound)), full_bound)
    assert (bound > 0.0).all()


@pytest.mark.parametrize("reg", [RegPair(0.2, 0.3), RegPair(0.0, 0.7),
                                 RegPair(1.0, 0.0)])
@pytest.mark.parametrize("upper,lower,z", [((0.8, 1.1), (2.4,), -0.4),
                                           ((0.9,), (2.1,), -0.5)])
def test_confluent_kernel_with_zero_samples(reg, upper, lower, z):
    # Theta = 1F1(1.5; 2.5; -w) is 0.0 at extreme nodes of the complex
    # beta's grid; those nodes are zero samples, and log(0) warns nowhere
    spec = pfq_spec(KUM_15_25, upper, lower, reg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mb_eval(spec, z)
    want = ext_pfq(spec, z, 1e-13)
    assert got.converged
    assert abs(got.value - want.value) <= 1e-12


@pytest.mark.parametrize("upper,lower,z", [
    ((1.0, 1.0), (2.0,), -0.5), ((0.8, 1.1), (2.4,), -1.0),
    ((0.9,), (2.1,), -1.0), ((1.5,), (2.5,), -1.0),
    ((2.5, 3.8), (4.1,), -0.05), ((0.9, 1.7), (1.2, 2.1), -0.6)])
def test_integrand_within_its_rounding_bound_of_mpmath(upper, lower, z):
    # the bound behind the rounding part, at every fourth node of the
    # first grid up to |Im s| = 20, against the 30-digit integrand
    spec = pfq_spec(EXP_KERNEL, upper, lower)
    s = default_contour(spec).abscissa + 1j * (np.arange(0, 801, 4) * 0.025)
    phi, bound = _contour_integrand(spec, s, math.log(-z), 1e-10)
    with mpmath.workdps(30):
        for si, p, b in zip(s, phi, bound):
            t = mpmath.mpc(si.real, si.imag)
            want = mpmath.gamma(t) * mpmath.power(-z, -t)
            if spec.p == spec.q + 1:
                want *= mpmath.gamma(upper[0] - t) / mpmath.gamma(upper[0])
            for a, _k, w in spec.pairs():
                want *= (mpmath.gamma(a - t) * mpmath.gamma(w)
                         / mpmath.gamma(a + w - t) / mpmath.beta(a, w))
            assert abs(mpmath.mpc(p.real, p.imag) - want) <= b, si
