"""Hardy-Hilbert identities, weights, constant, and inequality margins."""

import math

import numpy as np
import pytest

from exthyp import ineq, quadrature
from exthyp.conformance import _hp_from_point, build_catalog, run_conformance
from exthyp.extbeta import RegPair
from exthyp.ineq import (
    HilbertParams,
    bump,
    classical_point,
    exp_decay,
    hilbert_bilinear,
    hilbert_check,
    hilbert_constant,
    hilbert_equivalent,
    lemma2_identity,
    midpoint_params,
    parse_test_function,
    power_cut,
    weight_F,
    weight_F_quadrature,
    weight_G,
    weight_G_quadrature,
)
from exthyp.kernel import EXP_KERNEL
from exthyp.results import DomainError, EvalResult

GENERIC = midpoint_params(1.8, 2.2, 0.6, 0.6, 1.0, 1.5, 0.1, 0.1)


def test_lemma2_classical_reduction():
    lhs, rhs = lemma2_identity("a", 1.0, 0.7, 1.2, 0.8, 1.0, 0.0, 0.0)
    assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))
    lhs, rhs = lemma2_identity("b", 1.0, 0.7, 1.2, 0.8, 1.0, 0.0, 0.0)
    assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))


def test_lemma2_equal_scales_collapse():
    # alpha = gamma makes the Gauss argument vanish
    lhs, rhs = lemma2_identity("a", 1.0, 0.7, 1.2, 1.0, 1.0, 0.2, 0.3)
    assert abs(lhs.value - rhs.value) <= 1e-9 * (1 + abs(lhs.value))


def test_lemma2_regularized_point():
    for which in ("a", "b"):
        lhs, rhs = lemma2_identity(which, 1.1, 0.6, 0.9, 0.7, 1.0, 0.2, 0.3)
        assert abs(lhs.value - rhs.value) <= 1e-8 * (1 + abs(lhs.value))


def test_lemma2_guards():
    with pytest.raises(DomainError):
        lemma2_identity("a", 0.2, 0.9, 0.5, 0.8, 1.0, 0.0, 0.0)  # a+c < b


def test_weight_f_classical_value():
    hp = classical_point()
    got = weight_F(hp, 1.0)
    assert abs(got.value - math.sqrt(math.pi)) < 1e-10


def test_weight_homogeneity():
    hp = GENERIC
    base = weight_F(hp, 1.0).value
    expo = (1.0 - hp.s1 - hp.s2) / hp.qprime - hp.A2
    for x in (0.5, 2.0, 7.0):
        got = weight_F(hp, x).value
        assert abs(got / base - x ** expo) <= 1e-9 * (1 + x ** expo)


def test_weight_rows_fail_when_their_2f1_does_not_converge(monkeypatch):
    real = ineq.ext_2f1

    def unconverged(*args, **kwargs):
        r = real(*args, **kwargs)
        return EvalResult(r.value, r.abs_err_est, r.terms_or_nodes, False,
                          r.method)

    monkeypatch.setattr(ineq, "ext_2f1", unconverged)
    assert not weight_F(GENERIC, 0.7).converged
    assert not weight_G(GENERIC, 1.9).converged
    rows = [c for c in run_conformance("ineq", "full", 1e-8).cases
            if c.identity_id in ("weight-f-closed-form",
                                 "weight-g-closed-form")]
    assert len(rows) == 5
    assert all(c.status == "fail" for c in rows)


def test_hilbert_forms_carry_the_constant_flags(monkeypatch):
    f = g = exp_decay(0.0)
    assert all(form.converged for form in hilbert_check(GENERIC, f, g))
    real = ineq.ext_2f1

    def unconverged(*args, **kwargs):
        r = real(*args, **kwargs)
        return EvalResult(r.value, r.abs_err_est, r.terms_or_nodes, False,
                          r.method)

    monkeypatch.setattr(ineq, "ext_2f1", unconverged)
    assert not hilbert_bilinear(GENERIC, f, g).converged
    assert not hilbert_equivalent(GENERIC, f).converged
    assert not any(form.converged for form in hilbert_check(GENERIC, f, g))
    assert isinstance(hilbert_constant(GENERIC), float)


def test_weight_error_is_the_2f1_error_through_the_root():
    hp = GENERIC
    f = ineq.ext_2f1(EXP_KERNEL, hp.s2, 1.0 - hp.qprime * hp.A2,
                     hp.s1 + hp.s2, (hp.alpha1 - hp.alpha2) / hp.alpha1,
                     RegPair(hp.ptilde, hp.qtilde), 1e-10)
    got = weight_F(hp, 0.7)
    want = abs(got.value) * f.abs_err_est / (hp.qprime * abs(f.value))
    assert got.converged == f.converged
    assert got.abs_err_est == pytest.approx(want, rel=1e-12)


def test_weight_closed_forms_vs_quadrature():
    for hp in (classical_point(), GENERIC,
               midpoint_params(3.0, 1.5, 0.8, 0.3, 1.2, 0.9, 0.0, 0.25)):
        for x in (0.7, 1.0, 2.3):
            closed = weight_F(hp, x).value
            direct = weight_F_quadrature(hp, x).value
            assert abs(closed - direct) <= 1e-7 * (1 + abs(direct))
        for y in (0.8, 1.9):
            closed = weight_G(hp, y).value
            direct = weight_G_quadrature(hp, y).value
            assert abs(closed - direct) <= 1e-7 * (1 + abs(direct))


def test_classical_constant_is_pi():
    got = hilbert_constant(classical_point())
    assert abs(got - math.pi) <= 1e-8


def test_constant_positive_generic():
    assert hilbert_constant(GENERIC) > 0.0


def test_classical_hilbert_inequality_strict():
    bil, equiv = hilbert_check(classical_point(), exp_decay(0.0),
                               exp_decay(0.0))
    assert bil.holds and bil.margin > 0.0
    assert equiv.holds and equiv.margin > 0.0
    # both sides against the textbook numbers: lhs = int e^-x e^-y/(x+y),
    # rhs = pi * ||f||_2 ||g||_2 = pi * 1/2
    assert abs(bil.rhs - math.pi * 0.5) <= 1e-8
    assert bil.lhs < bil.rhs


def test_zero_function_equality_exact():
    bil, equiv = hilbert_check(classical_point(),
                               exp_decay(0.0, amplitude=0.0), exp_decay(1.0))
    assert bil.lhs == 0.0 and bil.rhs == 0.0
    assert bil.margin == 0.0 and bil.holds
    assert equiv.lhs == 0.0 and equiv.rhs == 0.0


def test_scaling_consistency():
    hp = GENERIC
    f, g = exp_decay(1.0), bump(1.0, 2.0)
    base, _ = hilbert_check(hp, f, g)
    scaled, _ = hilbert_check(hp, exp_decay(1.0, amplitude=3.0), g)
    assert abs(scaled.lhs - 3.0 * base.lhs) <= 1e-10 * (1 + abs(scaled.lhs))
    assert abs(scaled.rhs - 3.0 * base.rhs) <= 1e-10 * (1 + abs(scaled.rhs))


@pytest.mark.parametrize("hp", [
    classical_point(),
    GENERIC,
    midpoint_params(3.0, 1.5, 0.8, 0.3, 1.2, 0.9, 0.0, 0.25),
    midpoint_params(2.0, 2.0, 0.7, 0.5, 0.8, 1.1, 0.2, 0.2),
])
def test_inequalities_hold_across_pairs(hp):
    pairs = [
        (exp_decay(0.0), exp_decay(0.0)),
        (exp_decay(1.0), exp_decay(0.5)),
        (exp_decay(0.0), bump(1.0, 2.0)),
        (exp_decay(1.0), bump(0.5, 1.5)),
        (bump(0.5, 1.5), bump(1.0, 2.0)),
        (exp_decay(2.0), power_cut(0.5, 2.0)),
    ]
    for f, g in pairs:
        bil, equiv = hilbert_check(hp, f, g)
        assert bil.holds, (hp, f, g, bil)
        assert bil.margin >= -1e-9 * abs(bil.rhs)
        assert equiv.holds, (hp, f, g, equiv)


_HILBERT_POINTS = [
    pt for ident in build_catalog()
    if ident.identity_id.startswith("hardy-hilbert-")
    for pt in ident.points + ident.extra_points]


def _bits(x):
    return np.float64(x).view(np.int64)


@pytest.mark.parametrize("pt", _HILBERT_POINTS)
def test_hilbert_check_is_the_two_forms(pt):
    hp = _hp_from_point(pt)
    f, g = parse_test_function(pt["f"]), parse_test_function(pt["g"])
    got = hilbert_check(hp, f, g)
    want = (hilbert_bilinear(hp, f, g), hilbert_equivalent(hp, f))
    assert _bits(got[0].constant) == _bits(got[1].constant)
    for form, ref in zip(got, want):
        for field in ("constant", "lhs", "rhs", "margin"):
            assert _bits(getattr(form, field)) == _bits(getattr(ref, field))
        assert form.holds == ref.holds
        assert form.converged is ref.converged is True


@pytest.mark.parametrize("weight", [weight_F, weight_G])
@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_weight_needs_a_positive_argument(weight, x):
    with pytest.raises(DomainError):
        weight(classical_point(), x)


@pytest.mark.parametrize("offsets", [(math.inf, 0.0), (0.0, math.inf),
                                     (math.nan, 0.0), (-0.1, 0.0)])
def test_hilbert_params_need_finite_offsets(offsets):
    # an infinite offset ended in ZeroDivisionError inside the weight norms
    with pytest.raises(DomainError, match="regularization offsets"):
        HilbertParams(2.0, 2.0, 1.0, 0.0, 1.0, 1.0, 0.25, 0.25, *offsets)


@pytest.mark.parametrize("make", [
    lambda: exp_decay(math.nan), lambda: exp_decay(math.inf),
    lambda: bump(1.0, math.inf), lambda: bump(math.nan, 2.0),
    lambda: power_cut(0.5, math.inf), lambda: power_cut(math.nan, 2.0),
])
def test_test_functions_need_finite_parameters(make):
    with pytest.raises(DomainError):
        make()


def test_parse_test_function():
    assert parse_test_function("exp_decay:1").tag == "exp_decay"
    assert parse_test_function("bump:1,2").params == (1.0, 2.0)
    assert parse_test_function("power_cut:0.5,2").params == (0.5, 2.0)
    assert parse_test_function("zero").amplitude == 0.0
    with pytest.raises(DomainError):
        parse_test_function("spike:1")
    with pytest.raises(DomainError, match="bad test-function syntax"):
        parse_test_function("bump:1,x")


def test_param_validation():
    with pytest.raises(DomainError):
        HilbertParams(0.9, 2.0, 1.0, 0.0, 1.0, 1.0, 0.25, 0.25)
    with pytest.raises(DomainError):
        HilbertParams(2.0, 2.0, 1.0, 0.0, 1.0, 2.5, 0.25, 0.25)
    with pytest.raises(DomainError):
        HilbertParams(2.0, 2.0, 1.0, 0.0, 1.0, 1.0, 0.9, 0.25)


def test_bump_is_smooth_compact():
    b = bump(1.0, 2.0)
    x = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    v = b(x)
    assert v[0] == 0.0 and v[1] == 0.0 and v[3] == 0.0 and v[4] == 0.0
    assert v[2] == 1.0  # normalized peak at the midpoint


def _bilinear_lhs_every_row(hp, f, g, tol=1e-8):
    """Reference: the bilinear left side with a kernel row for every y."""
    def grid_sum(level):
        with np.errstate(all="ignore"):
            x, logwx = ineq._axis_nodes(level, f.support_top())
            y, logwy = ineq._axis_nodes(level, g.support_top())
            log_rows = ineq._kernel_log_rows(hp, x, logwx + f.log_values(x),
                                             y)
            return float(np.exp(logwy + g.log_values(y)
                                + log_rows).sum()), x.size * y.size

    lhs, _, _, ok = quadrature._refine_grid(grid_sum, tol, rel=True)
    return lhs * f.amplitude * g.amplitude, ok


@pytest.mark.parametrize("g", ["bump:1,2", "bump:0,0.5", "power_cut:0.5,2",
                               "exp_decay:1"])
def test_bilinear_skips_rows_where_g_is_zero_bit_identically(g, monkeypatch):
    # the catalog's bump point: tanh-sinh nodes near y = 2 round to u = 1.0,
    # so most rows lie outside the bump; only the others reach the kernel
    hp, f = _hp_from_point(dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0,
                                al2=1.5, pt=0.2, qt=0.2)), exp_decay(1.0)
    g = parse_test_function(g)
    want, want_ok = _bilinear_lhs_every_row(hp, f, g)
    rows, pairs = [], [0]
    kernel_log_rows = ineq._kernel_log_rows

    def spy(hp, x, lx, y):
        rows.append(y)
        pairs[0] += x.size * y.size
        return kernel_log_rows(hp, x, lx, y)

    monkeypatch.setattr(ineq, "_kernel_log_rows", spy)
    got = hilbert_bilinear(hp, f, g)
    assert want_ok and got.lhs.hex() == want.hex()
    assert rows and all((g.log_values(y) > -math.inf).all() for y in rows)
    if g.tag == "bump" and g.params == (1.0, 2.0):
        assert pairs[0] <= 231_000


def test_forms_report_unconverged_refinement(monkeypatch):
    hp, f, g = GENERIC, exp_decay(1.0), bump(1.0, 2.0)
    assert hilbert_bilinear(hp, f, g).converged is True
    assert hilbert_equivalent(hp, f).converged is True
    # the full-grid refinements end at level 4
    monkeypatch.setattr(quadrature, "GRID_LEVELS", (2, 4, 4))
    assert hilbert_bilinear(hp, f, g, tol=1e-11).converged is False
    assert hilbert_equivalent(hp, f, tol=1e-11).converged is False
    bil, equiv = hilbert_check(hp, f, g, tol=1e-11)
    assert bil.converged is False and equiv.converged is False
    # the norm of exp_decay(0.0) converges by level 4 (the bump's needs
    # level 7), so with it only the left side can fail, and a zero f skips
    # the left side
    zero, g0 = exp_decay(0.0, amplitude=0.0), exp_decay(0.0)
    assert hilbert_bilinear(hp, f, g0, tol=1e-11).converged is False
    assert hilbert_bilinear(hp, zero, g0, tol=1e-11).converged


@pytest.mark.parametrize("make", [
    lambda: ineq.TestFunction("bump", (2.0, 1.0)),   # warned in the norms
    lambda: ineq.TestFunction("bump", (1.0,)),       # ended in IndexError
    lambda: ineq.TestFunction("spike", (1.0,)),
    lambda: ineq.TestFunction("exp_decay", ()),
    lambda: ineq.TestFunction("power_cut", (-0.5, 2.0)),
    lambda: ineq.TestFunction("power_cut", (0.5, 0.0)),
    lambda: exp_decay(1.0, amplitude=math.inf),
    lambda: bump(0.0, 1.0, amplitude=math.nan),
])
def test_test_function_validates_itself(make):
    with pytest.raises(DomainError):
        make()


def test_negative_amplitude_stays_allowed():
    # the norms take |amplitude|, so the right side is that of amplitude 2
    hp = classical_point()
    neg = hilbert_bilinear(hp, exp_decay(0.0, -2.0), exp_decay(0.0))
    pos = hilbert_bilinear(hp, exp_decay(0.0, 2.0), exp_decay(0.0))
    assert (neg.lhs, neg.rhs) == (-pos.lhs, pos.rhs)


def test_forms_out_of_double_range_are_domain_errors():
    # an infinite amplitude gave converged=True with lhs = inf and a NaN
    # margin; amplitudes of 1e308 overflow their product the same way
    with pytest.raises(DomainError):
        hilbert_check(classical_point(), exp_decay(1.0, amplitude=math.inf),
                      exp_decay(0.0))
    big = exp_decay(0.0, amplitude=1e308)
    with pytest.raises(DomainError, match="form sides"):
        hilbert_bilinear(classical_point(), big, big)


def test_hilbert_params_need_finite_exponents():
    # s1 = inf warned in _kernel_log_rows and failed only deep in the grid
    with pytest.raises(DomainError):
        HilbertParams(2.0, 2.0, math.inf, 0.0, 1.0, 1.0, 0.25, 0.25)
