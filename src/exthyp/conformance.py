"""Identity catalog and conformance runner.

Every identity the library implements is registered here on a small grid of
parameter points.  Where the stated form of an identity disagrees with what
its derivation forces, both are evaluated ("printed" vs "proof") and the
numeric residuals adjudicate; the report records the winning variant.

Determinism contract: rows are sorted by (identity_id, variant,
point_index), floats are written with 17 significant digits, and repeated
runs produce byte-identical CSV files (timing goes to stderr only).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .appell import (
    AppellParams,
    f1_finite_sum,
    f1_integral,
    f1_series,
    f1_transform,
    f2_eval,
    f2_integral,
    f2_recursion,
    f2_series,
    f2_single_integral,
    f2_transform,
    lemma1_expand,
)
from .corefn import gammaln_real
from .extbeta import RegPair
from .hyp import (
    derivative,
    derivative_weighted,
    euler_step_integral,
    euler_transform,
    ext_2f1,
    ext_2f1_integral,
    ext_pfq,
    finite_difference_derivative,
    frac_deriv,
    pfaff_transform,
    pfq_series,
    pfq_spec,
    recurrence_eval,
    shared_coefficients,
    summation_thm,
    weighted_derivative_lhs,
)
from .ineq import (
    classical_point,
    hilbert_bilinear,
    hilbert_equivalent,
    lemma2_identity,
    midpoint_params,
    weight_F,
    weight_F_quadrature,
    weight_G,
    weight_G_quadrature,
)
from .kernel import parse_kernel
from .lauricella import (
    IntervalProductParams,
    LauricellaParams,
    fa_integral,
    fa_partial_series,
    fa_series,
    fa_single_integral,
    fd_equal_arguments,
    fd_laplace_product,
    fd_series,
    fd_integral,
    fd_summation_unit,
    interval_product_integral,
    multinomial_exponential_identity,
)
from .mellin import mb_eval
from .results import DomainError

SUITES = ("hyp", "appell", "lauricella", "mellin", "ineq")


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    variant: str
    point_index: int
    params: str
    lhs: float
    rhs: float
    residual: float
    status: str  # "pass" | "fail" | "skipped-domain"


@dataclass(frozen=True)
class IdentityDef:
    identity_id: str
    suite: str
    variants: tuple[str, ...]
    tol_scale: float
    points: tuple[dict, ...]
    extra_points: tuple[dict, ...]  # appended on the full grid
    mode: str  # "eq" or "le"
    evaluate: object  # callable(point, variant, tol) -> (lhs, rhs)


@dataclass
class ConformanceReport:
    suite: str
    grid: str
    tolerance: float
    tool_version: str
    cases: list
    aggregates: list
    wall_clock: float


def fmt17(x: float) -> str:
    return f"{x:.17g}"


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(_fmt_value(q) for q in v) + ")"
    return str(v)


def _point_str(point: dict) -> str:
    return ";".join(f"{k}={_fmt_value(v)}" for k, v in point.items())


def _residual(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


# ---------------------------------------------------------------------------
# identity evaluators

def _regp(pt: dict) -> RegPair:
    return RegPair(pt.get("b", 0.0), pt.get("d", 0.0))


def _kern(pt: dict):
    return parse_kernel(pt.get("kernel", "exp"))


def _ev_gauss_series_vs_integral(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    spec = pfq_spec(k, (pt["a1"], pt["a2"]), (pt["b1"],), r)
    lhs = pfq_series(spec, pt["z"], tol)
    rhs = ext_2f1_integral(k, pt["a1"], pt["a2"], pt["b1"], pt["z"], r, tol)
    return lhs.value, rhs.value


def _ev_pfq_euler_step(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    spec = pfq_spec(k, pt["upper"], pt["lower"], r)
    lhs = pfq_series(spec, pt["z"], tol)
    rhs = euler_step_integral(spec, pt["z"], tol)
    return lhs.value, rhs.value


def _ev_pfq_derivative(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    spec = pfq_spec(k, pt["upper"], pt["lower"], r)
    lhs = finite_difference_derivative(spec, pt["z"], pt["n"], tol)
    rhs = derivative(spec, pt["z"], pt["n"], tol)
    return lhs, rhs.value


def _ev_weighted_derivative(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    lhs = weighted_derivative_lhs(k, pt["a1"], pt["a2"], pt["b1"], pt["z"],
                                  pt["n"], r, tol)
    rhs = derivative_weighted(k, pt["a1"], pt["a2"], pt["b1"], pt["z"],
                              pt["n"], r, tol, variant)
    return lhs, rhs.value


def _ev_pfaff(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    lhs = ext_2f1(k, pt["a1"], pt["a2"], pt["b1"], pt["z"], r, tol)
    rhs = pfaff_transform(k, pt["a1"], pt["a2"], pt["b1"], pt["z"], r, tol,
                          variant)
    return lhs.value, rhs.value


def _ev_euler_transform(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    lhs = ext_2f1(k, pt["a1"], pt["a2"], pt["b1"], pt["z"], r, tol)
    rhs = euler_transform(k, pt["a1"], pt["a2"], pt["b1"], pt["z"], r, tol,
                          variant)
    return lhs.value, rhs.value


def _mk_recurrence(which):
    def ev(pt, variant, tol):
        k, r = _kern(pt), _regp(pt)
        lhs, rhs = recurrence_eval(which, k, pt["a1"], pt["a2"], pt["b1"],
                                   pt["n"], pt["z"], r, tol, variant)
        return lhs.value, rhs.value

    return ev


def _ev_quadratic_summation(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    lhs, rhs = summation_thm(k, pt["a1"], pt["a2"], pt["b1"], r, tol)
    return lhs.value, rhs.value


def _ev_frac_deriv(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    a1, a2, b1 = pt["a1"], pt["a2"], pt["b1"]
    c, z, k2 = pt["c"], pt["z"], pt["k2"]
    spec = pfq_spec(k, (a1, a2), (b1,), r, ks=(1, k2))
    lhs = ext_pfq(spec, c * z ** k2, tol)
    quot = math.exp(gammaln_real(b1) - gammaln_real(a2))

    def f(t):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp((a2 - 1.0) * np.log(t)
                          - a1 * np.log1p(-c * t ** k2))

    d = frac_deriv(k, -(b1 - a2), r, f, z, tol)
    rhs = quot * z ** (1.0 - b1) * d.value
    return lhs.value, rhs


def _ev_f1_series_vs_integral(pt, variant, tol):
    p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], math.nan,
                     _regp(pt), _kern(pt))
    lhs = f1_series(p, pt["x"], pt["y"], tol)
    rhs = f1_integral(p, pt["x"], pt["y"], tol)
    return lhs.value, rhs.value


def _ev_f2_series_vs_integral(pt, variant, tol):
    p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], pt["g2"],
                     _regp(pt), _kern(pt))
    lhs = f2_series(p, pt["x"], pt["y"], tol)
    rhs = f2_integral(p, pt["x"], pt["y"], tol)
    return lhs.value, rhs.value


def _ev_f1_transform(pt, variant, tol):
    p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], math.nan,
                     _regp(pt), _kern(pt))
    lhs, printed, proof = f1_transform(p, pt["x"], pt["y"], tol)
    return lhs.value, (printed if variant == "printed" else proof).value


def _mk_f2_transform(which):
    def ev(pt, variant, tol):
        p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], pt["g2"],
                         _regp(pt), _kern(pt))
        lhs, rhs = f2_transform(p, pt["x"], pt["y"], which, tol)
        return lhs.value, rhs.value

    return ev


def _mk_f2_recursion(which):
    def ev(pt, variant, tol):
        p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], pt["g2"],
                         _regp(pt), _kern(pt))
        lhs, rhs = f2_recursion(p, pt["n"], which, pt["x"], pt["y"], tol,
                                variant)
        return lhs.value, rhs.value

    return ev


def _ev_f2_single_integral(pt, variant, tol):
    p = AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"], pt["g2"],
                     _regp(pt), _kern(pt))
    lhs = f2_eval(p, pt["x"], pt["y"], tol)
    rhs = f2_single_integral(p, pt["x"], pt["y"], tol)
    return lhs.value, rhs.value


def _ev_lemma1(pt, variant, tol):
    return lemma1_expand(pt["s"], pt["t"], pt["u"], pt["x"], pt["y"])


def _ev_f1_finite_sum(pt, variant, tol):
    out = f1_finite_sum(_kern(pt), pt["s"], pt["t"], pt["x"], pt["y"],
                        _regp(pt), tol)
    return out["direct"].value, out[variant].value


def _ev_fd_series_vs_integral(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), (pt["gamma"],),
                         tuple(pt["xs"]), _regp(pt), _kern(pt))
    lhs = fd_series(p, tol)
    rhs = fd_integral(p, tol)
    return lhs.value, rhs.value


def _ev_fd_unit_sum(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), (pt["gamma"],),
                         (1.0,) * len(pt["betas"]), _regp(pt), _kern(pt))
    lhs, rhs = fd_summation_unit(p, tol)
    return lhs.value, rhs.value


def _ev_fd_equal_args(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), (pt["gamma"],),
                         (pt["x"],) * len(pt["betas"]), _regp(pt), _kern(pt))
    lhs, rhs = fd_equal_arguments(p, tol)
    return lhs.value, rhs.value


def _ev_interval_product(pt, variant, tol):
    tp = IntervalProductParams(pt["a_lo"], pt["b_hi"], pt["alpha"],
                               pt["beta"], tuple(tuple(f) for f in
                                                 pt["factors"]),
                               _regp(pt), _kern(pt))
    lhs, rhs = interval_product_integral(tp, tol)
    return lhs.value, rhs.value


def _ev_fd_laplace(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), (pt["gamma"],),
                         tuple(pt["xs"]), _regp(pt), _kern(pt))
    lhs, rhs = fd_laplace_product(p, tol)
    return lhs.value, rhs.value


def _ev_multinomial_exp(pt, variant, tol):
    return multinomial_exponential_identity(tuple(pt["xs"]))


def _ev_fa_series_vs_integral(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), tuple(pt["gammas"]),
                         tuple(pt["xs"]), _regp(pt), _kern(pt))
    lhs = fa_series(p, tol)
    rhs = fa_integral(p, tol, variant=variant)
    return lhs.value, rhs.value


def _ev_fa_single_integral(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), tuple(pt["gammas"]),
                         tuple(pt["xs"]), _regp(pt), _kern(pt))
    upper = math.inf if variant == "proof" else 1.0
    series, integral = fa_single_integral(p, tol, upper=upper)
    return series.value, integral.value


def _ev_fa_partial_series(pt, variant, tol):
    p = LauricellaParams(pt["alpha"], tuple(pt["betas"]), tuple(pt["gammas"]),
                         tuple(pt["xs"]), _regp(pt), _kern(pt))
    lhs, rhs = fa_partial_series(p, tol)
    return lhs.value, rhs.value


def _ev_mellin(pt, variant, tol):
    k, r = _kern(pt), _regp(pt)
    spec = pfq_spec(k, pt["upper"], pt["lower"], r)
    got = mb_eval(spec, pt["z"], tol=max(tol, 1e-8))
    if len(pt["upper"]) == 2:
        want = ext_2f1(k, pt["upper"][0], pt["upper"][1], pt["lower"][0],
                       pt["z"], r, tol)
    else:
        want = pfq_series(spec, pt["z"], tol)
    return got.value, want.value


def _mk_lemma2(which):
    def ev(pt, variant, tol):
        lhs, rhs = lemma2_identity(which, pt["a"], pt["b_par"], pt["c"],
                                   pt["alpha"], pt["gamma"], pt["pt"],
                                   pt["qt"], tol)
        return lhs.value, rhs.value

    return ev


def _hp_from_point(pt):
    if pt.get("classical"):
        return classical_point()
    return midpoint_params(pt["p"], pt["q"], pt["s1"], pt["s2"], pt["al1"],
                           pt["al2"], pt["pt"], pt["qt"])


def _ev_weight_f(pt, variant, tol):
    hp = _hp_from_point(pt)
    return weight_F(hp, pt["x"], tol).value, weight_F_quadrature(hp, pt["x"],
                                                                 tol)


def _ev_weight_g(pt, variant, tol):
    hp = _hp_from_point(pt)
    return weight_G(hp, pt["y"], tol).value, weight_G_quadrature(hp, pt["y"],
                                                                 tol)


def _parse_tf(text):
    from .ineq import parse_test_function

    return parse_test_function(text)


def _ev_hilbert_bilinear(pt, variant, tol):
    hp = _hp_from_point(pt)
    form = hilbert_bilinear(hp, _parse_tf(pt["f"]), _parse_tf(pt["g"]))
    return form.lhs, form.rhs


def _ev_hilbert_equiv(pt, variant, tol):
    hp = _hp_from_point(pt)
    form = hilbert_equivalent(hp, _parse_tf(pt["f"]))
    return form.lhs, form.rhs


# ---------------------------------------------------------------------------
# the catalog

def _ident(identity_id, suite, evaluate, points, extra=(), variants=("printed",),
           tol_scale=1.0, mode="eq"):
    return IdentityDef(identity_id, suite, tuple(variants), tol_scale,
                       tuple(points), tuple(extra), mode, evaluate)


def build_catalog() -> list[IdentityDef]:
    pts_2f1 = [
        dict(a1=1.0, a2=1.0, b1=2.0, z=0.5, b=0.0, d=0.0),
        dict(a1=0.5, a2=1.5, b1=3.0, z=0.3, b=0.2, d=0.4),
        dict(a1=2.0, a2=0.7, b1=2.2, z=-0.5, b=1.0, d=0.25),
        dict(a1=0.5, a2=1.5, b1=3.0, z=0.3, b=0.2, d=0.4,
             kernel="kummer:1,2"),
    ]
    cat = [
        _ident("gauss-series-vs-integral", "hyp", _ev_gauss_series_vs_integral,
               pts_2f1,
               extra=[dict(a1=1.2, a2=0.9, b1=2.6, z=0.7, b=0.25, d=0.25),
                      dict(a1=0.8, a2=1.1, b1=2.4, z=-0.3, b=0.0, d=0.6)]),
        _ident("pfq-euler-step", "hyp", _ev_pfq_euler_step, [
            dict(upper=(0.8, 1.1, 1.4), lower=(2.2, 2.9), z=0.4, b=0.1,
                 d=0.2),
            dict(upper=(0.9, 1.2), lower=(2.5,), z=-0.6, b=0.3, d=0.1),
        ], extra=[dict(upper=(0.7, 1.0, 1.3), lower=(2.0, 2.4), z=-0.5,
                       b=0.2, d=0.2)]),
        _ident("pfq-derivative", "hyp", _ev_pfq_derivative, [
            dict(upper=(1.0, 1.3), lower=(2.6,), z=0.35, n=1, b=0.2, d=0.3),
            dict(upper=(1.0, 1.3), lower=(2.6,), z=0.35, n=2, b=0.2, d=0.3),
            dict(upper=(0.9,), lower=(2.1,), z=0.4, n=1, b=0.1, d=0.1),
        ], tol_scale=100.0),
        _ident("weighted-derivative", "hyp", _ev_weighted_derivative, [
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.4, n=1, b=0.1, d=0.15),
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.4, n=2, b=0.1, d=0.15),
        ], variants=("printed", "proof"), tol_scale=100.0),
        _ident("pfaff-transform", "hyp", _ev_pfaff, [
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.5, b=0.0, d=0.0),
            dict(a1=0.7, a2=1.8, b1=2.5, z=-0.4, b=0.3, d=0.1),
            dict(a1=0.7, a2=1.8, b1=2.5, z=0.3, b=0.1, d=0.2),
        ], extra=[dict(a1=1.1, a2=1.6, b1=2.8, z=-0.7, b=0.5, d=0.0)],
            variants=("printed", "proof")),
        _ident("euler-transform", "hyp", _ev_euler_transform, [
            dict(a1=1.0, a2=1.0, b1=3.0, z=0.3, b=0.0, d=0.0),
            dict(a1=1.2, a2=0.8, b1=2.7, z=0.45, b=0.2, d=0.5),
            dict(a1=0.9, a2=1.4, b1=2.9, z=-0.35, b=0.4, d=0.1),
        ], variants=("printed", "proof")),
        _ident("recurrence-upper-first-plus", "hyp",
               _mk_recurrence("a1_plus"),
               [dict(a1=1.0, a2=1.0, b1=2.5, n=n, z=0.3, b=0.1, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-upper-first-minus", "hyp",
               _mk_recurrence("a1_minus"),
               [dict(a1=1.0, a2=1.0, b1=2.5, n=n, z=0.3, b=0.1, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-lower-plus", "hyp", _mk_recurrence("b1_plus"),
               [dict(a1=0.9, a2=1.1, b1=2.4, n=n, z=0.25, b=0.2, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-upper-second-plus", "hyp",
               _mk_recurrence("a2_plus"),
               [dict(a1=0.9, a2=1.1, b1=4.2, n=n, z=0.25, b=0.1, d=0.1)
                for n in (1, 2, 3)], variants=("printed", "proof")),
        _ident("quadratic-argument-summation", "hyp",
               _ev_quadratic_summation, [
                   dict(a1=1.0, a2=1.0, b1=4.0, b=0.0, d=0.0),
                   dict(a1=0.5, a2=1.0, b1=3.0, b=0.0, d=0.0),
                   dict(a1=0.6, a2=0.9, b1=3.1, b=0.2, d=0.3),
               ]),
        _ident("frac-deriv-representation", "hyp", _ev_frac_deriv, [
            dict(a1=0.9, a2=1.1, b1=2.8, c=0.5, z=0.8, k2=1, b=0.2, d=0.3),
            dict(a1=0.8, a2=1.0, b1=3.0, c=0.4, z=0.9, k2=2, b=0.1, d=0.2),
        ]),
        # ---- two-variable ----
        _ident("f1-series-vs-integral", "appell", _ev_f1_series_vs_integral, [
            dict(alpha=1.0, b1=0.5, b2=0.5, g1=2.0, x=0.2, y=0.4, b=0.0,
                 d=0.0),
            dict(alpha=1.0, b1=0.5, b2=0.5, g1=2.0, x=0.2, y=0.4, b=0.2,
                 d=0.2),
            dict(alpha=0.8, b1=1.1, b2=0.6, g1=2.3, x=-0.3, y=0.5, b=0.1,
                 d=0.3),
        ]),
        _ident("f2-series-vs-double-integral", "appell",
               _ev_f2_series_vs_integral, [
                   dict(alpha=1.0, b1=0.5, b2=0.5, g1=1.5, g2=1.5, x=0.25,
                        y=0.25, b=0.0, d=0.0),
                   dict(alpha=1.0, b1=0.5, b2=0.5, g1=1.5, g2=1.5, x=0.25,
                        y=0.25, b=0.2, d=0.2),
               ], tol_scale=10.0),
        _ident("f1-pfaff-transform", "appell", _ev_f1_transform, [
            dict(alpha=1.0, b1=0.7, b2=0.9, g1=2.3, x=0.3, y=0.5, b=0.0,
                 d=0.0),
            dict(alpha=1.0, b1=0.7, b2=0.9, g1=2.3, x=0.3, y=0.5, b=0.2,
                 d=0.1),
            dict(alpha=0.9, b1=0.8, b2=1.2, g1=2.6, x=-0.2, y=0.4, b=0.1,
                 d=0.3),
        ], variants=("printed", "proof")),
        _ident("f2-transform-x", "appell", _mk_f2_transform("x"), [
            dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2, y=0.25,
                 b=0.2, d=0.2),
            dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15, y=0.3,
                 b=0.0, d=0.0),
        ]),
        _ident("f2-transform-y", "appell", _mk_f2_transform("y"), [
            dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2, y=0.25,
                 b=0.2, d=0.2),
            dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15, y=0.3,
                 b=0.0, d=0.0),
        ]),
        _ident("f2-transform-xy", "appell", _mk_f2_transform("xy"), [
            dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2, y=0.25,
                 b=0.2, d=0.2),
            dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15, y=0.3,
                 b=0.0, d=0.0),
        ]),
        _ident("f2-transform-xy-general", "appell",
               _mk_f2_transform("xy_general"), [
                   dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2,
                        y=0.25, b=0.1, d=0.4),
                   dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15,
                        y=0.3, b=0.3, d=0.05),
               ]),
        _ident("f2-recursion-upper-shift", "appell",
               _mk_f2_recursion("beta2_shift"),
               [dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.9, g2=2.4, n=n, x=0.2,
                     y=0.3, b=0.1, d=0.1) for n in (1, 2)],
               variants=("printed", "proof")),
        _ident("f2-recursion-lower-shift", "appell",
               _mk_f2_recursion("gamma2_shift"),
               [dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.9, g2=2.0, n=n, x=0.2,
                     y=0.3, b=0.1, d=0.1) for n in (1, 2)]),
        _ident("f2-single-integral", "appell", _ev_f2_single_integral, [
            dict(alpha=1.0, b1=0.6, b2=0.7, g1=2.0, g2=2.2, x=0.2, y=0.3,
                 b=0.1, d=0.2),
            dict(alpha=0.9, b1=0.5, b2=0.8, g1=1.8, g2=2.3, x=-0.4, y=0.35,
                 b=0.0, d=0.0),
        ]),
        _ident("rational-power-expansion", "appell", _ev_lemma1, [
            dict(s=1, t=1, u=0.5, x=0.2, y=0.6),
            dict(s=2, t=1, u=0.3, x=0.1, y=0.7),
            dict(s=1, t=3, u=0.9, x=-0.4, y=0.5),
        ]),
        _ident("f1-finite-sum", "appell", _ev_f1_finite_sum,
               [dict(s=s, t=t, x=0.25, y=0.55, b=0.1, d=0.1)
                for s in (0, 1) for t in (0, 1)],
               extra=[dict(s=1, t=1, x=0.3, y=0.6, b=0.0, d=0.0)],
               variants=("printed", "proof")),
        # ---- r-variable ----
        _ident("fd-series-vs-integral", "lauricella",
               _ev_fd_series_vs_integral, [
                   dict(alpha=1.0, betas=(0.5, 0.5), gamma=2.0,
                        xs=(0.2, 0.4), b=0.0, d=0.0),
                   dict(alpha=1.1, betas=(0.4, 0.5, 0.6), gamma=2.6,
                        xs=(0.15, -0.25, 0.1), b=0.1, d=0.3),
               ]),
        _ident("fd-unit-argument-summation", "lauricella", _ev_fd_unit_sum, [
            dict(alpha=1.0, betas=(1.0,), gamma=4.0, b=0.0, d=0.0),
            dict(alpha=0.9, betas=(0.5, 0.6), gamma=2.1, b=0.2, d=0.1),
        ]),
        _ident("fd-equal-arguments-collapse", "lauricella",
               _ev_fd_equal_args, [
                   dict(alpha=1.0, betas=(0.5, 0.7, 0.3), gamma=2.4, x=0.3,
                        b=0.1, d=0.2),
                   dict(alpha=0.8, betas=(0.6, 0.9), gamma=2.2, x=-0.35,
                        b=0.0, d=0.0),
               ]),
        _ident("weighted-product-integral", "lauricella",
               _ev_interval_product, [
                   dict(a_lo=0.0, b_hi=1.0, alpha=1.1, beta=0.9,
                        factors=((-0.3, 1.0, -0.7), (-0.5, 1.0, -1.2)),
                        b=0.1, d=0.2),
                   dict(a_lo=1.0, b_hi=3.0, alpha=0.8, beta=1.3,
                        factors=((0.2, 0.5, -0.9),), b=0.3, d=0.4),
               ]),
        _ident("fd-laplace-product", "lauricella", _ev_fd_laplace, [
            dict(alpha=0.9, betas=(1.1,), gamma=2.3, xs=(0.2,), b=0.1,
                 d=0.2),
            dict(alpha=0.8, betas=(0.9, 1.2), gamma=2.5, xs=(0.15, 0.2),
                 b=0.1, d=0.1),
        ], tol_scale=100.0),
        _ident("multinomial-exponential-identity", "lauricella",
               _ev_multinomial_exp, [
                   dict(xs=(0.2, 0.3)),
                   dict(xs=(0.1, 0.2, 0.15)),
               ]),
        _ident("fa-series-vs-integral", "lauricella",
               _ev_fa_series_vs_integral, [
                   dict(alpha=1.0, betas=(0.6,), gammas=(1.8,), xs=(0.35,),
                        b=0.2, d=0.3),
                   dict(alpha=1.0, betas=(0.6, 0.7), gammas=(1.8, 2.1),
                        xs=(0.2, 0.25), b=0.1, d=0.1),
               ], variants=("printed", "proof"), tol_scale=10.0),
        _ident("fa-kummer-product-integral", "lauricella",
               _ev_fa_single_integral, [
                   dict(alpha=1.0, betas=(0.8,), gammas=(2.0,), xs=(0.3,),
                        b=0.0, d=0.0),
                   dict(alpha=1.0, betas=(0.8, 0.7), gammas=(2.0, 2.2),
                        xs=(0.3, 0.2), b=0.1, d=0.2),
               ], variants=("printed", "proof"), tol_scale=100.0),
        _ident("fa-partial-series", "lauricella", _ev_fa_partial_series, [
            dict(alpha=1.0, betas=(0.6, 0.7), gammas=(1.8, 2.1),
                 xs=(0.2, 0.25), b=0.1, d=0.1),
            dict(alpha=0.9, betas=(0.5, 0.6, 0.7), gammas=(1.7, 1.9, 2.2),
                 xs=(0.1, 0.15, 0.2), b=0.05, d=0.1),
        ], tol_scale=10.0),
        # ---- contour ----
        _ident("mellin-barnes-contour", "mellin", _ev_mellin, [
            dict(upper=(1.0, 1.0), lower=(2.0,), z=-0.5, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-0.25, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-1.0, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-0.4, b=0.2, d=0.3),
            dict(upper=(0.9,), lower=(2.1,), z=-1.0, b=0.0, d=0.0),
        ], tol_scale=100.0),
        # ---- inequalities ----
        _ident("halfline-rational-exp-integral-a", "ineq", _mk_lemma2("a"), [
            dict(a=1.0, b_par=0.7, c=1.2, alpha=0.8, gamma=1.0, pt=0.0,
                 qt=0.0),
            dict(a=1.0, b_par=0.7, c=1.2, alpha=1.0, gamma=1.0, pt=0.2,
                 qt=0.3),
            dict(a=1.1, b_par=0.6, c=0.9, alpha=0.7, gamma=1.0, pt=0.2,
                 qt=0.3),
        ]),
        _ident("halfline-rational-exp-integral-b", "ineq", _mk_lemma2("b"), [
            dict(a=1.0, b_par=0.7, c=1.2, alpha=0.8, gamma=1.0, pt=0.0,
                 qt=0.0),
            dict(a=1.1, b_par=0.6, c=0.9, alpha=0.7, gamma=1.0, pt=0.2,
                 qt=0.3),
        ]),
        _ident("weight-f-closed-form", "ineq", _ev_weight_f, [
            dict(classical=True, x=1.0),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.1,
                 qt=0.1, x=0.7),
            dict(p=3.0, q=1.5, s1=0.8, s2=0.3, al1=1.2, al2=0.9, pt=0.0,
                 qt=0.25, x=2.3),
        ], tol_scale=10.0),
        _ident("weight-g-closed-form", "ineq", _ev_weight_g, [
            dict(classical=True, y=1.0),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.1,
                 qt=0.1, y=1.9),
        ], tol_scale=10.0),
        _ident("hardy-hilbert-bilinear", "ineq", _ev_hilbert_bilinear, [
            dict(classical=True, f="exp_decay:0", g="exp_decay:0"),
            dict(classical=True, f="zero", g="exp_decay:1"),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.2,
                 qt=0.2, f="exp_decay:1", g="bump:1,2"),
            dict(p=2.0, q=2.0, s1=0.7, s2=0.5, al1=0.8, al2=1.1, pt=0.2,
                 qt=0.2, f="exp_decay:2", g="power_cut:0.5,2"),
        ], mode="le"),
        _ident("hardy-hilbert-equivalent", "ineq", _ev_hilbert_equiv, [
            dict(classical=True, f="exp_decay:0", g="exp_decay:0"),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.2,
                 qt=0.2, f="exp_decay:1", g="bump:1,2"),
        ], mode="le"),
    ]
    return cat


def catalog_identity_ids() -> list[str]:
    return [d.identity_id for d in build_catalog()]


# ---------------------------------------------------------------------------
# runner

def run_conformance(suite: str = "all", grid: str = "small",
                    tol: float = 1e-8) -> ConformanceReport:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if grid not in ("small", "full"):
        raise ValueError(f"unknown grid {grid!r}")
    t0 = time.perf_counter()
    cases = []
    aggregates = []
    # Identities relate the same functions at the same parameters, so the
    # whole pass shares one set of coefficient blocks.
    with shared_coefficients():
        for ident in build_catalog():
            if suite != "all" and ident.suite != suite:
                continue
            points = ident.points + (ident.extra_points if grid == "full"
                                     else ())
            per_variant = {}
            for variant in ident.variants:
                n_pass = n_fail = n_skip = 0
                max_res = 0.0
                for i, pt in enumerate(points):
                    try:
                        lhs, rhs = ident.evaluate(pt, variant, tol)
                    except DomainError:
                        cases.append(IdentityCase(
                            ident.identity_id, variant, i, _point_str(pt),
                            math.nan, math.nan, math.nan, "skipped-domain"))
                        n_skip += 1
                        continue
                    res = _residual(lhs, rhs)
                    if ident.mode == "le":
                        ok = lhs <= rhs * (1.0 + 1e-9)
                    else:
                        ok = res < tol * ident.tol_scale
                    cases.append(IdentityCase(ident.identity_id, variant, i,
                                              _point_str(pt), float(lhs),
                                              float(rhs), res,
                                              "pass" if ok else "fail"))
                    if not math.isnan(res):
                        max_res = max(max_res, res)
                    if ok:
                        n_pass += 1
                    else:
                        n_fail += 1
                per_variant[variant] = (n_pass, n_fail, n_skip, max_res)
            winner = _adjudicate(ident.variants, per_variant)
            aggregates.append({
                "identity_id": ident.identity_id,
                "suite": ident.suite,
                "variants": {v: {"passed": per_variant[v][0],
                                 "failed": per_variant[v][1],
                                 "skipped": per_variant[v][2],
                                 "max_residual": per_variant[v][3]}
                             for v in ident.variants},
                "winner": winner,
                "ok": any(per_variant[v][1] == 0 and per_variant[v][0] > 0
                          for v in ident.variants),
            })
    cases.sort(key=lambda c: (c.identity_id, c.variant, c.point_index))
    aggregates.sort(key=lambda a: a["identity_id"])
    wall = time.perf_counter() - t0
    return ConformanceReport(suite, grid, tol, __version__, cases, aggregates,
                             wall)


def _adjudicate(variants, per_variant) -> str:
    """Winner = passes everywhere (with >= 1 evaluated point) while the
    other variant fails somewhere; ties are reported, never resolved."""
    if len(variants) == 1:
        return variants[0]
    clean = {v: per_variant[v][1] == 0 and per_variant[v][0] > 0
             for v in variants}
    winners = [v for v in variants if clean[v]
               and any(per_variant[u][1] > 0 for u in variants if u != v)]
    if len(winners) == 1:
        return winners[0]
    if all(clean.values()):
        return "tie"
    return "none"


def exit_code(report: ConformanceReport) -> int:
    return 0 if all(a["ok"] for a in report.aggregates) else 4


def write_report_csv(report: ConformanceReport, path: str) -> None:
    lines = ["identity_id,variant,point_index,params,lhs,rhs,residual,status"]
    for c in report.cases:
        lines.append(",".join([
            c.identity_id, c.variant, str(c.point_index),
            '"' + c.params + '"', fmt17(c.lhs), fmt17(c.rhs),
            fmt17(c.residual), c.status,
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def summary_lines(report: ConformanceReport) -> list[str]:
    out = [f"suite={report.suite} grid={report.grid} "
           f"tol={fmt17(report.tolerance)} version={report.tool_version}"]
    for a in report.aggregates:
        bits = []
        for v, st in a["variants"].items():
            bits.append(f"{v}: {st['passed']}p/{st['failed']}f/"
                        f"{st['skipped']}s max_res={st['max_residual']:.3g}")
        status = "OK" if a["ok"] else "FAIL"
        out.append(f"[{status}] {a['identity_id']} winner={a['winner']} | "
                   + " | ".join(bits))
    return out
