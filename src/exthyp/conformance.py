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
from operator import itemgetter

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
from .extbeta import RegPair, _exp_norm
from .hyp import (
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
    pfq_spec,
    recurrence_eval,
    summation_thm,
    weighted_derivative_lhs,
)
from .ineq import (
    HilbertForm,
    classical_point,
    hilbert_bilinear,
    hilbert_equivalent,
    lemma2_identity,
    midpoint_params,
    parse_test_function,
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
from .results import DomainError, EvalResult, check_tol, pass_memo

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
    points: tuple[dict, ...]
    extra_points: tuple[dict, ...]  # appended on the full grid
    # callable(point, variant, tol) -> (lhs, rhs), EvalResults or floats,
    # or a HilbertForm for an inequality
    evaluate: object


@dataclass
class ConformanceReport:
    suite: str
    grid: str
    tolerance: float
    tool_version: str
    cases: list
    aggregates: list
    wall_clock: float
    memo_hits: int  # evaluator calls the pass's memo served
    memo_calls: int  # memoized evaluator calls the pass made


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
# parameter builders
#
# Each catalog entry's ``evaluate(point, variant, tol)`` is one call
# expression that returns the two sides of its identity as the library gives
# them: EvalResults, or plain floats from the oracles, or the HilbertForm of
# an inequality.  The runner unwraps them.  Library functions are looked up
# in this module's globals when an entry runs, never copied into a table.

def _regp(pt: dict) -> RegPair:
    return RegPair(pt.get("b", 0.0), pt.get("d", 0.0))


def _kern(pt: dict):
    return parse_kernel(pt.get("kernel", "exp"))


def _g(pt: dict) -> tuple:
    """Kernel and Gauss parameters (kernel, a1, a2, b1)."""
    return _kern(pt), pt["a1"], pt["a2"], pt["b1"]


def _spec(pt: dict):
    if "upper" in pt:
        upper, lower = pt["upper"], pt["lower"]
    else:
        upper, lower = (pt["a1"], pt["a2"]), (pt["b1"],)
    return pfq_spec(_kern(pt), upper, lower, _regp(pt))


def _ap(pt: dict) -> AppellParams:
    """Two-variable parameters; first-kind points carry no g2."""
    return AppellParams(pt["alpha"], pt["b1"], pt["b2"], pt["g1"],
                        pt.get("g2", math.nan), _regp(pt), _kern(pt))


def _lp(pt: dict) -> LauricellaParams:
    """r-variable parameters.  Type D points carry one gamma; points
    without xs put their x (1 when absent) on every axis."""
    betas = tuple(pt["betas"])
    gammas = tuple(pt["gammas"]) if "gammas" in pt else (pt["gamma"],)
    xs = tuple(pt["xs"]) if "xs" in pt else (pt.get("x", 1.0),) * len(betas)
    return LauricellaParams(pt["alpha"], betas, gammas, xs, _regp(pt),
                            _kern(pt))


def _hp_from_point(pt):
    if pt.get("classical"):
        return classical_point()
    return midpoint_params(pt["p"], pt["q"], pt["s1"], pt["s2"], pt["al1"],
                           pt["al2"], pt["pt"], pt["qt"])


def _frac_deriv_sides(pt, variant, tol):
    a1, a2, b1 = pt["a1"], pt["a2"], pt["b1"]
    c, z, k2 = pt["c"], pt["z"], pt["k2"]
    k, r = _kern(pt), _regp(pt)
    lhs = ext_pfq(pfq_spec(k, (a1, a2), (b1,), r, ks=(1, k2)), c * z ** k2,
                  tol)
    lg = gammaln_real(b1), gammaln_real(a2)
    quot = _exp_norm(lg[0] - lg[1], lg, "Gamma(b1) / Gamma(a2)",
                     f"(a2, b1) = ({a2}, {b1})")[0]

    def f(t):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp((a2 - 1.0) * np.log(t)
                          - a1 * np.log1p(-c * t ** k2))

    d = frac_deriv(k, -(b1 - a2), r, f, z, tol)
    return lhs, d.scaled(quot * z ** (1.0 - b1))


def _mellin_sides(pt, variant, tol):
    """The contour against the 2F1 dispatcher, or the pFq series."""
    got = mb_eval(_spec(pt), pt["z"], tol=tol)
    if len(pt["upper"]) == 2:
        return got, ext_2f1(_kern(pt), *pt["upper"], *pt["lower"], pt["z"],
                            _regp(pt), tol)
    return got, pfq_series(_spec(pt), pt["z"], tol)


# ---------------------------------------------------------------------------
# the catalog

def _ident(identity_id, suite, evaluate, points, extra=(),
           variants=("printed",)):
    return IdentityDef(identity_id, suite, tuple(variants), tuple(points),
                       tuple(extra), evaluate)


def build_catalog() -> list[IdentityDef]:
    pts_2f1 = [
        dict(a1=1.0, a2=1.0, b1=2.0, z=0.5, b=0.0, d=0.0),
        dict(a1=0.5, a2=1.5, b1=3.0, z=0.3, b=0.2, d=0.4),
        dict(a1=2.0, a2=0.7, b1=2.2, z=-0.5, b=1.0, d=0.25),
        dict(a1=0.5, a2=1.5, b1=3.0, z=0.3, b=0.2, d=0.4,
             kernel="kummer:1,2"),
    ]
    pts_f2_transform = [
        dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2, y=0.25,
             b=0.2, d=0.2),
        dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15, y=0.3,
             b=0.0, d=0.0),
    ]

    cat = [
        _ident("gauss-series-vs-integral", "hyp",
               lambda pt, v, tol: (
                   pfq_series(_spec(pt), pt["z"], tol),
                   ext_2f1(*_g(pt), pt["z"], _regp(pt), tol, "integral")),
               pts_2f1,
               extra=[dict(a1=1.2, a2=0.9, b1=2.6, z=0.7, b=0.25, d=0.25),
                      dict(a1=0.8, a2=1.1, b1=2.4, z=-0.3, b=0.0, d=0.6)]),
        _ident("pfq-euler-step", "hyp",
               lambda pt, v, tol: (
                   pfq_series(_spec(pt), pt["z"], tol),
                   euler_step_integral(_spec(pt), pt["z"], tol)), [
            dict(upper=(0.8, 1.1, 1.4), lower=(2.2, 2.9), z=0.4, b=0.1,
                 d=0.2),
            dict(upper=(0.9, 1.2), lower=(2.5,), z=-0.6, b=0.3, d=0.1),
        ], extra=[dict(upper=(0.7, 1.0, 1.3), lower=(2.0, 2.4), z=-0.5,
                       b=0.2, d=0.2)]),
        _ident("pfq-derivative", "hyp",
               lambda pt, v, tol: (
                   cauchy_derivative(_spec(pt), pt["z"], pt["n"]),
                   derivative(_spec(pt), pt["z"], pt["n"], tol)), [
            dict(upper=(1.0, 1.3), lower=(2.6,), z=0.35, n=1, b=0.2, d=0.3),
            dict(upper=(1.0, 1.3), lower=(2.6,), z=0.35, n=2, b=0.2, d=0.3),
            dict(upper=(0.9,), lower=(2.1,), z=0.4, n=1, b=0.1, d=0.1),
        ]),
        _ident("weighted-derivative", "hyp",
               lambda pt, v, tol: (
                   weighted_derivative_lhs(*_g(pt), pt["z"], pt["n"],
                                           _regp(pt)),
                   derivative_weighted(*_g(pt), pt["z"], pt["n"], _regp(pt),
                                       tol, v)), [
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.4, n=1, b=0.1, d=0.15),
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.4, n=2, b=0.1, d=0.15),
        ], variants=("printed", "proof")),
        _ident("pfaff-transform", "hyp",
               lambda pt, v, tol: (
                   ext_2f1(*_g(pt), pt["z"], _regp(pt), tol),
                   pfaff_transform(*_g(pt), pt["z"], _regp(pt), tol, v)), [
            dict(a1=1.0, a2=1.0, b1=2.0, z=0.5, b=0.0, d=0.0),
            dict(a1=0.7, a2=1.8, b1=2.5, z=-0.4, b=0.3, d=0.1),
            dict(a1=0.7, a2=1.8, b1=2.5, z=0.3, b=0.1, d=0.2),
        ], extra=[dict(a1=1.1, a2=1.6, b1=2.8, z=-0.7, b=0.5, d=0.0)],
            variants=("printed", "proof")),
        _ident("euler-transform", "hyp",
               lambda pt, v, tol: (
                   ext_2f1(*_g(pt), pt["z"], _regp(pt), tol),
                   euler_transform(*_g(pt), pt["z"], _regp(pt), tol, v)), [
            dict(a1=1.0, a2=1.0, b1=3.0, z=0.3, b=0.0, d=0.0),
            dict(a1=1.2, a2=0.8, b1=2.7, z=0.45, b=0.2, d=0.5),
            dict(a1=0.9, a2=1.4, b1=2.9, z=-0.35, b=0.4, d=0.1),
        ], variants=("printed", "proof")),
        _ident("recurrence-upper-first-plus", "hyp",
               lambda pt, v, tol: recurrence_eval(
                   "a1_plus", *_g(pt), pt["n"], pt["z"], _regp(pt), tol, v),
               [dict(a1=1.0, a2=1.0, b1=2.5, n=n, z=0.3, b=0.1, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-upper-first-minus", "hyp",
               lambda pt, v, tol: recurrence_eval(
                   "a1_minus", *_g(pt), pt["n"], pt["z"], _regp(pt), tol, v),
               [dict(a1=1.0, a2=1.0, b1=2.5, n=n, z=0.3, b=0.1, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-lower-plus", "hyp",
               lambda pt, v, tol: recurrence_eval(
                   "b1_plus", *_g(pt), pt["n"], pt["z"], _regp(pt), tol, v),
               [dict(a1=0.9, a2=1.1, b1=2.4, n=n, z=0.25, b=0.2, d=0.1)
                for n in (1, 2, 3)]),
        _ident("recurrence-upper-second-plus", "hyp",
               lambda pt, v, tol: recurrence_eval(
                   "a2_plus", *_g(pt), pt["n"], pt["z"], _regp(pt), tol, v),
               [dict(a1=0.9, a2=1.1, b1=4.2, n=n, z=0.25, b=0.1, d=0.1)
                for n in (1, 2, 3)], variants=("printed", "proof")),
        _ident("quadratic-argument-summation", "hyp",
               lambda pt, v, tol: summation_thm(*_g(pt), _regp(pt), tol), [
                   dict(a1=1.0, a2=1.0, b1=4.0, b=0.0, d=0.0),
                   dict(a1=0.5, a2=1.0, b1=3.0, b=0.0, d=0.0),
                   dict(a1=0.6, a2=0.9, b1=3.1, b=0.2, d=0.3),
               ]),
        _ident("frac-deriv-representation", "hyp", _frac_deriv_sides, [
            dict(a1=0.9, a2=1.1, b1=2.8, c=0.5, z=0.8, k2=1, b=0.2, d=0.3),
            dict(a1=0.8, a2=1.0, b1=3.0, c=0.4, z=0.9, k2=2, b=0.1, d=0.2),
        ]),
        # ---- two-variable ----
        _ident("f1-series-vs-integral", "appell",
               lambda pt, v, tol: (
                   f1_series(_ap(pt), pt["x"], pt["y"], tol),
                   f1_integral(_ap(pt), pt["x"], pt["y"], tol)), [
            dict(alpha=1.0, b1=0.5, b2=0.5, g1=2.0, x=0.2, y=0.4, b=0.0,
                 d=0.0),
            dict(alpha=1.0, b1=0.5, b2=0.5, g1=2.0, x=0.2, y=0.4, b=0.2,
                 d=0.2),
            dict(alpha=0.8, b1=1.1, b2=0.6, g1=2.3, x=-0.3, y=0.5, b=0.1,
                 d=0.3),
        ]),
        _ident("f2-series-vs-double-integral", "appell",
               lambda pt, v, tol: (
                   f2_series(_ap(pt), pt["x"], pt["y"], tol),
                   f2_integral(_ap(pt), pt["x"], pt["y"], tol)), [
                   dict(alpha=1.0, b1=0.5, b2=0.5, g1=1.5, g2=1.5, x=0.25,
                        y=0.25, b=0.0, d=0.0),
                   dict(alpha=1.0, b1=0.5, b2=0.5, g1=1.5, g2=1.5, x=0.25,
                        y=0.25, b=0.2, d=0.2),
               ]),
        _ident("f1-pfaff-transform", "appell",
               lambda pt, v, tol: f1_transform(_ap(pt), pt["x"], pt["y"],
                                               tol, v), [
            dict(alpha=1.0, b1=0.7, b2=0.9, g1=2.3, x=0.3, y=0.5, b=0.0,
                 d=0.0),
            dict(alpha=1.0, b1=0.7, b2=0.9, g1=2.3, x=0.3, y=0.5, b=0.2,
                 d=0.1),
            dict(alpha=0.9, b1=0.8, b2=1.2, g1=2.6, x=-0.2, y=0.4, b=0.1,
                 d=0.3),
        ], variants=("printed", "proof")),
        _ident("f2-transform-x", "appell",
               lambda pt, v, tol: f2_transform(_ap(pt), pt["x"], pt["y"],
                                               "x", tol), pts_f2_transform),
        _ident("f2-transform-y", "appell",
               lambda pt, v, tol: f2_transform(_ap(pt), pt["x"], pt["y"],
                                               "y", tol), pts_f2_transform),
        _ident("f2-transform-xy", "appell",
               lambda pt, v, tol: f2_transform(_ap(pt), pt["x"], pt["y"],
                                               "xy", tol), pts_f2_transform),
        _ident("f2-transform-xy-general", "appell",
               lambda pt, v, tol: f2_transform(_ap(pt), pt["x"], pt["y"],
                                               "xy_general", tol), [
                   dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.8, g2=2.1, x=0.2,
                        y=0.25, b=0.1, d=0.4),
                   dict(alpha=0.9, b1=0.7, b2=0.5, g1=2.0, g2=1.9, x=0.15,
                        y=0.3, b=0.3, d=0.05),
               ]),
        _ident("f2-recursion-upper-shift", "appell",
               lambda pt, v, tol: f2_recursion(_ap(pt), pt["n"],
                                               "beta2_shift", pt["x"],
                                               pt["y"], tol, v),
               [dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.9, g2=2.4, n=n, x=0.2,
                     y=0.3, b=0.1, d=0.1) for n in (1, 2)],
               variants=("printed", "proof")),
        _ident("f2-recursion-lower-shift", "appell",
               lambda pt, v, tol: f2_recursion(_ap(pt), pt["n"],
                                               "gamma2_shift", pt["x"],
                                               pt["y"], tol, v),
               [dict(alpha=1.0, b1=0.5, b2=0.6, g1=1.9, g2=2.0, n=n, x=0.2,
                     y=0.3, b=0.1, d=0.1) for n in (1, 2)]),
        _ident("f2-single-integral", "appell",
               lambda pt, v, tol: (
                   f2_eval(_ap(pt), pt["x"], pt["y"], tol),
                   f2_single_integral(_ap(pt), pt["x"], pt["y"], tol)), [
            dict(alpha=1.0, b1=0.6, b2=0.7, g1=2.0, g2=2.2, x=0.2, y=0.3,
                 b=0.1, d=0.2),
            dict(alpha=0.9, b1=0.5, b2=0.8, g1=1.8, g2=2.3, x=-0.4, y=0.35,
                 b=0.0, d=0.0),
        ]),
        _ident("rational-power-expansion", "appell",
               lambda pt, v, tol: lemma1_expand(pt["s"], pt["t"], pt["u"],
                                                pt["x"], pt["y"]), [
            dict(s=1, t=1, u=0.5, x=0.2, y=0.6),
            dict(s=2, t=1, u=0.3, x=0.1, y=0.7),
            dict(s=1, t=3, u=0.9, x=-0.4, y=0.5),
        ]),
        _ident("f1-finite-sum", "appell",
               lambda pt, v, tol: itemgetter("direct", v)(f1_finite_sum(
                   _kern(pt), pt["s"], pt["t"], pt["x"], pt["y"], _regp(pt),
                   tol)),
               [dict(s=s, t=t, x=0.25, y=0.55, b=0.1, d=0.1)
                for s in (0, 1) for t in (0, 1)],
               extra=[dict(s=1, t=1, x=0.3, y=0.6, b=0.0, d=0.0)],
               variants=("printed", "proof")),
        # ---- r-variable ----
        _ident("fd-series-vs-integral", "lauricella",
               lambda pt, v, tol: (fd_series(_lp(pt), tol),
                                   fd_integral(_lp(pt), tol)), [
                   dict(alpha=1.0, betas=(0.5, 0.5), gamma=2.0,
                        xs=(0.2, 0.4), b=0.0, d=0.0),
                   dict(alpha=1.1, betas=(0.4, 0.5, 0.6), gamma=2.6,
                        xs=(0.15, -0.25, 0.1), b=0.1, d=0.3),
               ]),
        _ident("fd-unit-argument-summation", "lauricella",
               lambda pt, v, tol: fd_summation_unit(_lp(pt), tol), [
                   dict(alpha=1.0, betas=(1.0,), gamma=4.0, b=0.0, d=0.0),
                   dict(alpha=0.9, betas=(0.5, 0.6), gamma=2.1, b=0.2,
                        d=0.1),
               ]),
        _ident("fd-equal-arguments-collapse", "lauricella",
               lambda pt, v, tol: fd_equal_arguments(_lp(pt), tol), [
                   dict(alpha=1.0, betas=(0.5, 0.7, 0.3), gamma=2.4, x=0.3,
                        b=0.1, d=0.2),
                   dict(alpha=0.8, betas=(0.6, 0.9), gamma=2.2, x=-0.35,
                        b=0.0, d=0.0),
               ]),
        _ident("weighted-product-integral", "lauricella",
               lambda pt, v, tol: interval_product_integral(
                   IntervalProductParams(
                       pt["a_lo"], pt["b_hi"], pt["alpha"], pt["beta"],
                       tuple(tuple(f) for f in pt["factors"]), _regp(pt),
                       _kern(pt)), tol), [
                   dict(a_lo=0.0, b_hi=1.0, alpha=1.1, beta=0.9,
                        factors=((-0.3, 1.0, -0.7), (-0.5, 1.0, -1.2)),
                        b=0.1, d=0.2),
                   dict(a_lo=1.0, b_hi=3.0, alpha=0.8, beta=1.3,
                        factors=((0.2, 0.5, -0.9),), b=0.3, d=0.4),
               ]),
        _ident("fd-laplace-product", "lauricella",
               lambda pt, v, tol: fd_laplace_product(_lp(pt), tol), [
            dict(alpha=0.9, betas=(1.1,), gamma=2.3, xs=(0.2,), b=0.1,
                 d=0.2),
            dict(alpha=0.8, betas=(0.9, 1.2), gamma=2.5, xs=(0.15, 0.2),
                 b=0.1, d=0.1),
        ]),
        _ident("multinomial-exponential-identity", "lauricella",
               lambda pt, v, tol: multinomial_exponential_identity(
                   tuple(pt["xs"])), [
                   dict(xs=(0.2, 0.3)),
                   dict(xs=(0.1, 0.2, 0.15)),
               ]),
        _ident("fa-series-vs-integral", "lauricella",
               lambda pt, v, tol: (fa_series(_lp(pt), tol),
                                   fa_integral(_lp(pt), tol, variant=v)), [
                   dict(alpha=1.0, betas=(0.6,), gammas=(1.8,), xs=(0.35,),
                        b=0.2, d=0.3),
                   dict(alpha=1.0, betas=(0.6, 0.7), gammas=(1.8, 2.1),
                        xs=(0.2, 0.25), b=0.1, d=0.1),
               ], variants=("printed", "proof")),
        _ident("fa-kummer-product-integral", "lauricella",
               lambda pt, v, tol: fa_single_integral(
                   _lp(pt), tol, upper=math.inf if v == "proof" else 1.0), [
                   dict(alpha=1.0, betas=(0.8,), gammas=(2.0,), xs=(0.3,),
                        b=0.0, d=0.0),
                   dict(alpha=1.0, betas=(0.8, 0.7), gammas=(2.0, 2.2),
                        xs=(0.3, 0.2), b=0.1, d=0.2),
               ], variants=("printed", "proof")),
        _ident("fa-partial-series", "lauricella",
               lambda pt, v, tol: fa_partial_series(_lp(pt), tol), [
            dict(alpha=1.0, betas=(0.6, 0.7), gammas=(1.8, 2.1),
                 xs=(0.2, 0.25), b=0.1, d=0.1),
            dict(alpha=0.9, betas=(0.5, 0.6, 0.7), gammas=(1.7, 1.9, 2.2),
                 xs=(0.1, 0.15, 0.2), b=0.05, d=0.1),
        ]),
        # ---- contour ----
        _ident("mellin-barnes-contour", "mellin", _mellin_sides, [
            dict(upper=(1.0, 1.0), lower=(2.0,), z=-0.5, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-0.25, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-1.0, b=0.0, d=0.0),
            dict(upper=(0.8, 1.1), lower=(2.4,), z=-0.4, b=0.2, d=0.3),
            dict(upper=(0.9,), lower=(2.1,), z=-1.0, b=0.0, d=0.0),
        ]),
        # ---- inequalities ----
        _ident("halfline-rational-exp-integral-a", "ineq",
               lambda pt, v, tol: lemma2_identity(
                   "a", pt["a"], pt["b_par"], pt["c"], pt["alpha"],
                   pt["gamma"], pt["pt"], pt["qt"], tol), [
            dict(a=1.0, b_par=0.7, c=1.2, alpha=0.8, gamma=1.0, pt=0.0,
                 qt=0.0),
            dict(a=1.0, b_par=0.7, c=1.2, alpha=1.0, gamma=1.0, pt=0.2,
                 qt=0.3),
            dict(a=1.1, b_par=0.6, c=0.9, alpha=0.7, gamma=1.0, pt=0.2,
                 qt=0.3),
        ]),
        _ident("halfline-rational-exp-integral-b", "ineq",
               lambda pt, v, tol: lemma2_identity(
                   "b", pt["a"], pt["b_par"], pt["c"], pt["alpha"],
                   pt["gamma"], pt["pt"], pt["qt"], tol), [
            dict(a=1.0, b_par=0.7, c=1.2, alpha=0.8, gamma=1.0, pt=0.0,
                 qt=0.0),
            dict(a=1.1, b_par=0.6, c=0.9, alpha=0.7, gamma=1.0, pt=0.2,
                 qt=0.3),
        ]),
        _ident("weight-f-closed-form", "ineq",
               lambda pt, v, tol: (
                   weight_F(_hp_from_point(pt), pt["x"], tol),
                   weight_F_quadrature(_hp_from_point(pt), pt["x"], tol)), [
            dict(classical=True, x=1.0),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.1,
                 qt=0.1, x=0.7),
            dict(p=3.0, q=1.5, s1=0.8, s2=0.3, al1=1.2, al2=0.9, pt=0.0,
                 qt=0.25, x=2.3),
        ]),
        _ident("weight-g-closed-form", "ineq",
               lambda pt, v, tol: (
                   weight_G(_hp_from_point(pt), pt["y"], tol),
                   weight_G_quadrature(_hp_from_point(pt), pt["y"], tol)), [
            dict(classical=True, y=1.0),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.1,
                 qt=0.1, y=1.9),
        ]),
        _ident("hardy-hilbert-bilinear", "ineq",
               lambda pt, v, tol: hilbert_bilinear(
                   _hp_from_point(pt), parse_test_function(pt["f"]),
                   parse_test_function(pt["g"])), [
            dict(classical=True, f="exp_decay:0", g="exp_decay:0"),
            dict(classical=True, f="zero", g="exp_decay:1"),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.2,
                 qt=0.2, f="exp_decay:1", g="bump:1,2"),
            dict(p=2.0, q=2.0, s1=0.7, s2=0.5, al1=0.8, al2=1.1, pt=0.2,
                 qt=0.2, f="exp_decay:2", g="power_cut:0.5,2"),
        ]),
        _ident("hardy-hilbert-equivalent", "ineq",
               lambda pt, v, tol: hilbert_equivalent(
                   _hp_from_point(pt), parse_test_function(pt["f"])), [
            dict(classical=True, f="exp_decay:0", g="exp_decay:0"),
            dict(p=1.8, q=2.2, s1=0.6, s2=0.6, al1=1.0, al2=1.5, pt=0.2,
                 qt=0.2, f="exp_decay:1", g="bump:1,2"),
        ]),
    ]
    return cat


# ---------------------------------------------------------------------------
# runner

def run_conformance(suite: str = "all", grid: str = "small",
                    tol: float = 1e-8) -> ConformanceReport:
    """One pass over the catalog.  An unknown suite or grid, or a
    tolerance that is not finite and > 0, is a DomainError before any case.

    The pass is one ``results.pass_memo`` scope: an evaluator call that an
    earlier case of the same pass made with the same arguments (the shared
    side of a two-variant identity, the shifted Gauss values of the
    recurrences and transforms) returns that case's result.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    if grid not in ("small", "full"):
        raise DomainError(f"unknown grid {grid!r}")
    check_tol(tol)
    t0 = time.perf_counter()
    with pass_memo() as memo:
        cases, aggregates = _run_catalog(suite, grid, tol)
    wall = time.perf_counter() - t0
    return ConformanceReport(suite, grid, tol, __version__, cases, aggregates,
                             wall, memo.hits, memo.calls)


def _run_catalog(suite: str, grid: str, tol: float) -> tuple[list, list]:
    """The sorted cases and aggregates of the selected identities."""
    cases = []
    aggregates = []
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
                    sides = ident.evaluate(pt, variant, tol)
                except DomainError:
                    cases.append(IdentityCase(
                        ident.identity_id, variant, i, _point_str(pt),
                        math.nan, math.nan, math.nan, "skipped-domain"))
                    n_skip += 1
                    continue
                lhs, rhs, ok = _verdict(sides, tol)
                res = _residual(lhs, rhs)
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
    return cases, aggregates


def _verdict(sides, tol: float) -> tuple[float, float, bool]:
    """(lhs, rhs, passed): a HilbertForm passes when it holds and converged,
    two sides when their residual < tol and each EvalResult converged."""
    if isinstance(sides, HilbertForm):
        return sides.lhs, sides.rhs, sides.holds and sides.converged
    lhs, rhs = (s.value if isinstance(s, EvalResult) else s for s in sides)
    ok = _residual(lhs, rhs) < tol and all(
        s.converged for s in sides if isinstance(s, EvalResult))
    return lhs, rhs, ok


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


def report_csv(report: ConformanceReport) -> str:
    """The report's CSV text: a header and one row per case."""
    lines = ["identity_id,variant,point_index,params,lhs,rhs,residual,status"]
    for c in report.cases:
        lines.append(",".join([
            c.identity_id, c.variant, str(c.point_index),
            '"' + c.params + '"', fmt17(c.lhs), fmt17(c.rhs),
            fmt17(c.residual), c.status,
        ]))
    return "\n".join(lines) + "\n"


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
