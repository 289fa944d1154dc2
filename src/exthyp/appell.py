"""Extended two-variable hypergeometric functions (first and second kind).

The first kind is the r-variable type D function at r = 2, and the second
kind the type A function at r = 2, so their series and Euler-type integrals
are one call each to the type D and type A engines of ``lauricella``.  This
module adds what is particular to two variables: argument transformations
with printed/proof variant pairs, parameter-shift recursions, the
single-integral reduction of the second kind, and the finite-sum expansion
into Gauss-level values.  Under "auto" both kinds integrate at every
argument, the first by its single Euler integral and the second by its
product grid; the series run for method "series" and in the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extbeta import RegPair, _beta_norm, _kernel_integral
from .hyp import (
    _CoeffLadder,
    _shift_sums,
    ext_2f1,
    pfq_series_vector,
    pfq_spec,
)
from .kernel import EXP_VARIANT, KernelSpec
from .lauricella import (
    LauricellaParams,
    _fa_integral,
    _fa_series,
    _fd_integral,
    _fd_series,
    _use_series,
)
from .results import DomainError, EvalResult, memoized, refuse_non_finite


@dataclass(frozen=True)
class AppellParams:
    """Parameters shared by both two-variable functions.

    ``gamma2`` is ignored by the first-kind function, so it may stay NaN;
    the second kind checks it in the type A parameters it builds.  Each
    kind is validated as the r = 2 record it builds (``_as_fd``,
    ``_as_fa``).
    """

    alpha: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float = math.nan
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

    def __post_init__(self):
        refuse_non_finite("parameters", self.alpha, self.beta1, self.beta2,
                          self.gamma1)


def _as_fd(p: AppellParams, x: float, y: float) -> LauricellaParams:
    """The first-kind function as the type D function at r = 2, validated."""
    q = LauricellaParams(p.alpha, (p.beta1, p.beta2), (p.gamma1,), (x, y),
                         p.reg, p.kernel)
    q.validate_fd()
    return q


def _as_fa(p: AppellParams, x: float, y: float) -> LauricellaParams:
    """The second-kind function as the type A function at r = 2, validated."""
    q = LauricellaParams(p.alpha, (p.beta1, p.beta2), (p.gamma1, p.gamma2),
                         (x, y), p.reg, p.kernel)
    q.validate_fa()
    return q


@memoized
def f1_series(p: AppellParams, x: float, y: float,
              tol: float = 1e-10) -> EvalResult:
    """Double series of the first-kind function, truncated by total degree."""
    return _fd_series(_as_fd(p, x, y), tol)


def f1_integral(p: AppellParams, x: float, y: float,
                tol: float = 1e-10) -> EvalResult:
    """Single kernel-weighted Euler integral of the first-kind function."""
    q = _as_fd(p, x, y)
    if not (x < 1.0 and y < 1.0):
        raise DomainError("integral needs x < 1 and y < 1")
    return _fd_integral(q, tol)


@memoized
def f1_eval(p: AppellParams, x: float, y: float, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """The single Euler integral; the series only for method "series"."""
    if _use_series(method):
        return f1_series(p, x, y, tol)
    return f1_integral(p, x, y, tol)


def f1_transform(p: AppellParams, x: float, y: float, tol: float = 1e-10,
                 variant: str = "proof") -> tuple[EvalResult, EvalResult]:
    """Both sides of the argument map (x, y) -> (x/(x-1), y/(y-1)).

    The right side carries (1-x)^-beta1 (1-y)^-beta2 and the swapped reg
    pair.  The proof-derived variant replaces the first parameter by
    gamma1 - alpha; the printed variant keeps it.  Outside x, y < 1 the
    left side's integral refuses the arguments.
    """
    if variant == "proof":
        alpha = p.gamma1 - p.alpha
    elif variant == "printed":
        alpha = p.alpha
    else:
        raise DomainError(f"unknown variant {variant!r}")
    lhs = f1_eval(p, x, y, tol)
    pref = (1.0 - x) ** -p.beta1 * (1.0 - y) ** -p.beta2
    mapped = AppellParams(alpha, p.beta1, p.beta2, p.gamma1, p.gamma2,
                          p.reg.swapped(), p.kernel)
    rhs = f1_eval(mapped, x / (x - 1.0), y / (y - 1.0), tol)
    return lhs, rhs.scaled(pref)


def f2_series(p: AppellParams, x: float, y: float,
              tol: float = 1e-10) -> EvalResult:
    """Double series of the second-kind function."""
    return _fa_series(_as_fa(p, x, y), tol)


def f2_integral(p: AppellParams, x: float, y: float,
                tol: float = 1e-10) -> EvalResult:
    """Product-grid double integral of the second-kind function."""
    return _fa_integral(_as_fa(p, x, y), tol, "proof")


@memoized
def f2_eval(p: AppellParams, x: float, y: float, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """The product-grid double integral; the series only for method
    "series"."""
    if _use_series(method):
        return f2_series(p, x, y, tol)
    return f2_integral(p, x, y, tol)


def f2_single_integral(p: AppellParams, x: float, y: float,
                       tol: float = 1e-10) -> EvalResult:
    """One-dimensional reduction: outer beta weight, inner Gauss-level value.

    The inner argument y/(1 - x t) must stay inside (-1, 1) on the path.
    The inner series shares one coefficient ladder across the refinement
    levels; its coefficients do not depend on the level, so the values are
    those of a fresh ladder per level.
    """
    _as_fa(p, x, y)
    wmax = abs(y) / (1.0 - x) if x > 0.0 else abs(y)
    if not (x < 1.0 and wmax < 1.0):
        raise DomainError("inner argument y/(1-xt) leaves (-1, 1)")
    reg, kern = p.reg, p.kernel
    inner = pfq_spec(kern, (p.alpha, p.beta2), (p.gamma2,), reg)
    ladder = _CoeffLadder(inner)

    def powexp(t, tc, lt, ltc):
        return ((p.beta1 - 1.0) * lt + (p.gamma1 - p.beta1 - 1.0) * ltc
                - p.alpha * np.log1p(-x * t))

    def factor(t):
        return pfq_series_vector(inner, y / (1.0 - x * t), ladder=ladder)

    return _kernel_integral(kern, reg, powexp, tol,
                            _beta_norm(((p.beta1, p.gamma1),)), factor)


_F2_TRANSFORMS = ("x", "y", "xy", "xy_general")


def f2_transform(p: AppellParams, x: float, y: float, which: str,
                 tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Both sides of the selected second-kind transformation.

    "x", "y" and "xy" require equal regularization parameters; the
    "xy_general" form swaps the pair on the right side.
    """
    if which not in _F2_TRANSFORMS:
        raise DomainError(f"unknown transformation {which!r}")
    if which in ("x", "y", "xy") and p.reg.b != p.reg.d:
        raise DomainError("this form needs equal regularization parameters")
    lhs = f2_eval(p, x, y, tol)
    if which == "x":
        pref = (1.0 - x) ** -p.alpha
        q = AppellParams(p.alpha, p.gamma1 - p.beta1, p.beta2, p.gamma1,
                         p.gamma2, p.reg, p.kernel)
        rhs = f2_eval(q, x / (x - 1.0), y / (1.0 - x), tol)
    elif which == "y":
        pref = (1.0 - y) ** -p.alpha
        q = AppellParams(p.alpha, p.beta1, p.gamma2 - p.beta2, p.gamma1,
                         p.gamma2, p.reg, p.kernel)
        rhs = f2_eval(q, x / (1.0 - y), y / (y - 1.0), tol)
    else:
        pref = (1.0 - x - y) ** -p.alpha
        reg = p.reg if which == "xy" else p.reg.swapped()
        q = AppellParams(p.alpha, p.gamma1 - p.beta1, p.gamma2 - p.beta2,
                         p.gamma1, p.gamma2, reg, p.kernel)
        s = 1.0 - x - y
        rhs = f2_eval(q, -x / s, -y / s, tol)
    return lhs, rhs.scaled(pref)


def f2_recursion(p: AppellParams, n: int, which: str, x: float, y: float,
                 tol: float = 1e-10,
                 variant: str = "proof") -> tuple[EvalResult, EvalResult]:
    """Parameter-shift recursions of the second-kind function.

    which = "beta2_shift": shifted second numerator parameter; the proof
    variant lifts the left side's second denominator by 2n (the printed
    finite expansion is only valid for the positive binomial power).
    which = "gamma2_shift": shifted second denominator parameter.
    """
    if which not in ("beta2_shift", "gamma2_shift"):
        raise DomainError(f"unknown recursion {which!r}")
    if n < 0:
        raise DomainError("shift order must be >= 0")
    _as_fa(p, x, y)

    def F2(b2, g2) -> EvalResult:
        q = AppellParams(p.alpha, p.beta1, b2, p.gamma1, g2, p.reg, p.kernel)
        return f2_eval(q, x, y, tol)

    return _shift_sums(F2, p.beta2, p.gamma2, n,
                       "lower" if which == "gamma2_shift" else "upper",
                       variant)


def lemma1_expand(s: int, t: int, u: float, x: float,
                  y: float) -> tuple[float, float]:
    """Partial-fraction split of X^s Y^t with X = 1/(1-ux), Y = 1/(1-uy).

    Returns (direct product, expanded sum); they agree for x != y.
    """
    if s < 1 or t < 1:
        raise DomainError("expansion needs s, t >= 1")
    if x == y:
        raise DomainError("degenerate for x == y")
    alpha = y / (y - x)
    beta = x / (x - y)
    X = 1.0 / (1.0 - u * x)
    Y = 1.0 / (1.0 - u * y)
    lhs = X ** s * Y ** t
    rhs = 0.0
    for j in range(t):
        rhs += (alpha ** s * math.comb(j + s - 1, s - 1) * beta ** j
                * Y ** (t - j))
    for k in range(s):
        rhs += (beta ** t * math.comb(k + t - 1, t - 1) * alpha ** k
                * X ** (s - k))
    return lhs, rhs


def f1_finite_sum(kernel: KernelSpec, s: int, t: int, x: float, y: float,
                  reg: RegPair = RegPair(), tol: float = 1e-10) -> dict:
    """Finite-sum expansion of the first-kind function at unit denominators.

    Returns {"direct", "proof", "printed"}: the direct double series and the
    two variants of the finite combination of Gauss-level values.  The
    printed variant carries (-y)^k in the second sum and a plus sign in the
    closing brace; the derivation forces (-1)^(t+1) y^k and a minus sign.
    """
    if x == y:
        raise DomainError("degenerate for x == y")
    if s < 0 or t < 0:
        raise DomainError("needs s, t >= 0")
    p = AppellParams(1.0, s + 1.0, t + 1.0, 2.0, math.nan, reg, kernel)
    direct = f1_series(p, x, y, tol)

    F = lambda a, w: ext_2f1(kernel, a, 1.0, 2.0, w, reg, tol)
    dyx = y - x
    common = [(math.comb(j + s, s) * y ** (s + 1) * (-x) ** j
               / dyx ** (j + s + 1), F(t - j + 1.0, y)) for j in range(t)]
    ksum = [(math.comb(k + t, t) * x ** (t + 1) * y ** k / dyx ** (k + t + 1),
             F(s - k + 1.0, x)) for k in range(s)]
    fy, fx = F(1.0, y), F(1.0, x)
    brace_coef = (math.comb(s + t, s) * (-1.0) ** t * x ** t * y ** s
                  / dyx ** (s + t + 1))
    nodes = direct.terms_or_nodes

    def finite_sum(ksign, xsign):  # the three sums, then their total
        return EvalResult.combine([
            (1.0, EvalResult.combine(common, nodes)),
            (1.0, EvalResult.combine([(ksign(k) * c, g) for k, (c, g)
                                      in enumerate(ksum)], nodes)),
            (brace_coef, EvalResult.combine([(y, fy), (xsign * x, fx)],
                                            nodes))], nodes)

    return {"direct": direct,
            "proof": finite_sum(lambda k: (-1.0) ** (t + 1), -1.0),
            "printed": finite_sum(lambda k: (-1.0) ** k, 1.0)}
