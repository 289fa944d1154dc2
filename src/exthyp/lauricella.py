"""Extended r-variable hypergeometric functions of types D and A.

Type D shares one beta-ratio coefficient per total degree (the r-variable
analogue of the first Appell function); type A carries independent per-axis
beta ratios under a joint Pochhammer factor (the analogue of the second).
Alongside the series: the single Euler integral for type D, the r-fold
product integral for type A, unit-argument and equal-argument reductions, a
weighted product integral over an arbitrary interval, a Laplace-type
product representation, the single-integral form whose integrand is a
product of confluent-level factors, and the partial-series split.

The multi-contour Mellin-Barnes representations of these functions are
recorded here for reference only and are not evaluated numerically; the
one-dimensional contour in the `mellin` module is the numeric stand-in.
Type B/C analogues admit no such extension and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .appell import _axis_seq, _diagonal_sum, _ratio_ladder, nested_poch_series
from .corefn import beta_classical, gammaln_real
from .extbeta import (
    BetaArgs,
    RegPair,
    check_beta_domain,
    ext_beta,
    safe_theta_product,
    unit_grid_kernel,
    unit_kernel,
)
from .hyp import _CoeffLadder, ext_2f1, pfq_series_vector, pfq_spec
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import (
    MAX_LEVEL,
    halfline_grid,
    integrate_unit_levels,
    unit_grid,
    unit_new_nodes,
)
from .results import DomainError, EvalResult

MAX_VARIABLES = 4  # series cap; iterated integrals are checked for r <= 2


@dataclass(frozen=True)
class LauricellaParams:
    """Parameters of an r-variable function of type D or A.

    ``gammas`` has length 1 for type D and length r for type A.
    """

    alpha: float
    betas: tuple[float, ...]
    gammas: tuple[float, ...]
    xs: tuple[float, ...]
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

    @property
    def r(self) -> int:
        return len(self.betas)

    def validate_fd(self) -> None:
        if self.r < 1 or self.r > MAX_VARIABLES:
            raise DomainError(f"need 1 <= r <= {MAX_VARIABLES}")
        if len(self.gammas) != 1 or len(self.xs) != self.r:
            raise DomainError("type D needs one gamma and r arguments")
        if not (self.gammas[0] > self.alpha > 0.0):
            raise DomainError("type D needs gamma > alpha > 0")

    def validate_fa(self) -> None:
        if self.r < 1 or self.r > MAX_VARIABLES:
            raise DomainError(f"need 1 <= r <= {MAX_VARIABLES}")
        if len(self.gammas) != self.r or len(self.xs) != self.r:
            raise DomainError("type A needs r gammas and r arguments")
        for b, g in zip(self.betas, self.gammas):
            if not (g > b > 0.0):
                raise DomainError("type A needs gamma_j > beta_j > 0")


def fd_series(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Type D series truncated by total degree.

    One batched beta-ratio family per total degree serves every index
    vector on that diagonal.
    """
    p.validate_fd()
    if max(abs(x) for x in p.xs) >= 1.0:
        raise DomainError("series needs max_j |x_j| < 1")
    ladder = _ratio_ladder(p.kernel, p.reg, p.alpha, p.gammas[0])
    state = {"axes": [np.empty(0) for _ in range(p.r)]}

    def coeff_for(hi):
        ladder.ensure(hi)
        return ladder.coeffs, ladder.cerrs

    def axes_for(hi):
        state["axes"] = [_axis_seq(b, x, hi, prev) for b, x, prev
                         in zip(p.betas, p.xs, state["axes"])]
        return state["axes"]

    value, err, n, ok = _diagonal_sum(coeff_for, axes_for, tol)
    return EvalResult(value, err, n, ok, "series")


def fd_integral(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Single kernel-weighted Euler integral with the product factor.

    Unit arguments fold their factor into the right-endpoint power, so the
    all-unit summation case stays integrable whenever the combined exponent
    (or the right-endpoint regularization) allows it.
    """
    p.validate_fd()
    if any(x > 1.0 for x in p.xs):
        raise DomainError("integral needs every x_j <= 1")
    reg, kern = p.reg, p.kernel
    gamma = p.gammas[0]
    width_eff = gamma - p.alpha - sum(b for b, x in zip(p.betas, p.xs)
                                      if x == 1.0)
    check_beta_domain(kern, p.alpha, width_eff, reg)
    norm = math.exp(gammaln_real(gamma) - gammaln_real(p.alpha)
                    - gammaln_real(gamma - p.alpha))

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powexp = ((p.alpha - 1.0) * np.log(t)
                      + (gamma - p.alpha - 1.0) * np.log(tc))
            for b, x in zip(p.betas, p.xs):
                if x == 1.0:
                    powexp = powexp - b * np.log(tc)
                else:
                    powexp = powexp - b * np.log1p(-x * t)
            vals = w * safe_theta_product(kern, powexp,
                                          *unit_kernel(kern, reg, level))
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        s = vals.sum()
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = abs(totals - prev)
        if level >= 3 and err <= tol / norm:
            converged = True
            break
        prev = totals
    return EvalResult(norm * totals, norm * err, nodes, converged,
                      "euler_integral")


def fd_eval(p: LauricellaParams, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    if method == "series":
        return fd_series(p, tol)
    if method == "integral":
        return fd_integral(p, tol)
    if max(abs(x) for x in p.xs) < 0.95:
        return fd_series(p, tol)
    return fd_integral(p, tol)


def fd_summation_unit(p: LauricellaParams,
                      tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Type D at all-unit arguments against the closed regularized-beta form."""
    p.validate_fd()
    gamma = p.gammas[0]
    width = gamma - p.alpha - sum(p.betas)
    if width <= 0.0 and p.reg.is_zero:
        raise DomainError("unit-argument sum needs gamma - alpha - sum(betas) "
                          "> 0 at zero regularization")
    unit = LauricellaParams(p.alpha, p.betas, p.gammas, (1.0,) * p.r,
                            p.reg, p.kernel)
    lhs = fd_integral(unit, tol)
    quot = math.exp(gammaln_real(gamma) - gammaln_real(p.alpha)
                    - gammaln_real(gamma - p.alpha))
    bb = ext_beta(p.kernel, BetaArgs(p.alpha, width), p.reg, tol=tol * 1e-2)
    rhs = EvalResult(quot * bb.value, abs(quot) * bb.abs_err_est,
                     bb.terms_or_nodes, bb.converged, "quadrature")
    return lhs, rhs


def fd_equal_arguments(p: LauricellaParams,
                       tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Equal arguments collapse onto the Gauss-level function.

    The summed numerator parameters land in the Pochhammer slot and alpha in
    the beta-ladder slot (the bracket ordering matters for the extension).
    """
    p.validate_fd()
    xs = set(p.xs)
    if len(xs) != 1:
        raise DomainError("needs all arguments equal")
    x = p.xs[0]
    lhs = fd_eval(p, tol)
    rhs = ext_2f1(p.kernel, sum(p.betas), p.alpha, p.gammas[0], x, p.reg, tol)
    return lhs, rhs


@dataclass(frozen=True)
class IntervalProductParams:
    """Weighted product integral over (a_lo, b_hi).

    Linear factors (f_j t + g_j)**lambda_j against the two-endpoint beta
    weight with endpoint regularization (p, q).
    """

    a_lo: float
    b_hi: float
    alpha: float
    beta: float
    factors: tuple[tuple[float, float, float], ...]  # (f_j, g_j, lambda_j)
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

    def validate(self) -> None:
        if not self.a_lo < self.b_hi:
            raise DomainError("needs a_lo < b_hi")
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError("needs alpha, beta > 0")
        span = self.b_hi - self.a_lo
        for f, g, _lam in self.factors:
            base = self.a_lo * f + g
            if base <= 0.0:
                raise DomainError("needs a_lo f_j + g_j > 0")
            if abs(span * f / base) >= 1.0:
                raise DomainError("needs |span f_j / (a_lo f_j + g_j)| < 1")


def interval_product_integral(tp: IntervalProductParams,
                              tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Both sides: direct quadrature vs the type D closed form.

    The closed form carries the span**(alpha+beta-1) factor the derivation
    produces (the bare statement omits it).
    """
    tp.validate()
    span = tp.b_hi - tp.a_lo
    reg, kern = tp.reg, tp.kernel
    scaled = RegPair(tp.reg.b / span, tp.reg.d / span)

    def f(level):
        t, tc, _ = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powexp = (tp.alpha - 1.0) * np.log(t) + (tp.beta - 1.0) * np.log(tc)
            for fj, gj, lam in tp.factors:
                powexp = powexp + lam * np.log(fj * (tp.a_lo + span * t) + gj)
            return safe_theta_product(kern, powexp,
                                      *unit_kernel(kern, scaled, level))

    pref = span ** (tp.alpha + tp.beta - 1.0)
    q = integrate_unit_levels(f, tol / pref)
    lhs = EvalResult(pref * q.value, pref * q.abs_err_est, q.nodes_used,
                     q.converged, "quadrature")

    xs = tuple(-span * fj / (tp.a_lo * fj + gj) for fj, gj, _ in tp.factors)
    lams = tuple(-lam for _f, _g, lam in tp.factors)
    fd = fd_eval(LauricellaParams(tp.alpha, lams, (tp.alpha + tp.beta,), xs,
                                  scaled, kern), tol)
    const = pref * beta_classical(tp.alpha, tp.beta)
    for fj, gj, lam in tp.factors:
        const *= (tp.a_lo * fj + gj) ** lam
    rhs = EvalResult(const * fd.value, abs(const) * fd.abs_err_est,
                     fd.terms_or_nodes, fd.converged, fd.method)
    return lhs, rhs


def fd_laplace_product(p: LauricellaParams, tol: float = 1e-8,
                       max_level: int = 8) -> tuple[EvalResult, EvalResult]:
    """Laplace-type product integral against the type D series (r <= 2).

    The integrand couples the axes only through the confluent-level factor
    at the weighted argument sum, whose series coefficients are shared
    across the whole product grid.
    """
    p.validate_fd()
    if p.r > 2:
        raise DomainError("iterated half-line check implemented for r <= 2")
    if any(not 0.0 <= x < 1.0 for x in p.xs):
        raise DomainError("needs 0 <= x_j < 1 for integrability")
    inner = pfq_spec(p.kernel, (p.alpha,), (p.gammas[0],), p.reg)
    shared = _CoeffLadder(inner, tol)
    cut = 750.0 / (1.0 - max(p.xs))

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    inner_err = 0.0
    for level in range(2, max_level + 1):
        g = halfline_grid(level)
        t, wt = g.nodes, g.weights
        keep = t < cut
        t, wt = t[keep], wt[keep]
        with np.errstate(over="ignore", under="ignore"):
            if p.r == 1:
                wsum = p.xs[0] * t
                fv, ierr = pfq_series_vector(inner, wsum, tol, ladder=shared)
                vals = wt * np.exp((p.betas[0] - 1.0) * np.log(t) - t) * fv
                s = float(vals.sum())
            else:
                wa = wt * np.exp((p.betas[0] - 1.0) * np.log(t) - t)
                wb = wt * np.exp((p.betas[1] - 1.0) * np.log(t) - t)
                wsum = p.xs[0] * t[:, None] + p.xs[1] * t[None, :]
                fv, ierr = pfq_series_vector(inner, wsum.ravel(), tol,
                                             ladder=shared)
                s = float(wa @ fv.reshape(wsum.shape) @ wb)
            inner_err = max(inner_err, ierr)
        nodes += t.size ** p.r
        if totals is None:
            totals, prev = s, s
        else:
            err = abs(s - prev)
            totals, prev = s, s
        if level >= 4 and err <= tol:
            converged = True
            break
    lhs = EvalResult(totals, err + inner_err, nodes, converged,
                     "euler_integral")
    series = fd_series(p, tol)
    pref = math.exp(sum(gammaln_real(b) for b in p.betas))
    rhs = EvalResult(pref * series.value, pref * series.abs_err_est,
                     series.terms_or_nodes, series.converged, "series")
    return lhs, rhs


def multinomial_exponential_identity(xs, terms: int = 24) -> tuple[float, float]:
    """Constant-coefficient collapse of the multinomial series to exp(sum)."""
    r = len(xs)
    total = 0.0

    def rec(j, left, coeff):
        nonlocal total
        if j == r:
            total += coeff
            return
        fac = 1.0
        for m in range(left):
            rec(j + 1, left - m, coeff * fac)
            fac = fac * xs[j] / (m + 1)

    rec(0, terms, 1.0)
    return total, math.exp(sum(xs))


def fa_series(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Type A series with per-axis batched beta ratios."""
    p.validate_fa()
    if sum(abs(x) for x in p.xs) >= 1.0:
        raise DomainError("series needs sum_j |x_j| < 1")
    ladders = [_ratio_ladder(p.kernel, p.reg, b, g)
               for b, g in zip(p.betas, p.gammas)]
    return nested_poch_series(p.alpha, ladders, list(p.xs), tol)


def fa_integral(p: LauricellaParams, tol: float = 1e-10,
                max_level: int = 9, variant: str = "proof") -> EvalResult:
    """r-fold product integral of type A (numeric path for r <= 2).

    The per-axis beta normalizers divide in the proof-consistent form; the
    printed form multiplies them and is kept only for adjudication.
    """
    p.validate_fa()
    if p.r > 2:
        raise DomainError("iterated integral implemented for r <= 2")
    if sum(max(x, 0.0) for x in p.xs) >= 1.0:
        raise DomainError("integral needs positive parts to sum below 1")
    reg, kern = p.reg, p.kernel
    lognorm = sum(gammaln_real(g) - gammaln_real(b) - gammaln_real(g - b)
                  for b, g in zip(p.betas, p.gammas))
    norm = math.exp(lognorm) if variant == "proof" else math.exp(-lognorm)

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(2, max_level + 1):
        g = unit_grid(level)
        t, tc, wt = g.nodes, g.complements, g.weights
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            arg, theta = unit_grid_kernel(kern, reg, level)
            axes = []
            for b, gam in zip(p.betas, p.gammas):
                powexp = ((b - 1.0) * np.log(t)
                          + (gam - b - 1.0) * np.log(tc))
                axes.append(wt * safe_theta_product(kern, powexp, arg, theta))
            if p.r == 1:
                s = float(axes[0] @ np.exp(
                    -p.alpha * np.log1p(-p.xs[0] * t)))
            else:
                s = 0.0
                for i0 in range(0, t.size, 512):
                    blk = slice(i0, min(i0 + 512, t.size))
                    m = np.exp(-p.alpha * np.log1p(
                        -(p.xs[0] * t[blk][:, None] + p.xs[1] * t[None, :])))
                    s += float(axes[0][blk] @ m @ axes[1])
        nodes += t.size ** p.r
        if totals is None:
            totals, prev = s, s
        else:
            err = abs(s - prev)
            totals, prev = s, s
        if level >= 4 and err <= tol / norm:
            converged = True
            break
    return EvalResult(norm * totals, norm * err, nodes, converged,
                      "euler_integral")


def fa_single_integral(p: LauricellaParams, tol: float = 1e-8,
                       upper: float = math.inf,
                       max_level: int = 9) -> tuple[EvalResult, EvalResult]:
    """Type A as one exponential-weighted integral of confluent products.

    The derivation forces the infinite upper limit; upper=1.0 reproduces the
    bare printed form, which fails numerically and is kept for adjudication.
    Returns (series value, integral value).
    """
    p.validate_fa()
    if sum(abs(x) for x in p.xs) >= 1.0:
        raise DomainError("needs sum_j |x_j| < 1")
    inners = [pfq_spec(p.kernel, (b,), (g,), p.reg)
              for b, g in zip(p.betas, p.gammas)]
    shared = [_CoeffLadder(spec, tol) for spec in inners]
    cut = 750.0 / (1.0 - sum(max(x, 0.0) for x in p.xs))
    norm = math.exp(-gammaln_real(p.alpha))

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    inner_err = 0.0
    for level in range(2, max_level + 1):
        if math.isinf(upper):
            g = halfline_grid(level)
            t, wt = g.nodes, g.weights
            keep = t < cut
            t, wt = t[keep], wt[keep]
        else:
            g = unit_grid(level)
            t, wt = g.nodes * upper, g.weights * upper
        with np.errstate(over="ignore", under="ignore"):
            vals = wt * np.exp((p.alpha - 1.0) * np.log(t) - t)
            for spec, x, lad in zip(inners, p.xs, shared):
                fv, ierr = pfq_series_vector(spec, x * t, tol, ladder=lad)
                inner_err = max(inner_err, ierr)
                vals = vals * fv
            s = float(vals.sum())
        nodes += t.size
        if totals is None:
            totals, prev = s, s
        else:
            err = abs(s - prev)
            totals, prev = s, s
        if level >= 4 and err <= tol / norm:
            converged = True
            break
    integral = EvalResult(norm * totals, norm * (err + inner_err), nodes,
                          converged, "euler_integral")
    series = fa_series(p, tol)
    return series, integral


def fa_partial_series(p: LauricellaParams,
                      tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Split off the last axis as a Gauss-level factor.

    The outer (r-1)-fold sum shifts the Pochhammer slot of the inner
    Gauss-level value by the outer total degree; the inner beta-ratio
    family is shared across all outer terms.
    """
    p.validate_fa()
    if p.r < 2:
        raise DomainError("partial series needs r >= 2")
    lhs = fa_series(p, tol)
    ladders = [_ratio_ladder(p.kernel, p.reg, b, g)
               for b, g in zip(p.betas[:-1], p.gammas[:-1])]
    inner = _ratio_ladder(p.kernel, p.reg, p.betas[-1], p.gammas[-1])
    xr = p.xs[-1]

    def gauss_at(a_shift: float) -> float:
        # inner Gauss-level series with shared coefficients
        s = 0.0
        w = 1.0
        m = 0
        while m < 2048:
            inner.ensure(m + 1)
            term = w * inner.coeffs[m]
            s += term
            if abs(term) < 1e-16 * (1.0 + abs(s)):
                break
            w = w * (a_shift + m) * xr / (m + 1)
            m += 1
        return s

    state = {"total": 0.0, "count": 0}

    def rec(j, a_shift, w):
        if j == p.r - 1:
            state["total"] += w * gauss_at(a_shift)
            state["count"] += 1
            return
        acc = w
        m = 0
        small = 0
        while m < 2048:
            ladders[j].ensure(m + 1)
            contrib = acc * ladders[j].coeffs[m]
            rec(j + 1, a_shift + m, contrib)
            if abs(contrib) < 1e-17 * (1.0 + abs(state["total"])):
                small += 1
                if small >= 3:
                    return
            else:
                small = 0
            acc = acc * (a_shift + m) * p.xs[j] / (m + 1)
            m += 1

    rec(0, p.alpha, 1.0)
    rhs = EvalResult(state["total"], 1e-14 * (1.0 + abs(state["total"])),
                     state["count"], True, "series")
    return lhs, rhs
