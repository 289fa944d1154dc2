"""Extended r-variable hypergeometric functions of types D and A.

Type D shares one beta-ratio coefficient per total degree; type A carries
independent per-axis beta ratios under a joint Pochhammer factor.  At r = 2
they are the first and second Appell functions: ``appell`` evaluates those
by calling the private type D and type A engines here.
Alongside the series: the single Euler integral for type D, the r-fold
product integral for type A, unit-argument and equal-argument reductions, a
weighted product integral over an arbitrary interval, a Laplace-type
product representation, the single-integral form whose integrand is a
product of confluent-level factors, and the partial-series split.  The
product integral and the last two forms are callers of the product-grid
engine in ``quadrature``, at r = 1 and 2 alike.
Under "auto" type D takes its single Euler integral, and type A at r <= 2
its product grid, at every argument; type A at r >= 3 has no grid and sums
its series inside the series edge.

The multi-contour Mellin-Barnes representations of these functions are
recorded here for reference only and are not evaluated numerically; the
one-dimensional contour in the `mellin` module is the numeric stand-in.
Type B/C analogues admit no such extension and are out of scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .corefn import beta_classical, gammaln_real
from . import hyp
from .extbeta import (
    RegPair,
    _beta_norm,
    _exp_norm,
    _kernel_integral,
    check_beta_domain,
    safe_theta_product,
    unit_grid_kernel,
)
from .hyp import (
    _BLOCK,
    PfqSpec,
    _CoeffLadder,
    _geometric_tail,
    _majorant_step,
    _pfq_sum,
    ext_2f1,
    pfq_series_vector,
    pfq_spec,
)
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import GRID_LEVELS, _refine_grid, grid_axis, grid_product
from .results import DomainError, EvalResult, memoized, refuse_non_finite

MAX_VARIABLES = 4  # series cap; iterated integrals are checked for r <= 2
# sum_j |x_j| below which auto sums the type A series at r >= 3, which has
# no product grid
_SERIES_EDGE = 0.95
# the share of a half-line refinement's tol that its cut may drop
_CUT_SHARE = 2.0 ** -10


def _use_series(method: str, inside: bool = False) -> bool:
    """Whether an evaluator sums its series: for method "series", or for
    "auto" when the arguments lie ``inside`` the series edge.  Type D, and
    type A at r <= 2, pass no edge: the single Euler integral and the
    product grid admit every input their series admits, and cost less."""
    if method not in ("auto", "series", "integral"):
        raise DomainError(f"unknown method {method!r}")
    return method == "series" or (method == "auto" and inside)


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

    def __post_init__(self):
        refuse_non_finite("parameters and arguments", self.alpha,
                          *self.betas, *self.gammas, *self.xs)
        if not 1 <= self.r <= MAX_VARIABLES:
            raise DomainError(f"need 1 <= r <= {MAX_VARIABLES}")

    @property
    def r(self) -> int:
        return len(self.betas)

    def validate_fd(self) -> None:
        if len(self.gammas) != 1 or len(self.xs) != self.r:
            raise DomainError("type D needs one gamma and r arguments")
        if not (self.gammas[0] > self.alpha > 0.0):
            raise DomainError("type D needs gamma > alpha > 0")

    def validate_fa(self) -> None:
        if len(self.gammas) != self.r or len(self.xs) != self.r:
            raise DomainError("type A needs r gammas and r arguments")
        for b, g in zip(self.betas, self.gammas):
            if not (g > b > 0.0):
                raise DomainError("type A needs gamma_j > beta_j > 0")


def _ratio_ladder(kernel: KernelSpec, reg: RegPair, alpha: float,
                  gamma: float) -> _CoeffLadder:
    """Beta-ratio coefficients B*(alpha+N, gamma-alpha)/B(alpha, gamma-alpha)."""
    return _CoeffLadder(PfqSpec(((alpha, 1),), (gamma,), reg, kernel))


def fd_series(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Type D series truncated by total degree.

    One batched beta-ratio family per total degree serves every index
    vector on that diagonal.
    """
    p.validate_fd()
    return _fd_series(p, tol)


def _fd_series(p: LauricellaParams, tol: float) -> EvalResult:
    """Sum of weight(N) coeff(N) up to the first N where the majorant's
    ``_geometric_tail`` times |coeff(N)| is small, a coefficient block at a
    time; the error adds |weight(N)| coefficient errors, and that tail."""
    diag, majorant, steps = _fd_diagonals(p)
    ladder = _ratio_ladder(p.kernel, p.reg, p.alpha, p.gammas[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(_BLOCK, diag.size + _BLOCK, _BLOCK):
            ladder.ensure(hi)
            coeffs = ladder.coeffs[:diag.size]
            sums = np.cumsum(diag[:coeffs.size] * coeffs)
            tails, small = _geometric_tail(
                majorant[:coeffs.size] * np.abs(coeffs), steps[:coeffs.size],
                sums)
            if small.any():
                break
        rows = int(small.argmax()) + 1 if small.any() else coeffs.size
        err = np.cumsum(np.abs(diag[:rows]) * ladder.cerrs[:rows])[-1]
    if not math.isfinite(sums[rows - 1]):
        raise DomainError("type D series value out of double range")
    return EvalResult.of(float(sums[rows - 1]), rows, "series",
                         bool(small.any()) and ladder.ok, coefficients=err,
                         truncation=tails[rows - 1])


def _fd_diagonals(p: LauricellaParams):
    """(weights, majorant, steps): the type D weights by total degree N,
    the t^N coefficients of prod_j (1 - x_j t)^-beta_j, with their majorant
    (big)_N rho^N / N! (big = sum_j |beta_j|, rho = max_j |x_j|) and its
    ``_majorant_step``s.  The beta ratios lie in (0, 1], so the weights
    stop at the first N where the majorant's ``_geometric_tail`` is small
    against 1, or at ``hyp.SERIES_CAP``.  The majorant is formed on _BLOCK
    rows, twice as many while none is small: its running product, steps
    and tails are elementwise, so each row has the bits of a full-length
    form."""
    rho = max(abs(x) for x in p.xs)
    if rho >= 1.0:
        raise DomainError("series needs max_j |x_j| < 1")
    big = sum(abs(b) for b in p.betas)
    size = _BLOCK
    while True:
        n = np.arange(size, dtype=float)
        with np.errstate(over="ignore"):
            majorant = np.cumprod(np.concatenate(
                ([1.0], (big + n[:-1]) * rho / n[1:])))
        steps = _majorant_step(big, n, rho)
        small = _geometric_tail(majorant, steps, 0.0)[1]
        if small.any() or size == hyp.SERIES_CAP:
            break
        size = min(2 * size, hyp.SERIES_CAP)
    rows = int(small.argmax()) + 1 if small.any() else hyp.SERIES_CAP
    n, diag = n[:rows - 1], np.ones(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, x in zip(p.betas, p.xs):
            axis = np.cumprod(np.concatenate(([1.0], (b + n) * x / (n + 1.0))))
            # an axis ends before its first entry below the normal range: what
            # follows cannot reach the sum, and subnormal products are slow
            cut = np.argmax(np.abs(axis) < np.finfo(float).tiny) or None
            diag = np.convolve(diag, axis[:cut])[:rows]
    return (np.concatenate([diag, np.zeros(rows - diag.size)]),
            majorant[:rows], steps[:rows])


def fd_integral(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Single kernel-weighted Euler integral with the product factor.

    Unit arguments fold their factor into the right-endpoint power, so the
    all-unit summation case stays integrable whenever the combined exponent
    (or the right-endpoint regularization) allows it.
    """
    p.validate_fd()
    return _fd_integral(p, tol)


def _fd_integral(p: LauricellaParams, tol: float) -> EvalResult:
    if any(x > 1.0 for x in p.xs):
        raise DomainError("integral needs every x_j <= 1")
    reg, kern = p.reg, p.kernel
    gamma = p.gammas[0]
    width_eff = gamma - p.alpha - sum(b for b, x in zip(p.betas, p.xs)
                                      if x == 1.0)
    check_beta_domain(kern, p.alpha, width_eff, reg)

    def powexp(t, tc, lt, ltc):
        out = (p.alpha - 1.0) * lt + (gamma - p.alpha - 1.0) * ltc
        for b, x in zip(p.betas, p.xs):
            if x == 1.0:
                out = out - b * ltc
            else:
                out = out - b * np.log1p(-x * t)
        return out

    return _kernel_integral(kern, reg, powexp, tol,
                            _beta_norm(((p.alpha, gamma),)))


def fd_eval(p: LauricellaParams, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """The single Euler integral; the series only for method "series"."""
    if _use_series(method):
        return fd_series(p, tol)
    return fd_integral(p, tol)


def fd_summation_unit(p: LauricellaParams,
                      tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Type D at all-unit arguments against the closed regularized-beta form."""
    p.validate_fd()
    gamma = p.gammas[0]
    width = gamma - p.alpha - sum(p.betas)  # fd_integral checks its range
    unit = LauricellaParams(p.alpha, p.betas, p.gammas, (1.0,) * p.r,
                            p.reg, p.kernel)
    return fd_integral(unit, tol), _kernel_integral(
        p.kernel, p.reg,
        lambda t, tc, lt, ltc: (p.alpha - 1.0) * lt + (width - 1.0) * ltc,
        tol * 1e-2, _beta_norm(((p.alpha, gamma),)), method="quadrature")


def fd_equal_arguments(p: LauricellaParams,
                       tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Equal arguments collapse onto the Gauss-level function.

    The summed numerator parameters land in the Pochhammer slot and alpha in
    the beta-ladder slot (the bracket ordering matters for the extension).
    """
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

    def __post_init__(self):
        refuse_non_finite("interval product parameters", self.a_lo,
                          self.b_hi, self.alpha, self.beta,
                          *itertools.chain(*self.factors))
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
    span = tp.b_hi - tp.a_lo
    kern = tp.kernel
    scaled = RegPair(tp.reg.b / span, tp.reg.d / span)

    def powexp(t, tc, lt, ltc):
        out = (tp.alpha - 1.0) * lt + (tp.beta - 1.0) * ltc
        for fj, gj, lam in tp.factors:
            out = out + lam * np.log(fj * (tp.a_lo + span * t) + gj)
        return out

    logs = [(tp.alpha + tp.beta - 1.0) * math.log(span)] + [
        lam * math.log(tp.a_lo * fj + gj) for fj, gj, lam in tp.factors]
    norm = _exp_norm(logs[0], logs[:1], "span**(alpha + beta - 1)",
                     f"span = {span:.6g}")
    const = beta_classical(tp.alpha, tp.beta) * _exp_norm(
        sum(logs), logs, "span and factor powers", tp)[0]
    lhs = _kernel_integral(kern, scaled, powexp, tol, norm,
                           method="quadrature")

    xs = tuple(-span * fj / (tp.a_lo * fj + gj) for fj, gj, _ in tp.factors)
    lams = tuple(-lam for _f, _g, lam in tp.factors)
    fd = fd_eval(LauricellaParams(tp.alpha, lams, (tp.alpha + tp.beta,), xs,
                                  scaled, kern), tol)
    return lhs, fd.scaled(const)


def _majorant_tails(t, w, powers, rates) -> list[np.ndarray]:
    """Axis j's weighted majorant w t^powers[j] e^(-rates[j] t) on the
    half-line nodes t with weights w, summed over each node and the ones
    after it."""
    with np.errstate(over="ignore", under="ignore"):
        lt = np.log(t)
        return [np.cumsum((w * np.exp(pw * lt - rate * t))[::-1])[::-1]
                for pw, rate in zip(powers, rates)]


def _others(tails, j: int) -> float:
    """The product of the full majorant sums of the axes other than j."""
    return math.prod(float(tail[0]) for i, tail in enumerate(tails) if i != j)


def _halfline_ends(kern: KernelSpec, majorant, budget: float, cut: float):
    """(ends, majorant): where each half-line axis of a product integrand
    ends, and the majorant that bounds what it drops, or None.

    ``majorant`` = (powers, rates) bounds the integrand by prod_j
    t^powers[j] e^(-rates[j] t) when the kernel maps (-inf, 0] into [0, 1]
    (``KernelSpec.unit_range``): under ``validate_fd`` and ``validate_fa`` a
    confluent factor at w is then a mean of e^(w s) under a measure of mass
    at most 1 on [0, 1], so at most e^max(w, 0).  Axis j ends at the first
    node of the first level that may stop where the weighted majorant's sum
    from there, times the other axes' full sums, is at most budget / r;
    fixed there, each level's coarse sum is the level before's own.  No
    axis ends past the overflow ``cut``, where any other kernel ends them.
    """
    ends = [cut] * len(majorant[0])
    if not kern.unit_range:
        return ends, None
    t, w, _, _ = grid_axis(GRID_LEVELS[0], math.inf)
    tails = _majorant_tails(t, w, *majorant)
    for j, tail in enumerate(tails):
        k = np.count_nonzero(tail * _others(tails, j) > budget / len(tails))
        if k < tail.size:
            ends[j] = min(float(t[k]), cut)
    return ends, majorant


def _halfline_cut(level: int, ends, majorant, top: float = math.inf):
    """(axes, bound): the ``grid_axis`` of ``level`` before each end
    (``_halfline_ends``; the unit grid on (0, top) for a finite top), and
    the majorant's bound on the trapezoid sum of the products they drop, 0
    without one, not larger on a finer level than the ends' own where the
    transformed majorant decreases past the ends."""
    axes = [grid_axis(level, top, e) for e in ends]
    if majorant is None:
        return axes, 0.0
    tails = _majorant_tails(*grid_axis(level, math.inf)[:2], *majorant)
    return axes, sum((_others(tails, j) * float(tail[axis[0].size])
                      for j, (tail, axis) in enumerate(zip(tails, axes))
                      if axis[0].size < tail.size), 0.0)


def fd_laplace_product(p: LauricellaParams,
                       tol: float = 1e-8) -> tuple[EvalResult, EvalResult]:
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
    # the right side takes Gamma(beta_j); a beta_j <= 0 also leaves the
    # outer weight t^(beta_j - 1) not integrable at 0
    if not all(b > 0.0 for b in p.betas):
        raise DomainError("Laplace product needs beta_j > 0")
    lg = [gammaln_real(b) for b in p.betas]
    pref = _exp_norm(sum(lg), lg, "prod_j Gamma(beta_j)",
                     f"beta = {p.betas}")[0]
    inner = pfq_spec(p.kernel, (p.alpha,), (p.gammas[0],), p.reg)
    shared = _CoeffLadder(inner)
    # past the cut the e^-t weight is 0; stopping where the argument sum
    # reaches 700 also keeps the confluent factor finite (no 0 * inf)
    cut = min(750.0 / (1.0 - max(p.xs)), 700.0 / max(sum(p.xs), 1e-300))
    # the integrand is at most prod_j t^(beta_j - 1) e^-((1 - x_j) t), as
    # |Phi(w)| <= e^max(w, 0) (``_halfline_ends``)
    ends, majorant = _halfline_ends(
        p.kernel, ([b - 1.0 for b in p.betas], [1.0 - x for x in p.xs]),
        _CUT_SHARE * tol, cut)

    def factor(w):
        fv, ierr = pfq_series_vector(inner, w.ravel(), ladder=shared)
        w[...] = fv.reshape(w.shape)
        return ierr.reshape(w.shape)

    def grid_sum(level):
        axes, dropped = _halfline_cut(level, ends, majorant)
        with np.errstate(over="ignore", under="ignore"):
            es = [np.exp((b - 1.0) * np.log(t) - t)
                  for b, (t, *_) in zip(p.betas, axes)]
            sums, nodes, (modulus, parts) = grid_product(
                [(t, w * e, c * e) for (t, w, c, _), e in zip(axes, es)],
                p.xs, factor)
        return sums, nodes, (modulus, {**parts, "dropped": dropped})

    return _refine_grid(grid_sum, tol), fd_series(p, tol).scaled(pref)


def multinomial_exponential_identity(xs, terms: int = 24) -> tuple[float, float]:
    """Constant-coefficient collapse of the multinomial series to exp(sum):
    the product of the axes' x^m / m!, summed over total degrees below
    ``terms``."""
    rhs = _exp_norm(sum(xs), xs, "exp(sum_j x_j)", f"x = {xs}")[0]
    total, m = np.ones(1), np.arange(1, terms)
    for x in xs:
        axis = np.cumprod(np.concatenate(([1.0], x / m)))
        total = np.convolve(total, axis)[:terms]
    return float(total.sum()), rhs


@memoized
def fa_series(p: LauricellaParams, tol: float = 1e-10) -> EvalResult:
    """Type A series with per-axis batched beta ratios, its axes in
    ``_axis_order``."""
    p.validate_fa()
    return _fa_series(_axis_order(p), tol)


def _axis_order(p: LauricellaParams) -> LauricellaParams:
    """The axis order of both type A sums (``fa_series`` and the right side
    of ``fa_partial_series``): at r >= 3 the axes with x_j >= 0 go first, a
    stable sort (the function is symmetric in its (beta_j, gamma_j, x_j)).
    Leading negative axes leave degree weights of alternating sign, which a
    later axis's merge cancels (1e-12 relative at alpha = 5, beta_j = 3,
    gamma_j = 3.5, x = (-0.3, -0.3, 0.3))."""
    if p.r < 3:
        return p
    order = sorted(range(p.r), key=lambda j: p.xs[j] < 0.0)
    pick = lambda v: tuple(v[j] for j in order)
    return replace(p, betas=pick(p.betas), gammas=pick(p.gammas),
                   xs=pick(p.xs))


def _fa_series(p: LauricellaParams, tol: float) -> EvalResult:
    """Sum over the total degree N of the first r - 1 axes of weight(N)
    times the Gauss-level series in x_r with first parameter alpha + N: one
    engine call with a column per N, and the value the sum of the columns.
    Terms out of double range are formed silently, and a value that is not
    finite is a ``DomainError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weights, err, done = _outer_terms(p)
        cols, col_errs, rows, cols_done = _last_axis_sum(p, weights)
        value = float(cols.sum())
    if not math.isfinite(value):
        raise DomainError("type A series value out of double range")
    return EvalResult.of(value, rows * weights.size, "series",
                         done and cols_done, truncation=err,
                         inner=col_errs.sum())


def _outer_terms(p: LauricellaParams):
    """The type A sum over its first r - 1 axes, one weight per total degree.

    Returns (weights, err, done): weights[N] sums (alpha)_N prod_j c_j[m_j]
    x_j^m_j / m_j! over the index vectors of total degree N; their error
    bound; and whether every row was cut before ``hyp.SERIES_CAP`` terms and
    every ladder converged.  At r = 1 it is weights = [1].

    Axis j extends each weight by a row, a running product from it whose
    factors depend on (N, m) alone, and adds the kept entries to the
    weights of their new degrees.  The axes after j multiply term m of a
    row from degree N by at most (1 - rest)^-(|alpha| + N + m), rest being
    the sum of their |x_i| (the beta ratios lie in (0, 1]); that bound is
    formed in logs, and the rest of the row is at most its
    ``_geometric_tail`` with q the ``_majorant_step`` of head |alpha| + N
    at |x_j| / (1 - rest).  A row is cut at its first term whose tail is
    small; a block that leaves a row uncut goes again twice as wide, up to
    ``hyp.SERIES_CAP``.  The error takes the bounds times the coefficient
    errors, and the tails.
    """
    if sum(abs(x) for x in p.xs) >= 1.0:
        raise DomainError("series needs sum_j |x_j| < 1")
    weights, err, done = np.ones(1), 0.0, True
    for j in range(p.r - 1):
        degrees = np.arange(weights.size)
        x = float(p.xs[j])
        grow = 1.0 / (1.0 - sum(abs(v) for v in p.xs[j + 1:]))
        lgrow, xg = math.log(grow), abs(x) * grow
        ladder = _ratio_ladder(p.kernel, p.reg, p.betas[j], p.gammas[j])
        ladder.ensure(1)
        width = min(ladder.coeffs.size, hyp.SERIES_CAP)
        head = abs(p.alpha) + degrees[:, None]
        while True:
            ladder.ensure(width)
            m = np.arange(width)
            row = np.empty((weights.size, width))
            row[:, 0] = weights
            row[:, 1:] = (p.alpha + degrees[:, None] + m[:-1]) * x / m[1:]
            np.cumprod(row, axis=1, out=row)
            coeffs = ladder.coeffs[:width]
            with np.errstate(divide="ignore", over="ignore"):
                bound = np.exp(np.log(np.abs(row)) + (head + m) * lgrow)
            row *= coeffs
            tail, small = _geometric_tail(bound * np.abs(coeffs),
                                          _majorant_step(head, m, xg),
                                          np.cumsum(row, 1))
            ends = small.any(axis=1)
            if ends.all() or width == hyp.SERIES_CAP:
                break
            width = min(2 * width, hyp.SERIES_CAP)
        cut = np.where(ends, small.argmax(axis=1), width - 1)
        keep = m <= cut[:, None]
        err += float((bound * ladder.cerrs[:width])[keep].sum()
                     + tail[np.arange(cut.size), cut].sum())
        done = done and bool(ends.all()) and ladder.ok
        weights = np.bincount((degrees[:, None] + m)[keep], row[keep])
    return weights, err, done


def _last_axis_sum(p: LauricellaParams, weights: np.ndarray):
    """The engine on the last axis: column N is the Gauss-level series with
    first parameter alpha + N and term-0 weight weights[N].  Returns the
    engine's (sums, errs, rows, done), done also requiring the ladder."""
    spec = pfq_spec(p.kernel, (p.alpha, p.betas[-1]), (p.gammas[-1],), p.reg)
    ladder = _ratio_ladder(p.kernel, p.reg, p.betas[-1], p.gammas[-1])
    cols, errs, rows, done = _pfq_sum(
        spec, np.full(weights.size, float(p.xs[-1])), ladder,
        heads=p.alpha + np.arange(weights.size), weights=weights)
    return cols, errs, rows, done and ladder.ok


def fa_eval(p: LauricellaParams, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """The product grid at r <= 2; at r >= 3 the series inside the series
    edge, and the grid's refusal past it; the series for method "series"."""
    if _use_series(method, p.r > 2 and sum(map(abs, p.xs)) < _SERIES_EDGE):
        return fa_series(p, tol)
    return fa_integral(p, tol)


def fa_integral(p: LauricellaParams, tol: float = 1e-10,
                variant: str = "proof") -> EvalResult:
    """r-fold product integral of type A (numeric path for r <= 2).

    The per-axis beta normalizers divide in the proof-consistent form; the
    printed form multiplies them and is kept only for adjudication.
    """
    p.validate_fa()
    return _fa_integral(p, tol, variant)


def _fa_integral(p: LauricellaParams, tol: float, variant: str) -> EvalResult:
    if p.r > 2:
        raise DomainError("iterated integral implemented for r <= 2")
    if sum(max(x, 0.0) for x in p.xs) >= 1.0:
        raise DomainError("integral needs positive parts to sum below 1")
    reg, kern = p.reg, p.kernel
    if variant not in ("proof", "printed"):
        raise DomainError(f"unknown variant {variant!r}")
    norm = _beta_norm(tuple(zip(p.betas, p.gammas)),
                      1.0 if variant == "proof" else -1.0)

    def factor(w):
        np.negative(w, out=w)
        np.log1p(w, out=w)
        np.multiply(-p.alpha, w, out=w)
        np.exp(w, out=w)

    def grid_sum(level):
        t, w, c, tc = grid_axis(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            arg, theta = unit_grid_kernel(kern, reg, level)
            lt, ltc = np.log(t), np.log(tc)
            factors = [safe_theta_product(
                kern, (b - 1.0) * lt + (gam - b - 1.0) * ltc, arg, theta)
                for b, gam in zip(p.betas, p.gammas)]
            return grid_product([(t, w * f, c * f) for f in factors], p.xs,
                                factor)

    return _refine_grid(grid_sum, tol, norm)


def fa_single_integral(
        p: LauricellaParams, tol: float = 1e-8,
        upper: float = math.inf) -> tuple[EvalResult, EvalResult]:
    """Type A as one exponential-weighted integral of confluent products.

    The derivation forces the infinite upper limit; upper=1.0 reproduces the
    bare printed form, which fails numerically and is kept for adjudication.
    Returns (series value, integral value).
    """
    p.validate_fa()
    if sum(abs(x) for x in p.xs) >= 1.0:
        raise DomainError("needs sum_j |x_j| < 1")
    if not upper > 0.0:
        raise DomainError(f"needs upper > 0, got {upper}")
    lg = gammaln_real(p.alpha)
    norm = _exp_norm(-lg, (lg,), "normalisation 1/Gamma(alpha)",
                     f"alpha = {p.alpha:.6g}")
    inners = [pfq_spec(p.kernel, (b,), (g,), p.reg)
              for b, g in zip(p.betas, p.gammas)]
    shared = [_CoeffLadder(spec) for spec in inners]
    # the cut keeps each confluent factor finite (as in fd_laplace_product);
    # the integrand is at most t^(alpha - 1) e^-(room t), as |Phi_j(x_j t)|
    # <= e^(max(x_j, 0) t); a finite upper limit is not cut
    room = 1.0 - sum(max(x, 0.0) for x in p.xs)
    cut = min(750.0 / room, 700.0 / max(max(abs(x) for x in p.xs), 1e-300))
    ends, majorant = _halfline_ends(
        p.kernel, ([p.alpha - 1.0], [room]), _CUT_SHARE * tol / norm[0],
        cut) if math.isinf(upper) else ([upper], None)

    def factor(w):
        # prod_j Phi_j and its error prod_j (|Phi_j| + e_j) - prod_j |Phi_j|
        t, vals, size, spread = w.ravel(), 1.0, 1.0, 0.0
        for spec, x, lad in zip(inners, p.xs, shared):
            fv, ierr = pfq_series_vector(spec, x * t, ladder=lad)
            vals = vals * fv
            spread = spread * (np.abs(fv) + ierr) + size * ierr
            size = size * np.abs(fv)
        w[...] = vals.reshape(w.shape)
        return spread.reshape(w.shape)

    def grid_sum(level):
        ((t, w, c, _),), dropped = _halfline_cut(level, ends, majorant, upper)
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp((p.alpha - 1.0) * np.log(t) - t)
            sums, nodes, (modulus, parts) = grid_product(
                [(t, w * e, c * e)], (1.0,), factor)
        return sums, nodes, (modulus, {**parts, "dropped": dropped})

    return fa_series(p, tol), _refine_grid(grid_sum, tol, norm)


def fa_partial_series(p: LauricellaParams,
                      tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Split off the last axis (in ``_axis_order``) as a Gauss-level factor.

    Each total degree's weight of the outer (r-1)-fold sum multiplies the
    Gauss-level value whose Pochhammer slot is shifted by that degree (one
    engine column per degree)."""
    if p.r < 2:
        raise DomainError("partial series needs r >= 2")
    lhs = fa_series(p, tol)
    p = _axis_order(p)
    weights, err, done = _outer_terms(p)
    gauss, gauss_errs, _rows, gauss_done = _last_axis_sum(
        p, np.ones(weights.size))
    return lhs, EvalResult.of(float((weights * gauss).sum()), weights.size,
                              "series", done and gauss_done, truncation=err,
                              inner=(np.abs(weights) * gauss_errs).sum())
