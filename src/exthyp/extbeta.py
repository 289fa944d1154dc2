"""Kernel-regularized gamma and beta functions.

The regularized beta integral weights t**(alpha-1) (1-t)**(beta-1) on (0,1)
by Theta(-b/t - d/(1-t)); the regularized gamma weights t**(z-1) on the half
line by Theta(-t - b/t).  With the exponential kernel the weight vanishes
superexponentially at the touched endpoints, so the usual positivity
constraints on the exponents can be dropped wherever the adjacent
regularization parameter is positive; with the confluent kernel the decay is
only algebraic of order a, so the relaxation is limited to exponents > -a.

All quadrature-backed values are computed in a single overflow-safe
exponential where possible, and batches of shifted first arguments share one
refinement of the node grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernel as kernelmod
from .corefn import _EXP_ZERO_CUT, gammaln_real
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import (
    FIRST_PASS_LEVEL,
    MIN_LEVEL,
    _check_finite,
    _first_pass_spans,
    _read_only,
    _refine_nested,
    grid_order,
    integrate_halfline,
    integrate_unit_batch,
    unit_grid,
    unit_level_span,
    unit_new_nodes,
)
from .results import DomainError, EvalResult, refuse_non_finite

_BIG_EXPONENT = 600.0
# kernel.log_theta_neg_asym holds only at kernel arguments at or below this,
# where kummer_1f1_arr takes the same algebraic branch, as every w0 <= 200.
_FAR_TAIL_ARG = -200.0
# First arguments per complex sample block of ext_beta_complex_many.
_COMPLEX_BLOCK_ROWS = 256
# The unit of the quadratures' rounding floors.
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RegPair:
    """Finite nonnegative regularization parameters (b, d)."""

    b: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        refuse_non_finite("regularization parameters", self.b, self.d)
        if not (self.b >= 0.0 and self.d >= 0.0):
            raise DomainError(f"regularization parameters must be >= 0, "
                              f"got ({self.b}, {self.d})")

    @property
    def is_zero(self) -> bool:
        return self.b == 0.0 and self.d == 0.0

    def swapped(self) -> "RegPair":
        return RegPair(self.d, self.b)


@dataclass(frozen=True)
class BetaArgs:
    alpha: float
    beta: float

    def __post_init__(self):
        refuse_non_finite("beta arguments", self.alpha, self.beta)


@functools.cache
def _unit_logs(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(log t, log(1-t)) on the level's new unit nodes (cached, read-only)."""
    t, tc, _ = unit_new_nodes(level)
    return _read_only(np.log(t), np.log(tc))


# One entry per (kernel, (b, d), level), plus one for the first pass (levels
# 0..FIRST_PASS_LEVEL), shared by the coefficient ladders and every
# kernel-weighted integrand: a call with fresh parameters evaluates the
# kernel once per node.  The nested sums read the first pass whole and each
# later level on its own; the product grids and the complex path read every
# level on its own.  So a (kernel, (b, d)) keeps 1 entry in most of a mixed
# stream of independent calls and at most 8 (10 for a product grid run to
# its last level, 8).  A conformance pass uses 1.
_THETA_CACHE_SIZE = 128


def _unit_arg(reg: RegPair, level: int) -> np.ndarray:
    """The kernel argument -(b/t + d/(1-t)) on the level's new unit nodes.

    Next to an endpoint b/t or d/(1-t) can overflow; -inf is then the right
    argument, so callers run it under np.errstate(over="ignore").
    """
    t, tc, _ = unit_new_nodes(level)
    return -(reg.b / t + reg.d / tc)


@functools.lru_cache(maxsize=_THETA_CACHE_SIZE)
def _unit_theta(k: KernelSpec, reg: RegPair, level: int) -> np.ndarray:
    """Confluent-kernel values on the level's new unit nodes (cached).

    Every refinement's first pass covers levels 0..FIRST_PASS_LEVEL: one
    kernel call over their nodes laid end to end (level -1) serves them all,
    with the bits of one call per level.  The cached array is shared, so it
    is read-only.
    """
    if 0 <= level <= FIRST_PASS_LEVEL:
        return _unit_theta(k, reg, -1)[unit_level_span(level)]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        theta = kernelmod.theta_eval_arr(k, _unit_arg(reg, level))
    theta.flags.writeable = False
    return theta


def unit_kernel(k: KernelSpec, reg: RegPair,
                level: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(arg, Theta(arg)) on the level's new unit nodes, for
    ``safe_theta_product``.

    arg is the kernel argument -(b/t + d/(1-t)); Theta comes from the
    per-level cache and is None for the exponential kernel, whose product is
    formed from arg alone.  Call it under np.errstate(over="ignore"), as the
    integrands already run (see ``_unit_arg``).
    """
    theta = None if k.variant == EXP_VARIANT else _unit_theta(k, reg, level)
    return _unit_arg(reg, level), theta


def unit_grid_kernel(k: KernelSpec, reg: RegPair,
                     level: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``unit_kernel`` on the nodes of ``unit_grid(level)``, in its order.

    arg is formed on the grid itself, with each node's bits; the confluent
    kernel's per-level cached pieces are laid end to end and permuted like
    the grid, so each value is the one computed at that node on its own.
    Call it under np.errstate(over="ignore"), like ``unit_kernel``.
    """
    g = unit_grid(level)
    arg = -(reg.b / g.nodes + reg.d / g.complements)
    if k.variant == EXP_VARIANT:
        return arg, None
    order = grid_order(unit_new_nodes, level)
    return arg, np.concatenate(
        [_unit_theta(k, reg, lv) for lv in range(level + 1)])[order]


def _min_exponent(k: KernelSpec, reg_component: float) -> float:
    """Lower bound (exclusive) for a beta exponent on its endpoint."""
    if reg_component > 0.0:
        return -k.decay_order
    return 0.0


def check_beta_domain(k: KernelSpec, alpha: float, beta: float,
                      reg: RegPair) -> None:
    """``BetaArgs``'s rule, then the exponent bounds of the kernel and b, d."""
    BetaArgs(alpha, beta)
    if not alpha > _min_exponent(k, reg.b):
        raise DomainError(
            f"first argument {alpha} out of range for b={reg.b} "
            f"({k.label()} kernel)")
    if not beta > _min_exponent(k, reg.d):
        raise DomainError(
            f"second argument {beta} out of range for d={reg.d} "
            f"({k.label()} kernel)")


def safe_theta_product(k: KernelSpec, powexp: np.ndarray, arg: np.ndarray,
                        theta: np.ndarray | None = None) -> np.ndarray:
    """exp(powexp) * Theta(arg) without intermediate overflow.

    Where powexp is big, the product is exp(powexp + log Theta): log Theta
    comes from the far-tail form at arguments down to ``_FAR_TAIL_ARG`` and
    from the kernel values themselves nearer in.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        if k.variant == EXP_VARIANT:
            return np.exp(powexp + arg)
        if theta is None:
            theta = kernelmod.theta_eval_arr(k, arg)
        big = powexp > _BIG_EXPONENT
        out = np.exp(np.where(big, 0.0, powexp)) * theta
        if np.any(big):
            far = big & (arg <= _FAR_TAIL_ARG)
            near = big & ~far
            if np.any(far):
                out[far] = np.exp(powexp[far]
                                  + kernelmod.log_theta_neg_asym(k, arg[far]))
            out[near] = np.exp(powexp[near] + np.log(theta[near]))
        return out


def _exp_norm(lognorm: float, terms, what: str,
              at) -> tuple[float, float]:
    """The one door of a prefactor formed in logs: (exp(lognorm), a bound
    on its relative error, 8 eps times the sum of 1 + |term| over the terms
    of lognorm); out of the normal double range, a DomainError naming the
    prefactor ``what`` and its arguments ``at``."""
    if not (math.log(sys.float_info.min) < lognorm
            < math.log(sys.float_info.max)):
        raise DomainError(f"prefactor {what} = exp({lognorm:.6g}) out of "
                          f"double range at {at}")
    return math.exp(lognorm), 8 * _EPS * sum(1.0 + abs(t) for t in terms)


def _beta_norm(pairs: tuple, sign: float = 1.0) -> tuple[float, float]:
    """``_exp_norm`` of sign times the sum over the pairs (a, c) of log
    1/B(a, c - a), the Euler integrals' normalisation.  gammaln_real errs
    by up to 5.5 eps (1 + |log Gamma(x)|) (8000 draws on (0, 170] against
    40-digit mpmath; the 1 covers its zeros at 1 and 2), so the terms are
    log Gamma(x) over x = a, c, c - a: the bound grows with them."""
    return _exp_norm(sign * sum(gammaln_real(c) - gammaln_real(a)
                                - gammaln_real(c - a) for a, c in pairs),
                     [math.lgamma(x) for a, c in pairs for x in (a, c, c - a)],
                     "beta normalisation over (a, c)", pairs)


def _kernel_integral(k: KernelSpec, reg: RegPair, powexp, tol: float,
                     norm=(1.0, 0.0), factor=None,
                     method: str = "euler_integral") -> EvalResult:
    """The Euler integral over (0, 1) of exp(powexp) Theta(-b/t - d/(1-t))
    g(t), times the prefactor norm = (c, its relative error), from
    ``_exp_norm``.

    ``powexp(t, tc, lt, ltc)`` returns the exponent on a level's new nodes t
    and complements tc = 1-t, with lt, ltc = log t, log tc.  ``factor(t)``
    returns (g(t), its errors per node, or one for all), for an inner series
    or closed form; g = 1 without it.  The refinement stops on the value, c
    times the integral (``quadrature._refine``).  A non-finite sample raises
    ``NonFiniteSampleError`` once the refinement asks for its level.  The
    parts, in the value's units: c times the last level difference, the
    nested sums at the last level of |w f| times the factor's errors
    (``inner``) and of eps |w f g| (``rounding``), and |value| times the
    relative error; all but the first move no stop.

    The weighted samples w exp(powexp) Theta of levels 0..FIRST_PASS_LEVEL
    are formed in one pass over their nodes laid end to end (level -1);
    each is a function of its node alone.  Levels 0..MIN_LEVEL, which the
    refinement's first step asks for, are weighed at once: their samples
    pass one finiteness check, ``factor`` is called once on their nodes,
    and each level's sum is handed over when it is asked for.  Each later
    level is weighed on its own when the refinement asks for it.
    """
    def samples(level):
        t, tc, w = unit_new_nodes(level)
        lt, ltc = _unit_logs(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return w * safe_theta_product(k, powexp(t, tc, lt, ltc),
                                          *unit_kernel(k, reg, level))

    def weighed(vals, t):
        """(samples times the factor, sum of |samples| times its errors)"""
        _check_finite(vals, t)
        if factor is None:
            return vals, 0.0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            fv, ferr = factor(t)
            spread = float((np.abs(vals) * ferr).sum())
            vals = vals * fv
        _check_finite(vals, t)
        return vals, spread

    first = samples(-1)
    spans = _first_pass_spans()
    head = slice(0, spans[MIN_LEVEL].stop)
    vals, spread = weighed(first[head], unit_new_nodes(-1)[0][head])
    sums = [vals[span].sum() for span in spans[:MIN_LEVEL + 1]]
    # the sums of |w f g| and |w f| err over the levels read, and the last
    modulus, last = np.abs(vals).sum(), MIN_LEVEL

    def contrib(level):
        nonlocal modulus, spread, last
        t = unit_new_nodes(level)[0]
        if level <= MIN_LEVEL:
            return sums[level], t.size
        vals, s = weighed(first[spans[level]] if level <= FIRST_PASS_LEVEL
                          else samples(level), t)
        modulus, spread, last = modulus + np.abs(vals).sum(), spread + s, level
        return vals.sum(), t.size

    c, rel_err = norm
    total, err, nodes, converged = _refine_nested(contrib, tol, c)
    value = float(total) * c
    # the rounding floor: eps times the nested trapezoid sum of w |f| at the
    # last level, the recursive-summation bound of the quadrature sum
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2)
    return EvalResult.of(value, nodes, method, converged,
                         discretisation=err * c,
                         inner=math.ldexp(spread, -last) * c,
                         rounding=_EPS * math.ldexp(modulus, -last) * c,
                         normalisation=abs(value) * rel_err)


def ext_beta(k: KernelSpec, args: BetaArgs, reg: RegPair = RegPair(),
             tol: float = 1e-12) -> EvalResult:
    """Regularized beta value by unit-interval quadrature."""
    check_beta_domain(k, args.alpha, args.beta, reg)
    alpha, beta = args.alpha, args.beta
    return _kernel_integral(
        k, reg, lambda t, tc, lt, ltc: (alpha - 1.0) * lt + (beta - 1.0) * ltc,
        tol, method="quadrature")


def ext_beta_shifted_batch_arrays(k: KernelSpec, alpha0: float, count: int,
                                  beta: float, reg: RegPair = RegPair(),
                                  kstep: int = 1, tol: float = 1e-13):
    """Values of the regularized beta at first arguments alpha0 + kstep*m.

    One node grid serves the whole family.  Returns (values, errs,
    nodes_used, converged) as arrays/scalars.  A count that is not an
    integer >= 1 is a DomainError.
    """
    check_beta_domain(k, alpha0, beta, reg)
    if kstep < 0:
        raise DomainError("batch stride must be >= 0")

    # the batch's first call covers levels 0..FIRST_PASS_LEVEL (level -1),
    # then one level per call
    levels = itertools.chain([-1], itertools.count(FIRST_PASS_LEVEL + 1))

    def f0(t, tc):
        level = next(levels)
        lt, ltc = _unit_logs(level)
        with np.errstate(over="ignore", under="ignore"):
            powexp = (alpha0 - 1.0) * lt + (beta - 1.0) * ltc
            return safe_theta_product(k, powexp, *unit_kernel(k, reg, level))

    return integrate_unit_batch(f0, count, tol, kstep=kstep)


def ext_beta_shifted_batch(k: KernelSpec, alpha0: float, count: int,
                           beta: float, reg: RegPair = RegPair(),
                           kstep: int = 1,
                           tol: float = 1e-13) -> list[EvalResult]:
    values, errs, nodes, ok = ext_beta_shifted_batch_arrays(
        k, alpha0, count, beta, reg, kstep, tol)
    return [EvalResult.of(float(v), nodes, "quadrature", ok, discretisation=e)
            for v, e in zip(values, errs)]


def ext_gamma(k: KernelSpec, z: float, b: float = 0.0,
              tol: float = 1e-12) -> EvalResult:
    """Regularized gamma value by half-line quadrature."""
    RegPair(b)  # b follows the rule of a regularization parameter
    lo = 0.0 if b == 0.0 else -k.decay_order
    if not z > lo:
        raise DomainError(f"argument {z} too small for b={b}")
    if not z < k.decay_order:
        raise DomainError(
            f"{k.label()} kernel decays like t**-{k.decay_order} at "
            f"infinity; the integral needs z < {k.decay_order}")

    def f(t):
        with np.errstate(over="ignore", under="ignore"):
            powexp = (z - 1.0) * np.log(t)
            arg = -(t + b / t)
        return safe_theta_product(k, powexp, arg)

    return integrate_halfline(f, tol).result()


def ext_beta_complex_many(k: KernelSpec, alphas: np.ndarray, beta: float,
                          reg: RegPair = RegPair(), tol: float = 1e-12):
    """Vectorized regularized beta over an array of complex first arguments.

    All first arguments share one quadrature grid; convergence is judged on
    the worst member.  Returns (values, err, nodes_used, converged).

    Each sample is exp((alpha - 1) log t + base) with the real base
    log w + (beta - 1) log(1 - t) + log Theta, built in one complex block
    from real arithmetic: (Re alpha - 1) log t + base in the real part and
    Im alpha log t in the imaginary part.  Promoting log t and base to
    complex would add only exact zeros (Im alpha * 0, (Re alpha - 1) * 0),
    so the exponent is the same number up to the sign of a zero imaginary
    part.  exp carries that sign only into a zero imaginary sample, which
    cannot change a nonzero sum, so the values keep their bits.  A kernel
    value Theta == 0 (the confluent kernel underflows at the extreme nodes
    when b or d > 0) is a zero sample: its log is -inf and its exp is 0.
    Only Theta < 0 is refused.

    Next to the endpoints the kernel term drives the real exponent below
    ``_EXP_ZERO_CUT`` in every row, so those samples are exact zeros.  The
    real exponent of a node is at most (Re alpha - 1) log t + base at the
    largest or the smallest Re alpha (rounding is monotone), and only the
    span from the first to the last node where that bound reaches the cut
    (or is NaN) is exponentiated.  A slot outside it holds
    +0 + i 0 (Im alpha log t).  That is exp's zero 0 cos y + i 0 sin y,
    y = Im alpha log t, up to signs of zero, and a zero's sign can move a
    sum's bits only in a row whose every sample is zero.  Rows are summed
    over every node, zeros included, so the pairwise sum groups its terms
    as before.
    """
    alphas = np.asarray(alphas, dtype=complex)
    if not np.all(np.isfinite(alphas)):
        raise DomainError("complex-beta arguments must be finite")
    # the first arguments are finite, so only the smallest real part can fail
    check_beta_domain(k, float(alphas.real.min()), beta, reg)
    re_m1 = (alphas.real - 1.0)[:, None]
    im = alphas.imag[:, None]
    re_lo, re_hi = re_m1.min(), re_m1.max()

    def contrib(level):
        t, _, w = unit_new_nodes(level)
        lt, ltc = _unit_logs(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore",
                         divide="ignore"):
            arg, theta = unit_kernel(k, reg, level)
            base = np.log(w) + (beta - 1.0) * ltc
            if theta is None:
                base = base + arg
            elif np.any(theta < 0.0):
                raise DomainError("confluent kernel negative on the grid; "
                                  "complex-batch path needs c > a")
            else:
                base = base + np.log(theta)
            top = np.maximum(re_lo * lt, re_hi * lt) + base
            live = np.flatnonzero(~(top < _EXP_ZERO_CUT))
            j0, j1 = (live[0], live[-1] + 1) if live.size else (0, t.size)
            s = np.empty(alphas.shape, dtype=complex)
            x = np.empty((min(alphas.size, _COMPLEX_BLOCK_ROWS), t.size),
                         dtype=complex)
            for i0 in range(0, alphas.size, _COMPLEX_BLOCK_ROWS):
                i1 = min(i0 + _COMPLEX_BLOCK_ROWS, alphas.size)
                blk = x[:i1 - i0]
                span = blk[:, j0:j1]
                np.multiply(re_m1[i0:i1], lt[j0:j1], out=span.real)
                span.real += base[j0:j1]
                np.multiply(im[i0:i1], lt, out=blk.imag)
                np.exp(span, out=span)
                for dead in (blk[:, :j0], blk[:, j1:]):
                    dead.real = 0.0
                    dead.imag *= 0.0
                blk.sum(axis=1, out=s[i0:i1])
        if not np.isfinite(s).all():
            raise DomainError("complex-beta sum out of double range")
        return s, t.size

    values, err, nodes, converged = _refine_nested(contrib, tol)
    return values, float(np.max(err)), nodes, converged
