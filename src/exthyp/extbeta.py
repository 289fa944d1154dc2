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

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel as kernelmod
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import (
    MAX_LEVEL,
    _refine,
    integrate_halfline,
    integrate_unit_batch,
    integrate_unit_levels,
    unit_grid_order,
    unit_new_nodes,
)
from .results import DomainError, EvalResult

_BIG_EXPONENT = 600.0
# kernel.log_theta_neg_asym holds only at kernel arguments at or below this.
_FAR_TAIL_ARG = -200.0
# First arguments per complex sample block of ext_beta_complex_many.
_COMPLEX_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RegPair:
    """Nonnegative regularization parameters (b, d)."""

    b: float = 0.0
    d: float = 0.0

    def __post_init__(self):
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


_log_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _unit_logs(level: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _log_cache.get(level)
    if cached is None:
        t, tc, _ = unit_new_nodes(level)
        cached = (np.log(t), np.log(tc))
        _log_cache[level] = cached
    return cached


# One entry per (kernel, (b, d), level).  The coefficient ladders and every
# kernel-weighted unit-interval integrand share the entries, so a call with
# fresh parameters evaluates the kernel once per node and keeps one entry per
# level it reaches: at most 7 in a mixed stream of independent calls (a
# product grid run to its last level, 9, would keep 10).  A conformance pass
# uses 6.
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

    The cached array is shared by every caller, so it is read-only.
    """
    with np.errstate(over="ignore", under="ignore"):
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

    The per-level pieces are laid end to end and permuted like the grid, so
    each value is the one computed at that node on its own.  Call it under
    np.errstate(over="ignore"), like ``unit_kernel``.
    """
    order = unit_grid_order(level)
    pieces = [unit_kernel(k, reg, lv) for lv in range(level + 1)]
    arg = np.concatenate([a for a, _ in pieces])[order]
    if k.variant == EXP_VARIANT:
        return arg, None
    return arg, np.concatenate([th for _, th in pieces])[order]


def _min_exponent(k: KernelSpec, reg_component: float) -> float:
    """Lower bound (exclusive) for a beta exponent on its endpoint."""
    if reg_component > 0.0:
        return -k.decay_order
    return 0.0


def check_beta_domain(k: KernelSpec, alpha: float, beta: float,
                      reg: RegPair) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"beta arguments must be finite, got "
                          f"({alpha}, {beta})")
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


def ext_beta(k: KernelSpec, args: BetaArgs, reg: RegPair = RegPair(),
             tol: float = 1e-12) -> EvalResult:
    """Regularized beta value by unit-interval quadrature."""
    check_beta_domain(k, args.alpha, args.beta, reg)
    alpha, beta = args.alpha, args.beta

    def f(level):
        lt, ltc = _unit_logs(level)
        with np.errstate(over="ignore", under="ignore"):
            powexp = (alpha - 1.0) * lt + (beta - 1.0) * ltc
            return safe_theta_product(k, powexp, *unit_kernel(k, reg, level))

    q = integrate_unit_levels(f, tol)
    return EvalResult(q.value, q.abs_err_est, q.nodes_used, q.converged,
                      "quadrature")


def ext_beta_shifted_batch_arrays(k: KernelSpec, alpha0: float, count: int,
                                  beta: float, reg: RegPair = RegPair(),
                                  kstep: int = 1, tol: float = 1e-13):
    """Values of the regularized beta at first arguments alpha0 + kstep*m.

    One node grid serves the whole family.  Returns (values, errs,
    nodes_used, converged) as arrays/scalars.
    """
    check_beta_domain(k, alpha0, beta, reg)
    if kstep < 0:
        raise DomainError("batch stride must be >= 0")

    levels_seen = []

    def f0(t, tc):
        level = len(levels_seen)
        levels_seen.append(level)
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
    return [EvalResult(float(v), float(e), nodes, ok, "quadrature")
            for v, e in zip(values, errs)]


def ext_gamma(k: KernelSpec, z: float, b: float = 0.0,
              tol: float = 1e-12) -> EvalResult:
    """Regularized gamma value by half-line quadrature."""
    if b < 0.0:
        raise DomainError("regularization parameter must be >= 0")
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

    q = integrate_halfline(f, tol)
    return EvalResult(q.value, q.abs_err_est, q.nodes_used, q.converged,
                      "quadrature")


def check_beta_domain_complex(k: KernelSpec, alpha: complex, beta: float,
                              reg: RegPair) -> None:
    if not (cmath.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"beta arguments must be finite, got "
                          f"({alpha}, {beta})")
    if not alpha.real > _min_exponent(k, reg.b):
        raise DomainError(
            f"Re(first argument) = {alpha.real} out of range for b={reg.b}")
    if not beta > _min_exponent(k, reg.d):
        raise DomainError(f"second argument {beta} out of range for d={reg.d}")


def ext_beta_complex_many(k: KernelSpec, alphas: np.ndarray, beta: float,
                          reg: RegPair = RegPair(), tol: float = 1e-12,
                          max_level: int = MAX_LEVEL):
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
    """
    alphas = np.asarray(alphas, dtype=complex)
    if not (np.all(np.isfinite(alphas)) and np.isfinite(beta)):
        raise DomainError("complex-beta arguments must be finite")
    for a in (alphas.real.min(), alphas.real.max()):
        check_beta_domain_complex(k, complex(a), beta, reg)
    re_m1 = (alphas.real - 1.0)[:, None]
    im = alphas.imag[:, None]

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
            s = np.empty(alphas.shape, dtype=complex)
            x = np.empty((min(alphas.size, _COMPLEX_BLOCK_ROWS), t.size),
                         dtype=complex)
            for i0 in range(0, alphas.size, _COMPLEX_BLOCK_ROWS):
                i1 = min(i0 + _COMPLEX_BLOCK_ROWS, alphas.size)
                blk = x[:i1 - i0]
                np.multiply(re_m1[i0:i1], lt, out=blk.real)
                blk.real += base
                np.multiply(im[i0:i1], lt, out=blk.imag)
                np.exp(blk, out=blk)
                blk.sum(axis=1, out=s[i0:i1])
        return s, t.size

    values, err, nodes, converged = _refine(contrib, tol, max_level)
    return values, float(err), nodes, converged


def ext_beta_complex(k: KernelSpec, alpha: complex, beta: float,
                     reg: RegPair = RegPair(),
                     tol: float = 1e-12) -> EvalResult:
    """Regularized beta with a complex first argument (real path)."""
    values, err, nodes, ok = ext_beta_complex_many(
        k, np.array([alpha]), beta, reg, tol)
    return EvalResult(complex(values[0]), err, nodes, ok, "quadrature")
