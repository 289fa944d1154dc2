"""Double-exponential quadrature engines.

tanh-sinh on the open unit interval (tolerates algebraic endpoint
singularities of order > -1) and exp-sinh on the half line (needs at least
exponential-type decay of the transformed integrand).  Both refine by level
doubling: level L adds the odd multiples of h_L = 2^-L, so earlier samples
are reused and the error estimate is the last successive-level difference.

Unit-interval integrands receive the node t together with its complement
1-t computed directly from the transform, so powers of (1-t) keep full
precision arbitrarily close to the endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .results import NonFiniteSampleError

MAX_LEVEL = 12

# Samples per block of integrate_unit_batch (512 KiB of float64).
_BATCH_BLOCK_FLOATS = 1 << 16
# The widest block whose running products and sums use a ufunc accumulate
# down axis 0 (see _running).
_ACCUMULATE_MAX_WIDTH = 512

# Truncation of the trapezoid in the transform variable.  Chosen so node
# weights stay normal (no underflow-to-zero weights) at the extremes.
_UNIT_UMAX = 6.05
_HALF_UMAX = 6.75

_PI_HALF = 0.5 * math.pi


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    nodes_used: int
    converged: bool


@dataclass(frozen=True)
class QuadGrid:
    """Nodes strictly inside the interval with positive weights.

    Unit-interval nodes are stored as the pair (nodes, complements) with
    complements = 1 - nodes computed from the transform directly, because
    the node itself saturates to 1.0 in floating point deep in the right
    endpoint region.  Integrands should consume the pair.
    """

    nodes: np.ndarray
    weights: np.ndarray
    level: int
    interval: str  # "unit" or "semi_infinite"
    complements: np.ndarray | None = None


_unit_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_half_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_unit_order_cache: dict[int, np.ndarray] = {}


def _level_abscissae(level: int, umax: float) -> np.ndarray:
    if level == 0:
        n = int(math.floor(umax))
        return np.arange(-n, n + 1, dtype=float)
    h = 2.0 ** -level
    n = int(math.floor(umax / h))
    k = np.arange(-n, n + 1)
    return k[k % 2 != 0] * h


def unit_new_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, 1-t, w) for the nodes first appearing at this refinement level."""
    cached = _unit_cache.get(level)
    if cached is None:
        u = _level_abscissae(level, _UNIT_UMAX)
        v = _PI_HALF * np.sinh(u)
        t = 1.0 / (1.0 + np.exp(-2.0 * v))
        tc = 1.0 / (1.0 + np.exp(2.0 * v))
        w = math.pi * np.cosh(u) * t * tc  # dt/du on (0,1)
        cached = (t, tc, w)
        _unit_cache[level] = cached
    return cached


def halfline_new_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, w) on (0, inf) for the nodes first appearing at this level."""
    cached = _half_cache.get(level)
    if cached is None:
        u = _level_abscissae(level, _HALF_UMAX)
        t = np.exp(_PI_HALF * np.sinh(u))
        w = _PI_HALF * np.cosh(u) * t
        cached = (t, w)
        _half_cache[level] = cached
    return cached


def unit_grid_order(level: int) -> np.ndarray:
    """The permutation that sorts the new nodes of levels 0..level, laid end
    to end, into the order of unit_grid(level) (cached, read-only)."""
    order = _unit_order_cache.get(level)
    if order is None:
        order = np.argsort(np.concatenate(
            [unit_new_nodes(k)[0] for k in range(level + 1)]))
        order.flags.writeable = False
        _unit_order_cache[level] = order
    return order


def unit_grid(level: int) -> QuadGrid:
    # every node carries the final trapezoid step 2**-level
    h = 2.0 ** -level
    ts = [unit_new_nodes(k) for k in range(level + 1)]
    t = np.concatenate([a[0] for a in ts])
    tc = np.concatenate([a[1] for a in ts])
    w = np.concatenate([a[2] * h for a in ts])
    order = unit_grid_order(level)
    return QuadGrid(t[order], w[order], level, "unit", tc[order])


def halfline_grid(level: int) -> QuadGrid:
    h = 2.0 ** -level
    ts = [halfline_new_nodes(k) for k in range(level + 1)]
    t = np.concatenate([a[0] for a in ts])
    w = np.concatenate([a[1] * h for a in ts])
    order = np.argsort(t)
    return QuadGrid(t[order], w[order], level, "semi_infinite")


def _check_finite(contrib: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(contrib)
    if np.any(bad):
        raise NonFiniteSampleError(
            f"integrand produced a non-finite sample near t={where[bad][0]!r}"
        )


def _running(op, blk: np.ndarray) -> None:
    """Turn row i of ``blk`` into op(row i - 1, row i), down the rows, in
    place.

    The result is the same either way; only the speed differs.  A ufunc
    accumulate down axis 0 of a C-ordered block walks each column with a
    row stride, so past ``_ACCUMULATE_MAX_WIDTH`` columns one contiguous
    ufunc call per row is faster.
    """
    if blk.shape[1] <= _ACCUMULATE_MAX_WIDTH:
        op.accumulate(blk, axis=0, out=blk)
    else:
        for i in range(1, blk.shape[0]):
            op(blk[i - 1], blk[i], out=blk[i])


def _refine(new_contrib, tol: float, max_level: int = MAX_LEVEL,
            min_level: int = 3):
    """Shared level-doubling loop.

    ``new_contrib(level)`` returns (sum over new nodes of w*f, node count).
    The sum may be a scalar or an array (real or complex); an array's error
    is its largest absolute change.  Returns (value, err, nodes, converged).
    """
    total = None
    prev = None
    err = math.inf
    nodes = 0
    for level in range(max_level + 1):
        s, n = new_contrib(level)
        nodes += n
        h = 2.0 ** -level if level else 1.0
        total = h * s if total is None else 0.5 * total + h * s
        if level >= 1:
            err = abs(total - prev) if np.isscalar(total) else np.max(
                np.abs(total - prev))
        if level >= min_level and err <= tol:
            return total, err, nodes, True
        prev = total
    return total, err, nodes, False


def integrate_unit_levels(f, tol: float,
                          max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate over (0,1), where f(level) returns the integrand on the
    level's new nodes, ``unit_new_nodes(level)``.

    The integrand sees the level, so it can read per-level caches.
    """

    def contrib(level):
        t, _, w = unit_new_nodes(level)
        vals = w * np.asarray(f(level), dtype=float)
        _check_finite(vals, t)
        return vals.sum(), t.size

    value, err, nodes, ok = _refine(contrib, tol, max_level)
    return QuadResult(float(value), float(err), nodes, ok)


def integrate_unit2(f, tol: float, max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate f(t, 1-t) over (0,1); f must accept ndarray arguments."""
    return integrate_unit_levels(lambda level: f(*unit_new_nodes(level)[:2]),
                                 tol, max_level)


def integrate_unit(f, tol: float, max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate a vectorized f(t) over the open interval (0,1)."""
    return integrate_unit2(lambda t, tc: f(t), tol, max_level)


def integrate_halfline(f, tol: float, max_level: int = MAX_LEVEL) -> QuadResult:
    """Integrate a vectorized f(t) over (0, inf)."""

    def contrib(level):
        t, w = halfline_new_nodes(level)
        vals = w * np.asarray(f(t), dtype=float)
        _check_finite(vals, t)
        return vals.sum(), t.size

    value, err, nodes, ok = _refine(contrib, tol, max_level)
    return QuadResult(float(value), float(err), nodes, ok)


def integrate_unit_batch(f0, count: int, tol: float, kstep: int = 1,
                         max_level: int = MAX_LEVEL):
    """Integrate the power family t**(kstep*m) * f0(t, 1-t) for m=0..count-1.

    f0 is the m = 0 integrand, evaluated once per node and shared across the
    whole family, so one grid refinement serves every member.  At each level
    the members are formed block-wise: a row-major block holds the m = 0
    samples in its first row and t**kstep in the others, a running product
    down the rows turns row j into the samples of member j, and each row is
    summed as one contiguous reduction.  Blocks hold at most
    _BATCH_BLOCK_FLOATS samples; the next block starts from the last row
    times t**kstep.  The multiplications and sums are those of repeated
    multiplication by t**kstep with one sum per member, so the results are
    bit-identical to it.  Returns (values, errs, nodes_used, converged) with
    per-member error estimates from the last refinement step.
    """
    if count < 1:
        raise ValueError("count must be >= 1")

    def contrib(level):
        t, tc, w = unit_new_nodes(level)
        base = w * np.asarray(f0(t, tc), dtype=float)
        _check_finite(base, t)
        if kstep == 0:
            s = base.sum()
            return np.full(count, s), t.size
        ratio = t ** kstep
        rows = max(1, _BATCH_BLOCK_FLOATS // t.size)
        out = np.empty(count)
        cur = base
        for m0 in range(0, count, rows):
            blk = np.empty((min(rows, count - m0), t.size))
            blk[0] = cur
            blk[1:] = ratio
            _running(np.multiply, blk)
            out[m0:m0 + len(blk)] = blk.sum(axis=1)
            cur = blk[-1] * ratio
        return out, t.size

    totals = None
    prev = None
    errs = np.full(count, math.inf)
    nodes = 0
    converged = False
    for level in range(max_level + 1):
        s, n = contrib(level)
        nodes += n
        h = 2.0 ** -level if level else 1.0
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            errs = np.abs(totals - prev)
        if level >= 3 and errs.max() <= tol:
            converged = True
            break
        prev = totals.copy()
    return totals, errs, nodes, converged
