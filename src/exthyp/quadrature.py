"""Double-exponential quadrature engines.

tanh-sinh on the open unit interval (tolerates algebraic endpoint
singularities of order > -1) and exp-sinh on the half line (needs at least
exponential-type decay of the transformed integrand).  Both refine by level
doubling: level L adds the odd multiples of h_L = 2^-L, so earlier samples
are reused and the error estimate is the last successive-level difference.

Unit-interval integrands receive the node t together with its complement
1-t computed directly from the transform, so powers of (1-t) keep full
precision arbitrarily close to the endpoint.

One loop, ``_refine``, runs every refinement.  Levels that every nested
refinement forms together (its first pass) may reach it as one first
estimate, one row per level: their errors and stop tests are formed in one
step, one finiteness check covers the levels read, and the loop goes on one
level at a time after them, with the bits of one level at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .results import DomainError, EvalResult, NonFiniteSampleError

# The two refinement forms and their level ranges.  Nested new-node sums
# run levels 0 to MAX_LEVEL and may stop from MIN_LEVEL.  Full-grid sums
# form every node of a level afresh, so they run the shorter range
# GRID_LEVELS: (first level, first level that may stop, last level); none
# of them has been seen to need a level past 7.  The first level only forms
# the error of the first that may stop; an earlier one would go unread.
MAX_LEVEL = 12
MIN_LEVEL = 3
GRID_LEVELS = (3, 4, 8)
# Nested sums form levels 0 to FIRST_PASS_LEVEL in one pass, over their nodes
# laid end to end (unit_new_nodes(-1)).  The batch hands the whole pass to
# _refine as one first estimate; the kernel integrals hand over levels 0 to
# MIN_LEVEL, which every refinement reads.  Coefficient-ladder batches stop
# at this level in 3417 of 3601 cases over 3024 eval-mix calls (seeds 1-3;
# 11 stop at level 3, 19 at 4, 154 at 6), and in 143 of 148 cases of a cold
# full conformance pass (the other 5 at 6).  A span of 4 or 6 levels was
# slower: 1008 eval-mix calls (seed 7, 2-core host) took 333-338 or 351-354
# ms in process, against 308-314 ms.
FIRST_PASS_LEVEL = 5

# Powers per table block of integrate_unit_batch (512 KiB of float64), and
# rows per block at most (the coefficient ladder's block of first arguments).
_BATCH_BLOCK_FLOATS = 1 << 16
_BATCH_BLOCK_ROWS = 64
# Powers kept by the table cache of integrate_unit_batch (1 MiB of float64).
_POWER_CACHE_FLOATS = 1 << 17
# Columns per dot product: OpenBLAS splits a longer ddot across its threads,
# and the rounding of the partial sums would then depend on the thread count.
_DOT_COLUMNS = 8192
# The widest block whose running products and sums use a ufunc accumulate
# down axis 0 (see _running).  On (65, n) blocks (numpy 2.4, 2-core x86-64)
# it took 11-19 us up to n = 112 against 35 us for the row loop, and 51, 114
# and 282 us at n = 128, 256 and 512, where the loop took 35-42 us.
_ACCUMULATE_MAX_WIDTH = 112

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

    def result(self) -> EvalResult:  # of method "quadrature"
        return EvalResult(self.value, self.abs_err_est, self.nodes_used,
                          self.converged, "quadrature")


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
    complements: np.ndarray | None = None


_power_cache: dict[tuple[int, int, int], np.ndarray] = {}


def _level_abscissae(level: int, umax: float) -> np.ndarray:
    if level == 0:
        n = int(math.floor(umax))
        return np.arange(-n, n + 1, dtype=float)
    h = 2.0 ** -level
    n = int(math.floor(umax / h))
    k = np.arange(-n, n + 1)
    return k[k % 2 != 0] * h


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: a cache hands them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def unit_new_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, 1-t, w) for the nodes first appearing at this refinement level
    (cached, read-only).

    Level -1 stands for levels 0..FIRST_PASS_LEVEL laid end to end, the
    first pass of every nested refinement: one pass over them serves all of
    those levels, and ``unit_level_span`` gives each level's slice.
    """
    if level < 0:
        parts = [unit_new_nodes(lv) for lv in range(FIRST_PASS_LEVEL + 1)]
        return _read_only(*(np.concatenate(a) for a in zip(*parts)))
    u = _level_abscissae(level, _UNIT_UMAX)
    v = _PI_HALF * np.sinh(u)
    t = 1.0 / (1.0 + np.exp(-2.0 * v))
    tc = 1.0 / (1.0 + np.exp(2.0 * v))
    w = math.pi * np.cosh(u) * t * tc  # dt/du on (0,1)
    return _read_only(t, tc, w)


@functools.cache
def unit_level_span(level: int) -> slice:
    """The slice of ``unit_new_nodes(-1)`` that holds a level
    0..FIRST_PASS_LEVEL (cached)."""
    start = sum(unit_new_nodes(lv)[0].size for lv in range(level))
    return slice(start, start + unit_new_nodes(level)[0].size)


@functools.cache
def halfline_new_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, w) on (0, inf) for the nodes first appearing at this level
    (cached, read-only)."""
    u = _level_abscissae(level, _HALF_UMAX)
    t = np.exp(_PI_HALF * np.sinh(u))
    w = _PI_HALF * np.cosh(u) * t
    return _read_only(t, w)


@functools.cache
def grid_order(new_nodes, level: int) -> np.ndarray:
    """The permutation that sorts the nodes t = new_nodes(k)[0] of levels
    0..level, laid end to end, into increasing order (cached, read-only)."""
    order, = _read_only(np.argsort(np.concatenate(
        [new_nodes(k)[0] for k in range(level + 1)])))
    return order


def unit_grid(level: int) -> QuadGrid:
    # every node carries the final trapezoid step 2**-level
    h = 2.0 ** -level
    ts = [unit_new_nodes(k) for k in range(level + 1)]
    t = np.concatenate([a[0] for a in ts])
    tc = np.concatenate([a[1] for a in ts])
    w = np.concatenate([a[2] * h for a in ts])
    order = grid_order(unit_new_nodes, level)
    return QuadGrid(t[order], w[order], tc[order])


def halfline_grid(level: int) -> QuadGrid:
    h = 2.0 ** -level
    ts = [halfline_new_nodes(k) for k in range(level + 1)]
    t = np.concatenate([a[0] for a in ts])
    w = np.concatenate([a[1] * h for a in ts])
    order = grid_order(halfline_new_nodes, level)
    return QuadGrid(t[order], w[order])


def _check_finite(contrib: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(contrib)
    if np.any(bad):
        raise NonFiniteSampleError(
            f"integrand produced a non-finite sample near "
            f"t={float(where[bad][0])!r}"
        )


def _running(op, blk: np.ndarray) -> None:
    """Turn row i of ``blk`` into op(row i - 1, row i), down the rows, in
    place.

    A ufunc accumulate down axis 0 of a C-ordered block walks each column
    with a row stride, so past ``_ACCUMULATE_MAX_WIDTH`` columns one
    contiguous ufunc call per row is faster, with the same bits; but not
    for a complex product (numpy fuses its multiply-adds), so a complex
    block always accumulates."""
    if blk.shape[1] <= _ACCUMULATE_MAX_WIDTH or blk.dtype.kind == "c":
        op.accumulate(blk, axis=0, out=blk)
    else:
        for i in range(1, blk.shape[0]):
            op(blk[i - 1], blk[i], out=blk[i])


def _refine(estimate, tol: float, levels: tuple[int, int, int],
            rel: bool = False, first=None, read=None):
    """The level-doubling loop shared by every integral.

    ``estimate(level)`` returns (estimate, nodes used) for the levels
    first, first + 1, ..., last of ``levels`` = (first, least, last); the
    estimate is a scalar or an array (real or complex).  Its error is
    |estimate - previous estimate|, elementwise, and inf at the first
    level.  The loop stops at the first level >= least whose largest error
    is <= tol, or <= tol * (1 + |estimate|) with ``rel``.  Returns
    (estimate, err, nodes, converged): the last level's estimate and error
    and the nodes of all levels.

    ``first`` = (estimates, nodes) hands over the levels first, ...,
    first + k - 1 at once, one row per level, with nodes[i] the nodes of
    rows 0..i.  Their errors and stop tests are formed in one step;
    ``read(j)``, if given, is called with the number j of those rows the
    loop reads before any of them counts, and ``estimate`` is asked only
    for the levels after them.
    """
    first_level, least, last = levels
    est = None
    err = math.inf
    nodes = 0
    start = first_level
    if first is not None:
        rows, ends = first
        # a non-finite row cannot stop the loop; read refuses its level
        with np.errstate(invalid="ignore"):
            errs = np.abs(rows[1:] - rows[:-1])
            bound = tol * (1.0 + np.abs(rows[1:])) if rel else tol
            stops = np.all(errs <= bound, axis=tuple(range(1, rows.ndim)))
        stops[:max(least - first_level - 1, 0)] = False
        done = bool(stops.any())
        count = int(stops.argmax()) + 2 if done else len(rows)
        if read is not None:
            read(count)
        est, nodes = rows[count - 1], ends[count - 1]
        if count > 1:
            err = errs[count - 2]
        if done:
            return est, err, nodes, True
        start += count
    for level in range(start, last + 1):
        prev = est
        est, n = estimate(level)
        nodes += n
        if prev is not None:
            err = abs(est - prev)
        bound = tol * (1.0 + abs(est)) if rel else tol
        if level >= least and ((err <= bound).all()
                               if isinstance(err, np.ndarray)
                               else err <= bound):
            return est, err, nodes, True
    return est, err, nodes, False


def _nested_step(total, new):
    """The nested trapezoid estimate of a level from the one before and
    2^-level times the level's new-node sum."""
    return new if total is None else 0.5 * total + new


def _nested(contrib, total=None):
    """Wrap new-node sums as the nested trapezoid estimates of _refine.

    ``contrib(level)`` returns (sum of w*f over the level's new nodes, their
    count); level L's estimate is half of level L-1's plus 2^-L times it.
    ``total`` is the estimate of the level before the first asked.
    """

    def estimate(level):
        nonlocal total
        s, n = contrib(level)
        total = _nested_step(total, (2.0 ** -level if level else 1.0) * s)
        return total, n

    return estimate


def _refine_nested(contrib, tol: float, first=None, read=None):
    """``_refine`` of the nested estimates of the new-node sums
    ``contrib(level)`` (see ``_nested``), over levels 0 to MAX_LEVEL.

    ``first`` = (sums, nodes) hands over the new-node sums of levels
    0..k-1 at once, one row per level, with nodes[i] the nodes of levels
    0..i; ``read`` is as for ``_refine``.  Their estimates are the running
    nested totals of the rows, each formed with the operations of one
    level at a time, so the bits do not depend on the split.
    """
    levels = (0, MIN_LEVEL, MAX_LEVEL)
    if first is None:
        return _refine(_nested(contrib), tol, levels)
    sums, ends = first
    steps = np.ldexp(1.0, -np.arange(len(sums)))  # 2^-level, exactly
    steps = steps.reshape((-1,) + (1,) * (sums.ndim - 1))
    with np.errstate(invalid="ignore"):  # as in _refine, for read to judge
        totals = np.array(list(itertools.accumulate(steps * sums,
                                                    _nested_step)))
    return _refine(_nested(contrib, totals[-1]), tol, levels,
                   first=(totals, ends), read=read)


def _refine_grid(grid_sum, tol: float, rel: bool = False):
    """``_refine`` of the full-grid sums ``grid_sum(level)``, over the
    levels of GRID_LEVELS."""
    return _refine(grid_sum, tol, GRID_LEVELS, rel)


def _integrate_levels(new_nodes, f, tol: float) -> QuadResult:
    """Integrate f over the nodes (t, ..., w) = new_nodes(level), level by
    level; f takes every array but the weights w."""

    def contrib(level):
        *ts, w = new_nodes(level)
        vals = w * np.asarray(f(*ts), dtype=float)
        _check_finite(vals, ts[0])
        return vals.sum(), w.size

    value, err, nodes, ok = _refine_nested(contrib, tol)
    return QuadResult(float(value), float(err), nodes, ok)


def integrate_unit2(f, tol: float) -> QuadResult:
    """Integrate f(t, 1-t) over (0,1); f must accept ndarray arguments."""
    return _integrate_levels(unit_new_nodes, f, tol)


def integrate_halfline(f, tol: float) -> QuadResult:
    """Integrate a vectorized f(t) over (0, inf)."""
    return _integrate_levels(halfline_new_nodes, f, tol)


def _block_rows(nodes: int) -> int:
    """Rows per power-table block of a level with this many nodes."""
    return max(1, min(_BATCH_BLOCK_ROWS, _BATCH_BLOCK_FLOATS // nodes))


def _power_block(level: int, kstep: int, block: int,
                 prev: np.ndarray | None) -> np.ndarray:
    """Rows t**(kstep*m) on the level's new nodes t, for the m of a block.

    Block j holds the rows m = j*R, ..., j*R + R - 1, R = _block_rows(nodes).
    Row m is the running product of t**kstep from ones at m = 0, so block
    j > 0 starts from ``prev``, the last row of block j - 1.  Blocks are
    cached read-only, at most _POWER_CACHE_FLOATS powers in all, the least
    recently used dropped first; a rebuilt block has the same bits.
    """
    key = (level, kstep, block)
    table = _power_cache.pop(key, None)
    if table is None:
        t = unit_new_nodes(level)[0]
        ratio = t ** kstep
        table = np.empty((_block_rows(t.size), t.size))
        table[0] = 1.0 if prev is None else prev * ratio
        table[1:] = ratio
        _running(np.multiply, table)
        table.flags.writeable = False
    _power_cache[key] = table
    while sum(a.size for a in _power_cache.values()) > _POWER_CACHE_FLOATS:
        del _power_cache[next(iter(_power_cache))]
    return table


def _member_sums(level: int, kstep: int, count: int, base: np.ndarray,
                 spans: list[slice]) -> np.ndarray:
    """Row i: for m < count, the dot product of t**(kstep*m) with ``base``
    over the columns of spans[i].

    Each member is one ddot of its power row per run of at most _DOT_COLUMNS
    columns, the runs added in order, so its bits depend on neither the
    block it falls in nor the BLAS thread count (a matrix-vector product
    rounds a row by where it sits in the matrix).
    """
    out = np.zeros((len(spans), count))
    rows = _block_rows(base.size)
    prev = None
    for block, m0 in enumerate(range(0, count, rows)):
        table = _power_block(level, kstep, block, prev)
        m1 = min(m0 + rows, count)
        for i, span in enumerate(spans):
            for c0 in range(span.start, span.stop, _DOT_COLUMNS):
                cols = slice(c0, min(c0 + _DOT_COLUMNS, span.stop))
                out[i, m0:m1] += np.vecdot(table[:m1 - m0, cols], base[cols])
        prev = table[-1]
    return out


def integrate_unit_batch(f0, count: int, tol: float, kstep: int = 1):
    """Integrate the power family t**(kstep*m) * f0(t, 1-t) for m=0..count-1.

    f0 is the m = 0 integrand, evaluated once per node and shared across the
    whole family, so one grid refinement serves every member.  Its first
    call covers levels 0..FIRST_PASS_LEVEL at once, on
    ``unit_new_nodes(-1)``, and their member sums reach the refinement as
    one first estimate; each later call covers one level.  On a level the
    member sums are the product of a power table (rows t**(kstep*m), a
    running product of t**kstep, cached per level and block; see
    ``_power_block``) with the weighted samples, one dot product per member
    and level (``_member_sums``), so a member's bits do not depend on the
    cache, on ``count`` or on the other levels of the first call.  A
    non-finite sample raises ``NonFiniteSampleError`` when the refinement
    reads its level, and not at all on a level of the first call that it
    never reads.  Returns (values, errs, nodes_used, converged) with
    per-member error estimates from the last refinement step.  A count that
    is not an integer >= 1 is a DomainError, raised before any node.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"batch count must be an integer, got {count!r}") \
            from None
    if count < 1:
        raise DomainError(f"batch count must be >= 1, got {count}")
    spans = [unit_level_span(lv) for lv in range(FIRST_PASS_LEVEL + 1)]
    t, tc, w = unit_new_nodes(-1)
    base = w * np.asarray(f0(t, tc), dtype=float)
    # a non-finite sample raises only once its level is read (read, below)
    with np.errstate(invalid="ignore"):
        sums = _member_sums(-1, kstep, count, base, spans)

    def read(levels):
        end = spans[levels - 1].stop
        _check_finite(base[:end], t[:end])

    def contrib(level):
        t, tc, w = unit_new_nodes(level)
        base = w * np.asarray(f0(t, tc), dtype=float)
        _check_finite(base, t)
        return _member_sums(level, kstep, count, base,
                            [slice(0, t.size)])[0], t.size

    return _refine_nested(contrib, tol, (sums, [s.stop for s in spans]),
                          read)
