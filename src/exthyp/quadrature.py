"""Double-exponential quadrature engines.

tanh-sinh on the open unit interval (tolerates algebraic endpoint
singularities of order > -1) and exp-sinh on the half line (needs at least
exponential-type decay of the transformed integrand).  Both refine by level
doubling: level L adds the odd multiples of h_L = 2^-L, so earlier samples
are reused and the error estimate is the last successive-level difference.

Unit-interval integrands receive the node t together with its complement
1-t computed directly from the transform, so powers of (1-t) keep full
precision arbitrarily close to the endpoint.

One loop, ``_refine``, runs every refinement, one level per step: each level
hands it its estimate and the previous level's, and their difference is the
error.  It stops on tol (1 + |value|), in the units of the value returned,
the estimate times the integral's prefactor.  A nested refinement
(``mellin.mb_eval``'s too) keeps a running total, so its first step forms
levels 0 to the first that may stop; a full grid carries the previous
level's weights on the same nodes, so one set of samples gives both
estimates.  Where the nested sums of several levels are formed in one pass
(the first pass), each level is still handed over on its own.

The full-grid integrals take each axis from ``grid_axis`` (the unit grid,
scaled to (0, top), or the half line cut before an end).  The type A and D
forms sum over one or two axes with ``grid_product``: blocks of rows, live
windows, and the one-node POINT_AXIS as the rows at r = 1.  The estimate of
``_refine_grid`` is its level difference and the parts of the level
returned, its rounding floor among them, in the value's units.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .results import DomainError, EvalResult, NonFiniteSampleError, check_tol

# The two refinement forms and their level ranges.  Nested new-node sums
# run levels 0 to MAX_LEVEL and may stop from MIN_LEVEL.  Full-grid sums
# form every node of a level afresh, so they run the shorter range
# GRID_LEVELS = (first level that may stop, last level); none of them has
# been seen to need a level past 7.  Each grid's previous level is its sum
# with the coarse weights (``QuadGrid.coarse``), so no grid of an earlier
# level is formed.
MAX_LEVEL = 12
MIN_LEVEL = 3
GRID_LEVELS = (4, 8)
# Nested sums form levels 0 to FIRST_PASS_LEVEL in one pass, over their nodes
# laid end to end (unit_new_nodes(-1)), and hand each level to the
# refinement when it asks for it.  Coefficient-ladder batches stop
# at this level in 2174 of 2289 cases over 3024 eval-mix calls (seeds 1-3;
# 1 stops at level 3, 114 at 6), and in 99 of 103 of a cold full
# conformance pass (the other 4 at 6).  A span of 4 or 6 levels was
# slower: 1008 eval-mix calls (seed 7, 2-core host) took 333-338 or 351-354
# ms in process, against 308-314 ms.
FIRST_PASS_LEVEL = 5
# Each level's nested step 2^-level, exactly
_LEVEL_STEPS = np.ldexp(1.0, -np.arange(MAX_LEVEL + 1))

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
_EPS = math.ulp(1.0)
# Rows per block of a product grid's coupled factor (grid_product)
_GRID_BLOCK_ROWS = 512


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    nodes_used: int
    converged: bool

    def result(self) -> EvalResult:  # of method "quadrature"
        return EvalResult.of(self.value, self.nodes_used, "quadrature",
                             self.converged, discretisation=self.abs_err_est)


@dataclass(frozen=True)
class QuadGrid:
    """Nodes strictly inside the interval with positive weights.

    Unit-interval nodes are stored as the pair (nodes, complements) with
    complements = 1 - nodes computed from the transform directly, because
    the node itself saturates to 1.0 in floating point deep in the right
    endpoint region.  Integrands should consume the pair.

    ``coarse`` holds the previous level's weights on the same nodes: twice
    the weights on the nodes it shares, 0 on the nodes new at this level
    (all 0 at level 0), so one set of samples gives both levels' sums.
    """

    nodes: np.ndarray
    weights: np.ndarray
    coarse: np.ndarray
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
def _first_pass_spans() -> tuple[slice, ...]:
    """The ``unit_level_span`` of levels 0..FIRST_PASS_LEVEL (cached)."""
    return tuple(unit_level_span(lv) for lv in range(FIRST_PASS_LEVEL + 1))


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


def _grid(new_nodes, level: int) -> tuple[np.ndarray, ...]:
    """new_nodes(0..level) laid end to end in ``grid_order``, the weights
    times the final trapezoid step 2**-level, then the coarse weights
    (``QuadGrid.coarse``), read-only."""
    order = grid_order(new_nodes, level)
    *nodes, w = (np.concatenate(a)[order]
                 for a in zip(*map(new_nodes, range(level + 1))))
    w = w * 2.0 ** -level
    old = order < order.size - new_nodes(level)[0].size
    return _read_only(*nodes, w, np.where(old, 2.0 * w, 0.0))


@functools.cache
def unit_grid(level: int) -> QuadGrid:
    """The unit-interval grid of levels 0..level (cached, read-only)."""
    t, tc, w, coarse = _grid(unit_new_nodes, level)
    return QuadGrid(t, w, coarse, tc)


@functools.cache
def halfline_grid(level: int) -> QuadGrid:
    """The half-line grid of levels 0..level (cached, read-only)."""
    t, w, coarse = _grid(halfline_new_nodes, level)
    return QuadGrid(t, w, coarse)


# The one-node axis of an r = 1 product grid: node 0, weight 1, coarse 1
POINT_AXIS = _read_only(np.zeros(1), np.ones(1), np.ones(1))


def grid_axis(level: int, top: float = 1.0, end: float = math.inf):
    """(nodes, weights, coarse weights, complements or None): one axis of
    a product grid at ``level``, the unit grid scaled to (0, top), or for
    an infinite top the half-line grid with its nodes before ``end``."""
    if math.isinf(top):
        g = halfline_grid(level)
        k = int(np.searchsorted(g.nodes, end))
        return g.nodes[:k], g.weights[:k], g.coarse[:k], None
    g = unit_grid(level)
    if top == 1.0:
        return g.nodes, g.weights, g.coarse, g.complements
    return g.nodes * top, g.weights * top, g.coarse * top, g.complements * top


def _live_span(v: np.ndarray) -> tuple[int, int]:
    """(lo, hi): from the first nonzero of ``v`` past its last, or (0, 0)."""
    live = np.flatnonzero(v)
    return (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)


def grid_product(axes, xs, factor):
    """A ``_refine_grid`` level on one or two axes (nodes, weights, coarse
    weights), each axis's own factor in its weights; one axis follows
    POINT_AXIS.  ``factor(w)`` overwrites a window of the arguments
    w = xs[0] t_i + xs[1] s_j (rows t_i, columns s_j) with the coupled
    factor and returns its errors, or None for an exact factor, then > 0.
    A block's window runs over its rows, and the columns, from the first
    to the last live node (nonzero weight or coarse weight); the factor is
    1 elsewhere, so a finite factor keeps every sum's bits.  A ufunc takes
    about 1.5 times as long per entry on a column window as on whole rows
    (512 rows of 1200; F2 spans 24-32% of the columns with the exp kernel,
    84-100% with the confluent one), so a block of several rows takes
    every column past half of them.  Returns ((coarse sum, sum), nodes,
    (sum of w |f|, {"inner": sum of |w| times the errors}))."""
    (t0, w0, c0), (t1, w1, c1) = ([POINT_AXIS, *axes])[-2:]
    x0, x1 = (0.0, *xs)[-2:]
    j0, j1 = _live_span((w1 != 0.0) | (c1 != 0.0))
    if 2 * (j1 - j0) > t1.size and t0.size > 1:
        j0, j1 = 0, t1.size
    a0, a1 = np.abs(w0), np.abs(w1)
    signed = bool((w0 < 0.0).any() or (w1 < 0.0).any())
    buf = np.empty((min(_GRID_BLOCK_ROWS, t0.size), t1.size))
    s = cs = modulus = err = 0.0
    for i0 in range(0, t0.size, _GRID_BLOCK_ROWS):
        blk = slice(i0, min(i0 + _GRID_BLOCK_ROWS, t0.size))
        m = buf[:blk.stop - i0]
        lo, hi = _live_span((w0[blk] != 0.0) | (c0[blk] != 0.0))
        m[:lo] = m[hi:] = 1.0
        m[lo:hi, :j0] = m[lo:hi, j1:] = 1.0
        f = m[lo:hi, j0:j1]
        np.add(x0 * t0[blk][lo:hi, None], x1 * t1[None, j0:j1], out=f)
        errs = factor(f)
        part = float(w0[blk] @ m @ w1)
        s += part
        cs += float(c0[blk] @ m @ c1)
        exact = errs is None  # an exact factor is > 0
        modulus += (part if exact and not signed else
                    float(a0[blk] @ (m if exact else np.abs(m)) @ a1))
        if not exact:
            err += float(a0[blk][lo:hi] @ errs @ a1[j0:j1])
    return (cs, s), t0.size * t1.size, (modulus, {"inner": err})


def _check_finite(contrib: np.ndarray, where: np.ndarray) -> None:
    if not np.isfinite(contrib).all():
        raise NonFiniteSampleError(
            f"integrand produced a non-finite sample near "
            f"t={float(where[~np.isfinite(contrib)][0])!r}"
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


def _refine(estimate, tol: float, least: int, last: int, norm: float = 1.0):
    """The level-doubling loop of every integral, after ``check_tol``.

    ``estimate(level)`` returns ((previous, estimate), nodes used) for the
    levels least, least + 1, ..., last: the level's estimate and the
    previous level's, each a scalar or an array (real or complex).  The
    error is |estimate - previous|, elementwise; a non-finite one neither
    warns nor stops the loop.  The value is the estimate times the positive
    prefactor norm, and the loop stops at the first level where norm err
    <= tol (1 + norm |estimate|) for every member.  Returns (estimate, err,
    nodes, converged): the last level's estimate and error, unscaled, and
    the nodes of all levels.
    """
    check_tol(tol)
    nodes = 0
    for level in range(least, last + 1):
        (prev, est), n = estimate(level)
        nodes += n
        with np.errstate(invalid="ignore", over="ignore"):
            err = abs(est - prev)
            within = norm * err <= tol * (1.0 + norm * abs(est))
        if within.all() if isinstance(within, np.ndarray) else within:
            return est, err, nodes, True
    return est, err, nodes, False


def _refine_nested(contrib, tol: float, norm: float = 1.0):
    """``_refine`` of the nested trapezoid estimates over levels 0 to
    MAX_LEVEL, by one rule: level L's estimate is half level L-1's plus
    2^-L times its sum (level 0: the sum), where ``contrib(level)`` returns
    (sum of w*f over the level's new nodes, their count), for a value
    ``norm`` times the estimate.  The first step asks ``contrib`` for
    levels 0..MIN_LEVEL in order, each later step for its own level.
    """
    total = None

    def estimate(level):
        nonlocal total
        prev, nodes = total, 0
        for lv in range(0 if total is None else level, level + 1):
            s, n = contrib(lv)
            s = _LEVEL_STEPS[lv] * s
            prev, total = total, s if total is None else 0.5 * total + s
            nodes += n
        return (prev, total), nodes

    return _refine(estimate, tol, MIN_LEVEL, MAX_LEVEL, norm)


def _refine_grid(grid_sum, tol: float, norm=(1.0, 0.0)) -> EvalResult:
    """``_refine`` of the full-grid sums over GRID_LEVELS for the float value
    c times the sum, norm = (c, its relative error).  ``grid_sum(level)``
    returns ((coarse sum, sum), nodes, (sum of w |f|, parts)), the coarse sum
    the previous level's over the same samples.  The estimate adds, times c,
    the level difference and the last level's 2 eps sum w |f| (``rounding``:
    a two-stage sum errs by up to that, 1000 type A draws at b = d = 0
    against mpmath) and parts, which move no stop, then |value| times the
    relative error."""
    parts = []

    def estimate(level):
        sums, nodes, part = grid_sum(level)
        parts.append(part)
        return sums, nodes

    c, rel_err = norm
    total, err, nodes, ok = _refine(estimate, tol, *GRID_LEVELS, c)
    modulus, own = parts[-1]
    value = float(total) * c
    return EvalResult.of(value, nodes, "euler_integral", ok,
                         discretisation=err * c,
                         rounding=2 * _EPS * modulus * c,
                         **{name: b * c for name, b in own.items()},
                         normalisation=abs(value) * rel_err)


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


def _member_sums(level: int, kstep: int, count: int, base: np.ndarray,
                 spans) -> np.ndarray:
    """Row i: for m < count, the dot product of t**(kstep*m) with ``base``
    over the columns of spans[i].

    Table j of R rows (at most _BATCH_BLOCK_ROWS and _BATCH_BLOCK_FLOATS
    powers) holds m = j*R, ..., j*R + R - 1: a running product of t**kstep
    from ones or from table j - 1's last row, cached read-only in
    ``_power_cache`` (least recently used dropped first); a rebuilt table
    has the same bits.  A member's sum is one ddot per run of at most
    _DOT_COLUMNS columns, the runs added in order: a matrix-vector product
    would round a row by where it sits in the matrix, and OpenBLAS splits a
    longer ddot across its threads.
    """
    t = unit_new_nodes(level)[0]
    rows = max(1, min(_BATCH_BLOCK_ROWS, _BATCH_BLOCK_FLOATS // t.size))
    out = np.empty((len(spans), count))
    table = None
    for block, m0 in enumerate(range(0, count, rows)):
        prev, table = table, _power_cache.pop((level, kstep, block), None)
        if table is None:
            ratio = t ** kstep
            table = np.empty((rows, t.size))
            table[0] = 1.0 if prev is None else prev[-1] * ratio
            table[1:] = ratio
            _running(np.multiply, table)
            table.flags.writeable = False
            while _power_cache and table.size + sum(
                    map(np.size, _power_cache.values())) > _POWER_CACHE_FLOATS:
                del _power_cache[next(iter(_power_cache))]
        _power_cache[level, kstep, block] = table
        part = table[:count - m0]
        for dst, span in zip(out[:, m0:m0 + rows], spans):
            c0, end = span.start, span.stop
            cut = min(c0 + _DOT_COLUMNS, end)
            np.vecdot(part[:, c0:cut], base[c0:cut], out=dst)
            for c in range(cut, end, _DOT_COLUMNS):
                cols = slice(c, min(c + _DOT_COLUMNS, end))
                dst += np.vecdot(part[:, cols], base[cols])
    return out


def integrate_unit_batch(f0, count: int, tol: float, kstep: int = 1):
    """Integrate the power family t**(kstep*m) * f0(t, 1-t) for m=0..count-1.

    f0 is the m = 0 integrand, evaluated once per node and shared by the
    whole family.  Its first call covers levels 0..FIRST_PASS_LEVEL at once,
    on ``unit_new_nodes(-1)``, with one ``_member_sums`` call for all of
    their member sums; each is handed to ``_refine_nested`` when it asks for
    its level, and each later call of f0 covers one level.  A member's level
    sum is one dot product of its power-table row with the weighted samples
    per run of _DOT_COLUMNS columns, the runs added in order
    (``_member_sums``), so its bits depend neither on the cache, on
    ``count`` nor on the other levels of the first call.  A non-finite
    sample raises ``NonFiniteSampleError`` when the refinement asks for its
    level, and not at all on a level of the first call that it never asks
    for.  Returns (values, errs, nodes_used, converged) with per-member
    errors from the last refinement step.  A count that is not an integer
    >= 1 is a DomainError, raised before any node.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"batch count must be an integer, got {count!r}") \
            from None
    if count < 1:
        raise DomainError(f"batch count must be >= 1, got {count}")
    spans = _first_pass_spans()
    t, tc, w = unit_new_nodes(-1)
    first = w * np.asarray(f0(t, tc), dtype=float)
    # a non-finite sample raises only once its level is asked for
    finite = bool(np.isfinite(first).all())
    with np.errstate(invalid="ignore"):
        sums = _member_sums(-1, kstep, count, first, spans)

    def contrib(level):
        t, tc, w = unit_new_nodes(level)
        if level <= FIRST_PASS_LEVEL:
            if not finite:
                _check_finite(first[spans[level]], t)
            return sums[level], t.size
        base = w * np.asarray(f0(t, tc), dtype=float)
        _check_finite(base, t)
        return _member_sums(level, kstep, count, base,
                            [slice(0, t.size)])[0], t.size

    return _refine_nested(contrib, tol)
