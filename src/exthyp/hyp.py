"""Extended Gauss and generalized hypergeometric functions.

The series replace each classical Pochhammer ratio by a ratio of
regularized to classical beta values; the first upper parameter keeps a
plain Pochhammer weight in the p = q+1 branch, and surplus lower parameters
divide as Pochhammer factors in the p < q branch.  Integer shift multipliers
k_j stretch the beta-argument ladder (k_j = 1 recovers the plain
definition).

Evaluation dispatch: the kernel-weighted Euler integral only where its
inner factor has a closed form (2F1 at z < 0 or z > 0.85, inner 1F0; 1F1 at
z < 0, inner 0F0 = exp), the series everywhere else.  Coefficients
are fetched in blocks through the shared-grid beta batch, so one quadrature
refinement serves a whole stretch of series terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corefn import (
    _is_nonpositive_int,
    beta_classical,
    gammaln_real,
    pochhammer,
)
from .extbeta import (
    RegPair,
    _beta_norm,
    _exp_norm,
    _kernel_integral,
    ext_beta_shifted_batch_arrays,
)
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import _EPS, _read_only, _running
from .results import (DomainError, EvalResult, KernelMismatchError,
                      check_tol, memoized, refuse_non_finite)

SERIES_CAP = 4096
SERIES_SMALL = 1e-16  # a small tail, relative to 1 + |the partial sum|
_BLOCK = 64
# Entries per block of the series engine `_pfq_sum` (256 KiB of float64).
_SERIES_BLOCK_FLOATS = 1 << 15
# z beyond which the 2F1 series gives way to its Euler integral under auto;
# also the |z| an Euler step's inner p = q+1 series is summed within
_EULER_CUT = 0.85
_CAUCHY_POINTS = 64  # trapezoid points on a derivative's circle


@dataclass(frozen=True)
class PfqSpec:
    """Parameter block of an extended generalized hypergeometric function.

    ``upper`` holds (value, shift multiplier) pairs; ``lower`` plain values.
    """

    upper: tuple[tuple[float, int], ...]
    lower: tuple[float, ...]
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

    def __post_init__(self):
        refuse_non_finite("parameters", *itertools.chain(*self.upper),
                          *self.lower)

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    @property
    def surplus(self) -> int:
        return max(self.q - self.p, 0)

    def pairs(self) -> list[tuple[float, int, float]]:
        """(alpha, k, beta - alpha) list: the last n = min(p, q) upper
        parameters paired with the last n lower ones."""
        n = min(self.p, self.q)
        return [(a, k, b - a) for (a, k), b
                in zip(self.upper[self.p - n:], self.lower[self.q - n:])]

    def poch_head(self) -> tuple[float, int] | None:
        """(alpha_1, k_1) Pochhammer weight, present only when p = q+1."""
        return self.upper[0] if self.p == self.q + 1 else None

    def terminating(self) -> bool:
        head = self.poch_head()
        return head is not None and head[1] >= 1 and _is_nonpositive_int(head[0])

    def validate(self) -> None:
        p, q = self.p, self.q
        if p > q + 1:
            raise DomainError(f"p = {p} exceeds q + 1 = {q + 1}")
        for a, k in self.upper:
            if k < 0 or k != int(k):
                raise DomainError("shift multipliers must be integers >= 0")
        head = self.poch_head()
        if head is not None and head[1] > 1 and not self.terminating():
            raise DomainError(
                "shift multiplier > 1 on the leading upper parameter makes "
                "the series diverge unless it terminates")
        for j in range(self.surplus):
            if _is_nonpositive_int(self.lower[j]):
                raise DomainError(
                    f"surplus lower parameter {self.lower[j]} is a "
                    f"nonpositive integer")
        for alpha, _k, width in self.pairs():
            if not (alpha > 0.0 and width > 0.0):
                raise DomainError(
                    f"pairing constraint violated: need beta > alpha > 0, "
                    f"got alpha={alpha}, beta={alpha + width}")

    def shifted(self, n: int) -> "PfqSpec":
        return PfqSpec(tuple((a + n, k) for a, k in self.upper),
                       tuple(b + n for b in self.lower), self.reg, self.kernel)

    def peel_last(self) -> tuple["PfqSpec", float, int, float]:
        """Split off the last pair, checked by ``validate``, for the Euler
        step."""
        if min(self.p, self.q) == 0:
            raise DomainError("no paired parameter to peel off")
        a_p, k_p = self.upper[-1]
        b_q = self.lower[-1]
        inner = PfqSpec(self.upper[:-1], self.lower[:-1], self.reg, self.kernel)
        return inner, a_p, k_p, b_q


def pfq_spec(kernel: KernelSpec, upper, lower, reg: RegPair = RegPair(),
             ks=None) -> PfqSpec:
    """Build a PfqSpec from plain parameter lists (all shifts 1 by default)."""
    upper = tuple(float(a) for a in upper)
    if ks is None:
        ks = (1,) * len(upper)
    return PfqSpec(tuple(zip(upper, (int(k) for k in ks))),
                   tuple(float(b) for b in lower), reg, kernel)


# Coefficient blocks kept by ``_coeff_block``.  A full conformance pass
# builds 148 distinct blocks, so a repeated pass finds them all; calls with
# fresh parameters repeat no block, so the cache is bounded: at about
# 1.2 KiB a block it holds about 300 KiB.
_BLOCK_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _coeff_block(kernel: KernelSpec, reg: RegPair, alpha: float,
                 width: float, k: int, ctol: float):
    """(values, errs, ok) of the ``_BLOCK`` regularized betas at first
    arguments alpha + k*m, m < ``_BLOCK`` (cached, read-only).

    A block's values depend only on these arguments, because ladders start
    their blocks at multiples of ``_BLOCK``, so every ladder that needs the
    block shares it and the results keep their bits.
    """
    vals, errs, _, ok = ext_beta_shifted_batch_arrays(
        kernel, alpha, _BLOCK, width, reg, kstep=k, tol=ctol)
    return (*_read_only(vals, errs), ok)


class _CoeffLadder:
    """Beta-ratio coefficient products, grown in blocks on demand."""

    def __init__(self, spec: PfqSpec):
        self.spec = spec
        self.pairs = spec.pairs()
        self.norms = [beta_classical(a, w) for a, _k, w in self.pairs]
        for (a, _k, w), norm in zip(self.pairs, self.norms):
            if norm == 0.0:
                raise DomainError(
                    f"beta normalisation B({a:g}, {w:g}) underflows to 0, "
                    f"so every coefficient ratio would be inf")
        self.tols = [max(1e-13 * n, 5e-17) for n in self.norms]
        self.coeffs = np.ones(0)
        self.cerrs = np.zeros(0)
        self.ok = True

    def ensure(self, hi: int) -> None:
        kernel, reg = self.spec.kernel, self.spec.reg
        while self.coeffs.size < hi:
            lo = self.coeffs.size
            prod = np.ones(_BLOCK)
            perr = np.zeros(_BLOCK)
            for (alpha, k, width), norm, ctol in zip(self.pairs, self.norms,
                                                     self.tols):
                vals, errs, okj = _coeff_block(kernel, reg, alpha + k * lo,
                                               width, k, ctol)
                ratios = vals / norm
                perr = perr * np.abs(ratios) + np.abs(prod) * (errs / norm)
                prod = prod * ratios
                if not np.isfinite(prod).all():
                    raise DomainError(f"non-finite coefficient in the block "
                                      f"at first argument {alpha + k * lo:g}"
                                      f", width {width:g}, stride {k}")
                self.ok = self.ok and okj
            self.coeffs = np.concatenate([self.coeffs, prod])
            self.cerrs = np.concatenate([self.cerrs, perr])


def pfq_series(spec: PfqSpec, z: float, tol: float = 1e-10) -> EvalResult:
    """Direct summation of the extended series: the engine on one column.

    It has converged where the engine stopped, the ladder converged, and
    the estimate is within tol on the series' relative scale, tol (1 + |s|);
    a sum whose terms cancel far below their size fails the last."""
    check_tol(tol)
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z}")
    spec.validate()
    if spec.p == spec.q + 1 and abs(z) >= 1.0 and not spec.terminating():
        raise DomainError(f"series diverges for |z| = {abs(z)} >= 1")
    ladder = _CoeffLadder(spec)
    s, errs, rows, done = _pfq_sum(spec, np.array([float(z)]), ladder)
    if not math.isfinite(s[0]):
        raise DomainError("series value out of double range")
    value, err = float(s[0]), float(errs[0])
    return EvalResult.of(value, rows, "series", done and ladder.ok
                         and err <= tol * (1.0 + abs(value)), truncation=err)


def pfq_series_vector(spec: PfqSpec, w: np.ndarray,
                      ladder: "_CoeffLadder" = None):
    """Series evaluated at an array of arguments with shared coefficients.

    Returns (values, errs), an error bound per argument; a sum not done
    within ``SERIES_CAP`` terms is a ``DomainError``.  Used by the
    integral representations that need the function on a whole quadrature
    grid; pass a ladder to reuse the fetched coefficients across repeated
    calls.  Complex arguments give complex values; errors are real.
    """
    w = np.asarray(w, dtype=complex if np.iscomplexobj(w) else float)
    if ladder is None:
        ladder = _CoeffLadder(spec)
    s, errs, _rows, done = _pfq_sum(spec, w.reshape(-1), ladder)
    if not done:
        raise DomainError(f"series did not converge within {SERIES_CAP} "
                          f"terms (max |argument| = {np.max(np.abs(w)):.3g})")
    return s.reshape(w.shape), errs.reshape(w.shape)


@np.errstate(over="ignore", invalid="ignore")  # callers judge the sums
def _pfq_sum(spec: PfqSpec, w: np.ndarray, ladder: _CoeffLadder,
             heads: np.ndarray | None = None,
             weights: np.ndarray | None = None):
    """The series engine: one column per entry of the flat array ``w``,
    with its own first upper parameter from ``heads`` (a p = q+1 spec) and
    term-0 weight from ``weights`` (1 by default) if given.  Returns (sums,
    errs, rows, done): each column's partial sum and error bound (its
    weights' moduli times the coefficient errors, plus its tail), the rows
    summed (the longest column's), and whether all stopped within
    ``SERIES_CAP`` terms.
    A complex ``w`` gives complex terms and sums; errors stay real.

    A column stops at its first row whose ``_geometric_tail`` is small, q
    bounding the later step factors: the 1F0 ``_majorant_step`` of head
    |alpha_1| (head shift 1); |w| / (m + 1) over the surplus lowers b + m,
    once all are > 0; inf (head shift > 1).  A weight 0 stays 0, tail 0,
    so a terminating series ends at any |w|; a NaN column never stops.
    Columns with ``weights`` are parts of one sum and share the rule's 1.

    The terms are formed a block of rows at a time (one row per term
    index, at most ``_SERIES_BLOCK_FLOATS`` entries, never past the
    ladder's coefficients); a column that stops leaves the blocks.  Every
    entry goes through the operations, in order, of the term-by-term
    reference loop in ``tests/test_hyp.py``, so the bits are the loop's.
    """
    head = spec.poch_head()
    own = head is not None and heads is not None  # per-column heads
    a0 = heads if own else (head[0] if head else None)
    lowers = spec.lower[:spec.surplus]

    def steps_at(idx, x, a1, out):  # the step factors of term index idx
        np.divide(x, idx + 1.0, out=out)
        if head is not None:
            for i in range(head[1]):
                out *= a1 + head[1] * idx + i
        for b in lowers:
            out /= b + idx
        return out

    def bounds_at(idx, ax, a1):  # q of term index idx at |arguments| ax
        if head is not None and head[1] > 1:
            return np.full((idx.size, ax.size), math.inf)
        if head is not None and head[1] == 1:
            return _majorant_step(np.abs(a1), idx, ax)
        q = ax / (idx + 1.0)
        for b in lowers:
            q = np.where(b + idx > 0.0, q / (b + idx), math.inf)
        return q

    def block(cols):  # term rows and the row carried into the next block
        return np.empty((max(1, min(_BLOCK, _SERIES_BLOCK_FLOATS
                                    // max(cols, 1))) + 1, cols), w.dtype)

    # Row 0 of a block carries in its first weight; a running product of
    # step factors makes the weights (and the one carried on), then terms
    # and partial sums from ``s``, in place; error sums run from ``e``.
    live, x, a1 = np.arange(w.size), w, a0  # the columns in the blocks
    scale = 1.0 if weights is None else 1.0 / max(w.size, 1)
    blk = block(w.size)
    blk[0] = 1.0 if weights is None else weights
    # their partial sums and error sums before the block, tails at its last
    # row, and every column's sum and error once it has stopped
    s, out = np.zeros_like(w), np.zeros_like(w)
    e, errs = np.zeros(w.size), np.zeros(w.size)
    tail = np.full(w.size, math.inf)
    rows = m = 0
    while m < SERIES_CAP and live.size:
        ladder.ensure(m + 1)
        hi = min(m + blk.shape[0] - 1, ladder.coeffs.size, SERIES_CAP)
        idx = np.arange(m, hi)[:, None]
        steps_at(idx, x, a1, blk[1:hi - m + 1])
        _running(np.multiply, blk[:hi - m + 1])
        part = blk[:hi - m]
        ebk = np.abs(part)
        ebk *= ladder.cerrs[m:hi, None]
        ebk[0] += e
        _running(np.add, ebk)
        part *= ladder.coeffs[m:hi, None]
        last = np.abs(part)
        part[0] += s
        _running(np.add, part)
        tails, small = _geometric_tail(last, bounds_at(idx, np.abs(x), a1),
                                       part, scale)
        ends = small.any(axis=0)
        if ends.any():
            cut, col = small.argmax(axis=0)[ends], np.flatnonzero(ends)
            out[live[ends]] = part[cut, col]
            errs[live[ends]] = ebk[cut, col] + tails[cut, col]
            rows = max(rows, m + int(cut.max()) + 1)
            keep = ~ends
            live, x = live[keep], x[keep]
            a1 = a1[keep] if own else a0
            carry, s, e = blk[hi - m][keep], part[-1][keep], ebk[-1][keep]
            tail = tails[-1][keep]
            blk = block(live.size)
            blk[0] = carry
        else:
            s, e, tail = part[-1].copy(), ebk[-1], tails[-1]
            blk[0] = blk[hi - m]
        m = hi
    out[live] = s
    errs[live] = e + tail
    return out, errs, m if live.size else rows, not live.size


def _majorant_step(head, m, x):
    """max((head + m) x / (m + 1), x): for head, x >= 0 a bound on the
    1F0 majorant's step factors (head + n) x / (n + 1), n >= m."""
    q = (head + m) * x
    q /= m + 1
    return np.maximum(q, x, out=q)


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN are not small
def _geometric_tail(last, q, total, scale=1.0):
    """(tail, small), elementwise: the one stopping rule of the series.
    tail = last q / (1 - q) bounds the moduli of the terms after one of
    modulus ``last`` if each is at most q times the one before (inf while
    q >= 1, 0 after a term 0); small: tail <= SERIES_SMALL (scale +
    |total|), total the partial sum, scale 1 or a part's share of it.  q
    bounds the weights' steps, so the tail bounds the terms if the
    coefficients do not grow, 0 < c_n <= c_m <= 1 for n >= m (Johansson,
    ACM TOMS 2019, sec. 5), as for a kernel in [0, 1] on (-inf, 0]: exp,
    or confluent with c > a.  Else it bounds the weights times c_m."""
    tail = np.where(last == 0.0, 0.0, math.inf)
    np.divide(last * q, 1.0 - q, out=tail, where=q < 1.0)
    size = np.abs(total)
    size += scale
    return tail, tail <= SERIES_SMALL * size


def _one_f0_vector(alpha: float, k1: int, w: np.ndarray, w_rel: float):
    """Closed forms of the innermost 1F0-type factor: a terminating head,
    or a head of shift 0 (exp) or 1 ((1 - w)^-alpha), the only others
    ``PfqSpec.validate`` lets through.  Returns (g, a bound per node on its
    rounding) for w of relative error ``w_rel``: eps for exp itself, plus
    its exponent's absolute error, w_rel |w|, or 2 eps |alpha log1p(-w)|
    (the log and the product) + w_rel |alpha w / (1 - w)|.  A terminating
    head, a polynomial, reports 0."""
    if _is_nonpositive_int(alpha) and k1 >= 1:
        n = int(round(-alpha))
        if n // k1 > 170:  # m! leaves double range from m = 171 on
            raise DomainError(f"terminating factor of degree {n // k1} > 170")
        s = np.zeros_like(w)
        for m in range(n // k1 + 1):
            s += pochhammer(alpha, k1 * m) * w ** m / math.factorial(m)
        return s, 0.0
    if k1 == 0:
        g = np.exp(w)
        return g, (_EPS + w_rel * np.abs(w)) * g
    e = -alpha * np.log1p(-w)
    g = np.exp(e)
    return g, (_EPS * (1.0 + 2.0 * np.abs(e))
               + w_rel * abs(alpha) * np.abs(w / (1.0 - w))) * g


def euler_step_integral(spec: PfqSpec, z: float,
                        tol: float = 1e-10) -> EvalResult:
    """One Euler step: the function as a weighted integral of its inner
    lower-order companion at argument z * t**k.

    The inner series shares one coefficient ladder across the refinement
    levels.  A ladder's coefficients depend only on the spec and the block
    index, so the values are those of a fresh ladder per level.
    """
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z}")
    spec.validate()
    inner, a_p, k_p, b_q = spec.peel_last()
    if z > 1.0:
        raise DomainError("Euler integral needs argument <= 1")
    if z == 1.0:
        if inner.p != 1 or inner.q != 0 or inner.upper[0][1] != 1:
            raise DomainError("unit-argument Euler step implemented for the "
                              "Gauss-level case only")
        a1, k1 = inner.upper[0]
        if not (b_q - a_p - a1 > 0.0):
            raise DomainError("unit-argument Euler step needs "
                              "beta - alpha - alpha_1 > 0")
    reg, k = spec.reg, spec.kernel
    inner_closed = inner.p <= 1 and inner.q == 0
    if (not inner_closed and inner.p == inner.q + 1
            and abs(z) > _EULER_CUT):
        raise DomainError("inner series needs |z| <= 0.85 beyond the "
                          "Gauss level")

    factor = None
    if z == 1.0:
        def powexp(t, tc, lt, ltc):
            # fold (1 - t**k) = (1-t)(1 + t + ... + t**(k-1))
            poly = np.zeros_like(t)
            for i in range(k_p):
                poly += t ** i
            return ((a_p - 1.0) * lt + (b_q - a_p - a1 - 1.0) * ltc
                    - a1 * np.log(poly))
    else:
        def powexp(t, tc, lt, ltc):
            return (a_p - 1.0) * lt + (b_q - a_p - 1.0) * ltc

        if inner_closed:  # 1F0, or 0F0 = exp: a head of shift 0
            head = inner.upper[0] if inner.p else (0.0, 0)

            def factor(t):  # z t^k_p errs by at most (k_p + 2) eps
                return _one_f0_vector(*head, z * t ** k_p, (k_p + 2) * _EPS)
        else:
            ladder = _CoeffLadder(inner)

            def factor(t):
                return pfq_series_vector(inner, z * t ** k_p, ladder=ladder)

    return _kernel_integral(k, reg, powexp, tol, _beta_norm(((a_p, b_q),)),
                            factor)


@memoized
def ext_pfq(spec: PfqSpec, z: float, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """Evaluate the extended generalized hypergeometric function.

    Each path checks the argument and validates the spec itself, so both
    happen once per call.
    """
    if method == "series":
        return pfq_series(spec, z, tol)
    if method == "integral":
        return euler_step_integral(spec, z, tol)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    # the Euler step where its inner factor is closed: 2F1 (1F0 inner) at
    # z < 0 or z > _EULER_CUT, 1F1 (0F0 inner) at z < 0, whose series
    # cancels about e**|z|-fold; the series everywhere else
    if (spec.q == 1 and spec.p in (1, 2) and not spec.terminating()
            and (z < 0.0 or (spec.p == 2 and z > _EULER_CUT))):
        return euler_step_integral(spec, z, tol)
    return pfq_series(spec, z, tol)


def ext_2f1(kernel: KernelSpec, a1: float, a2: float, b1: float, z: float,
            reg: RegPair = RegPair(), tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """Extended Gauss hypergeometric function."""
    spec = pfq_spec(kernel, (a1, a2), (b1,), reg)
    return ext_pfq(spec, z, tol, method)


def derivative(spec: PfqSpec, z: float, n: int, tol: float = 1e-10) -> EvalResult:
    """n-th derivative: Pochhammer prefactor times the all-shifted function."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if any(k != 1 for _a, k in spec.upper):
        raise DomainError("derivative formula needs all shift multipliers 1")
    pref = 1.0
    for a, _k in spec.upper:
        pref *= pochhammer(a, n)
    for b in spec.lower:
        pref /= pochhammer(b, n)
    return ext_pfq(spec.shifted(n), z, tol).scaled(pref)


def derivative_weighted(kernel: KernelSpec, a1: float, a2: float, b1: float,
                        z: float, n: int, reg: RegPair = RegPair(),
                        tol: float = 1e-10,
                        variant: str = "proof") -> EvalResult:
    """Closed form of the n-th derivative of z**(a1+n-1) * F.

    The proof-derived right side shifts the first upper parameter by n; the
    printed variant leaves it unshifted and is retained for adjudication.
    """
    if variant not in ("proof", "printed"):
        raise DomainError(f"unknown variant {variant!r}")
    if a1 <= 0.0:
        raise DomainError("weighted derivative needs a1 > 0")
    if z <= 0.0:
        raise DomainError("weighted derivative evaluated for z > 0")
    shift = n if variant == "proof" else 0
    f = ext_2f1(kernel, a1 + shift, a2, b1, z, reg, tol)
    pref = pochhammer(a1, n) * z ** (a1 - 1.0)
    return f.scaled(pref)


def weighted_derivative_lhs(kernel: KernelSpec, a1: float, a2: float,
                            b1: float, z: float, n: int,
                            reg: RegPair = RegPair()) -> EvalResult:
    """Left side of the weighted derivative identity: ``_cauchy`` of
    z**(a1+n-1) * F about z > 0, clear of the power's branch point at 0."""
    return _cauchy(pfq_spec(kernel, (a1, a2), (b1,), reg), z, n, z,
                   a1 + n - 1.0)


def cauchy_derivative(spec: PfqSpec, z: float, n: int) -> EvalResult:
    """Independent derivative oracle for the shift formula (``_cauchy``)."""
    return _cauchy(spec, z, n)


def _cauchy(spec: PfqSpec, z: float, n: int, reach: float = 1.0,
            power: float = 0.0) -> EvalResult:
    """The n-th derivative at z of w**power * F(w), F the series of spec,
    by the trapezoid rule of Cauchy's integral on the ``_CAUCHY_POINTS``
    points z + r e**(i theta_j), r half the least of 1, reach and the room
    1 - |z| in the disc of a non-terminating p = q+1 series.  The rule
    converges geometrically and rounds like eps max|f| n!/r**n (Lyness and
    Moler 1967, Bornemann 2011); the estimate is its distance to the rule
    on the even points (``discretisation``) plus n!/r**n times the largest
    series error (``inner``)."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    refuse_non_finite("argument", z)
    spec.validate()
    if spec.p == spec.q + 1 and not spec.terminating():
        reach = min(reach, 1.0 - abs(z))
    if not reach > 0.0:
        raise DomainError(f"no circle about z = {z} inside the domain")
    ladder = _CoeffLadder(spec)
    radius = min(reach, 1.0) / 2.0
    theta = np.arange(_CAUCHY_POINTS) * (2.0 * math.pi / _CAUCHY_POINTS)
    w = z + radius * np.exp(1j * theta)
    vals, errs = pfq_series_vector(spec, w, ladder)
    lift = w ** power
    terms = lift * vals * np.exp(-1j * n * theta)
    scale = math.factorial(n) / radius ** n
    value, half = (scale * float(t.mean().real) for t in (terms, terms[::2]))
    return EvalResult.of(value, _CAUCHY_POINTS, "series", ladder.ok,
                         discretisation=abs(value - half),
                         inner=scale * float((np.abs(lift) * errs).max()))


def pfaff_transform(kernel: KernelSpec, a1: float, a2: float, b1: float,
                    z: float, reg: RegPair = RegPair(), tol: float = 1e-10,
                    variant: str = "proof") -> EvalResult:
    """Right side of the argument map z -> z/(z-1) with swapped reg pair.

    proof variant: lower parameter b1, argument z/(z-1);
    printed variant: lower parameter a2, argument z/(1-z).
    """
    if z >= 1.0:
        raise DomainError("transform needs z < 1")
    pref = (1.0 - z) ** -a1
    if variant == "proof":
        f = ext_2f1(kernel, a1, b1 - a2, b1, z / (z - 1.0), reg.swapped(), tol)
    elif variant == "printed":
        f = ext_2f1(kernel, a1, b1 - a2, a2, z / (1.0 - z), reg.swapped(), tol)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return f.scaled(pref)


def euler_transform(kernel: KernelSpec, a1: float, a2: float, b1: float,
                    z: float, reg: RegPair = RegPair(), tol: float = 1e-10,
                    variant: str = "proof") -> EvalResult:
    """Right side of the argument-preserving second transformation.

    Exponential kernel only.  The proof-derived variant carries
    exp(z d/(1-z) - z b) and the swapped, rescaled pair (d/(1-z), (1-z) b);
    the printed variant exp(-(1-z) b - z d) with (b/(1-z), (1-z) d) is
    retained for adjudication.
    """
    if kernel.variant != EXP_VARIANT:
        raise KernelMismatchError(
            "this transformation is stated for the exponential kernel")
    if z >= 1.0:
        raise DomainError("transform needs z < 1")
    omz = 1.0 - z
    if variant == "proof":
        lognorm = z * reg.d / omz - z * reg.b
        new_reg = RegPair(reg.d / omz, omz * reg.b)
    elif variant == "printed":
        lognorm = -omz * reg.b - z * reg.d
        new_reg = RegPair(reg.b / omz, omz * reg.d)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    pref = _exp_norm(lognorm, (lognorm,), "transform exponential",
                     f"z = {z:.6g}, {reg}")[0] * omz ** (b1 - a2 - a1)
    return ext_2f1(kernel, b1 - a1, b1 - a2, b1, z, new_reg, tol).scaled(pref)


_RECURRENCES = ("a1_plus", "a1_minus", "b1_plus", "a2_plus")


def _shift_sums(F, a: float, c: float, n: int, which: str,
                variant: str) -> tuple[EvalResult, EvalResult]:
    """Both sides of a finite shift sum in one (upper, lower) pair (a, c).

    ``F(a2, c2)`` evaluates the function with the pair replaced.  "lower"
    shifts c by n.  "upper" shifts a by n: the derivation's finite binomial
    expansion is valid for the positive power only, so the proof variant
    also lifts the left side's c by 2n; the printed variant keeps c and
    starts the sum at 1.  Serves the Gauss-level and the second-kind
    two-variable recursions.
    """
    if which == "lower":
        lhs = F(a, c + n)
        pref = 1.0
        for i in range(n):
            pref *= (c + i) / (c - a + i)
        pairs = [((-1.0) ** k * math.comb(n, k)
                  * pochhammer(a, k) / pochhammer(c, k), F(a + k, c + k))
                 for k in range(n + 1)]
    else:
        if variant == "proof":
            lhs = F(a + n, c + 2 * n)
            pref = pochhammer(c, 2 * n) / (pochhammer(c - a, n)
                                           * pochhammer(a, n))
            i_lo = 0
        elif variant == "printed":
            if not c - a - n > 0.0:
                raise DomainError(f"printed upper shift needs c - a - n > 0, "
                                  f"got c={c}, a={a}, n={n}")
            lhs = F(a + n, c)
            pref = pochhammer(c - a, 2 * n) / (pochhammer(c - a, n)
                                               * pochhammer(a, n))
            i_lo = 1
        else:
            raise DomainError(f"unknown variant {variant!r}")
        pairs = [(pochhammer(-n, i) * pochhammer(a, i + n)
                  / (pochhammer(c, i + n) * math.factorial(i)),
                  F(a + n + i, c + n + i)) for i in range(i_lo, n + 1)]
    return lhs, EvalResult.combine(pairs, lhs.terms_or_nodes).scaled(pref)


def recurrence_eval(which: str, kernel: KernelSpec, a1: float, a2: float,
                    b1: float, n: int, z: float, reg: RegPair = RegPair(),
                    tol: float = 1e-10,
                    variant: str = "proof") -> tuple[EvalResult, EvalResult]:
    """Both sides of the selected parameter-shift recurrence.

    Only the second-upper-parameter shift has printed/proof variants (sum
    range and prefactor differ); the other three are single-form.
    """
    if which not in _RECURRENCES:
        raise DomainError(f"unknown recurrence {which!r}")
    if n < 0:
        raise DomainError("shift order must be >= 0")

    def F(aa1, aa2, bb1) -> EvalResult:
        return ext_2f1(kernel, aa1, aa2, bb1, z, reg, tol)

    if which in ("b1_plus", "a2_plus"):
        return _shift_sums(lambda aa2, bb1: F(a1, aa2, bb1), a2, b1, n,
                           "lower" if which == "b1_plus" else "upper",
                           variant)
    # negation is exact, so x + sign*y has the bits of x + y or x - y
    sign = 1.0 if which == "a1_plus" else -1.0
    top = a1 + n if sign > 0 else a1
    lhs = F(a1 + sign * n, a2, b1)
    c = a2 * z / b1
    pairs = [(1.0, F(a1, a2, b1))] + [
        (sign * c, F(top - kk + 1, a2 + 1, b1 + 1)) for kk in range(1, n + 1)]
    return lhs, EvalResult.combine(pairs, lhs.terms_or_nodes)


def summation_thm(kernel: KernelSpec, a1: float, a2: float, b1: float,
                  reg: RegPair = RegPair(),
                  tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Quadratic-shift summation at unit argument.

    Left side: the doubled-ladder function at z = 1 through its integral;
    right side: gamma quotient times the plain function at argument -1.
    The Euler step refuses parameters outside b1 > a2 > 0, b1 - a2 - a1 > 0.
    """
    spec = PfqSpec(((a1, 1), (a2, 2)), (b1,), reg, kernel)
    lhs = euler_step_integral(spec, 1.0, tol)
    lg = [gammaln_real(x) for x in (b1, b1 - a2 - a1, b1 - a2, b1 - a1)]
    quot = _exp_norm(lg[0] + lg[1] - lg[2] - lg[3], lg, "Gamma quotient",
                     f"(a1, a2, b1) = {(a1, a2, b1)}")[0]
    return lhs, ext_2f1(kernel, a1, a2, b1 - a1, -1.0, reg, tol).scaled(quot)


def frac_deriv(kernel: KernelSpec, mu: float, reg: RegPair, f, z: float,
               tol: float = 1e-10) -> EvalResult:
    """Kernel-weighted fractional derivative of order mu < 0 at z > 0.

    Computed on the unit interval after the substitution t = z v; only the
    negative-order branch is implemented (positive orders would require
    differentiating through the quadrature).  The prefactor z**lambda /
    Gamma(lambda), lambda = -mu, is formed in logs (``_exp_norm``).
    """
    if mu >= 0.0:
        raise DomainError("only the mu < 0 branch is implemented")
    if z <= 0.0:
        raise DomainError("needs z > 0")
    lam = -mu
    power, gamma = lam * math.log(z), gammaln_real(lam)
    norm = _exp_norm(power - gamma, (power, gamma),
                     f"z**{lam:.6g} / Gamma({lam:.6g})", f"z = {z:.6g}")
    return _kernel_integral(
        kernel, reg, lambda t, tc, lt, ltc: (lam - 1.0) * ltc, tol, norm,
        lambda t: (np.asarray(f(z * t), dtype=float), 0.0), "quadrature")
