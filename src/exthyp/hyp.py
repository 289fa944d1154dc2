"""Extended Gauss and generalized hypergeometric functions.

The series replace each classical Pochhammer ratio by a ratio of
regularized to classical beta values; the first upper parameter keeps a
plain Pochhammer weight in the p = q+1 branch, and surplus lower parameters
divide as Pochhammer factors in the p < q branch.  Integer shift multipliers
k_j stretch the beta-argument ladder (k_j = 1 recovers the plain
definition).

Evaluation dispatch: series inside the unit disk, the kernel-weighted Euler
integral for negative arguments and near the disk boundary.  Coefficients
are fetched in blocks through the shared-grid beta batch, so one quadrature
refinement serves a whole stretch of series terms.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .corefn import _is_nonpositive_int, beta_signed, gammaln_real, pochhammer
from .extbeta import (
    RegPair,
    safe_theta_product,
    check_beta_domain,
    ext_beta_shifted_batch_arrays,
    unit_kernel,
)
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import MAX_LEVEL, _running, unit_new_nodes
from .results import DomainError, EvalResult, KernelMismatchError

SERIES_CAP = 4096
_BLOCK = 64
# Entries per block of pfq_series_vector (512 KiB of float64).
_SERIES_BLOCK_FLOATS = 1 << 16
_EULER_CUT = 0.85  # |z| beyond which the series gives way to the integral


@dataclass(frozen=True)
class PfqSpec:
    """Parameter block of an extended generalized hypergeometric function.

    ``upper`` holds (value, shift multiplier) pairs; ``lower`` plain values.
    """

    upper: tuple[tuple[float, int], ...]
    lower: tuple[float, ...]
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

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
        """Branch-dependent (alpha, k, beta - alpha) pairing list."""
        p, q = self.p, self.q
        if p == q + 1:
            return [(self.upper[j + 1][0], self.upper[j + 1][1],
                     self.lower[j] - self.upper[j + 1][0]) for j in range(q)]
        if p == q:
            return [(self.upper[j][0], self.upper[j][1],
                     self.lower[j] - self.upper[j][0]) for j in range(q)]
        r = self.surplus
        return [(self.upper[j][0], self.upper[j][1],
                 self.lower[r + j] - self.upper[j][0]) for j in range(p)]

    def poch_head(self) -> tuple[float, int] | None:
        """(alpha_1, k_1) Pochhammer weight, present only when p = q+1."""
        return self.upper[0] if self.p == self.q + 1 else None

    def terminating(self) -> bool:
        head = self.poch_head()
        return head is not None and head[1] >= 1 and _is_nonpositive_int(head[0])

    def validate(self, strict: bool = True) -> None:
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
            if strict:
                if not (alpha > 0.0 and width > 0.0):
                    raise DomainError(
                        f"pairing constraint violated: need beta > alpha > 0, "
                        f"got alpha={alpha}, beta={alpha + width}")
            else:
                check_beta_domain(self.kernel, alpha, width, self.reg)

    def shifted(self, n: int) -> "PfqSpec":
        return PfqSpec(tuple((a + n, k) for a, k in self.upper),
                       tuple(b + n for b in self.lower), self.reg, self.kernel)

    def peel_last(self) -> tuple["PfqSpec", float, int, float]:
        """Split off the last paired parameter for the Euler-integral step."""
        if self.q == 0:
            raise DomainError("nothing to peel from a 1F0-type function")
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


# Coefficient blocks of the innermost open ``shared_coefficients`` scope,
# keyed by the arguments of the batch call that built them; None outside.
_shared_blocks: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "exthyp_shared_blocks", default=None)


@contextlib.contextmanager
def shared_coefficients():
    """Let every ladder built inside the scope share its coefficient blocks.

    A block's values depend only on the arguments of the batch call that
    builds it, because blocks always start at multiples of ``_BLOCK``, so a
    repeated block is looked up instead of integrated again and the results
    keep their bits.  The blocks are dropped when the scope exits; a nested
    scope starts empty and leaves the outer one untouched.
    """
    token = _shared_blocks.set({})
    try:
        yield
    finally:
        _shared_blocks.reset(token)


class _CoeffLadder:
    """Beta-ratio coefficient products, grown in blocks on demand."""

    def __init__(self, spec: PfqSpec, tol: float):
        self.spec = spec
        self.pairs = spec.pairs()
        self.norms = [beta_signed(a, w) for a, _k, w in self.pairs]
        self.tols = [max(1e-13 * n, 5e-17) for n in self.norms]
        self.coeffs = np.ones(0)
        self.cerrs = np.zeros(0)
        self.ok = True

    def ensure(self, hi: int) -> None:
        shared = _shared_blocks.get()
        kernel, reg = self.spec.kernel, self.spec.reg
        while self.coeffs.size < hi:
            lo = self.coeffs.size
            count = _BLOCK
            prod = np.ones(count)
            perr = np.zeros(count)
            for (alpha, k, width), norm, ctol in zip(self.pairs, self.norms,
                                                     self.tols):
                key = (kernel, reg, alpha + k * lo, count, width, k, ctol)
                block = None if shared is None else shared.get(key)
                if block is None:
                    vals, errs, _, okj = ext_beta_shifted_batch_arrays(
                        kernel, alpha + k * lo, count, width, reg, kstep=k,
                        tol=ctol)
                    if shared is not None:
                        vals.flags.writeable = False
                        errs.flags.writeable = False
                        shared[key] = (vals, errs, okj)
                else:
                    vals, errs, okj = block
                ratios = vals / norm
                perr = perr * np.abs(ratios) + np.abs(prod) * (errs / norm)
                prod = prod * ratios
                self.ok = self.ok and okj
            self.coeffs = np.concatenate([self.coeffs, prod])
            self.cerrs = np.concatenate([self.cerrs, perr])


def _step_factor(spec: PfqSpec, m: int, z: float) -> float:
    """Multiplier taking the non-coefficient part of term m to term m+1."""
    head = spec.poch_head()
    f = z / (m + 1.0)
    if head is not None:
        a1, k1 = head
        for i in range(k1):
            f *= a1 + k1 * m + i
    for j in range(spec.surplus):
        f /= spec.lower[j] + m
    return f


def pfq_series(spec: PfqSpec, z: float, tol: float = 1e-10,
               strict: bool = True) -> EvalResult:
    """Direct summation of the extended series."""
    spec.validate(strict)
    if spec.p == spec.q + 1 and abs(z) >= 1.0 and not spec.terminating():
        raise DomainError(f"series diverges for |z| = {abs(z)} >= 1")
    ladder = _CoeffLadder(spec, tol)
    s = 0.0
    errsum = 0.0
    wgt = 1.0
    small = 0
    last = math.inf
    ratio = 0.0
    m = 0
    while m < SERIES_CAP:
        ladder.ensure(m + 1)
        term = wgt * ladder.coeffs[m]
        s += term
        errsum += abs(wgt) * ladder.cerrs[m]
        if m > 0 and last != 0.0:
            ratio = abs(term) / last
        last = abs(term)
        wgt *= _step_factor(spec, m, z)
        m += 1
        if wgt == 0.0:
            return EvalResult(s, errsum, m, ladder.ok, "series")
        if last < 1e-15 * abs(s) + 1e-300:
            small += 1
            if small >= 3:
                tail = last * ratio / (1 - ratio) if ratio < 0.9 else last
                return EvalResult(s, errsum + tail, m, ladder.ok, "series")
        else:
            small = 0
    tail = last * ratio / (1 - ratio) if ratio < 0.9 else last * 10.0
    return EvalResult(s, errsum + tail, m, False, "series")


def pfq_series_vector(spec: PfqSpec, w: np.ndarray, tol: float = 1e-10,
                      cap: int = SERIES_CAP, ladder: "_CoeffLadder" = None):
    """Series evaluated at an array of arguments with shared coefficients.

    Returns (values, err_bound).  Used by the integral representations that
    need the function on a whole quadrature grid; pass a ladder to reuse the
    fetched coefficients across repeated calls.

    The terms are formed a block of rows at a time: one row per term
    index, one column per argument, at most ``_SERIES_BLOCK_FLOATS``
    entries, and never past the coefficients the ladder holds.  A block
    forms the step factors, the weights as a running product down the
    rows, the terms, the partial sums as a running sum, and the per-row
    maxima that the stopping rule reads; a Python walk over the rows then
    finds the third small term.  Every entry goes through the
    multiplications and additions of the term-by-term loop in the same
    order, and the maxima equal that loop's (see ``_max_abs`` and the term
    maxima below), so the output bits are those of the loop, which
    ``tests/test_hyp.py`` keeps as the reference.
    """
    w = np.asarray(w, dtype=float)
    if ladder is None:
        ladder = _CoeffLadder(spec, tol)
    flat = w.reshape(-1)
    height = max(1, min(_BLOCK, _SERIES_BLOCK_FLOATS // max(flat.size, 1)))
    head = spec.poch_head()
    lowers = spec.lower[:spec.surplus]
    # Row 0 of the block carries in the weight of the block's first term.
    # Rows 1 to ``rows`` take the step factors; the running product turns
    # rows 0 to rows - 1 into the block's weights and row ``rows`` into the
    # weight that the next block carries in.  The weights then become the
    # terms and, by a running sum from ``s``, the partial sums, in place.
    blk = np.empty((height + 1, flat.size))
    blk[0] = 1.0
    s = np.zeros_like(flat)  # partial sum before the block's first term
    errsum = 0.0
    small = 0
    m = 0
    while m < cap:
        ladder.ensure(m + 1)
        hi = min(m + height, ladder.coeffs.size, cap)
        rows = hi - m
        idx = np.arange(m, hi)[:, None]
        steps = blk[1:rows + 1]
        np.divide(flat, idx + 1.0, out=steps)
        if head is not None:
            a1, k1 = head
            for i in range(k1):
                steps *= a1 + k1 * idx + i
        for b in lowers:
            steps /= b + idx
        _running(np.multiply, blk[:rows + 1])
        part = blk[:rows]
        wmax = _max_abs(part)
        coeffs = ladder.coeffs[m:hi]
        part *= coeffs[:, None]
        # max |w * c| is max |w| * |c|: rounding is symmetric in sign and
        # monotonic, so the largest product comes from the largest factor.
        tmax = wmax * np.abs(coeffs)
        np.add(s, part[0], out=part[0])
        _running(np.add, part)
        done = (tmax <= 1e-16 * (1.0 + _max_abs(part))).tolist()
        tmax, wmax = tmax.tolist(), wmax.tolist()
        cerrs = ladder.cerrs[m:hi].tolist()
        for i in range(rows):
            errsum += wmax[i] * cerrs[i]
            if done[i]:
                small += 1
                if small >= 3:
                    return part[i].reshape(w.shape).copy(), errsum + tmax[i]
            else:
                small = 0
        s = part[-1].copy()
        blk[0] = blk[rows]
        m = hi
    raise DomainError(f"series did not converge within {cap} terms "
                      f"(max |argument| = {np.max(np.abs(w)):.3g})")


def _max_abs(blk: np.ndarray) -> np.ndarray:
    """Row maxima of |blk|, read without forming |blk|.

    A row holding a NaN gives NaN, as np.abs would.  Only the sign of a
    zero or of a NaN can differ from np.abs; a zero maximum adds nothing to
    a sum that starts at +0.0, and a NaN row never ends the series.
    """
    return np.maximum(blk.max(axis=1), -blk.min(axis=1))


def _one_f0_vector(alpha: float, k1: int, w: np.ndarray) -> np.ndarray:
    """Closed forms of the innermost 1F0-type factor."""
    if _is_nonpositive_int(alpha) and k1 >= 1:
        n = int(round(-alpha))
        s = np.zeros_like(w)
        for m in range(n // k1 + 1):
            num = 1.0
            for i in range(k1 * m):
                num *= alpha + i
            s += num * w ** m / math.factorial(m)
        return s
    if k1 == 0:
        return np.exp(w)
    if k1 == 1:
        return np.exp(-alpha * np.log1p(-w))
    raise DomainError("non-terminating leading shift multiplier > 1")


def euler_step_integral(spec: PfqSpec, z: float, tol: float = 1e-10,
                        strict: bool = True) -> EvalResult:
    """One Euler step: the function as a weighted integral of its inner
    lower-order companion at argument z * t**k.

    The inner series shares one coefficient ladder across the refinement
    levels.  A ladder's coefficients depend only on the spec and the block
    index, so the values are those of a fresh ladder per level.
    """
    spec.validate(strict)
    inner, a_p, k_p, b_q = spec.peel_last()
    if not (b_q > a_p > 0.0):
        raise DomainError(
            f"Euler step needs last pairing beta > alpha > 0, got "
            f"({a_p}, {b_q})")
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
    inner_closed = inner.p == 1 and inner.q == 0
    if (not inner_closed and inner.p == inner.q + 1
            and abs(z) > _EULER_CUT):
        raise DomainError("inner series needs |z| <= 0.85 beyond the "
                          "Gauss level")

    lognorm = (gammaln_real(b_q) - gammaln_real(a_p)
               - gammaln_real(b_q - a_p))
    # every level sums the inner series on its new nodes from one ladder
    ladder = None if inner_closed or z == 1.0 else _CoeffLadder(inner, tol)

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    inner_err = 0.0
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if z == 1.0:
                a1, k1 = inner.upper[0]
                # fold (1 - t**k) = (1-t)(1 + t + ... + t**(k-1))
                poly = np.zeros_like(t)
                for i in range(k_p):
                    poly += t ** i
                powexp = ((a_p - 1.0) * np.log(t)
                          + (b_q - a_p - a1 - 1.0) * np.log(tc)
                          - a1 * np.log(poly))
                fv = np.ones_like(t)
            else:
                powexp = ((a_p - 1.0) * np.log(t)
                          + (b_q - a_p - 1.0) * np.log(tc))
                wz = z * t ** k_p
                if inner_closed:
                    a1, k1 = inner.upper[0]
                    fv = _one_f0_vector(a1, k1, wz)
                else:
                    fv, ierr = pfq_series_vector(inner, wz, tol,
                                                 ladder=ladder)
                    inner_err = max(inner_err, ierr)
            base = safe_theta_product(k, powexp, *unit_kernel(k, reg, level))
            vals = w * base * fv
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        s = vals.sum()
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = abs(totals - prev)
        if level >= 3 and err <= tol * math.exp(-lognorm):
            converged = True
            break
        prev = totals

    norm = math.exp(lognorm)
    return EvalResult(norm * totals, norm * (err + inner_err), nodes,
                      converged, "euler_integral")


def ext_pfq(spec: PfqSpec, z: float, tol: float = 1e-10,
            method: str = "auto", strict: bool = True) -> EvalResult:
    """Evaluate the extended generalized hypergeometric function."""
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got z={z}")
    spec.validate(strict)
    if method == "series":
        return pfq_series(spec, z, tol, strict)
    if method == "integral":
        return euler_step_integral(spec, z, tol, strict)
    if method != "auto":
        raise DomainError(f"unknown method {method!r}")
    if spec.p == spec.q + 1 and not spec.terminating():
        if z >= 1.0 or z <= -1.0 or abs(z) > _EULER_CUT or z < 0.0:
            if spec.p == 2 or abs(z) <= _EULER_CUT:
                return euler_step_integral(spec, z, tol, strict)
            raise DomainError(
                f"argument {z} outside the series domain and the Euler path")
        return pfq_series(spec, z, tol, strict)
    return pfq_series(spec, z, tol, strict)


def ext_2f1(kernel: KernelSpec, a1: float, a2: float, b1: float, z: float,
            reg: RegPair = RegPair(), tol: float = 1e-10,
            method: str = "auto", strict: bool = True) -> EvalResult:
    """Extended Gauss hypergeometric function."""
    spec = pfq_spec(kernel, (a1, a2), (b1,), reg)
    return ext_pfq(spec, z, tol, method, strict)


def ext_2f1_integral(kernel: KernelSpec, a1: float, a2: float, b1: float,
                     z: float, reg: RegPair = RegPair(),
                     tol: float = 1e-10) -> EvalResult:
    """Kernel-weighted Euler integral for the extended Gauss function."""
    spec = pfq_spec(kernel, (a1, a2), (b1,), reg)
    return euler_step_integral(spec, z, tol)


def derivative(spec: PfqSpec, z: float, n: int, tol: float = 1e-10) -> EvalResult:
    """n-th derivative: Pochhammer prefactor times the all-shifted function."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    if any(k != 1 for _a, k in spec.upper):
        raise DomainError("derivative formula needs all shift multipliers 1")
    if n == 0:
        return ext_pfq(spec, z, tol)
    pref = 1.0
    for a, _k in spec.upper:
        num = 1.0
        for i in range(n):
            num *= a + i
        pref *= num
    for b in spec.lower:
        den = 1.0
        for i in range(n):
            den *= b + i
        pref /= den
    inner = ext_pfq(spec.shifted(n), z, tol)
    return EvalResult(pref * inner.value, abs(pref) * inner.abs_err_est,
                      inner.terms_or_nodes, inner.converged, inner.method)


def derivative_weighted(kernel: KernelSpec, a1: float, a2: float, b1: float,
                        z: float, n: int, reg: RegPair = RegPair(),
                        tol: float = 1e-10,
                        variant: str = "proof") -> EvalResult:
    """Closed form of the n-th derivative of z**(a1+n-1) * F.

    The proof-derived right side shifts the first upper parameter by n; the
    printed variant leaves it unshifted and is retained for adjudication.
    """
    if a1 <= 0.0:
        raise DomainError("weighted derivative needs a1 > 0")
    if z <= 0.0:
        raise DomainError("weighted derivative evaluated for z > 0")
    shift = n if variant == "proof" else 0
    f = ext_2f1(kernel, a1 + shift, a2, b1, z, reg, tol)
    pref = 1.0
    for i in range(n):
        pref *= a1 + i
    pref *= z ** (a1 - 1.0)
    return EvalResult(pref * f.value, abs(pref) * f.abs_err_est,
                      f.terms_or_nodes, f.converged, f.method)


def weighted_derivative_lhs(kernel: KernelSpec, a1: float, a2: float,
                            b1: float, z: float, n: int,
                            reg: RegPair = RegPair(),
                            tol: float = 1e-10) -> float:
    """Left side of the weighted derivative identity by finite differences.

    Richardson-extrapolated central differences of z**(a1+n-1) * F.
    """
    def g(x: float) -> float:
        return x ** (a1 + n - 1.0) * ext_2f1(kernel, a1, a2, b1, x, reg,
                                             tol).value

    return _richardson_derivative(g, z, n)


def _central_diff(g, z: float, n: int, h: float) -> float:
    if n == 0:
        return g(z)
    if n == 1:
        return (g(z + h) - g(z - h)) / (2 * h)
    if n == 2:
        return (g(z + h) - 2 * g(z) + g(z - h)) / (h * h)
    if n == 3:
        return (g(z + 2 * h) - 2 * g(z + h) + 2 * g(z - h)
                - g(z - 2 * h)) / (2 * h ** 3)
    raise DomainError("finite differences implemented for n <= 3")


def _richardson_derivative(g, z: float, n: int, h: float = 1e-3) -> float:
    d1 = _central_diff(g, z, n, h)
    d2 = _central_diff(g, z, n, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def finite_difference_derivative(spec: PfqSpec, z: float, n: int,
                                 tol: float = 1e-10) -> float:
    """Independent derivative oracle for the shift formula."""
    def g(x: float) -> float:
        return ext_pfq(spec, x, tol).value

    return _richardson_derivative(g, z, n)


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
    return EvalResult(pref * f.value, abs(pref) * f.abs_err_est,
                      f.terms_or_nodes, f.converged, f.method)


def pfaff_parameter_action(a1: float, a2: float, b1: float, z: float,
                           b: float, d: float):
    """Parameter tuple produced by the proof-variant map (an involution)."""
    return (a1, b1 - a2, b1, z / (z - 1.0), d, b)


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
        pref = math.exp(z * reg.d / omz - z * reg.b)
        new_reg = RegPair(reg.d / omz, omz * reg.b)
    elif variant == "printed":
        pref = math.exp(-omz * reg.b - z * reg.d)
        new_reg = RegPair(reg.b / omz, omz * reg.d)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    pref *= omz ** (b1 - a2 - a1)
    f = ext_2f1(kernel, b1 - a1, b1 - a2, b1, z, new_reg, tol)
    return EvalResult(pref * f.value, abs(pref) * f.abs_err_est,
                      f.terms_or_nodes, f.converged, f.method)


_RECURRENCES = ("a1_plus", "a1_minus", "b1_plus", "a2_plus")


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

    err = 0.0
    if which == "a1_plus":
        lhs = F(a1 + n, a2, b1)
        acc = F(a1, a2, b1)
        total, err = acc.value, acc.abs_err_est
        for kk in range(1, n + 1):
            g = F(a1 + n - kk + 1, a2 + 1, b1 + 1)
            total += a2 * z / b1 * g.value
            err += abs(a2 * z / b1) * g.abs_err_est
        rhs = EvalResult(total, err, lhs.terms_or_nodes, True, "series")
        return lhs, rhs
    if which == "a1_minus":
        lhs = F(a1 - n, a2, b1)
        acc = F(a1, a2, b1)
        total, err = acc.value, acc.abs_err_est
        for kk in range(1, n + 1):
            g = F(a1 - kk + 1, a2 + 1, b1 + 1)
            total -= a2 * z / b1 * g.value
            err += abs(a2 * z / b1) * g.abs_err_est
        rhs = EvalResult(total, err, lhs.terms_or_nodes, True, "series")
        return lhs, rhs
    if which == "b1_plus":
        lhs = F(a1, a2, b1 + n)
        pref = 1.0
        for i in range(n):
            pref *= (b1 + i) / (b1 - a2 + i)
        total = 0.0
        for kk in range(n + 1):
            g = F(a1, a2 + kk, b1 + kk)
            coef = ((-1.0) ** kk * math.comb(n, kk)
                    * pochhammer(a2, kk) / pochhammer(b1, kk))
            total += coef * g.value
            err += abs(coef) * g.abs_err_est
        rhs = EvalResult(pref * total, abs(pref) * err, lhs.terms_or_nodes,
                         True, "series")
        return lhs, rhs
    # a2_plus: the derivation's finite binomial expansion is valid for the
    # positive power only, which lifts the left side's lower parameter by 2n.
    if variant == "proof":
        lhs = F(a1, a2 + n, b1 + 2 * n)
        pref = pochhammer(b1, 2 * n) / (pochhammer(b1 - a2, n)
                                        * pochhammer(a2, n))
        i_lo = 0
    elif variant == "printed":
        if not b1 - a2 - n > 0.0:
            raise DomainError("printed upper-second shift needs "
                              "b1 - a2 - n > 0")
        lhs = F(a1, a2 + n, b1)
        pref = pochhammer(b1 - a2, 2 * n) / (pochhammer(b1 - a2, n)
                                             * pochhammer(a2, n))
        i_lo = 1
    else:
        raise DomainError(f"unknown variant {variant!r}")
    total = 0.0
    for i in range(i_lo, n + 1):
        g = F(a1, a2 + n + i, b1 + n + i)
        coef = (pochhammer(-n, i) * pochhammer(a2, i + n)
                / (pochhammer(b1, i + n) * math.factorial(i)))
        total += coef * g.value
        err += abs(coef) * g.abs_err_est
    rhs = EvalResult(pref * total, abs(pref) * err, lhs.terms_or_nodes,
                     True, "series")
    return lhs, rhs


def summation_thm(kernel: KernelSpec, a1: float, a2: float, b1: float,
                  reg: RegPair = RegPair(),
                  tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Quadratic-shift summation at unit argument.

    Left side: the doubled-ladder function at z = 1 through its integral;
    right side: gamma quotient times the plain function at argument -1.
    """
    if not (b1 > a2 > 0.0):
        raise DomainError("needs b1 > a2 > 0")
    if not (b1 - a2 - a1 > 0.0):
        raise DomainError("needs b1 - a2 - a1 > 0")
    spec = PfqSpec(((a1, 1), (a2, 2)), (b1,), reg, kernel)
    lhs = euler_step_integral(spec, 1.0, tol)
    quot = math.exp(gammaln_real(b1) + gammaln_real(b1 - a2 - a1)
                    - gammaln_real(b1 - a2) - gammaln_real(b1 - a1))
    f = ext_2f1(kernel, a1, a2, b1 - a1, -1.0, reg, tol)
    rhs = EvalResult(quot * f.value, abs(quot) * f.abs_err_est,
                     f.terms_or_nodes, f.converged, f.method)
    return lhs, rhs


def frac_deriv(kernel: KernelSpec, mu: float, reg: RegPair, f, z: float,
               tol: float = 1e-10) -> EvalResult:
    """Kernel-weighted fractional derivative of order mu < 0 at z > 0.

    Computed on the unit interval after the substitution t = z v; only the
    negative-order branch is implemented (positive orders would require
    differentiating through the quadrature).
    """
    if mu >= 0.0:
        raise DomainError("only the mu < 0 branch is implemented")
    if z <= 0.0:
        raise DomainError("needs z > 0")
    lam = -mu
    k, r = kernel, reg

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powexp = (lam - 1.0) * np.log(tc)
            base = safe_theta_product(k, powexp, *unit_kernel(k, r, level))
            vals = w * base * np.asarray(f(z * t), dtype=float)
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        s = vals.sum()
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = abs(totals - prev)
        if level >= 3 and err <= tol:
            converged = True
            break
        prev = totals
    norm = z ** lam / math.exp(gammaln_real(lam))
    return EvalResult(norm * totals, norm * err, nodes, converged,
                      "quadrature")
