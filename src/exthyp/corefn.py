"""Classical special functions the kernel-regularized machinery builds on.

Log-gamma, the Pochhammer symbol, the Euler beta and the array confluent
hypergeometric function 1F1, which is the confluent kernel's value.
Nothing here depends on the regularized integrals.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .quadrature import _BATCH_BLOCK_FLOATS, _running
from .results import DomainError

_LOG_SQRT_2PI = 0.9189385332046727417803297364
# (x - 0.5) log(x + g - 0.5) in the Lanczos log-gamma overflows from
# x = 2.6e305 on.
_LN_GAMMA_MAX_ARG = 1e305

# Lanczos coefficients (g = 607/128, 15 terms); relative error below 1e-14
# on the right half-plane.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Euler betas kept by ``beta_classical``.  A full conformance pass asks for
# 84 distinct argument pairs (336 calls), so a repeated pass finds them all.
_BETA_CACHE_SIZE = 128

# kummer_1f1_arr: its algebraic branch starts at w0(a, c) <= _KUMMER_CUT_MAX.
_KUMMER_CUT_MAX = 200.0
# The truncation bound of kummer_1f1_arr's coefficient tables, relative to
# their first coefficient 1.
_KUMMER_SMALL = 2.0 ** -56
# The largest coefficient a table keeps: a few thousand of them times powers
# <= 1 add up to a finite sum.
_KUMMER_COEFF_MAX = 1e300
# The longest series table: two columns of its powers fill a block of
# _BATCH_BLOCK_FLOATS.
_KUMMER_SERIES_MAX = _BATCH_BLOCK_FLOATS // 2
# exp(x) rounds to 0.0 for every x below log(2**-1075) = -745.13 (half the
# smallest subnormal); the margin covers the rounding of log-gamma sums.
_EXP_ZERO_CUT = -750.0

def _is_nonpositive_int(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def _is_polynomial(x: float, c: float) -> bool:
    """Whether x is within 1e-12 min(c, 1) of a nonpositive integer."""
    return _is_nonpositive_int(x, 1e-12 * min(abs(c), 1.0))


def _ln_gamma_right(z):
    """Lanczos sum; valid for Re(z) > 0.5 (scalar or ndarray, complex)."""
    zm1 = z - 1.0
    s = np.full_like(np.asarray(z, dtype=complex), _LANCZOS_C[0])
    for k, c in enumerate(_LANCZOS_C[1:], start=1):
        s = s + c / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def ln_gamma(z: complex) -> complex:
    """log Gamma: principal branch on Re(z) > 0 (recurrence into the Lanczos
    region), reflection for Re(z) <= 0 (principal up to multiples of 2 pi i
    off the real axis; the exponential is always exact).  The reflection
    takes sin(pi z) = (-1)^n sin(pi (z - n)), n = round(Re z), whose
    reduced argument is exact, so no digits are lost next to a pole.

    Raises DomainError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and _is_nonpositive_int(z.real):
        raise DomainError(f"log-gamma pole at z={z.real}")
    if z.real > 0.5:
        return complex(_ln_gamma_right(z))
    if z.real > 0.0:
        return complex(_ln_gamma_right(z + 1.0) - np.log(z))
    n = round(z.real)
    sin = np.sin(math.pi * (z - n))
    refl = math.log(math.pi) - np.log(-sin if n % 2 else sin)
    return complex(refl - ln_gamma(1.0 - z))


def ln_gamma_arr(z: np.ndarray) -> np.ndarray:
    """Vectorized log Gamma with the same branch structure (no pole checks)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    right = z.real > 0.5
    strip = (z.real > 0.0) & ~right
    left = z.real <= 0.0
    if np.any(right):
        out[right] = _ln_gamma_right(z[right])
    if np.any(strip):
        zs = z[strip]
        out[strip] = _ln_gamma_right(zs + 1.0) - np.log(zs)
    if np.any(left):
        zl = z[left]
        n = np.round(zl.real)
        sin = np.sin(math.pi * (zl - n))
        out[left] = (math.log(math.pi) - np.log(np.where(n % 2, -sin, sin))
                     - _ln_gamma_right(1.0 - zl))
    return out


def gammaln_real(x: float) -> float:
    """log Gamma on (0, ``_LN_GAMMA_MAX_ARG``]; any other x (NaN too) is a
    DomainError, so the Lanczos sum never overflows.

    The Lanczos sum of ``_ln_gamma_right`` in real arithmetic, with the
    recurrence below 0.5: each term c / (x - 1 + k) is one division, where
    the complex sum multiplies c by 1 / (x - 1 + k), so the two may differ
    in the last bit.
    """
    if not 0.0 < x <= _LN_GAMMA_MAX_ARG:
        raise DomainError(f"gammaln_real needs 0 < x <= {_LN_GAMMA_MAX_ARG:g}"
                          f" (log-gamma overflows above), got {x}")
    shift = 0.0 if x > 0.5 else math.log(x)
    xm1 = (x if x > 0.5 else x + 1.0) - 1.0
    s = _LANCZOS_C[0]
    for k, c in enumerate(_LANCZOS_C[1:], start=1):
        s += c / (xm1 + k)
    t = xm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (xm1 + 0.5) * math.log(t) - t + math.log(s) - shift


def pochhammer(a: float, m: int) -> float:
    """Rising factorial a (a+1) ... (a+m-1); equals 1 at m = 0."""
    if m < 0:
        raise DomainError("pochhammer needs m >= 0")
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def log_inv_beta(a: float, c: float) -> float:
    """log 1/B(a, c - a) = log Gamma(c) - log Gamma(a) - log Gamma(c - a),
    the Euler integrals' normalisation (``gammaln_real`` checks the range)."""
    return gammaln_real(c) - gammaln_real(a) - gammaln_real(c - a)


@functools.lru_cache(maxsize=_BETA_CACHE_SIZE)
def beta_classical(a: float, b: float) -> float:
    """Euler beta for positive arguments, via the gamma quotient (cached).

    Arguments that are not positive, or whose sum exceeds
    ``_LN_GAMMA_MAX_ARG``, are refused by ``gammaln_real``; a beta past the
    double range (near a zero argument) is a DomainError too.
    """
    try:
        return math.exp(gammaln_real(a) + gammaln_real(b)
                        - gammaln_real(a + b))
    except OverflowError:
        raise DomainError(f"B({a}, {b}) overflows") from None


@functools.lru_cache(maxsize=128)
def _kummer_log_amplitude(c: float, p: float) -> complex:
    """log Gamma(c) - log Gamma(p), whose exponential is
    ``_kummer_amplitude``."""
    return complex(ln_gamma(complex(c)) - ln_gamma(complex(p)))


@functools.lru_cache(maxsize=128)
def _kummer_amplitude(c: float, p: float) -> float:
    """Gamma(c)/Gamma(p): at p = c - a, the amplitude of the algebraic
    branch of 1F1(a; c; -w)."""
    return np.exp(_kummer_log_amplitude(c, p)).real


@functools.lru_cache(maxsize=128)
def _kummer_cut(a: float, c: float) -> float:
    """w0: the smallest w in 1, ..., 200 from which on the algebraic series
    of 1F1(a; c; -w) falls at least like 3^-k, and its smallest term and the
    exponential piece it drops, |Gamma(c-a)/Gamma(a)| e^-w w^(2a-c), are
    below 2^-56 of its first (DLMF 13.7); 200 if none; inf where c - a is a
    nonpositive integer."""
    if _is_polynomial(c - a, c):
        return math.inf
    ulp = -56.0 * math.log(2.0)
    k = np.arange(1.0, 2.0 * _KUMMER_CUT_MAX + 1.0)
    with np.errstate(divide="ignore"):
        logt = np.cumsum(np.log(np.abs((a + k - 1.0) * (a - c + k) / k)))
    w = np.arange(1.0, _KUMMER_CUT_MAX + 1.0)
    # term k is below 2^-56 once log w > (log|coefficient| + 56 ln 2) / k
    bad = np.log(w) <= np.min((logt - ulp) / k)
    # |t_k / t_(k-1)| = (a+k-1) |a-c+k| / (k w) <= max(a, 1) (c-a-1) / w
    bad |= w < 3.0 * max(a, 1.0) * (c - a - 1.0)
    if not _is_polynomial(a, c):
        bad |= (math.lgamma(c - a) - math.lgamma(a) - w
                + (2.0 * a - c) * np.log(w)) >= ulp
    return min(w[bad].max(initial=0.0) + 1.0, _KUMMER_CUT_MAX)


def _kummer_at_inf(a: float, c: float, z: float) -> float:
    """1F1(a; c; +-inf): the limit of Gamma(c)/Gamma(a) e^z z^(a-c), of e^z
    times a polynomial, or of Gamma(c)/Gamma(c-a) (-z)^-a (also the top
    term of a polynomial 1F1(-n; c; z)): 0, +-inf or 1, so only the sign
    of the gamma ratio counts, read off its log."""
    if z < 0.0 and _is_polynomial(c - a, c):
        return 0.0
    if z > 0.0 and not _is_polynomial(a, c):
        p, power = a, math.inf
    else:
        p, power = c - a, (-z) ** (-a if z < 0.0 else round(-a))
    return power * np.sign(math.cos(_kummer_log_amplitude(c, p).imag))


@functools.lru_cache(maxsize=128)
def _series_table(p: float, c: float, reach: float,
                  scale: float) -> np.ndarray | None:
    """Taylor coefficients of 1F1(p; c; scale y) in y, c > 0, for the
    nodes x = scale y in [0, reach], reach <= scale.

    The table ends at the first zero step p + m = 0 (a polynomial keeps its
    coefficients up to its degree) or at the first term u_m of the series at
    x = reach whose geometric tail u_m q_m / (1 - q_m) is at most
    _KUMMER_SMALL times u_0 + ... + u_m (Johansson, ACM TOMS 2019, sec. 5):
    q_m = max(1, |p + m| / (c + m)) reach / (m + 1) bounds every later ratio
    of its terms.  The share of the moduli of the terms past the table grows
    with x, so at every node x in [0, reach] the truncation is within
    _KUMMER_SMALL sum |term|.  None if a kept coefficient leaves
    [-_KUMMER_COEFF_MAX, _KUMMER_COEFF_MAX] or the table would pass
    _KUMMER_SERIES_MAX coefficients.
    """
    size = min(int(3.0 * reach) + 32, _KUMMER_SERIES_MAX - 1)
    while True:
        m = np.arange(float(size))
        with np.errstate(over="ignore", invalid="ignore"):
            step = (p + m) / ((c + m) * (m + 1.0))
            coef = np.cumprod(np.concatenate(([1.0], step * scale)))
            ratio = np.abs(step) * reach  # |u_(m+1) / u_m|
            u = np.cumprod(np.concatenate(([1.0], ratio[:-1])))
            q = np.maximum(ratio, reach / (m + 1.0))
            # u_m q_m / (1 - q_m) <= bound, written without a division
            bound = _KUMMER_SMALL * np.cumsum(u)
            small = q * (u + bound) <= bound
        ends = np.flatnonzero(small | (step == 0.0))
        if ends.size:
            coef = coef[:ends[0] + 1]
            return coef if np.abs(coef).max() <= _KUMMER_COEFF_MAX else None
        if not np.abs(coef).max() <= _KUMMER_COEFF_MAX \
                or size == _KUMMER_SERIES_MAX - 1:
            return None
        size = min(2 * size, _KUMMER_SERIES_MAX - 1)


def _algebraic_table(a: float, p: float,
                     scale: float) -> tuple[np.ndarray, bool]:
    """Coefficients of 2F0(a, 1 - p;; y / scale), the algebraic series of
    1F1(a; c; -w) in y = scale / w, p = c - a (DLMF 13.7.2), and whether
    each node stops at its own smallest term.

    The table ends before its first coefficient of modulus at most
    _KUMMER_SMALL (a zero one of a terminating series too), which w0(a, c)
    puts within 2 _KUMMER_CUT_MAX terms.  Where there is none (w0 capped at
    _KUMMER_CUT_MAX), it ends before its first coefficient out of
    _KUMMER_COEFF_MAX, or at 2 _KUMMER_CUT_MAX + 1 terms, and each node's
    sum stops at its own smallest term.
    """
    for size in (64, 2 * int(_KUMMER_CUT_MAX)):
        k = np.arange(float(size))
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.cumprod(np.concatenate(
                ([1.0], (a + k) * (1.0 - p + k) / ((k + 1.0) * scale))))
        mag = np.abs(coef)
        small = mag <= _KUMMER_SMALL
        ends = np.flatnonzero(small | ~(mag <= _KUMMER_COEFF_MAX))
        if ends.size:
            return coef[:ends[0]], not small[ends[0]]
    return coef, True


class _KummerTables(NamedTuple):
    """The cut and the algebraic table of one (a, c - a, c), for
    1F1(a; c; -w)."""

    w0: float  # the cut (``_kummer_cut``)
    algebraic: np.ndarray  # 2F0 in y = min(w0, _KUMMER_CUT_MAX) / w
    smallest: bool  # each algebraic sum stops at its smallest term


@functools.lru_cache(maxsize=128)
def _kummer_tables(a: float, p: float, c: float) -> _KummerTables:
    """The cut and the algebraic table of 1F1(a; c; -w), p = c - a, built
    once per (a, p, c).  p is passed, not formed from a and c, so that
    Kummer's transformation can take the tables of (c - a, a, c) with a
    exact."""
    w0 = _kummer_cut(a, c)
    return _KummerTables(w0, *_algebraic_table(a, p, min(w0, _KUMMER_CUT_MAX)))


def _power_sums(coef: np.ndarray | None, y: np.ndarray,
                smallest: bool = False) -> np.ndarray:
    """Per node, the sum of coef[m] y**m over the table (NaN if the table
    is None), a block of at most _BATCH_BLOCK_FLOATS terms at a time.

    Column j of a block holds node j's powers y**m: up to m = h =
    ceil((n - 1) / 2), each the one before times y (``quadrature._running``),
    and past h, y**(h + i) = y**i y**h; then its terms.  numpy adds the
    rows of a block of two or more columns in order down each column (a
    lone column it adds pairwise, so a lone node is summed next to a column
    of zeros), and a node's bits depend on its y and the table alone.  A
    running add down the rows would pin that order by construction, but on
    a (30, 312) block it took 24 us against 1.7 us for the sum (numpy 2.4,
    2-core x86-64).  With ``smallest`` a node's terms after the smallest of
    its terms that fell below the one before (t_0 if none; a smallest such
    term is below both neighbours, where a divergent expansion is closest)
    are dropped first.
    """
    if coef is None:
        return np.full(y.shape, math.nan)
    n = coef.size
    half = n // 2
    out = np.empty(y.shape)
    cols = max(2, _BATCH_BLOCK_FLOATS // n)
    for start in range(0, y.size, cols):
        part = y[start:start + cols]
        terms = np.zeros((n, max(part.size, 2)))
        terms[0] = 1.0
        terms[1:half + 1, :part.size] = part
        _running(np.multiply, terms[:half + 1])
        np.multiply(terms[1:n - half], terms[half], out=terms[half + 1:])
        terms *= coef[:, None]
        if smallest:
            mag = np.abs(terms)
            fell = np.zeros(mag.shape, dtype=bool)
            fell[1:] = mag[1:] < mag[:-1]
            stop = np.where(fell, mag, math.inf).argmin(axis=0)
            terms[np.arange(n)[:, None] > stop] = 0.0
        out[start:start + cols] = terms.sum(axis=0)[:part.size]
    return out


def _series_sums(p: float, c: float, w0: float, x: np.ndarray) -> np.ndarray:
    """1F1(p; c; x) at the nodes 0 <= x < w0 from the series tables: one
    certified at w0, at the scale 2^k >= w0, serves all; where w0 is
    infinite (a polynomial or near one, and the series of z > 0), each node
    x < 2^k, k >= 0 the least, takes the table certified at 2^k, so no
    table has to reach the largest node."""
    if not math.isinf(w0):
        scale = 2.0 ** math.ceil(math.log2(w0))  # so y = x / scale is exact
        return _power_sums(_series_table(p, c, w0, scale), x / scale)
    octave = np.maximum(np.frexp(x)[1], 0)
    out = np.empty_like(x)
    for k in np.unique(octave):
        at = octave == k
        scale = math.ldexp(1.0, int(k))
        out[at] = _power_sums(_series_table(p, c, scale, scale),
                              x[at] / scale)
    return out


def kummer_algebraic_tail(a: float, c: float,
                          w: np.ndarray) -> tuple[float, np.ndarray]:
    """Algebraic branch of 1F1(a; c; -w) for w >= min(w0(a, c), 200).

    Returns the amplitude Gamma(c)/Gamma(c-a) and the sum of the expansion
    1F1(a; c; -w) ~ amplitude * w**-a * 2F0(a, a-c+1;; 1/w).
    """
    return _kummer_amplitude(c, c - a), _algebraic_sums(a, c - a, c, w)


def _algebraic_sums(a: float, p: float, c: float,
                    w: np.ndarray) -> np.ndarray:
    """The 2F0 sums of ``kummer_algebraic_tail`` with p = c - a given."""
    tab = _kummer_tables(a, p, c)
    y = min(tab.w0, _KUMMER_CUT_MAX) / np.asarray(w, dtype=float)
    return _power_sums(tab.algebraic, y, tab.smallest)


def _polynomial_underflows(n: float, c: float, w: np.ndarray) -> np.ndarray:
    """Whether e^-w sum_m |c_m| w^m, c_m the coefficients of the polynomial
    1F1(-n; c; w), is below 2^-1075 at the nodes w > 0, so that e^-w
    1F1(-n; c; w) rounds to 0.

    The sum is at most n + 1 times its largest term, and in logs
    log |c_m| w^m = log C(n, m) - log (c)_m + m log w is concave in m: the
    terms grow while (n - m) w >= (m + 1)(c + m), that is up to m = r, the
    root of that quadratic, so the largest is at floor(r) + 1 (clipped to
    0..n).  Its three neighbours floor(r) .. floor(r) + 2 are all taken,
    which covers the rounding of r.
    """
    # from w = n (c + n) on every term grows, r >= n - 1, and the square
    # below stays finite
    wq = np.minimum(w, n * (c + n))
    half = c + 1.0 + wq
    prod = n * wq - c
    root = 2.0 * prod / (half + np.sqrt(half * half + 4.0 * prod))
    m = np.clip(np.floor(root) + np.arange(3.0)[:, None], 0.0, n)
    lg = ln_gamma_arr(np.stack([m + 1.0, n + 1.0 - m, c + m])).real
    log_term = (gammaln_real(n + 1.0) + gammaln_real(c) - lg.sum(axis=0)
                + m * np.log(w))
    return (math.log(n + 1.0) + log_term.max(axis=0) - w) < _EXP_ZERO_CUT


def _kummer_neg(a: float, p: float, c: float, w: np.ndarray) -> np.ndarray:
    """1F1(a; c; -w), p = c - a, at finite w >= 0: the series of
    exp(w) 1F1(a; c; -w) = 1F1(p; c; w) (Kummer's transformation) below
    w0(a, c), and the algebraic branch from w0 on.  Where p = -n is a
    nonpositive integer, a node whose series leaves the double range takes
    0 if ``_polynomial_underflows`` certifies it, the limit at -inf."""
    w0 = _kummer_tables(a, p, c).w0
    out = np.empty_like(w)
    ser = w < w0
    if ser.any():
        ws = w[ser]
        vals = np.exp(-ws) * _series_sums(p, c, w0, ws)
        lost = ~np.isfinite(vals)
        if p <= 0.0 and p == round(p) and lost.any():
            vals[lost] = np.where(_polynomial_underflows(-p, c, ws[lost]),
                                  0.0, vals[lost])
        out[ser] = vals
    alg = ~ser
    if alg.any():
        wa = w[alg]
        out[alg] = (_kummer_amplitude(c, p) * np.exp(-a * np.log(wa))
                    * _algebraic_sums(a, p, c, wa))
    return out


def _kummer_pos(a: float, c: float, x: np.ndarray) -> np.ndarray:
    """1F1(a; c; x) at finite x > 0: the series, whose terms keep one sign
    past the first |a|, from the tables by octave.  Where an octave's table
    overflows, and a is not within ``_is_polynomial`` of a nonpositive
    integer, the algebraic branch of exp(x) 1F1(c - a; c; -x) (Kummer's
    transformation), exp(x) Gamma(c)/Gamma(a) x^(a - c) 2F0, with the
    tables of (c - a, a, c) and a exact; it is formed as one exponential,
    so that neither e^x nor the amplitude overflows alone; a value past
    the double range is inf."""
    out = _series_sums(a, c, math.inf, x)
    lost = np.isnan(out)  # the table of the node's octave overflowed
    if lost.any() and not _is_polynomial(a, c):
        xl = x[lost]
        with np.errstate(over="ignore"):  # past the double range: inf
            lead = np.exp(xl - (c - a) * np.log(xl)
                          + _kummer_log_amplitude(c, a))
        out[lost] = lead.real * _algebraic_sums(c - a, a, c, xl)
    return out


def kummer_1f1_arr(a: float, c: float, z: np.ndarray) -> np.ndarray:
    """Confluent hypergeometric 1F1(a; c; z) over a real array.

    z <= 0 takes the series after Kummer's transformation above -w0(a, c)
    and the algebraic branch from there down (``_kummer_neg``); z > 0 takes
    the series, and where it overflows the algebraic branch of the pair
    (c - a, c) (``_kummer_pos``).  Both sum from the same cached tables
    (``_power_sums``).  A node's value depends on (a, c, z) alone.  An infinite node takes the limit
    there, and a NaN node stays NaN.
    """
    z = np.asarray(z, dtype=float)
    out = z.copy()  # a NaN node stays NaN
    fin = np.isfinite(z)
    if not fin.all():
        up, down = z == math.inf, z == -math.inf
        if up.any():
            out[up] = _kummer_at_inf(a, c, math.inf)
        if down.any():
            out[down] = _kummer_at_inf(a, c, -math.inf)
    neg = fin & (z <= 0.0)
    pos = fin & (z > 0.0)
    if neg.any():
        out[neg] = _kummer_neg(a, c - a, c, -z[neg])
    if pos.any():
        out[pos] = _kummer_pos(a, c, z[pos])
    return out
