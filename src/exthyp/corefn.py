"""Classical special functions the kernel-regularized machinery builds on.

Log-gamma, the Pochhammer symbol, the Euler beta and the array confluent
hypergeometric function 1F1, which is the confluent kernel's value.
Nothing here depends on the regularized integrals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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

_KUMMER_EPS = 1e-15
_KUMMER_TERM_CAP = 30_000
# kummer_1f1_arr: its algebraic branch starts at w0(a, c) <= _KUMMER_CUT_MAX,
# and the first blocks of its series and of its algebraic expansion hold
# this many terms a node.
_KUMMER_CUT_MAX = 200.0
_SERIES_TERMS = 128
_ALGEBRAIC_TERMS = 16


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
    DomainError, so the Lanczos sum never overflows."""
    if not 0.0 < x <= _LN_GAMMA_MAX_ARG:
        raise DomainError(f"gammaln_real needs 0 < x <= {_LN_GAMMA_MAX_ARG:g}"
                          f" (log-gamma overflows above), got {x}")
    return _ln_gamma_right(complex(x)).real if x > 0.5 else ln_gamma(x).real


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
def _kummer_amplitude(a: float, c: float) -> float:
    """Gamma(c)/Gamma(c-a), the amplitude of the algebraic branch of 1F1."""
    g = np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(c - a))))
    return g.real


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
    times a polynomial, or of Gamma(c)/Gamma(c-a) (-z)^-a, which is also
    the top term of a polynomial 1F1(-n; c; z)."""
    if z > 0.0 and not _is_polynomial(a, c):
        return _kummer_amplitude(c - a, c) * math.inf
    if z < 0.0 and _is_polynomial(c - a, c):
        return 0.0
    return _kummer_amplitude(a, c) * (-z) ** (-a if z < 0.0 else round(-a))


def _block_sum(ratio, x: np.ndarray, asymptotic: bool = False) -> np.ndarray:
    """Per node, 1 + the sum of t_m = t_(m-1) ratio(m - 1) x over m >= 1.

    A (nodes x width) block takes the running product of ratio(m) x (m a
    float index array) and then the running sum along each row, so a node's
    bits depend on its x alone.  A row stops at a zero term, a non-finite
    sum or a third term in a row below _KUMMER_EPS of its sum; the rest go
    again twice as wide, with the same bits, up to a last sum at
    _KUMMER_TERM_CAP terms.  An ``asymptotic`` row whose sum turns non-finite
    diverges: it is cut off at its last smallest term before that (a term
    below both neighbours, or t_0), where a divergent expansion is closest.
    """
    out = np.empty_like(x)
    todo = np.arange(x.size)
    width = _ALGEBRAIC_TERMS if asymptotic else _SERIES_TERMS
    while todo.size:
        width = min(width, _KUMMER_TERM_CAP)
        terms = np.cumprod(x[todo, None] * ratio(np.arange(width, dtype=float)),
                           axis=1)
        sums = 1.0 + np.cumsum(terms, axis=1)
        tiny = np.abs(terms) < _KUMMER_EPS * np.abs(sums)
        stop = (terms == 0.0) | ~np.isfinite(sums)
        stop[:, 2:] |= tiny[:, 2:] & tiny[:, 1:-1] & tiny[:, :-2]
        stop[:, -1] |= width == _KUMMER_TERM_CAP
        first = stop.argmax(axis=1)
        rows = np.arange(todo.size)
        out[todo] = sums[rows, first]  # final where the row stopped
        if asymptotic and not np.isfinite(out[todo]).all():
            div = ~np.isfinite(out[todo])  # 1 + the terms up to t_last
            fell = np.diff(np.abs(terms[div]), axis=1, prepend=1.0) < 0.0
            low = np.arange(1, width) * (fell[:, :-1] & ~fell[:, 1:])
            last = np.where(low <= first[div, None], low, 0).max(axis=1)
            out[todo[div]] = np.where(last > 0, sums[div, last - 1], 1.0)
        todo = todo[~stop[rows, first]]
        width *= 2
    return out


def kummer_algebraic_tail(a: float, c: float,
                          w: np.ndarray) -> tuple[float, np.ndarray]:
    """Algebraic branch of 1F1(a; c; -w) for large w > 0.

    Returns the amplitude Gamma(c)/Gamma(c-a) and the sum of the expansion
    1F1(a; c; -w) ~ amplitude * w**-a * 2F0(a, a-c+1;; 1/w).
    """
    return _kummer_amplitude(a, c), _block_sum(
        lambda m: (a + m) * (a - c + 1.0 + m) / (m + 1.0),
        1.0 / np.asarray(w, dtype=float), asymptotic=True)


def kummer_1f1_arr(a: float, c: float, z: np.ndarray) -> np.ndarray:
    """Confluent hypergeometric 1F1(a; c; z) over a real array.

    The algebraic branch serves z <= -w0(a, c) (``_kummer_cut``).  Above
    it the series is summed, after Kummer's transformation
    1F1(a; c; z) = exp(z) 1F1(c-a; c; -z) for z <= 0.  Both
    are ``_block_sum``s, so a node's value depends on (a, c, z) alone.  An
    infinite node takes the limit there, and a NaN node stays NaN.
    """
    z = np.asarray(z, dtype=float)
    out = z.copy()  # a NaN node stays NaN
    fin = np.isfinite(z)
    if not fin.all():
        out[z == math.inf] = _kummer_at_inf(a, c, math.inf)
        out[z == -math.inf] = _kummer_at_inf(a, c, -math.inf)
    alg = fin & (z <= -_kummer_cut(a, c))
    neg = fin & (z <= 0.0) & ~alg
    pos = fin & (z > 0.0)
    out[neg] = np.exp(z[neg]) * _block_sum(
        lambda m: (c - a + m) / ((c + m) * (m + 1.0)), -z[neg])
    out[pos] = _block_sum(lambda m: (a + m) / ((c + m) * (m + 1.0)), z[pos])
    if alg.any():
        amp, s = kummer_algebraic_tail(a, c, -z[alg])
        out[alg] = amp * np.exp(-a * np.log(-z[alg])) * s
    return out
