"""Classical special functions: building blocks and reference oracles.

Everything here is independent of the kernel-regularized machinery so the
b = d = 0 reductions of the extended functions can be checked against a
genuinely different computation path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_unit2
from .results import DomainError, EvalResult

_LOG_SQRT_2PI = 0.9189385332046727417803297364

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

SERIES_EPS = 1e-15
SERIES_CAP = 10_000


def _is_nonpositive_int(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


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
    off the real axis; the exponential is always exact).

    Raises DomainError at the poles (nonpositive integers).
    """
    z = complex(z)
    if z.imag == 0.0 and _is_nonpositive_int(z.real):
        raise DomainError(f"log-gamma pole at z={z.real}")
    if z.real > 0.5:
        return complex(_ln_gamma_right(z))
    if z.real > 0.0:
        return complex(_ln_gamma_right(z + 1.0) - np.log(z))
    refl = math.log(math.pi) - np.log(np.sin(math.pi * z))
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
        out[left] = (math.log(math.pi) - np.log(np.sin(math.pi * zl))
                     - _ln_gamma_right(1.0 - zl))
    return out


def gammaln_real(x: float) -> float:
    """log Gamma on the positive real axis."""
    if x <= 0.0:
        raise DomainError(f"gammaln_real needs x > 0, got {x}")
    return _ln_gamma_right(complex(x)).real if x > 0.5 else ln_gamma(x).real


def pochhammer(a: float, m: int) -> float:
    """Rising factorial a (a+1) ... (a+m-1); equals 1 at m = 0."""
    if m < 0:
        raise DomainError("pochhammer needs m >= 0")
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def beta_classical(a: float, b: float) -> float:
    """Euler beta for positive arguments, via the gamma quotient."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_classical needs a,b > 0, got ({a}, {b})")
    return math.exp(gammaln_real(a) + gammaln_real(b) - gammaln_real(a + b))


def beta_signed(a: float, b: float) -> float:
    """Gamma-quotient beta continued to negative non-integer arguments.

    Used as the series normalizer when domain checks are relaxed.
    """
    if a > 0.0 and b > 0.0:
        return beta_classical(a, b)
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        raise DomainError(f"beta pole at ({a}, {b})")
    if _is_nonpositive_int(a + b):
        return 0.0
    v = np.exp(complex(ln_gamma(complex(a)) + ln_gamma(complex(b))
                       - ln_gamma(complex(a + b))))
    return float(v.real)


@dataclass(frozen=True)
class ClassicalPfqSpec:
    """Upper/lower parameter lists of a classical hypergeometric series."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]

    def __post_init__(self):
        for b in self.lower:
            if _is_nonpositive_int(b):
                raise DomainError(f"lower parameter {b} is a nonpositive integer")


def _series_sum(term_ratio, first_term: float, cap: int = SERIES_CAP):
    """Sum term_0 * prod of ratios with the three-small-terms stopping rule.

    Returns (value, tail_estimate, terms, converged).  The tail estimate is
    a geometric bound from the last two terms, guarded by ratio < 0.9.
    """
    s = first_term
    t = first_term
    small = 0
    ratio = 0.0
    for m in range(1, cap):
        r = term_ratio(m - 1)
        t_new = t * r
        s += t_new
        ratio = abs(t_new) / abs(t) if t != 0.0 else 0.0
        t = t_new
        if t == 0.0:
            return s, 0.0, m + 1, True  # terminated exactly
        if abs(t) < SERIES_EPS * abs(s):
            small += 1
            if small >= 3:
                tail = abs(t) * ratio / (1 - ratio) if ratio < 0.9 else abs(t)
                return s, tail + SERIES_EPS * abs(s), m + 1, True
        else:
            small = 0
    tail = abs(t) * ratio / (1 - ratio) if ratio < 0.9 else abs(t) * 10
    return s, tail, cap, False


def _kummer_direct(a: float, c: float, z: float) -> EvalResult:
    def ratio(m):
        return (a + m) / (c + m) * z / (m + 1)

    value, tail, n, ok = _series_sum(ratio, 1.0)
    return EvalResult(value, tail, n, ok, "series")


def _kummer_asymptotic_neg(a: float, c: float, z: float) -> EvalResult:
    """Large negative argument: leading algebraic branch of 1F1."""
    w = -z
    lead = _kummer_amplitude(a, c) * math.exp(-a * math.log(w))
    s = 1.0
    term = 1.0
    last = math.inf
    used = 1
    for k in range(1, 30):
        term *= (a + k - 1) * (a - c + k) / (k * w)
        if abs(term) > last:
            break  # optimal truncation reached
        s += term
        last = abs(term)
        used = k + 1
    return EvalResult(lead * s, abs(lead) * last, used, True, "series")


def kummer_1f1(a: float, c: float, z: float) -> EvalResult:
    """Confluent hypergeometric 1F1(a; c; z) for real arguments.

    Negative arguments go through the exp-weighted reflection of the series
    so alternating cancellation never occurs; very large negative arguments
    use the algebraic asymptotic branch.  A NaN or +inf argument is a
    DomainError; -inf keeps the limit of the branch it reaches.
    """
    if _is_nonpositive_int(c):
        raise DomainError(f"1F1 pole: c={c} is a nonpositive integer")
    if math.isnan(z) or z == math.inf:
        raise DomainError(f"1F1 needs a finite argument, got z={z}")
    if _is_nonpositive_int(a):
        # terminating polynomial
        n = int(round(-a))
        s = 0.0
        term = 1.0
        for m in range(n + 1):
            s += term
            term *= (a + m) / (c + m) * z / (m + 1)
        return EvalResult(s, 0.0, n + 1, True, "series")
    if z >= 0.0:
        return _kummer_direct(a, c, z)
    if z > -200.0 or _is_nonpositive_int(c - a):
        inner = _kummer_direct(c - a, c, -z)
        ez = math.exp(z)
        return EvalResult(ez * inner.value, ez * inner.abs_err_est + 1e-300,
                          inner.terms_or_nodes, inner.converged, "series")
    return _kummer_asymptotic_neg(a, c, z)


@functools.lru_cache(maxsize=128)
def _kummer_amplitude(a: float, c: float) -> float:
    """Gamma(c)/Gamma(c-a), the amplitude of the algebraic branch of 1F1."""
    g = np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(c - a))))
    return g.real


def kummer_algebraic_tail(a: float, c: float,
                          w: np.ndarray) -> tuple[float, np.ndarray]:
    """Algebraic branch of 1F1(a; c; -w) for large w > 0.

    Returns the amplitude Gamma(c)/Gamma(c-a) and the 24-term correction sum
    of the expansion 1F1(a; c; -w) ~ amplitude * w**-a * sum.  The in-place
    steps round like term = term * (a+k-1) * (a-c+k) / (k*w); s = s + term.
    """
    w = np.asarray(w, dtype=float)
    s = np.ones_like(w)
    term = np.ones_like(w)
    for k in range(1, 25):
        term *= a + k - 1
        term *= a - c + k
        term /= k * w
        s += term
    return _kummer_amplitude(a, c), s


def _kummer_series_node(aa: float, c: float, w: float) -> float:
    """Series of 1F1(aa; c; w) at one node, stopped by its own terms.

    A NaN partial sum (s != s) ends the loop at once: NaN absorbs every later
    term, so the result is the same.  An infinite one does not, because a
    later 0 * inf term can still turn it into NaN.  With s NaN the
    small-term comparison is false, so the NaN test only runs on the branch
    where that comparison fails.

    With aa > 0, c > 0 and finite w > 0 every term is >= 0 and s >= 1, so
    the absolute values drop out, no term is NaN, and a zero term always
    takes the small-term branch.  That case runs a lean loop: the same double
    operations in the same order, with a float index m (aa + m, c + m and
    m + 1 are exact either way).
    """
    if aa > 0.0 and c > 0.0 and 0.0 < w < math.inf:
        eps = SERIES_EPS
        s = 1.0
        term = 1.0
        small = 0
        m = 0.0
        for _ in range(SERIES_CAP * 3):
            term = term * (aa + m) / (c + m) * w / (m + 1.0)
            s = s + term
            m += 1.0
            if term < eps * s:
                small += 1
                if small >= 3 or term == 0.0:
                    break
            else:
                small = 0
        return s
    s = 1.0
    term = 1.0
    small = 0
    for m in range(SERIES_CAP * 3):
        term = term * (aa + m) / (c + m) * w / (m + 1)
        s = s + term
        if abs(term) < SERIES_EPS * abs(s):
            small = small + 1
            if small >= 3 or term == 0.0:
                break
        else:
            small = 0
            if term == 0.0 or s != s:
                break
    return s


def kummer_1f1_arr(a: float, c: float, z: np.ndarray) -> np.ndarray:
    """Vectorized 1F1 over a real array; same branch logic as kummer_1f1.

    Below z = -200 the algebraic branch is evaluated over the whole array.
    Elsewhere each node sums its own series, after Kummer's transformation
    1F1(a; c; z) = exp(z) 1F1(c-a; c; -z) for z < 0, and stops when three
    successive terms of its own are below SERIES_EPS of its partial sum, or
    a term is exactly zero.  Each node's arithmetic is the same sequence of
    double operations as a lock-step sum over the array with a per-node stop
    mask, so the results are bit-identical to it; only the nodes that need
    many terms pay for them.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    neg_big = z <= -200.0
    if _is_nonpositive_int(c - a):
        neg_big = np.zeros_like(neg_big)
    rest = ~neg_big
    if np.any(rest):
        zr = z[rest]
        transform = zr < 0.0
        ca = c - a
        s = np.array([_kummer_series_node(ca, c, -x) if x < 0.0
                      else _kummer_series_node(a, c, x)
                      for x in zr.tolist()])
        out[rest] = np.where(transform, np.exp(zr) * s, s)
    if np.any(neg_big):
        w = -z[neg_big]
        amp, s = kummer_algebraic_tail(a, c, w)
        out[neg_big] = amp * np.exp(-a * np.log(w)) * s
    return out


def _pfq_series(upper, lower, z: float) -> EvalResult:
    def ratio(m):
        num = 1.0
        for al in upper:
            num *= al + m
        den = 1.0
        for be in lower:
            den *= be + m
        return num / den * z / (m + 1)

    value, tail, n, ok = _series_sum(ratio, 1.0)
    return EvalResult(value, tail, n, ok, "series")


def _classical_2f1_integral(a: float, b: float, c: float, z: float,
                            tol: float = 1e-12) -> EvalResult:
    """Euler integral for 2F1, valid for any real z <= 1 with c > b > 0.

    The z = 1 endpoint folds (1-zt)^(-a) into the (1-t) power analytically.
    """
    pairs = [(b, a), (a, b)]  # (exponent parameter, remaining upper)
    for bb, aa in pairs:
        if c > bb > 0 and (z < 1.0 or c - bb - aa > 0):
            break
    else:
        raise DomainError(
            f"no admissible Euler pairing for 2F1({a},{b};{c};{z})")
    norm = 1.0 / beta_classical(bb, c - bb)
    if z == 1.0:
        def f(t, tc):
            return np.exp((bb - 1.0) * np.log(t)
                          + (c - bb - aa - 1.0) * np.log(tc))
    else:
        def f(t, tc):
            return np.exp((bb - 1.0) * np.log(t) + (c - bb - 1.0) * np.log(tc)
                          - aa * np.log1p(-z * t))
    q = integrate_unit2(f, tol * 0.1 / norm if norm > 1 else tol * 0.1)
    return EvalResult(norm * q.value, norm * q.abs_err_est, q.nodes_used,
                      q.converged, "euler_integral")


def classical_pfq(spec: ClassicalPfqSpec, z: float) -> EvalResult:
    """Classical pFq by direct summation (reference oracle).

    p <= q converges for all real z.  p = q+1 uses the series inside
    |z| <= 0.85 and the Euler integral for 2F1 beyond it (including z = 1
    under the usual parameter-sum condition).
    """
    p, q = len(spec.upper), len(spec.lower)
    terminating = any(_is_nonpositive_int(al) for al in spec.upper)
    if p <= q or terminating or abs(z) <= 0.85:
        if p == q + 1 and abs(z) > 1.0 and not terminating:
            raise DomainError(f"series diverges at |z|={abs(z)} > 1")
        if p > q + 1 and not terminating and z != 0.0:
            raise DomainError("p > q+1 diverges for nonzero argument")
        return _pfq_series(spec.upper, spec.lower, z)
    if p == q + 1 == 2:
        if abs(z) == 1.0:
            cond = sum(spec.lower) - sum(spec.upper)
            if cond <= 0:
                raise DomainError(
                    "2F1 at |z|=1 needs positive parameter-sum excess")
        if z > 1.0:
            raise DomainError("2F1 undefined for real z > 1")
        return _classical_2f1_integral(spec.upper[0], spec.upper[1],
                                       spec.lower[0], z)
    if abs(z) < 1.0:
        return _pfq_series(spec.upper, spec.lower, z)
    raise DomainError(
        f"classical {p}F{q} supported only for |z| <= 0.85 (or 2F1)")


def classical_2f1(a: float, b: float, c: float, z: float) -> float:
    """Convenience scalar 2F1 dispatching between series and integral."""
    return classical_pfq(ClassicalPfqSpec((a, b), (c,)), z).value
