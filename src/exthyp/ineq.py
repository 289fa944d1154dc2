"""Hardy-Hilbert machinery with exponentially regularized kernels.

The bilinear form weights f(x) g(y) by a homogeneous two-factor kernel times
an exponential regularization in y/x and x/y.  Its sharp-style constant is a
product of two weight-function normalizations, each a regularized Gauss
value by way of two half-line integral identities.  Verification is against
a closed family of nonnegative test functions whose decay is known, so all
truncation errors are boundable; the sharpness of the constant itself is
not asserted.

Everything here fixes the exponential kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corefn import beta_classical
from .extbeta import RegPair
from .hyp import ext_2f1
from .kernel import EXP_KERNEL
from .quadrature import (_refine_grid, halfline_grid, integrate_halfline,
                         unit_grid)
from .results import DomainError, EvalResult, refuse_non_finite


@dataclass(frozen=True)
class HilbertParams:
    """Exponent pair, kernel exponents, scale pair, and weight offsets."""

    p: float
    q: float
    s1: float
    s2: float
    alpha1: float
    alpha2: float
    A1: float
    A2: float
    ptilde: float = 0.0
    qtilde: float = 0.0

    def __post_init__(self):
        refuse_non_finite("parameters and regularization offsets", self.p,
                          self.q, self.s1, self.s2, self.alpha1, self.alpha2,
                          self.A1, self.A2, self.ptilde, self.qtilde)
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError("needs p > 1 and q > 1")
        if 1.0 / self.p + 1.0 / self.q < 1.0 - 1e-12:
            raise DomainError("needs 1/p + 1/q >= 1")
        if not self.s1 + self.s2 > 0.0:
            raise DomainError("needs s1 + s2 > 0")
        if not (self.alpha1 > 0.0 and self.alpha2 > 0.0):
            raise DomainError("needs positive scale pair")
        if not 0.5 < self.alpha1 / self.alpha2 < 2.0:
            raise DomainError("needs 1/2 < alpha1/alpha2 < 2")
        if not (self.ptilde >= 0.0 and self.qtilde >= 0.0):
            raise DomainError("needs nonnegative regularization offsets")
        lo1 = (1.0 - self.s1 - self.s2) / self.pprime
        lo2 = (1.0 - self.s1 - self.s2) / self.qprime
        if not lo1 < self.A1 < 1.0 / self.pprime:
            raise DomainError(f"A1 must lie in ({lo1}, {1.0 / self.pprime})")
        if not lo2 < self.A2 < 1.0 / self.qprime:
            raise DomainError(f"A2 must lie in ({lo2}, {1.0 / self.qprime})")

    @property
    def pprime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def qprime(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def lam(self) -> float:
        return 1.0 / self.pprime + 1.0 / self.qprime


def classical_point() -> HilbertParams:
    """The plain 1/(x+y) kernel with constant pi."""
    return HilbertParams(2.0, 2.0, 1.0, 0.0, 1.0, 1.0, 0.25, 0.25, 0.0, 0.0)


def midpoint_params(p: float, q: float, s1: float, s2: float,
                    alpha1: float, alpha2: float, ptilde: float = 0.0,
                    qtilde: float = 0.0) -> HilbertParams:
    """Parameters with both weight offsets at their interval midpoints."""
    pprime = p / (p - 1.0)
    qprime = q / (q - 1.0)
    A1 = (2.0 - s1 - s2) / (2.0 * pprime)
    A2 = (2.0 - s1 - s2) / (2.0 * qprime)
    return HilbertParams(p, q, s1, s2, alpha1, alpha2, A1, A2, ptilde, qtilde)


def lemma2_identity(which: str, a: float, b_par: float, c: float,
                    alpha: float, gamma: float, ptilde: float, qtilde: float,
                    tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Half-line rational-exponential integral against its closed form.

    which = "a": scale gamma in the exponential, argument (gamma-alpha)/gamma
    and leading parameter a on the right; which = "b": the alpha-scaled
    mirror with leading parameter c.
    """
    if which not in ("a", "b"):
        raise DomainError(f"unknown identity {which!r}")
    if not (a + c > b_par > 0.0):
        raise DomainError("needs a + c > b > 0")
    if not (alpha > 0.0 and gamma > 0.0):
        raise DomainError("needs positive scale parameters")
    reg = RegPair(ptilde, qtilde)  # the offsets follow its rule
    scale = gamma if which == "a" else alpha

    def f(x):
        with np.errstate(over="ignore", under="ignore"):
            e = (b_par - 1.0) * np.log(x) - c * np.log1p(gamma * x) \
                - a * np.log1p(alpha * x)
            if qtilde > 0.0:
                e = e - scale * qtilde * x
            if ptilde > 0.0:
                e = e - (ptilde / scale) / x
            return np.exp(e)

    lhs = integrate_halfline(f, tol * 1e-2).result()
    pref = (math.exp(ptilde + qtilde) * scale ** -b_par
            * beta_classical(b_par, c + a - b_par))
    if which == "a":
        fval = ext_2f1(EXP_KERNEL, a, b_par, c + a, (gamma - alpha) / gamma,
                       reg, tol)
    else:
        fval = ext_2f1(EXP_KERNEL, c, b_par, c + a, (alpha - gamma) / alpha,
                       reg, tol)
    return lhs, fval.scaled(pref)


def _proportional(value: float, f: EvalResult,
                  power: float = 1.0) -> EvalResult:
    """A value proportional to f.value ** (1/power), with f's error carried
    through that power, |value| err_f / (power |f|) (inf at f = 0), and
    f's flag."""
    return EvalResult(value,
                      abs(value) * f.abs_err_est / (power * abs(f.value))
                      if f.value else math.inf,
                      f.terms_or_nodes, f.converged, f.method)


def weight_norm_f(hp: HilbertParams, ptilde: float, qtilde: float,
                  tol: float = 1e-10) -> EvalResult:
    """Normalization constant of the x-side weight function."""
    qp = hp.qprime
    bb = 1.0 - qp * hp.A2
    f = ext_2f1(EXP_KERNEL, hp.s2, bb, hp.s1 + hp.s2,
                (hp.alpha1 - hp.alpha2) / hp.alpha1,
                RegPair(ptilde, qtilde), tol)
    return _proportional(
        hp.alpha1 ** (hp.A2 - 1.0 / qp)
        * beta_classical(bb, hp.s1 + hp.s2 + qp * hp.A2 - 1.0) ** (1.0 / qp)
        * f.value ** (1.0 / qp), f, qp)


def weight_norm_g(hp: HilbertParams, ptilde: float, qtilde: float,
                  tol: float = 1e-10) -> EvalResult:
    """Normalization constant of the y-side weight function."""
    pp = hp.pprime
    bb = 1.0 - pp * hp.A1
    f = ext_2f1(EXP_KERNEL, hp.s1, bb, hp.s1 + hp.s2,
                (hp.alpha1 - hp.alpha2) / hp.alpha1,
                RegPair(ptilde, qtilde), tol)
    return _proportional(
        hp.alpha1 ** (-hp.s1 / pp)
        * hp.alpha2 ** ((1.0 - hp.s2) / pp - hp.A1)
        * beta_classical(bb, hp.s1 + hp.s2 + pp * hp.A1 - 1.0) ** (1.0 / pp)
        * f.value ** (1.0 / pp), f, pp)


def weight_F(hp: HilbertParams, x: float, tol: float = 1e-10) -> EvalResult:
    """Closed form of the x-side weight: power law times its normalization."""
    if not x > 0.0:
        raise DomainError("needs x > 0")
    qp = hp.qprime
    norm = weight_norm_f(hp, hp.ptilde, hp.qtilde, tol)
    v = (math.exp((hp.ptilde + hp.qtilde) / qp) * norm.value
         * x ** ((1.0 - hp.s1 - hp.s2) / qp - hp.A2))
    return _proportional(v, norm)


def weight_G(hp: HilbertParams, y: float, tol: float = 1e-10) -> EvalResult:
    """Closed form of the y-side weight."""
    if not y > 0.0:
        raise DomainError("needs y > 0")
    pp = hp.pprime
    norm = weight_norm_g(hp, hp.ptilde, hp.qtilde, tol)
    v = (math.exp((hp.ptilde + hp.qtilde) / pp) * norm.value
         * y ** ((1.0 - hp.s1 - hp.s2) / pp - hp.A1))
    return _proportional(v, norm)


def weight_F_quadrature(hp: HilbertParams, x: float,
                        tol: float = 1e-10) -> EvalResult:
    """Direct half-line evaluation of the x-side weight (verification path)."""
    qp = hp.qprime

    def f(y):
        with np.errstate(over="ignore", under="ignore"):
            e = (-qp * hp.A2 * np.log(y)
                 - hp.s1 * np.log(x + hp.alpha1 * y)
                 - hp.s2 * np.log(x + hp.alpha2 * y))
            if hp.qtilde > 0.0:
                e = e - hp.alpha1 * hp.qtilde * y / x
            if hp.ptilde > 0.0:
                e = e - (hp.ptilde / hp.alpha1) * x / y
            return np.exp(e)

    q = integrate_halfline(f, tol).result()
    return _proportional(q.value ** (1.0 / qp), q, qp)


def weight_G_quadrature(hp: HilbertParams, y: float,
                        tol: float = 1e-10) -> EvalResult:
    """Direct half-line evaluation of the y-side weight.

    The x/y offset term carries alpha2 inverted and the y/x term alpha2
    multiplied (the form the closed-form derivation actually uses).
    """
    pp = hp.pprime

    def f(x):
        with np.errstate(over="ignore", under="ignore"):
            e = (-pp * hp.A1 * np.log(x)
                 - hp.s1 * np.log(x + hp.alpha1 * y)
                 - hp.s2 * np.log(x + hp.alpha2 * y))
            if hp.qtilde > 0.0:
                e = e - (hp.qtilde / hp.alpha2) * x / y
            if hp.ptilde > 0.0:
                e = e - hp.ptilde * hp.alpha2 * y / x
            return np.exp(e)

    q = integrate_halfline(f, tol).result()
    return _proportional(q.value ** (1.0 / pp), q, pp)


def hilbert_constant(hp: HilbertParams, tol: float = 1e-10) -> float:
    """Product of the two weight normalizations at lifted offsets."""
    return _hilbert_constant(hp, tol)[0]


def _hilbert_constant(hp: HilbertParams,
                      tol: float = 1e-10) -> tuple[float, bool]:
    """``hilbert_constant`` and whether both normalizations converged."""
    nf = weight_norm_f(hp, hp.qprime * hp.ptilde, hp.qprime * hp.qtilde, tol)
    ng = weight_norm_g(hp, hp.pprime * hp.ptilde, hp.pprime * hp.qtilde, tol)
    return nf.value * ng.value, nf.converged and ng.converged


_ARITY = {"exp_decay": 1, "bump": 2, "power_cut": 2}  # parameters per tag


@dataclass(frozen=True)
class TestFunction:
    """Closed nonnegative family with analytically known decay.

    exp_decay(k): x^k e^-x on (0, inf); bump(a, b): smooth compact bump on
    [a, b] with 0 <= a < b; power_cut(sigma, X): x^sigma on (0, X], with
    sigma >= 0 and X > 0.  The amplitude scales the whole function (zero
    amplitude gives the identically-zero case; the norms take its absolute
    value).  Every number is finite.
    """

    tag: str
    params: tuple[float, ...] = ()
    amplitude: float = 1.0

    def __post_init__(self):
        if _ARITY.get(self.tag) != len(self.params):
            raise DomainError(f"no test function {self.tag!r} with "
                              f"{len(self.params)} parameters")
        refuse_non_finite("test-function parameters and amplitude",
                          *self.params, self.amplitude)
        if self.tag == "bump" and not 0.0 <= self.params[0] < self.params[1]:
            raise DomainError("bump needs 0 <= a < b")
        if self.tag == "power_cut" and not (self.params[0] >= 0.0
                                            and self.params[1] > 0.0):
            raise DomainError("power_cut needs sigma >= 0 and X > 0")

    def support_top(self) -> float:
        return math.inf if self.tag == "exp_decay" else self.params[1]

    def log_values(self, x: np.ndarray) -> np.ndarray:
        """log f(x) with -inf outside the support (amplitude excluded)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            if self.tag == "exp_decay":
                k = self.params[0]
                return k * np.log(x) - x
            if self.tag == "bump":
                a, b = self.params
                u = (x - a) / (b - a)
                inside = (u > 0.0) & (u < 1.0)
                out = np.full_like(x, -math.inf)
                uu = u[inside]
                out[inside] = 4.0 - 1.0 / (uu * (1.0 - uu))
                return out
            sigma, top = self.params  # power_cut
            return np.where(x <= top, sigma * np.log(x), -math.inf)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.amplitude * np.exp(self.log_values(x))

    def norm_exponent_at_zero(self, power: float) -> float:
        """Exponent of f(x)^power near x = 0 (for norm-finiteness checks);
        a bump vanishes to all orders at its support edges."""
        return 0.0 if self.tag == "bump" else self.params[0] * power


def exp_decay(k: float, amplitude: float = 1.0) -> TestFunction:
    return TestFunction("exp_decay", (float(k),), amplitude)


def bump(a: float, b: float, amplitude: float = 1.0) -> TestFunction:
    return TestFunction("bump", (float(a), float(b)), amplitude)


def power_cut(sigma: float, top: float, amplitude: float = 1.0) -> TestFunction:
    return TestFunction("power_cut", (float(sigma), float(top)), amplitude)


def parse_test_function(text: str) -> TestFunction:
    """CLI syntax: exp_decay:k | bump:a,b | power_cut:sigma,X | zero."""
    text = text.strip()
    if text == "zero":
        return exp_decay(0.0, amplitude=0.0)
    if ":" not in text:
        raise DomainError(f"bad test-function syntax {text!r}")
    tag, rest = text.split(":", 1)
    try:
        vals = [float(v) for v in rest.split(",")]
    except ValueError:
        raise DomainError(f"bad test-function syntax {text!r}") from None
    return TestFunction(tag, tuple(vals))


def _axis_nodes(level: int, top: float):
    """(nodes, log-weights) for a support (0, top); call it under
    np.errstate(divide="ignore"), as a weight can underflow to zero."""
    if math.isinf(top):
        g = halfline_grid(level)
        return g.nodes, np.log(g.weights)
    g = unit_grid(level)
    return g.nodes * top, np.log(g.weights * top)


def _weighted_norm(h: TestFunction, exponent: float,
                   power: float) -> tuple[float, bool]:
    """(int x^exponent f(x)^power dx)^(1/power), refined to a relative
    1e-11, with finiteness checks, and whether its refinement converged."""
    if h.amplitude == 0.0:
        return 0.0, True
    if exponent + h.norm_exponent_at_zero(power) <= -1.0:
        raise DomainError("weighted norm diverges at the origin")
    top = h.support_top()

    def grid_sum(level):
        with np.errstate(all="ignore"):
            x, logw = _axis_nodes(level, top)
            e = logw + exponent * np.log(x) + power * h.log_values(x)
            return float(np.exp(e).sum()), x.size

    value, _, _, ok = _refine_grid(grid_sum, 1e-11, rel=True)
    return abs(h.amplitude) * value ** (1.0 / power), ok


def _kernel_log_rows(hp: HilbertParams, x: np.ndarray, lx: np.ndarray,
                     y: np.ndarray) -> np.ndarray:
    """log of the row sums int K(x, y_j) f(x) dx (blocked, shift-stabilized)."""
    lam = hp.lam
    acoef = hp.alpha1 * hp.qtilde + hp.alpha2 * hp.ptilde
    bcoef = acoef / (hp.alpha1 * hp.alpha2)
    out = np.empty(y.size)
    with np.errstate(all="ignore"):  # rows without a finite max end as -inf
        for j0 in range(0, y.size, 256):
            blk = slice(j0, min(j0 + 256, y.size))
            yb = y[blk]
            ek = (lx[None, :]
                  - lam * hp.s1 * np.log(x[None, :] + hp.alpha1 * yb[:, None])
                  - lam * hp.s2 * np.log(x[None, :] + hp.alpha2 * yb[:, None]))
            if acoef > 0.0:
                ek = ek - (acoef * yb[:, None] / x[None, :]
                           + bcoef * x[None, :] / yb[:, None])
            m = ek.max(axis=1)
            safe = np.isfinite(m)
            sums = np.exp(ek - np.where(safe, m, 0.0)[:, None]).sum(axis=1)
            out[blk] = np.where(safe, m + np.log(sums), -math.inf)
    return out


@dataclass(frozen=True)
class HilbertForm:
    """One form of the inequality: both sides, their margin and verdict."""

    constant: float
    lhs: float
    rhs: float
    margin: float
    holds: bool
    converged: bool  # every refinement behind lhs and rhs met its tolerance


def _form(const: float, lhs: float, rhs: float,
          converged: bool) -> HilbertForm:
    if converged:
        refuse_non_finite("converged form sides", lhs, rhs)
    return HilbertForm(constant=const, lhs=lhs, rhs=rhs, margin=rhs - lhs,
                       holds=lhs <= rhs * (1.0 + 1e-9), converged=converged)


def _rhs_factors(hp: HilbertParams,
                 f: TestFunction) -> tuple[float, float, bool]:
    """(constant, prefactor times the weighted norm of f, whether the
    constant and the norm converged)."""
    qp = hp.qprime
    const, const_ok = _hilbert_constant(hp)
    wf = (hp.p / qp) * (1.0 - hp.s1 - hp.s2) + hp.p * (hp.A1 - hp.A2)
    pref = math.exp(2.0 * (hp.ptilde + hp.qtilde)) * const
    norm, ok = _weighted_norm(f, wf, hp.p)
    return const, pref * norm, const_ok and ok


def hilbert_bilinear(hp: HilbertParams, f: TestFunction, g: TestFunction,
                     tol: float = 1e-8) -> HilbertForm:
    """The bilinear form of the inequality on a test pair.

    The left side is computed by iterated double-exponential quadrature over
    the supports; the right side is the closed constant times the weighted
    norms of f and g.
    """
    lhs, ok = 0.0, True
    if f.amplitude != 0.0 and g.amplitude != 0.0:
        def grid_sum(level):
            with np.errstate(all="ignore"):
                x, logwx = _axis_nodes(level, f.support_top())
                y, logwy = _axis_nodes(level, g.support_top())
                lx = logwx + f.log_values(x)
                ly = logwy + g.log_values(y)
                # a row where g is zero adds exp(-inf) = 0, computed or not
                live = ly > -math.inf
                log_rows = np.full(y.size, -math.inf)
                log_rows[live] = _kernel_log_rows(hp, x, lx, y[live])
                total = float(np.exp(ly + log_rows).sum())
            return total, x.size * y.size

        lhs, _, _, ok = _refine_grid(grid_sum, tol, rel=True)
        lhs *= f.amplitude * g.amplitude

    const, rhs_f, ok_f = _rhs_factors(hp, f)
    pp = hp.pprime
    wg = (hp.q / pp) * (1.0 - hp.s1 - hp.s2) + hp.q * (hp.A2 - hp.A1)
    norm_g, ok_g = _weighted_norm(g, wg, hp.q)
    return _form(const, lhs, rhs_f * norm_g, ok and ok_f and ok_g)


def hilbert_equivalent(hp: HilbertParams, f: TestFunction,
                       tol: float = 1e-8) -> HilbertForm:
    """The single-function equivalent form of the inequality.

    The left side is computed by iterated double-exponential quadrature
    whose outer variable always runs over the whole half line; the right
    side is the closed constant times the weighted norm of f.
    """
    qp, pp = hp.qprime, hp.pprime
    vexp = (qp / pp) * (hp.s1 + hp.s2 - 1.0) + qp * (hp.A1 - hp.A2)

    lhs, ok = 0.0, True
    if f.amplitude != 0.0:
        def grid_sum(level):
            with np.errstate(all="ignore"):
                x, logwx = _axis_nodes(level, f.support_top())
                y, logwy = _axis_nodes(level, math.inf)
                lx = logwx + f.log_values(x)
                log_rows = _kernel_log_rows(hp, x, lx, y)
                inner_tot = float(np.exp(logwy + vexp * np.log(y)
                                         + qp * log_rows).sum())
            return inner_tot, x.size * y.size

        lhs, _, _, ok = _refine_grid(grid_sum, tol, rel=True)
        lhs = f.amplitude * lhs ** (1.0 / qp)

    const, rhs, ok_f = _rhs_factors(hp, f)
    return _form(const, lhs, rhs, ok and ok_f)


def hilbert_check(hp: HilbertParams, f: TestFunction, g: TestFunction,
                  tol: float = 1e-8) -> tuple[HilbertForm, HilbertForm]:
    """Both forms of the inequality on a test pair: (``hilbert_bilinear``,
    ``hilbert_equivalent``)."""
    return hilbert_bilinear(hp, f, g, tol), hilbert_equivalent(hp, f, tol)
