"""Extended two-variable hypergeometric functions (first and second kind).

First kind: one shared beta-ratio coefficient per total degree, double
series truncated by diagonals; second kind: independent per-axis beta
ratios with a plain Pochhammer coupling.  Both come with Euler-type
integral representations, argument transformations with printed/proof
variant pairs, parameter-shift recursions, and the finite-sum expansion
into Gauss-level values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corefn import gammaln_real, pochhammer
from .extbeta import RegPair, safe_theta_product, unit_grid_kernel, unit_kernel
from .hyp import PfqSpec, _CoeffLadder, ext_2f1, pfq_series_vector, pfq_spec
from .kernel import EXP_VARIANT, KernelSpec
from .quadrature import MAX_LEVEL, unit_grid, unit_new_nodes
from .results import DomainError, EvalResult

_DIAG_CAP = 1024
_SERIES_EDGE = 0.95


@dataclass(frozen=True)
class AppellParams:
    """Parameters shared by both two-variable functions.

    ``gamma2`` is ignored by the first-kind function.
    """

    alpha: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float = math.nan
    reg: RegPair = RegPair()
    kernel: KernelSpec = KernelSpec(EXP_VARIANT)

    def validate_f1(self) -> None:
        if not (self.gamma1 > self.alpha > 0.0):
            raise DomainError(
                f"first-kind function needs gamma1 > alpha > 0, got "
                f"({self.alpha}, {self.gamma1})")

    def validate_f2(self) -> None:
        if not (self.gamma1 > self.beta1 > 0.0
                and self.gamma2 > self.beta2 > 0.0):
            raise DomainError("second-kind function needs gamma_j > beta_j > 0")


def _ratio_ladder(kernel: KernelSpec, reg: RegPair, alpha: float,
                  gamma: float) -> _CoeffLadder:
    """Beta-ratio coefficients B*(alpha+N, gamma-alpha)/B(alpha, gamma-alpha)."""
    return _CoeffLadder(PfqSpec(((alpha, 1),), (gamma,), reg, kernel), 0.0)


def _axis_seq(b: float, x: float, hi: int, prev: np.ndarray) -> np.ndarray:
    """Extend the array of (b)_m x^m / m! to length hi."""
    lo = prev.size
    out = np.empty(hi)
    out[:lo] = prev
    if lo == 0:
        out[0] = 1.0
        lo = 1
    cur = out[lo - 1]
    for m in range(lo, hi):
        cur = cur * (b + m - 1) * x / m
        out[m] = cur
    return out


def _diagonal_sum(coeff_for, axis_arrays_for, tol: float):
    """Sum sum_N coeff(N) * conv(axes)(N) with diagonal truncation.

    ``coeff_for(hi)`` -> (coeffs, errs) arrays of length >= hi;
    ``axis_arrays_for(hi)`` -> list of per-axis arrays of length >= hi.
    Returns (value, err, diagonals, converged).
    """
    s = 0.0
    errsum = 0.0
    n_done = 0
    small = 0
    last = math.inf
    ratio = 0.0
    while n_done < _DIAG_CAP:
        hi = min(n_done + 64, _DIAG_CAP)
        coeffs, cerrs = coeff_for(hi)
        axes = axis_arrays_for(hi)
        full = axes[0][:hi]
        for u in axes[1:]:
            full = np.convolve(full, u[:hi])[:hi]
        for n in range(n_done, hi):
            term = coeffs[n] * full[n]
            s += term
            errsum += abs(full[n]) * cerrs[n]
            if n > 0 and last not in (0.0, math.inf):
                ratio = abs(term) / last
            last = abs(term)
            if last < 1e-15 * abs(s) + 1e-300:
                small += 1
                if small >= 4:
                    tail = last * ratio / (1 - ratio) if ratio < 0.97 else last
                    return s, errsum + tail, n + 1, True
            else:
                small = 0
        n_done = hi
    tail = last * 10.0
    return s, errsum + tail, n_done, False


def f1_series(p: AppellParams, x: float, y: float,
              tol: float = 1e-10) -> EvalResult:
    """Double series of the first-kind function, truncated by total degree."""
    p.validate_f1()
    if max(abs(x), abs(y)) >= 1.0:
        raise DomainError("series needs max(|x|, |y|) < 1")
    ladder = _ratio_ladder(p.kernel, p.reg, p.alpha, p.gamma1)
    state = {"u": np.empty(0), "v": np.empty(0)}

    def coeff_for(hi):
        ladder.ensure(hi)
        return ladder.coeffs, ladder.cerrs

    def axes_for(hi):
        state["u"] = _axis_seq(p.beta1, x, hi, state["u"])
        state["v"] = _axis_seq(p.beta2, y, hi, state["v"])
        return [state["u"], state["v"]]

    value, err, n, ok = _diagonal_sum(coeff_for, axes_for, tol)
    return EvalResult(value, err, n, ok, "series")


def _f1_integrand_norm(p: AppellParams) -> float:
    return math.exp(gammaln_real(p.gamma1) - gammaln_real(p.alpha)
                    - gammaln_real(p.gamma1 - p.alpha))


def f1_integral(p: AppellParams, x: float, y: float,
                tol: float = 1e-10) -> EvalResult:
    """Single kernel-weighted Euler integral of the first-kind function."""
    p.validate_f1()
    if not (x < 1.0 and y < 1.0):
        raise DomainError("integral needs x < 1 and y < 1")
    reg, kern = p.reg, p.kernel
    norm = _f1_integrand_norm(p)

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powexp = ((p.alpha - 1.0) * np.log(t)
                      + (p.gamma1 - p.alpha - 1.0) * np.log(tc)
                      - p.beta1 * np.log1p(-x * t)
                      - p.beta2 * np.log1p(-y * t))
            vals = w * safe_theta_product(kern, powexp,
                                          *unit_kernel(kern, reg, level))
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        s = vals.sum()
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = abs(totals - prev)
        if level >= 3 and err <= tol / norm:
            converged = True
            break
        prev = totals
    return EvalResult(norm * totals, norm * err, nodes, converged,
                      "euler_integral")


def f1_eval(p: AppellParams, x: float, y: float, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    """Series inside the polydisk, integral elsewhere left of 1."""
    if method == "series":
        return f1_series(p, x, y, tol)
    if method == "integral":
        return f1_integral(p, x, y, tol)
    if max(abs(x), abs(y)) < _SERIES_EDGE:
        return f1_series(p, x, y, tol)
    return f1_integral(p, x, y, tol)


def f1_transform(p: AppellParams, x: float, y: float, tol: float = 1e-10):
    """Both sides of the argument map (x, y) -> (x/(x-1), y/(y-1)).

    Returns (lhs, rhs_printed, rhs_proof): the printed right side keeps the
    first parameter; the proof-derived one replaces it by gamma1 - alpha.
    Both carry (1-x)^-beta1 (1-y)^-beta2 and the swapped reg pair.
    """
    p.validate_f1()
    if not (x < 1.0 and y < 1.0):
        raise DomainError("transform needs x < 1 and y < 1")
    lhs = f1_eval(p, x, y, tol)
    pref = (1.0 - x) ** -p.beta1 * (1.0 - y) ** -p.beta2
    xm, ym = x / (x - 1.0), y / (y - 1.0)
    swapped = p.reg.swapped()
    printed_p = AppellParams(p.alpha, p.beta1, p.beta2, p.gamma1, p.gamma2,
                             swapped, p.kernel)
    proof_p = AppellParams(p.gamma1 - p.alpha, p.beta1, p.beta2, p.gamma1,
                           p.gamma2, swapped, p.kernel)
    rp = f1_eval(printed_p, xm, ym, tol)
    rq = f1_eval(proof_p, xm, ym, tol)
    scale = lambda r: EvalResult(pref * r.value, abs(pref) * r.abs_err_est,
                                 r.terms_or_nodes, r.converged, r.method)
    return lhs, scale(rp), scale(rq)


def nested_poch_series(alpha: float, ladders, xs, tol: float,
                       cap: int = 2048) -> EvalResult:
    """sum over index vectors m of (alpha)_{|m|} prod_j c_j[m_j] x_j^m_j/m_j!.

    The leading Pochhammer factor is split as (alpha)_{m_1} (alpha+m_1)_{m_2}
    ... and carried multiplicatively through the recursion, so no factor ever
    overflows even deep in the tail.  Shared engine for the second-kind
    two-variable function and its r-variable generalization.

    The sums run on Python floats.  Each ladder is read into a list a block
    at a time, and ``ensure`` runs only when an index passes the end of what
    is read.  The innermost sum keeps the running total, error and term
    count in locals, and has no exp((a + m) * grow) factors: there grow is
    0.0, so each is exactly 1.0 for a finite alpha.  numpy scalars and
    Python floats are the same doubles, and the operations run in the same
    order, so the output bits are those of the recursion kept in
    ``tests/test_appell.py`` as the reference.
    """
    r = len(xs)
    if not all(math.isfinite(v) for v in (alpha, *xs)):
        raise DomainError("series needs a finite alpha and finite arguments")
    if sum(abs(x) for x in xs) >= 1.0:
        raise DomainError("series needs sum of |arguments| below 1")
    xs = [float(x) for x in xs]
    rest = [sum(abs(x) for x in xs[j + 1:]) for j in range(r)]
    coeffs = [[] for _ in range(r)]
    cerrs = [[] for _ in range(r)]
    total = 0.0
    err = 0.0
    count = 0
    overflow = False

    def read(j: int, m: int) -> None:
        ladders[j].ensure(m + 1)
        coeffs[j] += ladders[j].coeffs[len(coeffs[j]):].tolist()
        cerrs[j] += ladders[j].cerrs[len(cerrs[j]):].tolist()

    def innermost(a_shift: float, acc: float) -> None:
        nonlocal total, err, count, overflow
        c, e, x = coeffs[r - 1], cerrs[r - 1], xs[r - 1]
        tot, er, n = total, err, count
        small = 0
        m = 0
        while m < cap:
            if m >= len(c):
                read(r - 1, m)
            contrib = acc * c[m]
            er += abs(acc) * e[m]
            tot += contrib
            n += 1
            if abs(contrib) < 1e-17 * (1.0 + abs(tot)):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            acc = acc * (a_shift + m) * x / (m + 1)
            m += 1
        else:
            overflow = True
        total, err, count = tot, er, n

    def rec(j: int, a_shift: float, acc: float) -> None:
        nonlocal err, overflow
        if j == r - 1:
            innermost(a_shift, acc)
            return
        grow = -math.log1p(-rest[j]) if rest[j] > 0.0 else 0.0
        c, e, x = coeffs[j], cerrs[j], xs[j]
        small = 0
        m = 0
        while m < cap:
            if m >= len(c):
                read(j, m)
            contrib = acc * c[m]
            err += abs(acc) * e[m] * math.exp((a_shift + m) * grow)
            rec(j + 1, a_shift + m, contrib)
            bound = abs(contrib) * math.exp((a_shift + m + 1) * grow)
            if bound < 1e-17 * (1.0 + abs(total)):
                small += 1
                if small >= 3:
                    return
            else:
                small = 0
            acc = acc * (a_shift + m) * x / (m + 1)
            m += 1
        overflow = True

    rec(0, float(alpha), 1.0)
    tail = 1e-16 * (1.0 + abs(total))
    return EvalResult(total, err + tail, max(count, 1), not overflow,
                      "series")


def f2_series(p: AppellParams, x: float, y: float,
              tol: float = 1e-10) -> EvalResult:
    """Double series of the second-kind function."""
    p.validate_f2()
    if abs(x) + abs(y) >= 1.0:
        raise DomainError("series needs |x| + |y| < 1")
    la = _ratio_ladder(p.kernel, p.reg, p.beta1, p.gamma1)
    lb = _ratio_ladder(p.kernel, p.reg, p.beta2, p.gamma2)
    return nested_poch_series(p.alpha, [la, lb], [x, y], tol)


def f2_integral(p: AppellParams, x: float, y: float, tol: float = 1e-10,
                max_level: int = 9) -> EvalResult:
    """Product-grid double integral of the second-kind function."""
    p.validate_f2()
    if max(x, 0.0) + max(y, 0.0) >= 1.0:
        raise DomainError("double integral needs positive parts of x, y to "
                          "sum below 1")
    reg, kern = p.reg, p.kernel
    lognorm = (gammaln_real(p.gamma1) - gammaln_real(p.beta1)
               - gammaln_real(p.gamma1 - p.beta1)
               + gammaln_real(p.gamma2) - gammaln_real(p.beta2)
               - gammaln_real(p.gamma2 - p.beta2))
    norm = math.exp(lognorm)

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(2, max_level + 1):
        g = unit_grid(level)
        t, tc, wt = g.nodes, g.complements, g.weights
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            arg, theta = unit_grid_kernel(kern, reg, level)
            pa = ((p.beta1 - 1.0) * np.log(t)
                  + (p.gamma1 - p.beta1 - 1.0) * np.log(tc))
            va = wt * safe_theta_product(kern, pa, arg, theta)
            pb = ((p.beta2 - 1.0) * np.log(t)
                  + (p.gamma2 - p.beta2 - 1.0) * np.log(tc))
            vb = wt * safe_theta_product(kern, pb, arg, theta)
            s = 0.0
            for i0 in range(0, t.size, 512):
                blk = slice(i0, min(i0 + 512, t.size))
                m = np.exp(-p.alpha * np.log1p(-(x * t[blk][:, None]
                                                 + y * t[None, :])))
                s += float(va[blk] @ m @ vb)
        nodes += t.size * t.size
        if totals is None:
            totals, prev = s, s
        else:
            err = abs(s - prev)
            totals, prev = s, s
        if level >= 4 and err <= tol / norm:
            converged = True
            break
    return EvalResult(norm * totals, norm * err, nodes, converged,
                      "euler_integral")


def f2_eval(p: AppellParams, x: float, y: float, tol: float = 1e-10,
            method: str = "auto") -> EvalResult:
    if method == "series":
        return f2_series(p, x, y, tol)
    if method == "integral":
        return f2_integral(p, x, y, tol)
    if abs(x) + abs(y) < _SERIES_EDGE:
        return f2_series(p, x, y, tol)
    return f2_integral(p, x, y, tol)


def f2_single_integral(p: AppellParams, x: float, y: float,
                       tol: float = 1e-10) -> EvalResult:
    """One-dimensional reduction: outer beta weight, inner Gauss-level value.

    The inner argument y/(1 - x t) must stay inside (-1, 1) on the path.
    The inner series shares one coefficient ladder across the refinement
    levels; its coefficients do not depend on the level, so the values are
    those of a fresh ladder per level.
    """
    p.validate_f2()
    wmax = abs(y) / (1.0 - x) if x > 0.0 else abs(y)
    if not (x < 1.0 and wmax < 1.0):
        raise DomainError("inner argument y/(1-xt) leaves (-1, 1)")
    reg, kern = p.reg, p.kernel
    inner = pfq_spec(kern, (p.alpha, p.beta2), (p.gamma2,), reg)
    ladder = _CoeffLadder(inner, tol)
    norm = math.exp(gammaln_real(p.gamma1) - gammaln_real(p.beta1)
                    - gammaln_real(p.gamma1 - p.beta1))

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    inner_err = 0.0
    converged = False
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powexp = ((p.beta1 - 1.0) * np.log(t)
                      + (p.gamma1 - p.beta1 - 1.0) * np.log(tc)
                      - p.alpha * np.log1p(-x * t))
            fv, ierr = pfq_series_vector(inner, y / (1.0 - x * t), tol,
                                         ladder=ladder)
            inner_err = max(inner_err, ierr)
            vals = w * safe_theta_product(kern, powexp,
                                          *unit_kernel(kern, reg, level)) * fv
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        s = vals.sum()
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = abs(totals - prev)
        if level >= 3 and err <= tol / norm:
            converged = True
            break
        prev = totals
    return EvalResult(norm * totals, norm * (err + inner_err), nodes,
                      converged, "euler_integral")


_F2_TRANSFORMS = ("x", "y", "xy", "xy_general")


def f2_transform(p: AppellParams, x: float, y: float, which: str,
                 tol: float = 1e-10) -> tuple[EvalResult, EvalResult]:
    """Both sides of the selected second-kind transformation.

    "x", "y" and "xy" require equal regularization parameters; the
    "xy_general" form swaps the pair on the right side.
    """
    if which not in _F2_TRANSFORMS:
        raise DomainError(f"unknown transformation {which!r}")
    p.validate_f2()
    if which in ("x", "y", "xy") and p.reg.b != p.reg.d:
        raise DomainError("this form needs equal regularization parameters")
    lhs = f2_eval(p, x, y, tol)
    if which == "x":
        pref = (1.0 - x) ** -p.alpha
        q = AppellParams(p.alpha, p.gamma1 - p.beta1, p.beta2, p.gamma1,
                         p.gamma2, p.reg, p.kernel)
        rhs = f2_eval(q, x / (x - 1.0), y / (1.0 - x), tol)
    elif which == "y":
        pref = (1.0 - y) ** -p.alpha
        q = AppellParams(p.alpha, p.beta1, p.gamma2 - p.beta2, p.gamma1,
                         p.gamma2, p.reg, p.kernel)
        rhs = f2_eval(q, x / (1.0 - y), y / (y - 1.0), tol)
    else:
        pref = (1.0 - x - y) ** -p.alpha
        reg = p.reg if which == "xy" else p.reg.swapped()
        q = AppellParams(p.alpha, p.gamma1 - p.beta1, p.gamma2 - p.beta2,
                         p.gamma1, p.gamma2, reg, p.kernel)
        s = 1.0 - x - y
        rhs = f2_eval(q, -x / s, -y / s, tol)
    rhs = EvalResult(pref * rhs.value, abs(pref) * rhs.abs_err_est,
                     rhs.terms_or_nodes, rhs.converged, rhs.method)
    return lhs, rhs


def f2_recursion(p: AppellParams, n: int, which: str, x: float, y: float,
                 tol: float = 1e-10,
                 variant: str = "proof") -> tuple[EvalResult, EvalResult]:
    """Parameter-shift recursions of the second-kind function.

    which = "beta2_shift": shifted second numerator parameter; the proof
    variant lifts the left side's second denominator by 2n (the printed
    finite expansion is only valid for the positive binomial power).
    which = "gamma2_shift": shifted second denominator parameter.
    """
    if which not in ("beta2_shift", "gamma2_shift"):
        raise DomainError(f"unknown recursion {which!r}")
    if n < 0:
        raise DomainError("shift order must be >= 0")
    p.validate_f2()

    def F2(b2, g2) -> EvalResult:
        q = AppellParams(p.alpha, p.beta1, b2, p.gamma1, g2, p.reg, p.kernel)
        return f2_eval(q, x, y, tol)

    err = 0.0
    if which == "gamma2_shift":
        lhs = F2(p.beta2, p.gamma2 + n)
        pref = pochhammer(p.gamma2, n) / pochhammer(p.gamma2 - p.beta2, n)
        total = 0.0
        for k in range(n + 1):
            g = F2(p.beta2 + k, p.gamma2 + k)
            coef = ((-1.0) ** k * math.comb(n, k)
                    * pochhammer(p.beta2, k) / pochhammer(p.gamma2, k))
            total += coef * g.value
            err += abs(coef) * g.abs_err_est
        rhs = EvalResult(pref * total, abs(pref) * err, lhs.terms_or_nodes,
                         True, "series")
        return lhs, rhs
    if variant == "proof":
        lhs = F2(p.beta2 + n, p.gamma2 + 2 * n)
        pref = pochhammer(p.gamma2, 2 * n) / (
            pochhammer(p.gamma2 - p.beta2, n) * pochhammer(p.beta2, n))
        i_lo = 0
    elif variant == "printed":
        if not p.gamma2 - p.beta2 - n > 0.0:
            raise DomainError("printed shift needs gamma2 - beta2 - n > 0")
        lhs = F2(p.beta2 + n, p.gamma2)
        pref = pochhammer(p.gamma2 - p.beta2, 2 * n) / (
            pochhammer(p.gamma2 - p.beta2, n) * pochhammer(p.beta2, n))
        i_lo = 1
    else:
        raise DomainError(f"unknown variant {variant!r}")
    total = 0.0
    for i in range(i_lo, n + 1):
        g = F2(p.beta2 + n + i, p.gamma2 + n + i)
        coef = (pochhammer(-n, i) * pochhammer(p.beta2, i + n)
                / (pochhammer(p.gamma2, i + n) * math.factorial(i)))
        total += coef * g.value
        err += abs(coef) * g.abs_err_est
    rhs = EvalResult(pref * total, abs(pref) * err, lhs.terms_or_nodes,
                     True, "series")
    return lhs, rhs


def lemma1_expand(s: int, t: int, u: float, x: float,
                  y: float) -> tuple[float, float]:
    """Partial-fraction split of X^s Y^t with X = 1/(1-ux), Y = 1/(1-uy).

    Returns (direct product, expanded sum); they agree for x != y.
    """
    if s < 1 or t < 1:
        raise DomainError("expansion needs s, t >= 1")
    if x == y:
        raise DomainError("degenerate for x == y")
    alpha = y / (y - x)
    beta = x / (x - y)
    X = 1.0 / (1.0 - u * x)
    Y = 1.0 / (1.0 - u * y)
    lhs = X ** s * Y ** t
    rhs = 0.0
    for j in range(t):
        rhs += (alpha ** s * math.comb(j + s - 1, s - 1) * beta ** j
                * Y ** (t - j))
    for k in range(s):
        rhs += (beta ** t * math.comb(k + t - 1, t - 1) * alpha ** k
                * X ** (s - k))
    return lhs, rhs


def f1_finite_sum(kernel: KernelSpec, s: int, t: int, x: float, y: float,
                  reg: RegPair = RegPair(), tol: float = 1e-10) -> dict:
    """Finite-sum expansion of the first-kind function at unit denominators.

    Returns {"direct", "proof", "printed"}: the direct double series and the
    two variants of the finite combination of Gauss-level values.  The
    printed variant carries (-y)^k in the second sum and a plus sign in the
    closing brace; the derivation forces (-1)^(t+1) y^k and a minus sign.
    """
    if x == y:
        raise DomainError("degenerate for x == y")
    if not (abs(x) < 1.0 and abs(y) < 1.0):
        raise DomainError("needs |x| < 1 and |y| < 1")
    if s < 0 or t < 0:
        raise DomainError("needs s, t >= 0")
    p = AppellParams(1.0, s + 1.0, t + 1.0, 2.0, math.nan, reg, kernel)
    direct = f1_series(p, x, y, tol)

    def F(a: float, w: float) -> EvalResult:
        return ext_2f1(kernel, a, 1.0, 2.0, w, reg, tol)

    dyx = y - x
    err = 0.0
    common = 0.0
    for j in range(t):
        g = F(t - j + 1.0, y)
        coef = math.comb(j + s, s) * y ** (s + 1) * (-x) ** j / dyx ** (j + s + 1)
        common += coef * g.value
        err += abs(coef) * g.abs_err_est
    ksum_proof = 0.0
    ksum_printed = 0.0
    for k in range(s):
        g = F(s - k + 1.0, x)
        base = math.comb(k + t, t) * x ** (t + 1) * y ** k / dyx ** (k + t + 1)
        ksum_proof += (-1.0) ** (t + 1) * base * g.value
        ksum_printed += (-1.0) ** k * base * g.value
        err += abs(base) * g.abs_err_est
    fy = F(1.0, y)
    fx = F(1.0, x)
    brace_coef = (math.comb(s + t, s) * (-1.0) ** t * x ** t * y ** s
                  / dyx ** (s + t + 1))
    err += abs(brace_coef) * (abs(y) * fy.abs_err_est + abs(x) * fx.abs_err_est)
    proof_val = (common + ksum_proof
                 + brace_coef * (y * fy.value - x * fx.value))
    printed_val = (common + ksum_printed
                   + brace_coef * (y * fy.value + x * fx.value))
    mk = lambda v: EvalResult(v, err, direct.terms_or_nodes, True, "series")
    return {"direct": direct, "proof": mk(proof_val),
            "printed": mk(printed_val)}
