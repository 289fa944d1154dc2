"""One-dimensional contour evaluation of the extended series.

The series is regenerated from a vertical-line integral whose integrand
carries the regularized beta ratios continued to complex first arguments,
gamma factors for the Pochhammer slots, and (-z)**(-s).  The abscissa must
keep the right-half-plane poles (at the paired upper parameters when the
regularization vanishes, and at the leading upper parameter) on its right
and the origin-ladder poles on its left.

Only negative real arguments are evaluated (single-valued power on the real
branch).  The trapezoid refines through ``quadrature._refine_nested`` and
widens the strip when the tail has not decayed.  The integrand decays like
exp(-pi |Im s|) for p = q+1 and exp(-pi |Im s| / 2) for p = q, so the
default strip ends where that rate, with a measured margin, leaves the tail
test's bound tol * 1e-3 (``default_contour``); no catalog point widens it.
Surplus lower parameters contribute reciprocal gamma factors that cancel
the exponential decay along the line, so the vertical-line trapezoid covers
the p = q and p = q+1 branches; the p < q branch starts at half-height 20
and fails its tail test honestly.  Multi-contour analogues for the two- and
r-variable functions exist on paper but are documented only; this module is
their one-dimensional numeric stand-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corefn import beta_classical, ln_gamma, ln_gamma_arr
from .extbeta import ext_beta_complex_many
from .hyp import PfqSpec
from .quadrature import MIN_LEVEL, _EPS, _refine_nested
from .results import DomainError, EvalResult, check_tol, refuse_non_finite

_POLE_GAP = 1e-3
# The default strip's half-height is this margin times the height where the
# decay rate alone meets the tail bound.  At tol 1e-6 to 1e-13 the catalog
# points need 0.87 to 1.01 times that height, and eight probes (confluent
# kernels, z from -0.05 to -5, leading upper parameter up to 3.8) 0.62 to
# 1.09; the tail test still doubles a strip that falls short.
_DECAY_MARGIN = 1.25
# The integrand's rounding bound, in eps |phi| (1 + sum |log-term|): against
# 30-digit mpmath at 0 <= Im s <= 20, step 0.025, of 15 sets at b = d = 0
# (2F1, 1F1 and 2F2, z from -0.05 to -5) the error reached 3.0 of these,
# near the real axis at 1F1, z = -1; at two b, d > 0 sets, 1.8.
_ROUNDING = 4.0


@dataclass(frozen=True)
class ContourSpec:
    """Vertical path Re(s) = c0, |Im(s)| <= T, first trapezoid steps h, h/2."""

    abscissa: float
    half_height: float = 20.0
    step: float = 0.05

    def __post_init__(self):
        refuse_non_finite("contour abscissa, height and step", self.abscissa,
                          self.half_height, self.step)
        if not (self.half_height > 0.0 and self.step > 0.0):
            raise DomainError("contour needs positive height and step")
        ratio = self.half_height / self.step  # only once the step is > 0
        refuse_non_finite("half_height/step", ratio)
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 100:
            raise DomainError("half_height/step must be an integer >= 100")


def _pole_ladders(spec: PfqSpec) -> list[float]:
    """Starts a of the right-half-plane pole ladders a, a+1, ...: the
    leading upper parameter when p = q+1 and, with zero regularization,
    the paired upper parameters of the continued beta ratios."""
    ladders = [spec.upper[0][0]] if spec.p == spec.q + 1 else []
    if spec.reg.is_zero:
        ladders.extend(a for a, _k, _w in spec.pairs())
    return ladders


def default_contour(spec: PfqSpec, tol: float = 1e-6) -> ContourSpec:
    """Abscissa 0.25 * min(leading upper, 1), clamped under every pole, and
    step 0.05.  The half-height is the least whole number of steps, at
    least 100, above _DECAY_MARGIN kappa ln(1e3 / tol) / pi, where the
    decay bound exp(-pi |Im s| / kappa) meets the tail test's tol * 1e-3:
    kappa is 1 for p = q+1 and 2 for p = q.  For p < q the integrand does
    not decay, and the strip starts at half-height 20."""
    check_tol(tol)
    c0 = 0.25 * min([1.0, *_pole_ladders(spec)])
    if c0 <= 0.0:
        raise DomainError("no admissible abscissa for these parameters")
    if spec.p < spec.q:
        return ContourSpec(c0)
    step = ContourSpec.step
    kappa = 1.0 if spec.p == spec.q + 1 else 2.0
    height = (_DECAY_MARGIN * kappa * (math.log(1e3) - math.log(tol))
              / math.pi)
    return ContourSpec(c0, max(100, math.ceil(height / step)) * step, step)


def _pole_distance(spec: PfqSpec, c0: float) -> float:
    """Distance from the abscissa to the nearest real-axis pole ladder."""
    if c0 <= 0.0:
        return 0.0
    dists = [c0]  # origin ladder s = 0, -1, ...
    for a in _pole_ladders(spec):
        # increasing ladder a, a+1, ...
        dists.append(a - c0 if c0 < a else min(abs(c0 - (a + k))
                                               for k in (math.floor(c0 - a),
                                                         math.ceil(c0 - a))))
    return min(dists)


@np.errstate(all="ignore")  # a non-finite value is refused
def _contour_integrand(spec: PfqSpec, s: np.ndarray, lognz: float,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrand of the vertical-line integral at the points ``s``, and a
    bound on its rounding error at each; out of double range a DomainError.

    ``lognz`` is log(-z); the beta ratios get tol * 1e-3.  phi is the
    exp of a sum of log-terms (log Gamma values, s log(-z)), so the bound
    is ``_ROUNDING`` eps |phi| (1 + sum |log-term|).
    """
    log_terms = [ln_gamma_arr(s), -s * lognz]
    if spec.p == spec.q + 1:
        a1 = spec.upper[0][0]
        log_terms += [ln_gamma_arr(a1 - s), -ln_gamma(complex(a1))]
    for b in spec.lower[:spec.surplus]:
        log_terms += [ln_gamma(complex(b)), -ln_gamma_arr(b - s)]
    ratios = 1.0  # the continued beta ratios at b, d > 0
    for a, _k, width in spec.pairs():
        if spec.reg.is_zero:
            log_terms += [ln_gamma_arr(a - s), ln_gamma(complex(width)),
                          -ln_gamma_arr(a + width - s),
                          -math.log(beta_classical(a, width))]
        else:
            vals, _err, _n, ok = ext_beta_complex_many(
                spec.kernel, a - s, width, spec.reg, tol=tol * 1e-3)
            if not ok:
                raise DomainError("regularized beta batch on the contour "
                                  "did not converge")
            ratios = ratios * vals / beta_classical(a, width)
    phi = np.exp(sum(log_terms)) * ratios
    if not np.isfinite(phi).all():
        raise DomainError("contour integrand out of double range")
    size = 1.0 + sum(map(np.abs, log_terms))
    return phi, _ROUNDING * _EPS * np.abs(phi) * size


def mb_eval(spec: PfqSpec, z: float, contour: ContourSpec | None = None,
            tol: float = 1e-6) -> EvalResult:
    """Contour evaluation at a negative real argument.

    All shift multipliers must be 1; ``contour`` defaults to
    ``default_contour(spec, tol)``, its half-height taken up to whole steps
    h0 = 2^(MIN_LEVEL - 1) step.  The trapezoid refines at steps h0 2^-level
    (``_refine_nested``; first stop test at step and step / 2), a level
    summing Re phi over its nodes with Im s >= 0 twice, s = c0 once, as
    phi(conj s) = conj phi(s).  One integrand call forms levels 0 to
    MIN_LEVEL, the rounding bound (smooth in s: weighed on that grid) and
    the tail |phi| at the ends; the strip doubles (up to four times) while
    that exceeds tol 1e-3 (``dropped``).
    """
    if z >= 0.0:
        raise DomainError("contour path implemented for z < 0 only")
    if any(k != 1 for _a, k in spec.upper):
        raise DomainError("contour path needs all shift multipliers 1")
    spec.validate()
    if contour is None:
        contour = default_contour(spec, tol)
    c0 = contour.abscissa
    if _pole_distance(spec, c0) < _POLE_GAP:
        raise DomainError(f"abscissa {c0} within {_POLE_GAP} of a pole")

    lognz = math.log(-z)
    h0 = contour.step * 2 ** (MIN_LEVEL - 1)
    n0 = math.ceil(contour.half_height / h0 - 1e-9)  # whole level-0 steps

    for _widen in range(5):  # one grid for levels 0 to MIN_LEVEL
        tau = np.arange((n0 << MIN_LEVEL) + 1) * math.ldexp(h0, -MIN_LEVEL)
        phi, bounds = _contour_integrand(spec, c0 + 1j * tau, lognz, tol)
        if abs(phi[-1]) <= tol * 1e-3:
            break
        n0 *= 2
    else:
        raise DomainError("contour tail did not decay; widen the strip")
    phi[0], bounds[0] = phi[0] / 2, bounds[0] / 2  # s = c0 has no mirror

    def contrib(level):
        if level > MIN_LEVEL:
            tau = np.arange(1, n0 << level, 2) * math.ldexp(h0, -level)
            v = _contour_integrand(spec, c0 + 1j * tau, lognz, tol)[0]
        else:  # on the first grid, the level's step is span nodes
            span = 1 << (MIN_LEVEL - level)
            v = phi[np.s_[span::2 * span] if level else np.s_[::span]]
        return h0 / math.pi * v.sum().real, 2 * v.size - (level == 0)

    value, err, nodes, ok = _refine_nested(contrib, tol)
    return EvalResult.of(float(value), nodes, "mellin_barnes", ok,
                         discretisation=err, dropped=abs(phi[-1]),
                         rounding=contour.step / (2 * math.pi) * bounds.sum())
