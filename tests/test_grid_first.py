"""The first estimate of the full-grid refinements.

``quadrature._refine_grid`` asks each product grid for one set of samples
per level, from the first level that may stop, and reads the level before
off the same samples with the grid's coarse weights.  For each of the six
grid users the refinement must stop where, with the value, node count and
flag, the refinement that forms one grid of its own per level stops, from
the level before the first that may stop; its error, less the floor and
the other error of the level returned, is that refinement's error up to
the rounding of the two sums of the level before, a few eps times the sum
of w |f| (the integrands drawn here are positive, so that is the sum
itself).  Both are in the units of the value, the prefactor handed to the
refinement times the sum.
"""

import math
import sys
import time

import numpy as np
import pytest

from exthyp import ineq, lauricella, quadrature
from exthyp.appell import AppellParams, f2_integral, f2_single_integral
from exthyp.extbeta import BetaArgs, RegPair, ext_beta, ext_gamma
from exthyp.hyp import ext_2f1, frac_deriv
from exthyp.ineq import (
    bump,
    exp_decay,
    hilbert_bilinear,
    hilbert_equivalent,
    midpoint_params,
    power_cut,
)
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.lauricella import (
    LauricellaParams,
    fa_integral,
    fa_single_integral,
    fd_laplace_product,
)
from exthyp.results import DomainError

_EPS = sys.float_info.epsilon
_KERNELS = {"exp": EXP_KERNEL, "kummer": kummer_kernel(1.3, 2.1)}


def _draw_fa(rng, r, kernel):
    betas = tuple(rng.uniform(0.3, 2.0, r))
    gammas = tuple(b + rng.uniform(0.3, 2.0) for b in betas)
    xs = tuple(rng.uniform(-0.9, 0.9, r) / r)
    return LauricellaParams(rng.uniform(0.3, 2.5), betas, gammas, xs,
                            RegPair(*rng.uniform(0.0, 0.5, 2)), kernel)


def _draw_fd(rng, r, kernel):
    alpha = rng.uniform(0.3, 2.0)
    return LauricellaParams(alpha, tuple(rng.uniform(0.3, 2.0, r)),
                            (alpha + rng.uniform(0.3, 2.0),),
                            tuple(rng.uniform(0.0, 0.6, r) / r),
                            RegPair(*rng.uniform(0.0, 0.5, 2)), kernel)


def _hp(rng):
    p = rng.uniform(1.6, 2.0)
    return midpoint_params(p, p / (p - 1.0) * rng.uniform(0.85, 1.0),
                           rng.uniform(0.5, 0.7), rng.uniform(0.5, 0.7),
                           rng.uniform(0.8, 1.2), rng.uniform(1.0, 1.5),
                           rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2))


def _users(seed):
    """(name, call(tol)) for the full-grid users; the Hilbert-Hardy forms
    also refine the weighted norms, so a call runs one or more
    refinements."""
    rng = np.random.default_rng(seed)
    users = []
    for kname, kern in _KERNELS.items():
        for r in (1, 2):
            p = _draw_fa(rng, r, kern)
            users.append((f"fa_integral r={r} {kname}",
                          lambda tol, p=p: fa_integral(p, tol)))
            q = _draw_fd(rng, r, kern)
            users.append((f"fd_laplace_product r={r} {kname}",
                          lambda tol, q=q: fd_laplace_product(q, tol)[0]))
        p = _draw_fa(rng, 2, kern)
        users.append((f"fa_single_integral {kname}",
                      lambda tol, p=p: fa_single_integral(p, tol)[1]))
    hp = _hp(rng)
    for name, f, g in (("exp_decay", exp_decay(rng.uniform(0.5, 2.0)),
                        exp_decay(rng.uniform(0.0, 1.0))),
                       ("bump", exp_decay(1.0), bump(1.0, 2.0)),
                       ("power_cut", power_cut(0.5, 2.0), exp_decay(1.0))):
        users.append((f"hilbert_bilinear {name}",
                      lambda tol, f=f, g=g: hilbert_bilinear(hp, f, g, tol)))
        users.append((f"hilbert_equivalent {name}",
                      lambda tol, f=f: hilbert_equivalent(hp, f, tol)))
    return users


class _Spy:
    """Stands in for ``_refine_grid`` in lauricella and ineq, and keeps
    every refinement's grid sum, tolerance, prefactor, levels asked and
    result."""

    def __init__(self):
        self.runs = []

    def __call__(self, grid_sum, tol, norm=(1.0, 0.0)):
        levels = []

        def counted(level):
            levels.append(level)
            return grid_sum(level)

        out = quadrature._refine_grid(counted, tol, norm)
        self.runs.append((grid_sum, tol, norm, levels, out))
        return out


def _spied(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(lauricella, "_refine_grid", spy)
    monkeypatch.setattr(ineq, "_refine_grid", spy)
    return spy


def _one_grid_per_level(grid_sum, tol, c):
    """Reference: the refinement with one grid of its own per level, from
    the level before the first that may stop, each level's error its sum's
    difference from the level before's, judged on the value c times the
    sum; returns its result and the last level it formed."""
    least, last = quadrature.GRID_LEVELS
    prev, err, nodes = None, math.inf, 0
    for level in range(least - 1, last + 1):
        (_, est), n, _ = grid_sum(level)
        nodes += n
        if prev is not None:
            err = abs(est - prev)
        if level >= least and c * err <= tol * (1.0 + c * abs(est)):
            return (est, err, nodes, True), level
        prev = est
    return (est, err, nodes, False), last


# the level before's sum read off a grid with the coarse weights and formed
# on that level's own grid differ by their rounding: at most this many eps
# times the sum (the largest seen over the 203 refinements below is 2.15)
_ROUNDING_EPS = 8


def _check_runs(spy, stops):
    least, _last = quadrature.GRID_LEVELS
    assert spy.runs
    for grid_sum, tol, (c, rel_err), levels, out in spy.runs:
        # one grid per level from the first that may stop
        assert levels == list(range(least, levels[-1] + 1))
        value, nodes, ok = out.value, out.terms_or_nodes, out.converged
        assert type(value) is float and type(out.abs_err_est) is float
        want, stop = _one_grid_per_level(grid_sum, tol, c)
        assert (want[0] * c).hex() == value.hex()
        assert want[3] == ok and stop == levels[-1]
        # the level before the first that may stop has no grid of its own
        assert nodes == want[2] - grid_sum(least - 1)[1]
        (coarse, fine), _, (modulus, own) = grid_sum(stop)
        assert coarse > 0.0 and fine > 0.0
        assert modulus == fine and all(b >= 0.0 for b in own.values())
        # the level difference, the floor, the level's own parts and the
        # prefactor's error, in the value's units
        parts = dict(out.parts)
        assert parts == {"discretisation": parts["discretisation"],
                         "rounding": 2 * _EPS * modulus * c,
                         **{name: b * c for name, b in own.items()},
                         "normalisation": abs(value) * rel_err}
        assert abs(parts["discretisation"] - want[1] * c) \
            <= _ROUNDING_EPS * _EPS * fine * c, (parts, want[1], fine)
        stops.append((levels[-1], ok, c))


@pytest.mark.parametrize("seed", [3, 11])
def test_first_estimate_matches_the_two_call_refinement(monkeypatch, seed):
    stops = []
    for name, call in _users(seed):
        for tol in (1e-6, 1e-10, 1e-13):
            with monkeypatch.context() as m:
                spy = _spied(m)
                res = call(tol)
                if hasattr(res, "abs_err_est"):
                    assert type(res.value) is float, name
                    assert type(res.abs_err_est) is float, name
                else:
                    assert type(res.lhs) is float, name
                _check_runs(spy, stops)
    levels = {lv for lv, ok, c in stops if ok}
    assert min(levels) == 4 and max(levels) >= 5
    # the type A forms hand their prefactor to the refinement, the others
    # refine a sum of prefactor 1
    assert any(c != 1.0 for *_, c in stops) and 1.0 in {c for *_, c in stops}


@pytest.mark.parametrize("last", [4, 5])
def test_first_estimate_of_an_unconverged_refinement(monkeypatch, last):
    # at a tolerance of 1e-15 the last level is reached unconverged: at
    # level 4 by the first grid alone, at 5 after one more grid
    monkeypatch.setattr(quadrature, "GRID_LEVELS", (4, last))
    unconverged = []
    for name, call in _users(5):
        with monkeypatch.context() as m:
            spy = _spied(m)
            call(1e-15)
            stops = []
            _check_runs(spy, stops)
        unconverged += [name for lv, ok, _ in stops if not ok and lv == last]
    if last == 4:
        assert set(unconverged) == {name for name, _ in _users(5)}
    else:
        assert any(name.startswith("fa_integral") for name in unconverged)
        assert any(name.startswith("hilbert") for name in unconverged)


def test_weighted_norm_first_estimate(monkeypatch):
    # the norm refines alone to 1e-11 (1 + |norm|); the bump's needs level 7
    stops = []
    for h, exponent, power in ((exp_decay(1.0), 0.3, 2.0),
                               (bump(1.0, 2.0), -0.2, 1.8),
                               (power_cut(0.5, 2.0), 0.1, 2.2)):
        with monkeypatch.context() as m:
            spy = _spied(m)
            value, ok = ineq._weighted_norm(h, exponent, power)
            assert type(value) is float and ok
            _check_runs(spy, stops)
    assert all(c == 1.0 for *_, c in stops)
    assert max(lv for lv, *_ in stops) >= 7


def _public_users():
    """(name, call(tol)): each public entry point of a full-grid
    refinement that takes a tolerance, at a conformance point."""
    fa = LauricellaParams(1.0, (0.6, 0.7), (1.8, 2.1), (0.2, 0.25),
                          RegPair(0.1, 0.1))
    fd = LauricellaParams(0.8, (0.9, 1.2), (2.5,), (0.15, 0.2),
                          RegPair(0.1, 0.1))
    f2 = AppellParams(1.0, 0.5, 0.6, 1.9, 2.0, RegPair(0.1, 0.1))
    hp, f, g = midpoint_params(1.8, 2.2, 0.6, 0.6, 1.0, 1.5, 0.2, 0.2), \
        exp_decay(1.0), bump(1.0, 2.0)
    return [("fa_integral", lambda tol: fa_integral(fa, tol)),
            ("f2_integral", lambda tol: f2_integral(f2, 0.2, 0.3, tol)),
            ("fd_laplace_product", lambda tol: fd_laplace_product(fd, tol)),
            ("fa_single_integral", lambda tol: fa_single_integral(fa, tol)),
            ("hilbert_bilinear", lambda tol: hilbert_bilinear(hp, f, g, tol)),
            ("hilbert_equivalent", lambda tol: hilbert_equivalent(hp, f, tol))]


def _nested_users():
    """(name, call(tol)): the nested refinements' entry points that take a
    tolerance, and both routes of ext_pfq."""
    reg, fd = RegPair(0.1, 0.1), LauricellaParams(
        0.8, (0.9, 1.2), (2.5,), (0.15, 0.2), RegPair(0.1, 0.1))
    f2 = AppellParams(1.0, 0.5, 0.6, 1.9, 2.0, reg)
    return [
        ("ext_beta", lambda tol: ext_beta(EXP_KERNEL, BetaArgs(2, 3), reg,
                                          tol)),
        ("ext_gamma", lambda tol: ext_gamma(EXP_KERNEL, 1.5, 0.1, tol)),
        ("integrate_unit2", lambda tol: quadrature.integrate_unit2(
            lambda t, tc: t * tc, tol)),
        ("integrate_halfline", lambda tol: quadrature.integrate_halfline(
            lambda t: np.exp(-t), tol)),
        ("2F1 Euler route", lambda tol: ext_2f1(
            EXP_KERNEL, 0.5, 0.6, 1.7, -0.5, reg, tol)),
        ("2F1 series route", lambda tol: ext_2f1(
            EXP_KERNEL, 0.5, 0.6, 1.7, 0.3, reg, tol)),
        ("fd_integral", lambda tol: lauricella.fd_integral(fd, tol)),
        ("f2_single_integral", lambda tol: f2_single_integral(
            f2, 0.2, 0.3, tol)),
        ("frac_deriv", lambda tol: frac_deriv(
            EXP_KERNEL, -0.7, reg, lambda t: np.exp(-t), 0.8, tol))]


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_grid_refinements_refuse_a_bad_tolerance_before_any_level(tol):
    # the CLI's rule, in the engine: at tol -1 the type D Laplace form
    # refined for 8.8 s over 7e6 nodes, and at inf it and the type A single
    # integral returned 0.0 from 0 nodes, converged.  The nested
    # refinements refuse in the same loop (an integral that forms its first
    # pass before the loop, after that pass): at tol nan ext_beta ran 49,561
    # nodes unconverged, and at inf it and the 2F1 Euler route converged
    for name, call in _public_users() + _nested_users():
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="tolerance"):
            call(tol)
        assert time.perf_counter() - t0 < 0.5, name


@pytest.mark.parametrize("upper", [-1.0, 0.0, math.nan])
def test_single_integral_refuses_an_upper_limit_not_above_0(upper):
    # before: NaN unconverged after 6001 nodes at -1, NaN and log(0)
    # warnings at 0, and a series failure after 71 ms at NaN
    p = LauricellaParams(1.0, (0.8,), (2.0,), (0.3,))
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="upper > 0"):
        fa_single_integral(p, 1e-8, upper)
    assert time.perf_counter() - t0 < 0.5
