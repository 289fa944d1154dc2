"""The first estimate of the full-grid refinements.

``quadrature._refine_grid`` asks each product grid for its first sum at the
first level that may stop, and reads the level before it off the same
samples with the grid's coarse weights.  For each of the six grid users the
coarse sum must lie within a few eps times the sum of w |f| of the level
formed on its own grid, and the refinement must stop where, with the value
and flag, the two-call refinement stops: one grid for the level before,
then one per level.  The integrands drawn here are positive, so the sum of
w |f| is the sum itself.
"""

import sys

import numpy as np
import pytest

from exthyp import ineq, lauricella, quadrature
from exthyp.extbeta import RegPair
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
    every refinement's grid sum, tolerance, form, levels asked and result."""

    def __init__(self):
        self.runs = []

    def __call__(self, grid_sum, tol, rel=False):
        levels = []

        def counted(level, coarse=False):
            levels.append(level)
            return grid_sum(level, coarse)

        out = quadrature._refine_grid(counted, tol, rel)
        self.runs.append((grid_sum, tol, rel, levels, out))
        return out


def _spied(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(lauricella, "_refine_grid", spy)
    monkeypatch.setattr(ineq, "_refine_grid", spy)
    return spy


def _two_call(grid_sum, tol, rel):
    """Reference: the refinement from a grid of its first level, then one
    grid per level; returns its result and the last level it formed."""
    levels = []

    def estimate(level):
        levels.append(level)
        return grid_sum(level)

    out = quadrature._refine(estimate, tol, quadrature.GRID_LEVELS, rel)
    return out, levels[-1]


def _check_runs(spy, stops):
    first, least, _last = quadrature.GRID_LEVELS
    assert spy.runs
    for grid_sum, tol, rel, levels, out in spy.runs:
        # one grid per level from the first that may stop
        assert levels == list(range(least, levels[-1] + 1))
        value, err, nodes, ok = out
        assert type(value) is float and type(err) is float
        (coarse, fine), n = grid_sum(least, coarse=True)
        alone, _ = grid_sum(first)
        assert alone > 0.0 and fine > 0.0
        assert abs(coarse - alone) <= 4 * _EPS * alone, (coarse, alone)
        want, stop = _two_call(grid_sum, tol, rel)
        assert float(want[0]).hex() == value.hex()
        assert want[3] == ok and stop == levels[-1]
        # level 4's grid holds level 3's nodes: each counted once
        assert nodes == want[2] - grid_sum(first)[1]
        stops.append((levels[-1], ok, rel))


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
    levels = {lv for lv, ok, rel in stops if ok}
    assert min(levels) == 4 and max(levels) >= 5
    assert any(rel for *_, rel in stops) and not all(rel for *_, rel in stops)


@pytest.mark.parametrize("last", [4, 5])
def test_first_estimate_of_an_unconverged_refinement(monkeypatch, last):
    # at a tolerance of 1e-15 the last level is reached unconverged: at
    # level 4 by the first estimate alone, at 5 after one more grid
    monkeypatch.setattr(quadrature, "GRID_LEVELS", (3, 4, last))
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
    # the norm refines alone to a relative 1e-11; the bump's needs level 7
    stops = []
    for h, exponent, power in ((exp_decay(1.0), 0.3, 2.0),
                               (bump(1.0, 2.0), -0.2, 1.8),
                               (power_cut(0.5, 2.0), 0.1, 2.2)):
        with monkeypatch.context() as m:
            spy = _spied(m)
            value, ok = ineq._weighted_norm(h, exponent, power)
            assert type(value) is float and ok
            _check_runs(spy, stops)
    assert all(rel for *_, rel in stops)
    assert max(lv for lv, *_ in stops) >= 7

