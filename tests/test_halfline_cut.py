"""The half-line cut of the Laplace-type product integrals.

``fd_laplace_product`` and ``fa_single_integral`` keep the half-line nodes
before the point where a majorant of their integrand has spent 2^-10 of the
refinement's tolerance, and add the majorant's sum over the dropped nodes to
``abs_err_est``.  The majorant needs a kernel with values in [0, 1] on
(-inf, 0]; the confluent kernel with c < a keeps the overflow cut alone,
bit for bit.  With every kernel the integral lies within the sum of its
estimate and the series' of the same value.
"""

import math

import numpy as np
import pytest

from exthyp import lauricella, quadrature
from exthyp.extbeta import RegPair
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.lauricella import (
    LauricellaParams,
    fa_single_integral,
    fd_laplace_product,
)

_EPS = np.finfo(float).eps
_SHARE = 2.0 ** -10
_KERNELS = {"exp": EXP_KERNEL, "kummer c>a": kummer_kernel(1.3, 2.1),
            "kummer c<a": kummer_kernel(2.1, 1.3)}
_TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


def _draw_fd(rng, r, kernel):
    alpha = rng.uniform(0.3, 2.0)
    return LauricellaParams(alpha, tuple(rng.uniform(0.3, 3.0, r)),
                            (alpha + rng.uniform(0.3, 2.0),),
                            tuple(rng.uniform(0.0, 0.9, r) / r),
                            RegPair(*rng.uniform(0.0, 0.5, 2)), kernel)


def _draw_fa(rng, r, kernel):
    betas = tuple(rng.uniform(0.3, 2.0, r))
    gammas = tuple(b + rng.uniform(0.3, 2.0) for b in betas)
    return LauricellaParams(rng.uniform(0.3, 2.5), betas, gammas,
                            tuple(rng.uniform(-0.9, 0.9, r) / r),
                            RegPair(*rng.uniform(0.0, 0.5, 2)), kernel)


def _cases(seed):
    """(name, params, call(tol) -> (integral, series), overflow cut,
    scale): scale takes the integrand's units to the result's."""
    rng = np.random.default_rng(seed)
    cases = []
    for kname, kern in _KERNELS.items():
        for r in (1, 2):
            p = _draw_fd(rng, r, kern)
            cut = min(750.0 / (1.0 - max(p.xs)),
                      700.0 / max(sum(p.xs), 1e-300))
            cases.append((f"fd r={r} {kname}", p,
                          lambda tol, p=p: fd_laplace_product(p, tol),
                          cut, 1.0))
        for r in (1, 2, 3):
            p = _draw_fa(rng, r, kern)
            cut = min(750.0 / (1.0 - sum(max(x, 0.0) for x in p.xs)),
                      700.0 / max(max(abs(x) for x in p.xs), 1e-300))
            cases.append((f"fa r={r} {kname}", p,
                          lambda tol, p=p: fa_single_integral(p, tol)[::-1],
                          cut, math.exp(-math.lgamma(p.alpha))))
    return cases


def _spied_cuts(monkeypatch, zero=False):
    """Record every level's (level, counts, bound) of ``_halfline_cut``;
    with ``zero`` the bound handed back is 0."""
    calls = []
    cut = lauricella._halfline_cut

    def spy(level, *args):
        axes, bound = cut(level, *args)
        calls.append((level, tuple(a[0].size for a in axes), bound))
        return axes, 0.0 if zero else bound

    monkeypatch.setattr(lauricella, "_halfline_cut", spy)
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_cut_is_certified_and_counted(monkeypatch, seed):
    cut_somewhere = set()
    for name, p, call, cut, scale in _cases(seed):
        bounded = not name.endswith("c<a")
        for tol in _TOLS:
            with monkeypatch.context() as m:
                calls = _spied_cuts(m)
                integral, series = call(tol)
            with monkeypatch.context() as m:
                _spied_cuts(m, zero=True)
                unbounded, _ = call(tol)
            assert calls, name
            for level, counts, bound in calls:
                limit = np.count_nonzero(
                    quadrature.halfline_grid(level).nodes < cut)
                assert len(counts) == (p.r if name.startswith("fd") else 1)
                if not bounded:
                    # the overflow cut alone, as before, and no bound
                    assert counts == (limit,) * len(counts), name
                    assert bound == 0.0
                    continue
                assert all(k <= limit for k in counts), name
                if any(k < limit for k in counts):
                    cut_somewhere.add(name)
            # the bound of the returned (last) level is within the budget
            # and in the estimate; the cut alone moves no value bit
            bound = calls[-1][2]
            assert scale * bound <= _SHARE * tol, (name, tol)
            assert integral.value.hex() == unbounded.value.hex()
            assert integral.terms_or_nodes == unbounded.terms_or_nodes
            added = integral.abs_err_est - unbounded.abs_err_est
            assert abs(added - scale * bound) <= (
                4 * _EPS * integral.abs_err_est + 1e-12 * scale * bound), \
                (name, tol, added, scale * bound)
            assert integral.converged, (name, tol)
            assert (abs(integral.value - series.value)
                    <= integral.abs_err_est + series.abs_err_est), \
                (name, tol, integral, series)
    # every bounded form drops nodes somewhere
    assert cut_somewhere == {name for name, *_ in _cases(seed)
                             if not name.endswith("c<a")}


def test_type_a_majorant_takes_the_positive_parts_of_the_arguments():
    # each |Phi_j(w)| <= e^max(w, 0) under a kernel in [0, 1] on (-inf, 0]:
    # a rate of 1 - sum_j |x_j| = 0.0099 left the majorant unspent at the
    # overflow cut, a dropped part of 0.0248 in a converged result
    p = LauricellaParams(
        1.0325605475608097,
        (0.6716040641716068, 0.39236484564649426, 1.0197153705559208),
        (1.1061196025644562, 1.0094881877177557, 1.8684451197346108),
        (-0.36846920074779216, 0.1697376658131439, -0.4517931334390639),
        RegPair(0.1, 0.2), kummer_kernel(1.2, 2.5))
    series, integral = fa_single_integral(p, 1e-10)
    assert integral.converged
    assert dict(integral.parts)["dropped"] <= _SHARE * 1e-10
    # the series' own estimate is loose here (ROADMAP item 2)
    assert abs(integral.value - series.value) <= integral.abs_err_est


def test_cut_ends_are_fixed_on_the_first_level_that_may_stop():
    # the ends are nodes of the level-4 grid, so each level's sum read off
    # its grid with the coarse weights keeps the previous level's nodes
    # before the same points as that level's own grid, from level 3 on
    p = LauricellaParams(0.8, (0.9, 1.2), (2.5,), (0.15, 0.2),
                         RegPair(0.1, 0.1))
    majorant = ([b - 1.0 for b in p.betas], [1.0 - x for x in p.xs])
    ends, got = lauricella._halfline_ends(
        EXP_KERNEL, majorant, _SHARE * 1e-8, min(750.0 / 0.8, 700.0 / 0.35))
    assert got is majorant

    def at(level):
        """The level's half-line nodes, the nodes each axis keeps, the
        bound; each axis is the grid's before its end."""
        nodes = quadrature.halfline_grid(level).nodes
        axes, bound = lauricella._halfline_cut(level, ends, majorant)
        for t, w, c, tc in axes:
            assert np.array_equal(t, nodes[:t.size]) and tc is None
        return nodes, tuple(a[0].size for a in axes), bound

    first, last = quadrature.GRID_LEVELS
    g4, counts4, bound4 = at(first)
    assert ends == [g4[k] for k in counts4]
    for level in range(first - 1, last + 1):
        g, counts, bound = at(level)
        assert counts == tuple(int(np.count_nonzero(g < e)) for e in ends)
        if level > first:
            # finer levels drop no larger a majorant sum past the ends
            assert bound <= bound4
    assert bound4 <= _SHARE * 1e-8
    # the r = 2 conformance point keeps 133 and 134 of the 143 nodes
    # before the overflow cut
    assert counts4 == (133, 134)
    assert np.count_nonzero(g4 < 750.0 / 0.8) == 143
