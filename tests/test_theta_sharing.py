"""Kernel values shared through the per-level cache of extbeta.

Every kernel-weighted unit-interval integrand reads Theta(-b/t - d/(1-t))
from ``extbeta._unit_theta``, and the product grids read it through
``extbeta.unit_grid_kernel``.  The reference evaluates Theta afresh with
``theta_eval_arr`` on every call, the product grids on the sorted grid
itself, which is how each integrand formed it before the cache was shared;
both ways must give the same bits.
"""

import numpy as np
import pytest

from exthyp import corefn, extbeta, lauricella
from exthyp.appell import (
    AppellParams,
    f1_integral,
    f2_integral,
    f2_single_integral,
)
from exthyp.extbeta import BetaArgs, RegPair, _unit_theta, ext_beta
from exthyp.hyp import (
    _coeff_block,
    euler_step_integral,
    ext_2f1,
    ext_pfq,
    frac_deriv,
    pfq_spec,
)
from exthyp.kernel import EXP_KERNEL, EXP_VARIANT, kummer_kernel, theta_eval_arr
from exthyp.lauricella import (
    IntervalProductParams,
    LauricellaParams,
    fa_integral,
    fd_integral,
    interval_product_integral,
)
from exthyp.quadrature import (
    FIRST_PASS_LEVEL,
    GRID_LEVELS,
    unit_grid,
    unit_new_nodes,
)
from exthyp.results import DomainError

_REGS = (RegPair(0.2, 0.3), RegPair(0.0, 0.7), RegPair(1.0, 0.0))
CASES = ([(kummer_kernel(a, c), reg)
          for a, c in ((1.5, 2.5), (2.5, 1.0)) for reg in _REGS]
         + [(EXP_KERNEL, reg) for reg in _REGS])


def _fresh_unit_theta(k, reg, level):
    t, tc, _ = unit_new_nodes(level)
    with np.errstate(over="ignore", under="ignore"):
        return theta_eval_arr(k, -(reg.b / t + reg.d / tc))


def _fresh_grid_kernel(k, reg, level):
    g = unit_grid(level)
    with np.errstate(over="ignore", under="ignore"):
        arg = -(reg.b / g.nodes + reg.d / g.complements)
    return arg, None if k.variant == EXP_VARIANT else theta_eval_arr(k, arg)


def _integrands(k, reg):
    """(name, call) for every rewired integrand, at modest tolerances."""
    f12 = AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, reg, k)
    fd = LauricellaParams(0.8, (1.1, 0.7), (2.4,), (0.5, -0.3), reg, k)
    fa = LauricellaParams(0.8, (1.1, 0.7), (2.4, 2.1), (0.3, 0.35), reg, k)
    tp = IntervalProductParams(1.0, 3.0, 1.2, 1.3, ((0.2, 0.5, -0.9),),
                               reg, k)
    spec = pfq_spec(k, (0.8, 1.1, 0.7), (2.4, 1.9), reg)
    return [
        ("euler_step_integral", lambda: euler_step_integral(spec, -0.5)),
        ("f1_integral", lambda: f1_integral(f12, -0.5, 0.3)),
        ("f2_single_integral", lambda: f2_single_integral(f12, 0.3, 0.35)),
        ("fd_integral", lambda: fd_integral(fd)),
        ("f2_integral", lambda: f2_integral(f12, 0.3, 0.35, 1e-7)),
        ("fa_integral", lambda: fa_integral(fa, 1e-7)),
        ("ext_beta", lambda: ext_beta(k, BetaArgs(1.1, 2.4), reg)),
        ("frac_deriv", lambda: frac_deriv(k, -0.7, reg, np.exp, 0.8)),
        ("interval_product_integral",
         lambda: interval_product_integral(tp)),
    ]


def _bits(call):
    """int64 views of (value, abs_err_est) of each result, or the error."""
    try:
        out = call()
    except DomainError as exc:
        return repr(exc)
    results = out if isinstance(out, tuple) else (out,)
    return [(np.float64(r.value).view(np.int64),
             np.float64(r.abs_err_est).view(np.int64), r.terms_or_nodes,
             r.converged) for r in results]


@pytest.mark.parametrize("k, reg", CASES, ids=lambda x: repr(x))
def test_shared_theta_bit_identical_to_fresh(monkeypatch, k, reg):
    _unit_theta.cache_clear()
    shared = {name: _bits(call) for name, call in _integrands(k, reg)}
    with monkeypatch.context() as m:
        m.setattr(extbeta, "_unit_theta", _fresh_unit_theta)
        m.setattr(lauricella, "unit_grid_kernel", _fresh_grid_kernel)
        _unit_theta.cache_clear()
        fresh = {name: _bits(call) for name, call in _integrands(k, reg)}
    assert shared == fresh
    assert not any(isinstance(v, str) for v in shared.values()), shared


def _count_theta_nodes(monkeypatch):
    sizes = []
    inner = corefn.kummer_1f1_arr

    def counted(a, c, z):
        sizes.append(np.size(z))
        return inner(a, c, z)

    monkeypatch.setattr(corefn, "kummer_1f1_arr", counted)
    return sizes


def _per_call_sizes(top: int) -> list[int]:
    """Kernel nodes per call for levels 0..top: the first pass, levels
    0..FIRST_PASS_LEVEL, in one call, whatever ``top``, then one call per
    level."""
    sizes = [unit_new_nodes(lv)[0].size
             for lv in range(max(top, FIRST_PASS_LEVEL) + 1)]
    return [sum(sizes[:FIRST_PASS_LEVEL + 1])] + sizes[FIRST_PASS_LEVEL + 1:]


def _final_grid_level(nodes: int, r: int) -> int:
    """The last level of a product grid that used ``nodes`` points: its
    first grid is that of the first level that may stop, which also gives
    the level before it."""
    total = 0
    for level in range(GRID_LEVELS[0], 10):
        total += unit_grid(level).nodes.size ** r
        if total == nodes:
            return level
    raise AssertionError(f"{nodes} is no sum of grid sizes")


@pytest.mark.parametrize("which", ["f2_integral", "fa_integral"])
def test_product_grid_evaluates_each_node_once(monkeypatch, which):
    k, reg = kummer_kernel(1.5, 2.5), RegPair(0.2, 0.3)
    sizes = _count_theta_nodes(monkeypatch)
    _unit_theta.cache_clear()
    if which == "f2_integral":
        res = f2_integral(AppellParams(0.8, 1.1, 0.7, 2.4, 2.1, reg, k),
                          0.3, 0.35, 1e-8)
    else:
        res = fa_integral(LauricellaParams(0.8, (1.1, 0.7), (2.4, 2.1),
                                           (0.3, 0.35), reg, k), 1e-8)
    level = _final_grid_level(res.terms_or_nodes, 2)
    assert level >= 4
    # one evaluation per level's new nodes, not one per axis and grid level;
    # the first pass evaluates levels 0..FIRST_PASS_LEVEL in any case
    assert sizes == _per_call_sizes(level)
    assert sum(sizes) == unit_grid(max(level, FIRST_PASS_LEVEL)).nodes.size


def test_euler_step_and_ladder_share_the_kernel_values(monkeypatch):
    # the 3F2 Euler step sums an inner 2F1 series from a coefficient ladder
    # whose beta batches read the same levels as the integrand; auto sums
    # the 3F2 series instead, so the step is asked for by name
    k, reg = kummer_kernel(1.5, 2.5), RegPair(0.2, 0.3)
    spec = pfq_spec(k, (0.8, 1.1, 0.7), (2.4, 1.9), reg)
    sizes = _count_theta_nodes(monkeypatch)
    _unit_theta.cache_clear()
    res = ext_pfq(spec, -0.5, method="integral")
    assert res.method == "euler_integral"
    top = len(sizes) + FIRST_PASS_LEVEL - 1
    assert sizes == _per_call_sizes(top)
    # the integrand read only levels the ladder had already evaluated, or
    # evaluated them itself
    assert res.terms_or_nodes <= sum(sizes)


def test_fresh_series_call_evaluates_the_kernel_in_one_call(monkeypatch):
    # the coefficient ladder's batches stop at FIRST_PASS_LEVEL or later, so
    # the first pass's one kernel call over levels 0..FIRST_PASS_LEVEL is
    # the only one: 13 + 12 + 24 + 48 + 96 + 194 = 387 nodes
    k, reg = kummer_kernel(1.5, 2.5), RegPair(0.2, 0.3)
    sizes = _count_theta_nodes(monkeypatch)
    _unit_theta.cache_clear()
    _coeff_block.cache_clear()
    res = ext_2f1(k, 0.8, 1.1, 2.4, 0.3, reg)
    assert res.method == "series" and res.converged
    assert sizes == [unit_new_nodes(-1)[0].size] == [387]
