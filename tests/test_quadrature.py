"""Quadrature engine: closed-form integrals, batching, honesty of estimates."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import exthyp
from exthyp import extbeta, hyp, quadrature
from exthyp.extbeta import RegPair, _kernel_integral, ext_beta_complex_many
from exthyp.hyp import (
    _one_f0_vector,
    euler_step_integral,
    pfq_series_vector,
    pfq_spec,
)
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.quadrature import (
    _BATCH_BLOCK_FLOATS,
    _DOT_COLUMNS,
    FIRST_PASS_LEVEL,
    MAX_LEVEL,
    MIN_LEVEL,
    _member_sums,
    _refine,
    integrate_halfline,
    integrate_unit2,
    integrate_unit_batch,
    unit_grid,
    unit_level_span,
    unit_new_nodes,
    halfline_grid,
)
from exthyp.results import DomainError, NonFiniteSampleError

TOL = 1e-10
# the level range of the nested form, passed to the synthetic _refine tests
NESTED = (0, MIN_LEVEL, MAX_LEVEL)


def test_unit_constant():
    q = integrate_unit2(lambda t, tc: np.ones_like(t), TOL)
    assert q.converged
    assert abs(q.value - 1.0) < 1e-12


def test_unit_sqrt_singularity():
    q = integrate_unit2(lambda t, tc: t ** -0.5, TOL)
    assert q.converged
    assert abs(q.value - 2.0) < 1e-11


def test_unit_beta_both_endpoints():
    # B(0.3, 0.7) = pi / sin(0.3 pi)
    expected = math.pi / math.sin(0.3 * math.pi)
    q = integrate_unit2(lambda t, tc: t ** -0.7 * tc ** -0.3, TOL)
    assert q.converged
    assert abs(q.value - expected) < 1e-10 * expected


def test_halfline_exponential():
    q = integrate_halfline(lambda t: np.exp(-t), TOL)
    assert abs(q.value - 1.0) < 1e-11


def test_halfline_gamma2():
    q = integrate_halfline(lambda t: t * np.exp(-t), TOL)
    assert abs(q.value - 1.0) < 1e-11


def test_halfline_bessel_closed_form():
    # int_0^inf t^(-1/2) exp(-t - 1/t) dt = sqrt(pi) e^-2
    expected = math.sqrt(math.pi) * math.exp(-2.0)
    q = integrate_halfline(
        lambda t: np.exp(-0.5 * np.log(t) - t - 1.0 / t), TOL)
    assert abs(q.value - expected) < 1e-11


def test_batch_simple_powers():
    vals, errs, _, ok = integrate_unit_batch(
        lambda t, tc: np.ones_like(t), 3, 1e-12)
    assert ok
    for m, want in enumerate([1.0, 0.5, 1.0 / 3.0]):
        assert abs(vals[m] - want) < 1e-12


def test_batch_with_factor():
    vals, _, _, ok = integrate_unit_batch(lambda t, tc: tc, 2, 1e-12)
    assert ok
    assert abs(vals[0] - 0.5) < 1e-12
    assert abs(vals[1] - 1.0 / 6.0) < 1e-12


def test_batch_matches_unbatched():
    def g(t, tc):
        return np.exp(-0.1 / t - 0.1 / tc)

    vals, _, _, ok = integrate_unit_batch(g, 4, 1e-13)
    assert ok
    for m in range(4):
        single = integrate_unit2(lambda t, tc, m=m: t ** m * g(t, tc), 1e-13)
        assert abs(vals[m] - single.value) <= 1e-13 * (1 + abs(single.value))


def test_batch_stride_two():
    vals, _, _, _ = integrate_unit_batch(
        lambda t, tc: np.ones_like(t), 3, 1e-13, kstep=2)
    for m, want in enumerate([1.0, 1.0 / 3.0, 1.0 / 5.0]):
        assert abs(vals[m] - want) < 1e-12


def _loop_batch_reference(f0, count, tol, kstep):
    """Reference: one level at a time, member m the dot product of row m of
    the running product of t**kstep with the weighted samples, in runs of
    _DOT_COLUMNS columns added in order."""
    def contrib(level):
        t, tc, w = unit_new_nodes(level)
        base = w * np.asarray(f0(t, tc), dtype=float)
        ratio = t ** kstep
        out = np.empty(count)
        power = np.ones_like(t)
        for m in range(count):
            out[m] = 0.0
            for c0 in range(0, t.size, _DOT_COLUMNS):
                c = slice(c0, c0 + _DOT_COLUMNS)
                out[m] += np.dot(power[c], base[c])
            power = power * ratio
        return out, t.size

    totals = None
    prev = None
    errs = np.full(count, math.inf)
    nodes = 0
    converged = False
    for level in range(MAX_LEVEL + 1):
        s, n = contrib(level)
        nodes += n
        h = 2.0 ** -level if level else 1.0
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            errs = np.abs(totals - prev)
        if level >= 3 and (errs <= tol * (1.0 + np.abs(totals))).all():
            converged = True
            break
        prev = totals.copy()
    return totals, errs, nodes, converged


def _kinked(t, tc):
    # the kink at t = 1/3 keeps the level-to-level change far above 1e-30
    return t ** -0.4 * tc ** 0.7 * np.abs(t - 1.0 / 3.0)


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64),
                          np.asarray(y).view(np.int64))


@pytest.mark.parametrize("kstep", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 64, 200])
def test_batch_bit_identical_to_member_loop(kstep, count):
    # at MAX_LEVEL the members of counts 64 and 200 span several blocks
    assert 64 * unit_new_nodes(MAX_LEVEL)[0].size > 2 * _BATCH_BLOCK_FLOATS
    for tol in (1e-6, 1e-30):
        got = integrate_unit_batch(_kinked, count, tol, kstep)
        want = _loop_batch_reference(_kinked, count, tol, kstep)
        assert _same_bits(got[0], want[0])
        assert _same_bits(got[1], want[1])
        assert got[2:] == want[2:]
        assert got[3] == (tol == 1e-6)
    assert got[2] == unit_grid(MAX_LEVEL).nodes.size


@pytest.mark.parametrize("count", [0, -2, 2.5, "4"])
def test_batch_bad_count_is_domain_error_before_any_node(monkeypatch, count):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a node was formed")

    monkeypatch.setattr(quadrature, "unit_new_nodes", no_nodes)
    with pytest.raises(DomainError):
        integrate_unit_batch(_kinked, count, 1e-6)


@pytest.mark.parametrize("kstep", [1, 2])
def test_batch_bits_do_not_depend_on_table_cache_or_count(kstep):
    def smooth(t, tc):
        return t ** -0.4 * tc ** 0.7

    quadrature._power_cache.clear()
    fresh = integrate_unit_batch(smooth, 64, 1e-6, kstep)
    table = quadrature._power_cache[(-1, kstep, 0)]
    cached = integrate_unit_batch(smooth, 64, 1e-6, kstep)
    assert quadrature._power_cache[(-1, kstep, 0)] is table
    assert _same_bits(fresh[0], cached[0]) and _same_bits(fresh[1], cached[1])
    # to MAX_LEVEL, where 200 members span many blocks of the power table
    # and the cache holds only a few of them
    n = unit_new_nodes(MAX_LEVEL)[0].size
    assert 200 * n > 4 * quadrature._POWER_CACHE_FLOATS
    deep = integrate_unit_batch(_kinked, 64, 1e-30, kstep)
    wide = integrate_unit_batch(_kinked, 200, 1e-30, kstep)
    assert deep[2] == wide[2] == unit_grid(MAX_LEVEL).nodes.size
    assert _same_bits(wide[0][:64], deep[0])
    assert _same_bits(wide[1][:64], deep[1])


@pytest.mark.parametrize("kstep, count", [(0, 3), (1, 64), (2, 200)])
def test_batch_first_levels_in_one_pass_equal_one_level_at_a_time(kstep,
                                                                  count):
    sizes = []

    def f0(t, tc):
        sizes.append(t.size)
        return _kinked(t, tc)

    integrate_unit_batch(f0, count, 1e-6, kstep)
    per_level = [unit_new_nodes(lv)[0].size
                 for lv in range(FIRST_PASS_LEVEL + len(sizes))]
    # one call over levels 0..FIRST_PASS_LEVEL, then one per level
    first = sum(per_level[:FIRST_PASS_LEVEL + 1])
    assert len(sizes) > 1
    assert sizes == [first] + per_level[FIRST_PASS_LEVEL + 1:]
    t, tc, w = unit_new_nodes(-1)
    spans = [unit_level_span(lv) for lv in range(FIRST_PASS_LEVEL + 1)]
    merged = _member_sums(-1, kstep, count, w * _kinked(t, tc), spans)
    for lv, span in enumerate(spans):
        t, tc, w = unit_new_nodes(lv)
        assert _same_bits(t, unit_new_nodes(-1)[0][span])
        alone = _member_sums(lv, kstep, count, w * _kinked(t, tc),
                             [slice(0, t.size)])
        assert _same_bits(merged[lv], alone[0])


def _peaked(t, tc):
    return np.exp(-0.1 / t - 0.1 / tc)


def _stop_level(nodes):
    """The level a nested refinement that used this many nodes stopped at."""
    return next(lv for lv in range(MAX_LEVEL + 1)
                if unit_grid(lv).nodes.size == nodes)


@pytest.mark.parametrize("kstep, count", [(0, 3), (1, 64), (2, 5)])
def test_batch_first_estimate_bit_identical_to_one_level_at_a_time(kstep,
                                                                  count):
    # the first pass goes to the refinement as one stacked estimate; the
    # values, errors, node counts and verdict are those of the member loop
    # that forms and judges one level at a time, wherever it stops
    cases = [(_peaked, 1e-2), (_peaked, 1e-6), (_peaked, 1e-10),
             (_kinked, 1e-5)]
    stops = []
    for f0, tol in cases:
        got = integrate_unit_batch(f0, count, tol, kstep)
        want = _loop_batch_reference(f0, count, tol, kstep)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[2:] == want[2:]
        stops.append(_stop_level(got[2]))
    assert stops[:3] == [MIN_LEVEL, 4, FIRST_PASS_LEVEL]
    assert stops[3] > FIRST_PASS_LEVEL


def _loop_kernel_reference(k, reg, powexp, tol, factor, norm):
    """Reference for _kernel_integral (lognorm 0): one level at a time, the
    samples formed on the level's nodes, times the factor, then checked,
    and judged on the value c times the integral, for norm = (c, relative
    error).  The estimate adds c times eps times the last level's nested
    sum of |w f| and c times its nested sum of |w f| times the factor's
    errors, whose levels 0..MIN_LEVEL are summed as one array, and |value|
    times the relative error."""
    c, rel_err = norm
    total = prev = None
    err, nodes, head, moduli, spreads = math.inf, 0, [], 0.0, 0.0
    for level in range(MAX_LEVEL + 1):
        t, tc, w = unit_new_nodes(level)
        lt, ltc = extbeta._unit_logs(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = w * extbeta.safe_theta_product(
                k, powexp(t, tc, lt, ltc), *extbeta.unit_kernel(k, reg, level))
            spread = np.zeros_like(vals)
            if factor is not None:
                fv, ferr = factor(t)
                spread = np.abs(vals) * ferr
                vals = vals * fv
        assert np.isfinite(vals).all()
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        total = h * vals.sum() if total is None else 0.5 * total + h * vals.sum()
        if level < MIN_LEVEL:
            head.append((vals, spread))
        elif level == MIN_LEVEL:
            moduli = np.abs(np.concatenate([v for v, _ in head] + [vals])).sum()
            spreads = np.concatenate([s for _, s in head] + [spread]).sum()
        else:
            moduli += np.abs(vals).sum()
            spreads += spread.sum()
        if prev is not None:
            err = abs(total - prev)
        ok = c * err <= tol * (1.0 + c * abs(total))
        if level >= MIN_LEVEL and ok or level == MAX_LEVEL:
            break
        prev = total
    value = float(total) * c
    est = (0.0 + err * c + math.ldexp(spreads, -level) * c
           + np.finfo(float).eps * math.ldexp(moduli, -level) * c
           + abs(value) * rel_err)
    return value, est, nodes, ok


_INNER = pfq_spec(EXP_KERNEL, (0.7, 1.2), (2.1,), RegPair(0.1, 0.1))


def _inner_factor(t):
    return pfq_series_vector(_INNER, 0.6 * t)


def _closed_factor(t):
    return _one_f0_vector(0.7, 1, 0.6 * t, 3 * np.finfo(float).eps)


@pytest.mark.parametrize("factor", [None, _inner_factor, _closed_factor],
                         ids=["none", "inner-series", "closed-form"])
@pytest.mark.parametrize("k", [EXP_KERNEL, kummer_kernel(1.5, 2.5)],
                         ids=["exp", "kummer"])
def test_kernel_integral_first_estimate_bit_identical_to_one_level_at_a_time(
        k, factor):
    # levels 0..MIN_LEVEL go to the refinement as one stacked estimate,
    # the factor called once on their nodes; the result is that of the
    # loop that weighs and judges one level at a time
    reg = RegPair(0.1, 0.1)

    def powexp(t, tc, lt, ltc):
        return -0.4 * lt + 0.7 * ltc

    stops, norm = [], (0.37, 1e-15)
    for tol in (1e-2, 1e-6, 1e-10, 1e-15):
        got = _kernel_integral(k, reg, powexp, tol, norm, factor)
        value, est, nodes, ok = _loop_kernel_reference(k, reg, powexp, tol,
                                                       factor, norm)
        assert _same_bits(got.value, value)
        assert got.abs_err_est == float(est)
        assert (got.terms_or_nodes, got.converged) == (nodes, ok)
        stops.append(_stop_level(nodes))
    assert stops[:3] == [MIN_LEVEL, 4, FIRST_PASS_LEVEL]
    if k == EXP_KERNEL:
        assert stops[3] > FIRST_PASS_LEVEL


def test_euler_step_inner_series_runs_once_for_the_first_estimate(
        monkeypatch):
    # the inner 2F1 of a 3F2 Euler integral: one series call on the nodes
    # of levels 0..MIN_LEVEL, then one per later level the refinement reads
    sizes = []
    series = hyp.pfq_series_vector

    def spy(spec, w, ladder=None):
        sizes.append(w.size)
        return series(spec, w, ladder=ladder)

    monkeypatch.setattr(hyp, "pfq_series_vector", spy)
    spec = pfq_spec(EXP_KERNEL, (0.7, 1.2, 1.5), (2.1, 3.4), RegPair(0.1, 0.1))
    stops = []
    for tol in (1e-4, 1e-8, 1e-12):
        sizes.clear()
        stop = _stop_level(euler_step_integral(spec, 0.6, tol).terms_or_nodes)
        assert sizes == [unit_level_span(MIN_LEVEL).stop] + [
            unit_new_nodes(lv)[0].size for lv in range(MIN_LEVEL + 1, stop + 1)]
        stops.append(stop)
    assert stops == [MIN_LEVEL, 4, FIRST_PASS_LEVEL]


def _nan_on_level(level):
    """|t - 1/3|, NaN on exactly the new nodes of ``level``: a node is the
    pair (t, 1-t), since t alone saturates to 1.0 at the right end."""
    t_bad, tc_bad, _ = unit_new_nodes(level)

    def f(t, tc):
        bad = np.isin(t, t_bad) & np.isin(tc, tc_bad)
        return np.where(bad, np.nan, np.abs(t - 1.0 / 3.0))

    return f


def _first_pass_runs(f, sizes):
    """The batch and the kernel integral of f; ``sizes`` logs the node
    counts f is called on."""
    def g(t, tc):
        sizes.append(t.size)
        return f(t, tc)

    return {
        "integrate_unit_batch": lambda tol: integrate_unit_batch(g, 3, tol),
        "_kernel_integral": lambda tol: _kernel_integral(
            EXP_KERNEL, RegPair(),
            lambda t, tc, lt, ltc: np.log(g(t, tc)), tol),
    }


def test_non_finite_sample_raises_only_on_a_level_that_is_read():
    # the first pass forms levels 0..FIRST_PASS_LEVEL at once, but a NaN on
    # the last of them counts only if the refinement reads that level; no
    # level past the first pass is formed before it raises
    f = _nan_on_level(FIRST_PASS_LEVEL)
    t, tc, _ = unit_new_nodes(-1)
    assert np.array_equal(np.flatnonzero(np.isnan(f(t, tc))),
                          np.arange(t.size)[unit_level_span(FIRST_PASS_LEVEL)])
    sizes = []
    for name, run in _first_pass_runs(f, sizes).items():
        # |t - 1/3| meets 1e-4 at the level before
        out = run(1e-4)
        nodes, ok = ((out[2], out[3]) if isinstance(out, tuple)
                     else (out.terms_or_nodes, out.converged))
        assert ok, name
        assert nodes == unit_grid(FIRST_PASS_LEVEL - 1).nodes.size, name
        sizes.clear()
        with pytest.raises(NonFiniteSampleError) as exc:
            run(1e-6)
        assert sizes == [t.size], name
        where = float(re.search(r"t=(\S+)$", str(exc.value)).group(1))
        assert where in unit_new_nodes(FIRST_PASS_LEVEL)[0], name


@pytest.mark.parametrize("level", [0, MIN_LEVEL])
def test_non_finite_sample_in_the_first_estimate_raises_at_once(level):
    # levels 0..MIN_LEVEL are read by every refinement: a NaN on one of
    # them raises whatever the tolerance, naming its node, and the first
    # pass is the only level formed
    t = unit_new_nodes(-1)[0]
    for tol in (1.0, 1e-6):
        sizes = []
        for name, run in _first_pass_runs(_nan_on_level(level), sizes).items():
            sizes.clear()
            with pytest.raises(NonFiniteSampleError) as exc:
                run(tol)
            assert sizes == [t.size], name
            where = float(re.search(r"t=(\S+)$", str(exc.value)).group(1))
            assert where in unit_new_nodes(level)[0], name


def test_batch_non_finite_sample_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteSampleError):
            integrate_unit_batch(lambda t, tc: 1.0 / (t - 0.5), 4, TOL)


def test_complex_beta_real_reduction():
    values, _, _, ok = ext_beta_complex_many(
        EXP_KERNEL, np.array([2.0 + 0.0j]), 3.0, RegPair(), 1e-12)
    assert ok
    assert abs(values[0] - 1.0 / 12.0) < 1e-12


def test_complex_beta_pure_imaginary():
    # int_0^1 t^i dt = 1/(1+i) = 0.5 - 0.5i
    values, _, _, ok = ext_beta_complex_many(
        EXP_KERNEL, np.array([1.0 + 1.0j]), 1.0, RegPair(), 1e-12)
    assert ok
    assert abs(values[0] - (0.5 - 0.5j)) < 1e-11


def test_linearity():
    f = lambda t: np.sqrt(t)
    g = lambda t: 1.0 / (1.0 + t)
    qa = integrate_unit2(lambda t, tc: f(t), TOL)
    qb = integrate_unit2(lambda t, tc: g(t), TOL)
    qc = integrate_unit2(lambda t, tc: 2.0 * f(t) + 3.0 * g(t), TOL)
    assert abs(qc.value - (2 * qa.value + 3 * qb.value)) <= (
        2 * qa.abs_err_est + 3 * qb.abs_err_est + qc.abs_err_est + 1e-13)


def test_substitution_symmetry():
    f = lambda t: t ** 0.2 * np.exp(-t)
    qa = integrate_unit2(lambda t, tc: f(t), TOL)
    qb = integrate_unit2(lambda t, tc: f(1.0 - t), TOL)
    assert abs(qa.value - qb.value) <= 2 * (qa.abs_err_est + qb.abs_err_est) + 1e-13


def test_error_estimate_honesty():
    cases = [
        (lambda t: np.ones_like(t), 1.0),
        (lambda t: t ** -0.5, 2.0),
        (lambda t: np.log(t) ** 2, 2.0),
        (lambda t: 1.0 / (1.0 + t * t), math.pi / 4.0),
        (lambda t: np.sqrt(t) * np.log(t), -4.0 / 9.0),
    ]
    for f, want in cases:
        q = integrate_unit2(lambda t, tc: f(t), TOL)
        assert abs(q.value - want) <= 10.0 * max(q.abs_err_est, 1e-15)


def test_non_finite_sample_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteSampleError):
            integrate_unit2(lambda t, tc: 1.0 / (t - 0.5), TOL)  # pole inside


def test_grids_have_positive_weights_open_interval():
    g = unit_grid(6)
    assert np.all(g.weights > 0)
    assert np.all(g.nodes > 0)
    assert np.all(g.complements > 0)  # 1 - node, never exactly 0
    assert g.nodes.size == g.weights.size
    h = halfline_grid(6)
    assert np.all(h.weights > 0)
    assert np.all(h.nodes > 0)
    assert np.all(np.isfinite(h.nodes))


def test_cumulative_grids_integrate():
    g = unit_grid(6)
    assert abs(float(g.weights @ np.sqrt(g.nodes)) - 2.0 / 3.0) < 1e-12
    h = halfline_grid(6)
    assert abs(float(h.weights @ np.exp(-h.nodes)) - 1.0) < 1e-12


def _one_level_reference(estimate, tol, first, least, last, norm=1.0):
    """Reference: the refinement as one loop over the levels first..last,
    each level's estimate formed on its own by ``estimate(level)`` ->
    (estimate, nodes); the error is |estimate - previous| from the second
    level on (inf before), and the stop test, on the value norm times the
    estimate, runs from ``least``."""
    prev, err, nodes = None, math.inf, 0
    for level in range(first, last + 1):
        est, n = estimate(level)
        nodes += n
        if prev is not None:
            with np.errstate(invalid="ignore"):
                err = abs(est - prev)
        if level >= least and np.all(norm * err <= tol * (1.0 + norm
                                                           * abs(est))):
            return est, err, nodes, True
        prev = est
    return est, err, nodes, False


def _scripted(estimates, nodes=10):
    """An estimate(level) in ``_refine``'s form, replaying {level: estimate}
    as (the level's estimate and the one before, nodes); logs the levels
    asked."""
    asked = []

    def estimate(level):
        asked.append(level)
        return (estimates[level - 1], estimates[level]), nodes

    return estimate, asked


def test_refine_stops_at_first_level_from_min_level_within_tol():
    # level 2 is within tol but below min_level; level 3 is not; level 4 is
    est, asked = _scripted({0: 1.0, 1: 0.5, 2: 0.5, 3: 0.9, 4: 0.9 + 1e-12,
                            5: 0.9})
    value, err, nodes, ok = _refine(est, 1e-9, MIN_LEVEL, MAX_LEVEL)
    assert asked == [3, 4]
    assert ok and value == 0.9 + 1e-12
    assert err == abs((0.9 + 1e-12) - 0.9)
    assert nodes == 20


def test_refine_first_level_requests_no_lower_level():
    est, asked = _scripted({2: 3.0, 3: 2.0, 4: 2.0, 5: 1.0})
    value, err, nodes, ok = _refine(est, 1e-9, 3, 6)
    assert asked == [3, 4]
    assert ok and value == 2.0 and err == 0.0 and nodes == 20
    # a single level is judged on its own pair: |change| 1 against
    # tol (1 + 2)
    est, asked = _scripted({2: 3.0, 3: 2.0})
    assert _refine(est, 0.5, 3, 3) == (2.0, 1.0, 10, True)
    est, asked = _scripted({2: 3.0, 3: 2.0})
    assert _refine(est, 0.25, 3, 3) == (2.0, 1.0, 10, False)
    assert asked == [3]


def test_refine_rel_bound_scales_with_estimate():
    levels = {0: 2000.0, 1: 1000.0, 2: 1000.0 + 1e-7, 3: 1000.0}
    # |change| = 1e-7 > tol = 1e-9, but <= tol * (1 + 1000)
    est, asked = _scripted(levels)
    value, err, _, ok = _refine(est, 1e-9, 2, 3)
    assert ok and asked == [2] and value == 1000.0 + 1e-7
    assert err == abs((1000.0 + 1e-7) - 1000.0)
    # the stop is in the units of the value, norm times the estimate: an
    # estimate near 1 that moves by 3e-9 stops at tol 1e-9 for the value
    # 1e-3 times it, and not for the value 1 or 1e3 times it; the
    # estimate and error come back unscaled
    levels = {1: 1.0, 2: 1.0 + 3e-9, 3: 1.0}
    for norm, stops in ((1e-3, True), (1.0, False), (1e3, False)):
        est, asked = _scripted(levels)
        value, err, _, ok = _refine(est, 1e-9, 2, 2, norm)
        assert ok is stops and value == 1.0 + 3e-9
        assert err == abs((1.0 + 3e-9) - 1.0)


def test_refine_array_estimate_keeps_per_member_errors():
    # member 0 settles at level 1, member 2 only at level 4
    levels = {0: np.array([1.0, 2.0, 3.0]),
              1: np.array([1.5, 2.5, 3.5]),
              2: np.array([1.5, 2.5, 3.25]),
              3: np.array([1.5, 2.5 + 1e-13, 3.0]),
              4: np.array([1.5, 2.5, 3.0 + 1e-12]),
              5: np.array([0.0, 0.0, 0.0])}
    est, asked = _scripted(levels, nodes=7)
    value, err, nodes, ok = _refine(est, 1e-10, MIN_LEVEL, MAX_LEVEL)
    assert ok and asked == [3, 4] and nodes == 14
    assert value is not levels[3] and np.array_equal(value, levels[4])
    assert err.shape == (3,)
    assert np.array_equal(err, np.abs(levels[4] - levels[3]))
    assert err.max() == err[2]


def test_refine_unconverged_returns_last_level():
    levels = {k: (-1.0) ** k for k in range(6)}
    est, asked = _scripted(levels, nodes=4)
    assert _refine(est, 1e-9, MIN_LEVEL, 5) == (-1.0, 2.0, 12, False)
    assert asked == [3, 4, 5]


def test_refine_non_finite_error_neither_warns_nor_stops():
    # inf - inf is NaN: no RuntimeWarning (an error in this suite), and a
    # NaN error never passes the stop test
    levels = {2: np.array([1.0, math.inf]), 3: np.array([1.0, math.inf]),
              4: np.array([1.0, np.nan]), 5: np.array([1.0, 2.0]),
              6: np.array([1.0, 2.0])}
    est, asked = _scripted(levels)
    value, err, nodes, ok = _refine(est, 1e-9, 3, 6)
    assert ok and asked == [3, 4, 5, 6] and nodes == 40
    assert np.array_equal(err, [0.0, 0.0])


_SCRIPTS = {
    # stops at level 4, the first from MIN_LEVEL within tol
    "scalar": ({0: 1.0, 1: 0.5, 2: 0.5, 3: 0.9, 4: 0.9 + 1e-12, 5: 0.9},
               1e-9, NESTED, 1.0),
    # stops at level 2 on the relative bound only
    "relative": ({0: 2000.0, 1: 1000.0, 2: 1000.0 + 1e-7, 3: 1000.0},
                 1e-9, (0, 2, 3), 1.0),
    # stops at level 2 for the value 1e-3 times the estimate only
    "scaled": ({0: 2.0, 1: 1.0, 2: 1.0 + 3e-9, 3: 1.0}, 1e-9, (0, 2, 3),
               1e-3),
    # member 2 settles only at level 4
    "array": ({0: np.array([1.0, 2.0, 3.0]), 1: np.array([1.5, 2.5, 3.5]),
               2: np.array([1.5, 2.5, 3.25]),
               3: np.array([1.5, 2.5 + 1e-13, 3.0]),
               4: np.array([1.5, 2.5, 3.0 + 1e-12]),
               5: np.array([0.0, 0.0, 0.0])}, 1e-10, NESTED, 1.0),
    # never within tol: returns the last level
    "unconverged": ({k: (-1.0) ** k for k in range(6)}, 1e-9,
                    (0, MIN_LEVEL, 5), 1.0),
    # a first level past 0
    "late-start": ({2: 3.0, 3: 2.0, 4: 2.0, 5: 1.0}, 1e-9, (2, 4, 6), 1.0),
}


@pytest.mark.parametrize("script", list(_SCRIPTS))
@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_refine_stacked_first_estimate_judges_like_one_level_at_a_time(
        script, rows):
    # levels formed together in one first pass, ``rows`` of them or up to
    # the first level that may stop, as the batch forms its first pass:
    # each is handed to _refine when asked for, with the level before, and
    # the estimate, error, nodes and verdict are the one-level loop's
    levels, tol, (first, least, last), norm = _SCRIPTS[script]
    want = _one_level_reference(lambda lv: (levels[lv], 7), tol, first,
                                least, last, norm)
    stack, handed = {}, []

    def stacked(level):
        if not stack:
            top = min(max(first + rows - 1, level), max(levels))
            stack.update(zip(range(first, top + 1), np.array(
                [levels[lv] for lv in range(first, top + 1)])))
        stack.setdefault(level, levels[level])
        n = 7 * (level - (handed[-1] if handed else first - 1))
        handed.append(level)
        return (stack[level - 1], stack[level]), n

    got = _refine(stacked, tol, least, last, norm)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2:] == want[2:]
    assert handed == list(range(least, handed[-1] + 1))


def _step_nested(sums):
    """Reference: the nested estimates one level at a time, half the one
    before plus 2^-level times the level's sum (level 0: its sum)."""
    out, total = np.empty_like(sums), None
    for lv, s in enumerate(sums):
        new = (2.0 ** -lv if lv else 1.0) * s
        total = new if total is None else 0.5 * total + new
        out[lv] = total
    return out


_TINY = 5e-324  # the least subnormal
_LEVEL_SUMS = {
    "normal": [[0.3, -2.5e3], [0.7, 1e-5], [1.1, -4.0], [2.3, 8.0],
               [4.9, 1e300], [9.5, -7e-300]],
    "signed-zeros": [[0.0, -0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, -1.0],
                     [0.0, 1.0], [-0.0, 0.0]],
    # 2^-L times an odd multiple of the least subnormal rounds
    "subnormal": [[3 * _TINY, 2.0 ** -1022], [5 * _TINY, -7 * _TINY],
                  [7 * _TINY, 2.0 ** -1070], [-_TINY, 3 * _TINY],
                  [11 * _TINY, 0.0], [13 * _TINY, -2.0 ** -1060]],
    # estimates far below 1, with level sums far below their ulp
    "near-floor": [[2.0 ** -950, -(2.0 ** -952)], [3 * _TINY, -_TINY],
                   [-5 * _TINY, 2.0 ** -1050], [2.0 ** -1020, 7 * _TINY],
                   [_TINY, -(2.0 ** -1000)], [2.0 ** -1000, 3 * _TINY]],
    # 2^-5 times the last sum lies at the midpoint of two doubles, where
    # 2^-5 times the running sum lies just past it
    "rounding-tie": [[2.0 ** -967, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
                     [0.0, 1.0], [2.0 ** -1020 + 2.0 ** -1072, 1.0]],
    # each is finite, but a running sum of two overflows
    "near-overflow": [[1.5e308, -1.7e308], [1.7e308, -1.5e308],
                      [1.6e308, 1e308], [-1.7e308, -1.6e308],
                      [1.79e308, 1.7e308], [1.7e308, -1e308]],
    "non-finite": [[1.0, np.nan], [np.inf, 2.0], [-np.inf, 3.0],
                   [4.0, -np.inf], [5.0, np.inf], [np.nan, 6.0]],
}


@pytest.mark.parametrize("case", list(_LEVEL_SUMS))
def test_nested_first_has_the_step_forms_bits(case, monkeypatch):
    # the nested refinement's first step, levels 0..MIN_LEVEL, and each
    # later one have the bits of the rule taken one level at a time, on
    # every kind of level sum, for array members and for scalars: ending
    # the refinement at each level in turn returns that level's estimate
    # and its difference from the one before
    sums = np.array(_LEVEL_SUMS[case])
    # tol -1 never stops the loop: the engine's own check of a user's tol
    # is lifted for these synthetic level sums
    monkeypatch.setattr(quadrature, "check_tol", lambda tol: None)
    with np.errstate(all="ignore"):
        for rows in (sums, sums[:, 0], sums[:, 1]):
            want = _step_nested(rows)
            for last in range(MIN_LEVEL, len(rows)):
                asked = []

                def contrib(level):
                    asked.append(level)
                    return rows[level], 1

                monkeypatch.setattr(quadrature, "MAX_LEVEL", last)
                value, err, nodes, ok = quadrature._refine_nested(contrib,
                                                                  -1.0)
                assert asked == list(range(last + 1))
                assert _same_bits(value, want[last])
                assert _same_bits(err, np.abs(want[last] - want[last - 1]))
                assert (nodes, ok) == (last + 1, False)


def _nested_reference(contrib, tol):
    """Reference for ``_refine_nested``: the nested estimate formed from
    level 0 one level at a time and judged by the one-level loop."""
    total = None

    def estimate(level):
        nonlocal total
        s, n = contrib(level)
        s = (2.0 ** -level if level else 1.0) * s
        total = s if total is None else 0.5 * total + s
        return total, n

    return _one_level_reference(estimate, tol, 0, MIN_LEVEL, MAX_LEVEL)


def _level_contrib(new_nodes, f):
    """The level sums of f on one level's new nodes, its samples checked."""
    def contrib(level):
        *ts, w = new_nodes(level)
        vals = w * np.asarray(f(*ts), dtype=float)
        quadrature._check_finite(vals, ts[0])
        return vals.sum(), w.size

    return contrib


def _batch_contrib(f0, count, kstep):
    """The batch's member sums of one level on its own nodes."""
    def contrib(level):
        t, tc, w = unit_new_nodes(level)
        base = w * np.asarray(f0(t, tc), dtype=float)
        quadrature._check_finite(base, t)
        return _member_sums(level, kstep, count, base,
                            [slice(0, t.size)])[0], t.size

    return contrib


def _outcome(run):
    """A refinement's result, or the message of the NonFiniteSampleError
    it raised."""
    try:
        return run()
    except NonFiniteSampleError as exc:
        return str(exc)


def _same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    if isinstance(got, quadrature.QuadResult):
        got = got.value, got.abs_err_est, got.nodes_used, got.converged
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2:] == want[2:]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nested_refinements_match_the_one_level_reference(seed):
    # seeded integrands on the unit interval and the half line, scalar and
    # batched (array members), converged and not, clean or with a NaN on
    # one level: the refinement matches the nested loop that forms and
    # judges one level at a time from level 0, bit for bit, or raises
    # the same NonFiniteSampleError
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(4):
        a, b = rng.uniform(-0.6, 1.0, 2)
        c = rng.uniform(0.1, 0.9)
        count, kstep = int(rng.integers(1, 70)), int(rng.integers(0, 3))

        def unit(t, tc, a=a, b=b, c=c):
            return t ** a * tc ** b * np.abs(t - c)

        def half(t, a=a, c=c):
            return t ** a * np.exp(-t) * np.abs(t - 3 * c)

        bad_level = int(rng.integers(MIN_LEVEL + 1, FIRST_PASS_LEVEL + 3))
        nan = _nan_on_level(bad_level)

        def unit_nan(t, tc, unit=unit, nan=nan):
            return unit(t, tc) + 0.0 * nan(t, tc)

        for tol in (1e-3, 1e-6, 1e-10, 1e-30):
            runs = {
                "unit": (lambda: integrate_unit2(unit, tol),
                         _level_contrib(unit_new_nodes, unit)),
                "halfline": (lambda: integrate_halfline(half, tol),
                             _level_contrib(quadrature.halfline_new_nodes,
                                            half)),
                "unit-nan": (lambda: integrate_unit2(unit_nan, tol),
                             _level_contrib(unit_new_nodes, unit_nan)),
                "batch": (lambda: integrate_unit_batch(unit, count, tol,
                                                       kstep),
                          _batch_contrib(unit, count, kstep)),
                "batch-nan": (lambda: integrate_unit_batch(unit_nan, count,
                                                           tol, kstep),
                              _batch_contrib(unit_nan, count, kstep)),
            }
            for name, (run, contrib) in runs.items():
                got = _outcome(run)
                want = _outcome(lambda: _nested_reference(contrib, tol))
                _same_outcome(got, want)
                seen.add((name.endswith("nan"), isinstance(want, str),
                          not isinstance(want, str) and bool(want[3])))
    # clean runs converge and not; NaN runs raise and finish without
    # reading the NaN level
    assert {(False, False, True), (False, False, False), (True, True, False),
            (True, False, True)} <= seen


def _level_loops(tree):
    """The for loops whose target binds the name ``level``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.AsyncFor))
            and any(isinstance(n, ast.Name) and n.id == "level"
                    for n in ast.walk(node.target))]


def test_one_refinement_loop_in_the_package():
    # every level loop goes through quadrature._refine
    src = Path(exthyp.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        loops = _level_loops(ast.parse(path.read_text(encoding="utf-8")))
        if loops:
            found[path.name] = len(loops)
    assert found == {"quadrature.py": 1}


def _names(tree):
    """Every name a module binds, imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_one_kernel_weighted_unit_integrand_in_the_package():
    # the kernel-weighted Euler integrals run through extbeta._kernel_integral;
    # no other module sums the level nodes or evaluates the kernel on them
    src = Path(exthyp.__file__).parent
    named = {}
    for path in sorted(src.glob("*.py")):
        for name in _names(ast.parse(path.read_text(encoding="utf-8"))):
            named.setdefault(name, set()).add(path.name)
    # nor forms a grid's coarse weights from the level nodes; the contour's
    # trapezoid on its strip (mellin) is the one other nested refinement
    for name in ("unit_new_nodes", "_refine_nested", "unit_kernel",
                 "halfline_new_nodes", "grid_order"):
        contour = {"mellin.py"} if name == "_refine_nested" else set()
        assert named[name] <= {"quadrature.py", "extbeta.py"} | contour, name
    assert "_kernel_integral" in named
    assert "integrate_unit_levels" not in named
