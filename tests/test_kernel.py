"""Regularization kernels: evaluation, Taylor sums, decay, parsing."""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles
from exthyp.kernel import (
    EXP_KERNEL,
    kummer_kernel,
    log_theta_neg_asym,
    parse_kernel,
    theta_eval_arr,
)
from exthyp.corefn import (
    _KUMMER_CUT_MAX,
    _is_nonpositive_int,
    _kummer_cut,
    kummer_1f1_arr,
    kummer_algebraic_tail,
    ln_gamma,
)
from exthyp import corefn
from exthyp import extbeta
from exthyp.quadrature import _BATCH_BLOCK_FLOATS
from exthyp.extbeta import BetaArgs, RegPair, ext_beta
from exthyp.results import DomainError

KUM = kummer_kernel(1.0, 2.0)
KUM2 = kummer_kernel(1.5, 2.0)


def _theta(k, z):
    return float(theta_eval_arr(k, np.array([z]))[0])


def test_exp_eval():
    assert _theta(EXP_KERNEL, 0.0) == 1.0
    assert abs(_theta(EXP_KERNEL, -1.0) - math.exp(-1.0)) < 1e-16


def test_kummer_eval_closed_form():
    # 1F1(1;2;z) = (e^z - 1)/z
    got = _theta(KUM, -1.0)
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-13


def test_exp_multiplicativity():
    for z1 in (-2.0, 0.3, -7.5):
        for z2 in (-1.0, 0.9):
            lhs = _theta(EXP_KERNEL, z1 + z2)
            rhs = _theta(EXP_KERNEL, z1) * _theta(EXP_KERNEL, z2)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("k", [EXP_KERNEL, KUM, KUM2])
def test_monotone_decay_to_zero(k):
    zs = -np.arange(1.0, 51.0)
    vals = theta_eval_arr(k, zs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)  # decreasing along z = -1, -2, ...
    # exponential kernel decays superexponentially, confluent one like |z|^-a
    floor = 1e-20 if k is EXP_KERNEL else 50.0 ** -k.a * 2.0
    assert vals[-1] < vals[0] * floor


@pytest.mark.parametrize("k", [EXP_KERNEL, KUM, KUM2])
def test_taylor_sum_converges(k):
    # the Taylor coefficients are (a)_l / (c)_l for the confluent kernel
    # and 1 for exp
    def coeff(l):
        if k is EXP_KERNEL:
            return 1.0
        return corefn.pochhammer(k.a, l) / corefn.pochhammer(k.c, l)

    for z in (-0.95, -0.8, -0.5):
        acc = 0.0
        fact = 1.0
        for l in range(31):
            if l:
                fact *= l
            acc += coeff(l) * z ** l / fact
        want = _theta(k, z)
        assert abs(acc - want) <= 1e-10 * (1 + abs(want))


def test_parse_kernel():
    assert parse_kernel("exp") is EXP_KERNEL
    k = parse_kernel("kummer:1.5,2.0")
    assert k.a == 1.5 and k.c == 2.0
    with pytest.raises(DomainError):
        parse_kernel("kummer:1.5")
    with pytest.raises(DomainError):
        parse_kernel("gauss")
    for bad in ("kummer:1,x", "kummer:1,2,3", "kummer:inf,2", "kummer:1,nan"):
        with pytest.raises(DomainError):
            parse_kernel(bad)
    with pytest.raises(DomainError):
        kummer_kernel(-1.0, 2.0)


def test_vectorized_matches_scalar_across_regimes():
    zs = np.array([-1e6, -500.0, -150.0, -20.0, -0.5, 0.0])
    vals = theta_eval_arr(KUM2, zs)
    for z, v in zip(zs, vals):
        want = oracles.hyp1f1(KUM2.a, KUM2.c, float(z))
        assert abs(v - want) <= 1e-12 * (1 + abs(v))


def test_kummer_arr_matches_mpmath_where_c_far_exceeds_a():
    # the algebraic series of 1F1(1; 300; -250) ends at its 299th term (c - a
    # is an integer), but its first 48 terms grow, so an optimal truncation
    # of it is far off (-0.2296)
    want = oracles.hyp1f1(1.0, 300.0, -250.0)
    got = float(kummer_1f1_arr(1.0, 300.0, np.array([-250.0]))[0])
    assert abs(got - want) <= 1e-12 * abs(want)


_SMALL = 2.0 ** -56
_COEFF_MAX = 1e300
_SERIES_MAX = 2 ** 15


def _series_coeffs(p, c, reach, scale):
    """Reference for the series table of 1F1(p; c; scale y), one
    coefficient a step: it ends at the first zero step p + m = 0 or at the
    first term u_m of the series at x = reach whose geometric tail
    u_m q_m / (1 - q_m), q_m = max(|p + m| / (c + m), 1) reach / (m + 1),
    is at most 2^-56 (u_0 + ... + u_m); None if a kept coefficient exceeds
    1e300 in modulus or the table would reach 2^15 coefficients."""
    coef, u = [np.float64(1.0)], [np.float64(1.0)]
    total = np.float64(1.0)  # u_0 + ... + u_m
    m = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if m == _SERIES_MAX - 1:
                return None
            step = (p + m) / ((c + m) * (m + 1.0))
            ratio = abs(step) * reach
            q = max(ratio, reach / (m + 1.0))
            bound = _SMALL * total
            if step == 0.0 or q * (u[m] + bound) <= bound:
                break
            coef.append(coef[m] * (step * scale))
            u.append(u[m] * ratio)
            total = total + u[m + 1]
            m += 1
    coef = np.array(coef)
    return coef if (np.abs(coef) <= _COEFF_MAX).all() else None


def _algebraic_coeffs(a, p, scale):
    """Reference for the algebraic table: 2F0(a, 1 - p;; y / scale)
    up to its first coefficient of modulus <= 2^-56 (then False), else up
    to its first coefficient beyond 1e300 or 401 terms (then True: each
    node stops at its smallest term)."""
    coef = [np.float64(1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(2 * _KUMMER_CUT_MAX)):
            nxt = coef[k] * ((a + k) * (1.0 - p + k) / ((k + 1.0) * scale))
            if abs(nxt) <= _SMALL:
                return np.array(coef), False
            if not abs(nxt) <= _COEFF_MAX:
                break
            coef.append(nxt)
    return np.array(coef), True


def _node_sum(coef, y, smallest=False):
    """Reference for one node: its powers y**m, each the one before times y
    up to m = h = n // 2 and y**(h + i) = y**i y**h past it; the terms
    added in order, and with ``smallest`` only up to the smallest of the
    terms below the one before (t_0 if there is none)."""
    if coef is None:
        return math.nan
    n, h = coef.size, coef.size // 2
    pw = [1.0]
    for m in range(1, h + 1):
        pw.append(pw[m - 1] * y)
    for i in range(1, n - h):
        pw.append(pw[i] * pw[h])
    terms = [float(p * t) for p, t in zip(pw, coef)]
    if smallest:
        mag = [abs(t) for t in terms]
        fell = [k for k in range(1, n) if mag[k] < mag[k - 1]]
        stop = min(fell, key=lambda k: (mag[k], k)) if fell else 0
        terms = terms[:stop + 1]
    s = terms[0]
    for t in terms[1:]:
        s += t
    return s


def _series_node(p, c, w0, x):
    """Reference for the series 1F1(p; c; x) at one node x < w0: the table
    certified at w0, at the scale 2^k >= w0, or where w0 is infinite the
    one certified at 2^k, k >= 0 the least with x < 2^k."""
    if math.isfinite(w0):
        reach = w0
        scale = 2.0 ** math.ceil(math.log2(w0))
    else:
        reach = scale = 2.0 ** max(math.frexp(x)[1], 0)
    return _node_sum(_series_coeffs(p, c, reach, scale), x / scale)


def _algebraic_node(a, p, c, w):
    """Reference for the 2F0 sum of the algebraic branch at one node."""
    scale = min(_kummer_cut(a, c), _KUMMER_CUT_MAX)
    alg, smallest = _algebraic_coeffs(a, p, scale)
    return _node_sum(alg, scale / w, smallest)


def _lockstep_algebraic(a, c, w):
    """Reference for the 2F0 sum of kummer_algebraic_tail, node by node."""
    w = np.asarray(w, dtype=float).reshape(-1)
    return np.array([_algebraic_node(a, c - a, c, v) for v in w])


def _amplitude(c, p):
    return np.exp(complex(ln_gamma(complex(c)) - ln_gamma(complex(p)))).real


def _node(a, c, z):
    """Reference for 1F1(a; c; z) at one finite node z <= 0: the series of
    1F1(c - a; c; -z) times e^z above -w0(a, c), the algebraic branch from
    there down."""
    p, x = c - a, -z
    w0 = _kummer_cut(a, c)
    if x < w0:
        return np.exp(-x) * _series_node(p, c, w0, x)
    return (_amplitude(c, p) * np.exp(-a * np.log(x))
            * _algebraic_node(a, p, c, x))


def _lockstep_kummer_1f1_arr(a, c, z):
    """Reference: the rule of kummer_1f1_arr on finite nodes, each node
    alone."""
    z = np.asarray(z, dtype=float)
    out = np.array([_node(a, c, float(v)) for v in z.reshape(-1)])
    return out.reshape(z.shape)


_EDGE = -200.0
_OFF_GRID = np.linspace(-250.0, 60.0, 97) + 0.37
_KUMMER_ZS = np.concatenate([
    np.linspace(-250.0, 0.0, 251),
    _OFF_GRID[_OFF_GRID <= 0.0],
    [np.nextafter(_EDGE, -np.inf), _EDGE, np.nextafter(_EDGE, np.inf),
     0.0, -0.0, -1e-300],
])


def _around_cut(a, c):
    """The nodes next to -w0(a, c), where the branches meet."""
    edge = -_kummer_cut(a, c)
    if math.isinf(edge):
        return np.empty(0)
    return np.array([np.nextafter(edge, -np.inf), edge,
                     np.nextafter(edge, np.inf)])


@pytest.mark.parametrize("a,c", [
    (1.0, 2.0),
    (1.5, 2.0),
    (2.5, 1.0),
    (0.3, 4.7),
    (3.0, 1.0),    # c - a = -2: no algebraic branch, every node sums
    (2.0, 2.0),    # c - a = 0: exp(z)
    (-3.0, 1.5),   # terminating series
    (-1.0, 0.25),  # terminating series
])
def test_kummer_arr_bit_identical_to_lockstep(a, c):
    zs = np.concatenate([_KUMMER_ZS, _around_cut(a, c)])
    for z in (zs, np.empty(0), np.full(3, -0.0), np.array([[-1.0, -2.0]])):
        got = kummer_1f1_arr(a, c, z)
        want = _lockstep_kummer_1f1_arr(a, c, z)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("a,c", [
    (1.5, 2.5),
    (2.5, 1.0),      # aa = c - a < 0 on the transformed side
    (4.0, 1.5),
    (2.0, 2.0),      # c - a = 0
    (0.5, 1e300),    # terms underflow to 0 after the first
    (5e-324, 2.0),   # a = 5e-324
])
def test_kummer_arr_fast_path_edges_bit_identical_to_lockstep(a, c):
    # edge arguments and parameters of the block sum, each node alone and
    # all together: a node's bits never depend on the other nodes, and the
    # library raises no floating-point warning on them
    below = np.nextafter(200.0, 0.0)
    z = np.array([0.0, -0.0, -5e-324, -1e-300, -1e-160, -below, -199.0,
                  -0.5, -30.0])
    got = kummer_1f1_arr(a, c, z)
    alone = np.array([kummer_1f1_arr(a, c, z[i:i + 1])[0]
                      for i in range(z.size)])
    with np.errstate(all="ignore"):  # lock-step terms run past their stop
        want = _lockstep_kummer_1f1_arr(a, c, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(alone.view(np.int64), got.view(np.int64))
    # next to the cut; at c = 1e300 (w0 capped at 200) the algebraic terms
    # overflow there, and the sum is cut off at t_0
    cut = _around_cut(a, c)
    with np.errstate(all="ignore"):
        got = kummer_1f1_arr(a, c, cut)
        want = _lockstep_kummer_1f1_arr(a, c, cut)
        alone = np.array([kummer_1f1_arr(a, c, cut[i:i + 1])[0]
                          for i in range(cut.size)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(alone.view(np.int64), got.view(np.int64))


# The per-piece builders of the confluent kernel as they were before its
# setup was one cached build (``corefn._kummer_setup``), kept as references
# of that build: its cut, its tables and its amplitude have their bits.

def _former_ln_gamma_right(z):
    zm1 = z - 1.0
    s = np.full_like(np.asarray(z, dtype=complex), corefn._LANCZOS_C[0])
    for k, c in enumerate(corefn._LANCZOS_C[1:], start=1):
        s = s + c / (zm1 + k)
    t = zm1 + corefn._LANCZOS_G + 0.5
    return (corefn._LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t
            + np.log(s))


def _former_ln_gamma(z):
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and _is_nonpositive_int(z.real):
        raise DomainError(f"log-gamma pole at z={z.real}")
    if z.real > 0.5:
        return complex(_former_ln_gamma_right(z))
    if z.real > 0.0:
        return complex(_former_ln_gamma_right(z + 1.0) - np.log(z))
    n = round(z.real)
    sin = np.sin(math.pi * (z - n))
    refl = math.log(math.pi) - np.log(-sin if n % 2 else sin)
    return complex(refl - _former_ln_gamma(1.0 - z))


def _former_gamma(c, p):
    """(Gamma(c)/Gamma(p), its log), or None at a pole."""
    try:
        log = complex(_former_ln_gamma(complex(c))
                      - _former_ln_gamma(complex(p)))
    except DomainError:
        return None
    with np.errstate(over="ignore"):
        return np.exp(log).real, log


def _former_kummer_cut(a, c):
    if corefn._is_polynomial(c - a, c):
        return math.inf
    ulp = -56.0 * math.log(2.0)
    k = np.arange(1.0, 2.0 * _KUMMER_CUT_MAX + 1.0)
    with np.errstate(divide="ignore"):
        logt = np.cumsum(np.log(np.abs((a + k - 1.0) * (a - c + k) / k)))
    w = np.arange(1.0, _KUMMER_CUT_MAX + 1.0)
    bad = np.log(w) <= np.min((logt - ulp) / k)
    bad |= w < 3.0 * max(a, 1.0) * (c - a - 1.0)
    if not corefn._is_polynomial(a, c):
        bad |= (math.lgamma(c - a) - math.lgamma(a) - w
                + (2.0 * a - c) * np.log(w)) >= ulp
    return min(w[bad].max(initial=0.0) + 1.0, _KUMMER_CUT_MAX)


def _former_series_table(p, c, reach, scale):
    size = min(int(3.0 * reach) + 32, _SERIES_MAX - 1)
    while True:
        m = np.arange(float(size))
        with np.errstate(over="ignore", invalid="ignore"):
            step = (p + m) / ((c + m) * (m + 1.0))
            coef = np.cumprod(np.concatenate(([1.0], step * scale)))
            ratio = np.abs(step) * reach
            u = np.cumprod(np.concatenate(([1.0], ratio[:-1])))
            q = np.maximum(ratio, reach / (m + 1.0))
            bound = _SMALL * np.cumsum(u)
            small = q * (u + bound) <= bound
        ends = np.flatnonzero(small | (step == 0.0))
        if ends.size:
            coef = coef[:ends[0] + 1]
            return coef if np.abs(coef).max() <= _COEFF_MAX else None
        if not np.abs(coef).max() <= _COEFF_MAX or size == _SERIES_MAX - 1:
            return None
        size = min(2 * size, _SERIES_MAX - 1)


def _former_algebraic_table(a, p, scale):
    for size in (64, 2 * int(_KUMMER_CUT_MAX)):
        k = np.arange(float(size))
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.cumprod(np.concatenate(
                ([1.0], (a + k) * (1.0 - p + k) / ((k + 1.0) * scale))))
        mag = np.abs(coef)
        small = mag <= _SMALL
        ends = np.flatnonzero(small | ~(mag <= _COEFF_MAX))
        if ends.size:
            return coef[:ends[0]], not small[ends[0]]
    return coef, True


def _same_bits(x, y):
    if x is None or y is None:
        return x is None and y is None
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


def _assert_setup_is_the_former_one(a, c):
    setup, p = corefn._kummer_setup(a, c), c - a
    w0 = _former_kummer_cut(a, c)
    assert setup.w0 == w0
    if math.isfinite(w0):
        scale = 2.0 ** math.ceil(math.log2(w0))
        assert _same_bits(setup.series, _former_series_table(p, c, w0, scale))
    else:
        assert setup.series is None
    alg, smallest = _former_algebraic_table(a, p, min(w0, _KUMMER_CUT_MAX))
    assert _same_bits(setup.algebraic, alg) and setup.smallest == smallest
    gamma = _former_gamma(c, p)
    assert (setup.gamma is None) == (gamma is None)
    if gamma is not None:
        assert _same_bits(setup.gamma, gamma[0])


_LOCKSTEP_PAIRS = [(1.0, 2.0), (1.5, 2.0), (2.5, 1.0), (0.3, 4.7), (3.0, 1.0),
                   (2.0, 2.0), (-3.0, 1.5), (-1.0, 0.25), (1.5, 2.5),
                   (4.0, 1.5), (0.5, 1e300), (5e-324, 2.0)]


def _eval_mix_draws():
    """24 seeded (a, c, b, d) over eval-mix's ranges: a in [0.5, 2.5],
    c - a in [0.3, 2.5], b and d in [0, 1]."""
    u = np.random.default_rng(39).uniform(size=(24, 4))
    a = 0.5 + 2.0 * u[:, 0]
    return [(float(x), float(x + 0.3 + 2.2 * v), float(b), float(d))
            for x, v, b, d in zip(a, u[:, 1], u[:, 2], u[:, 3])]


def test_kummer_arr_on_first_pass_grids_bit_identical_to_lockstep():
    # the traffic the kernel's setup serves: a fresh (a, c) per call on the
    # first-pass kernel arguments -(b/t + d/(1-t)) of levels
    # 0..FIRST_PASS_LEVEL end to end, and the lockstep edge pairs on the
    # grid of the first draw.  Where the series of a polynomial kernel
    # (c - a = -n) leaves the double range, the reference has no value and
    # the kernel takes the limit at -inf, 0
    draws = _eval_mix_draws()
    b0, d0 = draws[0][2:]
    cases = draws + [(a, c, b0, d0) for a, c in _LOCKSTEP_PAIRS]
    for a, c, b, d in cases:
        # as the library forms the arguments and takes the kernel's values
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            z = extbeta._unit_arg(RegPair(b, d), -1)
            got = kummer_1f1_arr(a, c, z)
        assert np.isfinite(z).all()
        with np.errstate(all="ignore"):  # lock-step terms run past stops
            want = _lockstep_kummer_1f1_arr(a, c, z)
        same = got.view(np.int64) == want.view(np.int64)
        limit = ~np.isfinite(want) & (got == 0.0) & _is_nonpositive_int(c - a)
        assert (same | limit).all(), (a, c, b, d)


def test_kummer_setup_has_the_bits_of_the_former_builders():
    # w0, both tables, the smallest flag and the amplitude of the one
    # cached build per (a, c) against the former per-piece builders, on the
    # same draws and edge pairs.  At (1e-13, 0.5) the smallest term sets
    # w0 = 8, which its first 64 k cannot settle; at (50.5, 1) its minimum
    # lies at k = 194
    pairs = [(a, c) for a, c, _, _ in _eval_mix_draws()] + _LOCKSTEP_PAIRS
    pairs += [(1e-13, 0.5), (50.5, 1.0)]
    for a, c in pairs:
        _assert_setup_is_the_former_one(a, c)


def test_one_setup_per_fresh_confluent_kernel(monkeypatch):
    # a fresh (a, c) builds its setup once: the ext_beta call that first
    # meets it, not its repeat (with the kernel values cached or not), and
    # not the far-tail log of the same kernel.  Each build takes its cut
    # first, so the spy counts builds
    builds = []
    cut = corefn._kummer_cut

    def spy(a, c):
        builds.append((a, c))
        return cut(a, c)

    monkeypatch.setattr(corefn, "_kummer_cut", spy)
    a, c = 1.2345678, 3.0123456
    k = kummer_kernel(a, c)

    def call():
        return ext_beta(k, BetaArgs(1.3, 2.1), RegPair(0.4, 0.7), 1e-10)

    first = call()
    assert builds == [(a, c)]
    assert call().value == first.value
    extbeta._unit_theta.cache_clear()
    assert call().value == first.value
    log_theta_neg_asym(k, np.array([-250.0, -1e4]))
    assert builds == [(a, c)]


def test_algebraic_tail_in_place_matches_former_expressions():
    # the 2F0 sum of the algebraic branch against the node-by-node
    # reference, without floating-point warnings, from min(w0, 200) on (the
    # branch's range, and that of kernel.log_theta_neg_asym); at (50.5, 1),
    # w0 capped at 200, each node stops at its own smallest term
    w = np.concatenate([np.geomspace(1.0, 1e12, 61), [np.inf, 250.5]])
    for a, c in ((1.5, 2.5), (0.3, 4.7), (2.5, 1.0), (1.0, 2.0), (50.5, 1.0)):
        above = w >= min(_kummer_cut(a, c), _KUMMER_CUT_MAX)
        amp, got = kummer_algebraic_tail(a, c, w[above])
        want = _lockstep_algebraic(a, c, w[above])
        assert np.float64(amp).view(np.int64) == np.float64(
            _amplitude(c, c - a)).view(np.int64)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got[-2] == 1.0  # w = inf: the first term alone
        # the amplitude is computed once per (a, c), with its setup
        assert corefn._kummer_setup(a, c).gamma is amp
    # so is a zero one: Gamma(500)/Gamma(1000) underflows
    amp, _ = kummer_algebraic_tail(-500.0, 500.0, np.array([250.0]))
    assert amp == 0.0 and corefn._kummer_setup(-500.0, 500.0).gamma is amp


def _term_blocks(monkeypatch):
    """The shapes of the term blocks of _power_sums: a block of n rows
    first takes the running products of its rows up to y**(n // 2)."""
    blocks = []
    running = corefn._running

    def spy(op, blk):
        rows, cols = blk.shape
        blocks.append((2 * rows - 1, cols))
        return running(op, blk)

    monkeypatch.setattr(corefn, "_running", spy)
    return blocks


def _series_table_of(a, c):
    """The series table of 1F1(a; c; -w) below a finite w0(a, c)."""
    return corefn._kummer_setup(a, c).series


def test_kummer_arr_diverging_expansion_is_cut_at_its_smallest_term(
        monkeypatch):
    # kummer:50.5,1 has no w <= 200 where the algebraic expansion reaches
    # 2^-56, so w0 is capped there; near w = 200 its terms grow for long.
    # Each node's sum stops at its own smallest term of a table of at most
    # 2 * 200 + 1 coefficients, and no term block holds more than
    # _BATCH_BLOCK_FLOATS entries
    blocks = _term_blocks(monkeypatch)
    z = -np.linspace(200.0, 260.0, 61)
    got = kummer_1f1_arr(50.5, 1.0, z)
    tables = corefn._kummer_setup(50.5, 1.0)
    assert tables.smallest
    assert tables.algebraic.size <= 2 * _KUMMER_CUT_MAX + 1
    assert blocks
    assert max(rows * cols for rows, cols in blocks) <= _BATCH_BLOCK_FLOATS
    with mpmath.workdps(50):
        want = np.array([float(mpmath.hyp1f1(50.5, 1.0, x)) for x in z])
    rel = np.abs(got - want) / np.abs(want)
    # the expansion is only as close as its smallest term: 9% at w = 200
    assert rel.max() < 0.1
    assert rel[z <= -250.0].max() < 1e-8


def test_kummer_arr_column_blocks_keep_each_nodes_bits():
    # past _BATCH_BLOCK_FLOATS terms the nodes go in column blocks; the
    # last block here holds one node, which is summed alone
    a, c = 1.5, 2.5
    cols = _BATCH_BLOCK_FLOATS // _series_table_of(a, c).size
    z = -np.linspace(0.0, _kummer_cut(a, c), 2 * cols + 1, endpoint=False)
    got = kummer_1f1_arr(a, c, z)
    want = _lockstep_kummer_1f1_arr(a, c, z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    last = kummer_1f1_arr(a, c, z[-1:])
    assert last.view(np.int64)[0] == got.view(np.int64)[-1]


def test_kummer_arr_polynomial_of_large_degree_stays_bounded(monkeypatch):
    # kummer:2e9,1e9 (c - a = -1e9) and kummer:1000,500 (c - a = -500):
    # 1F1(a; c; -w) is e^-w times a polynomial of that degree in w.  Each
    # node takes the series table certified at its octave, which ends long
    # before the degree, so the tables and term blocks stay small and no
    # node's powers overflow against underflowed coefficients
    blocks = _term_blocks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = kummer_1f1_arr(2e9, 1e9, np.array([0.0, -5.0]))
        z = -np.linspace(0.0, 100.0, 41)
        mid = kummer_1f1_arr(1000.0, 500.0, z)
    assert big[0] == 1.0
    with mpmath.workdps(30):
        want = float(mpmath.hyp1f1(2e9, 1e9, -5.0))
    # the alternating terms of 1F1(-1e9; 1e9; 5) cancel about 4000-fold
    assert abs(big[1] - want) <= 1e-12 * want
    assert np.isfinite(mid).all()
    # the series' terms cancel more and more: pinned up to z = -2.5 only
    for x, v in zip(z[:2], mid[:2]):
        want = oracles.hyp1f1(1000.0, 500.0, float(x))
        assert abs(v - want) <= 1e-13 * abs(want)
    assert max(rows * cols for rows, cols in blocks) <= _BATCH_BLOCK_FLOATS
    assert max(rows for rows, _ in blocks) < 400


@pytest.mark.parametrize("a, c", [(3.0, 1.0), (1000.0, 500.0), (2e9, 1e9),
                                  (2.0 ** 53 + 2.0, 1.0)])
def test_kummer_arr_polynomial_past_the_double_range_is_zero(a, c):
    # 1F1(a; c; -w) with c - a = -n is e^-w times a polynomial of degree n;
    # where its series leaves the double range, e^-w wins: 0, the limit at
    # -inf, with no warning (NaN, as e^-w 0 times an overflowed sum, before;
    # at n = 2**53 the underflow bound took log-gamma at its pole 0, as
    # n + 1 - n rounded to 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kummer_1f1_arr(a, c, np.array([-1e160, -1e300]))
    assert np.array_equal(got, [0.0, 0.0])
    assert corefn._kummer_at_inf(a, c) == 0.0


@pytest.mark.parametrize("a, c", [(3.0, 1.0), (40.5, 0.5), (1000.0, 500.0)])
def test_kummer_polynomial_underflow_bound_is_sound(a, c):
    # where _polynomial_underflows certifies a node, e^-w sum |c_m| w^m,
    # summed in 50 digits, is below 2^-1075 indeed
    n = a - c
    w = np.geomspace(100.0, 1e5, 120)
    sure = corefn._polynomial_underflows(n, c, w)
    assert sure[-1] and not sure[0]
    edge = np.flatnonzero(sure)[0]
    with mpmath.workdps(50):
        for x in w[edge:edge + 3]:
            x = mpmath.mpf(float(x))
            total = mpmath.fsum(mpmath.binomial(n, m) / mpmath.rf(c, m)
                                * x ** m for m in range(int(n) + 1))
            assert mpmath.exp(-x) * total < mpmath.mpf(2) ** -1075


def test_polynomial_kernel_euler_integral_converges():
    # the extreme nodes of b, d > 0 reach kernel arguments near -1.6e274,
    # where the polynomial kernel's series overflows
    got = ext_beta(kummer_kernel(3.0, 1.0), BetaArgs(2.0, 3.0),
                   RegPair(0.1, 0.1), 1e-10)
    with mpmath.workdps(30):
        b = d = mpmath.mpf("0.1")
        want = mpmath.quad(lambda t: t * (1 - t) ** 2 * mpmath.hyp1f1(
            3, 1, -(b / t + d / (1 - t))), [0, 0.5, 1])
    assert got.converged
    assert abs(got.value - want) <= got.abs_err_est


def test_kummer_arr_capped_cut_raises_no_floating_point_warning():
    # kummer:50.5,1 (w0 capped at 200) at z = -200 and from -200 to -260,
    # and eval-mix's (a, c) range on a first-pass grid, called outside any
    # errstate: the tables neither overflow nor form a NaN
    draws = np.random.default_rng(31).uniform(size=(24, 4))
    with np.errstate(over="ignore"):  # as the library forms the arguments
        grid = [extbeta._unit_arg(RegPair(b, d), -1)
                for b, d in draws[:, 2:]]
    cases = [(50.5, 1.0, np.array([-200.0])),
             (50.5, 1.0, -np.linspace(200.0, 260.0, 61))]
    cases += [(0.5 + 2.0 * u, 0.5 + 2.0 * u + 0.3 + 2.2 * v, z)
              for (u, v, _, _), z in zip(draws, grid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, c, z in cases:
            got = kummer_1f1_arr(a, c, z)
            assert np.isfinite(_series_table_of(a, c)).all()
            assert np.isfinite(
                corefn._kummer_setup(a, c).algebraic).all()
            assert np.isfinite(got[np.isfinite(z)]).all()


def test_kummer_arr_non_finite_bit_identical_to_lockstep():
    # non-finite nodes take their limits up front: NaN stays NaN, -inf
    # decays like |z|^-a; finite nodes are unaffected
    z = np.array([np.nan, -np.inf, -3.0])
    got = kummer_1f1_arr(1.5, 2.0, z)
    assert np.isnan(got[0]) and got[1] == 0.0
    want = _lockstep_kummer_1f1_arr(1.5, 2.0, z[2:])
    assert np.array_equal(got[2:].view(np.int64), want.view(np.int64))


def test_kummer_arr_nan_exit_keeps_lockstep_bits():
    # a NaN node stays NaN; at -inf the polynomials 1 + w/2.5 (a = -1) and
    # 1F1(-2; 2.5; -w) (a = -2) take the limits of their leading terms
    z = np.array([-np.inf, np.nan, -np.nan])
    for a in (-1.0, -2.0):
        got = kummer_1f1_arr(a, 2.5, z)
        assert got[0] == math.inf
        assert np.isnan(got[1:]).all()


@pytest.mark.parametrize("a,c,z,limit", [
    (3.0, 1.0, -math.inf, 0.0),      # e^z times a polynomial
    (-1.0, 2.5, -math.inf, math.inf),
    (2.5, 1.0, -math.inf, 0.0),
    (0.0, 1.5, -math.inf, 1.0),
])
def test_kummer_arr_takes_the_limit_at_infinity(a, c, z, limit):
    assert kummer_1f1_arr(a, c, np.array([z, -2.0]))[0] == limit


@pytest.mark.parametrize("z", [0.5, 5e-324, 1e300, np.inf])
def test_kummer_arr_refuses_z_above_0_before_any_setup(z, monkeypatch):
    # the kernel is evaluated at z <= 0 only: a node z > 0, +inf too, is a
    # DomainError before any table is built, whatever the other nodes
    builds = []
    setup = corefn._kummer_setup

    def spy(*key):
        builds.append(key)
        return setup(*key)

    monkeypatch.setattr(corefn, "_kummer_setup", spy)
    for nodes in ([z], [-3.0, z, -np.inf, np.nan]):
        with pytest.raises(DomainError, match="z <= 0 only"):
            kummer_1f1_arr(1.5, 2.0, np.array(nodes))
        with pytest.raises(DomainError, match="z <= 0 only"):
            theta_eval_arr(KUM2, np.array(nodes))
    assert builds == []


def test_kummer_arr_forms_only_the_limits_its_nodes_ask_for():
    # (1000, 500): c - a = -500, so the -inf limit is 0 with no gamma
    # ratio.  (-200.5, 1.5): at -inf Gamma(1.5)/Gamma(202) underflows, and
    # the limit takes only its sign.  No warning, and the finite nodes keep
    # their bits
    finite = np.array([-3.0, -0.5])
    for a, c, limit in ((1000.0, 500.0, 0.0), (-200.5, 1.5, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = kummer_1f1_arr(a, c, finite)
            assert kummer_1f1_arr(a, c, np.array([-np.inf]))[0] == limit
            got = kummer_1f1_arr(a, c, np.array([-3.0, -np.inf, -0.5]))
        assert got[1] == limit
        assert np.array_equal(got[[0, 2]].view(np.int64),
                              alone.view(np.int64))


def test_kummer_arr_matches_mpmath():
    zs = np.array([-199.5, -80.0, -25.0, -3.0, -0.5, 0.0])
    for a, c in ((1.5, 2.0), (0.3, 4.7), (2.5, 1.0)):
        got = kummer_1f1_arr(a, c, zs)
        for z, v in zip(zs, got):
            with mpmath.workdps(30):
                want = float(mpmath.hyp1f1(a, c, float(z)))
            assert abs(v - want) <= 1e-13 * abs(want), (a, c, z)


def _former_kummer_1f1_arr(a, c, z):
    """The former rule of kummer_1f1_arr, as a lock-step copy: a series
    whose terms round as term * (aa+m) / (c+m) * w / (m+1) above z = -200,
    and 24 terms of the algebraic branch from there down."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    neg_big = z <= -200.0
    if _is_nonpositive_int(c - a):
        neg_big = np.zeros_like(neg_big)
    rest = ~neg_big
    if np.any(rest):
        zr = z[rest]
        transform = zr < 0.0
        w = np.where(transform, -zr, zr)
        aa = np.where(transform, c - a, a)
        s = np.ones_like(w)
        term = np.ones_like(w)
        active = np.ones_like(w, dtype=bool)
        small = np.zeros_like(w, dtype=int)
        for m in range(30_000):  # the former cap on terms a node
            term = term * (aa + m) / (c + m) * w / (m + 1)
            s = s + np.where(active, term, 0.0)
            tiny = np.abs(term) < 1e-15 * np.abs(s)  # the former threshold
            small = np.where(tiny, small + 1, 0)
            active = active & (small < 3) & (term != 0.0)
            if not np.any(active):
                break
        out[rest] = np.where(transform, np.exp(zr) * s, s)
    if np.any(neg_big):
        w = -z[neg_big]
        s = np.ones_like(w)
        term = np.ones_like(w)
        for k in range(1, 25):
            term = term * (a + k - 1) * (a - c + k) / (k * w)
            s = s + term
        out[neg_big] = _amplitude(c, c - a) * np.exp(-a * np.log(w)) * s
    return out


_ACC_WS = np.concatenate([np.geomspace(1e-3, 1e4, 57),
                          [25.0, 33.0, 40.0, 47.0, 60.0, 120.0, 199.0, 201.0]])
_ACC_ZS = -_ACC_WS


def _worst_rel_error(vals, want):
    with mpmath.workdps(50):
        return max(float(abs((mpmath.mpf(float(v)) - w) / w))
                   for v, w in zip(vals, want))


def _new_and_former_worst(a, c, zs):
    with mpmath.workdps(50):
        want = [mpmath.hyp1f1(a, c, float(z)) for z in zs]
    new = _worst_rel_error(kummer_1f1_arr(a, c, zs), want)
    with np.errstate(all="ignore"):  # lock-step terms run past their stops
        old = _worst_rel_error(_former_kummer_1f1_arr(a, c, zs), want)
    return new, old


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 5.0, 10.0])
def test_kummer_arr_accuracy_not_worse_than_former_rule(a):
    # against 50-digit mpmath, per (a, c), over w = -z from 1e-3 to 1e4
    # and the nodes next to every cut the rule has used, c - a next to the
    # poles of Gamma(c - a) at -1 and -2 included
    for d in (0.3, 1.0, 2.5, 4.0, -0.5, 1e-6, -1.0 + 1e-6, -2.0 + 1e-3):
        c = a + d
        if c <= 0.0:
            continue  # the confluent kernel needs c > 0
        new, old = _new_and_former_worst(a, c, _ACC_ZS)
        assert new <= 1.1 * old, (a, c, new, old)
        assert new <= 2e-14, (a, c, new)


@pytest.mark.parametrize("a, c", [(10.0, 9.000001), (2.5, 1.500001)])
def test_kummer_amplitude_next_to_a_pole_matches_mpmath(a, c):
    with mpmath.workdps(40):
        want = mpmath.gamma(c) / mpmath.gamma(c - a)
        amp = corefn._kummer_setup(a, c).gamma
        assert abs((amp - want) / want) <= 1e-13


@pytest.mark.parametrize("a,c", [(1.0, 30.0), (1.0, 60.0), (2.0, 40.0),
                                 (0.5, 40.5), (1.0, 300.0)])
def test_kummer_arr_accuracy_where_algebraic_terms_alternate(a, c):
    # with c - a > 1 the first algebraic terms alternate; the cut waits
    # until they fall like 3^-k, so below w = 200 (the former series range)
    # no digits are lost to their cancellation
    below = _ACC_ZS[(_ACC_ZS < 0.0) & (_ACC_ZS > -200.0)]
    assert _new_and_former_worst(a, c, below)[0] <= 5e-14
    new, old = _new_and_former_worst(a, c, _ACC_ZS)
    assert new <= 1.1 * old, (new, old)


def _dropped_pieces(a, c, w):
    """The larger of the smallest algebraic term and the exponential-piece
    bound, both relative to the leading algebraic term, at w."""
    k = np.arange(1.0, 400.0)
    smallest = np.cumprod(np.abs((a + k - 1) * (a - c + k) / (k * w))).min()
    drop = math.exp(math.lgamma(c - a) - math.lgamma(a) - w
                    + (2.0 * a - c) * math.log(w))
    return max(smallest, drop)


@pytest.mark.parametrize("a,c", [
    (1.5, 2.5), (0.3, 4.7), (2.5, 1.0), (1.0, 2.0), (10.0, 9.5),
    (1.0, 1.0 + 1e-6), (2.5, 1.5 + 1e-6), (5.0, 3.001), (0.3, 0.6),
])
def test_kummer_cut_is_where_both_dropped_pieces_are_below_2_pow_56(a, c):
    w0 = _kummer_cut(a, c)
    assert 1.0 <= w0 < 200.0
    for w in np.linspace(w0, 200.0, 60):
        assert _dropped_pieces(a, c, w) < 2.0 ** -56, (w0, w)
    # the cut is the smallest such w, up to the unit step of the scan that
    # finds the exponential piece's
    assert _dropped_pieces(a, c, w0 - 1.0) >= 2.0 ** -56
    # computed once per (a, c), with the rest of its setup
    setup = corefn._kummer_setup(a, c)
    assert setup.w0 == w0 and corefn._kummer_setup(a, c) is setup


def test_kummer_cut_keeps_the_series_or_caps_at_200():
    assert _kummer_cut(3.0, 1.0) == math.inf    # c - a = -2
    assert _kummer_cut(2.0, 2.0) == math.inf    # c - a = 0
    assert _kummer_cut(0.5, 1e300) == 200.0     # never accurate: capped
    # the algebraic terms alternate while k < c - a: w >= 3 max(a, 1)
    # (c - a - 1), which is 174 here and 222 (capped) for (2, 40)
    assert _kummer_cut(1.0, 60.0) == 174.0
    assert _kummer_cut(2.0, 40.0) == 200.0


def test_tiny_confluent_parameters_are_no_polynomial_case():
    # a = 1e-20 and c - a = 2e-20 both lie within 1e-12 of 0, but not
    # within 1e-12 of c: 1F1(a; c; -w) is about 2/3 + e^-w / 3, whose
    # exponential piece the algebraic branch must wait out
    a, c = 1e-20, 3e-20
    assert 30.0 < _kummer_cut(a, c) < 200.0
    w = np.array([0.5, 1.0, 5.0, 20.0, 50.0])
    with mpmath.workdps(30):
        want = [float(mpmath.hyp1f1(a, c, -x)) for x in w]
    assert np.allclose(kummer_1f1_arr(a, c, -w), want, rtol=1e-14, atol=0)
    got = ext_beta(kummer_kernel(a, c), BetaArgs(0.5, 0.8), RegPair(1.8, 0.5))
    with mpmath.workdps(30):
        want = mpmath.quad(
            lambda t: (t ** -0.5 * (1 - t) ** mpmath.mpf(-0.2)
                       * mpmath.hyp1f1(a, c, -1.8 / t - 0.5 / (1 - t))),
            [0, 0.5, 1])
    assert got.converged and math.isfinite(got.value)
    assert abs(got.value - want) <= 1e-8


def test_kummer_kernel_iterates_no_nodes_in_python():
    # the confluent kernel is table sums over whole arrays: no per-node
    # series, no loop or comprehension over nodes, no .tolist(); the one
    # loop of _power_sums steps over column blocks of the powers table, and
    # that of _series_sums over the distinct octaves of the nodes
    tree = ast.parse(Path(corefn.__file__).read_text(encoding="utf-8"))
    fns = {n.name: n for n in ast.walk(tree)
           if isinstance(n, ast.FunctionDef)}
    assert "_kummer_series_node" not in fns and "_block_sum" not in fns
    for name in ("kummer_1f1_arr", "kummer_algebraic_tail", "_kummer_neg",
                 "_algebraic_sums", "_series_sums", "_power_sums",
                 "_kummer_at_inf"):
        nodes = list(ast.walk(fns[name]))
        loops = [n for n in nodes
                 if isinstance(n, (ast.For, ast.AsyncFor, ast.comprehension))]
        if name == "_power_sums":
            assert len(loops) == 1
            step = loops[0].iter.args[2]
            assert isinstance(step, ast.Name) and step.id == "cols"
        elif name == "_series_sums":
            assert len(loops) == 1
            octaves = loops[0].iter
            assert isinstance(octaves, ast.Call)
            assert ast.unparse(octaves.func) == "np.unique"
        else:
            assert not loops, name
        assert not any(isinstance(n, ast.Attribute) and n.attr == "tolist"
                       for n in nodes), name
    # nor does the setup of an (a, c): its only loops step over the lengths
    # of a scan, literal tuples of them or a doubling size, never over k, w
    # or the coefficients of a table
    for name in ("_kummer_setup", "_kummer_cut", "_series_table",
                 "_algebraic_table", "_gamma_ratio"):
        nodes = list(ast.walk(fns[name]))
        for loop in nodes:
            if isinstance(loop, ast.For):
                it = loop.iter
                sizes = [it.body, it.orelse] if isinstance(it, ast.IfExp) \
                    else [it]
                assert all(isinstance(x, ast.Tuple) for x in sizes), name
            elif isinstance(loop, ast.While):
                assert name == "_series_table"
                assert "size = min(2 * size" in ast.unparse(loop)
            else:
                assert not isinstance(loop, (ast.AsyncFor, ast.comprehension))
        assert not any(isinstance(n, ast.Attribute) and n.attr == "tolist"
                       for n in nodes), name


def test_log_theta_far_tail_matches_kernel_value():
    zs = np.array([-1e6, -3000.0, -500.0, -200.0])
    for k in (KUM, KUM2, kummer_kernel(0.3, 4.7)):
        got = log_theta_neg_asym(k, zs)
        want = np.log(theta_eval_arr(k, zs))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    with pytest.raises(DomainError):  # Gamma(1)/Gamma(-0.5) < 0
        log_theta_neg_asym(kummer_kernel(1.5, 1.0), zs)
