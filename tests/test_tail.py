"""The one series stopping rule: at each column's cut, the tail that the
series returns bounds the terms it leaves out.

Every ladder-backed series kind is drawn from a seeded generator, with the
exp kernel and the confluent kernel (1.5, 2.5).  The ladder's coefficient
errors are set to 0, so each returned error is the tail alone.  The terms
left out are summed in mpmath at 30 digits, with the same float
coefficients, until they fall below 1e-40 of the tail.
"""

import math

import mpmath
import numpy as np
import pytest

from exthyp import hyp, lauricella
from exthyp.extbeta import RegPair
from exthyp.hyp import SERIES_CAP, PfqSpec, _CoeffLadder
from exthyp.kernel import EXP_KERNEL, kummer_kernel
from exthyp.lauricella import LauricellaParams

KERNELS = [EXP_KERNEL, kummer_kernel(1.5, 2.5)]
DRAWS = 3


@pytest.fixture(autouse=True)
def exact_coefficients(monkeypatch):
    """Coefficient blocks with their values and zero errors."""
    real = hyp._coeff_block

    def block(*args):
        vals, errs, ok = real(*args)
        return vals, np.zeros_like(errs), ok

    monkeypatch.setattr(hyp, "_coeff_block", block)


def _omitted(term, first, ladder, tail):
    """sum over n >= first of |term(n)| * coeffs[n], in mpmath, until the
    terms fall below 1e-40 of the tail (or the ladder's cap)."""
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for n in range(first, SERIES_CAP):
            ladder.ensure(n + 1)
            t = abs(term(n)) * mpmath.mpf(ladder.coeffs[n])
            total += t
            if n > first + 8 and t < 1e-40 * max(tail, 1e-300):
                break
    return total


def _weights(step, w0=1.0):
    """Term n's weight of a running product: w0 times the steps 0 to n-1,
    exact in mpmath."""
    cache = [mpmath.mpf(w0)]

    def weight(n):
        while len(cache) <= n:
            cache.append(cache[-1] * step(len(cache) - 1))
        return cache[n]

    return weight


def _reg(rng):
    return RegPair(*rng.uniform(0.0, 0.4, 2))


def _check(engine_out, weight, ladder, column=0):
    sums, errs, rows, done = engine_out
    assert done
    tail = float(errs[column])
    with mpmath.workdps(30):
        omitted = _omitted(weight, rows, ladder, tail)
    assert omitted <= tail, (rows, float(omitted), tail)


@pytest.mark.parametrize("kernel", KERNELS, ids=["exp", "kummer"])
def test_tail_of_a_scalar_series_with_a_head(kernel):
    rng = np.random.default_rng(101)
    for _ in range(DRAWS):
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        spec = PfqSpec(((a1, 1), (a2, 1)), (a2 + rng.uniform(0.3, 2.0),),
                       _reg(rng), kernel)
        z = rng.uniform(-0.75, 0.75)
        ladder = _CoeffLadder(spec)
        out = hyp._pfq_sum(spec, np.array([z]), ladder)
        with mpmath.workdps(30):
            weight = _weights(lambda m: (a1 + m) * mpmath.mpf(z) / (m + 1))
            _check(out, weight, ladder)


@pytest.mark.parametrize("kernel", KERNELS, ids=["exp", "kummer"])
def test_tail_with_surplus_lower_parameters(kernel):
    # p <= q: the surplus lower parameters divide the weights; a negative
    # one keeps q infinite until b + m > 0
    rng = np.random.default_rng(202)
    for _ in range(DRAWS):
        a = rng.uniform(0.2, 2.0)
        b0 = rng.choice([rng.uniform(0.2, 3.0), -rng.uniform(0.1, 2.9)])
        spec = PfqSpec(((a, 1),), (b0, a + rng.uniform(0.3, 2.0)),
                       _reg(rng), kernel)
        z = rng.uniform(-20.0, 20.0)
        ladder = _CoeffLadder(spec)
        out = hyp._pfq_sum(spec, np.array([z]), ladder)
        with mpmath.workdps(30):
            weight = _weights(lambda m: mpmath.mpf(z) / ((m + 1) * (b0 + m)))
            _check(out, weight, ladder)


@pytest.mark.parametrize("kernel", KERNELS, ids=["exp", "kummer"])
def test_tail_of_type_a_last_axis_columns(kernel):
    # per-column heads alpha + N and weights: column j alone has a nonzero
    # weight, so the others stop at once and the rows are column j's
    rng = np.random.default_rng(303)
    for _ in range(DRAWS):
        alpha, beta = rng.uniform(0.2, 2.0, 2)
        spec = PfqSpec(((alpha, 1), (beta, 1)),
                       (beta + rng.uniform(0.3, 2.0),), _reg(rng), kernel)
        x = rng.uniform(-0.7, 0.7)
        n = 12
        heads = alpha + np.arange(n)
        weights = rng.uniform(-1.0, 1.0, n) * 0.5 ** np.arange(n)
        j = int(rng.integers(n))
        only = np.where(np.arange(n) == j, weights, 0.0)
        ladder = _CoeffLadder(spec)
        out = hyp._pfq_sum(spec, np.full(n, x), ladder, heads, only)
        with mpmath.workdps(30):
            weight = _weights(
                lambda m: (heads[j] + m) * mpmath.mpf(x) / (m + 1),
                weights[j])
            _check(out, weight, ladder, j)


@pytest.mark.parametrize("kernel", KERNELS, ids=["exp", "kummer"])
def test_tail_of_a_type_a_outer_row(kernel):
    # r = 2: one outer row; a term's bound is its modulus times what the
    # last axis can multiply it by, (1 - |y|)^-(|alpha| + m)
    rng = np.random.default_rng(404)
    for _ in range(DRAWS):
        alpha = rng.uniform(0.2, 2.0)
        betas = tuple(rng.uniform(0.2, 2.0, 2))
        gammas = tuple(b + rng.uniform(0.3, 2.0) for b in betas)
        x, y = rng.uniform(-0.45, 0.45, 2)
        p = LauricellaParams(alpha, betas, gammas, (x, y), _reg(rng), kernel)
        weights, tail, done = lauricella._outer_terms(p)
        assert done
        ladder = lauricella._ratio_ladder(kernel, p.reg, betas[0], gammas[0])
        with mpmath.workdps(30):
            grow = 1 / (1 - mpmath.mpf(abs(y)))
            weight = _weights(lambda m: (alpha + m) * mpmath.mpf(x) / (m + 1))
            omitted = _omitted(
                lambda m: weight(m) * grow ** (abs(alpha) + m),
                weights.size, ladder, tail)
        assert omitted <= tail, (weights.size, float(omitted), tail)


@pytest.mark.parametrize("kernel", KERNELS, ids=["exp", "kummer"])
def test_tail_of_the_type_d_diagonals(kernel):
    rng = np.random.default_rng(505)
    for _ in range(DRAWS):
        r = int(rng.integers(2, 4))
        alpha = rng.uniform(0.2, 2.0)
        gamma = alpha + rng.uniform(0.3, 2.0)
        betas = tuple(rng.uniform(-1.5, 2.0, r))
        xs = tuple(rng.uniform(-0.7, 0.7, r))
        p = LauricellaParams(alpha, betas, (gamma,), xs, _reg(rng), kernel)
        got = lauricella.fd_series(p)
        assert got.converged
        ladder = lauricella._ratio_ladder(kernel, p.reg, alpha, gamma)
        with mpmath.workdps(30):
            # the t^n coefficients d_n of f = prod_j (1 - x_j t)^-beta_j,
            # from f' = f sum_j beta_j x_j / (1 - x_j t):
            # (n + 1) d_(n+1) = sum_k d_(n-k) sum_j beta_j x_j^(k+1)
            power = [mpmath.fsum(b * mpmath.mpf(x) ** (k + 1)
                                 for b, x in zip(betas, xs))
                     for k in range(SERIES_CAP)]
            diag = [mpmath.mpf(1)]

            def weight(n):
                while len(diag) <= n:
                    i = len(diag) - 1
                    diag.append(mpmath.fsum(diag[i - k] * power[k]
                                            for k in range(i + 1)) / (i + 1))
                return diag[n]

            omitted = _omitted(weight, got.terms_or_nodes, ladder,
                               got.abs_err_est)
        assert omitted <= got.abs_err_est, (got.terms_or_nodes,
                                            float(omitted), got.abs_err_est)
        assert math.isfinite(got.value)
