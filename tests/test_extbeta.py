"""Regularized beta/gamma: reductions, symmetry, batching, complex path."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exthyp import extbeta
from exthyp.corefn import beta_classical, ln_gamma
from exthyp.extbeta import (
    _THETA_CACHE_SIZE,
    BetaArgs,
    RegPair,
    check_beta_domain,
    check_beta_domain_complex,
    ext_beta,
    ext_beta_complex,
    ext_beta_complex_many,
    ext_beta_shifted_batch,
    ext_beta_shifted_batch_arrays,
    ext_gamma,
    safe_theta_product,
    _unit_logs,
    _unit_theta,
)
from exthyp.kernel import (
    EXP_KERNEL,
    EXP_VARIANT,
    kummer_kernel,
    theta_eval_arr,
)
from exthyp.quadrature import (
    MAX_LEVEL,
    integrate_halfline,
    integrate_unit2,
    unit_new_nodes,
)
from exthyp.results import DomainError

mpmath.mp.dps = 30

KUM = kummer_kernel(1.0, 2.0)


def test_ext_gamma_classical_reduction():
    got = ext_gamma(EXP_KERNEL, 3.0, 0.0)
    assert abs(got.value - 2.0) < 1e-11


def test_ext_gamma_bessel_closed_form():
    want = math.sqrt(math.pi) * math.exp(-2.0)
    got = ext_gamma(EXP_KERNEL, 0.5, 1.0)
    assert abs(got.value - want) < 1e-10


def test_ext_gamma_kummer_oracle():
    # independent half-line quadrature of the same integrand at tight tol;
    # z < a is required for convergence with the algebraically-decaying kernel
    got = ext_gamma(KUM, 0.5, 0.5, tol=1e-12)

    def f(t):
        w = t + 0.5 / t
        return t ** -0.5 * (1.0 - np.exp(-w)) / w

    want = integrate_halfline(f, 1e-12)
    assert abs(got.value - want.value) <= 1e-10 * (1 + abs(want.value))


def test_ext_gamma_kummer_divergence_guard():
    with pytest.raises(DomainError):
        ext_gamma(KUM, 1.0, 0.5)  # z = a sits on the divergence boundary
    with pytest.raises(DomainError):
        ext_gamma(EXP_KERNEL, -1.0, 0.0)


def test_ext_beta_classical_reduction_grid():
    for a in (0.3, 1.0, 2.5, 4.0):
        for b in (0.3, 1.0, 2.5, 4.0):
            got = ext_beta(EXP_KERNEL, BetaArgs(a, b)).value
            want = beta_classical(a, b)
            assert abs(got - want) <= 1e-10 * want


def test_ext_beta_oracle_small_reg():
    got = ext_beta(EXP_KERNEL, BetaArgs(1.0, 1.0), RegPair(0.1, 0.1))
    want = integrate_unit2(
        lambda t, tc: np.exp(-0.1 / t - 0.1 / tc), 1e-12)
    assert abs(got.value - want.value) <= 1e-12 * (1 + abs(want.value))


def test_ext_beta_symmetry():
    for (a, b, rb, rd) in [(1.2, 0.7, 0.3, 0.8), (2.0, 2.0, 0.0, 0.5),
                           (0.4, 1.9, 1.0, 0.0)]:
        lhs = ext_beta(EXP_KERNEL, BetaArgs(a, b), RegPair(rb, rd)).value
        rhs = ext_beta(EXP_KERNEL, BetaArgs(b, a), RegPair(rd, rb)).value
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@given(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.0, 1.5),
       st.floats(0.0, 1.5))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_ext_beta_symmetry_property(a, b, rb, rd):
    lhs = ext_beta(EXP_KERNEL, BetaArgs(a, b), RegPair(rb, rd)).value
    rhs = ext_beta(EXP_KERNEL, BetaArgs(b, a), RegPair(rd, rb)).value
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_ext_beta_contiguous_identity():
    k = EXP_KERNEL
    r = RegPair(0.2, 0.4)
    for (a, b) in [(0.8, 1.3), (2.2, 0.5)]:
        whole = ext_beta(k, BetaArgs(a, b), r).value
        up_a = ext_beta(k, BetaArgs(a + 1.0, b), r).value
        up_b = ext_beta(k, BetaArgs(a, b + 1.0), r).value
        assert abs(whole - (up_a + up_b)) <= 1e-10 * (1 + abs(whole))


def test_kummer_kernel_single_parameter_form():
    # with b = d the kernel argument collapses to -b/(t(1-t))
    b = 0.4
    got = ext_beta(KUM, BetaArgs(1.5, 2.5), RegPair(b, b))

    def integrand(t, tc):
        w = b / (t * tc)
        return t ** 0.5 * tc ** 1.5 * (1.0 - np.exp(-w)) / w

    want = integrate_unit2(integrand, 1e-12)
    assert abs(got.value - want.value) <= 1e-11 * (1 + abs(want.value))


def test_monotone_in_first_reg_parameter():
    vals = [ext_beta(EXP_KERNEL, BetaArgs(1.1, 2.3), RegPair(b, 0.2)).value
            for b in (0.0, 0.1, 0.5, 1.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_negative_arguments_allowed_with_positive_reg():
    got = ext_beta(EXP_KERNEL, BetaArgs(-0.5, -1.0), RegPair(0.5, 0.5))
    assert got.converged and got.value > 0.0
    with pytest.raises(DomainError):
        ext_beta(EXP_KERNEL, BetaArgs(-0.5, 1.0), RegPair(0.0, 0.5))
    # algebraic kernel decay only buys exponents above -a
    with pytest.raises(DomainError):
        ext_beta(KUM, BetaArgs(-1.5, 1.0), RegPair(0.5, 0.5))


def test_batch_matches_single_trivial():
    res = ext_beta_shifted_batch(EXP_KERNEL, 1.0, 3, 1.0)
    for m, want in enumerate([1.0, 0.5, 1.0 / 3.0]):
        assert abs(res[m].value - want) < 1e-12


def test_batch_stride_two_matches_single():
    vals, _, _, ok = ext_beta_shifted_batch_arrays(
        EXP_KERNEL, 0.7, 3, 1.1, RegPair(0.2, 0.3), kstep=2)
    assert ok
    for m in range(3):
        single = ext_beta(EXP_KERNEL, BetaArgs(0.7 + 2 * m, 1.1),
                          RegPair(0.2, 0.3), tol=1e-13)
        assert abs(vals[m] - single.value) <= 1e-13 * (1 + abs(single.value))


def test_batch_kummer_matches_single():
    vals, _, _, ok = ext_beta_shifted_batch_arrays(
        KUM, 0.5, 5, 0.5, RegPair(0.3, 0.7))
    assert ok
    for m in range(5):
        single = ext_beta(KUM, BetaArgs(0.5 + m, 0.5), RegPair(0.3, 0.7),
                          tol=1e-13)
        assert abs(vals[m] - single.value) <= 1e-13 * (1 + abs(single.value))


def test_complex_real_reduction():
    got = ext_beta_complex(EXP_KERNEL, 2.0 + 0.0j, 3.0)
    assert abs(got.value - 1.0 / 12.0) < 1e-12


def test_complex_pure_power():
    got = ext_beta_complex(EXP_KERNEL, 1.0 + 1.0j, 1.0)
    assert abs(got.value - (0.5 - 0.5j)) < 1e-11


def test_complex_gamma_quotient_oracle():
    for alpha in (0.8 + 3.0j, 0.5 + 2.0j):
        got = ext_beta_complex(EXP_KERNEL, alpha, 0.9)
        want = np.exp(complex(ln_gamma(alpha) + ln_gamma(0.9)
                              - ln_gamma(alpha + 0.9)))
        assert abs(got.value - want) <= 1e-10 * (1 + abs(want))


def test_complex_confluent_kernel_zero_samples():
    # Theta = 1F1(1.5; 2.5; -w) underflows to 0.0 at extreme nodes when
    # b, d > 0; those nodes are zero samples, as in the real path
    k = kummer_kernel(1.5, 2.5)
    reg = RegPair(0.2, 0.3)
    assert np.any(_unit_theta(k, reg, 0) == 0.0)
    got = ext_beta_complex(k, 2.0 + 0.0j, 1.5, reg)
    want = ext_beta(k, BetaArgs(2.0, 1.5), reg)
    assert got.converged
    assert abs(got.value - want.value) <= 1e-12


def _complex_many_reference(k, alphas, beta, reg=RegPair(), tol=1e-12,
                            max_level=MAX_LEVEL):
    """Reference: the former complex beta, with its own level loop and the
    exponent built in complex arithmetic from broadcast real rows."""
    alphas = np.asarray(alphas, dtype=complex)
    for a in (alphas.real.min(), alphas.real.max()):
        check_beta_domain_complex(k, complex(a), beta, reg)

    totals = None
    prev = None
    err = math.inf
    nodes = 0
    converged = False
    for level in range(max_level + 1):
        t, tc, w = unit_new_nodes(level)
        lt, ltc = _unit_logs(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            arg = -(reg.b / t + reg.d / tc)
            base = np.log(w) + (beta - 1.0) * ltc
            if k.variant == EXP_VARIANT:
                base = base + arg
            else:
                theta = _unit_theta(k, reg, level)
                if np.any(theta <= 0.0):
                    raise DomainError(
                        "confluent kernel not positive on the grid; "
                        "complex-batch path needs c > a")
                base = base + np.log(theta)
            s = np.zeros(alphas.shape, dtype=complex)
            for i0 in range(0, alphas.size, 256):
                blk = alphas[i0:i0 + 256]
                e = np.exp(base[None, :] + (blk[:, None] - 1.0) * lt[None, :])
                s[i0:i0 + 256] = e.sum(axis=1)
        nodes += t.size
        h = 2.0 ** -level if level else 1.0
        totals = h * s if totals is None else 0.5 * totals + h * s
        if level >= 1:
            err = float(np.max(np.abs(totals - prev)))
        if level >= 3 and err <= tol:
            converged = True
            break
        prev = totals.copy()
    return totals, err, nodes, converged


_COMPLEX_CASES = [
    (EXP_KERNEL, RegPair(0.0, 0.0)),
    (EXP_KERNEL, RegPair(0.2, 0.3)),
    (EXP_KERNEL, RegPair(0.0, 0.7)),
    (EXP_KERNEL, RegPair(1.0, 0.0)),
    (kummer_kernel(1.5, 2.5), RegPair(0.0, 0.0)),
]


def _assert_same_complex_many(got, want):
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert (np.float64(got[1]).view(np.int64)
            == np.float64(want[1]).view(np.int64))
    assert got[2:] == want[2:]


@pytest.mark.parametrize("tol", [1e-6, 1e-11, 1e-14])
@pytest.mark.parametrize("case", range(len(_COMPLEX_CASES)))
@pytest.mark.parametrize("size", [1, 2, 255, 256, 257])
def test_complex_many_bit_identical_to_reference(size, case, tol):
    k, reg = _COMPLEX_CASES[case]
    rng = np.random.default_rng(1000 * size + 10 * case + int(-math.log10(tol)))
    # a shared real part on odd sizes, a mixed one on even sizes; one in
    # eight first arguments is real, with both signs of a zero imaginary part
    re = (np.full(size, rng.uniform(0.3, 2.0)) if size % 2
          else rng.uniform(0.3, 3.0, size))
    im = rng.uniform(-12.0, 12.0, size)
    im[::8] = 0.0
    im[4::8] = -0.0
    alphas = re + 1j * im
    beta = rng.uniform(0.5, 2.5)
    _assert_same_complex_many(
        ext_beta_complex_many(k, alphas, beta, reg, tol),
        _complex_many_reference(k, alphas, beta, reg, tol))


@pytest.mark.parametrize("mixed", [False, True])
def test_complex_many_contour_sized_batch_bit_identical(mixed):
    # a contour-sized batch: 3201 first arguments, 13 blocks of 256 rows;
    # |Im| stays below 8 to keep the levels few, and the tolerances cycle
    # with the kernel cases
    tau = np.arange(-1600, 1601) * 0.005
    re = 0.6 + (0.5 * np.cos(tau) if mixed else 0.0)
    alphas = re - 1j * tau
    for case, (k, reg) in enumerate(_COMPLEX_CASES):
        tol = (1e-6, 1e-11, 1e-14)[(case + mixed) % 3]
        _assert_same_complex_many(
            ext_beta_complex_many(k, alphas, 1.6, reg, tol),
            _complex_many_reference(k, alphas, 1.6, reg, tol))


def test_reg_pair_validation():
    with pytest.raises(DomainError):
        RegPair(-0.1, 0.0)


def test_theta_cache_is_bounded_and_read_only():
    reg = RegPair(0.25, 0.5)
    for i in range(_THETA_CACHE_SIZE + 20):
        theta = _unit_theta(kummer_kernel(1.0 + i / 64.0, 3.0), reg, 0)
        assert not theta.flags.writeable
    assert _unit_theta.cache_info().currsize == _THETA_CACHE_SIZE
    # the most recent entry is a hit, and a hit returns the cached array
    again = _unit_theta(kummer_kernel(1.0 + i / 64.0, 3.0), reg, 0)
    assert again is theta


@pytest.mark.parametrize("alpha, beta", [
    (complex(1.0, math.nan), 1.0),
    (complex(math.inf, 1.0), 1.0),
    (complex(2.0, math.inf), 1.0),
    (complex(2.0, 1.0), math.inf),
])
def test_complex_non_finite_arguments_raise_before_quadrature(
        monkeypatch, alpha, beta):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(extbeta, "_refine", no_quadrature)
    with pytest.raises(DomainError):
        ext_beta_complex(EXP_KERNEL, alpha, beta)
    with pytest.raises(DomainError):
        ext_beta_complex_many(EXP_KERNEL, np.array([2.0 + 1j, alpha]), beta)


def test_theta_product_big_exponent_near_argument():
    # exp(powexp) is finite below 709, so the product can be formed
    # directly; the far-tail form of log Theta holds only at -200 and below
    k = kummer_kernel(2.5, 1.0)
    powexp = np.array([633.7, 650.0, 700.0, 650.0])
    arg = np.array([-0.5, 0.0, -150.0, -250.0])
    want = np.exp(powexp) * theta_eval_arr(k, arg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = safe_theta_product(k, powexp, arg)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [EXP_KERNEL, KUM])
@pytest.mark.parametrize("alpha, beta", [
    (2.0, math.inf),
    (math.inf, 1.0),
    (-math.inf, 1.0),
    (2.0, -math.inf),
    (math.nan, 1.0),
    (2.0, math.nan),
])
def test_non_finite_arguments_raise_before_quadrature(monkeypatch, k, alpha,
                                                      beta):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    for name in ("integrate_unit_levels", "integrate_unit_batch", "_refine"):
        monkeypatch.setattr(extbeta, name, no_quadrature)
    reg = RegPair(0.2, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            check_beta_domain(k, alpha, beta, reg)
        with pytest.raises(DomainError):
            ext_beta(k, BetaArgs(alpha, beta), reg)
        with pytest.raises(DomainError):
            ext_beta_shifted_batch_arrays(k, alpha, 3, beta, reg)
        with pytest.raises(DomainError):
            check_beta_domain_complex(k, complex(alpha, 0.5), beta, reg)
