"""The validation boundary: a malformed number meets a DomainError, and
nothing else.

Hypothesis draws NaN, +-inf, +-1e308, subnormals, zeros, negatives and
ordinary values into the parameter records, the public evaluators and
``cli.main`` (a negative flag is written ``--z=-inf``, as argparse reads
``-inf`` as a flag).  Only ``DomainError`` may escape, no warning may be
emitted, the CLI exits 0, 2, 3 or 4, and a converged result is finite.
Work-size inputs stay bounded: T/h <= 4000 on a contour, ``--steps`` <= 5,
r <= MAX_VARIABLES.  The inputs that once escaped are fixed tests next to
their modules' other domain tests (``test_cli_eval_bad_input_exit_2`` for
the CLI), and each refusal of a public entry point is matched by its message
in ``test_public_refusals_name_their_rule``.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import exthyp as X
from exthyp import cli, ineq, lauricella
from exthyp.corefn import gammaln_real
from exthyp.lauricella import MAX_VARIABLES
from exthyp.results import DomainError

SPECIAL = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
           2.2e-308, 0.0, -0.0, -1.0, -0.5)
# about half the draws are ordinary positive values, so that many calls get
# past their first check
ORDINARY = st.floats(0.05, 3.0)
NUMBERS = st.one_of(ORDINARY, ORDINARY, ORDINARY, st.sampled_from(SPECIAL),
                    st.floats(-1.0, 1.0), st.floats())
METHODS = st.sampled_from(["auto", "series", "integral"])
FUZZ = settings(max_examples=300, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _check(result) -> None:
    """A converged result, or each of a pair, is a finite number."""
    for r in result if isinstance(result, tuple) else (result,):
        if isinstance(r, X.EvalResult) and r.converged:
            assert math.isfinite(abs(r.value)), r
            assert math.isfinite(r.abs_err_est), r
        if isinstance(r, X.HilbertForm) and r.converged:
            assert math.isfinite(r.lhs) and math.isfinite(r.rhs), r


def _call(thunk) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _check(thunk())
        except DomainError:
            pass


def _numbers(draw, n):
    return tuple(draw(NUMBERS) for _ in range(n))


def _kernel(draw):
    return draw(st.sampled_from([X.EXP_KERNEL, None])) or X.kummer_kernel(
        *_numbers(draw, 2))


def _reg(draw):
    """Drawn b and d half the time, so that the other half gets past them."""
    if draw(st.booleans()):
        return X.RegPair(*_numbers(draw, 2))
    return draw(st.sampled_from([X.RegPair(), X.RegPair(0.1, 0.2)]))


def _test_function(draw):
    tag = draw(st.sampled_from(["exp_decay", "bump", "power_cut", "spike"]))
    return X.TestFunction(tag, _numbers(draw, draw(st.integers(0, 3))),
                          draw(NUMBERS))


def _type_a(draw):
    """A valid type A record, so that its series is reached: gamma_j >
    beta_j > 0, signed x_j whose sum of |x_j| is a drawn fraction below
    0.95 (where "auto" sums the series at r >= 3, and every method but
    "integral" admits the arguments), and a kernel and (b, d) of its own,
    all valid: the exp kernel or kummer:a,c with c > a > 0, and b, d in
    [0, 1]."""
    r = draw(st.integers(1, MAX_VARIABLES))
    betas = tuple(draw(ORDINARY) for _ in range(r))
    gammas = tuple(b + draw(ORDINARY) for b in betas)
    xs = [draw(st.floats(-1.0, 1.0)) for _ in range(r)]
    size = sum(map(abs, xs)) or 1.0
    frac = draw(st.floats(0.0, 0.95, exclude_max=True))
    a = draw(ORDINARY)
    kernel = draw(st.sampled_from([X.EXP_KERNEL, None])) or X.kummer_kernel(
        a, a + draw(ORDINARY))
    reg = X.RegPair(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    return X.LauricellaParams(draw(ORDINARY), betas, gammas,
                              tuple(x * frac / size for x in xs), reg, kernel)


def _contour(draw):
    """A contour from three drawn numbers, or from a drawn abscissa and
    step with an integer T/h; either way T/h <= 4000."""
    c0, t, h = _numbers(draw, 3)
    if draw(st.booleans()):
        t = h * draw(st.integers(100, 4000))
    assume(h == 0.0 or not abs(t / h) > 4000)
    return X.ContourSpec(c0, t, h)


# one entry point each: a function of ``draw`` that returns the call
API = {
    "records": lambda draw: draw(st.sampled_from([
        lambda: X.BetaArgs(*_numbers(draw, 2)),
        lambda: X.kummer_kernel(*_numbers(draw, 2)),
        lambda: X.HilbertParams(*_numbers(draw, 10)),
        lambda: _test_function(draw),
        lambda: _contour(draw),
        lambda: gammaln_real(draw(NUMBERS)),
        lambda: X.beta_classical(*_numbers(draw, 2)),
    ])),
    "ext_beta": lambda draw: lambda: X.ext_beta(
        _kernel(draw), X.BetaArgs(*_numbers(draw, 2)), _reg(draw), 1e-6),
    "ext_gamma": lambda draw: lambda: X.ext_gamma(
        _kernel(draw), *_numbers(draw, 2), 1e-6),
    "ext_pfq": lambda draw: lambda: X.ext_pfq(
        X.pfq_spec(_kernel(draw), _numbers(draw, draw(st.integers(0, 3))),
                   _numbers(draw, draw(st.integers(0, 2))), _reg(draw)),
        draw(NUMBERS), 1e-6, draw(METHODS)),
    "f1": lambda draw: lambda: X.f1_eval(
        X.AppellParams(*_numbers(draw, 4), math.nan, _reg(draw),
                       _kernel(draw)), *_numbers(draw, 2), 1e-6,
        draw(METHODS)),
    "f2": lambda draw: lambda: X.f2_eval(
        X.AppellParams(*_numbers(draw, 5), _reg(draw), _kernel(draw)),
        *_numbers(draw, 2), 1e-6, draw(METHODS)),
    "fd": lambda draw: (lambda r: lambda: X.fd_eval(X.LauricellaParams(
        draw(NUMBERS), _numbers(draw, r), _numbers(draw, 1),
        _numbers(draw, r), _reg(draw), _kernel(draw)), 1e-6,
        draw(METHODS)))(draw(st.integers(0, MAX_VARIABLES + 1))),
    "fa": lambda draw: (lambda r: lambda: X.fa_eval(X.LauricellaParams(
        draw(NUMBERS), _numbers(draw, r), _numbers(draw, r),
        _numbers(draw, r), _reg(draw), _kernel(draw)), 1e-6,
        draw(METHODS)))(draw(st.integers(0, MAX_VARIABLES + 1))),
    "fa_valid": lambda draw: lambda: X.fa_eval(
        _type_a(draw), 1e-6, draw(st.sampled_from(["auto", "series"]))),
    "mb_eval": lambda draw: lambda: X.mb_eval(
        X.pfq_spec(_kernel(draw), _numbers(draw, 2), _numbers(draw, 1),
                   _reg(draw)), draw(NUMBERS),
        _contour(draw) if draw(st.booleans()) else None, 1e-6),
    "interval_product": lambda draw: lambda: X.interval_product_integral(
        X.IntervalProductParams(*_numbers(draw, 4), (_numbers(draw, 3),),
                                _reg(draw), _kernel(draw)), 1e-6),
    "hilbert_check": lambda draw: lambda: X.hilbert_check(
        X.HilbertParams(2.0, 2.0, 1.0, 0.0, 1.0, 1.0, 0.25, 0.25,
                        *_numbers(draw, 2)),
        _test_function(draw), _test_function(draw)),
}


@FUZZ
@given(st.data())
def test_api_refuses_malformed_numbers_with_a_domain_error(data):
    name = data.draw(st.sampled_from(sorted(API)))
    _call(lambda: API[name](data.draw)())


def test_valid_type_a_draws_reach_the_type_a_series(monkeypatch):
    # at least three quarters of the valid type A draws, summed by method
    # "series", reach the type A series (a spy on its outer sum), rather
    # than stopping at a refusal
    reached = []
    outer = lauricella._outer_terms

    def spy(p):
        reached[-1] = True
        return outer(p)

    monkeypatch.setattr(lauricella, "_outer_terms", spy)

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def draw_valid(data):
        reached.append(False)
        _call(lambda: X.fa_eval(_type_a(data.draw), 1e-6, "series"))

    draw_valid()
    assert len(reached) >= 60
    assert sum(reached) >= 0.75 * len(reached), (sum(reached), len(reached))


_SPEC = X.pfq_spec(X.EXP_KERNEL, (0.8, 1.1), (2.4,))
_SPEC_K12 = X.pfq_spec(X.EXP_KERNEL, (0.8, 1.1), (2.4,), ks=(1, 2))
_SPEC_3F2 = X.pfq_spec(X.EXP_KERNEL, (0.5, 0.7, 1.2), (1.5, 2.8))
_APPELL = X.AppellParams(0.8, 0.5, 0.6, 2.1, 2.2)
_FD2 = X.LauricellaParams(0.8, (0.5, 0.6), (2.1,), (0.1, 0.2))
_FD3 = X.LauricellaParams(0.8, (0.5, 0.6, 0.7), (2.1,), (0.1, 0.2, 0.3))
_FA2 = X.LauricellaParams(0.8, (0.5, 0.6), (2.1, 2.2), (0.1, 0.2))
_FA3 = X.LauricellaParams(0.8, (0.5, 0.6, 0.7), (2.1, 2.2, 2.3),
                          (0.1, 0.2, 0.3))


def _hilbert(**changes):
    return dataclasses.replace(X.classical_point(), **changes)


def _refusal(id, call, message):
    return pytest.param(call, message, id=id)


@pytest.mark.parametrize("call, message", [
    # hyp
    _refusal("derivative-order", lambda: X.derivative(_SPEC, 0.3, -1),
             "derivative order must be >= 0"),
    _refusal("derivative-shifts", lambda: X.derivative(_SPEC_K12, 0.3, 1),
             "derivative formula needs all shift multipliers 1"),
    _refusal("derivative-weighted-variant", lambda: X.derivative_weighted(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, 0.3, 1, variant="other"),
        "unknown variant 'other'"),
    _refusal("derivative-weighted-a1", lambda: X.derivative_weighted(
        X.EXP_KERNEL, -0.5, 1.1, 2.4, 0.3, 1), "needs a1 > 0"),
    _refusal("derivative-weighted-z", lambda: X.derivative_weighted(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, -0.3, 1), "evaluated for z > 0"),
    _refusal("pfaff-z", lambda: X.pfaff_transform(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, 1.0), "transform needs z < 1"),
    _refusal("pfaff-variant", lambda: X.pfaff_transform(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, 0.3, variant="other"),
        "unknown variant 'other'"),
    _refusal("euler-transform-kernel", lambda: X.euler_transform(
        X.kummer_kernel(1.5, 2.5), 0.8, 1.1, 2.4, 0.3),
        "stated for the exponential kernel"),
    _refusal("euler-transform-z", lambda: X.euler_transform(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, 1.5), "transform needs z < 1"),
    _refusal("euler-transform-variant", lambda: X.euler_transform(
        X.EXP_KERNEL, 0.8, 1.1, 2.4, 0.3, variant="other"),
        "unknown variant 'other'"),
    _refusal("recurrence-which", lambda: X.recurrence_eval(
        "other", X.EXP_KERNEL, 0.8, 1.1, 2.4, 1, 0.3),
        "unknown recurrence 'other'"),
    _refusal("recurrence-order", lambda: X.recurrence_eval(
        "a1_plus", X.EXP_KERNEL, 0.8, 1.1, 2.4, -1, 0.3),
        "shift order must be >= 0"),
    _refusal("recurrence-printed-upper", lambda: X.recurrence_eval(
        "a2_plus", X.EXP_KERNEL, 0.8, 1.1, 2.4, 2, 0.3, variant="printed"),
        "printed upper shift needs c - a - n > 0"),
    _refusal("recurrence-variant", lambda: X.recurrence_eval(
        "a2_plus", X.EXP_KERNEL, 0.8, 1.1, 2.4, 1, 0.3, variant="other"),
        "unknown variant 'other'"),
    _refusal("frac-deriv-order", lambda: X.frac_deriv(
        X.EXP_KERNEL, 0.5, X.RegPair(0.1, 0.1), np.exp, 0.5),
        "only the mu < 0 branch is implemented"),
    _refusal("frac-deriv-z", lambda: X.frac_deriv(
        X.EXP_KERNEL, -0.5, X.RegPair(0.1, 0.1), np.exp, 0.0),
        "needs z > 0"),
    _refusal("frac-deriv-prefactor", lambda: X.frac_deriv(
        X.EXP_KERNEL, -200.0, X.RegPair(0.1, 0.1), np.exp, 0.5),
        "out of double range at z = 0.5"),
    _refusal("ext-pfq-method", lambda: X.ext_pfq(_SPEC, 0.3, method="other"),
             "unknown method 'other'"),
    _refusal("euler-step-z", lambda: X.euler_step_integral(_SPEC, 1.5),
             "Euler integral needs argument <= 1"),
    _refusal("euler-step-unit-gauss-only", lambda: X.euler_step_integral(
        _SPEC_3F2, 1.0), "implemented for the Gauss-level case only"),
    _refusal("euler-step-unit-width", lambda: X.euler_step_integral(
        X.pfq_spec(X.EXP_KERNEL, (0.8, 1.1), (1.5,)), 1.0),
        "needs beta - alpha - alpha_1 > 0"),
    _refusal("euler-step-inner-reach", lambda: X.euler_step_integral(
        _SPEC_3F2, 0.9), "inner series needs |z| <= 0.85"),
    _refusal("pfq-shift-integer", lambda: X.pfq_spec(
        X.EXP_KERNEL, (0.8, 1.1), (2.4,), ks=(1, -1)).validate(),
        "shift multipliers must be integers >= 0"),
    _refusal("pfq-head-shift", lambda: X.euler_step_integral(X.pfq_spec(
        X.EXP_KERNEL, (0.7, 1.3), (2.6,), ks=(2, 1)), 0.4),
        "shift multiplier > 1 on the leading upper parameter"),
    # appell
    _refusal("f1-integral", lambda: X.f1_integral(_APPELL, 1.2, 0.1),
             "integral needs x < 1 and y < 1"),
    _refusal("f2-transform-which", lambda: X.f2_transform(
        _APPELL, 0.1, 0.2, "other"), "unknown transformation 'other'"),
    _refusal("f2-transform-reg", lambda: X.f2_transform(
        dataclasses.replace(_APPELL, reg=X.RegPair(0.1, 0.2)), 0.1, 0.2,
        "x"), "needs equal regularization parameters"),
    _refusal("f2-recursion-which", lambda: X.f2_recursion(
        _APPELL, 1, "other", 0.1, 0.2), "unknown recursion 'other'"),
    _refusal("f2-recursion-order", lambda: X.f2_recursion(
        _APPELL, -1, "beta2_shift", 0.1, 0.2), "shift order must be >= 0"),
    _refusal("lemma1-order", lambda: X.lemma1_expand(0, 1, 0.5, 0.1, 0.2),
             "expansion needs s, t >= 1"),
    _refusal("lemma1-degenerate", lambda: X.lemma1_expand(
        1, 1, 0.5, 0.2, 0.2), "degenerate for x == y"),
    _refusal("f1-finite-sum-degenerate", lambda: X.f1_finite_sum(
        X.EXP_KERNEL, 1, 1, 0.2, 0.2), "degenerate for x == y"),
    _refusal("f1-finite-sum-order", lambda: X.f1_finite_sum(
        X.EXP_KERNEL, -1, 1, 0.1, 0.2), "needs s, t >= 0"),
    # lauricella
    _refusal("fd-shape", lambda: X.fd_eval(_FA2),
             "type D needs one gamma and r arguments"),
    _refusal("fd-gamma", lambda: X.fd_eval(dataclasses.replace(
        _FD2, gammas=(0.5,))), "type D needs gamma > alpha > 0"),
    _refusal("fa-shape", lambda: X.fa_series(_FD2),
             "type A needs r gammas and r arguments"),
    _refusal("fa-gamma", lambda: X.fa_series(dataclasses.replace(
        _FA2, gammas=(0.4, 2.2))), "type A needs gamma_j > beta_j > 0"),
    _refusal("fd-integral", lambda: X.fd_integral(dataclasses.replace(
        _FD2, xs=(1.2, 0.2))), "integral needs every x_j <= 1"),
    _refusal("fd-equal-arguments", lambda: X.fd_equal_arguments(_FD2),
             "needs all arguments equal"),
    _refusal("fd-laplace-r", lambda: X.fd_laplace_product(_FD3),
             "implemented for r <= 2"),
    _refusal("fd-laplace-x", lambda: X.fd_laplace_product(
        dataclasses.replace(_FD2, xs=(-0.1, 0.2))),
        "needs 0 <= x_j < 1 for integrability"),
    _refusal("fd-laplace-beta", lambda: X.fd_laplace_product(
        dataclasses.replace(_FD2, betas=(-1.0, 0.5))),
        "Laplace product needs beta_j > 0"),
    _refusal("fa-integral-r", lambda: X.fa_integral(_FA3),
             "iterated integral implemented for r <= 2"),
    _refusal("fa-integral-x", lambda: X.fa_integral(dataclasses.replace(
        _FA2, xs=(0.6, 0.5))), "positive parts to sum below 1"),
    _refusal("fa-integral-variant", lambda: X.fa_integral(
        _FA2, variant="other"), "unknown variant 'other'"),
    _refusal("fa-single-integral", lambda: X.fa_single_integral(
        dataclasses.replace(_FA2, xs=(0.6, -0.5))), "needs sum_j |x_j| < 1"),
    _refusal("fa-partial-series", lambda: X.fa_partial_series(
        X.LauricellaParams(0.8, (0.5,), (2.1,), (0.1,))),
        "partial series needs r >= 2"),
    # ineq
    _refusal("hilbert-p", lambda: _hilbert(p=1.0),
             "needs p > 1 and q > 1"),
    _refusal("hilbert-conjugate", lambda: _hilbert(p=3.0, q=3.0),
             "needs 1/p + 1/q >= 1"),
    _refusal("hilbert-s", lambda: _hilbert(s1=0.0), "needs s1 + s2 > 0"),
    _refusal("hilbert-scale", lambda: _hilbert(alpha1=-1.0),
             "needs positive scale pair"),
    _refusal("hilbert-scale-ratio", lambda: _hilbert(alpha1=3.0),
             "needs 1/2 < alpha1/alpha2 < 2"),
    _refusal("hilbert-offsets", lambda: _hilbert(ptilde=-1.0),
             "needs nonnegative regularization offsets"),
    _refusal("hilbert-A1", lambda: _hilbert(A1=0.75), "A1 must lie in"),
    _refusal("hilbert-A2", lambda: _hilbert(A2=0.75), "A2 must lie in"),
    _refusal("lemma2-which", lambda: X.lemma2_identity(
        "other", 0.5, 0.8, 0.9, 1.0, 1.0, 0.1, 0.1),
        "unknown identity 'other'"),
    _refusal("lemma2-parameters", lambda: X.lemma2_identity(
        "a", 0.5, 2.0, 0.5, 1.0, 1.0, 0.1, 0.1), "needs a + c > b > 0"),
    _refusal("lemma2-scales", lambda: X.lemma2_identity(
        "a", 0.5, 0.8, 0.9, -1.0, 1.0, 0.1, 0.1),
        "needs positive scale parameters"),
    _refusal("test-function-syntax", lambda: ineq.parse_test_function(
        "exp_decay"), "bad test-function syntax 'exp_decay'"),
    _refusal("test-function-number", lambda: ineq.parse_test_function(
        "bump:1,x"), "bad test-function syntax 'bump:1,x'"),
    _refusal("weighted-norm", lambda: ineq._weighted_norm(
        X.exp_decay(-0.5), 0.0, 2.0), "weighted norm diverges at the origin"),
    # mellin
    _refusal("mb-eval-shifts", lambda: X.mb_eval(_SPEC_K12, -0.5),
             "contour path needs all shift multipliers 1"),
    _refusal("default-contour", lambda: X.default_contour(X.pfq_spec(
        X.EXP_KERNEL, (-0.5, 1.1), (2.4,))),
        "no admissible abscissa for these parameters"),
    # corefn
    _refusal("pochhammer", lambda: X.pochhammer(1.0, -1),
             "pochhammer needs m >= 0"),
])
def test_public_refusals_name_their_rule(call, message):
    # each refusal of a public entry point (and of the private helper that
    # holds it) is a DomainError with its own message, and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message)):
            call()


@st.composite
def _argv(draw):
    num = lambda: repr(draw(NUMBERS))
    nums = lambda n: ",".join(num() for _ in range(n))
    command = draw(st.sampled_from(["eval", "table", "hilbert",
                                    "conformance"]))
    if command == "hilbert":
        return ["hilbert"] + [f"--{k}={num()}" for k in (
            "p", "q", "s1", "s2", "a1", "a2", "A1", "A2", "pt", "qt")] + [
            f"--f=exp_decay:{num()}", f"--g=bump:{nums(2)}"]
    tol = f"--tol={draw(st.sampled_from([num(), '1e-6']))}"
    if command == "conformance":
        return ["conformance", "--suite=ineq", tol]
    func = draw(st.sampled_from(["2f1", "pfq", "f1", "f2", "fd", "fa",
                                 "extbeta", "extgamma"]))
    kernel = draw(st.sampled_from(["exp", f"kummer:{nums(2)}"]))
    argv = [command, f"--func={func}", f"--kernel={kernel}", f"--b={num()}",
            f"--d={num()}", tol]
    if command == "table":
        argv += [f"--from={num()}", f"--to={num()}",
                 f"--steps={draw(st.integers(1, 5))}"]
    else:
        argv += [f"--z={num()}", f"--x={num()}", f"--y={num()}"]
    r = draw(st.integers(1, MAX_VARIABLES if func in ("fd", "fa") else 2))
    # pFq with p in {1, 2, 3} and q in {p - 1, p}: both sides of auto's rule
    p = draw(st.integers(1, 3))
    q = p - draw(st.integers(0, 1))
    params = {"2f1": nums(3), "pfq": f"{nums(p)}:{nums(q)}", "f1": nums(4),
              "f2": nums(5), "fd": nums(r + 2), "fa": nums(2 * r + 1),
              "extbeta": nums(2), "extgamma": nums(1)}[func]
    argv += [f"--params={params}", f"--r={r}", f"--xs={nums(r)}"]
    if func in ("2f1", "pfq"):
        argv.append(f"--method={draw(st.sampled_from(['auto', 'mellin']))}")
        c0, t, h = draw(NUMBERS), draw(NUMBERS), draw(NUMBERS)
        assume(h == 0.0 or not abs(t / h) > 4000)
        argv.append(f"--contour={c0!r},{t!r},{h!r}")
    return argv


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(_argv())
# the confluent kernel at b = d = 0 with a narrow pair width: the far-tail
# log of the kernel was once taken at kernel argument 0, which warned
@example(["eval", "--func=2f1", "--kernel=kummer:1.5,2.5",
          "--params=0.8,1.4,1.46", "--z=0.3"])
# the type A series at r = 4 near its edge, which random draws rarely reach
@example(["eval", "--func=fa", "--kernel=exp", "--b=0.1", "--d=0.2",
          "--params=1.2,0.5,0.9,0.7,0.6,1.4,2.1,1.6,1.5", "--r=4",
          "--xs=0.3,-0.25,0.2,-0.19"])
# the 1F1 Euler step at a large negative argument, where the series cancels
@example(["eval", "--func=pfq", "--params=0.7:1.9", "--z=-60"])
# the 3F2 series beyond the former 0.85 cut
@example(["eval", "--func=pfq", "--params=0.5,0.7,1.2:1.5,2.8", "--z=0.95"])
def test_cli_exits_0_2_3_or_4_and_prints_finite_values(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 2:
        assert err.startswith("domain error: "), (argv, err)
    if code == 0 and argv[0] in ("eval", "hilbert"):
        values = json.loads(out)
        assert all(math.isfinite(v) for v in values.values()
                   if isinstance(v, float)), (argv, out)
    if code == 0 and argv[0] == "table":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row)
