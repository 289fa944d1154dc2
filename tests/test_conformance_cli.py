"""Conformance runner, catalog completeness, CSV schema, CLI contract."""

import ast
import collections
import dataclasses
import difflib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from exthyp import cli, conformance, corefn, hyp, ineq, results
from exthyp.conformance import (
    build_catalog,
    exit_code,
    fmt17,
    report_csv,
    run_conformance,
    summary_lines,
)
from exthyp.extbeta import RegPair
from exthyp.hyp import ext_pfq, pfq_spec
from exthyp.kernel import parse_kernel
from exthyp.results import DomainError, EvalResult

# one entry per implemented identity; the unit test cross-checks the catalog
EXPECTED_IDENTITY_IDS = sorted([
    "gauss-series-vs-integral",
    "pfq-euler-step",
    "pfq-derivative",
    "weighted-derivative",
    "pfaff-transform",
    "euler-transform",
    "recurrence-upper-first-plus",
    "recurrence-upper-first-minus",
    "recurrence-lower-plus",
    "recurrence-upper-second-plus",
    "quadratic-argument-summation",
    "frac-deriv-representation",
    "f1-series-vs-integral",
    "f2-series-vs-double-integral",
    "f1-pfaff-transform",
    "f2-transform-x",
    "f2-transform-y",
    "f2-transform-xy",
    "f2-transform-xy-general",
    "f2-recursion-upper-shift",
    "f2-recursion-lower-shift",
    "f2-single-integral",
    "rational-power-expansion",
    "f1-finite-sum",
    "fd-series-vs-integral",
    "fd-unit-argument-summation",
    "fd-equal-arguments-collapse",
    "weighted-product-integral",
    "fd-laplace-product",
    "multinomial-exponential-identity",
    "fa-series-vs-integral",
    "fa-kummer-product-integral",
    "fa-partial-series",
    "mellin-barnes-contour",
    "halfline-rational-exp-integral-a",
    "halfline-rational-exp-integral-b",
    "weight-f-closed-form",
    "weight-g-closed-form",
    "hardy-hilbert-bilinear",
    "hardy-hilbert-equivalent",
])

# identities whose stated and derived forms disagree; the report must name a
# winning variant for each
DISCREPANCY_IDS = [
    "pfaff-transform",
    "euler-transform",
    "weighted-derivative",
    "recurrence-upper-second-plus",
    "f1-pfaff-transform",
    "f2-recursion-upper-shift",
    "f1-finite-sum",
    "fa-series-vs-integral",
    "fa-kummer-product-integral",
]


def _cli(*argv, config=None):
    cmd = [sys.executable, "-m", "exthyp.cli", *argv]
    # the package this test imported, without PYTHONPATH or an install
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_catalog_matches_static_list():
    ids = [ident.identity_id for ident in build_catalog()]
    assert sorted(ids) == EXPECTED_IDENTITY_IDS


def test_catalog_points_bounded_for_small_grid():
    for ident in build_catalog():
        assert 1 <= len(ident.points) <= 5


def test_discrepancy_identities_have_two_variants():
    by_id = {d.identity_id: d for d in build_catalog()}
    for ident_id in DISCREPANCY_IDS:
        assert by_id[ident_id].variants == ("printed", "proof")


def test_small_grid_passes_and_adjudicates():
    report = run_conformance("all", "small", 1e-8)
    assert exit_code(report) == 0
    winners = {a["identity_id"]: a["winner"] for a in report.aggregates}
    for ident_id in DISCREPANCY_IDS:
        assert winners[ident_id] == "proof", ident_id
    assert len(report.aggregates) == len(EXPECTED_IDENTITY_IDS)


def test_impossible_tolerance_fails_honestly():
    report = run_conformance("hyp", "small", 1e-15)
    assert exit_code(report) == 4


@pytest.mark.parametrize("grid", ["small", "full"])
def test_every_identity_certifies_at_1e_13(grid):
    # the derivative left sides are Cauchy integrals of the series, so no
    # identity is held back by its oracle, and every two-variant winner is
    # the proof variant
    report = run_conformance("all", grid, 1e-13)
    assert exit_code(report) == 0
    winners = {a["identity_id"]: a["winner"] for a in report.aggregates}
    for ident in build_catalog():
        if len(ident.variants) == 2:
            assert winners[ident.identity_id] == "proof", ident.identity_id


def test_loose_tolerance_still_adjudicates_every_discrepancy():
    # one tolerance for every identity: at 1e-2 no printed variant that
    # misses by a few percent passes, so no discrepancy is reported a tie
    report = run_conformance("all", "small", 1e-2)
    winners = {a["identity_id"]: a["winner"] for a in report.aggregates}
    for ident in build_catalog():
        if len(ident.variants) == 2:
            assert winners[ident.identity_id] == "proof", ident.identity_id


def test_hilbert_form_that_did_not_converge_fails_its_case(monkeypatch):
    # the form holds, but one refinement behind it missed its tolerance
    def unconverged(*args, **kwargs):
        return dataclasses.replace(ineq.hilbert_bilinear(*args, **kwargs),
                                   converged=False)

    monkeypatch.setattr(conformance, "hilbert_bilinear", unconverged)
    report = run_conformance("ineq", "small", 1e-8)
    status = collections.defaultdict(set)
    for c in report.cases:
        status[c.identity_id].add(c.status)
    assert status["hardy-hilbert-bilinear"] == {"fail"}
    assert status["hardy-hilbert-equivalent"] == {"pass"}
    assert exit_code(report) == 4


def test_catalog_carries_no_verdict_fields():
    # a case's verdict comes from its residual and its sides' flags alone
    # (every name, parameter, keyword, attribute and definition)
    tree = ast.parse(pathlib.Path(conformance.__file__).read_text())
    names = {getattr(node, field) for node in ast.walk(tree)
             for field in ("id", "arg", "attr", "name")
             if isinstance(getattr(node, field, None), str)}
    assert not names & {"tol_scale", "mode", "_form_sides"}


@pytest.mark.parametrize("side", [0, 1])
def test_side_that_did_not_converge_fails_its_case(monkeypatch, side):
    # the two sides agree to the bit, but one of them did not converge
    def evaluate(pt, variant, tol):
        sides = [EvalResult(0.75, 0.0, 1, True, "series") for _ in range(2)]
        sides[side] = dataclasses.replace(sides[side], converged=False)
        return tuple(sides)

    ident = conformance._ident("agreeing-sides", "hyp", evaluate,
                               [dict(z=0.5)])
    monkeypatch.setattr(conformance, "build_catalog", lambda: [ident])
    report = run_conformance("all", "small", 1e-8)
    (case,) = report.cases
    assert (case.lhs, case.rhs, case.residual) == (0.75, 0.75, 0.0)
    assert case.status == "fail"
    assert exit_code(report) == 4


def test_catalog_entries_are_data_with_one_call_each():
    # no per-identity evaluator or factory: an entry holds its call inline
    tree = ast.parse(pathlib.Path(conformance.__file__).read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert not [n for n in names if n.startswith(("_ev_", "_mk_"))]
    assert "catalog_identity_ids" not in names


def test_report_csv_schema():
    report = run_conformance("mellin", "small", 1e-8)
    lines = report_csv(report).splitlines()
    assert lines[0] == ("identity_id,variant,point_index,params,lhs,rhs,"
                        "residual,status")
    assert len(lines) == 1 + len(report.cases)
    row = lines[1].split(",")
    assert row[0] == "mellin-barnes-contour"
    assert row[-1] in ("pass", "fail", "skipped-domain")


def test_mellin_suite_refines_the_contour_at_the_tol_asked(monkeypatch,
                                                          capsys):
    # each contour side runs at the suite's tol and converges there (the
    # runner clamped it to 1e-8, where the fixed step still converged)
    seen = []
    evaluate = conformance.mb_eval

    def spy(spec, z, contour=None, tol=1e-6):
        got = evaluate(spec, z, contour, tol)
        seen.append((tol, got.converged))
        return got

    monkeypatch.setattr(conformance, "mb_eval", spy)
    assert cli.main(["conformance", "--suite", "mellin", "--tol",
                     "1e-13"]) == 0
    capsys.readouterr()
    assert seen == [(1e-13, True)] * 5


def test_determinism_two_runs_byte_identical():
    assert (report_csv(run_conformance("all", "small", 1e-8))
            == report_csv(run_conformance("all", "small", 1e-8)))


FULL_REPORT = (pathlib.Path(__file__).parent / "data"
               / "conformance_full_1e-8.csv")


def test_full_grid_report_is_byte_identical(tmp_path, capsys):
    # the committed report pins every value, residual and verdict of the
    # full grid; a change that moves them must update the file and show
    # the rows it moved
    report = tmp_path / "full.csv"
    cli.main(["conformance", "--suite", "all", "--grid", "full", "--tol",
              "1e-8", "--report", str(report)])
    capsys.readouterr()
    got, want = report.read_bytes(), FULL_REPORT.read_bytes()
    moved = difflib.unified_diff(want.decode().splitlines(),
                                 got.decode().splitlines(), FULL_REPORT.name,
                                 "this run", n=0, lineterm="")
    assert got == want, "\n".join(moved)


def _memoized_evaluators():
    """(module, name) of every library function decorated @memoized."""
    found = []
    for path in sorted(pathlib.Path(conformance.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "memoized"
                    for d in node.decorator_list):
                found.append((path.stem, node.name))
    return found


def test_each_memoized_body_runs_once_per_distinct_call_in_a_pass(
        monkeypatch):
    # the memo is scoped to one pass: within it every distinct call runs
    # once, and a second pass in the same process runs them all again
    runs = collections.Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "exthyp" or name.startswith("exthyp.")]
    evaluators = _memoized_evaluators()
    assert len(evaluators) >= 5
    for modname, name in evaluators:
        wrapper = getattr(importlib.import_module(f"exthyp.{modname}"), name)

        def spy(*args, _body=wrapper.__wrapped__, _name=name, **kwargs):
            runs[_name, args, tuple(kwargs.items())] += 1
            return _body(*args, **kwargs)

        spied = results.memoized(spy)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is wrapper:
                    monkeypatch.setattr(module, attr, spied)
    report = run_conformance("all", "full", 1e-8)
    assert set(runs.values()) == {1}
    assert report.memo_calls - report.memo_hits == len(runs)
    assert report.memo_hits > 0
    again = run_conformance("all", "full", 1e-8)
    assert set(runs.values()) == {2}
    assert (again.memo_hits, again.memo_calls) == (report.memo_hits,
                                                   report.memo_calls)
    assert report_csv(again) == report_csv(report)


def test_cli_conformance_prints_memo_hits_on_stderr(capsys):
    report = run_conformance("hyp", "small", 1e-8)
    assert cli.main(["conformance", "--suite", "hyp", "--grid", "small"]) == 0
    out = capsys.readouterr()
    assert out.out == "\n".join(summary_lines(report)) + "\n"
    assert re.fullmatch(r"wall_clock=\d+\.\d\ds memo_hits=(\d+)/(\d+)\n",
                        out.err)
    hits, calls = map(int, re.findall(r"\d+", out.err.split()[1]))
    assert (hits, calls) == (report.memo_hits, report.memo_calls)
    assert 0 < hits < calls


def test_cli_eval_log_case():
    r = _cli("eval", "--func", "2f1", "--kernel", "exp", "--params", "1,1,2",
             "--z", "0.5", "--b", "0", "--d", "0")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert abs(payload["value"] - 1.3862943611198906) < 1e-9
    assert payload["converged"] is True
    assert list(payload.keys()) == ["value", "abs_err_est", "method",
                                    "terms_or_nodes", "converged"]


def test_cli_eval_extbeta():
    r = _cli("eval", "--func", "extbeta", "--params", "2,3")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["value"] - 1.0 / 12.0) < 1e-7


def test_cli_eval_domain_error_exit_2():
    r = _cli("eval", "--func", "2f1", "--params", "1,1,2", "--z", "1.5",
             "--method", "series")
    assert r.returncode == 2


def test_cli_eval_underflowed_beta_normalisation_exit_2():
    # B(600, 800) underflows to 0.0; the series was blamed for its value
    r = _cli("eval", "--func", "2f1", "--params", "1,600,1400", "--z", "0.3")
    assert r.returncode == 2
    assert r.stderr == ("domain error: beta normalisation B(600, 800) "
                        "underflows to 0, so every coefficient ratio would "
                        "be inf\n")
    assert r.stdout == ""


def test_cli_eval_non_finite_sample_is_domain_error():
    # t**-3 * Theta(-b/t) overflows near t = 0 for b this small: the
    # integral itself is about b**-2 = 1e400, beyond double range
    r = _cli("eval", "--func", "extbeta", "--kernel", "kummer:2.5,1",
             "--params=-2,1", "--b", "1e-200")
    assert r.returncode == 2
    assert r.stderr.startswith("domain error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("params", ["2,inf", "inf,1", "2,nan"])
def test_cli_eval_non_finite_beta_parameter_exit_2(params):
    r = _cli("eval", "--func", "extbeta", "--params", params)
    assert r.returncode == 2
    assert r.stderr.startswith("domain error: ")
    assert "finite" in r.stderr
    assert "Warning" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_cli_eval_non_finite_argument_exit_2(z):
    r = _cli("eval", "--func", "2f1", "--params", "0.5,0.7,1.9", f"--z={z}")
    assert r.returncode == 2
    assert r.stderr.startswith("domain error: ")
    assert r.stdout == ""


def test_cli_eval_confluent_kernel_with_zero_regularization():
    # at b = d = 0 the confluent kernel is 1, so the value is the exp
    # kernel's; past refinement level 5 the power exponent tops 600 at
    # kernel argument 0, which the far-tail form of log Theta cannot take
    r = _cli("eval", "--func", "2f1", "--kernel", "kummer:1.5,2.5",
             "--params", "0.8,1.4,1.46", "--z", "0.3")
    assert r.returncode == 0
    assert r.stderr == ""
    assert json.loads(r.stdout)["value"] == 1.3140038835145502


@pytest.mark.parametrize("command", ["eval", "table"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_cli_non_positive_tolerance_exit_2(command, tol):
    sweep = (("--z", "0.3") if command == "eval"
             else ("--from", "0", "--to", "0.5", "--steps", "2"))
    r = _cli(command, "--func", "2f1", "--params", "1,1,2", *sweep,
             f"--tol={tol}")
    assert r.returncode == 2
    assert "domain error" in r.stderr
    assert "tolerance" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("kernel", ["exp", "kummer:1.5,2.5"])
def test_cli_table_equals_separate_calls(kernel, capsys):
    # the table's rows share one coefficient scope; each expected row is a
    # separate ext_pfq call with nothing shared
    steps, lo, hi = 12, -0.9, 0.9
    spec = pfq_spec(parse_kernel(kernel), (0.8, 1.1), (2.4,),
                    RegPair(0.2, 0.3))
    want = ["argument,value,err_est"]
    for i in range(steps + 1):
        zi = lo + (hi - lo) * i / steps
        res = ext_pfq(spec, zi, 1e-10)
        want.append(",".join(fmt17(v) for v in
                             (zi, res.value, res.abs_err_est)))
    code = cli.main(["table", "--func", "2f1", "--kernel", kernel,
                     "--params", "0.8,1.1,2.4", "--b", "0.2", "--d", "0.3",
                     "--from", str(lo), "--to", str(hi),
                     "--steps", str(steps)])
    assert code == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def _bits(x):
    return np.float64(x).view(np.int64)


def test_catalog_points_same_bits_inside_shared_scope():
    # every full-grid point, evaluated in catalog order from one empty block
    # cache (as a conformance pass does) and then each from an empty cache;
    # the name is kept from the former shared_coefficients() scope
    units = [(ident, variant, pt) for ident in build_catalog()
             for variant in ident.variants
             for pt in ident.points + ident.extra_points]

    def evaluate(ident, variant, pt):
        try:
            sides = ident.evaluate(pt, variant, 1e-8)
        except DomainError as exc:
            return str(exc)
        # the runner's unwrapping: a Hilbert form's sides are its lhs and rhs
        lhs, rhs, _ = conformance._verdict(sides, 1e-8)
        return _bits(lhs), _bits(rhs)

    hyp._coeff_block.cache_clear()
    shared = [evaluate(*u) for u in units]
    for u, got in zip(units, shared):
        hyp._coeff_block.cache_clear()
        assert evaluate(*u) == got, (u[0].identity_id, u[1], u[2])


def test_second_full_pass_builds_no_coefficient_block(monkeypatch):
    built = []
    batch = hyp.ext_beta_shifted_batch_arrays

    def counting(*args, **kwargs):
        built.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(hyp, "ext_beta_shifted_batch_arrays", counting)
    hyp._coeff_block.cache_clear()
    corefn.beta_classical.cache_clear()
    first = run_conformance("all", "full", 1e-8)
    assert built
    assert hyp._coeff_block.cache_info().currsize <= hyp._BLOCK_CACHE_SIZE
    betas = corefn.beta_classical.cache_info().misses
    del built[:]
    second = run_conformance("all", "full", 1e-8)
    assert built == []
    assert hyp._coeff_block.cache_info().currsize <= hyp._BLOCK_CACHE_SIZE
    # nor any Euler beta: the normalisations of a pass all fit the cache
    assert corefn.beta_classical.cache_info().misses == betas
    assert repr(second.cases) == repr(first.cases)


def test_cli_eval_non_convergence_exit_3():
    # the series cap binds before the tolerance this close to the disk edge
    r = _cli("eval", "--func", "2f1", "--params", "1,1,2", "--z", "0.9995",
             "--method", "series")
    assert r.returncode == 3
    assert json.loads(r.stdout)["converged"] is False


@pytest.mark.parametrize("argv", [
    ("--params", "6.34,2.07,3.21", "--z", "0.99991047"),
    ("--params", "7.93,4.33,5.34", "--z", "0.99987621", "--b", "0.1",
     "--d", "0.2")], ids=["b=d=0", "b=0.1,d=0.2"])
def test_cli_eval_near_z_1_converges_on_the_value_scale(argv):
    # |F| = 4.0e20 and 1.5e8: the Euler step stops at tol (1 + |F|), in 775
    # nodes each; an absolute stop ran both to the node cap (49,561),
    # unconverged, though each value was already within 2e-13 relative
    r = _cli("eval", "--func", "2f1", *argv)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["converged"] is True and out["method"] == "euler_integral"
    assert out["abs_err_est"] <= 1e-10 * (1.0 + abs(out["value"]))


def test_cli_eval_cancelling_2f2_series_is_not_converged():
    # its terms cancel about e**40-fold: the estimate (0.020) is far above
    # tol (1 + |value|), so the series does not call itself converged
    r = _cli("eval", "--func", "pfq", "--params", "0.7,1.1:1.9,2.5",
             "--z=-40")
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert out["converged"] is False and out["method"] == "series"


def test_cli_eval_determinism():
    args = ("eval", "--func", "2f1", "--params", "0.8,1.1,2.4", "--z",
            "-0.4", "--b", "0.2", "--d", "0.3")
    a, b = _cli(*args), _cli(*args)
    assert a.stdout == b.stdout


def test_cli_malformed_flags_exit_1():
    assert _cli("eval").returncode == 1
    assert _cli("nosuchcommand").returncode == 1
    assert _cli("conformance", "--suite", "").returncode == 1


def test_cli_pfq_colon_syntax():
    r = _cli("eval", "--func", "pfq", "--params", "1:2", "--z", "1")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["value"] - 1.718281828459045) < 1e-9


def test_cli_mellin_method():
    r = _cli("eval", "--func", "2f1", "--params", "1,1,2", "--z", "-0.5",
             "--method", "mellin")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["method"] == "mellin_barnes"
    assert abs(payload["value"] - 0.8109302162163288) < 1e-7


def test_cli_mellin_confluent_kernel_with_regularization():
    # the confluent kernel underflows to 0.0 at extreme nodes of the
    # contour's complex beta; those are zero samples, not a domain error
    r = _cli("eval", "--func", "2f1", "--method", "mellin", "--kernel",
             "kummer:1.5,2.5", "--params", "0.8,1.1,2.4", "--b", "0.2",
             "--d", "0.3", "--z", "-0.4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["method"] == "mellin_barnes"
    assert abs(payload["value"] - 0.38041394052729632) < 1e-12


_F1 = ["--func", "f1", "--params", "0.8,1.1,0.7,2.4", "--x", "0.2",
       "--y", "0.3"]
_F2 = ["--func", "f2", "--params", "0.8,1.1,0.7,2.4,2.1", "--x", "0.2",
       "--y", "0.3"]
_FD = ["--func", "fd", "--r", "2", "--params", "0.8,1.1,0.7,2.4", "--xs",
       "0.2,0.3"]
_FA = ["--func", "fa", "--r", "2", "--params", "0.8,1.1,0.7,2.4,2.1",
       "--xs", "0.3,0.35"]


@pytest.mark.parametrize("argv", [
    _F2[:-1] + ["nan"],
    _FD[:-1] + ["nan,0.2"],
    ["--func", "2f1", "--params", "1,1,2", "--z", "-0.5", "--method",
     "mellin", "--contour", "0.2,40,0.05,7"],
    ["--func", "2f1", "--params", "1,1,2", "--z", "-0.5", "--method",
     "mellin", "--contour", "nan"],
    ["--func", "2f1", "--params", "1,1,2", "--z", "-0.5", "--method",
     "mellin", "--contour", "0.25,inf,0.05"],
    ["--func", "2f1", "--kernel", "kummer:1,x", "--params", "1,1,2", "--z",
     "0.3"],
    ["--func", "2f1", "--kernel", "kummer:inf,2", "--params", "1,1,2",
     "--z", "0.3", "--b", "0.1"],
    ["--func", "pfq", "--params", "1,1:2", "--z", "0.3", "--kshifts",
     "1.5,1"],
    _F1 + ["--method", "mellin"],
    _F2 + ["--method", "mellin"],
    _FD + ["--method", "mellin"],
    _FA + ["--method", "mellin"],
    ["--func", "extbeta", "--params", "2,3", "--method", "series"],
    # (1 - 0.9999 t)**-800 overflows near t = 1 on the first level's nodes
    ["--func", "fd", "--r", "1", "--params", "1,800,2", "--xs", "0.9999",
     "--method", "integral"],
    ["--func", "fd", "--r", "0", "--params", "0.8,2.4"],
    # 1/B(600, 800) is about exp(958): out of double range
    ["--func", "fd", "--r", "1", "--params", "600,0.5,1400", "--xs", "0.2",
     "--method", "integral"],
    # the series terms overflow: the value is out of double range
    ["--func", "2f1", "--params", "800,1,2", "--z", "0.8", "--b", "0.1",
     "--d", "0.1"],
    # an infinite b gave value 0 with converged: true
    ["--func", "extbeta", "--params", "2,3", "--b", "inf"],
    ["--func", "2f1", "--params", "1,1,2", "--z", "0.3", "--b", "inf"],
    # round(-inf) in the surplus-parameter check raised OverflowError
    ["--func", "pfq", "--params", "3:-inf,-1e308", "--z", "0.381"],
    # the log-gammas of the beta normaliser overflowed to inf - inf = NaN
    ["--func", "f1", "--params", "0.5,0.6,0.7,1e308", "--x", "0.1", "--y",
     "0.1"],
    ["--func", "fd", "--r", "1", "--xs", "0", "--params",
     "0.86,-2.324,1e308"],
    # gammaln_real(1e308) overflowed with a warning, and the normalisation
    # was exp(nan)
    ["--func=f1", "--params=0.5,0,-1e308,1e308", "--x=-1", "--y=0"],
    ["--func=pfq", "--params=0.5,2:1e308", "--z=-1e308"],
    # round(inf) of the ratio T/h raised OverflowError
    ["--func=2f1", "--method=mellin", "--params=0.8,1.1,2.4", "--z=-0.4",
     "--contour=2,1e308,0.5"],
    ["--func=2f1", "--method=mellin", "--params=0.8,1.1,2.4", "--z=-0.4",
     "--contour=2,1e308,0"],
    # a spec with no upper parameter had no pair to peel: IndexError
    ["--func=pfq", "--params=:2", "--z=0.3", "--method=integral"],
    # math.lgamma(c - a) overflowed in the kernel's cut
    ["--func=extgamma", "--kernel=kummer:2.2,1e308", "--b=1",
     "--params=1.4"],
    # the type D sum was NaN, with an invalid-value warning
    ["--func=fd", "--r=3", "--b=0.1", "--xs=0.58,-0.5,-0.58",
     "--params=1.66,-1e308,1.7,2.2e-308,2.3", "--method=series"],
], ids=["f2-nan", "fd-nan", "contour-4", "contour-nan", "contour-inf",
        "kernel-syntax", "kernel-inf", "kshift-1.5", "f1-mellin",
        "f2-mellin", "fd-mellin", "fa-mellin", "extbeta-series",
        "fd-overflow", "fd-r0", "fd-norm-overflow", "2f1-overflow",
        "extbeta-b-inf", "2f1-b-inf", "pfq-inf", "f1-huge-gamma",
        "fd-huge-gamma", "f1-lgamma-overflow", "pfq-lgamma-overflow",
        "contour-ratio-inf", "contour-step-0", "pfq-peel-p0",
        "kummer-c-huge", "fd-sum-out-of-range"])
def test_cli_eval_bad_input_exit_2(argv, capsys):
    assert cli.main(["eval", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("domain error: ")


def test_cli_eval_fd_auto_integrates_where_the_series_overflows(capsys):
    # the fd-sum-out-of-range input above: the series' sum leaves the double
    # range, while auto's Euler integral converges to 0.0 (the true value is
    # about 1e-511); a RuntimeWarning would fail the test (pyproject)
    argv = ["eval", "--func=fd", "--r=3", "--b=0.1", "--xs=0.58,-0.5,-0.58",
            "--params=1.66,-1e308,1.7,2.2e-308,2.3"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "euler_integral" and out["converged"]
    assert np.isfinite(out["value"]) and abs(out["value"]) < 1e-300


def test_cli_fa_integral_method(capsys):
    argv = ["eval", *_FA, "--tol", "1e-7"]
    assert cli.main(argv + ["--method", "integral"]) == 0
    integral = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--method", "series"]) == 0
    series = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    auto = json.loads(capsys.readouterr().out)
    assert integral["method"] == "euler_integral"
    assert series["method"] == "series"
    assert auto["method"] == "euler_integral"
    assert abs(integral["value"] - series["value"]) < 1e-6


def test_cli_fa_auto_takes_the_integral_outside_the_series(capsys):
    # sum |x_j| = 1.2 is outside the series, so auto takes the product grid,
    # as f2 does at the same point
    params = ["--params", "0.8,1.1,0.7,2.4,2.1"]
    assert cli.main(["eval", "--func", "fa", "--r", "2", *params,
                     "--xs", "0.7,-0.5"]) == 0
    fa = json.loads(capsys.readouterr().out)
    assert cli.main(["eval", "--func", "f2", *params, "--x", "0.7",
                     "--y", "-0.5"]) == 0
    assert fa == json.loads(capsys.readouterr().out)
    assert fa["value"] == 1.2168443709347243


def test_cli_table_monotone(tmp_path):
    out = tmp_path / "table.csv"
    r = _cli("table", "--func", "2f1", "--params", "1,1,2", "--from", "0",
             "--to", "0.8", "--steps", "8", "--report", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "argument,value,err_est"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cli_table_missing_func_exit_1():
    assert _cli("table", "--from", "0", "--to", "1", "--steps",
                "4").returncode == 1


def test_cli_hilbert_classical():
    r = _cli("hilbert", "--p", "2", "--q", "2", "--s1", "1", "--s2", "0",
             "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25",
             "--f", "exp_decay:0", "--g", "exp_decay:0")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert abs(payload["K"] - 3.141592653589793) < 1e-8
    assert payload["holds"] is True
    assert list(payload.keys()) == ["K", "lhs", "rhs", "margin", "holds"]


def test_cli_hilbert_non_convergence_exit_3(monkeypatch, capsys):
    argv = ["hilbert", "--p", "2", "--q", "2", "--s1", "1", "--s2", "0",
            "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25",
            "--f", "exp_decay:0", "--g", "exp_decay:0"]
    assert cli.main(argv) == 0
    converged_out = capsys.readouterr().out
    real = cli.hilbert_bilinear

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(cli, "hilbert_bilinear", unconverged)
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == converged_out


def test_cli_hilbert_invalid_params_exit_2():
    r = _cli("hilbert", "--p", "0.5", "--q", "2", "--s1", "1", "--s2", "0",
             "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25")
    assert r.returncode == 2


def test_cli_hilbert_infinite_offset_exit_2(capsys):
    argv = ["hilbert", "--p", "2", "--q", "2", "--s1", "1", "--s2", "0",
            "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25",
            "--pt", "inf"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("domain error: ")


@pytest.mark.parametrize("pt", ["400", "800"])
def test_cli_hilbert_underflowed_constant_exit_2(pt, capsys):
    # the constant's Gauss factors underflow to 0 at these offsets; the
    # refusal names the constant, not a non-finite record
    argv = ["hilbert", "--p=2", "--q=2", "--s1=1", "--s2=0", "--a1=1",
            "--a2=1", "--A1=0.25", "--A2=0.25", f"--pt={pt}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: Hardy-Hilbert constant at offsets "
                          f"p~ = {pt}, q~ = 0: "), err
    assert "underflows to 0" in err


def test_cli_hilbert_infinite_exponent_exit_2(capsys):
    # s1 = inf warned in the kernel rows and failed only deep in the grid
    argv = ["hilbert", "--p=2", "--q=2", "--s1=inf", "--s2=0", "--a1=1",
            "--a2=1", "--A1=0.25", "--A2=0.25"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("domain error: ")


@pytest.mark.parametrize("f", ["bump:1,x", "exp_decay:nan",
                               "power_cut:0.5,inf", "bump:1,inf"])
def test_cli_hilbert_bad_test_function_exit_2(f, capsys):
    argv = ["hilbert", "--p", "2", "--q", "2", "--s1", "1", "--s2", "0",
            "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25",
            "--f", f]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("domain error: ")


def test_cli_conformance_subset(tmp_path):
    out = tmp_path / "rep.csv"
    r = _cli("conformance", "--suite", "ineq", "--grid", "small",
             "--report", str(out))
    assert r.returncode == 0
    assert out.exists()
    assert "halfline-rational-exp-integral-a" in out.read_text()
    assert "wall_clock" in r.stderr  # timing kept out of the report file


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("suite, grid, tol", [
    ("hypergeometric", "small", 1e-8), ("all", "large", 1e-8),
    ("all", "small", float("nan")), ("all", "small", float("inf")),
    ("all", "small", 0.0), ("all", "small", -1e-8),
])
def test_run_conformance_refuses_bad_input_before_any_case(suite, grid, tol,
                                                           monkeypatch):
    monkeypatch.setattr(conformance, "build_catalog", _no_work)
    with pytest.raises(DomainError):
        run_conformance(suite, grid, tol)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_cli_conformance_bad_tol_exit_2_before_any_case(tol, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(cli, "run_conformance", _no_work)
    assert cli.main(["conformance", f"--tol={tol}"]) == 2
    assert capsys.readouterr().err.startswith("domain error: tolerance")


# --report is opened once the flags are checked and before any work, without
# O_TRUNC, and rewritten in place when the work is done
_REPORT_RUNS = {
    "table": ["table", "--func", "2f1", "--params", "1,1,2", "--from", "0",
              "--to", "0.5", "--steps", "2"],
    "conformance": ["conformance", "--suite", "ineq", "--grid", "small"],
}


def _report_text(cmd, capsys):
    if cmd == "table":
        assert cli.main(_REPORT_RUNS[cmd]) == 0
        return capsys.readouterr().out
    return report_csv(run_conformance("ineq", "small", 1e-8))


@pytest.mark.parametrize("cmd", sorted(_REPORT_RUNS))
def test_report_is_rewritten_in_place(cmd, tmp_path, monkeypatch, capsys):
    want = _report_text(cmd, capsys).encode()
    path = tmp_path / "report.csv"
    path.write_bytes(b"old row\n" * (len(want) // 4))  # longer than want
    path.chmod(0o640)
    before = path.stat()
    flags = []
    real_open = os.open

    def spy(file, mode, *args, **kwargs):
        flags.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert cli.main(_REPORT_RUNS[cmd] + ["--report", str(path)]) == 0
    assert path.read_bytes() == want
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    # opening with O_TRUNC makes ext4 flush the file when it is closed
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC


@pytest.mark.parametrize("cmd", sorted(_REPORT_RUNS))
def test_report_to_devnull(cmd, capsys):
    assert cli.main(_REPORT_RUNS[cmd] + ["--report", os.devnull]) == 0


def test_report_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_text("old\n" * 100)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main(_REPORT_RUNS["table"] + ["--report", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == _report_text("table", capsys)


@pytest.mark.parametrize("cmd", sorted(_REPORT_RUNS))
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_report_exit_2_before_any_work(cmd, where, tmp_path,
                                                  monkeypatch, capsys):
    path = tmp_path / "missing" / "x.csv" if where == "missing-dir" \
        else tmp_path
    monkeypatch.setattr(cli, "run_conformance", _no_work)
    monkeypatch.setattr(cli, "_eval_func", _no_work)
    assert cli.main(_REPORT_RUNS[cmd] + ["--report", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    reason = "No such file or directory" if where == "missing-dir" \
        else "Is a directory"
    assert out.err == f"error: cannot write report {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_suite_refused_before_the_report_opens(tmp_path, capsys):
    path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["conformance", "--suite", "nosuch", "--report", str(path)])
    assert exc.value.code == 1
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    assert not path.exists()


def test_failed_table_keeps_the_old_report(tmp_path, capsys):
    # the series refuses z = 1, the third argument of the sweep
    argv = ["table", "--func", "2f1", "--params", "1,1,2", "--from", "0",
            "--to", "1.5", "--steps", "3", "--method", "series"]
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"old report\n")
    assert cli.main(argv + ["--report", str(old)]) == 2
    assert cli.main(argv + ["--report", str(new)]) == 2
    assert old.read_bytes() == b"old report\n"
    assert not new.exists()


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"func": "2f1", "params": "1,1,2",
                               "z": 0.5}))
    r = _cli("eval", "--config", str(cfg))
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["value"] - 1.3862943611198906) < 1e-9
    # explicit flags override the config
    r2 = _cli("eval", "--config", str(cfg), "--z", "0.0")
    assert abs(json.loads(r2.stdout)["value"] - 1.0) < 1e-12