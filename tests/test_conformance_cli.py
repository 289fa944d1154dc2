"""Conformance runner, catalog completeness, CSV schema, CLI contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

from exthyp import cli
from exthyp.conformance import (
    build_catalog,
    catalog_identity_ids,
    exit_code,
    fmt17,
    run_conformance,
    write_report_csv,
)
from exthyp.extbeta import RegPair
from exthyp.hyp import ext_pfq, pfq_spec, shared_coefficients
from exthyp.kernel import parse_kernel
from exthyp.results import DomainError

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
    return subprocess.run(cmd, capture_output=True, text=True)


def test_catalog_matches_static_list():
    assert sorted(catalog_identity_ids()) == EXPECTED_IDENTITY_IDS


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


def test_report_csv_schema(tmp_path):
    report = run_conformance("mellin", "small", 1e-8)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("identity_id,variant,point_index,params,lhs,rhs,"
                        "residual,status")
    assert len(lines) == 1 + len(report.cases)
    row = lines[1].split(",")
    assert row[0] == "mellin-barnes-contour"
    assert row[-1] in ("pass", "fail", "skipped-domain")


def test_determinism_two_runs_byte_identical(tmp_path):
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report_csv(run_conformance("all", "small", 1e-8), str(p1))
    write_report_csv(run_conformance("all", "small", 1e-8), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


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
    assert json.loads(r.stdout)["value"] == 1.3140038835145504


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
    # every full-grid point, evaluated in catalog order inside one scope
    # (as a conformance pass does) and then each with nothing shared
    units = [(ident, variant, pt) for ident in build_catalog()
             for variant in ident.variants
             for pt in ident.points + ident.extra_points]

    def evaluate(ident, variant, pt):
        try:
            lhs, rhs = ident.evaluate(pt, variant, 1e-8)
        except DomainError as exc:
            return str(exc)
        return _bits(float(lhs)), _bits(float(rhs))

    with shared_coefficients():
        shared = [evaluate(*u) for u in units]
    for u, got in zip(units, shared):
        assert evaluate(*u) == got, (u[0].identity_id, u[1], u[2])


def test_cli_eval_non_convergence_exit_3():
    # the series cap binds before the tolerance this close to the disk edge
    r = _cli("eval", "--func", "2f1", "--params", "1,1,2", "--z", "0.9995",
             "--method", "series")
    assert r.returncode == 3
    assert json.loads(r.stdout)["converged"] is False


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


def test_cli_hilbert_invalid_params_exit_2():
    r = _cli("hilbert", "--p", "0.5", "--q", "2", "--s1", "1", "--s2", "0",
             "--a1", "1", "--a2", "1", "--A1", "0.25", "--A2", "0.25")
    assert r.returncode == 2


def test_cli_conformance_subset(tmp_path):
    out = tmp_path / "rep.csv"
    r = _cli("conformance", "--suite", "ineq", "--grid", "small",
             "--report", str(out))
    assert r.returncode == 0
    assert out.exists()
    assert "halfline-rational-exp-integral-a" in out.read_text()
    assert "wall_clock" in r.stderr  # timing kept out of the report file


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