"""Package-wide guards: removed names stay removed, refinement depth and the
series cap stay constants, no function has a relaxed-validation mode, every
record refuses a non-finite number through one helper, mpmath stays a test
dependency, the span recorder of the traced benchmark still binds, and the
evaluator memo stays scoped to one conformance pass."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import exthyp

SRC = Path(exthyp.__file__).parent
REPO = SRC.parent.parent

# classical reference code and one-line wrappers that nothing in the library
# called; the tests take their references from mpmath (tests/oracles.py).
# ext_2f1_integral was ext_2f1(..., method="integral").  Public surface that
# no caller reached: the normaliser of the relaxed-pairing mode, the
# raising accessor of EvalResult and its exception, the kernel's asymptotic
# constants, and the field-copying report of hilbert_check.  The conformance
# report is formatted by report_csv and written by the CLI's one writer.
# The records check their own numbers, so lauricella's per-engine check went;
# the two-variable functions check the type D and type A records they build,
# so AppellParams' restated rules went.
REMOVED = {
    "ClassicalPfqSpec", "_series_sum", "_kummer_direct",
    "_kummer_asymptotic_neg", "kummer_1f1", "_pfq_series",
    "_classical_2f1_integral", "classical_pfq", "classical_2f1",
    "theta_eval", "integrate_unit", "ext_beta_complex", "ext_2f1_integral",
    "beta_signed", "ConvergenceError", "expect", "asymptotic_amplitude",
    "asymptotic_exponent", "HilbertReport", "write_report_csv",
    "_require_finite", "theta_coeff", "validate_f1", "validate_f2",
    "_central_diff", "_richardson_derivative", "_FD_STEP",
    "finite_difference_derivative",
}
# per module: the former shared_coefficients() scope, which the block cache
# hyp._coeff_block replaced, the series engine's retirement share and row
# maxima, which the per-column tail replaced, the memo dicts that
# functools caches replaced,
# the unit grid's own sorting permutation (grid_order serves both grids),
# and the twin of check_beta_domain
REMOVED_FROM = {
    "hyp.py": {"shared_coefficients", "_shared_blocks", "contextvars",
               "contextlib", "_RETIRE_SHARE", "_max_abs"},
    "quadrature.py": {"_unit_cache", "_half_cache", "_unit_order_cache",
                      "unit_grid_order"},
    "extbeta.py": {"_log_cache", "check_beta_domain_complex"},
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names(tree):
    """Every name a module defines, assigns or imports."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in n.names}
    return names


def test_removed_names_are_not_defined_or_exported():
    for name, tree in _trees():
        assert not _names(tree) & REMOVED, name
    assert not set(exthyp.__all__) & REMOVED


def test_shared_scope_and_memo_dicts_stay_removed():
    trees = dict(_trees())
    for name, removed in REMOVED_FROM.items():
        assert not _names(trees[name]) & removed, name


def _params(fn) -> set[str]:
    a = fn.args
    return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}


def test_no_function_takes_strict():
    # every spec is validated under the pairing rule beta > alpha > 0; there
    # is no relaxed mode to switch to
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                assert "strict" not in _params(n), (name, n.lineno)


def _called(call: ast.Call) -> str:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")


def test_refinement_depth_and_series_cap_are_not_parameters():
    # quadrature names the two level ranges once (MIN_LEVEL to MAX_LEVEL
    # for nested sums, GRID_LEVELS for full grids) and is the only module
    # that calls its engine _refine; the one series cap is hyp.SERIES_CAP
    takes_cap, caps = [], set()
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                params = _params(n)
                assert "max_level" not in params, (name, n.lineno)
                if "cap" in params:
                    takes_cap.append((name, getattr(n, "name", "lambda")))
            if not isinstance(n, ast.Call):
                continue
            if name != "quadrature.py":
                assert _called(n) != "_refine", (name, n.lineno)
                assert not {k.arg for k in n.keywords} & {
                    "max_level", "min_level", "first_level"}, (name, n.lineno)
            if _called(n) == "_pfq_sum":
                cap = n.args[3] if len(n.args) > 3 else next(
                    k.value for k in n.keywords if k.arg == "cap")
                caps.add(ast.unparse(cap))
    assert takes_cap == [("hyp.py", "_pfq_sum")]
    assert caps == {"SERIES_CAP"}


# the functions whose argument is a refinement level (or, for unit_new_nodes
# and what reads it, -1: the first pass)
_LEVEL_TAKERS = {
    "unit_new_nodes", "unit_level_span", "halfline_new_nodes", "unit_grid",
    "halfline_grid", "grid_order", "_unit_logs", "_unit_arg", "_unit_theta",
    "unit_kernel", "unit_grid_kernel", "_axis_nodes",
}


def _is_level(node) -> bool:
    return isinstance(node, ast.Name) and ("level" in node.id
                                           or node.id == "lv")


def _int_literals(node) -> list[int]:
    """The int literals that are values of ``node`` itself: the node, the
    items of a list or tuple, the arguments of a call, but no operand of
    arithmetic (the 1 of level + 1 is a step, not a level)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return [-v for v in _int_literals(node.operand)]
    if isinstance(node, ast.Constant):
        return [node.value] if type(node.value) is int else []
    parts = (node.elts if isinstance(node, (ast.List, ast.Tuple))
             else node.args if isinstance(node, ast.Call) else [])
    return [v for part in parts for v in _int_literals(part)]


def test_level_numbers_are_named_once_in_quadrature():
    # quadrature names the level ranges and the first pass's span
    # (FIRST_PASS_LEVEL) once; every other module takes its levels from
    # those names and spells out no level number: at most 0, the first
    # level, and -1, the first pass itself
    named, spelled = [], []
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                named += [(name, t.id) for t in targets
                          if isinstance(t, ast.Name)
                          and t.id.endswith(("LEVEL", "LEVELS"))]
            if name == "quadrature.py":
                continue
            values = []
            if isinstance(n, ast.Compare):
                operands = [n.left, *n.comparators]
                if any(map(_is_level, operands)):
                    values = operands
            elif isinstance(n, ast.Call) and _called(n) in _LEVEL_TAKERS:
                values = n.args
            elif isinstance(n, (ast.Assign, ast.For)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                if any(map(_is_level, targets)):
                    values = [n.value if isinstance(n, ast.Assign) else n.iter]
            literals = [v for value in values for v in _int_literals(value)]
            spelled += [(name, n.lineno, v) for v in literals
                        if v not in (0, -1)]
    assert sorted(named) == [("quadrature.py", "FIRST_PASS_LEVEL"),
                             ("quadrature.py", "GRID_LEVELS"),
                             ("quadrature.py", "MAX_LEVEL"),
                             ("quadrature.py", "MIN_LEVEL")]
    assert spelled == []


def test_full_grids_start_one_level_before_the_first_that_may_stop():
    # _refine reads its first level only to form the next level's error,
    # so an earlier full-grid level would be summed and never read
    from exthyp.quadrature import GRID_LEVELS

    first, least, _last = GRID_LEVELS
    assert first == least - 1


def test_no_file_is_opened_with_truncation():
    # reports are rewritten in place (cli._with_report): on ext4 a file
    # opened with O_TRUNC, as open(path, "w") does, is flushed when closed
    for name, tree in _trees():
        for n in ast.walk(tree):
            assert not (isinstance(n, ast.Attribute)
                        and n.attr == "O_TRUNC"), (name, n.lineno)
            if isinstance(n, ast.Call) and _called(n) == "open":
                modes = n.args[1:2] + [k.value for k in n.keywords
                                       if k.arg == "mode"]
                assert not any(isinstance(m, ast.Constant)
                               and "w" in str(m.value)
                               for m in modes), (name, n.lineno)


def test_library_does_not_import_mpmath():
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                mods = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                mods = [n.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "mpmath" for m in mods), name


def test_span_recorder_installs():
    # a traced benchmark run wraps every binding its span table names, and
    # stops at a name that is gone or was left unwrapped
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spans; "
            "spans.Recorder().install()")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", code, str(REPO / "perfbench")],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr


# Every record that holds numbers refuses a NaN or an inf once, when it is
# built, through results.refuse_non_finite; EvalResult applies the same rule
# to a converged value.
RECORDS = {
    "extbeta.py": {"RegPair", "BetaArgs"}, "kernel.py": {"KernelSpec"},
    "hyp.py": {"PfqSpec"}, "appell.py": {"AppellParams"},
    "lauricella.py": {"LauricellaParams", "IntervalProductParams"},
    "ineq.py": {"HilbertParams", "TestFunction"},
    "mellin.py": {"ContourSpec"}, "results.py": {"EvalResult"},
}
# Where a finiteness test may still stand outside the helper: a scalar
# argument's one check per entry point, and the checks of an output
FINITE_CHECKS = {
    ("results.py", "refuse_non_finite"),
    ("hyp.py", "pfq_series"), ("hyp.py", "euler_step_integral"),
    ("hyp.py", "frac_deriv"), ("lauricella.py", "_fd_series"),
    ("lauricella.py", "_fa_series"), ("results.py", "check_tol"),
}


def test_every_record_checks_its_numbers_in_post_init():
    trees = dict(_trees())
    for name, records in RECORDS.items():
        found = set()
        for cls in ast.walk(trees[name]):
            if not (isinstance(cls, ast.ClassDef) and cls.name in records):
                continue
            post = [f for f in cls.body if isinstance(f, ast.FunctionDef)
                    and f.name == "__post_init__"]
            assert post, cls.name
            assert any(isinstance(n, ast.Call)
                       and _called(n) == "refuse_non_finite"
                       for n in ast.walk(post[0])), cls.name
            found.add(cls.name)
        assert found == records, name


def _is_math_inf(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _finite_tests(tree):
    """(function, line) of each math.isfinite call and each ordering
    against math.inf, by the innermost enclosing function."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Attribute) and child.attr == "isfinite" \
                    and isinstance(child.value, ast.Name) \
                    and child.value.id == "math":
                yield where, child.lineno
            if isinstance(child, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in child.ops) and any(
                    map(_is_math_inf, [child.left, *child.comparators])):
                yield where, child.lineno
            yield from walk(child, inner)
    return walk(tree, None)


def test_finiteness_is_tested_only_by_the_helper_and_listed_checks():
    for name, tree in _trees():
        for where, line in _finite_tests(tree):
            assert (name, where) in FINITE_CHECKS, (name, where, line)


def _enclosing_calls(tree, callee: str):
    """The innermost enclosing function of each call of ``callee``."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Call) and _called(child) == callee:
                yield where
            yield from walk(child, inner)
    return list(walk(tree, None))


def _series_small_compares(tree):
    """The innermost enclosing function of each comparison that involves
    ``SERIES_SMALL``."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Compare) and any(
                    getattr(n, "id", getattr(n, "attr", None))
                    == "SERIES_SMALL" for n in ast.walk(child)):
                yield where
            yield from walk(child, inner)
    return list(walk(tree, None))


def test_one_series_stopping_rule():
    # every ladder-backed series stops where hyp._geometric_tail says its
    # tail is small: no other comparison involves SERIES_SMALL, and the
    # engine takes no type D row weights with a stopping rule of their own
    judged = {(name, where) for name, tree in _trees()
              for where in _series_small_compares(tree)}
    assert judged == {("hyp.py", "_geometric_tail")}
    engine = next(n for n in ast.walk(dict(_trees())["hyp.py"])
                  if isinstance(n, ast.FunctionDef) and n.name == "_pfq_sum")
    assert "row_weights" not in _params(engine)


def test_only_the_conformance_runner_opens_the_pass_memo():
    # a scope anywhere else, or a store that outlives the pass, would serve
    # one pass (a benchmark's timed one) from another (its warm-up)
    opened = []
    for name, tree in _trees():
        opened += [(name, where) for where in _enclosing_calls(tree,
                                                               "pass_memo")]
        if name != "results.py":
            assert "_MEMO" not in {n.id for n in ast.walk(tree)
                                   if isinstance(n, ast.Name)}, name
    assert opened == [("conformance.py", "run_conformance")]


def test_memoized_evaluators_return_eval_results():
    # a hit hands every caller the same object, so only frozen results
    # (never None, the memo's miss) may be stored
    found = []
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "memoized"
                    for d in n.decorator_list):
                found.append(n.name)
                returns = ast.unparse(n.returns) if n.returns else ""
                assert re.fullmatch(
                    r"EvalResult|tuple\[EvalResult(, EvalResult)*\]",
                    returns), (name, n.name, returns)
    assert len(found) >= 5


def test_library_reads_no_environment_variable():
    # the memo and every other behaviour have no switch outside the code
    for name, tree in _trees():
        for n in ast.walk(tree):
            assert not (isinstance(n, ast.Attribute)
                        and n.attr in ("environ", "environb", "getenv")), (
                name, n.lineno)
            assert not (isinstance(n, ast.Name)
                        and n.id in ("environ", "getenv")), (name, n.lineno)
