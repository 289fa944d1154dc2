"""Package-wide guards: removed names stay removed, refinement depth and the
series cap stay constants, the product grids are built in quadrature alone,
no function has a relaxed-validation mode, every record refuses a
non-finite number through one helper, mpmath stays a test dependency, the
span recorder of the traced benchmark still binds, the evaluator memo
stays scoped to one conformance pass, and every result is built in results
as a sum of named parts."""

import ast
import functools
import itertools
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import exthyp
from exthyp.conformance import run_conformance
from exthyp.quadrature import GRID_LEVELS, halfline_grid, unit_grid
from exthyp.results import PART_NAMES, EvalResult

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
# the stacked form of the nested rule (every level now takes the one step),
# the twin of check_beta_domain, the type A grid's own live windows and
# rounding floor (quadrature.grid_product and _refine_grid hold them), the
# composites that results.EvalResult now holds, the contour's own
# fixed-step strip and the flag it set from its estimate (the strip refines
# through quadrature._refine_nested), and the appending of a prefactor's
# error to a refinement's result (each refinement builds its result in the
# value's units, its prefactor handed over once)
REMOVED_FROM = {
    "hyp.py": {"shared_coefficients", "_shared_blocks", "contextvars",
               "contextlib", "_RETIRE_SHARE", "_max_abs", "_combine"},
    "ineq.py": {"_proportional"},
    "quadrature.py": {"_unit_cache", "_half_cache", "_unit_order_cache",
                      "unit_grid_order", "_nested", "_nested_step",
                      "_power_block", "_block_rows", "itertools",
                      "_nested_first"},
    "extbeta.py": {"_log_cache", "check_beta_domain_complex"},
    "lauricella.py": {"_live_span", "_EPS"},
    "corefn.py": {"_kummer_tables", "_KummerTables", "_kummer_amplitude",
                  "_kummer_log_amplitude", "_kummer_pos"},
    "mellin.py": {"_strip_values"},
    "results.py": {"within", "plus"},
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
    # that calls its engine _refine; the series engine reads the one cap,
    # hyp.SERIES_CAP, itself
    engine = None
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                assert "max_level" not in _params(n), (name, n.lineno)
                if getattr(n, "name", "") == "_pfq_sum":
                    engine = n
            if not isinstance(n, ast.Call):
                continue
            if name != "quadrature.py":
                assert _called(n) != "_refine", (name, n.lineno)
                assert not {k.arg for k in n.keywords} & {
                    "max_level", "min_level", "first_level"}, (name, n.lineno)
            if _called(n) == "_pfq_sum":
                assert "SERIES_CAP" not in ast.unparse(n), (name, n.lineno)
    assert "SERIES_CAP" in {x.id for x in ast.walk(engine)
                            if isinstance(x, ast.Name)}
    # one binding of the cap, so patching hyp.SERIES_CAP reaches every reader
    for name, tree in _trees():
        assert name == "hyp.py" or "SERIES_CAP" not in _names(tree), name


def test_no_function_takes_a_refinement_or_series_flag():
    # every refinement level hands _refine its estimate and the previous
    # level's (no stacked first estimate, no read-back of its rows, no
    # coarse first call of a grid), and the series engine has one cap
    for name, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                assert not _params(n) & {"first", "read", "coarse", "cap"}, \
                    (name, getattr(n, "name", "lambda"), n.lineno)


def test_refine_has_one_path():
    # one loop over the levels, whose one branch is the stop test, and one
    # stop expression, in the units of the value norm times the estimate
    tree = dict(_trees())["quadrature.py"]
    refine, = (n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == "_refine")
    assert _params(refine) == {"estimate", "tol", "least", "last", "norm"}
    assert len([n for n in ast.walk(refine)
                if isinstance(n, ast.Compare)]) == 1
    loops = [n for n in ast.walk(refine)
             if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1 and isinstance(loops[0], ast.For)
    branches = [n for n in ast.walk(refine) if isinstance(n, ast.If)]
    assert len(branches) == 1
    assert branches[0] in list(ast.walk(loops[0]))
    assert isinstance(branches[0].body[-1], ast.Return)


# the refinements and the position of their tol argument
_REFINERS = {"_refine": 1, "_refine_nested": 1, "_refine_grid": 1,
             "_kernel_integral": 3}


def test_each_prefactor_goes_to_the_refinement_once():
    # the refinement stops in the units of the value it returns, its
    # prefactor handed over as norm: no caller divides its tol by a
    # prefactor, directly or through a name, or scales or extends the
    # result afterwards
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            quotients, refined = set(), set()
            for n in ast.walk(fn):
                if isinstance(n, ast.Assign):
                    targets = {t.id for t in n.targets
                               if isinstance(t, ast.Name)}
                    if (isinstance(n.value, ast.BinOp)
                            and isinstance(n.value.op, ast.Div)):
                        quotients |= targets
                    if (isinstance(n.value, ast.Call)
                            and _called(n.value) in _REFINERS):
                        refined |= targets
            for n in ast.walk(fn):
                if not isinstance(n, ast.Call):
                    continue
                at = _REFINERS.get(_called(n))
                if at is not None:
                    tols = [k.value for k in n.keywords if k.arg == "tol"]
                    tols += n.args[at:at + 1]
                    for tol in tols:
                        assert not (isinstance(tol, ast.BinOp)
                                    and isinstance(tol.op, ast.Div)), (
                            name, n.lineno)
                        assert not (isinstance(tol, ast.Name)
                                    and tol.id in quotients), (name, n.lineno)
                f = n.func
                if isinstance(f, ast.Attribute) and f.attr in ("scaled",
                                                               "plus"):
                    on = f.value
                    assert not (isinstance(on, ast.Call)
                                and _called(on) in _REFINERS), (name, n.lineno)
                    assert not (isinstance(on, ast.Name)
                                and on.id in refined), (name, n.lineno)


def test_contour_refines_through_the_nested_loop():
    # mb_eval hands its strip to quadrature._refine_nested, and no mellin
    # function sums the strip twice: the one sum of its values is the level
    # sum handed to the loop, and the one other sum in the module is that
    # of the first grid's rounding bounds
    tree = dict(_trees())["mellin.py"]
    mb_eval, = (n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "mb_eval")
    calls = [n for n in ast.walk(mb_eval) if isinstance(n, ast.Call)
             and _called(n) == "_refine_nested"]
    assert len(calls) == 1
    contrib, = (n for n in ast.walk(mb_eval) if isinstance(n, ast.FunctionDef)
                and n.name == calls[0].args[0].id)
    sums = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "sum"]
    assert sorted(ast.unparse(n.func.value) for n in sums) == ["bounds", "v"]
    assert [n in list(ast.walk(contrib)) for n in sums
            if ast.unparse(n.func.value) == "v"] == [True]


# the functions whose argument is a refinement level (or, for unit_new_nodes
# and what reads it, -1: the first pass)
_LEVEL_TAKERS = {
    "unit_new_nodes", "unit_level_span", "halfline_new_nodes", "unit_grid",
    "halfline_grid", "grid_order", "_unit_logs", "_unit_arg", "_unit_theta",
    "unit_kernel", "unit_grid_kernel", "_axis_nodes", "grid_axis",
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
    # a full grid's previous level is its sum with the coarse weights: the
    # grid of the first level that may stop carries the level before it,
    # so no grid of an earlier level is formed
    assert len(GRID_LEVELS) == 2
    least, last = GRID_LEVELS
    assert 0 < least < last
    for grid in (unit_grid, halfline_grid):
        for level in range(least, last + 1):
            g, before = grid(level), grid(level - 1)
            old = g.coarse != 0.0
            assert np.array_equal(g.coarse[old], 2.0 * g.weights[old])
            # a node is told by its complement where it rounds to 1.0
            key = g.nodes if g.complements is None else g.complements
            was = (before.nodes if before.complements is None
                   else before.complements)
            mine, theirs = np.argsort(key[old]), np.argsort(was)
            assert np.array_equal(key[old][mine], was[theirs])
            assert np.array_equal(g.coarse[old][mine],
                                  before.weights[theirs])


def test_product_grids_are_built_in_quadrature():
    # every full-grid integral takes its axes from quadrature.grid_axis and
    # its block sums from quadrature.grid_product; only the cached unit
    # kernel reads the unit grid itself
    for name, tree in _trees():
        if name == "quadrature.py":
            continue
        for callee in ("unit_grid", "halfline_grid"):
            assert set(_enclosing_calls(tree, callee)) <= (
                {"unit_grid_kernel"} if name == "extbeta.py" else set()), \
                (name, callee)
    # no error passes out through a side channel, and the three type A and
    # D grid forms have no branch on r: a point axis stands in at r = 1
    tree = dict(_trees())["lauricella.py"]
    assert not any(isinstance(n, ast.Nonlocal) for n in ast.walk(tree))
    names = ("_fa_integral", "fd_laplace_product", "fa_single_integral")
    forms = [n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef) and n.name in names]
    assert len(forms) == 3
    for fn in forms:
        for n in ast.walk(fn):
            if isinstance(n, ast.Compare):
                test = ast.unparse(n)
                assert not re.fullmatch(r"p\.r (==|!=) [12]", test), \
                    (fn.name, n.lineno)
        assert "grid_product" in {_called(n) for n in ast.walk(fn)
                                  if isinstance(n, ast.Call)}, fn.name


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
# argument's one check per entry point, and the checks of an output (a
# converged EvalResult tests its numbers before it builds the message)
FINITE_CHECKS = {
    ("results.py", "refuse_non_finite"), ("results.py", "__post_init__"),
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


def test_results_are_built_only_in_results():
    # one constructor (EvalResult.of) and the composites beside it: no
    # other module builds a result or sums an estimate of its own
    for name, tree in _trees():
        calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id == "EvalResult"]
        assert name == "results.py" or not calls, (name, calls)


def test_every_estimate_is_the_sum_of_its_named_parts(monkeypatch):
    # over the first eval-mix cycle (calls and references) and a small
    # conformance pass: every part is named in results.PART_NAMES and is
    # >= 0 where the result converged; a result of ``of`` is its parts'
    # sum, in order, bit for bit, and a composite's within 4 ulps
    built, made = [], set()
    post_init, of = EvalResult.__post_init__, EvalResult.of.__func__

    def recorded(self):
        post_init(self)
        built.append(self)

    def constructed(cls, *args, **parts):
        out = of(cls, *args, **parts)
        made.add(id(out))
        return out

    monkeypatch.setattr(EvalResult, "__post_init__", recorded)
    monkeypatch.setattr(EvalResult, "of", classmethod(constructed))
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from perfbench import workloads
    for op in itertools.islice(workloads.eval_ops(1), workloads.EVAL_CYCLE):
        op.reference(op.run().method)
    run_conformance("all", "small", 1e-8)
    assert len(made) > 100
    for r in built:
        names = [n for n, _b in r.parts]
        assert set(names) <= set(PART_NAMES) and len(set(names)) == \
            len(names), r.parts
        if r.converged:
            assert all(b >= 0.0 for _n, b in r.parts), r.parts
        total = functools.reduce(operator.add, (b for _n, b in r.parts), 0.0)
        est = r.abs_err_est
        if id(r) in made or not math.isfinite(est):
            assert total == est or (math.isnan(total) and math.isnan(est)), \
                (r, r.parts)
        else:
            assert abs(total - est) <= 4 * math.ulp(est), (r, r.parts)
