"""Package-wide guards: removed names stay removed, mpmath stays a test
dependency, and the span recorder of the traced benchmark still binds."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import exthyp

SRC = Path(exthyp.__file__).parent
REPO = SRC.parent.parent

# classical reference code and one-line wrappers that nothing in the library
# called; the tests take their references from mpmath (tests/oracles.py)
REMOVED = {
    "ClassicalPfqSpec", "_series_sum", "_kummer_direct",
    "_kummer_asymptotic_neg", "kummer_1f1", "_pfq_series",
    "_classical_2f1_integral", "classical_pfq", "classical_2f1",
    "theta_eval", "integrate_unit", "ext_beta_complex",
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_removed_names_are_not_defined_or_exported():
    for name, tree in _trees():
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
        assert not defined & REMOVED, name
    assert not set(exthyp.__all__) & REMOVED


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
