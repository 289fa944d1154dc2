"""The narrative scripts under demos/ run clean."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exthyp

SRC = Path(exthyp.__file__).parent
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    # a script exits 0 and writes nothing to stderr, with a RuntimeWarning
    # (an overflow, an invalid value) raised as an error
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                        str(demo)], capture_output=True, text=True, env=env,
                       timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
