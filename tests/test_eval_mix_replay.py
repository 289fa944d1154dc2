"""The first cycle of the benchmark's eval-mix stream, replayed bit for bit.

``perfbench.workloads.eval_ops(1)`` draws 84 calls, one of each (function,
kernel, side of the cut, tol) combination, through the Python API, each
checked against a second representation.  The fixture pins each call's and
each reference's value and estimate bits, node or term count, flag and
method, as the CSV fixture pins the conformance pass.  A change that moves
them must rewrite the file, from the root of a checkout::

    PYTHONPATH=src python tests/test_eval_mix_replay.py

and show the calls it moved.
"""

import itertools
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "data" / "eval_mix_seed1_cycle.json"
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from perfbench import workloads  # noqa: E402


def _pinned(r):
    return [complex(r.value).real.hex(), float(r.abs_err_est).hex(),
            r.terms_or_nodes, r.converged, r.method]


def _replay():
    """Each call of the first cycle: its function, kernel, tol, and the
    pinned fields of the call and of its reference."""
    out = []
    for op in itertools.islice(workloads.eval_ops(1), workloads.EVAL_CYCLE):
        res = op.run()
        out.append({"func": op.func, "kernel": op.kernel, "tol": op.tol,
                    "call": _pinned(res),
                    "reference": _pinned(op.reference(res.method))})
    return out


def test_first_eval_mix_cycle_keeps_its_bits():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _replay()
    assert len(want) == len(got) == workloads.EVAL_CYCLE
    moved = [(i, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not moved, "\n".join(f"call {i}: {w} -> {g}" for i, w, g in moved)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_replay(), indent=1) + "\n",
                       encoding="utf-8")
