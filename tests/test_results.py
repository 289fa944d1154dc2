"""The pass-scoped evaluator memo: results.pass_memo and results.memoized.

The spies sit on hyp.pfq_series, the callee of ext_pfq's series path, which
the memo wrapped around ext_pfq cannot see: a spy call is a run of the body.
"""

import numpy as np
import pytest

from exthyp import hyp, results
from exthyp.kernel import parse_kernel
from exthyp.results import DomainError, pass_memo

SPEC = hyp.pfq_spec(parse_kernel("exp"), (0.8, 1.1), (2.4,))
Z, TOL = 0.3, 1e-10


@pytest.fixture
def series_runs(monkeypatch):
    """The argument tuples of every run of ext_pfq's series path."""
    runs = []
    real = hyp.pfq_series

    def spy(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(hyp, "pfq_series", spy)
    return runs


def test_outside_a_scope_every_call_runs(series_runs):
    first, second = hyp.ext_pfq(SPEC, Z, TOL), hyp.ext_pfq(SPEC, Z, TOL)
    assert len(series_runs) == 2
    assert first == second and first is not second


def test_inside_a_scope_a_repeat_returns_the_stored_result(series_runs):
    with pass_memo() as memo:
        first = hyp.ext_pfq(SPEC, Z, TOL)
        second = hyp.ext_pfq(SPEC, Z, TOL)
        hyp.ext_pfq(SPEC, Z, TOL, method="series")  # other arguments
    assert len(series_runs) == 2
    assert second is first
    assert (memo.hits, memo.calls) == (1, 3)
    assert first == hyp.ext_pfq(SPEC, Z, TOL)  # the bits of a fresh call


def test_the_scope_is_reset_on_exit_and_on_an_exception():
    assert results._MEMO.get() is None
    with pass_memo() as memo:
        assert results._MEMO.get() is memo
    assert results._MEMO.get() is None
    with pytest.raises(RuntimeError), pass_memo():
        raise RuntimeError("a case failed")
    assert results._MEMO.get() is None


def test_a_nested_scope_starts_empty_and_leaves_the_outer_untouched(
        series_runs):
    with pass_memo() as outer:
        first = hyp.ext_pfq(SPEC, Z, TOL)
        with pass_memo() as inner:
            nested = hyp.ext_pfq(SPEC, Z, TOL)
        again = hyp.ext_pfq(SPEC, Z, TOL)
    assert len(series_runs) == 2
    assert nested is not first and again is first
    assert (inner.hits, inner.calls, len(inner.results)) == (0, 1, 1)
    assert (outer.hits, outer.calls, len(outer.results)) == (1, 2, 1)


def test_an_exception_is_never_stored(monkeypatch):
    runs = []

    def refuse(*args):
        runs.append(args)
        raise DomainError("refused")

    monkeypatch.setattr(hyp, "pfq_series", refuse)
    with pass_memo() as memo:
        for _ in range(2):
            with pytest.raises(DomainError, match="refused"):
                hyp.ext_pfq(SPEC, Z, TOL)
    assert len(runs) == 2
    assert memo.results == {}


def test_an_unhashable_argument_bypasses_the_memo(series_runs):
    z = np.array(Z)  # a 0-d array: it orders like a float and has no hash
    with pass_memo() as memo:
        first, second = hyp.ext_pfq(SPEC, z, TOL), hyp.ext_pfq(SPEC, z, TOL)
    assert len(series_runs) == 2
    assert first == second == hyp.ext_pfq(SPEC, Z, TOL)
    assert memo.results == {} and memo.hits == 0
