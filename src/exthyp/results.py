"""Shared result container and exception types."""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Arguments violate a function's domain of definition/convergence."""


def refuse_non_finite(what: str, *values: float) -> None:
    """The finiteness rule of the records, called once from each one's
    ``__post_init__``: a DomainError naming ``what`` for a NaN or an inf."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} must be finite, got {values}")


def check_tol(tol: float) -> None:
    """The tolerance rule of every entry point that takes one from a user:
    finite and > 0, else a DomainError."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")


class KernelMismatchError(DomainError):
    """Operation requires a specific regularization kernel."""


class NonFiniteSampleError(DomainError):
    """A quadrature integrand returned NaN/Inf at an interior node.

    The arguments put the integrand outside floating-point range, so it is a
    domain error: the CLI reports it with exit code 2.
    """


@dataclass(frozen=True)
class EvalResult:
    """Value of a function evaluation plus accuracy diagnostics.

    ``abs_err_est`` is an absolute error estimate; ``terms_or_nodes`` counts
    series terms or quadrature nodes depending on ``method``.  A converged
    result out of double range cannot be built: it is a DomainError.
    """

    value: float | complex
    abs_err_est: float
    terms_or_nodes: int
    converged: bool
    method: str

    def __post_init__(self):
        if self.converged:
            refuse_non_finite(f"{self.method} value and estimate",
                              abs(self.value), self.abs_err_est)

    def scaled(self, c: float) -> "EvalResult":
        """This result times a prefactor c: value * c, error * |c|.

        The node count, the convergence flag and the method are kept.
        """
        return EvalResult(self.value * c, self.abs_err_est * abs(c),
                          self.terms_or_nodes, self.converged, self.method)


@dataclass
class PassMemo:
    """The results of one pass, keyed by (evaluator, arguments), and how
    many memoized calls the pass made and how many of them it served."""

    results: dict = field(default_factory=dict)
    hits: int = 0
    calls: int = 0


_MEMO: contextvars.ContextVar[PassMemo | None] = contextvars.ContextVar(
    "exthyp_pass_memo", default=None)


@contextlib.contextmanager
def pass_memo():
    """A scope in which every ``memoized`` evaluator runs once per distinct
    argument tuple; it yields the scope's ``PassMemo``.

    A nested scope starts empty and hides the outer one until it exits.
    The store lives only as long as the scope: a process-wide cache would
    serve one pass from an earlier one, so a repeated pass would no longer
    measure, or cost, what a single pass does.
    """
    memo = PassMemo()
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)


def memoized(fn):
    """Serve repeated calls of the evaluator ``fn`` within a ``pass_memo``.

    Inside a scope a call whose positional and keyword arguments equal
    (==) those of an earlier call returns that call's result, the same
    object: the evaluators are deterministic and their results frozen, so
    the bits are those of a fresh call.  An exception is never stored, and
    a call with an unhashable argument runs unmemoized.  Outside a scope
    the call goes straight through.  ``fn`` returns an EvalResult or a
    tuple of them, never None.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args, **kwargs)
        memo.calls += 1
        key = (fn, args, tuple(kwargs.items()))
        try:
            out = memo.results.get(key)
        except TypeError:  # an unhashable argument
            return fn(*args, **kwargs)
        if out is not None:
            memo.hits += 1
            return out
        out = memo.results[key] = fn(*args, **kwargs)
        return out

    return wrapper
