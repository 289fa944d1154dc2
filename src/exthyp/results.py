"""Shared result container and exception types.

An estimate is a sum of named parts, each bounding one source of error:
``discretisation`` (a rule's distance to the rule one step coarser),
``truncation`` (a series' tail past its last term, with the coefficient
errors where the engine sums the two, ``hyp._pfq_sum``), ``coefficients``
(coefficient errors kept apart), ``rounding`` (a quadrature sum's floor,
from its sum of w |f|, or of w times a bound per node), ``inner`` (an inner
factor on the nodes, or an inner sum), ``dropped`` (what a cut range of
integration leaves out) and ``normalisation`` (|value| times a prefactor's
relative error).  Only this module builds or combines one.
``EvalResult.of`` adds the parts in the order given, so they sum to the
estimate bit for bit, and its flag is the route's stop.  A quadrature
builds its result in the units of its value, its prefactor applied once
(``quadrature._refine``).  A composite forms its estimate from those it
takes and carries the parts by the same rule, to rounding: ``scaled`` and
``proportional`` map each part as the estimate, ``combine`` adds its
pieces' parts by name.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field

PART_NAMES = ("discretisation", "truncation", "coefficients", "rounding",
              "inner", "dropped", "normalisation")


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

    ``abs_err_est`` is an absolute error estimate, the sum of ``parts``
    ((name, bound) pairs, out of equality and ``repr``); ``terms_or_nodes``
    counts series terms or quadrature nodes depending on ``method``.  A
    converged result out of double range is a DomainError.
    """

    value: float | complex
    abs_err_est: float
    terms_or_nodes: int
    converged: bool
    method: str
    parts: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.converged and not (math.isfinite(abs(self.value))
                                   and math.isfinite(self.abs_err_est)):
            refuse_non_finite(f"{self.method} value and estimate",
                              abs(self.value), self.abs_err_est)

    @classmethod
    def of(cls, value, nodes: int, method: str, stopped: bool,
           **parts: float) -> "EvalResult":
        """The one constructor: the parts, added in order, and the stop."""
        named = tuple((name, float(bound)) for name, bound in parts.items())
        est = functools.reduce(lambda e, p: e + p[1], named, 0.0)
        return cls(value, est, nodes, stopped, method, named)

    def _carried(self, value, bound) -> "EvalResult":
        """``value``, with the estimate and each part mapped by ``bound``."""
        return EvalResult(value, bound(self.abs_err_est), self.terms_or_nodes,
                          self.converged, self.method,
                          tuple((name, bound(b)) for name, b in self.parts))

    def scaled(self, c: float) -> "EvalResult":
        """This result times a prefactor c: value * c, error * |c|."""
        return self._carried(self.value * c, lambda e: e * abs(c))

    def proportional(self, value: float, power: float = 1.0) -> "EvalResult":
        """A value proportional to self.value ** (1/power), the error carried
        through that power, |value| err / (power |self.value|); at a value 0
        the error is inf, and a converged one (underflowed) a DomainError."""
        if self.converged and not self.value:
            raise DomainError(f"{self.method} factor underflows to 0")
        v = abs(self.value)
        return self._carried(value, lambda e: abs(value) * e / (power * v)
                             if v else math.inf)

    @staticmethod
    def combine(pairs, nodes: int) -> "EvalResult":
        """The sum of coef * piece over (coef, piece) pairs, in order: errors
        add in modulus, parts by name; converged if every piece did."""
        parts = {}
        for c, g in pairs:
            for name, bound in g.parts:
                parts[name] = parts.get(name, 0.0) + abs(c) * bound
        return EvalResult(sum(c * g.value for c, g in pairs),
                          sum(abs(c) * g.abs_err_est for c, g in pairs), nodes,
                          all(g.converged for _c, g in pairs), "series",
                          tuple(parts.items()))


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
