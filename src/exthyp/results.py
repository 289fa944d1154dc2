"""Shared result container and exception types."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Arguments violate a function's domain of definition/convergence."""


def refuse_non_finite(what: str, *values: float) -> None:
    """The finiteness rule of the records, called once from each one's
    ``__post_init__``: a DomainError naming ``what`` for a NaN or an inf."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} must be finite, got {values}")


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
