"""Shared result container and exception types."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Arguments violate a function's domain of definition/convergence."""


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
    series terms or quadrature nodes depending on ``method``.
    """

    value: float | complex
    abs_err_est: float
    terms_or_nodes: int
    converged: bool
    method: str

    def scaled(self, c: float) -> "EvalResult":
        """This result times a prefactor c: value * c, error * |c|.

        The node count, the convergence flag and the method are kept.
        """
        return EvalResult(self.value * c, self.abs_err_est * abs(c),
                          self.terms_or_nodes, self.converged, self.method)
