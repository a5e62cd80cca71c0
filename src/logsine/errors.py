"""Exception types shared across the library."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the supported domain of an operation."""


class QuadratureError(RuntimeError):
    """Base class for quadrature failures."""


class NonFiniteSampleError(QuadratureError):
    """The integrand returned a non-finite value at a quadrature node."""


class NonConvergenceError(QuadratureError):
    """Refinement budget exhausted before the tolerance was met.

    Carries the best estimate (an Evaluation with converged=False) so
    callers can decide whether to keep it.
    """

    def __init__(self, message: str, result) -> None:
        super().__init__(message)
        self.result = result
