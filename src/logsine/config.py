"""Evaluation points and accuracy budgets.

Everything downstream is a pure function of these frozen configs, so grids
can be evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import DomainError


def _require_int(name: str, value, minimum: int) -> None:
    # bool is an Integral, but True as an order or a count is a caller's slip
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer")
    if value < minimum:
        raise DomainError(f"{name} must satisfy {name} >= {minimum}")


def _require_tolerance(name: str, value) -> None:
    # a NaN tolerance is never met and an infinite one always is
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and strictly positive")


def _require_scale(x) -> None:
    # the one domain check of the scale x; NaN and non-real values fail it too
    if isinstance(x, bool) or not isinstance(x, Real) or not 0.0 < x <= 1.0:
        raise DomainError("x must satisfy 0 < x <= 1")


@dataclass(frozen=True)
class GridPoint:
    """One (order n, scale x) evaluation point of the moment family.

    The scale is restricted to 0 < x <= 1: beyond x = 1 the kernel
    2 sin(pi x u) changes sign inside (0, 1) and the log kernel is
    undefined as written.
    """

    n: int
    x: float

    def __post_init__(self) -> None:
        _require_int("n", self.n, 1)
        _require_scale(self.x)


@dataclass(frozen=True)
class GenfuncPoint:
    """A (scale x, series variable z) point for the generating function.

    |z| <= 0.9 keeps a convergence margin for both the closed form and
    the partial sums.
    """

    x: float
    z: float

    def __post_init__(self) -> None:
        _require_scale(self.x)
        if isinstance(self.z, bool) or not isinstance(self.z, Real) or not abs(self.z) <= 0.9:
            raise DomainError("z must be real and satisfy |z| <= 0.9")


@dataclass(frozen=True)
class Accuracy:
    """Tolerances and truncation budgets governing quadrature and series."""

    quad_rel_tol: float = 1e-12
    series_abs_tol: float = 1e-15
    max_series_terms: int = 200
    max_quad_refinements: int = 12

    def __post_init__(self) -> None:
        _require_tolerance("quad_rel_tol", self.quad_rel_tol)
        _require_tolerance("series_abs_tol", self.series_abs_tol)
        _require_int("max_series_terms", self.max_series_terms, 1)
        _require_int("max_quad_refinements", self.max_quad_refinements, 1)


DEFAULT_ACCURACY = Accuracy()
