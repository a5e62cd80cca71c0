"""Evaluation points and the quadrature tolerance.

Everything downstream is a pure function of these immutable records, so
grids can be evaluated concurrently without shared state. Records are named
tuples whose constructor validates its fields; `_replace` and `_make` skip
that check, so copy a validated record as `Accuracy(**fields)`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from numbers import Integral, Real

from .errors import DomainError

def _require_int(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    # bool is an Integral, but True as an order or a count is a caller's slip;
    # a plain int skips the ABC test, whose __instancecheck__ costs ~1 us
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise DomainError(f"{name} must be an integer")
    if not minimum <= value <= maximum:
        bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
        raise DomainError(f"{name} must satisfy {name} {bound}")


def _is_real(value) -> bool:
    # a real number other than a bool; hot callers test type(value) is float
    # first, as the ABC test costs ~1 us
    return not isinstance(value, bool) and isinstance(value, Real)


def _require_tolerance(name: str, value) -> None:
    # a NaN tolerance is never met and an infinite one always is; one past the float range overflows where it is used
    try:
        usable = _is_real(value) and value > 0 and math.isfinite(value)
    except OverflowError:
        usable = False
    if not usable:
        raise DomainError(f"{name} must be finite and strictly positive")


def _require_scale(x) -> None:
    # the one domain check of the scale x; NaN and non-real values fail it too
    if type(x) is not float and not _is_real(x) or not 0.0 < x <= 1.0:
        raise DomainError("x must satisfy 0 < x <= 1")


class GridPoint(namedtuple("GridPoint", "n x")):
    """One (order n, scale x) evaluation point of the moment family.

    The scale is restricted to 0 < x <= 1: beyond x = 1 the kernel
    2 sin(pi x u) changes sign inside (0, 1) and the log kernel is
    undefined as written.
    """

    __slots__ = ()

    def __new__(cls, n: int, x: float):
        _require_int("n", n, 1)
        _require_scale(x)
        # an integer-like order (numpy's, say) is stored as an int, so routes run in float arithmetic
        return super().__new__(cls, operator.index(n), x)


class GenfuncPoint(namedtuple("GenfuncPoint", "x z")):
    """A (scale x, series variable z) point for the generating function.

    |z| <= 0.9 keeps a convergence margin for both the closed form and
    the partial sums.
    """

    __slots__ = ()

    def __new__(cls, x: float, z: float):
        _require_scale(x)
        if not _is_real(z) or not abs(z) <= 0.9:
            raise DomainError("z must be real and satisfy |z| <= 0.9")
        return super().__new__(cls, x, z)


def _as_point(cls, entry):
    # entry as a cls record (GridPoint or GenfuncPoint): a record passes as it
    # is, and a pair has its real fields read through float() before cls
    # validates it. Anything else is a DomainError, a record of the other
    # type too, as its fields mean other things.
    if isinstance(entry, cls):
        return entry
    message = f"points must be {cls.__name__} records or ({', '.join(cls._fields)}) pairs, got {entry!r}"
    if isinstance(entry, (GridPoint, GenfuncPoint)):
        raise DomainError(message)
    try:
        a, b = entry
        fields = (a if cls is GridPoint else float(a), float(b))
    except (TypeError, ValueError, OverflowError):  # float() of an int past the largest float overflows
        raise DomainError(message) from None
    return cls(*fields)


class Accuracy(namedtuple("Accuracy", "quad_rel_tol")):
    """Relative tolerance of quadrature; the engine refines at most max_quad_refinements = 12 times."""

    __slots__ = ()

    # not a field: at quad_rel_tol 1e-16 every reference quadrature converges
    # by level 9, and genfunc points and extreme (n, x) by level 11. The engine
    # caches every level it reaches, process-wide, 51,281 nodes in all
    max_quad_refinements = 12

    def __new__(cls, quad_rel_tol: float = 1e-12):
        _require_tolerance("quad_rel_tol", quad_rel_tol)
        return super().__new__(cls, quad_rel_tol)


DEFAULT_ACCURACY = Accuracy()


def _require_accuracy(acc) -> None:
    if not isinstance(acc, Accuracy):
        raise DomainError(f"acc must be an Accuracy record, got {acc!r}")
