"""Foundational sequences: harmonic numbers, exact Bernoulli numbers, even
zeta values by two independent routes, and the truncated cotangent expansion.

All functions are pure. The Bernoulli memo is an immutable tuple stored
after it is fully built, so concurrent readers never observe a partial
table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import DEFAULT_ACCURACY, Accuracy, _require_int
from .errors import DomainError

# Largest admissible m in B_{2m}; far beyond what any series here needs at
# x <= 1, while keeping the exact rationals small.
BERNOULLI_MAX_INDEX = 64

_DIRECT_SUM_CHUNK = 1 << 22

# 40-digit rational approximation of pi. Raising it to the 2m-th power
# inside the exact-rational zeta computation keeps the relative error near
# 2m * 5e-41, so the single final rounding dominates; a bare
# math.pi ** (2m) would instead drift by ~2m * 4e-17 and push values of
# zeta(2m) below 1 once the true value saturates toward 1.
_PI_RATIONAL = Fraction(3141592653589793238462643383279502884197, 10**39)


def harmonic(n: int) -> float:
    """Harmonic number: sum of 1/k for k = 1..n, compensated ascending sum."""
    _require_int("n", n, 1)
    return math.fsum(1.0 / k for k in range(1, n + 1))


@lru_cache(maxsize=1)
def _bernoulli_table() -> tuple[Fraction, ...]:
    # Convolution recurrence sum_{j=0..k} C(k+1, j) B_j = 0 with B_0 = 1
    # (first-kind convention, B_1 = -1/2; the even-index values exposed by
    # bernoulli_even are the same under either convention).
    kmax = 2 * BERNOULLI_MAX_INDEX
    table = [Fraction(0)] * (kmax + 1)
    table[0] = Fraction(1)
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(k):
            if table[j]:
                acc += math.comb(k + 1, j) * table[j]
        table[k] = -acc / (k + 1)
    return tuple(table)


def bernoulli_even(m: int) -> Fraction:
    """B_{2m} as an exact rational, for 0 <= m <= BERNOULLI_MAX_INDEX."""
    _require_int("m", m, 0)
    if m > BERNOULLI_MAX_INDEX:
        raise DomainError(f"m must satisfy m <= {BERNOULLI_MAX_INDEX}")
    return _bernoulli_table()[2 * m]


def zeta_even_bernoulli(m: int) -> float:
    """zeta(2m) from the exact rational B_{2m}:

        zeta(2m) = (-1)^(m+1) (2 pi)^(2m) B_{2m} / (2 (2m)!)

    Everything is carried in exact rational arithmetic (with the rational
    stand-in for pi) and rounded once, so the result stays above 1 and
    non-increasing all the way into the saturation plateau at 1.0.
    """
    _require_int("m", m, 1)
    rational = Fraction((-1) ** (m + 1) * 2 ** (2 * m - 1), math.factorial(2 * m))
    rational *= bernoulli_even(m) * _PI_RATIONAL ** (2 * m)
    return float(rational)


@lru_cache(maxsize=None)
def zeta_even_direct(m: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """zeta(2m) by direct summation with an integral tail correction.

    Sums k^(-2m) for k = 1..K and adds int_K^inf t^(-2m) dt
    = K^(1-2m)/(2m-1). The correction's own error is below K^(-2m), so K
    is the smallest integer with K^(-2m) < acc.series_abs_tol. Summation
    is chunked and pairwise (deterministic for a fixed chunk size).
    """
    _require_int("m", m, 1)
    s = 2 * m
    K = max(2, math.ceil(acc.series_abs_tol ** (-1.0 / s)))
    while float(K) ** -s >= acc.series_abs_tol:
        K += 1
    total = 0.0
    for start in range(1, K + 1, _DIRECT_SUM_CHUNK):
        k = np.arange(start, min(start + _DIRECT_SUM_CHUNK, K + 1), dtype=np.float64)
        if s == 2:
            np.multiply(k, k, out=k)
            np.reciprocal(k, out=k)
        else:
            np.power(k, -float(s), out=k)
        total += float(np.sum(k))
    return total + float(K) ** (1 - s) / (s - 1)


@lru_cache(maxsize=None)
def zeta_even(m: int) -> float:
    """zeta(2m) for series work: Bernoulli route up to the rational cap,
    exactly 1.0 beyond it (the tail 2^(-2m) is then below double precision)."""
    _require_int("m", m, 1)
    if m <= BERNOULLI_MAX_INDEX:
        return zeta_even_bernoulli(m)
    return 1.0


@lru_cache(maxsize=None)
def _cot_coefficient(m: int) -> float:
    # (-1)^m 2^(2m) B_{2m} pi^(2m) / (2m)!, the z^(2m-1) coefficient of the
    # Bernoulli expansion of pi*cot(pi*z); algebraically -2 zeta(2m).
    rational = Fraction((-1) ** m * 2 ** (2 * m), math.factorial(2 * m))
    rational *= bernoulli_even(m) * _PI_RATIONAL ** (2 * m)
    return float(rational)


def cot_partial(z: float, terms: int) -> float:
    """Truncation of the Bernoulli expansion of pi*cot(pi*z):

        1/z + sum_{m=1..terms} (-1)^m 2^(2m) B_{2m} pi^(2m) z^(2m-1) / (2m)!

    For |z| <= 1/2 the truncation error is bounded by twice the first
    omitted term (the terms decay at least geometrically there).
    """
    if z == 0.0:
        raise DomainError("z must satisfy z != 0")
    if abs(z) >= 1.0:
        raise DomainError("z must satisfy |z| < 1")
    _require_int("terms", terms, 1)
    if terms > BERNOULLI_MAX_INDEX:
        raise DomainError(f"terms must satisfy terms <= {BERNOULLI_MAX_INDEX}")
    zz = z * z
    power = z
    parts = [1.0 / z]
    for m in range(1, terms + 1):
        parts.append(_cot_coefficient(m) * power)
        power *= zz
    return math.fsum(parts)
