"""Foundational sequences: harmonic numbers, exact Bernoulli numbers, even
zeta values by two independent routes (the exact-rational Bernoulli formula
and a direct sum with an Euler-Maclaurin end correction).

Harmonic numbers are correctly rounded by Ziv's strategy (Ziv 1991): a
double-precision sum with a rigorous error bound, and where that bound
straddles a rounding boundary, the same series in integer fixed point
(Brent and Zimmermann, Modern Computer Arithmetic, 4.4).

The Bernoulli numbers come from the integer tangent numbers T_k (Brent and
Harvey 2011): O(k^2) integer multiply-adds, then one exact rational per
B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)). The zeta route rounds one exact
integer quotient, so no rational is normalised on the way.

All functions are pure and use only the standard library. The Bernoulli
memo is an immutable tuple stored after it is fully built, so concurrent
readers never observe a partial table.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import TYPE_CHECKING

from .config import DEFAULT_ACCURACY, Accuracy, _require_accuracy, _require_int
from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

# Largest admissible m in B_{2m}; far beyond what any series here needs at
# x <= 1, while keeping the exact rationals small.
BERNOULLI_MAX_INDEX = 64

# 40-digit rational approximation of pi. Raising it to the 2m-th power
# inside the exact-rational zeta computation keeps the relative error near
# 2m * 5e-41, so the single final rounding dominates; a bare
# math.pi ** (2m) would instead drift by ~2m * 4e-17 and push values of
# zeta(2m) below 1 once the true value saturates toward 1.
_PI_RATIONAL = (3141592653589793238462643383279502884197, 10**39)  # numerator, denominator; in lowest terms

_GAMMA_HI, _GAMMA_LO = 0.5772156649015329, -4.942915152430645e-18  # gamma - hi - lo ~ 2e-34
# ln 2 split after 32 bits (Cody and Waite), so k * _LN2_HI is exact; ln 2 - hi - lo ~ 1e-26
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# B_2k / (2k) for k = 1..10 as literals: harmonic() never builds the Bernoulli table
_HARMONIC_TAIL = ((1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132),
                  (-691, 32760), (1, 12), (-3617, 8160), (43867, 14364), (-174611, 6600))
_FAST_TAIL = tuple(-b / d for b, d in _HARMONIC_TAIL[:5])
# the second stage counts in units of 2^-P; ln 2 and gamma are rounded to the
# nearest unit (from 600-bit mpmath values), so each is within half a unit
_P = 160
_LN2_FIXED = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F34326
_GAMMA_FIXED = 0x93C467E37DB0C7A4D1BE3F810152CB56A1CECC3B


def harmonic(n: int) -> float:
    """Harmonic number sum_{k=1..n} 1/k, correctly rounded: below n = 100
    the exact rational, rounded once; from there log n + gamma + 1/(2n) -
    sum_k B_2k / (2k n^(2k)), first in doubles with a rigorous error bound,
    and in 160-bit integer fixed point only where that bound straddles a
    rounding boundary or n > 2^53 (Ziv's strategy)."""
    _require_int("n", n, 1)
    n = operator.index(n)
    if n < 100:  # p/q = H_k, q = k!, as ints: int / int rounds once, where a sum of rounded 1/k can miss by an ulp
        p, q = 0, 1
        for k in range(1, n + 1):
            p, q = p * k + q, q * k
        return p / q
    if n <= 2**53:  # float(n) is exact
        # n = f 2^k with f in [0.75, 1.5): f - 1 is exact and log n = k ln 2 + log1p(f - 1)
        f, k = math.frexp(n)
        if f < 0.75:
            f, k = 2.0 * f, k - 1
        log_f, nn = math.log1p(f - 1.0), float(n)
        parts = [k * _LN2_HI, k * _LN2_LO, log_f, _GAMMA_HI, _GAMMA_LO, 0.5 / nn]
        inv2, power = 1.0 / (nn * nn), 1.0
        for c in _FAST_TAIL:
            power *= inv2
            parts.append(c * power)
        # H_n is within e of the exact sum of parts: log1p errs by < 1 ulp in
        # glibc, allowed 2; 0.5/nn by u/(2n) and the B terms, led by 1/(12n^2)
        # with 4 roundings, by < u/(3n^2), together < 2u/n (u = 2^-53); k ln2_lo
        # (k <= 53) with its constant's error, gamma_lo and the omitted
        # B_12/(12n^12) < 2.2e-26 are each below 2^-78.
        e = 2.0 * math.ulp(log_f) + 2.0**-52 / nn + 2.0**-70
        upper = math.fsum(parts + [e])
        # fsum rounds exactly, so equal bounds round H_n to that same double
        if upper == math.fsum(parts + [-e]):
            return upper
    else:  # the same reduction in integers
        k = n.bit_length()
        if 4 * n < 3 << k:
            k -= 1
    return _harmonic_fixed(n, k)


def _harmonic_fixed(n: int, k: int) -> float:
    # Ziv's second stage: the series through ten terms as an integer X in
    # units of 2^-P, with log n = k ln 2 + 2 atanh(s), s = (n - 2^k)/(n + 2^k),
    # |s| <= 1/5 as n / 2^k is in [0.75, 1.5). Every quotient is a floor, so
    # each errs by less than one unit. Error budget, in units, for n >= 100:
    # - atanh: S = floor(|s| 2^P) and Q = floor(s^2 2^P) err by < 1. The
    #   power t_j of |s|^(2j+1) errs by e_j < e_(j-1) s^2 + |s|^(2j-1) + 1,
    #   so by < 1.25, and t_j // (2j+1) by < 2.25. The loop ends at the first
    #   t_J = 0, whose true value is < 1.25, and the tail it drops is below
    #   1.25 / (1 - s^2) < 1.31. At most 35 terms are nonzero (5^71 > 2^P),
    #   so 2 atanh errs by < 2 (35 * 2.25 + 1.31) < 161.
    # - k ln 2 by k/2, gamma by 1/2 and 1/(2n) by 1.
    # - the B terms: 1/n^2 and its powers err by < 1.01, which the
    #   coefficients |B_2k/(2k)| (summing to < 30.2) scale to < 31 and the
    #   floors raise to < 41; a power that floors to 0 drops terms worth
    #   < 31 more.
    # - the first omitted term |B_22/(22 n^22)| < 282e-44 < 2^-137.
    # So e = 2^(P-137) + 512 + k units bound |X - 2^P H_n|.
    d, m = n - (1 << k), n + (1 << k)
    t, q = (abs(d) << _P) // m, (d * d << _P) // (m * m)
    atanh, j = 0, 1
    while t:
        atanh += t // j
        t, j = t * q >> _P, j + 2
    x = k * _LN2_FIXED + (2 * atanh if d >= 0 else -2 * atanh) + _GAMMA_FIXED + (1 << _P) // (2 * n)
    inv2 = (1 << _P) // (n * n)
    power = inv2
    for b, den in _HARMONIC_TAIL:
        if not power:
            break
        x -= b * power // den
        power = power * inv2 >> _P
    e = (1 << (_P - 137)) + 512 + k
    # int / int rounds correctly, so equal bounds round H_n to that double;
    # otherwise X itself, rounded once
    upper = (x + e) / (1 << _P)
    return upper if upper == (x - e) / (1 << _P) else x / (1 << _P)


@lru_cache(maxsize=1)
def _bernoulli_table() -> tuple[Fraction, ...]:
    # B_0..B_{2 BERNOULLI_MAX_INDEX} (first-kind convention, B_1 = -1/2; the
    # even-index values exposed by bernoulli_even are the same under either).
    # Tangent numbers in place, T_k = t[k-1]: start from (k-1)! and sweep
    # T_j <- (j-k) T_{j-1} + (j-k+2) T_j (Brent and Harvey 2011, Algorithm TangentNumbers).
    from fractions import Fraction

    kmax = BERNOULLI_MAX_INDEX
    t = [math.factorial(k) for k in range(kmax)]
    for k in range(1, kmax):
        for j in range(k, kmax):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(0)] * (2 * kmax + 1)
    table[0], table[1] = Fraction(1), Fraction(-1, 2)
    for k in range(1, kmax + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k - 1], 4**k * (4**k - 1))
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

    Everything is carried in exact integer arithmetic (with the rational
    stand-in for pi) and rounded once, so the result stays above 1 and
    non-increasing all the way into the saturation plateau at 1.0.
    """
    _require_int("m", m, 1)
    b = bernoulli_even(m)
    # (-1)^(m+1) B_2m is positive; int / int rounds the exact quotient correctly
    pi_num, pi_den = _PI_RATIONAL
    numerator = 2 ** (2 * m - 1) * abs(b.numerator) * pi_num ** (2 * m)
    return numerator / (math.factorial(2 * m) * b.denominator * pi_den ** (2 * m))


def zeta_even_direct(m: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """zeta(2m) by direct summation with an Euler-Maclaurin end correction
    (Abramowitz & Stegun 23.1.30).

    With s = 2m, sums k^(-s) for k < K and adds the integral tail
    K^(1-s)/(s-1), the half endpoint K^(-s)/2 and the corrections
    s K^(-s-1)/12 - s(s+1)(s+2) K^(-s-3)/720, all in one exactly rounded
    sum. The derivatives of k^(-s) keep one sign, so the first omitted
    term s(s+1)(s+2)(s+3)(s+4) K^(-s-5)/30240 bounds the error, and K is
    the smallest integer that puts it below acc.series_abs_tol (K = 82 at
    m = 1 by default). The coefficients are literals: this route must not
    read the Bernoulli table it is checked against.
    """
    _require_int("m", m, 1, 2**53)  # zeta(2m) is 1.0 from m = 27, and s^5 / 30240 stays a float
    _require_accuracy(acc)
    s = 2 * m
    first_omitted = s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240
    K = math.ceil((first_omitted / acc.series_abs_tol) ** (1.0 / (s + 5)))
    while first_omitted * float(K) ** (-s - 5) >= acc.series_abs_tol:
        K += 1
    k = float(K)
    terms = [float(j) ** -s for j in range(1, K)]
    terms += [
        k ** (1 - s) / (s - 1),
        k**-s / 2,
        s * k ** (-s - 1) / 12,
        -s * (s + 1) * (s + 2) * k ** (-s - 3) / 720,
    ]
    return math.fsum(terms)


@lru_cache(maxsize=None)
def zeta_even(m: int) -> float:
    """zeta(2m) for series work: Bernoulli route up to the rational cap,
    exactly 1.0 beyond it (the tail 2^(-2m) is then below double precision)."""
    _require_int("m", m, 1)
    if m <= BERNOULLI_MAX_INDEX:
        return zeta_even_bernoulli(m)
    return 1.0

