import math
import random
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from logsine import (
    Accuracy,
    DomainError,
    bernoulli_even,
    harmonic,
    zeta_even_bernoulli,
    zeta_even_direct,
)
from logsine import sequences
from logsine.sequences import _HARMONIC_TAIL, _PI_RATIONAL, _bernoulli_table, zeta_even

# the orders of the benchmark lattice where the fast path's bound straddles a rounding
LATTICE_FALLBACK_ORDERS = (178, 205, 316, 365, 316228, 421697, 649382)


def _decimal_harmonic(n: int) -> float:
    # the oracle: the same ten-term series summed at 40 digits, rounded once;
    # the first omitted term is below 3e-42 for n >= 100
    with localcontext(Context(prec=40)):
        tail = sum(Decimal(b) / (d * Decimal(n) ** (2 * k)) for k, (b, d) in enumerate(_HARMONIC_TAIL, 1))
        gamma = Decimal("0.5772156649015328606065120900824024310422")
        return float(Decimal(n).ln() + gamma + Decimal(1) / (2 * n) - tail)


def _exact_harmonic(n: int) -> float:
    return float(sum(Fraction(1, k) for k in range(1, n + 1)))


def _count_second_stage(monkeypatch) -> list[int]:
    # the orders harmonic() hands to its fixed-point stage, in call order
    calls = []
    stage = sequences._harmonic_fixed

    def counted(n, k):
        calls.append(n)
        return stage(n, k)

    monkeypatch.setattr(sequences, "_harmonic_fixed", counted)
    return calls


def _log_uniform_orders(count: int = 10_000, seed: int = 20261018) -> list[int]:
    # orders spread evenly in log n over [100, 10^6], where harmonic() takes the float fast path
    rng = random.Random(seed)
    return [round(math.exp(rng.uniform(math.log(100), math.log(10**6)))) for _ in range(count)]


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        # 7381/2520 evaluated exactly, then rounded once
        assert harmonic(10) == 2.9289682539682538

    # the exact rational below n = 100, the asymptotic expansion from it
    @pytest.mark.parametrize("n", [3, 7, 25, 99, 100, 101, 999, 10_001])
    def test_matches_exact_rational_sum(self, n):
        exact = sum(Fraction(1, k) for k in range(1, n + 1))
        assert harmonic(n) == float(exact)

    def test_order_one_million(self):
        assert harmonic(10**6) == float(Decimal("14.3927267228657236313811274932"))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError, match="n must satisfy n >= 1"):
            harmonic(0)
        with pytest.raises(DomainError):
            harmonic(-3)

    def test_matches_exact_rational_sum_from_1_to_30001(self):
        # H_k = num / den with den = lcm(1..k), so each int / int is the exactly rounded H_k
        num, den = 0, 1
        for k in range(1, 30_002):
            g = math.gcd(den, k)
            num, den = num * (k // g) + den // g, den * (k // g)
            assert harmonic(k) == num / den, k

    def test_fast_path_matches_decimal_route(self):
        for n in _log_uniform_orders():
            assert harmonic(n) == _decimal_harmonic(n), n

    def test_fast_path_falls_back_where_its_bound_straddles_a_rounding(self, monkeypatch):
        fallbacks = _count_second_stage(monkeypatch)
        orders = _log_uniform_orders()
        for n in orders:
            harmonic(n)
        assert 0 < len(fallbacks) < len(orders) // 5

    def test_fixed_point_stage_matches_exact_sums(self):
        # the second stage alone, at every order from 100 to 2,000 and not only
        # where the fast path hands over; k by the integer form of the reduction
        num, den = 0, 1
        for n in range(1, 2_001):
            g = math.gcd(den, n)
            num, den = num * (n // g) + den // g, den * (n // g)
            if n >= 100:
                k = n.bit_length()
                if 4 * n < 3 << k:
                    k -= 1
                assert sequences._harmonic_fixed(n, k) == num / den, n

    def test_lattice_fallback_orders(self, monkeypatch):
        # exact sums below 10^4, the oracle above; each order takes the second stage
        calls = _count_second_stage(monkeypatch)
        for n in LATTICE_FALLBACK_ORDERS:
            expected = _exact_harmonic(n) if n < 10**4 else _decimal_harmonic(n)
            assert harmonic(n) == expected, n
        assert calls == list(LATTICE_FALLBACK_ORDERS)

    # 2^53 is the last order whose float is exact; past it, and past the float range, only the second stage runs
    @pytest.mark.parametrize(
        "n, expected",
        [(2**53, 37.31401623457863), (2**53 + 1, 37.31401623457864), (10**400, 921.6112528625198)],
        ids=["2^53", "2^53+1", "10^400"],
    )
    def test_orders_beyond_exact_floats(self, n, expected):
        assert harmonic(n) == expected
        assert harmonic(n) == _decimal_harmonic(n)

    def test_no_order_loads_decimal(self):
        # a fresh interpreter, which finds logsine where this one did
        code = "import sys\nfrom logsine import harmonic\nharmonic(178)\nharmonic(10**400)\nprint('decimal' in sys.modules)\n"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @given(st.integers(min_value=1, max_value=20000))
    def test_difference_is_reciprocal(self, n):
        upper = harmonic(n + 1)
        gap = upper - harmonic(n) - 1.0 / (n + 1)
        # one rounding unit of each correctly rounded sum, plus the
        # rounding of the reciprocal itself
        assert abs(gap) <= 1.5 * math.ulp(upper)


def _convolution_bernoulli(kmax):
    # B_0..B_kmax from sum_{j=0..k} C(k+1, j) B_j = 0, the O(k^2) Fraction
    # recurrence the tangent-number table replaced
    table = [Fraction(1)]
    for k in range(1, kmax + 1):
        table.append(-sum(math.comb(k + 1, j) * b for j, b in enumerate(table) if b) / (k + 1))
    return table


class TestBernoulli:
    def test_table_equals_convolution_recurrence(self):
        table = _bernoulli_table()
        assert len(table) == 129
        assert all(type(b) is Fraction for b in table)
        assert list(table) == _convolution_bernoulli(128)

    def test_known_values(self):
        assert bernoulli_even(0) == Fraction(1)
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)
        assert bernoulli_even(3) == Fraction(1, 42)
        assert bernoulli_even(5) == Fraction(5, 66)
        assert bernoulli_even(6) == Fraction(-691, 2730)

    def test_range(self):
        assert isinstance(bernoulli_even(64), Fraction)
        with pytest.raises(DomainError):
            bernoulli_even(65)
        with pytest.raises(DomainError):
            bernoulli_even(-1)

    def test_sign_alternates(self):
        for m in range(1, 65):
            assert (bernoulli_even(m) > 0) == (m % 2 == 1)


class TestZetaEven:
    def test_bernoulli_route_rounds_the_exact_rational_once(self):
        # zeta(2m) = (-1)^(m+1) (2 pi)^(2m) B_2m / (2 (2m)!), with the rational pi, rounded once
        for m in range(1, 65):
            exact = Fraction((-1) ** (m + 1) * 2 ** (2 * m - 1), math.factorial(2 * m))
            exact *= bernoulli_even(m) * Fraction(*_PI_RATIONAL) ** (2 * m)
            assert zeta_even_bernoulli(m) == float(exact), m

    def test_bernoulli_route_closed_forms(self):
        assert zeta_even_bernoulli(1) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
        assert zeta_even_bernoulli(2) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
        assert zeta_even_bernoulli(3) == pytest.approx(math.pi**6 / 945.0, rel=1e-14)

    def test_bernoulli_route_m20_is_barely_above_one(self):
        v = zeta_even_bernoulli(20)
        assert 1.0 < v < 1.0 + 1e-12

    def test_bernoulli_route_monotone_toward_one(self):
        values = [zeta_even_bernoulli(m) for m in range(1, 31)]
        assert all(v >= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        # strict decrease holds until the values saturate at 1.0, which in
        # double precision happens from m = 27 on
        head = values[:26]
        assert all(b < a for a, b in zip(head, head[1:]))

    def test_direct_route_closed_form(self):
        assert zeta_even_direct(1) == pytest.approx(math.pi**2 / 6.0, abs=1e-9)
        assert zeta_even_direct(3) == pytest.approx(1.0173430619844491, rel=1e-13)

    def test_direct_route_tail_for_large_m(self):
        # zeta(2m) = 1 + 2^(-2m) + 3^(-2m) + ...: at m = 30 the tail is below
        # half an ulp of 1, at m = 20 it rounds to exactly 2^(-40)
        assert zeta_even_direct(30) == 1.0
        assert zeta_even_direct(20) - 1.0 == pytest.approx(2.0**-40, rel=1e-6, abs=0)

    def test_direct_route_honors_tolerance_parameter(self):
        loose = zeta_even_direct(1, Accuracy(series_abs_tol=1e-6))
        assert loose == pytest.approx(math.pi**2 / 6.0, abs=1e-5)

    @given(st.integers(min_value=1, max_value=64))
    def test_routes_agree(self, m):
        direct = zeta_even_direct(m)
        assert abs(zeta_even_bernoulli(m) - direct) / direct <= 2e-15

    @staticmethod
    def _cot_expansion(z: float, terms: int) -> float:
        # pi cot(pi z) = 1/z - 2 sum_{m>=1} zeta(2m) z^(2m-1), truncated after `terms` terms
        return math.fsum([1.0 / z] + [-2.0 * zeta_even(m) * z ** (2 * m - 1) for m in range(1, terms + 1)])

    def test_single_term_of_the_cotangent_expansion(self):
        # one term of the expansion is 1/z - 2 zeta(2) z = 1/z - (pi^2/3) z
        z = 0.1
        expected = 1.0 / z - (math.pi**2 / 3.0) * z
        assert self._cot_expansion(z, 1) == pytest.approx(expected, rel=1e-14)

    def test_cotangent_expansion_vanishes_at_half(self):
        assert abs(self._cot_expansion(0.5, 40)) < 1e-12

    def test_cotangent_expansion_at_quarter_is_pi(self):
        assert self._cot_expansion(0.25, 40) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=0.5), st.booleans())
    def test_cotangent_expansion_tracks_direct_cotangent(self, z, negate):
        if negate:
            z = -z
        direct = math.pi * math.cos(math.pi * z) / math.sin(math.pi * z)
        assert abs(self._cot_expansion(z, 40) - direct) <= 1e-10

    def test_series_coefficients_follow_the_bernoulli_route_then_saturate(self):
        # the expansion's coefficients: the Bernoulli route up to its cap, exactly 1.0 beyond it
        assert [zeta_even(m) for m in range(1, 65)] == [zeta_even_bernoulli(m) for m in range(1, 65)]
        assert zeta_even(65) == zeta_even(200) == 1.0
        for m in (0, -1, 2.5, True):
            with pytest.raises(DomainError):
                zeta_even(m)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            zeta_even_bernoulli(0)
        with pytest.raises(DomainError):
            zeta_even_bernoulli(65)
        with pytest.raises(DomainError):
            zeta_even_direct(0)

