import math
import sys
from decimal import Decimal, localcontext

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from logsine import (
    Accuracy,
    DomainError,
    NonConvergenceError,
    NonFiniteSampleError,
    cot_kernel,
    from_samples,
    integrate_de,
    log_sin_kernel,
    weight,
)
from logsine.quadrature import _cot_less_pole, _level_nodes, _log_sinc_less_w2

# Apery's constant zeta(3), exact to double precision
ZETA_3 = 1.2020569031595943
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
# Too few refinements to converge: the fewest the engine takes, to a tolerance levels 2 and 3 do not meet.
STARVED = Accuracy(quad_rel_tol=1e-300, max_quad_refinements=3)


def pointwise(g):
    # the level-wise integrand of a scalar integrand g
    return from_samples(lambda us: [g(u) for u in us])


class TestLogSinKernel:
    def test_closed_forms(self):
        assert log_sin_kernel(0.5, 0.5) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert log_sin_kernel(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("u", [1e-6, 1e-8])
    def test_small_u_asymptote(self, x, u):
        # log(2 sin(pi x u)) -> log(2 pi x u) as u -> 0+
        assert abs(log_sin_kernel(x, u) - math.log(2.0 * math.pi * x * u)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            log_sin_kernel(1.0, 1.0)  # x*u = 1 hits the zero of the sine
        with pytest.raises(DomainError):
            log_sin_kernel(0.5, 0.0)
        with pytest.raises(DomainError):
            log_sin_kernel(0.5, 1.5)
        with pytest.raises(DomainError):
            log_sin_kernel(0.0, 0.5)
        with pytest.raises(DomainError):
            log_sin_kernel(1.5, 0.5)


class TestCotKernel:
    def test_removable_singularity_at_zero(self):
        assert cot_kernel(0.7, 0.0) == 1.0
        assert cot_kernel(0.01, 0.0) == 1.0

    def test_closed_forms(self):
        assert abs(cot_kernel(0.5, 1.0)) <= 1e-15  # (pi/2) cot(pi/2) = 0
        assert cot_kernel(0.5, 0.5) == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_branches_agree_at_switchover(self):
        w = 1e-4
        series = 1.0 - w * w / 3.0 - w**4 / 45.0
        direct = w * math.cos(w) / math.sin(w)
        assert abs(series - direct) <= 1e-13
        # continuity of the kernel across the switch point
        x = 0.5
        u0 = w / (math.pi * x)
        below = cot_kernel(x, math.nextafter(u0, 0.0))
        above = cot_kernel(x, math.nextafter(u0, 1.0))
        assert abs(above - below) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            cot_kernel(1.0, 1.0)  # x*u = 1
        with pytest.raises(DomainError):
            cot_kernel(0.5, -0.1)
        with pytest.raises(DomainError):
            cot_kernel(1.2, 0.5)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: log_sin_kernel(0.5, None), "0 < u <= 1", id="log_sin_kernel(0.5, None)"),
        pytest.param(lambda: log_sin_kernel(0.5, "0.5"), "0 < u <= 1", id="log_sin_kernel(0.5, '0.5')"),
        pytest.param(lambda: log_sin_kernel(0.5, True), "0 < u <= 1", id="log_sin_kernel(0.5, True)"),
        pytest.param(lambda: cot_kernel(0.5, 0.5j), "0 <= u <= 1", id="cot_kernel(0.5, 0.5j)"),
        pytest.param(lambda: cot_kernel(0.5, math.nan), "0 <= u <= 1", id="cot_kernel(0.5, nan)"),
        pytest.param(lambda: weight(2, "a"), "0 <= u <= 1", id="weight(2, 'a')"),
        pytest.param(lambda: weight(2, None), "0 <= u <= 1", id="weight(2, None)"),
    ],
)
def test_kernels_reject_a_non_real_abscissa(call, message):
    # a DomainError, never a stray TypeError from the range comparison
    with pytest.raises(DomainError, match=f"^u must satisfy {message}$"):
        call()


def sin_cos(y):
    # sin y and cos y from their Taylor series, at the context's precision
    sin = cos = Decimal(0)
    term_s, term_c = y, Decimal(1)
    for k in range(1, 60):
        sin, cos = sin + term_s, cos + term_c
        term_s *= -y * y / ((2 * k) * (2 * k + 1))
        term_c *= -y * y / ((2 * k - 1) * (2 * k))
    return sin, cos


@pytest.mark.parametrize("w", [1e-6, 1e-4, 1e-3, 0.0099, 0.0101, 0.1, 1.0, 2.0, 3.1])
def test_log_sinc_less_its_w2_term(w):
    # below w = 1e-2 the series is accurate relative to the remainder; above it the quotient's rounding
    # leaves an absolute error of a few eps against the size of the plain kernel's terms
    eps = sys.float_info.epsilon
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (sin_cos(Decimal(w))[0] / Decimal(w)).ln() + Decimal(w) ** 2 / 6
    err = float(abs(Decimal(_log_sinc_less_w2(w)) - exact))
    assert err <= (8 * eps * float(abs(exact)) if w < 1e-2 else 4 * eps * (1.0 + float(abs(exact)) + w * w))


def exact_rho(t):
    # pi t cot(pi t) - 1 + 2t^2/(1-t^2) + (pi^2/3 - 2) t^2 at 60 digits, with sin(pi t) = sin(pi s) and
    # cos(pi t) = -cos(pi s), s = 1 - t, past t = 1/2, so that no digit of a small s is lost in pi t
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(t)
        s = 1 - t
        sin, cos = sin_cos(PI_60 * min(t, s))
        cot = cos / sin if t <= s else -cos / sin
        return PI_60 * t * cot - 1 + 2 * t * t / (s * (1 + t)) + (PI_60 * PI_60 / 3 - 2) * t * t


@pytest.mark.parametrize("t", [1e-6, 1e-5, 0.99e-4, 1.01e-4, 1e-3, 1e-2, 0.1, 0.3, math.nextafter(0.5, 0.0), 0.5, 0.7,
                               0.9] + [1.0 - 2.0**-k for k in range(2, 53)])
def test_cot_kernel_less_its_pole(t):
    # below t = 1e-4 the series -Z4 t^4 is accurate relative to rho up to its first omitted term, -2 (zeta(6) - 1) t^6.
    # Above it the quotient's rounding leaves an absolute error of about eps; from t = 1/2 on, the quotient and the
    # pole, each about t/s in size, cancel and leave about eps t/s, which the weight (1-u)^(n-1) takes at x = 1
    eps = sys.float_info.epsilon
    exact = exact_rho(t)
    err = float(abs(Decimal(_cot_less_pole(t)) - exact))
    assert err <= (8 * eps * float(abs(exact)) + 0.25 * t**6 if t < 1e-4 else 2 * eps * (1.0 + t / (1.0 - t)))


def test_kernels_take_any_real_abscissa():
    # an int or a numpy float passes the check that a plain float skips
    assert log_sin_kernel(0.5, 1) == log_sin_kernel(0.5, 1.0)
    assert cot_kernel(0.5, np.float32(0.5)) == cot_kernel(0.5, float(np.float32(0.5)))
    assert weight(3, 0) == weight(3, 0.0)


class TestWeight:
    def test_values(self):
        assert weight(1, 0.0) == 1.0
        assert weight(1, 0.37) == 1.0
        assert weight(1, 1.0) == 1.0
        assert weight(2, 0.5) == 1.0
        assert weight(5, 0.0) == 5.0

    def test_domain(self):
        with pytest.raises(DomainError):
            weight(0, 0.5)
        with pytest.raises(DomainError):
            weight(2, -0.1)

    def test_numpy_order_accepted(self):
        # the order check rejects 2.5 and True but takes any integer type
        assert weight(np.int64(5), 0.3) == weight(5, 0.3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50])
    def test_normalizes_to_one(self, n):
        q = integrate_de(pointwise(lambda u: weight(n, u)))
        assert abs(q.value - 1.0) <= 1e-12


class TestIntegrateDE:
    def test_constant(self):
        q = integrate_de(pointwise(lambda u: 1.0))
        assert abs(q.value - 1.0) <= 1e-14
        assert q.err_estimate <= 1e-14

    def test_log_singular_zero_mean(self):
        # Fourier expansion log(2 sin(theta/2)) = -sum cos(k theta)/k
        # integrates termwise to zero over theta in (0, pi)
        q = integrate_de(pointwise(lambda u: log_sin_kernel(0.5, u)))
        assert abs(q.value) <= 1e-10

    def test_log_singular_weighted(self):
        # same expansion against (1-u): int_0^1 u cos(k pi u) du
        # = ((-1)^k - 1)/(k pi)^2, which sums to -7 zeta(3) / (4 pi^2)
        expected = -7.0 * ZETA_3 / (4.0 * math.pi**2)
        q = integrate_de(pointwise(lambda u: (1.0 - u) * log_sin_kernel(0.5, u)))
        assert q.value == pytest.approx(expected, abs=1e-10)

    def test_both_endpoints_singular(self):
        # x = 1 makes the kernel singular at u = 0 and u = 1; full-period
        # Fourier integral is zero
        q = integrate_de(pointwise(lambda u: log_sin_kernel(1.0, u)))
        assert abs(q.value) <= 1e-10

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=11))
    def test_polynomials_integrate_exactly(self, coeffs):
        def poly(u):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * u + c
            return acc

        exact = math.fsum(c / (k + 1) for k, c in enumerate(coeffs))
        q = integrate_de(pointwise(poly))
        assert abs(q.value - exact) <= 1e-12

    def test_never_samples_endpoints(self):
        seen = []

        def probe(u):
            seen.append(u)
            return 1.0

        integrate_de(pointwise(probe))
        assert min(seen) > 0.0
        assert max(seen) < 1.0

    def test_result_invariants(self):
        acc = Accuracy()
        q = integrate_de(pointwise(lambda u: weight(3, u) * log_sin_kernel(0.7, u)), acc)
        assert q.evaluations >= 1
        assert q.err_estimate >= 0.0
        assert q.err_estimate <= acc.quad_rel_tol * max(abs(q.value), 1.0)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(NonFiniteSampleError):
            integrate_de(pointwise(lambda u: math.nan))
        with pytest.raises(NonFiniteSampleError):
            integrate_de(pointwise(lambda u: math.inf))

    def test_non_convergence_carries_best_estimate(self):
        with pytest.raises(NonConvergenceError) as excinfo:
            integrate_de(pointwise(lambda u: log_sin_kernel(0.5, u)), STARVED)
        best = excinfo.value.result
        assert math.isfinite(best.value)
        assert best.err_estimate >= 0.0
        assert best.evaluations >= 1

    def test_deterministic(self):
        def f(u):
            return weight(3, u) * log_sin_kernel(0.7, u)

        a = integrate_de(pointwise(f))
        b = integrate_de(pointwise(f))
        assert (a.value, a.err_estimate, a.evaluations) == (b.value, b.err_estimate, b.evaluations)

    @pytest.mark.parametrize("acc", [Accuracy(), STARVED], ids=["converged", "starved"])
    def test_evaluations_count_whole_levels(self, acc):
        # every level used is used whole: the count is the level sizes summed
        # up to the last level reached
        calls = []

        def f(u):
            calls.append(u)
            return weight(3, u) * log_sin_kernel(0.7, u)

        try:
            q = integrate_de(pointwise(f), acc)
        except NonConvergenceError as exc:
            q = exc.result
        sizes = [len(_level_nodes(level)) for level in range(acc.max_quad_refinements + 1)]
        assert q.evaluations == len(calls)
        assert q.converged is (acc is not STARVED)
        if q.converged:
            assert q.evaluations in [sum(sizes[: k + 1]) for k in range(3, acc.max_quad_refinements + 1)]
        else:
            assert q.evaluations == sum(sizes)


class TestLevelContract:
    # the integrand receives one refinement level at a time and returns one sample per abscissa
    def test_one_call_per_level_with_ascending_interior_abscissae(self):
        levels = []

        def f(us):
            levels.append(us)
            return [weight(3, u) * log_sin_kernel(0.7, u) for u in us]

        q = integrate_de(from_samples(f))
        assert [len(us) for us in levels] == [len(_level_nodes(level)) for level in range(len(levels))]
        for us in levels:
            assert type(us) is tuple
            assert all(0.0 < a < b < 1.0 for a, b in zip(us, us[1:]))
        assert q.evaluations == sum(len(us) for us in levels)

    def test_integrand_returns_its_level_sum(self):
        # f receives a level's abscissae and their du/dt, and returns the level's sum of sample * du/dt
        seen = []

        def f(us, dudts):
            seen.append((us, dudts))
            return math.fsum(u * u * dudt for u, dudt in zip(us, dudts))

        q = integrate_de(f)
        assert q.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert [tuple(zip(us, dudts)) for us, dudts in seen] == [_level_nodes(level) for level in range(len(seen))]
        assert q.evaluations == sum(len(us) for us, _ in seen)

    def test_each_level_passes_the_same_tuple(self):
        # callers may key work they share across integrals by the level's tuple
        first, second = [], []
        integrate_de(from_samples(lambda us: first.append(us) or [1.0] * len(us)))
        integrate_de(from_samples(lambda us: second.append(us) or [2.0] * len(us)))
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("acc", [Accuracy(), STARVED], ids=["converged", "starved"])
    def test_evaluations_equal_the_samples_requested(self, acc):
        requested = []

        def f(us):
            requested.append(len(us))
            return [log_sin_kernel(0.5, u) for u in us]

        try:
            q = integrate_de(from_samples(f), acc)
        except NonConvergenceError as exc:
            q = exc.result
        assert q.evaluations == sum(requested)
        assert q.converged is (acc is not STARVED)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_row_length_rejected(self, extra):
        with pytest.raises(DomainError, match="samples for"):
            integrate_de(from_samples(lambda us: [1.0] * (len(us) + extra)))

    @pytest.mark.parametrize(
        "f",
        [
            pytest.param(lambda us: (1.0 for _ in us), id="generator"),
            pytest.param(lambda us: 1.0, id="float"),
            pytest.param(lambda us: [None] * len(us), id="None"),
            pytest.param(lambda us: ["1.0"] * len(us), id="str"),
            pytest.param(lambda us: [1.0] * (len(us) - 1) + [1j], id="complex"),
        ],
    )
    def test_result_that_is_no_row_of_real_samples_rejected(self, f):
        # a DomainError, never a stray TypeError from len(), the product or the finiteness test
        with pytest.raises(DomainError, match="^integrand must return a sequence of one real sample per abscissa$"):
            integrate_de(from_samples(f))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_names_its_abscissa(self, bad):
        # the first non-finite sample in ascending order is named, as with scalar integrands
        cut = 0.75
        with pytest.raises(NonFiniteSampleError) as excinfo:
            integrate_de(from_samples(lambda us: [bad if u > cut else 1.0 for u in us]))
        first = min(u for u, _ in _level_nodes(0) if u > cut)
        assert str(excinfo.value) == f"integrand returned a non-finite value at u = {first!r}"

    def test_overflowing_sum_of_finite_samples_is_not_a_non_finite_sample(self):
        # only a non-finite sample raises NonFiniteSampleError; a sum that
        # overflows never converges, as with scalar integrands
        with pytest.raises(NonConvergenceError) as excinfo:
            integrate_de(from_samples(lambda us: [1e308] * len(us)), Accuracy(max_quad_refinements=4))
        assert excinfo.value.result.converged is False
