import inspect
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import logsine
import logsine.family as family
import logsine.verify as verify
from logsine import (
    BERNOULLI_MAX_INDEX,
    DEFAULT_ACCURACY,
    Accuracy,
    DomainError,
    Evaluation,
    GenfuncPoint,
    GridPoint,
    IdentityReport,
    LADDER_MAX_ORDER,
    NonConvergenceError,
    NonFiniteSampleError,
    audit_large_n,
    audit_table,
    bernoulli_even,
    check_bernoulli_zeta,
    check_genfunc,
    cot_kernel,
    eval_derivative_cot,
    eval_derivative_series,
    eval_integral,
    eval_via_ladder,
    evaluate,
    from_samples,
    genfunc_closed,
    genfunc_partial,
    genfunc_tail_bound,
    harmonic,
    integrate_de,
    ladder_delta,
    log_sin_kernel,
    weight,
    zeta_even_bernoulli,
    zeta_even_direct,
)
from logsine.config import MAX_QUAD_REFINEMENTS
from logsine.quadrature import _C2, _cot_less_pole, _level, _level_nodes, _log_sinc_less_w2

# Apery's constant zeta(3), exact to double precision
ZETA_3 = 1.2020569031595943

# Closed-form checkpoints, all derived from the termwise Fourier
# integration of log(2 sin(pi x u)) against the polynomial weights.
G_1_HALF = 1.0 - math.log(math.pi)
G_2_HALF = 1.5 - math.log(math.pi) + 3.5 * ZETA_3 / math.pi**2
G_3_HALF = 11.0 / 6.0 - math.log(math.pi) + 6.0 * ZETA_3 / math.pi**2
G_1_ONE = 1.0 - math.log(2.0 * math.pi)
G_2_ONE = 1.5 - math.log(2.0 * math.pi)
LADDER_1_HALF = 0.5 + 3.5 * ZETA_3 / math.pi**2
# -1 - log 2, from int_0^(pi/2) t cot(t) dt = (pi/2) log 2
DERIVATIVE_1_HALF = -1.0 - math.log(2.0)


class TestGridPoint:
    def test_validation_messages(self):
        with pytest.raises(DomainError, match="n must satisfy n >= 1"):
            GridPoint(0, 0.5)
        with pytest.raises(DomainError, match="x must satisfy 0 < x <= 1"):
            GridPoint(1, 0.0)
        with pytest.raises(DomainError, match="x must satisfy 0 < x <= 1"):
            GridPoint(1, 1.0001)
        with pytest.raises(DomainError, match="n must be an integer"):
            GridPoint(1.5, 0.5)
        with pytest.raises(DomainError, match="n must be an integer"):
            GridPoint(True, 0.5)
        assert eval_integral(GridPoint(np.int64(3), 0.5)) == eval_integral(GridPoint(3, 0.5))

    def test_other_number_types_keep_their_rules(self):
        # int and float skip the ABC test; everything else still takes it
        assert GridPoint(3, np.float64(0.5)) == GridPoint(3, 0.5)
        assert GridPoint(3, Fraction(1, 2)) == GridPoint(3, 0.5)
        with pytest.raises(DomainError, match="x must satisfy 0 < x <= 1"):
            GridPoint(3, np.float64(math.nan))
        with pytest.raises(DomainError, match="x must satisfy 0 < x <= 1"):
            GridPoint(3, True)
        with pytest.raises(DomainError, match="n must be an integer"):
            GridPoint(Fraction(3), 0.5)
        with pytest.raises(DomainError, match="n must be an integer"):
            GridPoint(np.float64(3.0), 0.5)

    @pytest.mark.parametrize("method", family.METHODS)
    def test_numpy_order_past_the_harmonic_sum(self, method):
        # from n = 100 harmonic() leaves the plain sum; a numpy order still gives the int order's
        # value, as a float: the point stores it as an int, so no sample runs in numpy arithmetic
        p = GridPoint(np.int64(150), 0.5)
        ev = evaluate(p, method=method)
        assert type(p.n) is int
        assert type(ev.value) is float
        assert ev == evaluate(GridPoint(150, 0.5), method=method)


class TestIntegerArguments:
    # orders, counts and indices follow GridPoint's rule: a float or a bool
    # is a DomainError, never a stray TypeError or a silently truncated value
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: ladder_delta(1.5, 0.5), id="ladder_delta(1.5, 0.5)"),
            pytest.param(lambda: ladder_delta(True, 0.5), id="ladder_delta(True, 0.5)"),
            pytest.param(lambda: genfunc_partial(0.5, 0.3, 2.5), id="genfunc_partial(0.5, 0.3, 2.5)"),
            pytest.param(lambda: genfunc_tail_bound(0.5, 0.3, 2.5), id="genfunc_tail_bound(0.5, 0.3, 2.5)"),
            pytest.param(lambda: check_genfunc(N=2.5), id="check_genfunc(N=2.5)"),
            pytest.param(lambda: check_bernoulli_zeta(2.5), id="check_bernoulli_zeta(2.5)"),
            pytest.param(lambda: harmonic(1.5), id="harmonic(1.5)"),
            pytest.param(lambda: bernoulli_even(1.5), id="bernoulli_even(1.5)"),
            pytest.param(lambda: zeta_even_bernoulli(1.5), id="zeta_even_bernoulli(1.5)"),
            pytest.param(lambda: zeta_even_direct(1.5), id="zeta_even_direct(1.5)"),
            pytest.param(lambda: weight(2.5, 0.5), id="weight(2.5, 0.5)"),
            pytest.param(lambda: weight(True, 0.5), id="weight(True, 0.5)"),
        ],
    )
    def test_non_integer_rejected(self, call):
        with pytest.raises(DomainError, match="must be an integer"):
            call()


class TestAccuracy:
    # a tolerance that is not a finite positive number, or a budget that is
    # not an integer, is a DomainError rather than a budget silently spent,
    # skipped or failing later with a TypeError
    @pytest.mark.parametrize(
        "field,value",
        [
            ("quad_rel_tol", math.nan),
            ("quad_rel_tol", math.inf),
            ("quad_rel_tol", 0.0),
            ("quad_rel_tol", -1e-15),
            ("quad_rel_tol", "1e-12"),
            ("quad_rel_tol", None),
            ("max_quad_refinements", 2.5),
            ("max_quad_refinements", True),
            ("max_quad_refinements", 0),
            # the engine refines at least three times before it may stop: these budgets could never converge
            ("max_quad_refinements", 1),
            ("max_quad_refinements", 2),
            # a tolerance that converts to no finite float overflows where it is used
            ("quad_rel_tol", 10**400),
            ("quad_rel_tol", Fraction(10**400)),
            ("quad_rel_tol", Decimal("1e400")),
            # the engine caches every level it reaches, so a runaway budget is refused before any work
            ("max_quad_refinements", MAX_QUAD_REFINEMENTS + 1),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            Accuracy(**{field: value})

    def test_integer_budgets_accepted(self):
        assert Accuracy(max_quad_refinements=np.int64(3)).max_quad_refinements == 3

    def test_no_series_term_cap(self):
        # the split series proves its own tail and stops at sequences.SERIES_ABS_TOL, so no budget caps its terms
        # or sets its stop
        assert Accuracy._fields == ("quad_rel_tol", "max_quad_refinements")
        for field in ("max_series_terms", "series_abs_tol"):
            with pytest.raises(TypeError):
                Accuracy(**{field: 200})

    def test_refinement_budget_accepted_up_to_the_cap(self):
        assert Accuracy(max_quad_refinements=MAX_QUAD_REFINEMENTS).max_quad_refinements == MAX_QUAD_REFINEMENTS


class TestIntegralRoute:
    @pytest.mark.parametrize(
        "n,x,expected",
        [
            (1, 0.5, G_1_HALF),
            (2, 0.5, G_2_HALF),
            (3, 0.5, G_3_HALF),
            (1, 1.0, G_1_ONE),
            (2, 1.0, G_2_ONE),
        ],
    )
    def test_closed_form_checkpoints(self, n, x, expected):
        assert eval_integral(GridPoint(n, x)) == pytest.approx(expected, abs=1e-11)

    def test_bitwise_deterministic(self):
        x = float("0.5")  # recomputed scale with identical bits
        a = eval_integral(GridPoint(4, 0.5))
        b = eval_integral(GridPoint(4, x))
        assert a == b

    def test_detailed_evaluation_fields(self):
        ev = evaluate(GridPoint(2, 0.7))
        assert ev.err_estimate >= 0.0
        assert ev.evaluations >= 1
        assert ev.value == eval_integral(GridPoint(2, 0.7))

    def test_order_one_at_x_one_is_a_closed_form(self, monkeypatch):
        # g(1, 1) = 1 - log(2 pi), as Cl_2(2 pi) = 0, and the step to g(2, 1) is H_2 - H_1 = 1/2: no quadrature,
        # and each a positive rounding estimate
        calls = count_quadratures(monkeypatch)
        g, step = family._integral(GridPoint(1, 1.0), DEFAULT_ACCURACY), family._ladder_delta(1, 1.0)
        assert (g.value, g.evaluations, g.converged) == (1.0 - math.log(2.0 * math.pi), 0, True)
        assert (step.value, step.evaluations, step.converged) == (0.5, 0, True)
        assert g.err_estimate > 0.0 and step.err_estimate > 0.0
        assert evaluate(GridPoint(1, 1.0)) == g
        assert calls == []


class TestOrdersPastTheLargestFloat:
    # the quadrature routes take n, n + 1 and n + 2 as floats: a larger order is a domain error
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: evaluate(GridPoint(10**400, 0.5)), id="integral"),
        pytest.param(lambda: evaluate(GridPoint(10**400, 0.5), method="derivative-cot"), id="derivative-cot"),
        pytest.param(lambda: ladder_delta(10**400, 0.5), id="ladder_delta"),
        pytest.param(lambda: ladder_delta(int(sys.float_info.max) - 1, 0.5), id="ladder_delta-past-the-edge"),
    ])
    def test_domain_error(self, call):
        with pytest.raises(DomainError, match="largest float"):
            call()

    def test_orders_up_to_the_edge_evaluate(self):
        assert evaluate(GridPoint(2**1023, 0.5)).value == 1417.0441029837523
        assert ladder_delta(int(sys.float_info.max) - 2, 0.5) > 0.0

    def test_series_route_takes_any_order(self):
        assert evaluate(GridPoint(10**400, 0.5), method="derivative-series").value == -2.0


class TestIntegersPastTheFloatRange:
    # an order, index or sample too large for a float is a DomainError, never an OverflowError
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: zeta_even_direct(10**400), "^m must satisfy m <= ", id="zeta_even_direct"),
        pytest.param(lambda: weight(10**400, 0.5), "^n must satisfy n <= ", id="weight"),
        pytest.param(lambda: integrate_de(from_samples(lambda us: [10**400] * len(us))),
                     "^integrand returned a sample too large for a float$", id="integrate_de"),
    ])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_edges_evaluate(self):
        assert zeta_even_direct(2**53) == 1.0
        assert weight(int(sys.float_info.max), 0.5) == 0.0

    def test_bernoulli_zeta_refuses_indices_past_the_table_before_its_grid(self, monkeypatch):
        # every m past BERNOULLI_MAX_INDEX fails on the Bernoulli side, so the check refuses it before any point
        assert check_bernoulli_zeta(BERNOULLI_MAX_INDEX).passed
        monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("the check ran"))
        with pytest.raises(DomainError, match=f"^m_max must satisfy m_max <= {BERNOULLI_MAX_INDEX}$"):
            check_bernoulli_zeta(BERNOULLI_MAX_INDEX + 1)


# Too few refinements to converge: the fewest the engine takes, to a
# tolerance that levels 2 and 3 do not meet, so every quadrature runs out of
# budget after 101 samples, yet the smooth remainders leave its best
# estimate accurate.
STARVED = Accuracy(quad_rel_tol=1e-300, max_quad_refinements=3)


class TestNonConvergence:
    @pytest.mark.parametrize("method", ["integral", "ladder", "derivative-cot"])
    def test_error_carries_route_level_best_estimate(self, method):
        p = GridPoint(3, 0.5)
        with pytest.raises(NonConvergenceError) as excinfo:
            evaluate(p, method=method, acc=STARVED)
        best = excinfo.value.result
        assert isinstance(best, Evaluation)
        assert best.converged is False
        assert best.value == pytest.approx(evaluate(p, method=method).value, abs=1e-9)

    def test_ladder_evaluations_count_every_rung(self, monkeypatch):
        # rung 3 is g(1, x), the climb's one quadrature, plus two steps, each a series sum
        samples = []
        engine = family.integrate_de

        def counting(f, acc):
            try:
                q = engine(f, acc)
            except NonConvergenceError as exc:
                q = exc.result
                samples.append(q.evaluations)
                raise
            samples.append(q.evaluations)
            return q

        monkeypatch.setattr(family, "integrate_de", counting)
        with pytest.raises(NonConvergenceError) as excinfo:
            evaluate(GridPoint(3, 0.5), method="ladder", acc=STARVED)
        terms = sum(family._derivative_series(GridPoint(n, 0.5)).evaluations for n in (2, 3))
        assert len(samples) == 1
        assert excinfo.value.result.evaluations == samples[0] + terms

    def test_genfunc_error_carries_its_own_best_estimate(self):
        # the payload is the generating function's value, not its remainder integral. At (0.5, 0.5) levels 2 and 3
        # agree exactly, which meets any tolerance
        q = GenfuncPoint(0.3, 0.5)
        with pytest.raises(NonConvergenceError) as excinfo:
            genfunc_closed(q, STARVED)
        best = excinfo.value.result
        assert best.converged is False
        assert best.value == pytest.approx(genfunc_closed(q), abs=1e-9)

    def test_converged_results_say_so(self):
        assert evaluate(GridPoint(3, 0.5), method="ladder").converged is True
        assert evaluate(GridPoint(3, 0.5), method="derivative-series").converged is True


def count_quadratures(monkeypatch, engine=None):
    # replaces the engine behind every route with a counting wrapper
    calls = []
    engine = engine or family.integrate_de

    def counting(f, acc):
        calls.append(f)
        return engine(f, acc)

    monkeypatch.setattr(family, "integrate_de", counting)
    return calls


class TestLadderCap:
    # a climb runs one quadrature per rung, so an order past the cap is refused before any
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: evaluate(GridPoint(LADDER_MAX_ORDER + 1, 0.5), method="ladder"), id="evaluate"),
            pytest.param(lambda: eval_via_ladder(GridPoint(10**6, 0.5)), id="eval_via_ladder"),
        ],
    )
    def test_refused_before_any_quadrature(self, monkeypatch, call):
        calls = count_quadratures(monkeypatch)
        with pytest.raises(DomainError, match=f"n <= {LADDER_MAX_ORDER}"):
            call()
        assert calls == []

    def test_the_cap_itself_is_climbed(self, monkeypatch):
        # one integral, then one series step per rung
        calls = count_quadratures(monkeypatch)
        steps = []
        series = family._derivative_series
        monkeypatch.setattr(family, "_derivative_series", lambda p: steps.append(series(p)) or steps[-1])
        ev = evaluate(GridPoint(LADDER_MAX_ORDER, 0.5), method="ladder")
        assert (len(calls), len(steps)) == (1, LADDER_MAX_ORDER - 1)
        assert ev.evaluations == evaluate(GridPoint(1, 0.5)).evaluations + sum(step.evaluations for step in steps)

    @pytest.mark.parametrize("n", [2, 5, 40, LADDER_MAX_ORDER])
    def test_a_climb_at_x_one_runs_no_quadrature(self, monkeypatch, n):
        # g(1, 1) is a closed form and every step a series sum, so no budget reaches the climb there
        count_quadratures(monkeypatch, lambda f, acc: pytest.fail("quadrature ran"))
        ev = evaluate(GridPoint(n, 1.0), method="ladder")
        steps = [family._ladder_delta(k, 1.0) for k in range(1, n)]
        assert ev.converged and ev.evaluations == sum(step.evaluations for step in steps)
        assert fields(evaluate(GridPoint(n, 1.0), method="ladder", acc=STARVED)) == fields(ev)


class TestDerivativeRoutes:
    def test_cot_route_divergence_at_order_one_and_x_one(self, monkeypatch):
        def no_quadrature(f, acc):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(family, "integrate_de", no_quadrature)
        with pytest.raises(DomainError, match=r"diverges like log\(1-x\) at n = 1, x = 1"):
            evaluate(GridPoint(1, 1.0), method="derivative-cot")
        with pytest.raises(DomainError):
            eval_derivative_cot(GridPoint(1, 1.0))

    @pytest.mark.parametrize("route", [
        pytest.param(family._derivative_series, id="series"),
        pytest.param(lambda p: family._derivative_cot(p, DEFAULT_ACCURACY), id="cot"),
    ])
    def test_both_routes_refuse_order_one_at_x_one_with_one_message(self, monkeypatch, route):
        # _poles refuses (1, 1) for both, before the cot route's quadrature
        count_quadratures(monkeypatch, lambda f, acc: pytest.fail("quadrature ran"))
        with pytest.raises(DomainError, match=r"^the derivative diverges like log\(1-x\) at n = 1, x = 1$"):
            route(GridPoint(1, 1.0))

    def test_cot_route_at_x_one_from_order_two(self):
        # the weight's (1-u) factor cancels the log(1-u) divergence for n >= 2
        assert eval_derivative_cot(GridPoint(2, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_cot_route_closed_form(self):
        assert eval_derivative_cot(GridPoint(1, 0.5)) == pytest.approx(
            DERIVATIVE_1_HALF, abs=1e-10
        )

    def test_cot_route_small_x_limit(self):
        # the cot kernel tends to 1 and the weight integrates to 1, so the
        # small-x limit is -1 - 1 = -2; this constant discriminates the two
        # printed series constants
        assert eval_derivative_cot(GridPoint(1, 1e-6)) == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize("n,x", [(1, 0.5), (2, 0.5), (3, 0.8)])
    def test_cot_route_matches_finite_difference(self, n, x):
        h = 1e-5
        fd = (
            x
            * (eval_integral(GridPoint(n, x + h)) - eval_integral(GridPoint(n, x - h)))
            / (2.0 * h)
        )
        assert eval_derivative_cot(GridPoint(n, x)) == pytest.approx(fd, abs=1e-6)

    def test_series_corrected_matches_cot(self):
        p = GridPoint(1, 0.5)
        series = eval_derivative_series(p)
        assert series == pytest.approx(eval_derivative_cot(p), abs=1e-9)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_series_corrected_matches_cot_at_large_order(self, x):
        # the factorial ratio is updated once per term, whatever n is
        p = GridPoint(10**5, x)
        series = eval_derivative_series(p)
        assert series == pytest.approx(eval_derivative_cot(p), abs=1e-9)

    def test_series_returns_bare_constant_when_terms_vanish(self):
        # at x = 1e-9 every term is far below the tail tolerance, so the
        # sum is empty up to one negligible rounding-level term
        p = GridPoint(1, 1e-9)
        assert eval_derivative_series(p) == -2.0

    def test_series_rejects_x_at_radius(self):
        with pytest.raises(DomainError, match="series"):
            eval_derivative_series(GridPoint(1, 1.0))


class TestLadderRoute:
    def test_closed_form_step(self):
        assert ladder_delta(1, 0.5) == pytest.approx(LADDER_1_HALF, abs=1e-10)

    def test_step_matches_direct_difference(self):
        diff = eval_integral(GridPoint(2, 0.5)) - eval_integral(GridPoint(1, 0.5))
        assert ladder_delta(1, 0.5) == pytest.approx(diff, abs=1e-9)

    def test_step_matches_direct_difference_high_order(self):
        diff = eval_integral(GridPoint(10, 0.3)) - eval_integral(GridPoint(9, 0.3))
        assert ladder_delta(9, 0.3) == pytest.approx(diff, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            ladder_delta(0, 0.5)
        with pytest.raises(DomainError):
            ladder_delta(1, 0.0)
        with pytest.raises(DomainError):
            ladder_delta(1, 1.5)

    def test_via_ladder_order_one_is_integral(self):
        p = GridPoint(1, 0.37)
        assert eval_via_ladder(p) == eval_integral(p)

    def test_via_ladder_checkpoint(self):
        assert eval_via_ladder(GridPoint(2, 0.5)) == pytest.approx(G_2_HALF, abs=1e-9)

    def test_first_step_at_x_one(self):
        # g(2, 1) - g(1, 1) = H_2 - H_1: the Clausen terms vanish at x = 1
        assert ladder_delta(1, 1.0) == 0.5
        assert eval_via_ladder(GridPoint(2, 1.0)) == pytest.approx(G_2_ONE, abs=4e-15)

    @pytest.mark.parametrize("acc", [Accuracy(), STARVED], ids=["default", "starved"])
    def test_path_prefixes_are_the_ladder_route(self, acc):
        # rung n of one climb is g(1, x) plus steps 1..n-1, summed in that
        # order, which is a climb that stops at n, bit for bit; a rung that did
        # not converge raises with its value as the result
        climb = family._scale(0.3, acc).rung
        top = best_estimate(climb, 6)  # the lower rungs are read from this climb's prefix
        path = [best_estimate(climb, n) for n in range(1, 7)]
        assert path[-1] is top
        parts = [family._integral(GridPoint(1, 0.3), acc)]
        parts += [family._ladder_delta(k, 0.3) for k in range(1, 6)]
        value, err, evaluations, converged = 0.0, 0.0, 0, True
        for n, (rung, part) in enumerate(zip(path, parts, strict=True), start=1):
            value += part.value
            err += part.err_estimate
            evaluations += part.evaluations
            converged = converged and part.converged
            assert rung == Evaluation(value, err, evaluations, converged)
            assert rung == best_estimate(family._scale(0.3, acc).rung, n)
        assert converged is (acc is not STARVED)

    def test_via_ladder_agrees_with_integral(self):
        p = GridPoint(10, 0.5)
        assert abs(eval_via_ladder(p) - eval_integral(p)) <= 10 * 1e-8


class TestSharedClimb:
    # family._scale(x, acc) serves the table's g_ladder column and the ladder route: one climb per x, extended
    # as asked, from the g(1, x) of the kernel row that the direct integrals at that x share
    def test_failed_step_is_not_kept(self, monkeypatch):
        steps = []
        step = family._ladder_delta

        def failing(n, x):
            steps.append((n, x))
            if x == 0.5:
                raise NonFiniteSampleError("injected")
            return step(n, x)

        monkeypatch.setattr(family, "_ladder_delta", failing)
        scales = {x: family._scale(x, DEFAULT_ACCURACY) for x in (0.3, 0.5)}
        failed = []
        for n, x in [(2, 0.3), (2, 0.5), (1, 0.3), (3, 0.5), (1, 0.5)]:
            try:
                scales[x].rung(n)
            except NonFiniteSampleError:
                failed.append((n, x))
        # only the rungs at x = 0.5 that need the failed step fail; rung 1 is g(1, 0.5) itself,
        # and the climb at x = 0.3 serves both of its rungs
        assert failed == [(2, 0.5), (3, 0.5)]
        # a failed step is not kept: the next rung at its x climbs again from the rung below it
        assert steps == [(1, 0.3), (1, 0.5), (1, 0.5)]

    def test_order_past_the_cap_fails_only_its_own_rung(self, monkeypatch):
        # each rung checks the cap before any quadrature, so the climb at x = 0.5 still serves n = 5
        climb = family._scale(0.5, DEFAULT_ACCURACY).rung
        low = climb(5)
        calls = count_quadratures(monkeypatch)
        with pytest.raises(DomainError, match=r"^n must satisfy n <= 10000 \(LADDER_MAX_ORDER\) on the ladder route$"):
            climb(20000)
        assert climb(5) == low
        assert calls == []

    def test_ladder_grid_takes_one_row_and_each_integral_once_per_scale(self, monkeypatch):
        # g(n) and rung(n), n = 1..10, at 9 scales: 10 orders x 9 scales of g over one row of 101 nodes per scale;
        # each climb's rung 1 is g(1, x), and its 9 steps above it are series sums, which sample no kernel
        quadratures = count_quadratures(monkeypatch)
        samples = count_kernel_calls(monkeypatch)
        for i in range(1, 10):
            scale = family._scale(i / 10.0, DEFAULT_ACCURACY)
            for n in range(1, 11):
                assert scale.rung(n).converged and scale.g(n).converged
        assert len(quadratures) == 90
        assert len(samples) == len(set(samples)) == 909

    def test_shared_climb_gives_each_point_its_own_values(self):
        # values shared across points give each point what a scale of its own gives it
        scales = {}
        for n, x in [(3, 0.5), (1, 0.5), (2, 1.0), (2, 0.5)]:
            shared, own = scales.setdefault(x, family._scale(x, DEFAULT_ACCURACY)), family._scale(x, DEFAULT_ACCURACY)
            assert (shared.rung(n), shared.g(n)) == (own.rung(n), own.g(n))


class TestGenfunc:
    def test_zero_z_vanishes(self):
        assert genfunc_closed(GenfuncPoint(0.7, 0.0)) == 0.0
        assert genfunc_partial(0.7, 0.0, 10) == 0.0

    @pytest.mark.parametrize("x,z", [(0.5, 0.5), (0.3, -0.5)])
    def test_closed_matches_partial(self, x, z):
        closed = genfunc_closed(GenfuncPoint(x, z))
        partial = genfunc_partial(x, z, 60)
        tail = genfunc_tail_bound(x, z, 60)
        assert abs(closed - partial) <= 1e-8 + tail

    @pytest.mark.parametrize("x", [1e-4, 0.5, 1.0])
    def test_proven_tail_bounds_the_direct_sum(self, x):
        # sum_{n=N+1}^{N+400} |g(n, x)| |z|^n over one row per x; the terms past N + 400 are below 1e-17 of it
        g = family._scale(x, DEFAULT_ACCURACY).g
        for N in (1, 10, 60):
            for z in (-0.9, 0.5, 0.9):
                direct = math.fsum(abs(g(n).value) * abs(z) ** n for n in range(N + 1, N + 401))
                assert direct <= genfunc_tail_bound(x, z, N), (N, z)

    def test_tail_bound_takes_one_quadrature(self, monkeypatch):
        calls = count_quadratures(monkeypatch)
        genfunc_tail_bound(0.5, 0.5, 60)
        assert len(calls) == 1

    def test_partial_single_term(self):
        expected = 0.5 * eval_integral(GridPoint(1, 0.5))
        assert genfunc_partial(0.5, 0.5, 1) == expected

    def test_partial_two_terms(self):
        expected = 0.5 * eval_integral(GridPoint(1, 0.5)) + 0.25 * eval_integral(GridPoint(2, 0.5))
        assert genfunc_partial(0.5, 0.5, 2) == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError, match=r"\|z\| <= 0.9"):
            GenfuncPoint(0.5, 0.95)
        with pytest.raises(DomainError):
            genfunc_partial(0.5, 0.95, 10)
        with pytest.raises(DomainError):
            genfunc_partial(0.5, 0.5, 0)
        with pytest.raises(DomainError):
            genfunc_partial(0.0, 0.5, 10)


class TestRealArguments:
    # x and z are real numbers: a NaN, a string, None or a complex number is a
    # DomainError, never a stray TypeError or a silent NaN
    @pytest.mark.parametrize(
        "call,name",
        [
            pytest.param(lambda: GridPoint(1, "0.5"), "x", id="GridPoint(1, '0.5')"),
            pytest.param(lambda: GridPoint(1, None), "x", id="GridPoint(1, None)"),
            pytest.param(lambda: GridPoint(1, 0.5j), "x", id="GridPoint(1, 0.5j)"),
            pytest.param(lambda: GridPoint(1, math.nan), "x", id="GridPoint(1, nan)"),
            pytest.param(lambda: GenfuncPoint("a", 0.5), "x", id="GenfuncPoint('a', 0.5)"),
            pytest.param(lambda: GenfuncPoint(0.5, "a"), "z", id="GenfuncPoint(0.5, 'a')"),
            pytest.param(lambda: GenfuncPoint(0.5, 0.3j), "z", id="GenfuncPoint(0.5, 0.3j)"),
            pytest.param(lambda: GenfuncPoint(0.5, math.nan), "z", id="GenfuncPoint(0.5, nan)"),
            pytest.param(lambda: genfunc_partial(0.5, math.nan, 10), "z", id="genfunc_partial(0.5, nan, 10)"),
            pytest.param(lambda: genfunc_partial(0.5, None, 10), "z", id="genfunc_partial(0.5, None, 10)"),
            pytest.param(lambda: genfunc_tail_bound(0.5, math.nan, 10), "z", id="genfunc_tail_bound(0.5, nan, 10)"),
            pytest.param(lambda: genfunc_partial(None, 0.5, 10), "x", id="genfunc_partial(None, 0.5, 10)"),
            pytest.param(lambda: log_sin_kernel("0.5", 0.5), "x", id="log_sin_kernel('0.5', 0.5)"),
            pytest.param(lambda: log_sin_kernel(math.nan, 0.5), "x", id="log_sin_kernel(nan, 0.5)"),
            pytest.param(lambda: cot_kernel("0.5", 0.5), "x", id="cot_kernel('0.5', 0.5)"),
            pytest.param(lambda: cot_kernel(None, 0.5), "x", id="cot_kernel(None, 0.5)"),
        ],
    )
    def test_non_real_rejected(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must"):
            call()


class TestPointRecords:
    # a route takes its point record or the plain pair of its fields, as the checks do
    @pytest.mark.parametrize(
        "route",
        [
            pytest.param(lambda p: evaluate(p), id="evaluate"),
            pytest.param(lambda p: evaluate(p, method="ladder"), id="evaluate-ladder"),
            pytest.param(eval_integral, id="eval_integral"),
            pytest.param(eval_derivative_cot, id="eval_derivative_cot"),
            pytest.param(eval_derivative_series, id="eval_derivative_series"),
            pytest.param(eval_via_ladder, id="eval_via_ladder"),
        ],
    )
    def test_grid_routes_take_an_n_x_pair(self, route):
        assert route((3, 0.5)) == route(GridPoint(3, 0.5))
        assert route([np.int64(3), "0.5"]) == route(GridPoint(3, 0.5))

    def test_genfunc_closed_takes_an_x_z_pair(self):
        assert genfunc_closed((0.5, 0.3)) == genfunc_closed(GenfuncPoint(0.5, 0.3))

    @pytest.mark.parametrize(
        "call,message",
        [
            pytest.param(lambda: evaluate(3), r"\(n, x\) pairs", id="evaluate(3)"),
            pytest.param(lambda: evaluate((3, 0.5, 1)), r"\(n, x\) pairs", id="evaluate((3, 0.5, 1))"),
            pytest.param(lambda: eval_integral((3, "half")), r"\(n, x\) pairs", id="eval_integral((3, 'half'))"),
            pytest.param(lambda: eval_integral((3, 1.5)), "x must satisfy", id="eval_integral((3, 1.5))"),
            pytest.param(lambda: eval_via_ladder((2.5, 0.5)), "n must be an integer", id="eval_via_ladder((2.5, 0.5))"),
            pytest.param(lambda: genfunc_closed(None), r"\(x, z\) pairs", id="genfunc_closed(None)"),
            pytest.param(lambda: genfunc_closed((0.5, 0.95)), "z must be", id="genfunc_closed((0.5, 0.95))"),
            pytest.param(lambda: genfunc_closed((0.5,)), r"\(x, z\) pairs", id="genfunc_closed((0.5,))"),
            # a record of the other type is refused, not read as a pair of this one's fields
            pytest.param(lambda: genfunc_closed(GridPoint(1, 0.5)), r"\(x, z\) pairs", id="genfunc_closed(GridPoint)"),
            pytest.param(lambda: evaluate(GenfuncPoint(0.5, 0.3)), r"\(n, x\) pairs", id="evaluate(GenfuncPoint)"),
        ],
    )
    def test_anything_but_a_valid_pair_rejected(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


class TestInputContract:
    def test_pair_past_the_largest_float_rejected(self):
        # float() of such an int overflows; the pair is refused like any other unreadable one
        with pytest.raises(DomainError, match=r"\(n, x\) pairs"):
            evaluate((2, 2**2000))
        with pytest.raises(DomainError, match=r"\(x, z\) pairs"):
            genfunc_closed((0.5, 2**2000))

    # every public name that takes acc, called where nothing else would fail, and at x = 1 where a closed
    # form reads no budget
    ACC_CALLS = {
        "evaluate": lambda acc: evaluate(GridPoint(1, 1.0), "integral", acc),
        "eval_integral": lambda acc: eval_integral(GridPoint(1, 1.0), acc),
        "eval_derivative_cot": lambda acc: eval_derivative_cot(GridPoint(2, 0.5), acc),
        "eval_via_ladder": lambda acc: eval_via_ladder(GridPoint(2, 1.0), acc),
        "genfunc_closed": lambda acc: genfunc_closed(GenfuncPoint(0.5, 0.3), acc),
        "genfunc_partial": lambda acc: genfunc_partial(1.0, 0.3, 1, acc),
        "genfunc_tail_bound": lambda acc: genfunc_tail_bound(1.0, 0.3, 1, acc),
        "integrate_de": lambda acc: logsine.integrate_de(pointwise(lambda u: u), acc),
        "check_derivative": lambda acc: logsine.check_derivative(acc=acc),
        "check_ladder": lambda acc: logsine.check_ladder([(1, 1.0)], acc=acc),
        "check_series_constant": lambda acc: logsine.check_series_constant(acc=acc),
        "check_genfunc": lambda acc: check_genfunc(acc=acc),
        "audit_small_x": lambda acc: logsine.audit_small_x(1, xs=(1.0,), acc=acc),
        "audit_large_n": lambda acc: audit_large_n(1.0, ns=(1,), acc=acc),
        "audit_table": lambda acc: audit_table(acc),
    }

    def test_every_public_name_that_takes_acc_is_listed(self):
        takes_acc = {name for name in logsine.__all__ if callable(obj := getattr(logsine, name))
                     and not isinstance(obj, type) and "acc" in inspect.signature(obj).parameters}
        assert takes_acc == set(self.ACC_CALLS)

    @pytest.mark.parametrize("acc", [None, 1e-12, DEFAULT_ACCURACY._asdict()], ids=["None", "float", "dict"])
    @pytest.mark.parametrize("name", list(ACC_CALLS))
    def test_non_accuracy_rejected(self, name, acc):
        with pytest.raises(DomainError, match="^acc must be an Accuracy record"):
            self.ACC_CALLS[name](acc)

    @pytest.mark.parametrize("acc", [None, 1e-12, DEFAULT_ACCURACY._asdict()], ids=["None", "float", "dict"])
    def test_series_route_rejects_a_non_accuracy_it_does_not_read(self, acc):
        # the series route reads no budget, but evaluate refuses a stray one on every route alike
        with pytest.raises(DomainError, match="^acc must be an Accuracy record"):
            evaluate(GridPoint(2, 0.5), "derivative-series", acc)

    def test_the_x_one_calls_need_no_quadrature(self, monkeypatch):
        # so only an acc check of their own rejects a stray budget there
        count_quadratures(monkeypatch, lambda f, acc: pytest.fail("quadrature ran"))
        for name in ("evaluate", "eval_integral", "genfunc_partial", "audit_small_x", "audit_large_n"):
            self.ACC_CALLS[name](DEFAULT_ACCURACY)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda N: genfunc_partial(0.5, 0.3, N), id="genfunc_partial"),
        pytest.param(lambda N: genfunc_tail_bound(0.5, 0.3, N), id="genfunc_tail_bound"),
        pytest.param(lambda N: check_genfunc(N=N), id="check_genfunc"),
    ])
    @pytest.mark.parametrize("N", [LADDER_MAX_ORDER + 1, 10**400])
    def test_order_count_past_the_ladder_cap_rejected_before_any_quadrature(self, monkeypatch, call, N):
        # the engine raises if it is reached, so a missing check fails at once instead of looping N times
        count_quadratures(monkeypatch, lambda f, acc: pytest.fail("quadrature ran"))
        with pytest.raises(DomainError, match=f"^N must satisfy N <= {LADDER_MAX_ORDER}$"):
            call(N)

    def test_order_count_at_the_ladder_cap_accepted(self):
        # |z|^(N+1) underflows there: the bound is 0.0
        assert genfunc_tail_bound(0.5, 0.9, LADDER_MAX_ORDER) == 0.0 < genfunc_tail_bound(0.5, 0.9, 60)


# every public name that takes input, with a valid value for each of its parameters
VALID_CALLS = {
    "Accuracy": dict(quad_rel_tol=1e-12, max_quad_refinements=12),
    "GenfuncPoint": dict(x=0.5, z=0.3),
    "GridPoint": dict(n=3, x=0.5),
    "IdentityReport": dict(identity_id="id", grid=(1,), max_abs_residual=0.0, tolerance=1.0, passed=True, notes=""),
    "audit_large_n": dict(x=0.5, ns=(10,), acc=DEFAULT_ACCURACY),
    "audit_small_x": dict(n=1, xs=(0.01,), acc=DEFAULT_ACCURACY),
    "audit_table": dict(acc=DEFAULT_ACCURACY),
    "bernoulli_even": dict(m=3),
    "check_bernoulli_zeta": dict(m_max=2),
    "check_derivative": dict(grid=[(1, 0.5)], acc=DEFAULT_ACCURACY),
    "check_genfunc": dict(xs=(0.5,), zs=(0.3,), N=2, acc=DEFAULT_ACCURACY),
    "check_ladder": dict(grid=[(1, 0.5)], acc=DEFAULT_ACCURACY),
    "check_series_constant": dict(grid=[(1, 0.5)], acc=DEFAULT_ACCURACY),
    "cot_kernel": dict(x=0.5, u=0.5),
    "eval_derivative_cot": dict(p=(2, 0.5), acc=DEFAULT_ACCURACY),
    "eval_derivative_series": dict(p=(2, 0.5)),
    "eval_integral": dict(p=(2, 0.5), acc=DEFAULT_ACCURACY),
    "eval_via_ladder": dict(p=(2, 0.5), acc=DEFAULT_ACCURACY),
    "evaluate": dict(p=(2, 0.5), method="integral", acc=DEFAULT_ACCURACY),
    "from_samples": dict(f=lambda us: [1.0] * len(us)),
    "genfunc_closed": dict(q=(0.5, 0.3), acc=DEFAULT_ACCURACY),
    "genfunc_partial": dict(x=0.5, z=0.3, N=2, acc=DEFAULT_ACCURACY),
    "genfunc_tail_bound": dict(x=0.5, z=0.3, N=2, acc=DEFAULT_ACCURACY),
    "harmonic": dict(n=3),
    "integrate_de": dict(f=from_samples(lambda us: [u * u for u in us]), acc=DEFAULT_ACCURACY),
    "ladder_delta": dict(n=2, x=0.5),
    "log_sin_kernel": dict(x=0.5, u=0.5),
    "weight": dict(n=3, u=0.5),
    "zeta_even_bernoulli": dict(m=3),
    "zeta_even_direct": dict(m=3),
}
# records the package returns, which check only their own consistency
RESULT_RECORDS = {"Evaluation", "AuditRow", "AsymptoticRow", "TableAudit", "AsymptoticAudit"}
# the catalogue of bad values; the huge int reaches only names that refuse it before any work, or that take any
# order in bounded time (GridPoint, harmonic)
BAD_VALUES = {
    "None": None, "str": "0.5", "bool": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1,
    "huge": 10**400, "Fraction": Fraction(3, 2), "Decimal": Decimal("1.5"), "complex": 0.5j, "list": [None],
    "tuple": (None,),
}
# the catalogue values that are valid where they are passed
ACCEPTED = {
    ("GridPoint", "n", "huge"),  # a record takes any order; the series route answers it
    ("harmonic", "n", "huge"),
    ("bernoulli_even", "m", "0"),  # B_0 = 1
    ("GenfuncPoint", "z", "0"), ("genfunc_partial", "z", "0"), ("genfunc_tail_bound", "z", "0"),
    ("cot_kernel", "u", "0"), ("weight", "u", "0"),
    ("Accuracy", "quad_rel_tol", "Fraction"),
    # a report's grid entries are whatever its check scores (points, pairs or ints), and a residual of 0 passes
    ("IdentityReport", "identity_id", "str"), ("IdentityReport", "notes", "str"), ("IdentityReport", "grid", "tuple"),
    ("IdentityReport", "max_abs_residual", "0"), ("IdentityReport", "tolerance", "Fraction"),
    ("IdentityReport", "passed", "bool"),
}


class TestBadValueCatalogue:
    # bad library input fails with DomainError (or a NonConvergenceError carrying its best estimate), never with a
    # stray TypeError, ValueError or OverflowError, nor is it accepted
    def test_catalogue_lists_every_public_name_that_takes_input(self):
        takes_input = {
            name for name in logsine.__all__
            if callable(obj := getattr(logsine, name)) and name not in RESULT_RECORDS
            and not (isinstance(obj, type) and issubclass(obj, Exception)) and inspect.signature(obj).parameters
        }
        assert takes_input == set(VALID_CALLS)
        for name, kwargs in VALID_CALLS.items():
            assert list(kwargs) == list(inspect.signature(getattr(logsine, name)).parameters), name

    @pytest.mark.parametrize("name, param", [(name, param) for name, kwargs in VALID_CALLS.items() for param in kwargs])
    def test_bad_value_is_a_domain_error(self, name, param):
        call = getattr(logsine, name)
        call(**VALID_CALLS[name])
        stray = []
        for label, bad in BAD_VALUES.items():
            try:
                call(**{**VALID_CALLS[name], param: bad})
            except (DomainError, NonConvergenceError):
                if (name, param, label) in ACCEPTED:
                    stray.append(f"{label}: refused")
            except Exception as exc:  # the stray exception this test reports
                stray.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                if (name, param, label) not in ACCEPTED:
                    stray.append(f"{label}: accepted")
        assert stray == []


class TestEvaluateDispatch:
    def test_routes_agree(self):
        p = GridPoint(3, 0.4)
        integral = evaluate(p, method="integral")
        ladder = evaluate(p, method="ladder")
        assert ladder.value == pytest.approx(integral.value, abs=1e-9)

    def test_unknown_method(self):
        with pytest.raises(DomainError, match="method"):
            evaluate(GridPoint(1, 0.5), method="closed-form")


class TestRecords:
    # every record is an immutable named tuple that validates on construction
    RECORDS = [
        pytest.param(lambda: GridPoint(3, 0.5), id="GridPoint"),
        pytest.param(lambda: GenfuncPoint(0.5, 0.3), id="GenfuncPoint"),
        pytest.param(lambda: Accuracy(), id="Accuracy"),
        pytest.param(lambda: Evaluation(1.0, 0.0, 1, True), id="Evaluation"),
        pytest.param(lambda: IdentityReport("id", (1,), 0.0, 1.0, True, ""), id="IdentityReport"),
        pytest.param(lambda: audit_table().rows[0], id="AuditRow"),
        pytest.param(lambda: audit_large_n(ns=(10,)).rows[0], id="AsymptoticRow"),
        pytest.param(lambda: audit_table(), id="TableAudit"),
        pytest.param(lambda: audit_large_n(ns=(10,)), id="AsymptoticAudit"),
    ]

    @pytest.mark.parametrize("make", RECORDS)
    def test_rejects_attribute_assignment(self, make):
        record = make()
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_keyword_construction_and_defaults(self):
        assert Accuracy() == DEFAULT_ACCURACY
        assert Accuracy(quad_rel_tol=1e-10).quad_rel_tol == 1e-10
        assert GridPoint(n=3, x=0.5) == GridPoint(3, 0.5)
        assert GenfuncPoint(z=0.3, x=0.5) == GenfuncPoint(0.5, 0.3)
        with pytest.raises(DomainError, match="z must be real"):
            GenfuncPoint(x=0.5, z=0.95)

    def test_repr_names_the_fields(self):
        # perfbench span keys read this form
        assert repr(GridPoint(3, 0.5)) == "GridPoint(n=3, x=0.5)"

    def test_tuple_semantics(self):
        p = GridPoint(3, 0.5)
        assert p == (3, 0.5)
        n, x = p
        assert (n, x) == (3, 0.5)


def pointwise(g):
    # the level-wise integrand of a scalar integrand g
    return from_samples(lambda us: [g(u) for u in us])


# orders whose weight (1-u)^(n-1) never underflows on the engine's nodes (1), underflows
# part way through the deeper levels (30, 100) and through every level (999 on)
ORDERS = (1, 30, 100, 999, 10**4, 10**5, 10**6)


def beta_moment_of_u2(n):
    # n int_0^1 (1-u)^(n-1) u^2 du exactly, as n sum_j C(n-1, j) (-1)^j / (j + 3)
    return n * sum(Fraction((-1) ** j * math.comb(n - 1, j), j + 3) for j in range(n))


class TestSubtractedTerm:
    # every Beta-weighted quadrature integrates its kernel less the w^2 term and adds that term's moment back
    @pytest.mark.parametrize("n", range(1, 41))
    def test_moments_are_exact(self, n):
        assert beta_moment_of_u2(n) == Fraction(2, (n + 1) * (n + 2))

    @pytest.mark.parametrize("n", [2, 30, 10**3, 10**6])
    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_engine_integrates_the_term_to_its_closed_form(self, n, x):
        a = math.pi * x
        term = family._moment(family._beta_sum(n, lambda w: w * w / 6.0, a), DEFAULT_ACCURACY)
        assert abs(term.value - a * a / (3.0 * (n + 1) * (n + 2))) <= 1e-15


class TestAveragedIntegrand:
    # the integral and cot routes stop each level's sum at
    # the first node where (1-u)^(n-1) has underflowed to 0.0; the quadrature
    # must not see the difference. The naive scalar integrands, over the
    # kernel each route samples at (n, x), are the oracles.
    CASES = [
        pytest.param(kernel, n, x, id=f"{kernel.__name__}-{n}-{x:g}")
        for kernel in (_log_sinc_less_w2, _cot_less_pole)
        for n in ORDERS
        for x in (1e-4, 0.5, 0.9999, 1.0)
        if kernel is _log_sinc_less_w2 or (n, x) != (1, 1.0)  # the cot route diverges at (1, 1)
    ]

    @pytest.mark.parametrize("kernel, n, x", CASES)
    def test_matches_the_unskipped_integrand_bit_for_bit(self, kernel, n, x):
        a = x if kernel is _cot_less_pole else math.pi * x  # the cot kernel reads t = x u, log sinc w = pi x u
        fused = family._moment(family._beta_sum(n, kernel, a), DEFAULT_ACCURACY)
        naive = family._moment(pointwise(lambda u: n * (1.0 - u) ** (n - 1) * kernel(a * u)), DEFAULT_ACCURACY)
        assert fields(fused) == fields(naive)
        # the route is that quadrature plus its closed-form parts: log sinc's w^2 term, of moment
        # (pi x)^2/(3 (n+1)(n+2)), or the cot kernel's pole, -4 + P + M for every n, and its t^2 term, of moment
        # C2 x^2 2/((n+1)(n+2))
        p = GridPoint(n, x)
        if kernel is _cot_less_pole:
            P, M = family._poles(n, x)
            expected = family._from_remainder(-4.0 + P + M, 4.0 + P + M, naive, _C2 * x * x / (0.5 * (n + 1) * (n + 2)))
            assert fields(family._derivative_cot(p, DEFAULT_ACCURACY)) == fields(expected)
        elif (n, x) != (1, 1.0):  # the order-1 integral at x = 1 is a closed form
            h = harmonic(n)
            lead, size = family._leading(h, x), 2.0 * h + 2.0 * (family._LOG_2PI - math.log(x))
            expected = family._from_remainder(lead, size, naive, a * a / (3.0 * (n + 1) * (n + 2)))
            assert fields(family._integral(p, DEFAULT_ACCURACY)) == fields(expected)

    def test_kernel_not_called_where_the_weight_underflows(self):
        calls = []

        def kernel(w):
            calls.append(w)
            return _log_sinc_less_w2(w)

        ev = family._moment(family._beta_sum(10**6, kernel, 0.5 * math.pi), DEFAULT_ACCURACY)
        assert 0 < len(calls) < ev.evaluations

    def test_no_weight_after_the_first_underflow_is_nonzero(self):
        # the premise of the stop, at every level any Accuracy may reach (levels built uncached)
        for level in range(MAX_QUAD_REFINEMENTS + 1):
            us = [u for u, _ in _level_nodes.__wrapped__(level)]
            for n in ORDERS:
                ws = [(1.0 - u) ** (n - 1) for u in us]
                first = ws.index(0.0) if 0.0 in ws else len(ws)
                assert not any(ws[first:]), (level, n)

    def test_zero_samples_after_the_stop_are_folded_exactly(self):
        # a last sample before the stop that outweighs the running sum leaves a compensation
        # that the 0.0 samples after it still move; the level sum must move as they would
        n, a = 30, 1.0
        us, dudts = _level(0)
        ws = [(1.0 - u) ** (n - 1) for u in us]
        last = ws.index(0.0) - 1
        rng = random.Random(0)
        for _ in range(2000):
            base, big = rng.uniform(-2.0, 2.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 3.0)
            peak = big / (n * ws[last] * dudts[last])

            def kernel(w, peak=peak, base=base):
                return peak if w == a * us[last] else base

            naive = from_samples(lambda us: [n * (1.0 - u) ** (n - 1) * kernel(a * u) for u in us])(us, dudts)
            total = comp = 0.0  # the sum up to the stop, without the zeros after it
            for u, dudt in zip(us[: last + 1], dudts):
                y = n * (1.0 - u) ** (n - 1) * kernel(a * u) * dudt - comp
                t = total + y
                comp = (t - total) - y
                total = t
            if total != naive:
                break
        assert total != naive, "no kernel found whose zeros move the sum"
        assert family._beta_sum(n, kernel, a)(us, dudts) == naive


class TestLadderStep:
    # g(n+1, x) - g(n, x) = -x g'(n+1, x)/(n+1): the step from n is the series route's value at n + 1, x = 1 included,
    # divided by -(n+1), with its estimate plus one eps of it for the division; the order-1 step at x = 1 is a closed
    # form
    @pytest.mark.parametrize("n, x", [
        pytest.param(n, x, id=f"{n}-{x:g}") for n in ORDERS for x in (1e-4, 0.5, 0.9999, 1.0) if (n, x) != (1, 1.0)
    ])
    def test_step_is_the_scaled_derivative_one_order_up_bit_for_bit(self, n, x):
        d = family._derivative_series(GridPoint(n + 1, x))
        step = Evaluation(-d.value / (n + 1), (d.err_estimate + sys.float_info.epsilon * abs(d.value)) / (n + 1),
                          d.evaluations, d.converged)
        assert fields(family._ladder_delta(n, x)) == fields(step)

class TestNonFiniteKernelSample:
    # a kernel sample that is NaN at one node before the stop is named by its abscissa,
    # whether the fused sum calls the kernel itself or reads it from a shared row
    U = _level_nodes(0)[len(_level_nodes(0)) // 2][0]
    MESSAGE = f"^{re.escape(f'integrand returned a non-finite value at u = {U!r}')}$"

    @pytest.fixture(autouse=True)
    def nan_at_one_node(self, monkeypatch):
        kernel = family._log_sinc_less_w2
        target = math.pi * 0.5 * self.U
        monkeypatch.setattr(family, "_log_sinc_less_w2", lambda w: math.nan if w == target else kernel(w))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: evaluate(GridPoint(100, 0.5)), id="integral"),
        pytest.param(lambda: family._scale(0.5, DEFAULT_ACCURACY).g(100), id="shared-row-g"),
    ])
    def test_names_the_abscissa(self, call):
        with pytest.raises(NonFiniteSampleError, match=self.MESSAGE):
            call()


def best_estimate(route, *args):
    # the route's Evaluation whether or not it converged
    try:
        return route(*args)
    except NonConvergenceError as exc:
        return exc.result


def fields(ev):
    return (ev.value.hex(), ev.err_estimate.hex(), ev.evaluations, ev.converged)


class TestSharedKernelRow:
    # callers that evaluate many orders at one x share one row of log sinc(pi x u) + (pi x u)^2/6
    # samples per level; every value stays bit-identical to its single-point route
    @pytest.mark.parametrize("x", [1e-4, 0.3, 0.9999, 1.0])
    def test_shared_row_values_are_the_single_point_values(self, x):
        # one row serves every order in turn, rising and falling in n, and the
        # orders whose weight underflows read a row that others filled further
        scale = family._scale(x, DEFAULT_ACCURACY)
        for n in (1, 2, 10, 10**6, 3, 10**4, 40, 30, 10**5, 100, 999):
            assert fields(scale.g(n)) == fields(family._integral(GridPoint(n, x), DEFAULT_ACCURACY))

    def test_row_stops_where_every_weight_has_underflowed(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        ev = family._scale(0.5, DEFAULT_ACCURACY).g(10**6)
        assert 0 < len(calls) < ev.evaluations

    def test_genfunc_orders_sample_each_node_once(self, monkeypatch):
        # 80 orders cost at most the kernel samples of the one that refines deepest
        calls = count_kernel_calls(monkeypatch)
        values = family._genfunc_orders(0.5, 80, DEFAULT_ACCURACY)
        monkeypatch.undo()
        singles = [evaluate(GridPoint(n, 0.5)) for n in range(1, 81)]
        assert len(calls) == len(set(calls))
        assert 0 < len(calls) <= max(ev.evaluations for ev in singles) < sum(ev.evaluations for ev in singles) / 2
        assert values == singles

    def test_climb_samples_each_node_once(self, monkeypatch):
        # the order-1 integral over one row, and 11 steps that are series sums, which sample no kernel
        calls = count_kernel_calls(monkeypatch)
        climb = family._scale(0.3, DEFAULT_ACCURACY).rung
        top = climb(12)
        assert len(calls) == len(set(calls)) == climb(1).evaluations
        terms = sum(family._derivative_series(GridPoint(n, 0.3)).evaluations for n in range(2, 13))
        assert top.evaluations == climb(1).evaluations + terms

    def test_single_point_route_skips_underflowed_weights(self, monkeypatch):
        # a route called alone keeps today's skip where (1-u)^(n-1) underflows
        calls = count_kernel_calls(monkeypatch)
        ev = evaluate(GridPoint(10**6, 0.5))
        assert 0 < len(calls) < ev.evaluations


def count_kernel_calls(monkeypatch):
    # records every argument of log sinc less its w^2 term that the routes sample
    calls = []

    def kernel(w):
        calls.append(w)
        return _log_sinc_less_w2(w)

    monkeypatch.setattr(family, "_log_sinc_less_w2", kernel)
    return calls
