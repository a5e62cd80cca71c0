import math
from fractions import Fraction

import numpy as np
import pytest

import logsine.family as family
from logsine import (
    DEFAULT_ACCURACY,
    Accuracy,
    DomainError,
    Evaluation,
    GenfuncPoint,
    GridPoint,
    IdentityReport,
    LADDER_MAX_ORDER,
    NonConvergenceError,
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
    genfunc_closed,
    genfunc_partial,
    genfunc_tail_bound,
    harmonic,
    ladder_delta,
    log_sin_kernel,
    weight,
    zeta_even_bernoulli,
    zeta_even_direct,
)
from logsine.config import MAX_QUAD_REFINEMENTS
from logsine.quadrature import _cot_remainder, _log_sinc

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
            ("series_abs_tol", math.nan),
            ("series_abs_tol", math.inf),
            ("series_abs_tol", -1e-15),
            ("quad_rel_tol", "1e-12"),
            ("series_abs_tol", None),
            ("max_series_terms", 1.5),
            ("max_series_terms", True),
            ("max_series_terms", 0),
            ("max_quad_refinements", 2.5),
            ("max_quad_refinements", True),
            ("max_quad_refinements", 0),
            # the engine caches every level it reaches, so a runaway budget is refused before any work
            ("max_quad_refinements", MAX_QUAD_REFINEMENTS + 1),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            Accuracy(**{field: value})

    def test_integer_budgets_accepted(self):
        acc = Accuracy(max_series_terms=np.int64(5), max_quad_refinements=3)
        assert (acc.max_series_terms, acc.max_quad_refinements) == (5, 3)

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


# Too few refinements to converge: the engine always performs at least
# three, so every quadrature runs out of budget after 51 samples, yet the
# smooth remainders leave its best estimate accurate.
STARVED = Accuracy(max_quad_refinements=2)


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
        assert len(samples) == 3
        assert excinfo.value.result.evaluations == sum(samples)

    def test_genfunc_error_carries_its_own_best_estimate(self):
        # the payload is the generating function's value, not its remainder integral
        q = GenfuncPoint(0.5, 0.5)
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
        # a stub engine makes the full climb cheap: one integral, then one step per rung
        calls = count_quadratures(monkeypatch, lambda f, acc: Evaluation(0.0, 0.0, 1, True))
        assert evaluate(GridPoint(LADDER_MAX_ORDER, 0.5), method="ladder").evaluations == LADDER_MAX_ORDER
        assert len(calls) == LADDER_MAX_ORDER


class TestDerivativeRoutes:
    def test_cot_route_divergence_at_order_one_and_x_one(self, monkeypatch):
        def no_quadrature(f, acc):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(family, "integrate_de", no_quadrature)
        with pytest.raises(DomainError, match=r"diverges like log\(1-x\) at n = 1, x = 1"):
            evaluate(GridPoint(1, 1.0), method="derivative-cot")
        with pytest.raises(DomainError):
            eval_derivative_cot(GridPoint(1, 1.0))

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
        series = eval_derivative_series(p, constant_variant="corrected")
        assert series == pytest.approx(eval_derivative_cot(p), abs=1e-9)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_series_corrected_matches_cot_at_large_order(self, x):
        # the factorial ratio is updated once per term, whatever n is
        p = GridPoint(10**5, x)
        series = eval_derivative_series(p, constant_variant="corrected")
        assert series == pytest.approx(eval_derivative_cot(p), abs=1e-9)

    def test_series_as_printed_differs_by_one(self):
        p = GridPoint(1, 0.5)
        printed = eval_derivative_series(p, constant_variant="as_printed")
        assert printed - eval_derivative_cot(p) == pytest.approx(1.0, abs=1e-9)

    def test_series_returns_bare_constant_when_terms_vanish(self):
        # at x = 1e-9 every term is far below the tail tolerance, so the
        # sum is empty up to one negligible rounding-level term
        p = GridPoint(1, 1e-9)
        assert eval_derivative_series(p, constant_variant="corrected") == -2.0
        assert eval_derivative_series(p, constant_variant="as_printed") == -1.0

    def test_series_rejects_x_at_radius(self):
        with pytest.raises(DomainError, match="series"):
            eval_derivative_series(GridPoint(1, 1.0))

    def test_series_rejects_unknown_variant(self):
        with pytest.raises(DomainError):
            eval_derivative_series(GridPoint(1, 0.5), constant_variant="fixed")

    def test_series_honors_term_cap(self):
        acc = Accuracy(max_series_terms=5)
        ev = evaluate(GridPoint(1, 0.8), method="derivative-series", acc=acc)
        assert ev.evaluations == 5


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
        # K = 1 - 2u is nonzero at u = 1, where the step sheds log(1-u)
        assert ladder_delta(1, 1.0) == pytest.approx(0.5, abs=2e-15)
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
        parts += [family._ladder_delta(k, 0.3, acc) for k in range(1, 6)]
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
        assert Accuracy(max_series_terms=5).max_series_terms == 5
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
    return lambda us: [g(u) for u in us]


class TestAveragedIntegrand:
    # the integral and cot routes and the ladder step skip the kernel where
    # (1-u)^(n-1) has underflowed to 0.0; the quadrature must not see the
    # difference. The naive scalar integrands are the oracles.
    CASES = [
        pytest.param(kernel, n, x, id=f"{kernel.__name__}-{n}-{x:g}")
        for kernel in (_log_sinc, _cot_remainder)
        for n in (1, 10, 10**3, 10**4, 10**6)
        for x in (1e-4, 0.5, 0.9999, 1.0)
        if not (kernel is _cot_remainder and (n, x) == (1, 1.0))
    ]

    @pytest.mark.parametrize("kernel, n, x", CASES)
    def test_matches_the_unskipped_integrand_bit_for_bit(self, kernel, n, x):
        a = math.pi * x
        skipped = family._moment(family._averaged(n, kernel, a), DEFAULT_ACCURACY)
        naive = family._moment(pointwise(lambda u: n * (1.0 - u) ** (n - 1) * kernel(a * u)), DEFAULT_ACCURACY)
        assert (skipped.value.hex(), skipped.err_estimate.hex()) == (naive.value.hex(), naive.err_estimate.hex())
        assert (skipped.evaluations, skipped.converged) == (naive.evaluations, naive.converged)

    def test_kernel_not_called_where_the_weight_underflows(self):
        calls = []

        def kernel(w):
            calls.append(w)
            return _log_sinc(w)

        ev = family._moment(family._averaged(10**6, kernel, 0.5 * math.pi), DEFAULT_ACCURACY)
        assert 0 < len(calls) < ev.evaluations

    # the order-1 step at x = 1 has its own kernel, free of the u = 1 singularity
    @pytest.mark.parametrize("n, x", [
        pytest.param(n, x, id=f"{n}-{x:g}") for n in (1, 10, 10**3, 10**4) for x in (1e-4, 0.5, 0.9999, 1.0)
        if (n, x) != (1, 1.0)
    ])
    def test_ladder_step_matches_the_unskipped_integrand_bit_for_bit(self, n, x):
        step = family._ladder_delta(n, x, DEFAULT_ACCURACY)
        q = family._moment(
            pointwise(lambda u: ((n + 1) * (1.0 - u) - n) * (1.0 - u) ** (n - 1) * _log_sinc(math.pi * x * u)),
            DEFAULT_ACCURACY,
        )
        naive = q._replace(value=2.0 / (n + 1) - q.value)
        assert (step.value.hex(), step.err_estimate.hex()) == (naive.value.hex(), naive.err_estimate.hex())
        assert (step.evaluations, step.converged) == (naive.evaluations, naive.converged)

    def test_ladder_step_skips_the_kernel_where_the_weight_underflows(self, monkeypatch):
        calls = []

        def kernel(w):
            calls.append(w)
            return _log_sinc(w)

        monkeypatch.setattr(family, "_log_sinc", kernel)
        step = family._ladder_delta(10**3, 0.5, DEFAULT_ACCURACY)
        assert 0 < len(calls) < step.evaluations


def best_estimate(route, *args):
    # the route's Evaluation whether or not it converged
    try:
        return route(*args)
    except NonConvergenceError as exc:
        return exc.result


def fields(ev):
    return (ev.value.hex(), ev.err_estimate.hex(), ev.evaluations, ev.converged)


class TestSharedKernelRow:
    # callers that evaluate many orders at one x share one row of log sinc(pi x u)
    # samples per level; every value stays bit-identical to its single-point route
    @pytest.mark.parametrize("x", [1e-4, 0.3, 0.9999, 1.0])
    def test_shared_row_values_are_the_single_point_values(self, x):
        # one row serves every order in turn, rising and falling in n, and the
        # orders whose weight underflows read a row that others filled further
        scale = family._scale(x, DEFAULT_ACCURACY)
        for n in (1, 2, 10, 10**6, 3, 10**4, 40, 10**3):
            p = GridPoint(n, x)
            assert fields(scale.g(n)) == fields(family._integral(p, DEFAULT_ACCURACY))
            step = scale.step(n)
            naive = family._moment(
                pointwise(lambda u: ((n + 1) * (1.0 - u) - n) * (1.0 - u) ** (n - 1) * _log_sinc(math.pi * x * u)),
                DEFAULT_ACCURACY,
            )
            if (n, x) != (1, 1.0):  # the order-1 step at x = 1 has its own kernel
                assert fields(step) == fields(naive._replace(value=2.0 / (n + 1) - naive.value))

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
        assert values == [ev.value for ev in singles]

    def test_climb_samples_each_node_once(self, monkeypatch):
        # the order-1 integral and 11 steps, all over one row
        calls = count_kernel_calls(monkeypatch)
        climb = family._scale(0.3, DEFAULT_ACCURACY).rung
        top = climb(12)
        assert len(calls) == len(set(calls))
        assert len(calls) == climb(1).evaluations == top.evaluations / 12

    def test_single_point_route_skips_underflowed_weights(self, monkeypatch):
        # a route called alone keeps today's skip where (1-u)^(n-1) underflows
        calls = count_kernel_calls(monkeypatch)
        ev = evaluate(GridPoint(10**6, 0.5))
        assert 0 < len(calls) < ev.evaluations


def count_kernel_calls(monkeypatch):
    # records every argument of log sinc that the routes sample
    calls = []

    def kernel(w):
        calls.append(w)
        return _log_sinc(w)

    monkeypatch.setattr(family, "_log_sinc", kernel)
    return calls
