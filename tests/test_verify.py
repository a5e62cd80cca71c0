import math
import sys

import pytest

import logsine.family as family
from logsine import (
    Accuracy,
    DomainError,
    GridPoint,
    IdentityReport,
    audit_large_n,
    audit_small_x,
    audit_table,
    check_bernoulli_zeta,
    check_derivative,
    check_genfunc,
    check_ladder,
    check_series_constant,
    eval_derivative_cot,
    eval_integral,
    harmonic,
    ladder_delta,
)
from logsine.verify import DEFAULT_LADDER_GRID, FD_STEP

G_1_HALF = 1.0 - math.log(math.pi)
EPS = sys.float_info.epsilon


class TestIdentityReportType:
    def test_grid_must_be_non_empty(self):
        with pytest.raises(DomainError):
            IdentityReport("x", (), 0.0, 1.0, True, "")

    def test_passed_flag_must_match_residual(self):
        with pytest.raises(ValueError):
            IdentityReport("x", (1,), 2.0, 1.0, True, "")
        report = IdentityReport("x", (1,), 0.5, 1.0, True, "")
        assert report.passed


class TestOnePointResiduals:
    # a one-point grid's max_abs_residual is that point's residual, recomputed
    # here from the public routes
    POINTS = [pytest.param(GridPoint(n, x), id=f"{n}-{x:g}") for n in (1, 2) for x in (0.45, 0.85)]

    @pytest.mark.parametrize("p", POINTS)
    def test_derivative(self, p):
        upper = eval_integral(GridPoint(p.n, p.x + FD_STEP))
        lower = eval_integral(GridPoint(p.n, p.x - FD_STEP))
        fd = p.x * (upper - lower) / (2.0 * FD_STEP)
        assert check_derivative([p]).max_abs_residual == abs(fd - eval_derivative_cot(p))

    @pytest.mark.parametrize("p", POINTS)
    def test_ladder(self, p):
        diff = eval_integral(GridPoint(p.n + 1, p.x)) - eval_integral(p)
        assert check_ladder([p]).max_abs_residual == abs(diff - ladder_delta(p.n, p.x))


class TestChecks:
    def test_derivative_default_grid_passes(self):
        report = check_derivative()
        assert report.passed
        assert report.tolerance == 1e-6
        assert len(report.grid) == 18
        assert report.max_abs_residual <= 1e-6

    def test_derivative_single_point(self):
        report = check_derivative(grid=[(1, 0.5)])
        assert report.passed
        assert report.max_abs_residual <= 1e-6

    def test_derivative_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            check_derivative(grid=[])

    def test_ladder_default_grid_passes(self):
        report = check_ladder()
        assert report.passed
        assert report.tolerance == 1e-8
        assert len(report.grid) == 90

    def test_ladder_checkpoint_value(self):
        report = check_ladder(grid=[(1, 0.5)])
        assert report.passed
        assert report.max_abs_residual <= 1e-9

    def test_ladder_rejects_out_of_domain_point(self):
        with pytest.raises(DomainError, match="x must satisfy 0 < x <= 1"):
            check_ladder(grid=[(1, 0.5), (2, 1.5)])

    @pytest.mark.parametrize(
        "entry,message",
        [
            ((1.9, 0.5), "n must be an integer"),
            ((True, 0.5), "n must be an integer"),
            (1, r"\(n, x\) pairs"),
            ((1, 0.5, 2), r"\(n, x\) pairs"),
            ((1, "half"), r"\(n, x\) pairs"),
        ],
    )
    def test_grid_entries_follow_grid_point_rules(self, entry, message):
        with pytest.raises(DomainError, match=message):
            check_ladder(grid=[entry])

    def test_series_constant_names_corrected_variant(self):
        report = check_series_constant()
        assert report.passed
        assert "matching variant: corrected" in report.notes
        assert "as_printed=0" in report.notes

    def test_series_constant_takes_one_series_per_point(self, monkeypatch):
        import logsine.family as family
        import logsine.verify as verify

        calls = []
        series = family._derivative_series

        def counting(p):
            calls.append(p)
            return series(p)

        monkeypatch.setattr(verify, "_derivative_series", counting)
        report = check_series_constant()
        assert calls == list(verify.DEFAULT_DERIVATIVE_GRID)
        # the route adds the corrected constant -2; the printed -1 shifts its gap to the cot route by 1
        residuals = {"as_printed": [], "corrected": []}
        for p in verify.DEFAULT_DERIVATIVE_GRID:
            gap = series(p).value - family.eval_derivative_cot(p)
            residuals["as_printed"].append(abs(gap + 1.0))
            residuals["corrected"].append(abs(gap))
        assert report.max_abs_residual == max(residuals["corrected"])
        assert report.passed
        assert report.notes == (
            "matching variant: corrected (constant -2); per-variant match counts over 18 points: "
            f"as_printed={sum(r <= 1e-8 for r in residuals['as_printed'])}, "
            f"corrected={sum(r <= 1e-8 for r in residuals['corrected'])}"
        )

    def test_series_constant_at_x_one(self):
        # the series sum answers x = 1 from n = 2, as the ladder's steps read it there
        report = check_series_constant(grid=[(2, 1.0), (5, 1.0)])
        assert report.passed
        assert report.notes == ("matching variant: corrected (constant -2); per-variant match counts over 2 points: "
                                "as_printed=0, corrected=2")

    def test_series_constant_fails_where_the_derivative_diverges(self):
        report = check_series_constant(grid=[(2, 1.0), (1, 1.0)])
        assert not report.passed and report.max_abs_residual == math.inf
        assert report.notes.endswith(
            "; evaluation failures: (n=1, x=1): the derivative diverges like log(1-x) at n = 1, x = 1")

    def test_genfunc_passes(self):
        report = check_genfunc()
        assert report.passed
        assert report.tolerance >= 1e-8
        assert len(report.grid) == 8

    def test_genfunc_evaluates_each_integral_once(self, monkeypatch):
        import logsine.family as family

        calls = []
        integrate_de = family.integrate_de

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate_de(*args, **kwargs)

        monkeypatch.setattr(family, "integrate_de", counting)
        check_genfunc()
        # 2 xs * 60 orders (the partial sums; the tail bound reads g(1, x)) + 8 closed forms
        assert len(calls) == 128

    def test_ladder_check_evaluates_each_value_once(self, monkeypatch):
        import logsine.family as family

        calls = []
        integrate_de = family.integrate_de

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate_de(*args, **kwargs)

        monkeypatch.setattr(family, "integrate_de", counting)
        assert check_ladder().passed
        # 11 orders x 9 scales of g; the ladder steps are series sums
        assert len(calls) == 99

    def test_ladder_residuals_bound_the_climb(self):
        # a climb's rung n is g(1) plus the steps below n, so its gap to g(n) telescopes into the
        # ladder_vs_diff residuals below n, up to the climb's own roundings
        for x in sorted({p.x for p in DEFAULT_LADDER_GRID}):
            scale = family._scale(x, Accuracy())
            residuals = [check_ladder([(k, x)]).max_abs_residual for k in range(1, 10)]
            peak = max(abs(scale.g(n).value) for n in range(1, 11))
            for n in range(1, 11):
                gap = abs(scale.rung(n).value - scale.g(n).value)
                assert gap <= math.fsum(residuals[: n - 1]) + 4 * EPS * n * peak, (n, x)

    def test_ladder_check_samples_each_kernel_node_once_per_scale(self, monkeypatch):
        # the 99 integrals read one row of kernel samples per x: 9 rows of 101 nodes
        import logsine.family as family

        calls = []
        kernel = family._log_sinc_less_w2

        def counting(w):
            calls.append(w)
            return kernel(w)

        monkeypatch.setattr(family, "_log_sinc_less_w2", counting)
        assert check_ladder().passed
        assert len(calls) == len(set(calls)) == 9 * 101

    def test_shared_values_keep_the_pointwise_residuals(self):
        # values shared across a grid give each point the residual its one-point check reports
        grid = [(3, 0.5), (1, 0.5), (2, 1.0), (2, 0.5)]
        assert check_ladder(grid).max_abs_residual == max(check_ladder([p]).max_abs_residual for p in grid)

    def test_genfunc_accepts_zero_z(self):
        report = check_genfunc(xs=(0.5,), zs=(0.0, 0.3))
        assert report.passed

    def test_genfunc_rejects_z_outside_radius(self):
        with pytest.raises(DomainError):
            check_genfunc(xs=(0.5,), zs=(0.95,))

    def test_genfunc_rejects_empty(self):
        with pytest.raises(DomainError):
            check_genfunc(xs=(), zs=(0.5,))

    def test_one_shot_iterables_are_read_whole(self):
        # a generator is read once, so every z is checked at every x
        zs = (-0.5, -0.3, 0.3, 0.5)
        assert check_genfunc(xs=[0.3, 0.5], zs=(z for z in zs)) == check_genfunc(xs=[0.3, 0.5], zs=zs)
        assert audit_small_x(xs=(x for x in (1e-2, 1e-3))) == audit_small_x(xs=(1e-2, 1e-3))
        assert audit_large_n(ns=(n for n in (10, 20))) == audit_large_n(ns=(10, 20))
        assert check_ladder(grid=(p for p in [(1, 0.5), (2, 0.3)])) == check_ladder(grid=[(1, 0.5), (2, 0.3)])

    @pytest.mark.parametrize(
        "call,name",
        [
            pytest.param(lambda: check_genfunc(xs=None), "xs", id="check_genfunc(xs=None)"),
            pytest.param(lambda: check_genfunc(zs=0.5), "zs", id="check_genfunc(zs=0.5)"),
            pytest.param(lambda: audit_small_x(xs=0.01), "xs", id="audit_small_x(xs=0.01)"),
            pytest.param(lambda: audit_large_n(ns=None), "ns", id="audit_large_n(ns=None)"),
            pytest.param(lambda: check_ladder(grid=None), "grid", id="check_ladder(grid=None)"),
        ],
    )
    def test_non_iterable_inputs_rejected(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must be iterable$"):
            call()

    def test_bernoulli_zeta_passes(self):
        report = check_bernoulli_zeta()
        assert report.passed
        assert report.tolerance == 1e-12
        assert len(report.grid) == 30

    def test_bernoulli_zeta_rejects_empty_range(self):
        with pytest.raises(DomainError):
            check_bernoulli_zeta(0)

    def test_checks_are_deterministic(self):
        assert check_ladder(grid=[(1, 0.5), (2, 0.3)]) == check_ladder(grid=[(1, 0.5), (2, 0.3)])

    def test_point_failures_recorded_without_aborting(self, starved):
        report = check_derivative(grid=[(1, 0.5)], acc=starved)
        assert not report.passed
        assert report.max_abs_residual == math.inf
        assert "evaluation failures" in report.notes

    def test_failed_integral_fails_every_difference_that_reads_it(self, monkeypatch):
        import logsine.family as family
        from logsine import NonFiniteSampleError

        calls = []
        integral = family._integral

        def failing(p, acc, row=None):
            calls.append((p.n, p.x))
            if (p.n, p.x) == (2, 0.5):
                raise NonFiniteSampleError("injected")
            return integral(p, acc, row=row)

        monkeypatch.setattr(family, "_integral", failing)
        report = check_ladder(grid=[(1, 0.5), (2, 0.5), (1, 0.3)])
        assert not report.passed
        assert report.max_abs_residual == math.inf
        # g(2, 0.5) ends one difference and starts the next; the point at x = 0.3 stays finite
        assert report.notes.split("; evaluation failures: ")[1] == "(n=1, x=0.5): injected; (n=2, x=0.5): injected"
        # a failed value is not kept: the second difference evaluates g(2, 0.5) again
        assert calls == [(2, 0.5), (3, 0.5), (2, 0.5), (2, 0.3), (1, 0.3)]


class TestAuditsAlwaysComplete:
    def test_table_rows_emitted_despite_budget_exhaustion(self, starved):
        audit = audit_table(starved)
        assert len(audit.rows) == 4
        assert all(math.isfinite(r.computed_value) for r in audit.rows)


class TestSmallXAudit:
    def test_default_rows(self):
        audit = audit_small_x()
        assert len(audit.rows) == 3
        gaps = [abs(r.gap) for r in audit.rows]
        # the gap against 2 H_n - 2 log(2 pi x) shrinks quadratically
        assert gaps[0] <= 1e-4
        assert gaps[0] > gaps[1] > gaps[2]
        for r in audit.rows:
            assert r.reference == pytest.approx(
                2.0 * harmonic(r.n) - 2.0 * math.log(2.0 * math.pi * r.x), rel=1e-15
            )
            assert r.scaled == r.value / (r.x * r.x)
        # nothing like the claimed quadratic vanishing (slope 2)
        assert audit.log_slope < 0.5

    def test_completes_where_x_squared_underflows(self):
        # x^2 is 0 at x = 1e-200; the quotient has overflowed well above that x
        row = audit_small_x(2, xs=(1e-200,)).rows[0]
        assert math.isfinite(row.value)
        assert row.scaled == math.inf
        assert row.gap == 0.0

    def test_checkpoint_row_reused(self):
        audit = audit_small_x(1, xs=(0.5,))
        assert audit.rows[0].value == pytest.approx(G_1_HALF, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            audit_small_x(1, xs=())
        with pytest.raises(DomainError):
            audit_small_x(1, xs=(1e-3, 1e-2))
        with pytest.raises(DomainError):
            audit_small_x(1, xs=(1.5, 0.5))
        with pytest.raises(DomainError):
            audit_small_x(0)


class TestLargeNAudit:
    def test_default_rows(self):
        audit = audit_large_n()
        assert len(audit.rows) == 5
        gaps = [abs(r.gap) for r in audit.rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # n*g grows, refuting any 1/n decay
        scaled = [r.scaled for r in audit.rows]
        assert all(a < b for a, b in zip(scaled, scaled[1:]))
        assert audit.log_slope > 0.0

    def test_order_one_checkpoint(self):
        audit = audit_large_n(0.5, ns=(1,))
        assert audit.rows[0].value == pytest.approx(G_1_HALF, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            audit_large_n(0.5, ns=())
        with pytest.raises(DomainError):
            audit_large_n(0.5, ns=(20, 10))
        with pytest.raises(DomainError):
            audit_large_n(0.5, ns=(0, 10))
        with pytest.raises(DomainError):
            audit_large_n(0.0)


class TestTableAudit:
    def test_emits_exactly_four_rows(self):
        audit = audit_table()
        assert len(audit.rows) == 4

    def test_first_row_residual_reported_not_suppressed(self):
        audit = audit_table()
        row = audit.rows[0]
        assert (row.n, row.x) == (1, 0.5)
        assert row.paper_integral_value == 0.0770
        assert row.computed_value == pytest.approx(G_1_HALF, abs=1e-9)
        assert row.residual_vs_paper == pytest.approx(0.0770 - G_1_HALF, abs=1e-9)

    def test_x_equal_one_row_has_error_estimate(self):
        audit = audit_table()
        row = audit.rows[3]
        assert (row.n, row.x) == (2, 1.0)
        assert row.computed_value == pytest.approx(1.5 - math.log(2.0 * math.pi), abs=1e-9)
        assert row.quad_err >= 0.0

    def test_all_rows_flagged(self):
        audit = audit_table()
        assert len(audit.flagged) == 4
        assert "not reproduced" in audit.summary
        assert audit.max_residual == max(r.residual_vs_paper for r in audit.rows)

    def test_both_published_columns_retained(self):
        audit = audit_table()
        for row in audit.rows:
            assert row.paper_series_value == row.paper_integral_value

    def test_deterministic(self):
        assert audit_table() == audit_table()
