import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import logsine.cli as cli
import logsine.family as family
from logsine import LADDER_MAX_ORDER, Accuracy, Evaluation, GridPoint, IdentityReport, NonConvergenceError, evaluate

G_1_HALF = 1.0 - math.log(math.pi)
ZETA_3 = 1.2020569031595943
G_2_HALF = 1.5 - math.log(math.pi) + 3.5 * ZETA_3 / math.pi**2
G_3_HALF = 11.0 / 6.0 - math.log(math.pi) + 6.0 * ZETA_3 / math.pi**2
# g(40, 1) from a 30-digit mpmath evaluation of the integral
G_40_ONE = 4.88324646089990972661343507592
# Too few refinements to converge: the fewest the engine takes, to a tolerance levels 2 and 3 do not meet.
STARVED = Accuracy(quad_rel_tol=1e-300, max_quad_refinements=3)
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_plain(line):
    return dict(tok.split("=", 1) for tok in line.split())


class TestEval:
    def test_default_integral(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "1", "--x", "0.5")
        assert code == 0
        record = parse_plain(out.splitlines()[0])
        assert record["method"] == "integral"
        assert float(record["value"]) == pytest.approx(G_1_HALF, abs=1e-9)

    def test_ladder_method(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--x", "0.5", "--method", "ladder")
        assert code == 0
        assert float(parse_plain(out.splitlines()[0])["value"]) == pytest.approx(G_2_HALF, abs=1e-9)

    def test_series_constants(self, capsys):
        # the series route adds the corrected constant -2: x g'(1, 1/2) = -1 - log 2
        _, out_corrected, _ = run(
            capsys, "eval", "--n", "1", "--x", "0.5", "--method", "derivative-series"
        )
        corrected = float(parse_plain(out_corrected.splitlines()[0])["value"])
        assert corrected == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)

    def test_constant_flag_is_gone_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "--n", "1", "--x", "0.5", "--method", "derivative-series", "--constant", "corrected"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --constant corrected" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["integral", "derivative-cot", "ladder"])
    def test_order_past_the_largest_float_exit_2(self, capsys, method):
        # the quadrature routes take n as a float; the ladder refuses it at its order cap first
        code, out, err = run(capsys, "eval", "--n", str(10**400), "--x", "0.5", "--method", method)
        assert code == 2
        assert out == ""
        assert "n must satisfy" in err and "Traceback" not in err

    def test_order_past_the_largest_float_on_the_series_route(self, capsys):
        # the series route takes any order: every term has vanished, so it prints the bare constant
        code, out, _ = run(capsys, "eval", "--n", str(10**400), "--x", "0.5", "--method", "derivative-series")
        assert code == 0
        assert float(parse_plain(out.splitlines()[0])["value"]) == -2.0

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "1", "--x", "0")
        assert code == 2
        assert "x must satisfy 0 < x <= 1" in err

    def test_order_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "0", "--x", "0.5")
        assert code == 2
        assert "n must satisfy n >= 1" in err

    def test_missing_argument_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "--x", "0.5"])
        assert excinfo.value.code == 2

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--x", "0.5", "--format", "json-lines")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert list(record) == list(cli.EVAL_HEADER)
        assert record["value"] == pytest.approx(G_1_HALF, abs=1e-9)

    def test_non_convergence_exit_3(self, capsys, monkeypatch):
        def raiser(*args, **kwargs):
            raise NonConvergenceError("no convergence", Evaluation(1.25, 0.5, 77, converged=False))

        monkeypatch.setattr(cli, "evaluate", raiser)
        code, out, err = run(capsys, "eval", "--n", "1", "--x", "0.5")
        assert code == 3
        assert "warning" in err
        assert float(parse_plain(out.splitlines()[0])["value"]) == 1.25

    def test_non_convergence_prints_ladder_sum(self, capsys, monkeypatch):
        # the rungs run out of budget; the printed value is still g(3, 1/2)
        monkeypatch.setattr(cli, "DEFAULT_ACCURACY", STARVED)
        code, out, err = run(capsys, "eval", "--n", "3", "--x", "0.5", "--method", "ladder")
        assert code == 3
        assert "best estimate" in err
        record = parse_plain(out.splitlines()[0])
        assert float(record["value"]) == pytest.approx(G_3_HALF, abs=1e-9)

    def test_tiny_x_is_the_leading_term(self, capsys):
        # the remainder integral underflows to 0, leaving 2 H_2 - 2 log(2 pi x)
        code, out, _ = run(capsys, "eval", "--n", "2", "--x", "5e-324")
        assert code == 0
        expected = 3.0 - 2.0 * (math.log(2.0 * math.pi) + math.log(5e-324))
        assert float(parse_plain(out.splitlines()[0])["value"]) == pytest.approx(expected, rel=1e-14)
        code, out, _ = run(capsys, "eval", "--n", "2", "--x", "5e-324", "--method", "derivative-cot")
        assert code == 0
        assert float(parse_plain(out.splitlines()[0])["value"]) == -2.0

    def test_cot_divergence_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "1", "--x", "1", "--method", "derivative-cot")
        assert code == 2
        assert out == ""
        assert "diverges like log(1-x) at n = 1, x = 1" in err

    @pytest.mark.parametrize("command", [
        ["eval", "--n", "1", "--x", "0.5"],
        ["eval", "--n", "1", "--x", "0.8", "--method", "derivative-series"],
        ["verify", "--only", "series_constant"],
    ])
    def test_max_terms_flag_is_gone_exit_2(self, capsys, command):
        # the series route has no term cap: the split series takes at most 23 terms at any x < 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(command + ["--max-terms", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-terms 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["eval", "--n", "1", "--x", "0.8", "--method", "derivative-series"],
        ["verify", "--only", "bernoulli_zeta"],
    ])
    def test_series_tol_flag_is_gone_exit_2(self, capsys, command):
        # both series stop at one fixed bound, below the x g' route's rounding floor: there is no tolerance to set
        with pytest.raises(SystemExit) as excinfo:
            cli.main(command + ["--series-tol", "1e-10"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --series-tol 1e-10" in capsys.readouterr().err

    def test_series_near_one(self, capsys):
        # x g'(1, 0.9999) = -4 + P + M + R; the capped loop printed 3.6966 here with exit 0
        code, out, _ = run(capsys, "eval", "--n", "1", "--x", "0.9999", "--method", "derivative-series")
        assert code == 0
        record = parse_plain(out.splitlines()[0])
        assert (record["value"], record["evaluations"]) == ("6.3733006520804", "23")

    def test_tolerance_flags_accepted(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--x", "0.5", "--quad-tol", "1e-8")
        assert code == 0
        assert float(parse_plain(out.splitlines()[0])["value"]) == pytest.approx(G_1_HALF, abs=1e-7)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--quad-tol", "nan"),
            ("--quad-tol", "inf"),
            # the series route reads no budget, yet a budget it is handed must still be a valid one
            ("--quad-tol", "nan", "--method", "derivative-series"),
        ],
    )
    def test_tolerance_not_finite_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--n", "2", "--x", "0.5", *flags)
        assert code == 2
        assert out == ""
        assert "must be finite and strictly positive" in err

    def test_series_route_rejects_x_equal_one(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "1", "--x", "1", "--method", "derivative-series")
        assert code == 2
        assert "series" in err

    @pytest.mark.parametrize("n", ["2", "5"])
    def test_series_route_refuses_x_one_where_the_derivative_is_finite(self, capsys, n):
        # the ladder reads x g'(n, 1) from the series sum, but the public route still stops short of its radius
        code, out, err = run(capsys, "eval", "--n", n, "--x", "1", "--method", "derivative-series")
        assert (code, out) == (2, "")
        assert "x must satisfy x < 1 on the series route" in err

    def test_ladder_at_x_one_reads_no_quadrature(self, capsys):
        # g(1, 1) is a closed form and each step a series sum: the evaluations are the sum's terms
        code, out, _ = run(capsys, "eval", "--n", "5", "--x", "1", "--method", "ladder")
        assert code == 0
        record = parse_plain(out.splitlines()[0])
        assert (record["value"], record["err_estimate"], record["evaluations"]) == (
            "0.974587293589167", "1.1496048943058e-14", "54")


class TestTable:
    def test_csv_columns_and_values(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n-list", "1,2,3", "--x-list", "0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,x,g_integral,g_ladder,abs_diff,quad_err"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(G_1_HALF, abs=1e-9)

    def test_csv_round_trips(self, capsys):
        _, out, _ = run(capsys, "table", "--n-list", "1,2", "--x-list", "0.3,0.7", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        assert buf.getvalue() == out

    def test_json_lines_keys_match_csv_header(self, capsys):
        _, out, _ = run(capsys, "table", "--n-list", "1", "--x-list", "0.5", "--format", "json-lines")
        record = json.loads(out.splitlines()[0])
        assert list(record) == list(cli.TABLE_HEADER)

    def test_non_convergence_prints_integral_value(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_ACCURACY", STARVED)
        code, out, err = run(capsys, "table", "--n-list", "40", "--x-list", "1")
        assert code == 3
        assert "warning: n=40 x=1 integral" in err
        record = parse_plain(out.splitlines()[0])
        assert float(record["g_integral"]) == pytest.approx(G_40_ONE, abs=1e-9)
        assert float(record["abs_diff"]) < 1e-9

    def test_tiny_x_is_the_leading_term(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "2", "--x-list", "1e-320")
        assert code == 0
        record = parse_plain(out.splitlines()[0])
        expected = 3.0 - 2.0 * (math.log(2.0 * math.pi) + math.log(1e-320))
        assert float(record["g_integral"]) == pytest.approx(expected, rel=1e-14)
        assert float(record["g_ladder"]) == pytest.approx(expected, rel=1e-14)

    def test_empty_list_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--n-list", "1", "--x-list", "")
        assert code == 2
        assert "non-empty" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("table", "--n-list", "3,1000000", "--x-list", "0.5"), id="table"),
            pytest.param(("eval", "--method", "ladder", "--n", "1000000", "--x", "0.5"), id="eval"),
        ],
    )
    def test_ladder_past_its_cap_exit_2_before_any_quadrature(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(family, "integrate_de", lambda f, acc: calls.append(f))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"n <= {LADDER_MAX_ORDER} (LADDER_MAX_ORDER)" in err
        assert calls == []

    def test_bad_grid_emits_nothing(self, capsys):
        code, out, _ = run(capsys, "table", "--n-list", "1,2", "--x-list", "0.5,1.5")
        assert code == 2
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--n-list", "1", "--x-list", "0.5",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "n,x,g_integral,g_ladder,abs_diff,quad_err"


def table_rows(monkeypatch, *argv):
    # the unformatted rows of one `table` run, so columns compare bit for bit
    rows = []
    monkeypatch.setattr(cli, "_emit_rows", lambda ns, header, emitted: rows.extend(emitted))
    code = cli.main(["table", *argv])
    return code, rows


def warning_prefixes(err):
    # "warning: n=N x=X route:" of every warning line, in stream order
    return [" ".join(line.split()[:4]) for line in err.splitlines()]


class TestTableLadderClimb:
    # one ladder climb per distinct x serves every row at that x
    def test_ladder_column_matches_the_ladder_route(self, monkeypatch):
        code, rows = table_rows(monkeypatch, "--n-list", "3,1,2,3", "--x-list", "0.5,0.5,0.25")
        assert code == 0
        assert [(n, x) for n, x, *_ in rows] == [(n, x) for n in (3, 1, 2, 3) for x in (0.5, 0.5, 0.25)]
        for n, x, integral, ladder, diff, _ in rows:
            assert ladder == evaluate(GridPoint(n, x), method="ladder").value
            assert integral == evaluate(GridPoint(n, x)).value
            assert diff == abs(integral - ladder)

    def test_one_climb_per_distinct_x(self, monkeypatch):
        steps = []
        step = family._ladder_delta

        def counting(n, x):
            steps.append(x)
            return step(n, x)

        monkeypatch.setattr(family, "_ladder_delta", counting)
        code, _ = table_rows(monkeypatch, "--n-list", "3,1,2,3", "--x-list", "0.5,0.5,0.25")
        assert code == 0
        # max(n-list) - 1 = 2 steps at each of the two distinct x
        assert sorted(steps) == [0.25, 0.25, 0.5, 0.5]

    def test_kernel_sampled_once_per_scale_level_and_node(self, monkeypatch):
        # the integral column and the climb at one x share one row of kernel samples
        calls = []
        kernel = family._log_sinc_less_w2

        def counting(w):
            calls.append(w)
            return kernel(w)

        monkeypatch.setattr(family, "_log_sinc_less_w2", counting)
        code, rows = table_rows(monkeypatch, "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7")
        assert code == 0
        assert len(calls) == len(set(calls))
        # every order at these x stops at the same level, so each x costs one integral's samples
        monkeypatch.undo()
        assert len(calls) == 2 * evaluate(GridPoint(1, 0.3)).evaluations
        for n, x, integral, ladder, _, quad_err in rows:
            single = evaluate(GridPoint(n, x))
            assert (integral, quad_err) == (single.value, single.err_estimate)
            assert ladder == evaluate(GridPoint(n, x), method="ladder").value

    def test_climb_reads_the_integral_columns_first_order(self, monkeypatch):
        # per x: 10 orders of g; the climb's rung 1 is g(1, x) itself, and its 9 steps above it are series sums
        calls = []
        integrate_de = family.integrate_de

        def counting(f, acc):
            calls.append(f)
            return integrate_de(f, acc)

        monkeypatch.setattr(family, "integrate_de", counting)
        code, _ = table_rows(monkeypatch, "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7")
        assert code == 0
        assert len(calls) == 2 * 10

    def test_starved_table_keeps_its_warnings(self, capsys, monkeypatch):
        # only the order-5 integrals run out of budget
        integral = family._integral
        monkeypatch.setattr(
            family, "_integral", lambda p, acc, row=None: integral(p, STARVED if p.n == 5 else acc, row=row)
        )
        code, _, err = run(capsys, "table", "--n-list", "1,2,3,5", "--x-list", "0.5,1")
        assert code == 3
        assert warning_prefixes(err) == ["warning: n=5 x=0.5 integral:", "warning: n=5 x=1 integral:"]

    def test_non_converged_rungs_warn_in_row_order(self, capsys, monkeypatch):
        # the warnings a row-by-row evaluation of both routes gives, in order;
        # three refinements at 1e-16 starve some quadratures and not others
        # (none at x = 0.5, all but the order-3 integral at x = 0.99)
        acc = Accuracy(quad_rel_tol=1e-16, max_quad_refinements=3)
        monkeypatch.setattr(cli, "DEFAULT_ACCURACY", acc)
        expected = []
        for n in (3, 1, 2):
            for x in (0.5, 0.99):
                for method in ("integral", "ladder"):
                    try:
                        evaluate(GridPoint(n, x), method=method, acc=acc)
                    except NonConvergenceError:
                        expected.append(f"warning: n={n} x={cli.fmt(x)} {method}:")
        assert any(w.endswith("ladder:") for w in expected)
        code, _, err = run(capsys, "table", "--n-list", "3,1,2", "--x-list", "0.5,0.99")
        assert code == 3
        assert warning_prefixes(err) == expected


class TestVerify:
    def test_default_suite_passes_and_is_deterministic(self, capsys):
        code_a, out_a, _ = run(capsys, "verify")
        code_b, out_b, _ = run(capsys, "verify")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.count("identity:") == 5
        assert "all 5 checks passed" in out_a

    def test_only_single_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "ladder_vs_diff")
        assert code == 0
        assert out.count("identity:") == 1
        assert "ladder_vs_diff" in out

    @pytest.mark.parametrize("tol", ["1e-12", "1e-10"])
    def test_ladder_notes_name_the_quadrature_tolerance(self, capsys, tol):
        argv = ("verify", "--only", "ladder_vs_diff") + (("--quad-tol", tol) if tol != "1e-12" else ())
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert f"notes: tolerance from the error budget of two {tol} quadratures and one step" in out

    def test_path_equivalence_is_gone_exit_2(self, capsys):
        # its residual telescoped into ladder_vs_diff's: verify knows the five default ids only
        assert cli.IDENTITY_IDS == (
            "derivative_fd_vs_cot", "ladder_vs_diff", "series_constant", "genfunc", "bernoulli_zeta",
        )
        code, out, err = run(capsys, "verify", "--only", "path_equivalence")
        assert code == 2
        assert out == ""
        assert "unknown identity id: path_equivalence" in err

    def test_unknown_identity_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "no_such_id")
        assert code == 2
        assert "unknown identity id" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "bernoulli_zeta", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli.REPORT_HEADER)
        assert rows[1][0] == "bernoulli_zeta"
        assert rows[1][4] == "true"

    def test_failing_check_exit_1(self, capsys, monkeypatch):
        forced = IdentityReport(
            identity_id="bernoulli_zeta",
            grid=(1,),
            max_abs_residual=1.0,
            tolerance=1e-12,
            passed=False,
            notes="forced failure for exit-code coverage",
        )
        monkeypatch.setitem(cli.VERIFY_RUNNERS, "bernoulli_zeta", lambda acc: forced)
        code, out, _ = run(capsys, "verify", "--only", "bernoulli_zeta")
        assert code == 1
        assert "FAILED" in out

    def test_escaped_non_convergence_exit_3(self, capsys, monkeypatch):
        def raiser(acc):
            raise NonConvergenceError("no convergence", Evaluation(0.0, 1.0, 101, converged=False))

        monkeypatch.setitem(cli.VERIFY_RUNNERS, "bernoulli_zeta", raiser)
        code, _, err = run(capsys, "verify", "--only", "bernoulli_zeta")
        assert code == 3
        assert "error" in err


class TestAudit:
    def test_always_exit_zero(self, capsys):
        code, out, _ = run(capsys, "audit")
        assert code == 0
        assert out.count("audit:") == 3

    def test_table_only(self, capsys):
        code, out, _ = run(capsys, "audit", "--only", "table")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  n=")]
        assert len(rows) == 4
        assert "residual_vs_paper" in out

    def test_small_x_with_order(self, capsys):
        code, out, _ = run(capsys, "audit", "--only", "small-x", "--n", "1")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  n=")]
        assert len(rows) == 3
        assert "x=0.0001" in out

    def test_subnormal_x_has_no_gap(self, capsys):
        # at x = 5e-324 the remainder underflows to 0, so the value is the
        # leading term 2 H_n - 2 log(2 pi x) itself
        code, out, _ = run(capsys, "audit", "--only", "large-n", "--x", "5e-324")
        assert code == 0
        rows = [parse_plain(line) for line in out.splitlines() if line.startswith("  n=")]
        assert len(rows) == 5
        for row in rows:
            assert float(row["gap"]) == 0.0
            assert row["reference"] == row["value"]

    def test_unknown_audit_exit_2(self, capsys):
        code, _, err = run(capsys, "audit", "--only", "bogus")
        assert code == 2
        assert "unknown audit name" in err

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "audit", "--only", "table", "--format", "json-lines")
        assert code == 0
        lines = out.splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 5  # 4 data rows + 1 summary object
        assert rows[0]["audit"] == "table"
        assert "summary" in rows[-1]

    @pytest.mark.parametrize(
        "name,header",
        [
            ("table", "audit,n,x,paper_series_value,paper_integral_value,computed_value,residual_vs_paper,quad_err"),
            ("small-x", "audit,n,x,value,value_over_x2,reference,gap,quad_err"),
            ("large-n", "audit,n,x,value,n_times_value,reference,gap,quad_err"),
        ],
    )
    def test_headers(self, capsys, name, header):
        # each audit's csv header, and the keys of its json-lines rows, name its columns in order
        code, out, _ = run(capsys, "audit", "--only", name, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == header
        code, out, _ = run(capsys, "audit", "--only", name, "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [",".join(record) for record in records[:-1]] == [header] * (len(records) - 1)
        assert list(records[-1]) == ["audit", "summary"]


def run_python(code):
    # a fresh interpreter, which finds logsine where this one did
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


class TestReadmeAuditBundle:
    # the README's audit-bundle commands, run in-process with --out redirected
    def test_each_command_writes_its_file(self, tmp_path, capsys):
        block = re.search(r"```sh\nmkdir -p audit_out\n(.*?)```", README.read_text(), re.S).group(1)
        commands = [shlex.split(line) for line in block.splitlines()]
        assert len(commands) == 6
        for program, *argv in commands:
            assert program == "logsine"
            out = argv.index("--out") + 1
            argv[out] = str(tmp_path / Path(argv[out]).relative_to("audit_out"))
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        written = sorted(tmp_path.iterdir())
        assert len(written) == 6
        assert all(path.stat().st_size > 0 for path in written)


class TestWithoutNumpy:
    def test_every_command_runs_with_numpy_blocked(self):
        # a None entry in sys.modules makes every `import numpy` raise ImportError
        result = run_python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import logsine.cli as cli\n"
            "codes = [cli.main(argv) for argv in (\n"
            "    ['verify'],\n"
            "    ['audit'],\n"
            "    ['eval', '--n', '2', '--x', '0.5', '--method', 'derivative-series'],\n"
            "    ['table', '--n-list', '1,2', '--x-list', '0.5,1'],\n"
            ")]\n"
            "sys.exit(0 if codes == [0, 0, 0, 0] else f'exit codes {codes}')\n"
        )
        assert result.returncode == 0, result.stderr

    def test_import_does_not_load_numpy(self):
        result = run_python("import sys, logsine; print('numpy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestImportCost:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # compare against a snapshot: site may preload modules of its own
        result = run_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import logsine.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_loads_neither_decimal_nor_fractions(self):
        # nothing imports decimal, and only the Bernoulli table imports fractions
        result = run_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import logsine.cli\n"
            "print(sorted({'decimal', 'fractions'} & (set(sys.modules) - before)))\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_series_route_and_table_load_neither_decimal_nor_fractions(self):
        # the ladder's steps and the series route read zeta(2m) from the Bernoulli table's int pairs;
        # only bernoulli_even builds a Fraction
        result = run_python(
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from logsine import GridPoint, bernoulli_even, cli, evaluate\n"
            "evaluate(GridPoint(5, 0.5), method='derivative-series')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['table', '--n-list', '1,2,3', '--x-list', '0.5']) == 0\n"
            "print(sorted({'decimal', 'fractions'} & (set(sys.modules) - before)))\n"
            "bernoulli_even(1)\n"
            "print(sorted({'decimal', 'fractions'} & (set(sys.modules) - before)))\n"
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "[]" and "'fractions'" in lines[1]



# a valid command per subcommand, and the flags each takes a value for
VALID_COMMANDS = {
    "eval": ["eval", "--n", "2", "--x", "0.5", "--method", "integral"],
    "table": ["table", "--n-list", "1,2", "--x-list", "0.5"],
    "verify": ["verify", "--only", "bernoulli_zeta"],
    "audit": ["audit", "--only", "small-x,large-n", "--n", "1", "--x", "0.5"],
}
BAD_FLAG_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e400", "1" + "0" * 400, "1.5", "x", ""]
# catalogue values that are valid for a flag, and the exit code they give: 1.5 is a finite positive tolerance; the
# series routes stop at one fixed bound, so --series-tol is no flag and every value of it is refused
VALID_FLAG_VALUES = {(command, "--quad-tol"): {"1.5": 0} for command in VALID_COMMANDS}


class TestBadFlagCatalogue:
    # a flag value that the command cannot take exits 2 with an error on stderr and nothing on stdout, never with a
    # traceback
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, argv in VALID_COMMANDS.items() for flag in argv[1::2]
    ] + [(command, flag) for command in VALID_COMMANDS for flag in ("--quad-tol", "--series-tol")])
    def test_bad_value_exits_2(self, capsys, command, flag):
        outcomes = {}
        for bad in BAD_FLAG_VALUES:
            argv = list(VALID_COMMANDS[command])
            if flag in argv:
                argv[argv.index(flag) + 1] = bad
            else:
                argv += [flag, bad]
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a value its type cannot read
                code = exc.code
            out, err = capsys.readouterr()
            outcomes[bad] = (code, out == "", "error" in err) if code == 2 else code
        expected = {bad: (2, True, True) for bad in BAD_FLAG_VALUES}
        expected.update(VALID_FLAG_VALUES.get((command, flag), {}))
        assert outcomes == expected
