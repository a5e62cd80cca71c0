"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
one pass/fail line (visible with `pytest tests/test_acceptance.py -v -s`).
"""

import math
import subprocess
import sys
import time

import logsine as ls
from logsine.verify import DEFAULT_LADDER_GRID

ZETA_3 = 1.2020569031595943


def _criterion(name, passed, detail):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_closed_form_checkpoints():
    t0 = time.perf_counter()
    targets = [
        (ls.GridPoint(1, 0.5), 1.0 - math.log(math.pi)),
        (ls.GridPoint(2, 0.5), 1.5 - math.log(math.pi) + 3.5 * ZETA_3 / math.pi**2),
        (ls.GridPoint(1, 1.0), 1.0 - math.log(2.0 * math.pi)),
    ]
    worst = max(abs(ls.eval_integral(p) - expected) for p, expected in targets)
    elapsed = time.perf_counter() - t0
    _criterion(
        "closed-form checkpoints",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.3e} (tol 1e-09), runtime {elapsed:.2f}s (< 1s)",
    )


def test_derivative_identity():
    t0 = time.perf_counter()
    report = ls.check_derivative()
    elapsed = time.perf_counter() - t0
    _criterion(
        "derivative identity (fd vs cot)",
        report.passed and report.max_abs_residual <= 1e-6 and elapsed < 5.0,
        f"max residual {report.max_abs_residual:.3e} over {len(report.grid)} points "
        f"(tol 1e-06), runtime {elapsed:.2f}s (< 5s)",
    )


def test_ladder_identity_and_path_equivalence():
    t0 = time.perf_counter()
    ladder = ls.check_ladder()
    # path equivalence, pointwise: |eval_via_ladder - eval_integral| <= n * 1e-8 over the ladder grid
    path = max(abs(ls.eval_via_ladder(p) - ls.eval_integral(p)) / p.n for p in DEFAULT_LADDER_GRID)
    elapsed = time.perf_counter() - t0
    _criterion(
        "ladder identity + path equivalence",
        ladder.passed and ladder.max_abs_residual <= 1e-8 and path <= 1e-8 and elapsed < 10.0,
        f"ladder residual {ladder.max_abs_residual:.3e} (tol 1e-08), "
        f"path residual/n {path:.3e} (tol 1e-08), "
        f"runtime {elapsed:.2f}s (< 10s)",
    )


def test_generating_function():
    t0 = time.perf_counter()
    report = ls.check_genfunc(xs=(0.3, 0.5), zs=(-0.5, -0.3, 0.3, 0.5), N=60)
    elapsed = time.perf_counter() - t0
    _criterion(
        "generating function closed form vs partial sums",
        report.passed and elapsed < 10.0,
        f"max residual {report.max_abs_residual:.3e} (tol {report.tolerance:.3e} "
        f"= 1e-08 + tail bound), runtime {elapsed:.2f}s (< 10s)",
    )


def test_bernoulli_zeta():
    t0 = time.perf_counter()
    report = ls.check_bernoulli_zeta(30)
    elapsed = time.perf_counter() - t0
    _criterion(
        "bernoulli vs direct even zeta",
        report.passed and report.max_abs_residual <= 1e-12 and elapsed < 1.0,
        f"max relative residual {report.max_abs_residual:.3e} for m=1..30 (tol 1e-12), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_series_constant_discrimination():
    report = ls.check_series_constant()
    uniform = "matching variant: corrected" in report.notes and "as_printed=0" in report.notes
    _criterion(
        "series-constant discrimination",
        report.passed and uniform,
        f"max residual {report.max_abs_residual:.3e} (tol 1e-08); notes: {report.notes}",
    )


def test_audit_reports():
    table_a = ls.audit_table()
    table_b = ls.audit_table()
    row = table_a.rows[0]
    table_ok = (
        len(table_a.rows) == 4
        and (row.n, row.x) == (1, 0.5)
        and abs(row.computed_value - (1.0 - math.log(math.pi))) <= 1e-9
        and abs(row.residual_vs_paper - (0.0770 - (1.0 - math.log(math.pi)))) <= 1e-9
        and table_a == table_b
    )
    small = ls.audit_small_x()
    large = ls.audit_large_n()
    comparison_ok = True
    for audit in (small, large):
        for r in audit.rows:
            reference = 2.0 * ls.harmonic(r.n) - 2.0 * math.log(2.0 * math.pi * r.x)
            comparison_ok &= abs(r.gap - (r.value - reference)) <= 1e-12
    _criterion(
        "audit reports (published table + asymptotics)",
        table_ok and comparison_ok,
        f"row (1,0.5): computed {row.computed_value:.7f} vs published "
        f"{row.paper_integral_value}, residual {row.residual_vs_paper:.4f} reported; "
        f"asymptotic audits emit g - (2H_n - 2log(2 pi x)) on every row",
    )


def test_verify_is_deterministic():
    cmd = [sys.executable, "-m", "logsine", "verify"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    _criterion(
        "verify determinism",
        first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout,
        f"two runs, exit codes {first.returncode}/{second.returncode}, "
        f"stdout identical: {first.stdout == second.stdout}",
    )
