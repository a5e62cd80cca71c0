"""Self-tests of the benchmark: statistics, failure accounting, span
arithmetic, lattices and a tiny smoke run of every workload."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import lattice
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ref():
    return check.load_reference()


# --- tail percentile -------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = check.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_of_a_large_run_is_a_high_percentile():
    value, pct, beyond = check.tail([float(i) for i in range(1000, 0, -1)])
    assert (value, pct, beyond) == (990.0, 99.0, 10)


def test_tail_with_ten_or_fewer_samples_records_the_short_count():
    assert check.tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)


# --- failure accounting ----------------------------------------------------

def _eval_json(n, x, route, value, err=1e-15):
    return json.dumps({"n": n, "x": x, "method": route, "value": value,
                       "err_estimate": err, "evaluations": 101}) + "\n"


def test_exception_fails_the_op(ref):
    t = check.Tally(ref)
    assert t.points(("points", 2, 0.5, "integral"), [0.0, "error: ZeroDivisionError", None, None, 0])
    assert (t.attempted, t.failed, t.unexpected) == (1, 1, 1)


def test_wrong_exit_code_fails_the_op(ref):
    t = check.Tally(ref)
    g = float(ref["g"]["2|0.5"])
    assert t.cli(("eval", 2, 0.5, "integral"), 3, _eval_json(2, 0.5, "integral", g))
    assert t.failed == 1


def test_value_off_the_reference_fails_the_op(ref):
    t = check.Tally(ref)
    g = float(ref["g"]["2|0.5"])
    assert t.points(("points", 2, 0.5, "integral"), [0.0, "value", g * (1 + 1e-5), 1e-15, 101])
    assert not t.points(("points", 3, 0.5, "integral"), [0.0, "value", float(ref["g"]["3|0.5"]), 1e-15, 101])
    assert (t.attempted, t.failed) == (2, 1)


def test_non_identical_repeat_fails_the_later_op(ref):
    t = check.Tally(ref)
    op = ("points", 2, 0.5, "integral")
    g = float(ref["g"]["2|0.5"])
    assert not t.points(op, [0.0, "value", g, 1e-15, 101])
    assert t.points(op, [0.0, "value", g, 2e-15, 101])
    assert t.reasons == {"output differs from the same op earlier in the run": 1}
    assert t.unexpected == 1


def test_expected_domain_errors_count_as_successes(ref):
    t = check.Tally(ref)
    assert not t.points(("points", 1, 1.0, "derivative-series"), [0.0, "domain", None, None, 0])
    assert not t.cli(("eval", 5, 1.0, "derivative-series"), 2, "")
    assert t.failed == 0


def test_known_defects_count_as_failures_but_not_as_unexpected(ref):
    t = check.Tally(ref)
    assert t.points(("points", 1, 1.0, "derivative-cot"), [0.0, "nonconvergence", None, None, 0])
    assert t.points(("points", 1, 0.9999, "derivative-series"), [0.0, "value", 3.6966, 24.0, 200])
    assert t.cli(("eval", 1, 1.0, "derivative-cot"), 3, "")
    assert (t.failed, t.unexpected) == (3, 0)
    assert t.summary()["failed_frac"] == 1.0
    # another kind of failure at a known-defect point is a new failure
    assert t.points(("points", 2, 0.999, "derivative-series"), [0.0, "error: TypeError", None, None, 0])
    assert t.unexpected == 1


def test_bound_violations_and_max_err(ref):
    t = check.Tally(ref)
    g = float(ref["g"]["2|0.5"])
    off = g + 1e-12
    t.points(("points", 2, 0.5, "integral"), [0.0, "value", off, 1e-13, 101])
    t.points(("points", 2, 0.5, "derivative-cot"), [0.0, "value", float(ref["dg"]["2|0.5"]), 1e-13, 101])
    s = t.summary()
    assert s["bound_violation_frac"] == 0.5
    assert s["max_err"] == pytest.approx(1e-12 / abs(g), rel=1e-3)


# --- spans -----------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, 0, 0]


def test_self_time_subtracts_the_union_of_children():
    s = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("cli.evaluate", 1.0, 4.0, 0),
        _span("family.integrate_de", 2.0, 3.0, 1),  # grandchild: not subtracted from the root
        _span("cli.evaluate", 5.0, 6.0, 0),
        _span("cli.evaluate", 5.5, 7.0, 0),  # overlaps its sibling: counted once
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5])


def test_quadrature_levels_come_from_the_engine():
    import worker

    levels = worker.level_samples()
    s = [_span("family.integrate_de", 0.0, 1.0, -1), _span("family.integrate_de", 1.0, 3.0, -1)]
    s[0][spans.COUNT], s[1][spans.COUNT] = 101, 51281
    m = spans.layer_metrics(s, 2, [], levels)
    assert m["quadrature.levels_mean"] == (3 + 12) / 2
    assert m["quadrature.samples_per_call"] == (101 + 51281) / 2


def test_spans_carry_op_and_parent():
    from logsine import GridPoint, evaluate

    rec = spans.Recorder()
    rec.op = 7
    root = rec.wrap("family.evaluate", evaluate)
    replaced = spans.install(rec)
    try:
        root(GridPoint(3, 0.5), method="integral")
    finally:
        spans.uninstall(replaced)
    names = [s[spans.NAME] for s in rec.spans]
    assert names == ["family.evaluate", "family._integral", "family.integrate_de", "family.harmonic"]
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 1, 1]
    assert all(s[spans.OP] == 7 for s in rec.spans)
    assert rec.spans[2][spans.COUNT] == 101

    from logsine import family, quadrature

    assert family.integrate_de is quadrature.integrate_de


# --- lattices --------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(lattice.PASSES))
def test_passes_are_seeded_and_fully_referenced(workload, ref):
    make = lattice.PASSES[workload]
    assert make(3, 1) == make(3, 1)
    assert make(3, 1) != make(4, 1)
    assert len(make(3, 1)) == len(make(4, 1))
    for op in make(3, 2):
        if op[0] in ("points", "eval"):
            check.expected(ref, *op[1:])
        elif op[0] == "table":
            assert lattice.TABLE_N_MIN <= op[1] <= lattice.TABLE_N
            for n in range(1, op[1] + 1):
                assert all(f"{n}|{x!r}" in ref["g"] for x in op[2])
        elif op[0] == "audit":
            assert all(f"{n}|{x!r}" in ref["g"] for n, x in lattice.audit_points(op[1], op[2]))


def test_points_ops_are_distinct():
    ops = lattice.points_pass(5, 30)
    assert len(set(ops)) == len(ops) == 30 * 54
    repeats = lattice.points_repeats(ops)
    assert set(repeats) <= set(ops) and len(repeats) == len(ops[::4])


def test_ci_runs_each_command_once_per_job():
    ops = lattice.ci_pass(5, 12)
    kinds = [op[0] for op in ops]
    assert {k: kinds.count(k) for k in kinds} == {"verify": 24, "audit": 24, "eval": 24}
    assert sorted(ops[:36]) == sorted(ops[36:])
    routes = [op[3] for op in ops[:36] if op[0] == "eval"]
    assert all(routes.count(r) == 4 for r in lattice.ROUTES)


def test_consecutive_points_ops_share_neither_n_nor_x():
    ops = lattice.points_pass(5, 1)
    assert all(a[1] != b[1] and a[2] != b[2] for a, b in zip(ops, ops[1:]))


def test_points_mix_is_the_same_for_every_seed():
    def mix(ops):
        cells = {}
        for _, n, x, route in ops:
            band = next(b for b, ns in lattice.N_BANDS.items() if n in ns)
            cells[band, route] = cells.get((band, route), 0) + 1
        return cells

    assert mix(lattice.points_pass(1, 3)) == mix(lattice.points_pass(2, 3))


# --- smoke runs ------------------------------------------------------------

@pytest.fixture
def tiny(monkeypatch):
    """Passes cut to a few ops, and one set-up sample."""
    full = dict(lattice.PASSES)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", run.ROOT / ".perfbench_out" / "selftest")
    for name, make in full.items():
        keep = 12 if name == "points" else 2
        monkeypatch.setitem(lattice.PASSES, name, lambda seed, scale, make=make, keep=keep: make(seed, scale)[:keep])


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(lattice.PASSES))
def test_smoke_untraced(tiny, workload):
    res = _result(["--workload", workload, "--seed", "1", "--seconds", "0.01"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(lattice.PASSES))
def test_smoke_traced(tiny, workload):
    res = _result(["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"])
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_traced_cli_op_ends_like_a_process(monkeypatch):
    import worker
    from logsine import cli

    rec = spans.Recorder()
    assert worker._traced_main(rec, ["no-such-command"])[0] == 2
    monkeypatch.setattr(cli, "main", lambda argv: 1 / 0)
    assert worker._traced_main(rec, ["eval", "--n", "1", "--x", "0.5"]) == (1, "")


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["table-grid", "points", "ci"]


def test_refuses_to_run_without_the_source(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
