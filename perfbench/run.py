"""logsine benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {points,table-grid,ci} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; logsine is imported from src/.
With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it spends half the time untraced and half traced, and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import lattice
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable
WORKER = str(HERE / "worker.py")
OUT_DIR = ROOT / ".perfbench_out"
# Metric names and units come from the benchmark definition.
BENCHMARK = ROOT / "BENCHMARK.json"

# Set-up samples per run, half taken before the measured loop, half after.
SETUP_REPEATS = 20
PROBE_REPEATS = 3
# Pass size: scale units per measured second, so one pass of the seed
# fills about --seconds. A unit is one op from every points cell (54 ops),
# one table per lap, or one verify + audit + eval CI job per lap.
RATES = {"points": 1.8, "table-grid": 0.9, "ci": 0.5}
SETUP_ARGV = {
    "points": [WORKER, "setup"],
    "table-grid": ["-m", "logsine", "table", "--n-list", "1,2", "--x-list", "0.5", "--format", "csv"],
    "ci": ["-m", "logsine", "eval", "--n", "1", "--x", "0.5", "--format", "json-lines"],
}
# Outcome metrics: printed on every run with their check.* unit, reported
# in the traced run. They may read 0, so they carry no bound.
CHECKS = ("failed_frac", "max_err", "bound_violation_frac")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


ENV = _env()


def spawn(args: list[str], stdin: bytes | None = None, quiet: bool = False) -> tuple[int, str, float, int]:
    """Run PY with args to completion: (exit code, stdout, wall s, peak RSS kB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [PY, *args], cwd=ROOT, env=ENV,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
    )
    if stdin is not None:
        p.stdin.write(stdin)
        p.stdin.close()
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), time.perf_counter() - t0, usage.ru_maxrss


def _worker(args: list[str], stdin: bytes | None = None) -> tuple[dict, int, float]:
    """JSON output, peak RSS (kB) and wall s of one worker.py process."""
    code, out, wall, rss = spawn([WORKER, *args], stdin)
    try:
        data = json.loads(out) if code == 0 else None
    except ValueError:
        data = None
    if data is None:
        raise BenchError(f"worker {args[0]} exited {code} without a JSON result")
    return data, rss, wall


def setup_walls(workload: str, repeats: int) -> list[float]:
    """Wall times of fresh processes from start to the first result."""
    walls = []
    for _ in range(repeats):
        code, _, wall, _ = spawn(SETUP_ARGV[workload], quiet=True)
        if code != 0:
            raise BenchError(f"set-up op of {workload} exited {code}")
        walls.append(wall)
    return walls


def _merge(dest: list, spans_of_op: list, op: int) -> None:
    offset = len(dest)
    for s in spans_of_op:
        s[spans.PARENT] = s[spans.PARENT] + offset if s[spans.PARENT] >= 0 else -1
        s[spans.OP] = op
        dest.append(s)


def measure(workload: str, seed: int, seconds: float, traced: bool, ref: dict) -> dict:
    """One closed-loop pass over the workload's fixed op list."""
    scale = max(1, round(seconds * RATES[workload]))
    try:
        ops = lattice.PASSES[workload](seed, scale)
    except ValueError as exc:
        raise BenchError(f"--seconds {seconds:g} is too long for the lattice: {exc}") from exc
    tally = check.Tally(ref)
    run = {"ops": ops, "traced": traced, "spans": [], "nonzero_exits": 0, "tally": tally}
    if workload == "points":
        data, run["rss_kb"], _ = _worker(["points", str(int(traced))], json.dumps(ops).encode())
        run["latencies"], run["wall"] = [r[0] for r in data["results"]], data["wall"]
        run["spans"], run["levels"] = data["spans"], data["levels"]
        for op, result in zip(ops, data["results"]):
            tally.points(op, result)
        # a fresh process repeats some ops, untimed, to check bit-identical output
        repeats = lattice.points_repeats(ops)
        again, _, _ = _worker(["points", "0"], json.dumps(repeats).encode())
        for op, result in zip(repeats, again["results"]):
            tally.points(op, result)
        return run
    outputs = []
    peak = 0
    latencies = []
    start = time.perf_counter()
    for op in ops:
        argv = lattice.cli_argv(op)
        if traced:
            data, rss, wall = _worker(["cli", *argv])
            code, out = data["code"], data["stdout"]
            _merge(run["spans"], data["spans"], len(outputs))
            run["levels"] = data["levels"]
        else:
            code, out, wall, rss = spawn(["-m", "logsine", *argv], quiet=True)
        run["nonzero_exits"] += code != 0
        outputs.append((op, code, out))
        latencies.append(wall)
        peak = max(peak, rss)
    run["latencies"], run["wall"] = latencies, time.perf_counter() - start
    for op, code, out in outputs:
        tally.cli(op, code, out)
    run["rss_kb"] = peak
    return run


def end_to_end(run: dict) -> tuple[dict, dict]:
    """End-to-end metrics of one measured run but setup_s, and tail details."""
    latencies = run["latencies"]
    value, percentile, beyond = check.tail(latencies)
    m = {
        "ops_per_s": len(latencies) / run["wall"],
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * value,
        **run["tally"].summary(),
        "peak_rss_mb": run["rss_kb"] / 1024,
    }
    return m, {"percentile": percentile, "samples": len(latencies), "beyond": beyond}


def per_layer(workload: str, seed: int, seconds: float, ref: dict) -> tuple[dict, list]:
    plain = measure(workload, seed, seconds / 2, False, ref)
    traced = measure(workload, seed, seconds / 2, True, ref)
    probe, _, _ = _worker(["probe"])
    if probe["codes"] != [0, 0]:
        raise BenchError(f"probe commands exited {probe['codes']}")
    m = spans.layer_metrics(traced["spans"], len(traced["latencies"]), probe["spans"], traced["levels"])
    firsts = [_worker(["first-calls"])[0] for _ in range(PROBE_REPEATS)]
    for key in firsts[0]:
        m[key] = statistics.median(f[key] for f in firsts)
    m["cli.python_floor_ms"] = 1e3 * statistics.median(
        spawn(["-c", "pass"])[2] for _ in range(PROBE_REPEATS)
    )
    m["cli.nonzero_exits_per_op"] = traced["nonzero_exits"] / len(traced["latencies"])
    e2e_plain, _ = end_to_end(plain)
    e2e_traced, _ = end_to_end(traced)
    m["trace.overhead_frac"] = 1.0 - e2e_traced["ops_per_s"] / e2e_plain["ops_per_s"]
    for key in CHECKS:
        m[f"check.{key}"] = e2e_plain[key]
    return m, [plain, traced]


def write_spans(workload: str, seed: int, run: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op", "key", "count", "nonconverged"]) + "\n")
        for s in run["spans"]:
            fh.write(json.dumps(s) + "\n")
    return path


def _describe(run: dict, m: dict, detail: dict, units: dict) -> list[str]:
    t = run["tally"]
    notes = {
        "op_tail_ms": f"p{detail['percentile']:.2f} of {detail['samples']} ops, {detail['beyond']} beyond",
        "failed_frac": f"{t.failed} of {t.attempted} ops; {t.failed - t.unexpected} at known defects, "
                       f"{t.unexpected} elsewhere",
        "bound_violation_frac": f"{t.bound_violations} of {t.bound_checked} values with a reported bound",
    }
    lines = [f"  {k:<22} {v:<24.10g} {units[k]:<6} {notes.get(k, '')}".rstrip() for k, v in m.items()]
    lines += [f"  failure: {reason} x{count}" for reason, count in sorted(t.reasons.items())]
    return lines


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logsine benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(lattice.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (ROOT / "src" / "logsine" / "__init__.py", check.REFERENCE, BENCHMARK):
        if not need.is_file():
            print(f"error: missing {need}", file=sys.stderr)
            return 2
    e2e_units, layer_units = _units("end_to_end"), _units("per_layer")
    units = {**e2e_units, **{k: layer_units[f"check.{k}"] for k in CHECKS}}
    ref = check.load_reference()
    try:
        walls = setup_walls(args.workload, SETUP_REPEATS // 2)
        if args.trace:
            metrics, runs = per_layer(args.workload, args.seed, args.seconds, ref)
        else:
            runs = [measure(args.workload, args.seed, args.seconds, False, ref)]
            metrics, _ = end_to_end(runs[0])
        walls += setup_walls(args.workload, SETUP_REPEATS - SETUP_REPEATS // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    metrics["setup_s"] = statistics.median(walls)
    for run in runs:
        e2e, detail = end_to_end(run)
        e2e = {"setup_s": metrics["setup_s"], **e2e}
        print(f" {'traced' if run['traced'] else 'untraced'}: {len(run['ops'])} ops")
        print("\n".join(_describe(run, e2e, detail, units)))
    if args.trace:
        for k in sorted(metrics):
            print(f"  {k:<44} {metrics[k]:.6g}")
        print(f"  spans written to {write_spans(args.workload, args.seed, runs[1])}")
    wanted = layer_units if args.trace else e2e_units
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    unexpected = sum(r["tally"].unexpected for r in runs)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": sum(r["tally"].attempted for r in runs),
        "failed": unexpected,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
