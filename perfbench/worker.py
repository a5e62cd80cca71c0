"""Child processes of the benchmark. Each mode starts from a fresh
interpreter, imports logsine from the checkout's src/ and writes one JSON
object to standard output:

    worker.py setup                    import logsine, one value per route
    worker.py points TRACE             closed loop over the ops on stdin
    worker.py cli ARGV...              one traced `logsine` command
    worker.py probe                    traced `logsine verify` and `logsine audit`
    worker.py first-calls              import times, first-call times, kernel ns
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _outcome(exc: BaseException) -> str:
    from logsine import DomainError, NonConvergenceError

    if isinstance(exc, DomainError):
        return "domain"
    if isinstance(exc, NonConvergenceError):
        return "nonconvergence"
    return "error: " + type(exc).__name__


def setup() -> None:
    import logsine

    p = logsine.GridPoint(2, 0.5)
    _emit([logsine.evaluate(p, method=route).value for route in logsine.family.METHODS])


def level_samples() -> list[int]:
    """Cumulative integrand samples of the engine after each refinement level."""
    from logsine.config import DEFAULT_ACCURACY
    from logsine.quadrature import _level_nodes

    total, out = 0, []
    for level in range(DEFAULT_ACCURACY.max_quad_refinements + 1):
        total += len(_level_nodes(level))
        out.append(total)
    return out


def points(trace: bool) -> None:
    """Run the ops on stdin once each, in order."""
    import logsine

    ops = json.load(sys.stdin)
    rec = spans.Recorder()
    evaluate = logsine.evaluate
    if trace:
        spans.install(rec)
        evaluate = rec.wrap("family.evaluate", evaluate)
    GridPoint = logsine.GridPoint
    clock = time.perf_counter
    results = []
    start = clock()
    for i, (_, n, x, route) in enumerate(ops):
        rec.op = i
        t0 = clock()
        try:
            ev = evaluate(GridPoint(n, x), method=route)
            row = ["value", ev.value, ev.err_estimate, ev.evaluations]
        except Exception as exc:  # every outcome is data for the checker
            row = [_outcome(exc), None, None, 0]
        results.append([clock() - t0] + row)
    wall = clock() - start
    _emit({"wall": wall, "results": results, "spans": rec.spans, "levels": level_samples()})


def _traced_main(rec: spans.Recorder, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of logsine.cli.main(argv), as a process would end."""
    from logsine import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = rec.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:  # an uncaught exception ends the process with 1
        code = 1
    return code, out.getvalue()


def cli_op(argv: list[str]) -> None:
    rec = spans.Recorder()
    spans.install(rec)
    rec.op = 0
    code, out = _traced_main(rec, argv)
    _emit({"code": code, "stdout": out, "spans": rec.spans, "levels": level_samples()})


def probe() -> None:
    import logsine  # noqa: F401

    rec = spans.Recorder()
    spans.install(rec)
    codes = []
    for op, argv in enumerate((["verify", "--format", "json-lines"], ["audit", "--format", "json-lines"])):
        rec.op = op
        codes.append(_traced_main(rec, argv)[0])
    _emit({"codes": codes, "spans": rec.spans})


def _ns_per_call(loop, nodes, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop(nodes)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / len(nodes)


def kernel_ns() -> dict[str, float]:
    """ns per call of the public kernels over the tanh-sinh node set, and
    of the bare log(2 sin(pi x u)) they wrap."""
    from logsine import cot_kernel, log_sin_kernel, weight
    from logsine.quadrature import _level_nodes

    x, n = 0.5, 5
    log, sin, pi = math.log, math.sin, math.pi

    def log_sin(nodes):
        for u in nodes:
            log_sin_kernel(x, u)

    def cot(nodes):
        for u in nodes:
            cot_kernel(x, u)

    def wt(nodes):
        for u in nodes:
            weight(n, u)

    def floor(nodes):
        for u in nodes:
            log(2.0 * sin(pi * x * u))

    # the engine's abscissae through level 6 (step 1/128), 801 nodes
    nodes = [u for level in range(7) for u, _ in _level_nodes(level)] * 20
    return {
        "quadrature.kernel_log_sin_ns": _ns_per_call(log_sin, nodes),
        "quadrature.kernel_cot_ns": _ns_per_call(cot, nodes),
        "quadrature.kernel_weight_ns": _ns_per_call(wt, nodes),
        "quadrature.kernel_floor_ns": _ns_per_call(floor, nodes),
    }


def first_calls() -> None:
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401

    t1 = clock()
    import logsine

    t2 = clock()
    logsine.bernoulli_even(1)
    t3 = clock()
    logsine.zeta_even_direct(1)
    t4 = clock()
    out = {
        "cli.numpy_import_ms": 1e3 * (t1 - t0),
        "cli.import_ms": 1e3 * (t2 - t0),
        "sequences.bernoulli_table_ms": 1e3 * (t3 - t2),
        "sequences.zeta_direct_ms": 1e3 * (t4 - t3),
    }
    out.update(kernel_ns())
    _emit(out)


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        setup()
    elif mode == "points":
        points(argv[1] == "1")
    elif mode == "cli":
        cli_op(argv[1:])
    elif mode == "probe":
        probe()
    elif mode == "first-calls":
        first_calls()
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
