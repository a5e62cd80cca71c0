"""Command-line front end.

Commands: eval (single point), table (grid of points), verify (pass/fail
identity checks), audit (report-only audits of published claims).

Exit codes: 0 success or all checks passed, 1 verification failure,
2 usage or domain error, 3 quadrature non-convergence. Numbers are
printed with 15 significant digits (enough to round-trip a double), with
a `.` decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache

from . import family
from .config import DEFAULT_ACCURACY, Accuracy, GridPoint
from .errors import DomainError, NonConvergenceError
from .family import (
    METHOD_INTEGRAL,
    METHOD_LADDER,
    METHODS,
    Evaluation,
    _require_climbable,
    evaluate,
)
from .verify import (
    ID_BERNOULLI_ZETA,
    ID_DERIVATIVE,
    ID_GENFUNC,
    ID_LADDER,
    ID_SERIES_CONSTANT,
    IDENTITY_IDS,
    audit_large_n,
    audit_small_x,
    audit_table,
    check_bernoulli_zeta,
    check_derivative,
    check_genfunc,
    check_ladder,
    check_series_constant,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

FORMATS = ("plain", "csv", "json-lines")

TABLE_HEADER = ("n", "x", "g_integral", "g_ladder", "abs_diff", "quad_err")
EVAL_HEADER = ("n", "x", "method", "value", "err_estimate", "evaluations")
REPORT_HEADER = ("identity_id", "points", "max_abs_residual", "tolerance", "passed", "notes")

# Checks runnable by `verify`, in emission order. Audits never appear here:
# they are report-only by design, so CI stays green while the published
# discrepancies are documented.
VERIFY_RUNNERS = {
    ID_DERIVATIVE: lambda acc: check_derivative(acc=acc),
    ID_LADDER: lambda acc: check_ladder(acc=acc),
    ID_SERIES_CONSTANT: lambda acc: check_series_constant(acc=acc),
    ID_GENFUNC: lambda acc: check_genfunc(acc=acc),
    ID_BERNOULLI_ZETA: lambda acc: check_bernoulli_zeta(),
}

# Audits runnable by `audit`, in emission order. Each prints its rows'
# fields after "audit", except that the asymptotic audits print `scaled`
# under the name given here, which says how it was scaled. The lambdas look
# the audit functions up at call time.
_AUDITS = {
    "table": (lambda ns, acc: audit_table(acc), None),
    "small-x": (lambda ns, acc: audit_small_x(n=ns.n, acc=acc), "value_over_x2"),
    "large-n": (lambda ns, acc: audit_large_n(x=ns.x, acc=acc), "n_times_value"),
}
AUDIT_NAMES = tuple(_AUDITS)


def fmt(value) -> str:
    """Render a scalar: floats at 15 significant digits, `.` separator."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _json_token(value) -> str:
    # a bool, an int or a finite float as fmt renders it; a non-finite float as fmt's text in a JSON string
    if isinstance(value, int) or isinstance(value, float) and math.isfinite(value):
        return fmt(value)
    return json.dumps(fmt(value) if isinstance(value, float) else value)


def _json_line(pairs) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {_json_token(v)}" for k, v in pairs) + "}"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_lines(output_format, header, rows) -> list[str]:
    # one json-lines or plain record per row
    if output_format == "json-lines":
        return [_json_line(zip(header, row)) for row in rows]
    return [" ".join(f"{k}={fmt(v)}" for k, v in zip(header, row)) for row in rows]


def _emit_rows(ns, header, rows) -> None:
    """Emit one uniform record set in the selected format."""
    if ns.format == "csv":
        _write(_csv_text(header, rows), ns.out)
    else:
        _write("\n".join(_record_lines(ns.format, header, rows)) + "\n", ns.out)


def _accuracy(ns):
    # built through Accuracy(), which validates: _replace would skip that
    return DEFAULT_ACCURACY if ns.quad_tol is None else Accuracy(quad_rel_tol=ns.quad_tol)


def _split_selection(raw, valid, what) -> tuple[str, ...]:
    names = []
    for chunk in raw:
        names.extend(tok.strip() for tok in chunk.split(",") if tok.strip())
    for name in names:
        if name not in valid:
            raise DomainError(f"unknown {what}: {name}")
    if not names:
        raise DomainError(f"{what} selection must be non-empty")
    # keep canonical order, drop duplicates
    return tuple(name for name in valid if name in names)


def _best_estimate(p, method, run) -> Evaluation:
    # a route that runs out of budget still yields its best estimate
    try:
        return run()
    except NonConvergenceError as exc:
        print(f"warning: n={p.n} x={fmt(p.x)} {method}: {exc}; best estimate printed", file=sys.stderr)
        return exc.result


def cmd_eval(ns) -> int:
    p = GridPoint(ns.n, ns.x)
    acc = _accuracy(ns)
    ev = _best_estimate(p, ns.method, lambda: evaluate(p, method=ns.method, acc=acc))
    row = (ns.n, ns.x, ns.method, ev.value, ev.err_estimate, ev.evaluations)
    _emit_rows(ns, EVAL_HEADER, [row])
    return EXIT_OK if ev.converged else EXIT_NONCONVERGENCE


def cmd_table(ns) -> int:
    if not ns.n_list or not ns.x_list:
        raise DomainError("n-list and x-list must be non-empty")
    points = [GridPoint(n, x) for n in ns.n_list for x in ns.x_list]
    acc = _accuracy(ns)
    n_max = max(ns.n_list)
    _require_climbable(n_max)  # the g_ladder column climbs to n_max: refuse before any quadrature
    scale = cache(lambda x: family._scale(x, acc))  # per x, each g(n, x) once; the climb's rung 1 is g(1, x)
    converged = True
    rows = []
    for p in points:
        integral = _best_estimate(p, METHOD_INTEGRAL, lambda: scale(p.x).g(p.n))
        ladder = _best_estimate(p, METHOD_LADDER, lambda: scale(p.x).rung(p.n))
        converged = converged and integral.converged and ladder.converged
        rows.append(
            (p.n, p.x, integral.value, ladder.value,
             abs(integral.value - ladder.value), integral.err_estimate)
        )
    _emit_rows(ns, TABLE_HEADER, rows)
    return EXIT_OK if converged else EXIT_NONCONVERGENCE


def cmd_verify(ns) -> int:
    suite = _split_selection(ns.only, IDENTITY_IDS, "identity id") if ns.only else IDENTITY_IDS
    acc = _accuracy(ns)
    reports = [VERIFY_RUNNERS[identity_id](acc) for identity_id in suite]
    rows = [
        (r.identity_id, len(r.grid), r.max_abs_residual, r.tolerance, r.passed, r.notes)
        for r in reports
    ]
    failed = [r.identity_id for r in reports if not r.passed]
    if ns.format == "plain":
        lines = []
        for row in rows:
            lines.append(f"identity: {row[0]}")
            lines.extend(f"  {k}: {fmt(v)}" for k, v in zip(REPORT_HEADER[1:], row[1:]))
        if failed:
            lines.append(f"FAILED: {len(failed)} of {len(reports)} checks failed: {', '.join(failed)}")
        else:
            lines.append(f"all {len(reports)} checks passed")
        _write("\n".join(lines) + "\n", ns.out)
    else:
        _emit_rows(ns, REPORT_HEADER, rows)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_audit(ns) -> int:
    acc = _accuracy(ns)
    selected = _split_selection(ns.only, AUDIT_NAMES, "audit name") if ns.only else AUDIT_NAMES
    chunks = []
    for kind in selected:
        run, scaled = _AUDITS[kind]
        audit = run(ns, acc)
        columns = tuple(scaled if c == "scaled" else c for c in audit.rows[0]._fields)
        header = ("audit",) + columns
        rows = [(kind, *r) for r in audit.rows]
        if ns.format == "csv":
            chunks.append(_csv_text(header, rows))
            continue
        if ns.format == "json-lines":
            lines = _record_lines(ns.format, header, rows)
            lines.append(_json_line([("audit", kind), ("summary", audit.summary)]))
        else:
            lines = [f"audit: {kind}"]
            lines.extend("  " + line for line in _record_lines(ns.format, columns, [row[1:] for row in rows]))
            lines.append(f"  summary: {audit.summary}")
        chunks.append("\n".join(lines) + "\n")
    _write("".join(chunks), ns.out)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default: plain)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    common.add_argument("--quad-tol", type=float, default=None, metavar="REAL",
                        help="relative quadrature tolerance (default 1e-12)")

    parser = argparse.ArgumentParser(
        prog="logsine",
        description="Evaluate the regularized log-sine moment family and verify its identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one (n, x) point")
    p_eval.add_argument("--n", type=int, required=True, help="order, n >= 1")
    p_eval.add_argument("--x", type=float, required=True, help="scale, 0 < x <= 1")
    p_eval.add_argument("--method", choices=METHODS, default=METHOD_INTEGRAL,
                        help="evaluation route (default: integral)")
    p_eval.set_defaults(handler=cmd_eval)

    p_table = sub.add_parser("table", parents=[common], help="tabulate a grid of points")
    p_table.add_argument("--n-list", type=_int_list, required=True, metavar="N1,N2,...")
    p_table.add_argument("--x-list", type=_float_list, required=True, metavar="X1,X2,...")
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="run pass/fail identity checks")
    p_verify.add_argument("--only", action="append", metavar="ID",
                          help=f"run only these identity ids (repeatable or comma-separated); "
                               f"known ids: {', '.join(IDENTITY_IDS)}")
    p_verify.set_defaults(handler=cmd_verify)

    p_audit = sub.add_parser("audit", parents=[common], help="run report-only audits")
    p_audit.add_argument("--only", action="append", metavar="NAME",
                         help=f"run only these audits (repeatable or comma-separated); "
                              f"known names: {', '.join(AUDIT_NAMES)}")
    p_audit.add_argument("--n", type=int, default=1, help="order for the small-x audit (default 1)")
    p_audit.add_argument("--x", type=float, default=0.5, help="scale for the large-n audit (default 0.5)")
    p_audit.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def app() -> None:
    raise SystemExit(main())
