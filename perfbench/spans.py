"""Spans at the package's module boundaries, and the per-layer numbers made
from them.

Tracing wraps, at run time, the names through which one module calls the
next: cli -> verify -> family -> quadrature / sequences. Nothing inside
the package changes. Each span records its name, start, end, parent span
and op id; spans stay in memory until the traced process ends. Counts come
from the objects the wrapped calls return (QuadResult.evaluations,
Evaluation.evaluations), never from per-sample hooks.

A span is a list [name, start, end, parent, op, key, count, flag]:
key identifies the call's arguments for route spans, count is the number
of integrand samples (integrate_de) or series terms (_derivative_series),
and flag is 1 for a quadrature that did not converge.
"""

from __future__ import annotations

import bisect
import math
import time

# Route functions in logsine.family, by the route they serve.
ROUTES = {
    "integral": ("_integral",),
    "ladder": ("_ladder_delta",),
    "derivative-cot": ("_derivative_cot",),
    "derivative-series": ("_derivative_series",),
    "genfunc": ("genfunc_closed", "genfunc_partial", "genfunc_tail_bound"),
}
FAMILY_BOUNDARIES = ("integrate_de", "eval_integral", "harmonic", "zeta_even")
VERIFY_BOUNDARIES = (
    "eval_integral", "_integral", "_derivative_series", "eval_derivative_cot", "ladder_delta",
    "eval_via_ladder", "genfunc_closed", "genfunc_partial", "genfunc_tail_bound", "harmonic",
    "zeta_even_bernoulli", "zeta_even_direct",
)
# cli.check_* / cli.audit_* span -> verify metric id (default suite and audits).
CHECK_IDS = {
    "cli.check_derivative": "derivative_fd_vs_cot",
    "cli.check_ladder": "ladder_vs_diff",
    "cli.check_series_constant": "series_constant",
    "cli.check_genfunc": "genfunc",
    "cli.check_bernoulli_zeta": "bernoulli_zeta",
    "cli.audit_table": "table",
    "cli.audit_small_x": "small-x",
    "cli.audit_large_n": "large-n",
}


NAME, START, END, PARENT, OP, KEY, COUNT, FLAG = range(8)


class Recorder:
    """Collects spans in memory; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, keyed: bool = False):
        # imported here: the benchmark's parent process never imports logsine
        from logsine import Accuracy, NonConvergenceError

        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0, 0]
            if keyed:
                span[KEY] = repr(tuple(a for a in args if not isinstance(a, Accuracy)))
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except NonConvergenceError as exc:
                span[COUNT] = exc.result.evaluations
                span[FLAG] = 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            span[COUNT] = getattr(out, "evaluations", 0)
            return out

        return traced


def install(rec: Recorder) -> list[tuple]:
    """Wrap the module boundaries of the imported logsine package.

    Returns (module, name, original) for every replaced name, for uninstall.
    """
    from logsine import cli, family, verify

    replaced = []

    def patch(module, attr, wrapped):
        replaced.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    routes = {}
    for names in ROUTES.values():
        for attr in names:
            routes[attr] = rec.wrap(f"family.{attr}", getattr(family, attr), keyed=True)
            patch(family, attr, routes[attr])
    for attr in FAMILY_BOUNDARIES:
        patch(family, attr, rec.wrap(f"family.{attr}", getattr(family, attr)))
    for attr in VERIFY_BOUNDARIES:
        # a route imported into verify keeps its route span below the boundary
        target = routes.get(attr, getattr(verify, attr))
        patch(verify, attr, rec.wrap(f"verify.{attr}", target))
    for attr in ["evaluate"] + [a for a in dir(cli) if a.startswith(("check_", "audit_"))]:
        patch(cli, attr, rec.wrap(f"cli.{attr}", getattr(cli, attr)))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)


def layer(name: str) -> str:
    """The layer that does the work of a span: the callee of the boundary."""
    module, attr = name.split(".", 1)
    if name == "cli.main":
        return "cli"
    if attr == "integrate_de":
        return "quadrature"
    if attr == "harmonic" or attr.startswith("zeta_even"):
        return "sequences"
    if module == "cli" and attr.startswith(("check_", "audit_")):
        return "verify"
    return "family"


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(spans: list[list], ops: int, probe: list[list], levels: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of `ops` ops.

    `levels` holds the engine's cumulative sample count after each
    refinement level, so a quadrature's sample count gives its last level.

    Per-call times and sizes fall back to the probe's spans (one traced
    `logsine verify` and `logsine audit`) for a route or layer the
    workload never calls, so every metric is a measured number.
    """
    selfs = self_times(spans)
    probe_selfs = self_times(probe)
    m: dict[str, float] = {}

    def per_call(names, value):
        # mean of value(span, self) over spans named in names
        for group, group_selfs in ((spans, selfs), (probe, probe_selfs)):
            vals = [value(s, t) for s, t in zip(group, group_selfs) if s[NAME] in names]
            if vals:
                return math.fsum(vals) / len(vals)
        return 0.0

    # one cli.main per CLI op, so its mean self time is the time per op
    m["cli.self_ms_per_op"] = 1e3 * per_call({"cli.main"}, lambda s, t: t)

    for route, attrs in ROUTES.items():
        names = {f"family.{a}" for a in attrs}
        m[f"family.{route}.calls_per_op"] = sum(s[NAME] in names for s in spans) / ops
        m[f"family.{route}.self_us_per_call"] = 1e6 * per_call(names, lambda s, t: t)
    route_names = {f"family.{a}" for attrs in ROUTES.values() for a in attrs}
    calls = [(s[OP], s[NAME], s[KEY]) for s in spans if s[NAME] in route_names]
    m["family.distinct_ratio"] = len(set(calls)) / len(calls) if calls else 1.0
    m["family.series_terms_per_call"] = per_call({"family._derivative_series"}, lambda s, t: s[COUNT])

    quad = [s for s in spans if s[NAME] == "family.integrate_de"]
    m["quadrature.calls_per_op"] = len(quad) / ops
    m["quadrature.samples_per_op"] = sum(s[COUNT] for s in quad) / ops
    m["quadrature.nonconverged_per_op"] = sum(s[FLAG] for s in quad) / ops
    timed = quad or [s for s in probe if s[NAME] == "family.integrate_de"]
    busy = math.fsum(s[END] - s[START] for s in timed)
    m["quadrature.samples_per_call"] = sum(s[COUNT] for s in timed) / len(timed)
    m["quadrature.levels_mean"] = sum(bisect.bisect_left(levels, s[COUNT]) for s in timed) / len(timed)
    m["quadrature.us_per_call"] = 1e6 * busy / len(timed)
    m["quadrature.ns_per_sample"] = 1e9 * busy / sum(s[COUNT] for s in timed)

    seq = [t for s, t in zip(spans, selfs) if layer(s[NAME]) == "sequences"]
    m["sequences.calls_per_op"] = len(seq) / ops
    m["sequences.ms_per_op"] = 1e3 * math.fsum(seq) / ops
    m.update(check_metrics(probe))
    return m


def check_metrics(spans: list[list]) -> dict[str, float]:
    """verify.<id>.{ms,integrals,samples} for each default check and audit."""
    owner: list[int] = []  # index of the check span each span runs under
    for i, s in enumerate(spans):
        if s[NAME] in CHECK_IDS:
            owner.append(i)
        else:
            owner.append(owner[s[PARENT]] if s[PARENT] >= 0 else -1)
    m = {}
    for name, check_id in CHECK_IDS.items():
        idx = {i for i, s in enumerate(spans) if s[NAME] == name}
        below = [s for s, o in zip(spans, owner) if o in idx and s[NAME] == "family.integrate_de"]
        m[f"verify.{check_id}.ms"] = 1e3 * math.fsum(spans[i][END] - spans[i][START] for i in idx)
        m[f"verify.{check_id}.integrals"] = float(len(below))
        m[f"verify.{check_id}.samples"] = float(sum(s[COUNT] for s in below))
    return m
