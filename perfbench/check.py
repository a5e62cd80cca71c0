"""Checks every op's output against the committed reference table, and the
statistics the end-to-end metrics are made of.

An op fails when it does any of the following:
- ends with another outcome (value, domain error, non-convergence) than
  the reference expects, or with an exit code that does not match it;
- prints a value off the reference by more than GROSS_REL * max(|ref|, 1),
  far above any quadrature budget, so that only wrong answers count;
- produces output that is not bit-identical to the same op earlier in
  the run.

Failures at the seed's known defects (KNOWN_DEFECTS) count like any other
failure in failed_frac. They are told apart only so that `correct` turns
false, and `failed` in the result line rises, on a failure nobody has
listed yet.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import lattice

GROSS_REL = 1e-6
EPS = sys.float_info.epsilon
REFERENCE = Path(__file__).with_name("reference.json")

EXIT_FOR = {"value": 0, "domain": 2, "nonconvergence": 3}

# Failure kinds: the op ended with the wrong outcome (exit code or
# exception), printed a value off the reference, printed unreadable output,
# or repeated an earlier op with different output.
OUTCOME, VALUE, OUTPUT, REPEAT = "outcome", "value", "output", "repeat"

# (route, predicate on (n, x), failure kind, what goes wrong) for failures
# the seed is known to have. The benchmark counts them and does not skip them.
KNOWN_DEFECTS = (
    ("derivative-series", lambda n, x: n <= 3 and 0.97 <= x < 1.0, VALUE,
     "returns a wrong value with exit 0 after hitting its 200-term cap"),
    ("derivative-cot", lambda n, x: n == 1 and x == 1.0, OUTCOME,
     "raises a non-convergence error where the derivative diverges (expected: domain error)"),
)

TABLE_HEADER = ["n", "x", "g_integral", "g_ladder", "abs_diff", "quad_err"]


def known_defect(op: tuple, kind: str) -> bool:
    """Whether a failure of this kind at this op is a listed seed defect."""
    if op[0] not in ("points", "eval"):
        return False
    _, n, x, route = op
    return any(r == route and k == kind and pred(n, x) for r, pred, k, _ in KNOWN_DEFECTS)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten or fewer samples
    no percentile qualifies, and the minimum is returned with its count.
    """
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def load_reference(path: Path = REFERENCE) -> dict:
    data = json.loads(path.read_text())
    return {"g": data["g"], "dg": data["dg"]}


def expected(ref: dict, n: int, x: float, route: str) -> tuple[str, str | None]:
    """(outcome, reference text) a points or eval op should end with."""
    if route == "integral":
        return "value", ref["g"][f"{n}|{x!r}"]
    if route == "derivative-series" and x == 1.0:
        # the series route is documented to reject x = 1
        return "domain", None
    text = ref["dg"][f"{n}|{x!r}"]
    return ("domain", None) if text is None else ("value", text)


def _print_rounding(value: float) -> float:
    # half a unit in the 15th significant digit, the CLI's printed precision
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 14)


class Tally:
    """Failure accounting and reference errors over one run."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict[str, int] = {}
        self.max_err = 0.0
        self.bound_checked = 0
        self.bound_violations = 0
        self._seen: dict[tuple, object] = {}

    def _value(self, text: str, value: float, err: float | None, printed: bool, errs: list) -> bool:
        """Error of one value against its reference; False if grossly off."""
        ref = Fraction(text)
        if not math.isfinite(value):
            return False
        abs_err = float(abs(Fraction(value) - ref))
        rel = abs_err / max(abs(float(ref)), 1.0)
        if rel > GROSS_REL:
            return False
        if err is not None:
            allowed = err + 4 * EPS * abs(value) + (_print_rounding(value) if printed else 0.0)
            errs.append((rel, abs_err > allowed))
        else:
            errs.append((rel, None))
        return True

    def record(self, op: tuple, fingerprint, problem: tuple | None, errs: list) -> bool:
        """Account one finished op; problem is (kind, reason) if it failed."""
        self.attempted += 1
        if problem is None and op in self._seen and self._seen[op] != fingerprint:
            problem = REPEAT, "output differs from the same op earlier in the run"
        self._seen.setdefault(op, fingerprint)
        if problem is not None:
            kind, reason = problem
            known = known_defect(op, kind)
            key = ("known defect: " if known else "") + reason
            self.reasons[key] = self.reasons.get(key, 0) + 1
            self.failed += 1
            self.unexpected += not known
            return True
        for rel, violated in errs:
            self.max_err = max(self.max_err, rel)
            if violated is not None:
                self.bound_checked += 1
                self.bound_violations += violated
        return False

    def points(self, op: tuple, result: list) -> bool:
        """One in-process op: result is [latency, outcome, value, err, evaluations]."""
        _, n, x, route = op
        _, outcome, value, err, evaluations = result
        want, text = expected(self.ref, n, x, route)
        errs: list = []
        problem = None
        if outcome != want:
            problem = OUTCOME, f"ended with {outcome}, expected {want}"
        elif want == "value" and not self._value(text, value, err, False, errs):
            problem = VALUE, "value off the reference"
        return self.record(op, (outcome, repr(value), repr(err), evaluations), problem, errs)

    def cli(self, op: tuple, code: int, out: str) -> bool:
        """One CLI op: exit code and standard output."""
        errs: list = []
        try:
            problem = getattr(self, "_cli_" + op[0])(op, code, out, errs)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problem = OUTPUT, f"unreadable output: {exc!r}"
        return self.record(op, (code, out), problem, errs)

    def _cli_eval(self, op, code, out, errs):
        _, n, x, route = op
        want, text = expected(self.ref, n, x, route)
        if code != EXIT_FOR[want]:
            return OUTCOME, f"exit {code}, expected {EXIT_FOR[want]} ({want})"
        if want != "value":
            return None
        row = json.loads(out)
        if (row["n"], row["x"], row["method"]) != (n, x, route):
            return OUTPUT, "wrong point echoed"
        if not self._value(text, row["value"], row["err_estimate"], True, errs):
            return VALUE, "value off the reference"
        return None

    def _cli_table(self, op, code, out, errs):
        if code != 0:
            return OUTCOME, f"exit {code}, expected 0"
        rows = list(csv.reader(io.StringIO(out)))
        want = [(n, x) for n in range(1, op[1] + 1) for x in op[2]]
        if rows[0] != TABLE_HEADER or len(rows) - 1 != len(want):
            return OUTPUT, "wrong header or row count"
        for (n, x), row in zip(want, rows[1:]):
            if (int(row[0]), float(row[1])) != (n, x):
                return OUTPUT, "wrong point echoed"
            text = self.ref["g"][f"{n}|{x!r}"]
            if not self._value(text, float(row[2]), float(row[5]), True, errs):
                return VALUE, f"g_integral off the reference at n={n} x={x!r}"
            if not self._value(text, float(row[3]), None, True, errs):
                return VALUE, f"g_ladder off the reference at n={n} x={x!r}"
        return None

    def _cli_audit(self, op, code, out, errs):
        if code != 0:
            return OUTCOME, f"exit {code}, expected 0"
        rows = [json.loads(line) for line in out.splitlines()]
        values = [r for r in rows if "summary" not in r]
        if [(r["n"], float(r["x"])) for r in values] != lattice.audit_points(op[1], op[2]):
            return OUTPUT, "wrong audit rows"
        for r in values:
            value = r["computed_value"] if r["audit"] == "table" else r["value"]
            text = self.ref["g"][f"{r['n']}|{float(r['x'])!r}"]
            if not self._value(text, value, r["quad_err"], True, errs):
                return VALUE, f"{r['audit']} value off the reference at n={r['n']} x={r['x']!r}"
        return None

    def _cli_verify(self, op, code, out, errs):
        rows = [json.loads(line) for line in out.splitlines()]
        if code != 0 or len(rows) != 5 or not all(r["passed"] is True for r in rows):
            return OUTCOME, f"exit {code}: not every default check passed"
        return None

    def summary(self) -> dict:
        return {
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "max_err": self.max_err,
            "bound_violation_frac": (
                self.bound_violations / self.bound_checked if self.bound_checked else 0.0
            ),
        }
