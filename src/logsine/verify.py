"""Identity checks (pass/fail) and report-only audits.

Checks cover claims that are analytic consequences of the canonical
integral definition; they must pass. Audits cover published claims that
conflict with that definition (the reference value table, the small-x and
large-n decay statements); they always complete and only report residuals.
An audit row whose quadrature exhausts its budget reports the route's best
estimate, and its oversized quad_err documents the difficulty.

Every check scores one residual per grid point through one runner, `_run`.
A point whose evaluation fails (a domain error, a quadrature failure or an
arithmetic error) never aborts the check: it scores an infinite residual,
so the check fails, and the notes name the point and the error.
Points of one check that need the same value share it within the call:
the ladder check evaluates each g(n, x) once, and the genfunc check reads
one run of orders per x. Inputs are read once, whole.

Each check is a pure function of its grid and accuracy budget, so two runs
with the same inputs produce bit-identical reports.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from typing import Iterable, Sequence

from . import family
from .config import DEFAULT_ACCURACY, Accuracy, GenfuncPoint, GridPoint, _as_point, _is_real, _require_accuracy
from .config import _require_int, _require_tolerance
from .errors import DomainError, QuadratureError
from .family import (
    _derivative_series,
    _genfunc_orders,
    _integral,
    _leading,
    _partial_sum,
    _tail_bound,
    eval_derivative_cot,
    eval_integral,
    eval_via_ladder,  # noqa: F401  perfbench/spans.py wraps it here
    genfunc_closed,
    genfunc_partial,  # noqa: F401  perfbench/spans.py wraps it here
    genfunc_tail_bound,  # noqa: F401  perfbench/spans.py wraps it here
    ladder_delta,
)
from .sequences import BERNOULLI_MAX_INDEX, harmonic, zeta_even_bernoulli, zeta_even_direct

ID_DERIVATIVE = "derivative_fd_vs_cot"
ID_LADDER = "ladder_vs_diff"
ID_SERIES_CONSTANT = "series_constant"
ID_GENFUNC = "genfunc"
ID_BERNOULLI_ZETA = "bernoulli_zeta"
IDENTITY_IDS = (ID_DERIVATIVE, ID_LADDER, ID_SERIES_CONSTANT, ID_GENFUNC, ID_BERNOULLI_ZETA)

FD_STEP = 1e-5
TOL_DERIVATIVE = 1e-6
TOL_LADDER = 1e-8
TOL_SERIES_CONSTANT = 1e-8
TOL_GENFUNC_BASE = 1e-8
TOL_BERNOULLI_ZETA = 1e-12
SERIES_CONSTANTS = {"as_printed": -1.0, "corrected": -2.0}  # the series route's constant, as printed and as corrected

# Published reference table audited by audit_table: (n, x, series column,
# integral column). Both columns are retained even though they are equal,
# so a corrected table can drop in without code changes.
PAPER_TABLE = (
    (1, 0.5, 0.0770, 0.0770),
    (2, 0.5, -0.0619, -0.0619),
    (3, 0.5, -0.0597, -0.0597),
    (2, 1.0, -0.1639, -0.1639),
)
TABLE_FLAG_THRESHOLD = 1e-3

DEFAULT_DERIVATIVE_GRID = tuple(
    GridPoint(n, x) for n in range(1, 7) for x in (0.2, 0.5, 0.8)
)
DEFAULT_LADDER_GRID = tuple(
    GridPoint(n, i / 10.0) for n in range(1, 11) for i in range(1, 10)
)
DEFAULT_GENFUNC_XS = (0.3, 0.5)
DEFAULT_GENFUNC_ZS = (-0.5, -0.3, 0.3, 0.5)
DEFAULT_SMALL_X = (1e-2, 1e-3, 1e-4)
DEFAULT_LARGE_N = (10, 20, 40, 80, 160)


class IdentityReport(namedtuple("IdentityReport", "identity_id grid max_abs_residual tolerance passed notes")):
    """Residual summary of one identity over a grid."""

    __slots__ = ()

    def __new__(cls, identity_id: str, grid: tuple, max_abs_residual: float, tolerance: float, passed: bool,
                notes: str):
        if not isinstance(identity_id, str) or not isinstance(notes, str):
            raise DomainError("identity_id and notes must be strings")
        if type(grid) is not tuple or not grid:  # a tuple keeps the record immutable
            raise DomainError("grid must be a non-empty tuple")
        if not _is_real(max_abs_residual) or not max_abs_residual >= 0:  # inf where a point failed; never NaN
            raise DomainError("max_abs_residual must be a real number >= 0")
        _require_tolerance("tolerance", tolerance)
        if not isinstance(passed, bool) or passed != (max_abs_residual <= tolerance):
            raise DomainError("passed must be the bool (max_abs_residual <= tolerance)")
        return super().__new__(cls, identity_id, grid, max_abs_residual, tolerance, passed, notes)


class AuditRow(namedtuple(
    "AuditRow",
    "n x paper_series_value paper_integral_value computed_value residual_vs_paper quad_err",
)):
    """One audited row of the published table."""

    __slots__ = ()


class AsymptoticRow(namedtuple("AsymptoticRow", "n x value scaled reference gap quad_err")):
    """One row of a small-x or large-n audit.

    reference is 2 H_n - 2 log(2 pi x), the value the family approaches in
    both limits; gap = value - reference is the diagnostic column. scaled
    holds value/x^2 for the small-x audit and n*value for the large-n one.
    """

    __slots__ = ()


class TableAudit(namedtuple("TableAudit", "rows max_residual flagged summary")):
    """Rows of the published-table audit, the largest residual, the
    (row index, residual) pairs above the flag threshold, and a summary."""

    __slots__ = ()


class AsymptoticAudit(namedtuple("AsymptoticAudit", "kind rows log_slope summary")):
    """Rows of a small-x or large-n audit and their log-log slope."""

    __slots__ = ()


_POINT_LABEL = "(n={0.n}, x={0.x:g})"


def _run(identity_id: str, grid, label: str, residual, tolerance, notes, acc=DEFAULT_ACCURACY) -> IdentityReport:
    # label.format(point) names a failing point in the notes. tolerance and
    # notes may be zero-argument callables, read after the last point, for
    # checks whose budget or notes depend on what the points returned.
    _require_accuracy(acc)  # here, as a point's DomainError would only fail the check
    grid = tuple(grid)
    if not grid:
        raise DomainError("grid must be non-empty")
    residuals: list[float] = []
    failures: list[str] = []
    for point in grid:
        try:
            residuals.append(residual(point))
        except (DomainError, QuadratureError, ArithmeticError) as exc:
            residuals.append(math.inf)
            failures.append(f"{label.format(point)}: {exc}")
    if callable(tolerance):
        tolerance = tolerance()
    if callable(notes):
        notes = notes()
    if failures:
        notes += "; evaluation failures: " + "; ".join(failures)
    worst = max(residuals)
    return IdentityReport(identity_id, grid, worst, tolerance, worst <= tolerance, notes)


def _read(name: str, values: Iterable) -> tuple:
    # every input is read once, so a one-shot iterable is seen whole
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"{name} must be iterable") from None
    return tuple(values)


def _coerce_grid(grid: Iterable) -> tuple[GridPoint, ...]:
    return tuple(_as_point(GridPoint, entry) for entry in _read("grid", grid))


def check_derivative(grid: Iterable = DEFAULT_DERIVATIVE_GRID, acc: Accuracy = DEFAULT_ACCURACY) -> IdentityReport:
    """Central finite difference of the canonical route against the
    cotangent-average derivative; tolerance 1e-6 from the O(h^2)
    finite-difference truncation at h = 1e-5 over acc.quad_rel_tol quadratures."""

    def residual(p: GridPoint) -> float:
        # both sides as x * d/dx g
        upper = eval_integral(GridPoint(p.n, p.x + FD_STEP), acc)
        lower = eval_integral(GridPoint(p.n, p.x - FD_STEP), acc)
        fd = p.x * (upper - lower) / (2.0 * FD_STEP)
        return abs(fd - eval_derivative_cot(p, acc))

    notes = f"central difference step {FD_STEP:g}; tolerance from the O(h^2) truncation budget"
    return _run(ID_DERIVATIVE, _coerce_grid(grid), _POINT_LABEL, residual, TOL_DERIVATIVE, notes, acc)


def check_ladder(grid: Iterable = DEFAULT_LADDER_GRID, acc: Accuracy = DEFAULT_ACCURACY) -> IdentityReport:
    """Direct difference g(n+1, x) - g(n, x) against the step -x g'(n+1, x)/(n+1) of the series route; tolerance
    1e-8 from the budgets of two quadratures and the step."""
    scale = cache(lambda x: family._scale(x, acc))  # each g(n, x) once: an interior one ends one difference and starts the next
    return _run(
        ID_LADDER, _coerce_grid(grid), _POINT_LABEL,
        lambda p: abs(scale(p.x).g(p.n + 1).value - scale(p.x).g(p.n).value - ladder_delta(p.n, p.x)),
        TOL_LADDER, lambda: f"tolerance from the error budget of two {acc.quad_rel_tol:g} quadratures and one step", acc,
    )


def check_series_constant(grid: Iterable = DEFAULT_DERIVATIVE_GRID, acc: Accuracy = DEFAULT_ACCURACY) -> IdentityReport:
    """Discriminates the two printed additive constants of the series
    derivative (-1 as printed, -2 corrected) against the cotangent route.

    The candidate variant is fixed at the first grid point and scored on
    the whole grid; the report passes only if that single variant matches
    everywhere, and the notes name it.
    """
    points = _coerce_grid(grid)
    gaps: dict[GridPoint, float] = {}  # corrected series less the cot route, per evaluated point

    def score(variant: str, p: GridPoint) -> float:
        # inf at a failed point; another constant shifts the gap by the constants' difference
        return abs(gaps.get(p, math.inf) + (SERIES_CONSTANTS[variant] - SERIES_CONSTANTS["corrected"]))

    def chosen() -> str:
        return min(SERIES_CONSTANTS, key=lambda v: score(v, points[0]))

    def residual(p: GridPoint) -> float:
        reference = eval_derivative_cot(p, acc)
        gaps[p] = _derivative_series(p).value - reference
        return score(chosen(), p)

    def notes() -> str:
        best = chosen()
        matches = {v: sum(score(v, p) <= TOL_SERIES_CONSTANT for p in points) for v in SERIES_CONSTANTS}
        text = (
            f"matching variant: {best} (constant {SERIES_CONSTANTS[best]:g}); "
            f"per-variant match counts over {len(points)} points: "
            + ", ".join(f"{v}={count}" for v, count in matches.items())
        )
        if matches[best] != len(points):
            text += "; no single variant matches uniformly"
        return text

    return _run(ID_SERIES_CONSTANT, points, _POINT_LABEL, residual, TOL_SERIES_CONSTANT, notes, acc)


def check_genfunc(
    xs: Sequence[float] = DEFAULT_GENFUNC_XS,
    zs: Sequence[float] = DEFAULT_GENFUNC_ZS,
    N: int = 60,
    acc: Accuracy = DEFAULT_ACCURACY,
) -> IdentityReport:
    """Closed form of the generating function against its order-N partial
    sum; tolerance 1e-8 plus the largest proven tail bound."""
    _require_int("N", N, 1, family.LADDER_MAX_ORDER)
    xs, zs = _read("xs", xs), _read("zs", zs)
    grid = [(p.x, p.z) for p in (GenfuncPoint(x, z) for x in xs for z in zs)]  # validate up front
    orders = cache(lambda x: _genfunc_orders(x, N, acc))  # g(1..N, x), shared by every z at x
    tails = [0.0]

    def residual(point: tuple[float, float]) -> float:
        x, z = point
        closed = genfunc_closed(GenfuncPoint(x, z), acc)
        values = orders(x)
        tails.append(_tail_bound(values[0], x, z, N))
        return abs(closed - _partial_sum(values, z))

    return _run(
        ID_GENFUNC, grid, "(x={0[0]:g}, z={0[1]:g})", residual, lambda: TOL_GENFUNC_BASE + max(tails),
        lambda: f"partial sums to N={N}; tolerance 1e-08 plus the largest proven tail bound "
        f"{max(tails):.3e} (from g(1, x) and the growth of H_n)", acc,
    )


def check_bernoulli_zeta(m_max: int = 30) -> IdentityReport:
    """Exact-rational Bernoulli route to zeta(2m) against direct summation;
    relative tolerance 1e-12 from the rounding budget of the rational route."""
    _require_int("m_max", m_max, 1, BERNOULLI_MAX_INDEX)  # every m past it fails on the Bernoulli side

    def residual(m: int) -> float:
        direct = zeta_even_direct(m)
        return abs(zeta_even_bernoulli(m) - direct) / direct

    notes = "relative residuals; tolerance from the rounding budget of the exact-rational route"
    return _run(ID_BERNOULLI_ZETA, range(1, m_max + 1), "m={0}", residual, TOL_BERNOULLI_ZETA, notes)


def _asymptotic_audit(kind: str, points, scale, axis: str, claim: str, acc: Accuracy) -> AsymptoticAudit:
    # one row per point; scale(p, g) is the scaled column and axis ("x" or
    # "n") the abscissa of the log-log slope
    _require_accuracy(acc)
    rows = []
    for p in points:
        n, x = p.n, p.x
        ev = _integral(p, acc)
        # the integral route's leading term: the value the family approaches
        # both as x -> 0+ at fixed n and as n -> infinity at fixed x
        ref = _leading(harmonic(n), x)
        rows.append(
            AsymptoticRow(
                n=n,
                x=x,
                value=ev.value,
                scaled=scale(p, ev.value),
                reference=ref,
                gap=ev.value - ref,
                quad_err=ev.err_estimate,
            )
        )
    slope = _log_slope([(float(getattr(r, axis)), r.value) for r in rows])
    summary = (
        f"log-log slope of |g| vs {axis} over {len(rows)} rows: {slope:.4f} "
        f"({claim}); the gap column shows g tracking "
        f"2*H_n - 2*log(2*pi*x) instead"
    )
    return AsymptoticAudit(kind=kind, rows=tuple(rows), log_slope=slope, summary=summary)


def audit_small_x(
    n: int = 1,
    xs: Sequence[float] = DEFAULT_SMALL_X,
    acc: Accuracy = DEFAULT_ACCURACY,
) -> AsymptoticAudit:
    """Report-only audit of the claimed O(x^2) vanishing as x -> 0+.

    Emits g(n, x), g/x^2, the reference 2 H_n - 2 log(2 pi x), and their
    gap per row, plus the least-squares slope of log|g| against log x
    (a quadratic decay would give slope 2). No pass/fail: the claim
    conflicts with the canonical definition, which grows like
    -2 log x.
    """
    xs = _read("xs", xs)
    if not xs:
        raise DomainError("xs must be non-empty")
    points = [GridPoint(n, x) for x in xs]
    if any(b >= a for a, b in zip(xs, xs[1:])):
        raise DomainError("xs must be strictly decreasing")
    return _asymptotic_audit(
        # x^2 underflows to 0 below about 2.2e-162, where g / x^2 has already overflowed
        "small-x", points, lambda p, g: g / (p.x * p.x) if p.x * p.x else math.inf, "x",
        "a quadratic decay would give 2", acc,
    )


def audit_large_n(
    x: float = 0.5,
    ns: Sequence[int] = DEFAULT_LARGE_N,
    acc: Accuracy = DEFAULT_ACCURACY,
) -> AsymptoticAudit:
    """Report-only audit of the claimed O(1/n) decay at fixed x.

    Emits g(n, x), n*g(n, x), the reference 2 H_n - 2 log(2 pi x), and
    their gap per row. No pass/fail: the weight concentrates at u = 0 as
    n grows, so the family grows like 2 log n instead of decaying.
    """
    ns = _read("ns", ns)
    if not ns:
        raise DomainError("ns must be non-empty")
    points = [GridPoint(n, x) for n in ns]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("ns must be strictly increasing")
    return _asymptotic_audit(
        "large-n", points, lambda p, g: p.n * g, "n",
        "a 1/n decay would give -1", acc,
    )


def audit_table(acc: Accuracy = DEFAULT_ACCURACY) -> TableAudit:
    """Recompute every row of the published reference table from the
    canonical integral and report the residuals.

    Report-only: rows whose residual exceeds 1e-3 are flagged as not
    reproduced from the integral representation as printed, but nothing
    fails; the table's numbers are opaque audit inputs.
    """
    rows = []
    for n, x, series_value, integral_value in PAPER_TABLE:
        ev = _integral(GridPoint(n, x), acc)
        rows.append(
            AuditRow(
                n=n,
                x=x,
                paper_series_value=series_value,
                paper_integral_value=integral_value,
                computed_value=ev.value,
                residual_vs_paper=abs(ev.value - integral_value),
                quad_err=ev.err_estimate,
            )
        )
    max_residual = max(r.residual_vs_paper for r in rows)
    flagged = tuple(
        (i, r.residual_vs_paper)
        for i, r in enumerate(rows)
        if r.residual_vs_paper > TABLE_FLAG_THRESHOLD
    )
    summary = f"max residual against the published integral column: {max_residual:.6g}"
    if flagged:
        summary += (
            f"; {len(flagged)} of {len(rows)} rows exceed {TABLE_FLAG_THRESHOLD:g} "
            f"(published value not reproduced from the integral representation as printed)"
        )
    return TableAudit(rows=tuple(rows), max_residual=max_residual, flagged=flagged, summary=summary)


def _log_slope(points: Sequence[tuple[float, float]]) -> float:
    # Least-squares slope of log|value| against log(abscissa); rows with a
    # zero value carry no information for a power-law fit and are skipped.
    usable = [(math.log(a), math.log(abs(v))) for a, v in points if v != 0.0]
    if len(usable) < 2:
        return math.nan
    mean_a = math.fsum(a for a, _ in usable) / len(usable)
    mean_v = math.fsum(v for _, v in usable) / len(usable)
    num = math.fsum((a - mean_a) * (v - mean_v) for a, v in usable)
    den = math.fsum((a - mean_a) ** 2 for a, _ in usable)
    return num / den
