"""Input lattices of the three workloads and seeded, stratified op lists.

Each workload draws its ops from a lattice larger than one run uses, so
different seeds exercise different points. The draw is stratified: every
run takes the same number of ops from every cell of the lattice, and
within a cell one op from each of as many equal slices of the cell's
points (sorted by n, then x) as it draws, so every seed keeps the same mix
of cheap and expensive work.

The mix follows from two rules, not from weights:

- points: every (n decade, route, x band) cell gets the same number of
  ops, so n is log-uniform over 1..10^6 and the three routes and x bands
  are equally frequent;
- ci: a CI job runs each subcommand once, so verify : audit : eval is
  1 : 1 : 1; evals cycle through the routes at points with n < 10^4.

An op is a plain tuple:

    ("points", n, x, route)      one in-process logsine.evaluate call
    ("table", N, xs)             `logsine table` over n = 1..N and xs
    ("verify",)                  `logsine verify`
    ("audit", n, x)              `logsine audit --n n --x x`
    ("eval", n, x, route)        `logsine eval` at one point

A points pass holds each (n, x, route) once. A CLI pass is two laps over
the same ops in two seeded orders, so every CLI op is repeated once in a
fresh process and its output can be compared bit for bit.
"""

from __future__ import annotations

import random

ROUTES = ("integral", "derivative-cot", "derivative-series")


def _decade(d: int) -> tuple[int, ...]:
    # 16 log-spaced integers in [10^d, 10^(d+1))
    return tuple(sorted({round(10 ** (d + k / 16)) for k in range(16)}))


# n bands of the points lattice, one per decade; the cost of an op grows with n.
N_BANDS = {
    "n1-9": tuple(range(1, 10)),
    "n10-99": _decade(1),
    "n100-999": _decade(2),
    "n1e3-9999": _decade(3),
    "n1e4-99999": _decade(4),
    "n1e5-1e6": _decade(5) + (1_000_000,),
}
X_BANDS = {
    "x-small": (1e-4, 1.5e-4, 2e-4, 3e-4, 5e-4, 7e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 5e-3, 7e-3,
                0.01, 0.015, 0.02, 0.03, 0.05, 0.07),
    "x-mid": tuple(k / 40 for k in range(4, 37)),
    "x-near-1": (0.95, 0.96, 0.97, 0.98, 0.985, 0.99, 0.993, 0.995, 0.997, 0.998, 0.999,
                 0.9993, 0.9995, 0.9998, 0.9999, 1.0),
}
# n bands the ci evals draw from: a single CLI eval stays well under a second.
CI_EVAL_BANDS = ("n1-9", "n10-99", "n100-999", "n1e3-9999")

# Orders N of the table ops, spread evenly over each lap so that every seed
# gets the same multiset. A table costs about N^2 ladder steps per x, so the
# op latencies spread evenly rather than bunching at one value.
TABLE_N_MIN, TABLE_N = 16, 40
TABLE_X = tuple(k / 256 for k in range(1, 257))
# One x per eighth of (0, 1] in every table op: an 8-column grid.
TABLE_X_STRATA = tuple(TABLE_X[i : i + 32] for i in range(0, 256, 32))

# `audit --n` (small-x audit order) and `--x` (large-n audit scale).
AUDIT_N = tuple(range(1, 9))
AUDIT_X = tuple(k / 10 for k in range(1, 11))
# Points printed by every audit: the published table rows, the small-x
# audit at order n and the large-n audit at scale x (see logsine.verify).
AUDIT_TABLE_POINTS = ((1, 0.5), (2, 0.5), (3, 0.5), (2, 1.0))
AUDIT_SMALL_X = (1e-2, 1e-3, 1e-4)
AUDIT_LARGE_N = (10, 20, 40, 80, 160)


def audit_points(n: int, x: float) -> list[tuple[int, float]]:
    """(n, x) of every value that `logsine audit --n n --x x` prints."""
    points = list(AUDIT_TABLE_POINTS)
    points += [(n, xs) for xs in AUDIT_SMALL_X]
    points += [(nl, x) for nl in AUDIT_LARGE_N]
    return points


def reference_points() -> tuple[set, set]:
    """(n, x) points whose g and whose x g' the reference table must hold."""
    dg_points = {(n, x) for ns in N_BANDS.values() for xs in X_BANDS.values() for n in ns for x in xs}
    g_points = set(dg_points)
    g_points.update((n, x) for n in range(1, TABLE_N + 1) for x in TABLE_X)
    for n in AUDIT_N:
        for x in AUDIT_X:
            g_points.update(audit_points(n, x))
    return g_points, dg_points


def _draw(rng: random.Random, population: list, count: int) -> list:
    # Without replacement; whole cycles of the population when count > size.
    out = []
    while count > 0:
        take = min(count, len(population))
        out += rng.sample(population, take)
        count -= take
    return out


def _stratified(rng: random.Random, population: list, count: int) -> list:
    """One seeded pick from each of `count` equal slices of the sorted population."""
    population = sorted(population)
    if count > len(population):
        raise ValueError(f"cannot draw {count} distinct points from {len(population)}")
    return [rng.choice(population[i * len(population) // count : (i + 1) * len(population) // count])
            for i in range(count)]


def _cell(bands, xbands) -> list[tuple[int, float]]:
    return [(n, x) for band in bands for n in N_BANDS[band] for xband in xbands for x in X_BANDS[xband]]


def _shares_point(a: tuple, b: tuple) -> bool:
    return a[1] == b[1] or a[2] == b[2]


def _spread(rng: random.Random, ops: list) -> list:
    """Seeded order in which consecutive points ops share neither n nor x."""
    ops = list(ops)
    rng.shuffle(ops)
    for i in range(1, len(ops)):
        if not _shares_point(ops[i - 1], ops[i]):
            continue
        for j in range(i + 1, len(ops)):
            fits_here = not _shares_point(ops[i - 1], ops[j])
            fits_there = not _shares_point(ops[j - 1], ops[i]) and (
                j + 1 == len(ops) or not _shares_point(ops[i], ops[j + 1])
            )
            if fits_here and fits_there:
                ops[i], ops[j] = ops[j], ops[i]
                break
    return ops


def points_pass(seed: int, scale: int) -> list[tuple]:
    """`scale` distinct ops from every (n band, route, x band) cell."""
    rng = random.Random(seed)
    ops = []
    for band in N_BANDS:
        for route in ROUTES:
            for xband in X_BANDS:
                ops += [("points", n, x, route) for n, x in _stratified(rng, _cell([band], [xband]), scale)]
    return _spread(rng, ops)


def points_repeats(ops: list[tuple]) -> list[tuple]:
    """Every fourth op of a points pass, in reverse order: the ops that a
    second, untimed process repeats to check bit-identical output."""
    return ops[::4][::-1]


def table_pass(seed: int, scale: int) -> list[tuple]:
    rng = random.Random(seed)
    columns = [_draw(rng, list(stratum), scale) for stratum in TABLE_X_STRATA]
    span = TABLE_N - TABLE_N_MIN + 1
    lap = [("table", TABLE_N - i * span // scale, tuple(sorted(xs))) for i, xs in enumerate(zip(*columns))]
    rng.shuffle(lap)
    second = list(lap)
    rng.shuffle(second)
    return lap + second


def ci_pass(seed: int, scale: int) -> list[tuple]:
    """`scale` CI jobs of one verify, one audit and one eval each, twice."""
    rng = random.Random(seed)
    audits = _stratified(rng, [(n, x) for n in AUDIT_N for x in AUDIT_X], scale)
    evals = []
    population = _cell(CI_EVAL_BANDS, X_BANDS)
    for i, route in enumerate(ROUTES):
        count = scale // len(ROUTES) + (i < scale % len(ROUTES))
        evals += [("eval", n, x, route) for n, x in _stratified(rng, population, count)]
    lap = [("verify",)] * scale
    lap += [("audit", n, x) for n, x in audits]
    lap += evals
    rng.shuffle(lap)
    second = list(lap)
    rng.shuffle(second)
    return lap + second


PASSES = {"points": points_pass, "table-grid": table_pass, "ci": ci_pass}


def cli_argv(op: tuple) -> list[str]:
    """The `logsine` arguments of one CLI op."""
    kind = op[0]
    if kind == "table":
        return ["table", "--n-list", ",".join(str(n) for n in range(1, op[1] + 1)),
                "--x-list", ",".join(repr(x) for x in op[2]), "--format", "csv"]
    if kind == "verify":
        return ["verify", "--format", "json-lines"]
    if kind == "audit":
        return ["audit", "--n", str(op[1]), "--x", repr(op[2]), "--format", "json-lines"]
    if kind == "eval":
        return ["eval", "--n", str(op[1]), "--x", repr(op[2]), "--method", op[3],
                "--format", "json-lines"]
    raise ValueError(f"not a CLI op: {op!r}")
