"""Write reference.json: 30-digit g(n, x) and x g'(n, x) for every lattice
point of the benchmark workloads.

One-off generator; it needs mpmath, which neither the package nor the
benchmark run depends on. Run from the repository root:

    python3 perfbench/make_reference.py

Both quantities use the singularity-free form of the definition

    g(n, x)   = 2 H_n - 2 log(2 pi x) - n int_0^1 (1-u)^(n-1) log sinc(pi x u) du
    x g'(n, x) = -2 - n int_0^1 (1-u)^(n-1) (pi x u cot(pi x u) - 1) du

with breakpoints at u = 1/n, 10/n and 40/n, where the weight of a large n
concentrates. x g'(1, 1) diverges like log(1 - x); it is stored as null,
meaning the expected outcome is a domain error. Values already in
reference.json are kept, so after a lattice grows only the new points are
computed.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

import mpmath as mp

import lattice

JOBS = 2
DPS = 40
DIGITS = 30
OUT = Path(__file__).with_name("reference.json")


def _breaks(n: int) -> list:
    return [0] + [mp.mpf(b) / n for b in (1, 10, 40) if b < n] + [1]


def g_value(n: int, x: float):
    nn, xx = mp.mpf(n), mp.mpf(x)
    integral = mp.quad(lambda u: (1 - u) ** (nn - 1) * mp.log(mp.sinc(mp.pi * xx * u)), _breaks(n))
    return 2 * mp.harmonic(nn) - 2 * mp.log(2 * mp.pi * xx) - nn * integral


def dg_value(n: int, x: float):
    if n == 1 and x == 1.0:
        return None
    nn, xx = mp.mpf(n), mp.mpf(x)

    def f(u):
        t = mp.pi * xx * u
        return (1 - u) ** (nn - 1) * (t * mp.cot(t) - 1) if t else mp.mpf(0)

    return -2 - nn * mp.quad(f, _breaks(n))


def _job(task):
    mp.mp.dps = DPS
    kind, n, x = task
    value = g_value(n, x) if kind == "g" else dg_value(n, x)
    return kind, f"{n}|{x!r}", None if value is None else mp.nstr(value, DIGITS)


def spot_check() -> None:
    """The generator against three closed forms of the family."""
    mp.mp.dps = DPS
    checks = (
        (g_value(1, 0.5), 1 - mp.log(mp.pi)),
        (g_value(2, 0.5), mp.mpf(3) / 2 - mp.log(mp.pi) + 7 * mp.zeta(3) / (2 * mp.pi**2)),
        (dg_value(1, 0.5), -1 - mp.log(2)),
    )
    for got, want in checks:
        if abs(got - want) > mp.mpf(10) ** (-DIGITS):
            raise SystemExit(f"spot check failed: {mp.nstr(got, 35)} != {mp.nstr(want, 35)}")


def main() -> int:
    spot_check()
    g_points, dg_points = lattice.reference_points()
    old = json.loads(OUT.read_text()) if OUT.is_file() else {"g": {}, "dg": {}}
    table = {"g": {}, "dg": {}}
    tasks = []
    for kind, points in (("g", g_points), ("dg", dg_points)):
        for n, x in sorted(points):
            key = f"{n}|{x!r}"
            if key in old[kind]:
                table[kind][key] = old[kind][key]
            else:
                tasks.append((kind, n, x))
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for i, (kind, key, text) in enumerate(pool.imap(_job, tasks, chunksize=8)):
            table[kind][key] = text
            if i % 500 == 0:
                print(f"{i}/{len(tasks)}", file=sys.stderr)
    meta = {
        "generator": "perfbench/make_reference.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "digits": DIGITS,
        "null": "divergent quantity: the expected outcome is a domain error",
    }
    OUT.write_text(json.dumps({"meta": meta, **table}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table['g']) + len(table['dg'])} values ({len(tasks)} new) to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
