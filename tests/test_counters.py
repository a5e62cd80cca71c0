"""The committed counter ledger: the work each headline command takes.

tests/counters.json records, for each default check and the default
`verify`, each audit, `table` 40x8, three routes over every point of
perfbench/reference.json and the ladder route's climbs to its points up to
n = 100, how many quadratures ran (integrals), how many abscissae they took
(samples) and how many series terms the series route summed. The counts are
deterministic, so the test compares them exactly: a change that moves work
rewrites the file in the same commit, and its diff shows by how much. To
rewrite it:

    PYTHONPATH=src python tests/test_counters.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import logsine.family as family
import logsine.verify as verify
from logsine import DEFAULT_ACCURACY, GridPoint, NonConvergenceError, cli, evaluate

LEDGER = Path(__file__).resolve().with_name("counters.json")
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
TABLE_40x8 = ("table", "--n-list", ",".join(map(str, range(1, 41))),
              "--x-list", "0.125,0.25,0.375,0.5,0.625,0.75,0.875,1", "--format", "csv")
LATTICE_ROUTES = (("integral", "g"), ("derivative-cot", "dg"), ("derivative-series", "dg"))


class Counter:
    """Counts quadratures and their samples at family.integrate_de, and series
    terms from the Evaluation of every series-route call."""

    def __init__(self):
        self.integrals = self.samples = self.series_terms = 0

    def engine(self, integrate_de):
        def counting(f, acc):
            try:
                q = integrate_de(f, acc)
            except NonConvergenceError as exc:
                self.integrals, self.samples = self.integrals + 1, self.samples + exc.result.evaluations
                raise
            self.integrals, self.samples = self.integrals + 1, self.samples + q.evaluations
            return q

        return counting

    def series(self, route):
        def counting(p):
            ev = route(p)
            self.series_terms += ev.evaluations
            return ev

        return counting

    def counts(self) -> dict:
        return {"integrals": self.integrals, "samples": self.samples, "series_terms": self.series_terms}


def counted(run) -> dict:
    """The counts of one call of run(), with the counting wrappers in place for that call only."""
    counter = Counter()
    saved = family.integrate_de, family._derivative_series, verify._derivative_series
    family.integrate_de = counter.engine(saved[0])
    family._derivative_series = verify._derivative_series = counter.series(saved[1])
    try:
        run()
    finally:
        family.integrate_de, family._derivative_series, verify._derivative_series = saved
    return counter.counts()


def quiet_cli(*argv):
    # the command's output is dropped; its exit code must be 0
    with redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    assert code == 0, argv


def lattice(route: str, table: dict) -> None:
    # every point the table holds a value at; a null entry is a divergent quantity, and the series route takes x < 1
    for key, text in table.items():
        n, x = key.split("|")
        if text is not None and (route != "derivative-series" or float(x) < 1.0):
            evaluate(GridPoint(int(n), float(x)), method=route)


def ladder_lattice(table: dict) -> None:
    # one climb per x, to every order n <= 100 the table holds a value at: each rung extends the climb below it, where
    # evaluate would climb again from n = 1 at every point
    climbs = {}
    for key, text in table.items():
        n, x = key.split("|")
        if text is not None and int(n) <= 100:
            climbs.setdefault(x, family._scale(float(x), DEFAULT_ACCURACY)).rung(int(n))


def ledger() -> dict:
    entries = {}
    for identity_id in cli.IDENTITY_IDS:
        entries[f"verify --only {identity_id}"] = counted(lambda: quiet_cli("verify", "--only", identity_id))
    entries["verify"] = counted(lambda: quiet_cli("verify"))
    for name in cli.AUDIT_NAMES:
        entries[f"audit --only {name}"] = counted(lambda: quiet_cli("audit", "--only", name))
    entries["table 40x8"] = counted(lambda: quiet_cli(*TABLE_40x8))
    reference = json.loads(REFERENCE.read_text())
    for route, table in LATTICE_ROUTES:
        entries[f"lattice {route}"] = counted(lambda: lattice(route, reference[table]))
    entries["lattice ladder"] = counted(lambda: ladder_lattice(reference["g"]))
    return entries


def test_counters_match_the_ledger():
    assert ledger() == json.loads(LEDGER.read_text())


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(ledger(), indent=2) + "\n")
