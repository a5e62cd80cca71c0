"""Bit patterns of representative outputs, pinned so that an optimisation
which changes any bit of a value or of its error estimate fails here.

The determinism contract is that identical flags give bit-identical
output. These values were recorded with float.hex before the quadrature
engine became level-wise, and those where the weight underflows part way
through a level before each level's sum stopped at the first underflowed
weight. A deliberate change of any of them is a change of the numbers the
package prints, and must say so.
"""

import pytest

import logsine.cli as cli
from logsine import GenfuncPoint, GridPoint, evaluate, genfunc_closed

# (method, n, x) -> (value, err_estimate, evaluations)
PINNED = {
    ("integral", 5, 0.3): ("0x1.a729258d2f932p+1", "0x1.5889d7a671da6p-49", 101),
    ("integral", 10**6, 0.5): ("0x1.a7ef97100ff24p+4", "0x1.55ba846968505p-44", 101),
    ("integral", 1, 1.0): ("-0x1.acfe390c97d74p-1", "0x1.c0df5564b8f06p-50", 101),
    ("derivative-cot", 5, 0.3): ("-0x1.fc5aa46fe528ap+0", "0x1.18d2adc80d6bbp-51", 101),
    ("derivative-cot", 10**6, 0.5): ("-0x1.fffffffffe310p+0", "0x1.34e18e864802ep-43", 101),
    ("derivative-cot", 2, 1.0): ("-0x1.000000000000cp+0", "0x1.7fffffffffffap-51", 101),
    ("ladder", 40, 0.3): ("0x1.d2865752ac86fp+2", "0x1.35e3d4aa0f745p-41", 4040),
    ("derivative-series", 5, 0.3): ("-0x1.fc5aa46fe528ap+0", "0x1.1bab8cb43a82ep-57", 11),
    # the weight (1-u)^(n-1) underflows to 0.0 part way through a level: the
    # sum over the nodes before the first 0.0 must fold the rest exactly
    ("integral", 30, 0.5): ("0x1.6ce2d34b95eb8p+2", "0x1.db83e7bf47876p-44", 101),
    ("integral", 100, 0.9999): ("0x1.acc4f0d49f906p+2", "0x1.c33e06ad75bddp-49", 201),
    ("integral", 10**4, 1e-4): ("0x1.128fa4deb4ffcp+5", "0x1.4d6083e8b2b8dp-47", 101),
    ("derivative-cot", 10**4, 0.5): ("-0x1.ffffffb95f2edp+0", "0x1.1dc39f6e35069p-47", 201),
    ("derivative-cot", 10**6, 0.9999): ("-0x1.fffffffff8c46p+0", "0x1.3411cb444fe66p-41", 101),
    ("ladder", 100, 0.9999): ("0x1.acc4f0d49f907p+2", "0x1.31b28054869fcp-37", 15700),
}


@pytest.mark.parametrize("method, n, x", list(PINNED), ids=[f"{m}-{n}-{x:g}" for m, n, x in PINNED])
def test_route_bit_patterns(method, n, x):
    ev = evaluate(GridPoint(n, x), method=method)
    assert (ev.value.hex(), ev.err_estimate.hex(), ev.evaluations) == PINNED[method, n, x]
    assert ev.converged


def test_genfunc_closed_bit_pattern():
    assert genfunc_closed(GenfuncPoint(0.5, 0.5)).hex() == "0x1.299ba27225004p-1"


def test_table_row_bit_pattern(monkeypatch, capsys):
    # the row at (10, 0.7) of a 10 x 2 table: integral column, climbed ladder
    # column, their difference and the quadrature estimate
    rows = []
    monkeypatch.setattr(cli, "_emit_rows", lambda ns, header, emitted: rows.extend(emitted))
    assert cli.main(["table", "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7"]) == 0
    row = next(r for r in rows if r[:2] == (10, 0.7))
    assert [v.hex() for v in row[2:]] == [
        "0x1.743567c7204c6p+1", "0x1.743567c7204c7p+1", "0x1.0000000000000p-51", "0x1.4a0ce834ee08cp-49",
    ]
    monkeypatch.undo()
    assert cli.main(["table", "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7", "--format", "csv"]) == 0
    assert "10,0.7,2.9078798029228,2.9078798029228,4.44089209850063e-16,2.29018483478786e-15\n" in capsys.readouterr().out


def test_shared_row_bit_pattern_past_the_underflow(monkeypatch):
    # rows (30, 0.9999) and (40, 0.9999) of a table: the shared kernel row and
    # the climb's steps stop part way through their deeper levels
    rows = []
    monkeypatch.setattr(cli, "_emit_rows", lambda ns, header, emitted: rows.extend(emitted))
    assert cli.main(["table", "--n-list", "30,40", "--x-list", "0.9999"]) == 0
    assert [[v.hex() for v in row[2:]] for row in rows] == [
        ["0x1.1455fa872cdccp+2", "0x1.1455fa872cdccp+2", "0x0.0p+0", "0x1.ad79d5170d78cp-42"],
        ["0x1.388a617514a8fp+2", "0x1.388a617514a90p+2", "0x1.0000000000000p-50", "0x1.8854befdb04a1p-49"],
    ]
