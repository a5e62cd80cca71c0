"""Bit patterns of representative outputs, pinned so that an optimisation
which changes any bit of a value or of its error estimate fails here.

The determinism contract is that identical flags give bit-identical
output. These values were recorded with float.hex before the quadrature
engine became level-wise, and those where the weight underflows part way
through a level before each level's sum stopped at the first underflowed
weight. The error estimates, three values and three sample counts were
recorded again when every Beta-weighted quadrature began to take its
kernel's w^2 term in closed form, with one rounding floor for the three
routes that sum a Beta moment. The order-1 value at x = 1 was recorded again
when it became the closed form 1 - log(2 pi), and the series route's row when
it began to sum zeta(2m)'s 1s in closed form. The cotangent route's rows were
recorded again when it began to take that same sine-product pole, -4 + P + M,
in closed form and integrate only the rest, with one kernel for every order.
The ladder rows were recorded again when the ladder step became
-x g'(n+1, x)/(n+1) from the series route, with no kernel of its own.
A deliberate change of any of them is a change of the numbers the package
prints, and must say so.
"""

import pytest

import logsine.cli as cli
from logsine import GenfuncPoint, GridPoint, evaluate, genfunc_closed

# (method, n, x) -> (value, err_estimate, evaluations)
PINNED = {
    ("integral", 5, 0.3): ("0x1.a729258d2f932p+1", "0x1.bf0f30b583fbep-46", 101),
    ("integral", 10**6, 0.5): ("0x1.a7ef97100ff25p+4", "0x1.e2bf7aa0df87ap-44", 101),
    # g(1, 1) = 1 - log(2 pi) in closed form (Cl_2(2 pi) = 0), with no quadrature
    ("integral", 1, 1.0): ("-0x1.acfe390c97d68p-1", "0x1.d67f1c864beb4p-48", 0),
    ("integral", 2, 1.0): ("-0x1.59fc72192facep-2", "0x1.c4f35844bf3b6p-47", 101),
    ("derivative-cot", 5, 0.3): ("-0x1.fc5aa46fe5289p+0", "0x1.001cb2ee39174p-46", 101),
    ("derivative-cot", 10**6, 0.5): ("-0x1.fffffffffe30dp+0", "0x1.00000000075c7p-46", 101),
    # x = 1 from n = 2: M = n/(n-1) in closed form; x g'(2, 1) = -1
    ("derivative-cot", 2, 1.0): ("-0x1.0000000000000p+0", "0x1.f2adccd23bf58p-47", 101),
    # g(1, x) and 39 series steps: 3.4e-15 off the reference (1.7e-16 when each step was a quadrature)
    ("ladder", 40, 0.3): ("0x1.d2865752ac873p+2", "0x1.043c3b363b75bp-45", 322),
    # -4 + P + M + R: 1.4e-16 off the reference, within its rounding floor of 3.6e-15, in 7 terms of R
    ("derivative-series", 5, 0.3): ("-0x1.fc5aa46fe5289p+0", "0x1.00d5f1c2e2794p-48", 7),
    # the weight (1-u)^(n-1) underflows to 0.0 part way through a level: the
    # sum over the nodes before the first 0.0 must fold the rest exactly
    ("integral", 30, 0.5): ("0x1.6ce2d34b95eb8p+2", "0x1.47820d8793513p-45", 101),
    ("integral", 100, 0.9999): ("0x1.acc4f0d49f906p+2", "0x1.75e0a10fc4572p-42", 101),
    ("integral", 10**4, 1e-4): ("0x1.128fa4deb4ffcp+5", "0x1.2ff796a719be7p-43", 101),
    ("derivative-cot", 10**4, 0.5): ("-0x1.ffffffb95f2eep+0", "0x1.00116e2aa9b6dp-46", 101),
    ("derivative-cot", 10**6, 0.9999): ("-0x1.fffffffff8c45p+0", "0x1.0000000076cb5p-46", 101),
    # 1.3e-16 off the reference (1.9e-15 when each step was a quadrature)
    ("ladder", 100, 0.9999): ("0x1.acc4f0d49f905p+2", "0x1.0ba798d3aa084p-45", 933),
    # order 1, whose flat weight reads the kernel up to t = x: near x = 1 the pole taken in closed form
    ("derivative-cot", 1, 0.5): ("-0x1.b17217f7d1cfap+0", "0x1.f9bee6691dfacp-47", 101),
    ("derivative-cot", 1, 0.99): ("0x1.ce3602be3d972p+0", "0x1.66f16500948ebp-46", 101),
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
    # column, their difference and the quadrature estimate. The ladder value is
    # 6.0e-16 off the reference (1.6e-16 when each step was a quadrature)
    rows = []
    monkeypatch.setattr(cli, "_emit_rows", lambda ns, header, emitted: rows.extend(emitted))
    assert cli.main(["table", "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7"]) == 0
    row = next(r for r in rows if r[:2] == (10, 0.7))
    assert [v.hex() for v in row[2:]] == [
        "0x1.743567c7204c6p+1", "0x1.743567c7204c8p+1", "0x1.0000000000000p-50", "0x1.a54496ea237fcp-46",
    ]
    monkeypatch.undo()
    assert cli.main(["table", "--n-list", "1,2,3,4,5,6,7,8,9,10", "--x-list", "0.3,0.7", "--format", "csv"]) == 0
    assert "10,0.7,2.9078798029228,2.9078798029228,8.88178419700125e-16,2.33850676475473e-14\n" in capsys.readouterr().out


def test_shared_row_bit_pattern_past_the_underflow(monkeypatch):
    # rows (30, 0.9999) and (40, 0.9999) of a table: the shared kernel row stops
    # part way through its deeper levels. Against 40-digit mpmath the ladder
    # values are 9.0e-16 and 7.1e-16 off (8.5e-18 and 1.1e-15 when each step
    # was a quadrature over that row)
    rows = []
    monkeypatch.setattr(cli, "_emit_rows", lambda ns, header, emitted: rows.extend(emitted))
    assert cli.main(["table", "--n-list", "30,40", "--x-list", "0.9999"]) == 0
    assert [[v.hex() for v in row[2:]] for row in rows] == [
        ["0x1.1455fa872cdccp+2", "0x1.1455fa872cdcbp+2", "0x1.0000000000000p-50", "0x1.460299cc04719p-44"],
        ["0x1.388a617514a8fp+2", "0x1.388a617514a8ep+2", "0x1.0000000000000p-50", "0x1.31c4387b5f60ap-44"],
    ]
