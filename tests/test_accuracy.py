"""Routes against the committed 30-digit reference table.

perfbench/reference.json holds g(n, x) and x g'(n, x) from an independent
mpmath evaluation of the integral representation. The subset here takes
every stored x at orders 1, 2, 3, 5, 9 and every power of ten to 10^6, so
it reaches the large-n points where the weight crowds into u ~ 1/n.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logsine import GridPoint, evaluate

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
ORDERS = {1, 2, 3, 5, 9} | {10**k for k in range(1, 7)}
EPS = sys.float_info.epsilon


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def errors(table, method):
    # (point, value, err_estimate, |value - ref|, relative error) for every
    # subset point the table holds a value at; a null entry is a divergent
    # quantity, which the route rejects with a domain error instead
    out = []
    for key, text in table.items():
        n, x = key.split("|")
        if int(n) not in ORDERS or text is None:
            continue
        p = GridPoint(int(n), float(x))
        ev = evaluate(p, method=method)
        ref = Fraction(text)
        abs_err = float(abs(Fraction(ev.value) - ref))
        out.append((p, ev.value, ev.err_estimate, abs_err, abs_err / max(abs(float(ref)), 1.0)))
    return out


def test_integral_route_error_estimate_is_a_bound(reference):
    rows = errors(reference["g"], "integral")
    assert len(rows) == 2225
    violations = [r for r in rows if r[3] > r[2] + 4 * EPS * abs(r[1])]
    assert violations == []
    assert max(r[4] for r in rows) <= 1e-14


def test_cot_route_accuracy(reference):
    rows = errors(reference["dg"], "derivative-cot")
    assert len(rows) == 736
    assert max(r[4] for r in rows) <= 1e-12


# g(1, x) = 1 - log(2 pi x) + Cl_2(2 pi x) / (2 pi x) (the Clausen link), with
# Cl_2(2 pi) = Cl_2(pi) = 0 and Cl_2(pi/2) = G, Catalan's constant; 30 digits
CLAUSEN_ANCHORS = {
    0.5: "-0.144729885849400174143427351353",  # 1 - log pi
    1.0: "-0.837877066409345483560659472811",  # 1 - log 2 pi
    0.25: "1.13153910277218269555057368304",  # 1 - log(pi/2) + 2G/pi
}


@pytest.mark.parametrize("x, anchor", CLAUSEN_ANCHORS.items(), ids=lambda v: str(v)[:6])
def test_integral_route_meets_clausen_anchors(x, anchor):
    ev = evaluate(GridPoint(1, x))
    assert float(abs(Fraction(ev.value) - Fraction(anchor))) <= ev.err_estimate + 4 * EPS * abs(ev.value)
