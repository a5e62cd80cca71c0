"""Routes against the committed 30-digit reference table.

perfbench/reference.json holds g(n, x) and x g'(n, x) from an independent
mpmath evaluation of the integral representation. The subset here takes
every stored x at orders 1, 2, 3, 5, 9 and every power of ten to 10^6, so
it reaches the large-n points where the weight crowds into u ~ 1/n. The
ladder step is gated at every step of the table up to n = 100, the cot route
at every x g' value and near x = 1 against the series route, the series
route at every x g' value (x = 1 through the ladder's step, as the public
route stops short of it) and near x = 1 against the integral route, and the
integral and ladder routes, and the derivative routes through the family's
differential relation, also against closed forms at x = 1/2 and 1 that come
by another path (the kernel's Fourier series) in stdlib Decimal. The bound of
every route that reads a quadrature is gated at budgets other than the
default too: quad_rel_tol 1e-4, 1e-8, 1e-15 and 1e-16. At 1e-16 every such
quadrature still converges within the engine's 12 refinements. The series
route reads no budget.
"""

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import logsine.family as family
from logsine import DEFAULT_ACCURACY, Accuracy, DomainError, GridPoint, evaluate

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
ORDERS = {1, 2, 3, 5, 9} | {10**k for k in range(1, 7)}
EPS = sys.float_info.epsilon


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def errors(table, method, keep=lambda n, x: n in ORDERS, acc=DEFAULT_ACCURACY):
    # (point, value, err_estimate, |value - ref|, relative error, evaluations) for every
    # point keep admits (the subset) that the table holds a value at; a null entry is
    # a divergent quantity, which the route rejects with a domain error instead
    out = []
    for key, text in table.items():
        n, x = int(key.split("|")[0]), float(key.split("|")[1])
        if not keep(n, x) or text is None:
            continue
        p = GridPoint(n, x)
        ev = evaluate(p, method=method, acc=acc)
        ref = Fraction(text)
        abs_err = float(abs(Fraction(ev.value) - ref))
        out.append((p, ev.value, ev.err_estimate, abs_err, abs_err / max(abs(float(ref)), 1.0), ev.evaluations))
    return out


def test_integral_route_error_estimate_is_a_bound(reference):
    rows = errors(reference["g"], "integral")
    assert len(rows) == 2225
    violations = [r for r in rows if r[3] > r[2] + 4 * EPS * abs(r[1])]
    assert violations == []
    assert max(r[4] for r in rows) <= 1e-14


def test_cot_route_error_estimate_is_a_bound(reference):
    # every x g' value, x = 1 from n = 2 included: the sine product's pole is taken in closed form, as on the series
    # route, and the quadrature integrates only the smooth rest
    rows = errors(reference["dg"], "derivative-cot", keep=lambda n, x: True)
    assert len(rows) == 6029
    assert [r[0] for r in rows if r[3] > r[2] + 4 * EPS * abs(r[1])] == []
    assert max(r[4] for r in rows) <= 1e-15


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


def test_series_route_error_estimate_is_a_bound(reference):
    # every x g' value with x < 1, n up to 10^6: the tail of the zeta(2m) - 1 part is proven, the 1s are summed in
    # closed form, and no point takes more than 30 of the series' terms
    rows = errors(reference["dg"], "derivative-series", keep=lambda n, x: x < 1.0)
    assert len(rows) == 5940
    assert [r[0] for r in rows if r[3] > r[2] + 4 * EPS * abs(r[1])] == []
    assert max(r[4] for r in rows) <= 1e-15
    assert max(r[5] for r in rows) <= 30


def test_series_route_rejects_x_one(reference):
    # x g'(n, 1) is finite from n = 2, but the public series route stops short of its radius
    ns = [int(key.split("|")[0]) for key, text in reference["dg"].items() if key.endswith("|1.0") and text is not None]
    assert len(ns) == 89
    for n in ns:
        with pytest.raises(DomainError, match="x < 1 on the series route"):
            evaluate(GridPoint(n, 1.0), method="derivative-series")


def test_series_sum_at_x_one_is_a_bound(reference):
    # the sum the ladder's steps read at x = 1: the zeta(2m) - 1 terms still fall by at least 4x there, so the tail
    # bound holds at the radius too, and M = n/(n-1) is a closed form
    rows = []
    for key, text in reference["dg"].items():
        n, x = int(key.split("|")[0]), float(key.split("|")[1])
        if x == 1.0 and text is not None:
            ev = family._derivative_series(GridPoint(n, x))
            ref = Fraction(text)
            abs_err = float(abs(Fraction(ev.value) - ref))
            relative = abs_err / max(abs(float(ref)), 1.0)
            rows.append((n, abs_err <= ev.err_estimate + 4 * EPS * abs(ev.value), relative, ev.evaluations))
    assert len(rows) == 89 and min(r[0] for r in rows) == 2
    assert [r[0] for r in rows if not r[1]] == []
    assert max(r[2] for r in rows) <= 1e-15
    assert max(r[3] for r in rows) <= 30


@pytest.mark.parametrize("n", [2, 3, 5, 10, 64])
def test_series_route_near_one_meets_the_integral_route(n):
    # x = 1 - 2^-k, k = 1..52, where a capped loop of the whole series fell short: against n [g(n-1) - g(n)]
    # from the integral route, within the summed budgets
    for k in range(1, 53):
        x = 1.0 - 2.0**-k
        s, lower, upper = (evaluate(GridPoint(m, x), method=r) for m, r in
                           ((n, "derivative-series"), (n - 1, "integral"), (n, "integral")))
        budget = s.err_estimate + n * (lower.err_estimate + upper.err_estimate)
        budget += 4 * EPS * (abs(s.value) + n * abs(lower.value) + n * abs(upper.value))
        assert abs(s.value - n * (lower.value - upper.value)) <= budget, k
        assert s.evaluations <= 30


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 64])
def test_cot_route_near_one_meets_the_series_route(n):
    # x = 1 - 2^-k, k = 1..52, where the cot kernel's pole nears the end of the range, within the summed budgets
    for k in range(1, 53):
        x = 1.0 - 2.0**-k
        a, b = (evaluate(GridPoint(n, x), method=r) for r in ("derivative-cot", "derivative-series"))
        assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate + 4 * EPS * (abs(a.value) + abs(b.value)), k


def ladder_counts(reference, acc):
    # (points, violations) of the ladder route over the subset up to n = 100; one climb per x serves every order at
    # it, each rung bit for bit the ladder route's value (tests/test_family.py::TestLadderRoute)
    climbs = {}
    violations = points = 0
    for key, text in reference["g"].items():
        n, x = int(key.split("|")[0]), float(key.split("|")[1])
        if n not in ORDERS or n > 100 or text is None:
            continue
        ev = climbs.setdefault(x, family._scale(x, acc)).rung(n)
        points += 1
        violations += float(abs(Fraction(ev.value) - Fraction(text))) > ev.err_estimate + 4 * EPS * abs(ev.value)
    return points, violations


def step_counts(reference):
    # (steps, violations) over every step g(n+1) - g(n), n <= 100, that the table holds both ends of
    table = {}
    for key, text in reference["g"].items():
        n, x = key.split("|")
        if int(n) <= 101 and text is not None:
            table.setdefault(float(x), {})[int(n)] = Fraction(text)
    steps = violations = 0
    for x, g in table.items():
        for n in sorted(k for k in g if k <= 100 and k + 1 in g):
            ev = family._ladder_delta(n, x)
            steps += 1
            assert ev.converged and ev.err_estimate > 0.0
            violations += float(abs(Fraction(ev.value) - (g[n + 1] - g[n]))) > ev.err_estimate + 4 * EPS * abs(ev.value)
    return steps, violations


def test_ladder_route_error_estimate_is_a_bound(reference):
    assert ladder_counts(reference, DEFAULT_ACCURACY) == (1957, 0)


def test_ladder_step_error_estimate_is_a_bound(reference):
    assert step_counts(reference) == (10582, 0)


# budgets other than the default, for each route that reads one: the quadrature routes, and the ladder route, whose
# g(1, x) is an integral; its steps are series sums, which read no budget. The tightest gates the refinement
# budget's headroom, as a quadrature that does not converge within it fails the test
QUAD_BUDGETS = {f"quad_rel_tol={t:g}": Accuracy(quad_rel_tol=t) for t in (1e-4, 1e-8, 1e-15, 1e-16)}
BUDGET_SETS = {  # route -> (table, points kept, their count)
    "integral": ("g", lambda n, x: n in ORDERS, 2225),
    "derivative-cot": ("dg", lambda n, x: True, 6029),
}


@pytest.mark.parametrize("method, budget", [
    (method, budget) for method in BUDGET_SETS for budget in QUAD_BUDGETS
])
def test_routes_bound_their_error_at_other_budgets(reference, method, budget):
    # a route that runs out of budget raises NonConvergenceError, which fails the test too
    table, keep, count = BUDGET_SETS[method]
    rows = errors(reference[table], method, keep, QUAD_BUDGETS[budget])
    assert len(rows) == count
    assert [r[0] for r in rows if r[3] > r[2] + 4 * EPS * abs(r[1])] == []


@pytest.mark.parametrize("budget", list(QUAD_BUDGETS))
def test_series_route_reads_no_budget(reference, budget):
    # every x g' value with x < 1 comes out bit for bit the same at any budget, so the default's gate covers them all
    keep = lambda n, x: x < 1.0
    assert errors(reference["dg"], "derivative-series", keep, QUAD_BUDGETS[budget]) == errors(
        reference["dg"], "derivative-series", keep)


@pytest.mark.parametrize("budget", list(QUAD_BUDGETS))
def test_ladder_bounds_its_error_at_other_budgets(reference, budget):
    assert ladder_counts(reference, QUAD_BUDGETS[budget]) == (1957, 0)


def _pi_decimal():
    # the decimal module documentation's recipe, at the context's precision
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _zeta_odd(s, N=200):
    # Borwein's (2000) alternating-series algorithm with exact integer weights: error below 3 / (3 + sqrt 8)^N
    d, acc = [], 0
    for i in range(N + 1):
        acc += N * math.factorial(N + i - 1) * 4**i // (math.factorial(N - i) * math.factorial(2 * i))
        d.append(acc)
    total = sum(Decimal((-1) ** k * (d[k] - d[N])) / Decimal(k + 1) ** s for k in range(N))
    return -total / (d[N] * (1 - Decimal(2) ** (1 - s)))


def closed_forms(n_max=40):
    # g(n, x) at x = 1/2 and 1, n = 1..n_max, from the Fourier series log(2 sin(t/2)) = -sum_k cos(k t)/k
    # integrated against the weight: with theta = 2 pi x, where e^(i theta) = +-1 and Li_{n+1}(+-1) is
    # zeta(n+1) or -(1 - 2^-n) zeta(n+1),
    #   g = H_n - log theta + (n!/theta^n) [(n even) (-1)^(n/2) Li_{n+1}(+-1)
    #                                       - sum_{j<n, j = n mod 2} (-1)^((n-j)/2) theta^j zeta(n+1-j) / j!].
    # n!/theta^n reaches 1e28 at n = 40, so the sum cancels; 130 digits keep 30 after it
    with localcontext() as ctx:
        ctx.prec = 130
        zeta = {s: _zeta_odd(s) for s in range(3, n_max + 2, 2)}
        out = {}
        for x in (Decimal("0.5"), Decimal(1)):
            theta = 2 * _pi_decimal() * x
            h = Fraction(0)
            for n in range(1, n_max + 1):
                h += Fraction(1, n)
                total = Decimal(0)
                if n % 2 == 0:
                    li = zeta[n + 1] if x == 1 else -(1 - Decimal(2) ** -n) * zeta[n + 1]
                    total += (-1) ** (n // 2) * li
                for j in range(n % 2, n, 2):
                    total -= (-1) ** ((n - j) // 2) * theta**j * zeta[n + 1 - j] / math.factorial(j)
                value = Decimal(h.numerator) / h.denominator - theta.ln() + math.factorial(n) / theta**n * total
                out[n, float(x)] = Fraction(value)
    return out


@pytest.fixture(scope="module")
def anchors():
    return closed_forms()


def test_closed_forms_meet_the_reference(anchors, reference):
    # two independent paths to the same numbers: the Fourier series here, an mpmath quadrature there
    for (n, x), value in anchors.items():
        assert abs(value - Fraction(reference["g"][f"{n}|{x!r}"])) <= Fraction(1, 10**25)


@pytest.mark.parametrize("method", ["integral", "ladder"])
def test_routes_meet_the_closed_forms_within_their_bounds(anchors, method):
    for (n, x), value in anchors.items():
        ev = evaluate(GridPoint(n, x), method=method)
        assert float(abs(Fraction(ev.value) - value)) <= ev.err_estimate + 4 * EPS * abs(ev.value), (n, x)


def derivative_closed_forms(anchors):
    # x g'(n, x) = n [g(n-1, x) - g(n, x)] for n >= 2 (the family's differential relation), and
    # x g'(1, 1/2) = -1 - log 2, from int_0^(pi/2) t cot t dt = (pi/2) log 2; x g'(1, 1) diverges
    out = {(n, x): n * (anchors[n - 1, x] - anchors[n, x]) for (n, x) in anchors if n >= 2}
    with localcontext() as ctx:
        ctx.prec = 40
        out[1, 0.5] = Fraction(-1 - Decimal(2).ln())
    return out


def test_derivative_closed_forms_meet_the_reference(anchors, reference):
    table = reference["dg"]
    stored = {p: v for p, v in derivative_closed_forms(anchors).items() if table.get("{}|{!r}".format(*p)) is not None}
    assert len(stored) == 37
    for (n, x), value in stored.items():
        assert abs(value - Fraction(table[f"{n}|{x!r}"])) <= Fraction(1, 10**25)


@pytest.mark.parametrize("method, xs", [("derivative-cot", (0.5, 1.0)), ("derivative-series", (0.5,))])
def test_derivative_routes_meet_the_closed_forms_within_their_bounds(anchors, method, xs):
    rows = {p: v for p, v in derivative_closed_forms(anchors).items() if p[1] in xs}
    assert len(rows) == 40 * len(xs) - (1.0 in xs)
    for (n, x), value in rows.items():
        ev = evaluate(GridPoint(n, x), method=method)
        assert float(abs(Fraction(ev.value) - value)) <= ev.err_estimate + 4 * EPS * abs(ev.value), (n, x)
