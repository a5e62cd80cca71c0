"""Four routes to the regularized log-sine moment family g(n, x).

The canonical definition is the integral representation

    g(n, x) = H_n - log(2 pi x) - n int_0^1 (1-u)^(n-1) log(2 sin(pi x u)) du.

As the weight's log moment is -H_n, it is evaluated as 2 H_n - 2 log(2 pi x) -
n int_0^1 (1-u)^(n-1) log(sin w / w) du, w = pi x u; every route likewise
integrates a smooth remainder and takes its endpoint terms in closed form; a
Beta-weighted quadrature also drops its kernel's w^2 term and adds its exact moment.

The other routes (scaled derivative via cotangent averages or via the
even-zeta series, the ladder recursion in n, the generating function in z)
are theorems about this definition; the verify module quantifies how well
each one holds numerically.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from types import SimpleNamespace

from .config import DEFAULT_ACCURACY, Accuracy, GenfuncPoint, GridPoint, _as_point, _require_accuracy, _require_int
from .errors import DomainError, NonConvergenceError
from .quadrature import Evaluation, _checked, from_samples, integrate_de
from .quadrature import _C2, _cot_less_pole, _log_sinc_less_w2
from .sequences import harmonic, zeta_even

METHOD_INTEGRAL = "integral"
METHOD_LADDER = "ladder"
METHOD_DERIVATIVE_COT = "derivative-cot"
METHOD_DERIVATIVE_SERIES = "derivative-series"
METHODS = (METHOD_INTEGRAL, METHOD_LADDER, METHOD_DERIVATIVE_COT, METHOD_DERIVATIVE_SERIES)

# highest order the ladder climbs to: one quadrature per rung, ~100 us each,
# so a climb ends in about a second
LADDER_MAX_ORDER = 10_000

_EPS = math.ulp(1.0)
_LOG_2PI = math.log(2.0 * math.pi)


def _leading(h: float, x: float) -> float:
    # 2 H_n - 2 log(2 pi x) for h = H_n, as log 2 pi + log x: a subnormal x is not rounded in 2 pi x
    return 2.0 * (h - _LOG_2PI - math.log(x))


def _from_remainder(lead: float, size: float, q: Evaluation, moment: float) -> Evaluation:
    # lead - (q - moment): q integrates a kernel less its w^2 term, and moment is minus that term's exact moment.
    # Rounding floor c eps (size + |q| + |value|), where size bounds lead's terms. lead errs by <= 2.5 eps size, moment
    # (5 roundings) by <= 4 eps |moment| <= 4 eps (size + |q| + |value|) and the subtractions by eps/2 (|q| + |moment|
    # + |value|): c = 7. The samples' own rounding has no such bound near w = pi (t = 1), nor the cot route's P + M
    # (a few eps of itself); c = 8 adds 1 for them, as no value or step of perfbench/reference.json needs more than
    # c = 2.3 in all (the order-1 step near x = 1; 0.86 on the cot route)
    value = lead - (q.value - moment)
    return q._replace(value=value, err_estimate=q.err_estimate + 8.0 * _EPS * (size + abs(q.value) + abs(value)))


def _moment(integrand, acc: Accuracy) -> Evaluation:
    # the quadrature's result whether or not it converged: each route maps
    # it into its own units, and _checked decides once on the route's result
    try:
        return integrate_de(integrand, acc)
    except NonConvergenceError as exc:
        return exc.result


def _beta_sum(n: int, kernel, a: float, step: bool = False):
    # (us, dudts) -> one level's Kahan sum, in ascending u, of c (1-u)^(n-1) kernel(a u) du/dt, c = n or, for the
    # ladder step, (n+1)(1-u) - n. The weight falls as u rises: from its first underflow to 0.0 every sample is
    # +-0.0, so the loop stops there, without calling the kernel, and folds those zeros into the sum
    m = n - 1

    def level(us: tuple[float, ...], dudts: tuple[float, ...]) -> float:
        total = comp = 0.0
        stop = len(us)
        for u, dudt in zip(us, dudts):
            v = 1.0 - u
            w = v ** m
            if not w:
                stop = us.index(u)
                break
            y = ((n + 1) * v - n if step else n) * w * kernel(a * u) * dudt - comp
            t = total + y
            comp = (t - total) - y
            total = t
        for _ in range(len(us) - stop):  # a 0.0 sample's Kahan step adds -comp: once it changes nothing, none will
            t = total - comp
            if t == total:
                break
            total, comp = t, (t - total) + comp
        if not math.isfinite(total):  # as a non-finite sample leaves it: from_samples names the first
            head = [((n + 1) * (1.0 - u) - n if step else n) * (1.0 - u) ** m * kernel(a * u) for u in us[:stop]]
            return from_samples(lambda us: head + [0.0] * (len(us) - stop))(us, dudts)
        return total

    return level


class _SincRow(dict):  # w -> log sinc(w) + w^2/6, taken once per w: every order at one x reads the same samples
    def __missing__(self, w: float) -> float:
        self[w] = value = _log_sinc_less_w2(w)
        return value


def _quadrature(n: int, kernel, a: float, acc: Accuracy, step: bool = False) -> Evaluation:
    # _beta_sum's moment. Routes take n, n + 1 and n + 2 as floats only after it has refused an order past that range
    if n + 2 > sys.float_info.max:
        raise DomainError("n must satisfy n + 2 <= 1.797e308 (the largest float) on the quadrature routes")
    return _moment(_beta_sum(n, kernel, a, step), acc)


def _integral(p: GridPoint, acc: Accuracy, row=None) -> Evaluation:
    # 2 H_n - 2 log(2 pi x) - q, q = n int_0^1 (1-u)^(n-1) log sinc(pi x u) du; the kernel's w^2 term -w^2/6 has moment
    # -(pi x)^2 / (3 (n+1)(n+2)). row, if given, is the kernel of a _SincRow at x that the caller shares across orders
    n, x = p.n, p.x
    if n == 1 and x == 1.0:  # g(1, x) = 1 - log(2 pi x) + Cl_2(2 pi x) / (2 pi x), and Cl_2(2 pi) = 0
        return _from_remainder(1.0 - _LOG_2PI, 1.0 + _LOG_2PI, Evaluation(0.0, 0.0, 0, True), 0.0)
    a = math.pi * x
    q = _quadrature(n, row or _log_sinc_less_w2, a, acc)
    moment = a * a / (3.0 * (n + 1) * (n + 2))
    h = harmonic(n)
    return _from_remainder(_leading(h, x), 2.0 * h + 2.0 * (_LOG_2PI - math.log(x)), q, moment)


def _derivative_cot(p: GridPoint, acc: Accuracy) -> Evaluation:
    # -2 - n int_0^1 (1-u)^(n-1) (w cot w - 1) du, w = pi x u, as -4 + P + M + R (_poles): the kernel's part
    # -2t^2/(1-t^2), t = xu, the sine product's k = 1 pole, has moment 2 - P - M, and R = -n int_0^1 (1-u)^(n-1) rho(xu)
    # du + C2 x^2 2/((n+1)(n+2)), as rho (quadrature._cot_less_pole) is the kernel less that part and its t^2 term
    n, x = p.n, p.x
    if n == 1 and x == 1.0:
        raise DomainError("the derivative diverges like log(1-x) at n = 1, x = 1")
    q = _quadrature(n, _cot_less_pole, x, acc)
    P, M = _poles(n, x)
    moment = _C2 * x * x / (0.5 * (n + 1) * (n + 2))
    return _from_remainder(-4.0 + P + M, 4.0 + P + M, q, moment)


def _ratio_sum(a: float, j: int, c: int) -> float:
    # 1 + t_1 + t_2 + ..., each term the last times a j/(j+c) for j, j+1, ..., until a term no longer moves the sum.
    # j/(j+c) is an int/int quotient, correctly rounded at any order (10^400 too)
    total, term = 1.0, a * (j / (j + c))
    while total + term != total:
        total += term
        j += 1
        term *= a * (j / (j + c))
    return total


def _poles(n: int, x: float) -> tuple[float, float]:
    # P = n K(x) and M = n K(-x), K(a) = int_0^1 (1-u)^(n-1)/(1+au) du: the moments of the sine product's k = 1 factor,
    # which both x g' routes take in closed form. Every term of both sums is positive
    P = _ratio_sum(x / (1.0 + x), n, 1) / (1.0 + x)  # n/(1+x) sum_j b^j/(n+j), b = x/(1+x) <= 1/2
    if x == 1.0:  # K(-1) = 1/(n-1), n >= 2
        return P, n / (n - 1)
    if n >= 64 or x < 0.75:  # M = sum_j x^j j! n!/(n+j)!, term ratio x (j+1)/(n+j+1)
        return P, _ratio_sum(x, 1, n)
    k = -math.log1p(-x) / x  # K_m = (1/m - (1-x) K_(m-1))/x from K_0 = -log(1-x)/x: its multiplier (1-x)/x is <= 1/3
    for m in range(1, n):
        k = (1.0 / m - (1.0 - x) * k) / x
    return P, n * k


def _derivative_series(p: GridPoint, acc: Accuracy) -> Evaluation:
    # -2 + 2 sum_m r_m zeta(2m) x^(2m), r_m = n! (2m)!/(2m+n)!. zeta(2m)'s 1s are the sine product's k = 1 factor:
    # 2 sum_m r_m x^(2m) = P + M - 2 (_poles). So the value is -4 + P + M + R, R = 2 sum_m r_m (zeta(2m) - 1) x^(2m)
    n, x = p.n, p.x
    if x >= 1.0:
        raise DomainError("x must satisfy x < 1 on the series route")
    P, M = _poles(n, x)
    x2, coef, terms, m = x * x, 2.0, [], 0  # coef: 2 r_m x^(2m)
    while not terms or terms[-1] >= acc.series_abs_tol:
        m += 1
        coef *= x2 * ((2 * m - 1) * (2 * m) / ((2 * m - 1 + n) * (2 * m + n)))
        terms.append(coef * (zeta_even(m) - 1.0))  # exact, as zeta_even(m) is in [1, 2] (Sterbenz)
    # (zeta(2m+2) - 1)/(zeta(2m) - 1) <= 1/4 and r_(m+1) <= r_m: the tail is at most last (x^2/4)/(1 - x^2/4). Floor
    # 2 eps (S + |value|), S = 4 + P + M + R: the additions err by <= eps/2 (S + |value|), R by <= eps/2 (P + M)
    # (ulp(1)/2 per coefficient; 0.0 for <= 5.6e-17 from m = 27), P and M by a few eps of themselves (terms that fall
    # geometrically; the recurrence damps each rounding by 1/3). Worst over perfbench/reference.json: 0.29 of it
    R, tail = math.fsum(terms), terms[-1] * x2 / (4.0 - x2)
    value = -4.0 + P + M + R
    return Evaluation(value, tail + 2.0 * _EPS * (4.0 + P + M + R + abs(value)), len(terms), True)


def _ladder_delta(n: int, x: float, acc: Accuracy, row=None) -> Evaluation:
    # 2/(n+1) - int_0^1 K log sinc(pi x u) du: the step kernel K = (n+1)(1-u)^n - n(1-u)^(n-1) has log moment
    # -1/(n+1), and int_0^1 K u^2 du = -4/((n+1)(n+2)(n+3)) gives the w^2 term the moment 2 (pi x)^2/(3 (n+1)(n+2)(n+3))
    if n == 1 and x == 1.0:  # g(2, 1) - g(1, 1): the Clausen terms vanish at x = 1, and H_2 - H_1 = 1/2
        return _from_remainder(0.5, 0.5, Evaluation(0.0, 0.0, 0, True), 0.0)
    a = math.pi * x
    q = _quadrature(n, row or _log_sinc_less_w2, a, acc, step=True)
    moment = -2.0 * a * a / (3.0 * (n + 1) * (n + 2) * (n + 3))
    lead = 2.0 / (n + 1)
    return _from_remainder(lead, lead, q, moment)


def _require_climbable(n: int) -> None:
    if n > LADDER_MAX_ORDER:
        raise DomainError(f"n must satisfy n <= {LADDER_MAX_ORDER} (LADDER_MAX_ORDER) on the ladder route")


def _scale(x: float, acc: Accuracy) -> SimpleNamespace:
    # checked routes at one x over one _SincRow: g(n) evaluates each order once, step(n) is the ladder
    # step from n, and rung(n) extends one climb from g(1) as far as asked, so every rung sums as a
    # climb that stops there would. A raised error is not kept. Routes are looked up by their
    # module-global names at each call, so a wrapper put there (perfbench/spans.py) sees every one.
    row = _SincRow().__getitem__
    integral = cache(lambda n: _integral(GridPoint(n, x), acc, row=row))
    path: list[Evaluation] = []

    def rung(n: int) -> Evaluation:
        _require_climbable(n)
        if not path:
            path.append(integral(1))
        while len(path) < n:
            below, step = path[-1], _ladder_delta(len(path), x, acc, row=row)
            path.append(Evaluation(
                below.value + step.value,
                below.err_estimate + step.err_estimate,
                below.evaluations + step.evaluations,
                below.converged and step.converged,
            ))
        return _checked(path[n - 1])

    return SimpleNamespace(
        g=lambda n: _checked(integral(n)), step=lambda n: _checked(_ladder_delta(n, x, acc, row=row)), rung=rung
    )


def evaluate(
    p: GridPoint,
    method: str = METHOD_INTEGRAL,
    acc: Accuracy = DEFAULT_ACCURACY,
) -> Evaluation:
    """Evaluate the family (or its scaled derivative) by the named route.

    A NonConvergenceError carries the route's best estimate as its result.
    p may also be an (n, x) pair."""
    p = p if type(p) is GridPoint else _as_point(GridPoint, p)
    _require_accuracy(acc)
    if method == METHOD_INTEGRAL:
        ev = _integral(p, acc)
    elif method == METHOD_LADDER:
        ev = _scale(p.x, acc).rung(p.n)
    elif method == METHOD_DERIVATIVE_COT:
        ev = _derivative_cot(p, acc)
    elif method == METHOD_DERIVATIVE_SERIES:
        ev = _derivative_series(p, acc)
    else:
        raise DomainError(f"method must be one of {METHODS}")
    return _checked(ev)


def eval_integral(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Canonical value of the family at p, by the integral representation."""
    return evaluate(p, METHOD_INTEGRAL, acc).value


def eval_derivative_cot(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """x * d/dx of the family at p, via the cotangent average:

        -n int_0^1 (1-u)^(n-1) pi x u cot(pi x u) du - 1

    As on the series route, the kernel's pole at x u = 1 (the sine product's
    k = 1 factor) is summed in closed form, -4 + P + M, and the quadrature
    integrates only the smooth rest R, so the estimate is a bound up to x = 1.
    """
    return evaluate(p, METHOD_DERIVATIVE_COT, acc).value


def eval_derivative_series(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """x * d/dx of the family at p, x < 1, via the even-zeta series:

        2 n! sum_{m>=1} (2m)!/(2m+n)! zeta(2m) x^(2m) - 2

    The paper prints two mutually inconsistent constants, -1 and -2;
    substituting the cotangent expansion into the integral route yields
    -2. The parts of zeta(2m) = 1 + (zeta(2m) - 1) are summed apart: the 1s
    in closed form, as the -4 + P + M the cotangent route shares, and the rest
    R, whose terms fall at least 4x each, to below acc.series_abs_tol with a
    proven tail. Its terms (at most 23 by default) are the evaluations that
    evaluate() reports; the series_constant check compares R with the
    cotangent route's integrated R.
    """
    return evaluate(p, METHOD_DERIVATIVE_SERIES, acc).value


def ladder_delta(n: int, x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Step of the ladder recursion, g(n+1, x) - g(n, x):

        1/(n+1) - int_0^1 [(n+1)(1-u)^n - n(1-u)^(n-1)] log(2 sin(pi x u)) du
    """
    p = GridPoint(n, x)
    _require_accuracy(acc)
    return _checked(_ladder_delta(p.n, p.x, acc)).value


def eval_via_ladder(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Family value reached by climbing the ladder from order 1."""
    return evaluate(p, METHOD_LADDER, acc).value


def genfunc_closed(q: GenfuncPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Closed form of the generating function sum_{n>=1} g(n, x) z^n:

        -(z/(1-z)) log(2 pi x) - log(1-z)/(1-z)
        - int_0^1 log(2 sin(pi x u)) z / (1 - z(1-u))^2 du
    """
    q = q if type(q) is GenfuncPoint else _as_point(GenfuncPoint, q)
    x, z = q.x, q.z
    # the kernel's mass z/(1-z) and log moment log(1-z)/(1-z) are closed forms; the samples are log sinc itself
    quad = _moment(from_samples(lambda us: [(_log_sinc_less_w2(w := math.pi * x * u) - w * w / 6.0) * z
                                            / ((d := 1.0 - z * (1.0 - u)) * d) for u in us]), acc)
    closed = -2.0 * (z / (1.0 - z)) * (_LOG_2PI + math.log(x)) - 2.0 * math.log1p(-z) / (1.0 - z)
    return _checked(quad._replace(value=closed - quad.value)).value


def _genfunc_orders(x: float, count: int, acc: Accuracy) -> list[Evaluation]:
    # g(1, x), ..., g(count, x) over one kernel row: the partial sum and the
    # tail bound at one x read the same values whatever z they are taken at
    _require_accuracy(acc)
    g = _scale(x, acc).g
    return [g(n) for n in range(1, count + 1)]


def _partial_sum(orders: list[Evaluation], z: float) -> float:
    zpow = 1.0
    terms = []
    for g in orders:
        zpow *= z
        terms.append(g.value * zpow)
    return math.fsum(terms)


def _tail_bound(g1: Evaluation, x: float, z: float, N: int) -> float:
    # sum_{n>N} |g(n, x)| t^n, t = |z|, from g1 = g(1, x). g(n, x) = L_n + r_n, L_n = 2 H_n - 2 log(2 pi x), where r_n,
    # the Beta(1, n) moment of -log sinc(pi x u) >= 0, falls as n rises (the kernel rises in u, the weight falls
    # stochastically in n): 0 <= r_n <= r_1 = g1 - L_1 (+ g1's estimate). As 0 <= H_(N+1+k) - H_(N+1) <= k/(N+2), the
    # tail is at most t^(N+1) [(|L_(N+1)| + r_1)/(1-t) + 2t/((N+2)(1-t)^2)]. Its ~20 roundings err by a few eps of terms
    # at most 45 times |L_(N+1)| + r_1 (x > 0.7 where L_(N+1) vanishes, and r_1 >= (pi x)^2/18): the 1e-12 covers them
    t = abs(z)
    head = abs(_leading(harmonic(N + 1), x)) + g1.value - _leading(1.0, x) + g1.err_estimate
    return (1.0 + 1e-12) * t ** (N + 1) * (head / (1.0 - t) + 2.0 * t / ((N + 2) * (1.0 - t) ** 2))


def genfunc_partial(x: float, z: float, N: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Partial sum sum_{n=1..N} g(n, x) z^n of the generating function, N <= LADDER_MAX_ORDER."""
    _require_int("N", N, 1, LADDER_MAX_ORDER)
    point = GenfuncPoint(x, z)  # validates x and |z| <= 0.9
    return _partial_sum(_genfunc_orders(x, N, acc), point.z)


def genfunc_tail_bound(x: float, z: float, N: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Proven bound on the generating-function tail sum_{n>N} |g(n, x)| |z|^n
    from g(1, x) alone, as |g(n, x)| <= |2 H_n - 2 log(2 pi x)| + g(1, x) -
    2 + 2 log(2 pi x) at every n (the family grows like 2 log n).
    """
    _require_int("N", N, 1, LADDER_MAX_ORDER)
    point = GenfuncPoint(x, z)
    return _tail_bound(_genfunc_orders(point.x, 1, acc)[0], point.x, point.z, N)
