"""Four routes to the regularized log-sine moment family g(n, x).

The canonical definition is the integral representation

    g(n, x) = H_n - log(2 pi x) - n int_0^1 (1-u)^(n-1) log(2 sin(pi x u)) du.

As the weight's log moment is -H_n, it is evaluated as 2 H_n - 2 log(2 pi x) -
n int_0^1 (1-u)^(n-1) log(sin w / w) du, w = pi x u; every route likewise
integrates a smooth remainder and takes its endpoint terms in closed form.

The other routes (scaled derivative via cotangent averages or via the
even-zeta series, the ladder recursion in n, the generating function in z)
are theorems about this definition; the verify module quantifies how well
each one holds numerically.
"""

from __future__ import annotations

import math
from operator import mul

from .config import DEFAULT_ACCURACY, Accuracy, GenfuncPoint, GridPoint, _require_int
from .errors import DomainError, NonConvergenceError
from .quadrature import Evaluation, _checked, _cot_remainder, _log_sinc, integrate_de
from .sequences import harmonic, zeta_even

CONSTANT_AS_PRINTED = "as_printed"
CONSTANT_CORRECTED = "corrected"
SERIES_CONSTANTS = {CONSTANT_AS_PRINTED: -1.0, CONSTANT_CORRECTED: -2.0}
CONSTANT_VARIANTS = tuple(SERIES_CONSTANTS)

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


def _moment(integrand, acc: Accuracy) -> Evaluation:
    # the quadrature's result whether or not it converged: each route maps
    # it into its own units, and _checked decides once on the route's result
    try:
        return integrate_de(integrand, acc)
    except NonConvergenceError as exc:
        return exc.result


def _averaged(n: int, kernel, a: float):
    # us -> n (1-u)^(n-1) kernel(a u) for one integral. Where the weight has
    # underflowed the product would be +-0.0, which the Kahan sum takes like
    # +0.0, and both kernels are finite on 0 <= a u < pi: skipping the call
    # changes no bit and hides no non-finite sample.
    return lambda us: [n * w * kernel(a * u) if (w := (1.0 - u) ** (n - 1)) else 0.0 for u in us]


def _sinc_row(x: float):
    # (ws, us) -> ws[i] log sinc(pi x us[i]) at one level's abscissae us, kept per
    # level for every order evaluated at x: each node is sampled once, up to the
    # last nonzero weight (as in _averaged), for as long as the caller keeps the row
    a, levels = math.pi * x, {}

    def row(ws: list[float], us: tuple[float, ...]) -> list[float]:
        while ws and not ws[-1]:
            ws.pop()
        values = levels.setdefault(us, [])
        if len(values) < len(ws):
            values.extend([_log_sinc(a * u) for u in us[len(values):len(ws)]])
        return list(map(mul, ws, values)) + [0.0] * (len(us) - len(ws))

    return row


def _integral(p: GridPoint, acc: Accuracy, row=None) -> Evaluation:
    # 2 H_n - 2 log(2 pi x) - q, q = n int_0^1 (1-u)^(n-1) log sinc(pi x u) du;
    # row, if given, is the _sinc_row at x that the caller shares across orders
    n, x = p.n, p.x
    log_x = math.log(x)
    if n == 1 and x == 1.0:
        # only the order-1 weight is nonzero at u = 1, where log sinc(pi u) ~ log(1-u)
        q = _moment(lambda us: [_log_sinc(math.pi * u) - math.log1p(-u) for u in us], acc)
        q = q._replace(value=q.value - 1.0)
    elif row:
        q = _moment(lambda us: row([n * (1.0 - u) ** (n - 1) for u in us], us), acc)
    else:
        q = _moment(_averaged(n, _log_sinc, math.pi * x), acc)
    h = harmonic(n)
    floor = _EPS * (2.0 * h + 2.0 * (_LOG_2PI - log_x) + abs(q.value))  # rounding of the terms
    return Evaluation(_leading(h, x) - q.value, q.err_estimate + floor, q.evaluations, q.converged)


def _derivative_cot(p: GridPoint, acc: Accuracy) -> Evaluation:
    # -2 - n int_0^1 (1-u)^(n-1) (w cot w - 1) du: the kernel is 1 at u = 0
    n, x = p.n, p.x
    if n == 1 and x == 1.0:
        raise DomainError("the derivative diverges like log(1-x) at n = 1, x = 1")
    q = _moment(_averaged(n, _cot_remainder, math.pi * x), acc)
    return q._replace(value=-2.0 - q.value, err_estimate=q.err_estimate + _EPS * (2.0 + abs(q.value)))


def _derivative_series(p: GridPoint, acc: Accuracy, constant_variant: str) -> Evaluation:
    if constant_variant not in CONSTANT_VARIANTS:
        raise DomainError(f"constant_variant must be one of {CONSTANT_VARIANTS}")
    if p.x >= 1.0:
        raise DomainError("x must satisfy x < 1 on the series route")
    constant = SERIES_CONSTANTS[constant_variant]
    n = p.n
    x2 = p.x * p.x
    xpow = 1.0
    ratio = 1.0  # n! (2m)! / (2m+n)!, which is 1 at m = 0
    terms: list[float] = []
    for m in range(1, acc.max_series_terms + 1):
        xpow *= x2
        ratio *= (2 * m - 1) * (2 * m) / ((2 * m - 1 + n) * (2 * m + n))
        term = 2.0 * ratio * zeta_even(m) * xpow
        terms.append(term)
        if abs(term) < acc.series_abs_tol:
            break
    # terms decay at least geometrically at rate x^2, so the discarded tail
    # is below |last| * x^2 / (1 - x^2)
    tail = abs(terms[-1]) * x2 / (1.0 - x2)
    return Evaluation(math.fsum(terms) + constant, tail, len(terms), True)


def _ladder_delta(n: int, x: float, acc: Accuracy, row=None) -> Evaluation:
    # 2/(n+1) - int_0^1 K log sinc(pi x u) du: the step kernel
    # K = (n+1)(1-u)^n - n(1-u)^(n-1) has log moment -1/(n+1)
    if n == 1 and x == 1.0:
        # K = 1 - 2u is -1 at u = 1: as in _integral, with int_0^1 K log(1-u) du = 1/2
        q = _moment(lambda us: [(1.0 - 2.0 * u) * (_log_sinc(math.pi * u) - math.log1p(-u)) for u in us], acc)
        return q._replace(value=0.5 - q.value)
    row = row or _sinc_row(x)
    q = _moment(lambda us: row([((n + 1) * (1.0 - u) - n) * (1.0 - u) ** (n - 1) for u in us], us), acc)
    return q._replace(value=2.0 / (n + 1) - q.value)


def _require_climbable(n: int) -> None:
    if n > LADDER_MAX_ORDER:
        raise DomainError(f"n must satisfy n <= {LADDER_MAX_ORDER} (LADDER_MAX_ORDER) on the ladder route")


def _ladder_path(x: float, n_max: int, acc: Accuracy, row=None) -> list[Evaluation]:
    # g(1, x), ..., g(n_max, x) from one climb: each rung adds one ladder
    # step to the rung below, so every prefix sums in the same order as a
    # climb that stops there. Every rung reads one _sinc_row at x.
    _require_climbable(n_max)
    row = row or _sinc_row(x)
    path = [_integral(GridPoint(1, x), acc, row=row)]
    for k in range(1, n_max):
        below, step = path[-1], _ladder_delta(k, x, acc, row=row)
        path.append(Evaluation(
            below.value + step.value,
            below.err_estimate + step.err_estimate,
            below.evaluations + step.evaluations,
            below.converged and step.converged,
        ))
    return path


def _via_ladder(p: GridPoint, acc: Accuracy) -> Evaluation:
    return _ladder_path(p.x, p.n, acc)[-1]


def evaluate(
    p: GridPoint,
    method: str = METHOD_INTEGRAL,
    acc: Accuracy = DEFAULT_ACCURACY,
    constant_variant: str = CONSTANT_CORRECTED,
) -> Evaluation:
    """Evaluate the family (or its scaled derivative) by the named route.

    A NonConvergenceError carries the route's best estimate as its result."""
    if method == METHOD_INTEGRAL:
        ev = _integral(p, acc)
    elif method == METHOD_LADDER:
        ev = _via_ladder(p, acc)
    elif method == METHOD_DERIVATIVE_COT:
        ev = _derivative_cot(p, acc)
    elif method == METHOD_DERIVATIVE_SERIES:
        ev = _derivative_series(p, acc, constant_variant)
    else:
        raise DomainError(f"method must be one of {METHODS}")
    return _checked(ev)


def eval_integral(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Canonical value of the family at p, by the integral representation."""
    return _checked(_integral(p, acc)).value


def eval_derivative_cot(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """x * d/dx of the family at p, via the cotangent average:

        -n int_0^1 (1-u)^(n-1) pi x u cot(pi x u) du - 1
    """
    return _checked(_derivative_cot(p, acc)).value


def eval_derivative_series(
    p: GridPoint,
    acc: Accuracy = DEFAULT_ACCURACY,
    constant_variant: str = CONSTANT_CORRECTED,
) -> float:
    """x * d/dx of the family at p, via the even-zeta series:

        2 n! sum_{m>=1} (2m)!/(2m+n)! zeta(2m) x^(2m) + C

    with C = -1 ("as_printed") or C = -2 ("corrected"). The two printed
    constants are mutually inconsistent; substituting the cotangent
    expansion into the integral route yields -2, and the verification
    harness confirms which variant tracks the canonical derivative. The
    factorial ratio n! (2m)!/(2m+n)! is updated from one m to the next by
    (2m-1)(2m)/((2m-1+n)(2m+n)), never through explicit factorials.
    """
    return _derivative_series(p, acc, constant_variant).value


def ladder_delta(n: int, x: float, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Step of the ladder recursion, g(n+1, x) - g(n, x):

        1/(n+1) - int_0^1 [(n+1)(1-u)^n - n(1-u)^(n-1)] log(2 sin(pi x u)) du
    """
    p = GridPoint(n, x)
    return _checked(_ladder_delta(p.n, p.x, acc)).value


def eval_via_ladder(p: GridPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Family value reached by climbing the ladder from order 1."""
    return _checked(_via_ladder(p, acc)).value


def genfunc_closed(q: GenfuncPoint, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Closed form of the generating function sum_{n>=1} g(n, x) z^n:

        -(z/(1-z)) log(2 pi x) - log(1-z)/(1-z)
        - int_0^1 log(2 sin(pi x u)) z / (1 - z(1-u))^2 du
    """
    x, z = q.x, q.z
    # the kernel's mass z/(1-z) and log moment log(1-z)/(1-z) are closed forms
    quad = _moment(lambda us: [_log_sinc(math.pi * x * u) * z / ((d := 1.0 - z * (1.0 - u)) * d) for u in us], acc)
    closed = -2.0 * (z / (1.0 - z)) * (_LOG_2PI + math.log(x)) - 2.0 * math.log1p(-z) / (1.0 - z)
    return _checked(quad._replace(value=closed - quad.value)).value


# orders past N whose peak |g| bounds the generating-function tail
_TAIL_PROBE = 20


def _genfunc_orders(x: float, count: int, acc: Accuracy) -> list[float]:
    # g(1, x), ..., g(count, x) over one kernel row: the partial sum and the
    # tail bound at one x read the same values whatever z they are taken at
    row = _sinc_row(x)
    return [_checked(_integral(GridPoint(n, x), acc, row=row)).value for n in range(1, count + 1)]


def _partial_sum(values: list[float], z: float) -> float:
    zpow = 1.0
    terms = []
    for g in values:
        zpow *= z
        terms.append(g * zpow)
    return math.fsum(terms)


def _tail_bound(values: list[float], z: float, N: int) -> float:
    peak = max(abs(g) for g in values)
    return peak * abs(z) ** (N + 1) / (1.0 - abs(z))


def genfunc_partial(x: float, z: float, N: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Partial sum sum_{n=1..N} g(n, x) z^n of the generating function."""
    _require_int("N", N, 1)
    point = GenfuncPoint(x, z)  # validates x and |z| <= 0.9
    return _partial_sum(_genfunc_orders(x, N, acc), point.z)


def genfunc_tail_bound(x: float, z: float, N: int, acc: Accuracy = DEFAULT_ACCURACY) -> float:
    """Empirical bound on the generating-function tail beyond N:

        max_{n <= N+20} |g(n, x)| * |z|^(N+1) / (1 - |z|)

    The peak is probed empirically over a fixed 20 orders past N rather
    than assumed from any claimed decay in n (the family in fact grows like
    2 log n at fixed x).
    """
    _require_int("N", N, 1)
    GenfuncPoint(x, z)
    return _tail_bound(_genfunc_orders(x, N + _TAIL_PROBE, acc), z, N)
