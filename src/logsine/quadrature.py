"""Singular integrand kernels and a tanh-sinh (double-exponential) engine.

The engine integrates over the open interval (0, 1), level by level. The
substitution

    u(t) = (1 + tanh((pi/2) sinh t)) / 2

maps the interval to the whole t-axis; the transformed weight decays
double-exponentially, which absorbs endpoint singularities up to
logarithmic strength. Abscissae are generated from a fixed window
|t| <= T chosen so u(t) stays strictly inside (0, 1) in double
precision, so the integrand is never sampled at u = 0 or u = 1.

Everything here is pure and holds no state between calls; node tables are
immutable tuples cached per refinement level. Node sums are Kahan
compensated in a fixed ascending-t order, so repeated calls are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Sequence

from .config import DEFAULT_ACCURACY, Accuracy, _is_real, _require_accuracy, _require_int, _require_scale
from .errors import DomainError, NonConvergenceError, NonFiniteSampleError

# Beyond |t| = _T_MAX the abscissa rounds onto an endpoint; the truncated
# mass is ~3e-16 per side, far below the default tolerance.
_T_MAX = 3.13
# Step of the coarsest trapezoid level; each refinement halves it.
_H0 = 0.5
# Below this value of w = pi*x*u (of t = x*u for _cot_less_pole) the cotangent
# kernels switch to their series forms; both branches agree to better than 1e-13 at the cutoff.
_COT_SERIES_CUTOFF = 1e-4
_REMAINDER_SERIES_CUTOFF = 1e-2  # remainder kernels use their series below it (error ~1e-21)
# 2 (zeta(2) - 1) = pi^2/3 - 2 and 2 (zeta(4) - 1) = pi^4/45 - 2, correctly rounded
_C2, _Z4 = 1.2898681336964528, 0.16464646742227637


class Evaluation(namedtuple("Evaluation", "value err_estimate evaluations converged")):
    """A value, its accumulated error estimate, the quadrature abscissae (every
    node of every level used, sampled or not) or series terms it took, and
    whether every quadrature behind it met its tolerance.

    For a bare integrate_de result, err_estimate is the absolute difference
    between the last two refinement levels; on convergence it satisfies
    err_estimate <= quad_rel_tol * max(|value|, 1). A route's estimate adds
    its rounding floor; the series route's is its proven tail plus that floor.
    """

    __slots__ = ()


def log_sin_kernel(x: float, u: float) -> float:
    """log(2 sin(pi x u)); integrable log singularity as u -> 0+."""
    _require_scale(x)
    if type(u) is not float and not _is_real(u) or not 0.0 < u <= 1.0:
        raise DomainError("u must satisfy 0 < u <= 1")
    if x * u >= 1.0:
        raise DomainError("x*u must satisfy x*u < 1")
    s = math.sin(math.pi * x * u)
    if s <= 0.0:
        raise DomainError("sin(pi x u) must be positive")
    return math.log(2.0 * s)


def cot_kernel(x: float, u: float) -> float:
    """pi*x*u * cot(pi*x*u), extended continuously by 1 at u = 0.

    Uses the stable quotient w*cos(w)/sin(w) except for w < 1e-4, where
    the series 1 - w^2/3 - w^4/45 avoids the 0/0 quotient.
    """
    _require_scale(x)
    if type(u) is not float and not _is_real(u) or not 0.0 <= u <= 1.0:
        raise DomainError("u must satisfy 0 <= u <= 1")
    if x * u >= 1.0:
        raise DomainError("x*u must satisfy x*u < 1")
    w = math.pi * x * u
    if w < _COT_SERIES_CUTOFF:
        w2 = w * w
        return 1.0 - w2 / 3.0 - w2 * w2 / 45.0
    return w * math.cos(w) / math.sin(w)


def weight(n: int, u: float) -> float:
    """Averaging weight n (1-u)^(n-1); integrates to exactly 1 on [0, 1]."""
    _require_int("n", n, 1, sys.float_info.max)
    if type(u) is not float and not _is_real(u) or not 0.0 <= u <= 1.0:
        raise DomainError("u must satisfy 0 <= u <= 1")
    return float(n) * (1.0 - u) ** (n - 1)


def _log_sinc_less_w2(w: float) -> float:
    # log sinc w + w^2/6, 0 <= w < pi: log sinc less its w^2 term, whose moments the routes take in closed form
    w2 = w * w
    if w < _REMAINDER_SERIES_CUTOFF:
        return -w2 * w2 * (1.0 / 180.0 + w2 * (1.0 / 2835.0 + w2 / 37800.0))
    return math.log(math.sin(w) / w) + w2 / 6.0


def _cot_less_pole(t: float) -> float:
    # rho(t) = pi t cot(pi t) - 1 + 2t^2/(1-t^2) + _C2 t^2 = -2 sum_{m>=2} (zeta(2m) - 1) t^(2m), 0 <= t < 1: the
    # cotangent kernel less the sine product's k = 1 pole, whose moments the x g' routes take in closed form, and less
    # its t^2 term. Above t = 1/2, s = 1 - t is exact and cot(pi t) = -cot(pi s), so the pole cancels against s itself
    if t < _COT_SERIES_CUTOFF:
        return -_Z4 * t**4
    if t < 0.5:
        return math.pi * t / math.tan(math.pi * t) - 1.0 + (2.0 / (1.0 - t * t) + _C2) * t * t
    s = 1.0 - t
    return -math.pi * t / math.tan(math.pi * s) - 1.0 + (2.0 / (s * (1.0 + t)) + _C2) * t * t


def _abscissa(t: float) -> tuple[float, float]:
    # u(t) and du/dt for the double-exponential substitution. u is computed
    # through the logistic form so both tails stay strictly inside (0, 1).
    w = 0.5 * math.pi * math.sinh(t)
    u = 1.0 / (1.0 + math.exp(-2.0 * w))
    dudt = 0.25 * math.pi * math.cosh(t) / math.cosh(w) ** 2
    return u, dudt


@lru_cache(maxsize=None)
def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    """(u, du/dt) pairs introduced at a refinement level, ascending in t.

    Level 0 holds every multiple of _H0 in the window; level L >= 1 holds
    the odd multiples of _H0 / 2^L.
    """
    h = _H0 / (1 << level)
    kmax = int(_T_MAX / h)
    if level == 0:
        ks = range(-kmax, kmax + 1)
    else:
        ks = range(-kmax if kmax % 2 else -kmax + 1, kmax + 1, 2)
    nodes = []
    for k in ks:
        u, dudt = _abscissa(k * h)
        if 0.0 < u < 1.0:
            nodes.append((u, dudt))
    return tuple(nodes)


@lru_cache(maxsize=None)
def _level(level: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return tuple(zip(*_level_nodes(level)))  # the abscissae and their du/dt, ascending in t


def integrate_de(f: Callable[..., float], acc: Accuracy = DEFAULT_ACCURACY) -> Evaluation:
    """Integrate over (0, 1) by tanh-sinh refinement, one level at a time.

    f(us, dudts) receives a refinement level's abscissae and their du/dt,
    ascending in u, strictly inside (0, 1) and the same tuples at every call,
    and returns the level's Kahan-compensated sum of sample * du/dt. A scalar
    integrand g is integrated as integrate_de(from_samples(lambda us: [g(u) for u in us])).

    The trapezoid step on the transformed axis is halved until the
    level-to-level difference is within quad_rel_tol * max(|value|, 1) or the
    budget of Accuracy.max_quad_refinements = 12 refinements is exhausted.
    Raises NonConvergenceError (carrying the best estimate, converged=False)
    when the budget runs out, and DomainError for an f that is not callable
    or a level sum that is no real number in the float range.
    """
    _require_accuracy(acc)
    if not callable(f):
        raise DomainError("integrand must be callable")
    value = 0.0  # so level 0's refined value is its bare trapezoid sum
    evaluations = 0
    converged = False
    for level in range(acc.max_quad_refinements + 1):
        us, dudts = _level(level)
        evaluations += len(us)
        total = f(us, dudts)
        refined = 0.5 * value + _H0 / (1 << level) * (total if type(total) is float else _level_sum(total))
        err = abs(refined - value)
        value = refined
        # agreement between the first coarse levels is not trustworthy, so
        # at least three refinements are always performed; the reported
        # estimate is then the difference of two already-accurate levels
        if level >= 3 and err <= acc.quad_rel_tol * max(abs(value), 1.0):
            converged = True
            break
    return _checked(Evaluation(value, err, evaluations, converged))


def _level_sum(total) -> float:
    # integrate_de's reading of a level sum that is not a float
    if _is_real(total):
        try:
            return float(total)
        except OverflowError:  # an int or a rational past the largest float
            pass
    raise DomainError("integrand must return its level sum as a real number in the float range")


def from_samples(f: Callable[[tuple[float, ...]], Sequence[float]]) -> Callable[..., float]:
    """integrate_de's integrand for f, which returns one sample per abscissa of a level. Its sum raises DomainError
    for a result that is no sequence of one real sample per abscissa, NonFiniteSampleError for a non-finite one.
    A non-callable f is a DomainError."""
    if not callable(f):
        raise DomainError("integrand must be callable")

    def level_sum(us: tuple[float, ...], dudts: tuple[float, ...]) -> float:
        samples = f(us)
        try:
            if len(samples) != len(us):
                raise DomainError(f"integrand returned {len(samples)} samples for {len(us)} abscissae")
            total = comp = 0.0
            for fu, dudt in zip(samples, dudts):
                y = fu * dudt - comp
                t = total + y
                comp = (t - total) - y
                total = t
            finite = math.isfinite(total)  # a complex sample leaves a complex total, which fails here
        except TypeError:
            # a result with no length (a generator, a float) or a sample that is no real number
            raise DomainError("integrand must return a sequence of one real sample per abscissa") from None
        except OverflowError:  # an int sample past the largest float
            raise DomainError("integrand returned a sample too large for a float") from None
        if not finite:  # as any non-finite sample leaves it
            for u, fu in zip(us, samples):
                if not math.isfinite(fu):
                    raise NonFiniteSampleError(f"integrand returned a non-finite value at u = {u!r}")
        return total

    return level_sum


def _checked(ev: Evaluation) -> Evaluation:
    """ev itself if it converged; otherwise NonConvergenceError carrying it."""
    if not ev.converged:
        raise NonConvergenceError("quadrature did not converge within the refinement budget", ev)
    return ev
