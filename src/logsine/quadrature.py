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
from collections import namedtuple
from functools import lru_cache
from typing import Callable, Sequence

from .config import DEFAULT_ACCURACY, Accuracy, _is_real, _require_int, _require_scale
from .errors import DomainError, NonConvergenceError, NonFiniteSampleError

# Beyond |t| = _T_MAX the abscissa rounds onto an endpoint; the truncated
# mass is ~3e-16 per side, far below the default tolerance.
_T_MAX = 3.13
# Step of the coarsest trapezoid level; each refinement halves it.
_H0 = 0.5
# Below this value of w = pi*x*u the cotangent kernel switches to its
# series form; both branches agree to better than 1e-13 at the cutoff.
_COT_SERIES_CUTOFF = 1e-4
_REMAINDER_SERIES_CUTOFF = 1e-2  # remainder kernels use their series below it (error ~1e-21)


class Evaluation(namedtuple("Evaluation", "value err_estimate evaluations converged")):
    """A value, its accumulated error estimate, the integrand samples or
    series terms it consumed, and whether every quadrature behind it met
    its tolerance.

    For one integral, err_estimate is the absolute difference between the
    last two refinement levels; on convergence it satisfies
    err_estimate <= quad_rel_tol * max(|value|, 1).
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
    _require_int("n", n, 1)
    if type(u) is not float and not _is_real(u) or not 0.0 <= u <= 1.0:
        raise DomainError("u must satisfy 0 <= u <= 1")
    return float(n) * (1.0 - u) ** (n - 1)


def _log_sinc(w: float) -> float:
    # log(sin w / w), 0 <= w < pi: log(2 sin w) less log(2w); no range checks
    w2 = w * w
    if w < _REMAINDER_SERIES_CUTOFF:
        return -w2 * (1.0 / 6.0 + w2 * (1.0 / 180.0 + w2 * (1.0 / 2835.0 + w2 / 37800.0)))
    return math.log(math.sin(w) / w)


def _cot_remainder(w: float) -> float:
    # w cot w - 1, 0 <= w < pi: the cotangent kernel less its value at 0
    w2 = w * w
    if w < _REMAINDER_SERIES_CUTOFF:
        return -w2 * (1.0 / 3.0 + w2 * (1.0 / 45.0 + w2 * (2.0 / 945.0 + w2 / 4725.0)))
    return w * math.cos(w) / math.sin(w) - 1.0


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


def integrate_de(f: Callable[[tuple[float, ...]], Sequence[float]], acc: Accuracy = DEFAULT_ACCURACY) -> Evaluation:
    """Integrate over (0, 1) by tanh-sinh refinement, one level at a time.

    f receives each refinement level's abscissae as one ascending tuple,
    strictly inside (0, 1) and the same object at every call, and returns
    one sample per abscissa. A scalar integrand g is integrated as
    integrate_de(lambda us: [g(u) for u in us]).

    The trapezoid step on the transformed axis is halved until the
    level-to-level difference is within quad_rel_tol * max(|value|, 1)
    or the refinement budget is exhausted.

    Raises DomainError for a sample list of the wrong length, a result
    with no length or a sample that is not a real number,
    NonFiniteSampleError for a non-finite sample, and NonConvergenceError
    (carrying the best estimate, converged=False) when the budget runs out.
    """
    value = 0.0  # so level 0's refined value is its bare trapezoid sum
    evaluations = 0
    converged = False
    for level in range(acc.max_quad_refinements + 1):
        us, dudts = _level(level)
        samples = f(us)
        try:
            if len(samples) != len(us):
                raise DomainError(f"integrand returned {len(samples)} samples for {len(us)} abscissae")
            total = 0.0
            comp = 0.0
            for fu, dudt in zip(samples, dudts):
                y = fu * dudt - comp
                t = total + y
                comp = (t - total) - y
                total = t
            finite = math.isfinite(total)  # a complex sample leaves a complex total, which fails here
        except TypeError:
            # a result with no length (a generator, a float) or a sample that is no real number
            raise DomainError("integrand must return a sequence of one real sample per abscissa") from None
        if not finite:  # as any non-finite sample leaves it
            for u, fu in zip(us, samples):
                if not math.isfinite(fu):
                    raise NonFiniteSampleError(f"integrand returned a non-finite value at u = {u!r}")
        evaluations += len(us)
        refined = 0.5 * value + _H0 / (1 << level) * total
        err = abs(refined - value)
        value = refined
        # agreement between the first coarse levels is not trustworthy, so
        # at least three refinements are always performed; the reported
        # estimate is then the difference of two already-accurate levels
        if level >= 3 and err <= acc.quad_rel_tol * max(abs(value), 1.0):
            converged = True
            break
    return _checked(Evaluation(value, err, evaluations, converged))


def _checked(ev: Evaluation) -> Evaluation:
    """ev itself if it converged; otherwise NonConvergenceError carrying it."""
    if not ev.converged:
        raise NonConvergenceError("quadrature did not converge within the refinement budget", ev)
    return ev
