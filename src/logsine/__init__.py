"""Regularized log-sine moment family.

Evaluates g(n, x) = H_n - log(2 pi x) - n int_0^1 (1-u)^(n-1)
log(2 sin(pi x u)) du through four mutually checkable routes, and ships a
verification harness that quantifies how well every identity of the
family holds numerically.
"""

from .config import DEFAULT_ACCURACY, Accuracy, GenfuncPoint, GridPoint
from .errors import DomainError, NonConvergenceError, NonFiniteSampleError, QuadratureError
from .family import (
    LADDER_MAX_ORDER,
    METHOD_DERIVATIVE_COT,
    METHOD_DERIVATIVE_SERIES,
    METHOD_INTEGRAL,
    METHOD_LADDER,
    eval_derivative_cot,
    eval_derivative_series,
    eval_integral,
    eval_via_ladder,
    evaluate,
    genfunc_closed,
    genfunc_partial,
    genfunc_tail_bound,
    ladder_delta,
)
from .quadrature import Evaluation, cot_kernel, from_samples, integrate_de, log_sin_kernel, weight
from .sequences import (
    BERNOULLI_MAX_INDEX,
    bernoulli_even,
    harmonic,
    zeta_even_bernoulli,
    zeta_even_direct,
)
from .verify import (
    IDENTITY_IDS,
    AsymptoticAudit,
    AsymptoticRow,
    AuditRow,
    IdentityReport,
    TableAudit,
    audit_large_n,
    audit_small_x,
    audit_table,
    check_bernoulli_zeta,
    check_derivative,
    check_genfunc,
    check_ladder,
    check_series_constant,
)

__version__ = "0.1.0"

__all__ = [
    "Accuracy",
    "AsymptoticAudit",
    "AsymptoticRow",
    "AuditRow",
    "BERNOULLI_MAX_INDEX",
    "DEFAULT_ACCURACY",
    "DomainError",
    "Evaluation",
    "GenfuncPoint",
    "GridPoint",
    "IDENTITY_IDS",
    "IdentityReport",
    "LADDER_MAX_ORDER",
    "METHOD_DERIVATIVE_COT",
    "METHOD_DERIVATIVE_SERIES",
    "METHOD_INTEGRAL",
    "METHOD_LADDER",
    "NonConvergenceError",
    "NonFiniteSampleError",
    "QuadratureError",
    "TableAudit",
    "audit_large_n",
    "audit_small_x",
    "audit_table",
    "bernoulli_even",
    "check_bernoulli_zeta",
    "check_derivative",
    "check_genfunc",
    "check_ladder",
    "check_series_constant",
    "cot_kernel",
    "eval_derivative_cot",
    "eval_derivative_series",
    "eval_integral",
    "eval_via_ladder",
    "evaluate",
    "from_samples",
    "genfunc_closed",
    "genfunc_partial",
    "genfunc_tail_bound",
    "harmonic",
    "integrate_de",
    "ladder_delta",
    "log_sin_kernel",
    "weight",
    "zeta_even_bernoulli",
    "zeta_even_direct",
]
