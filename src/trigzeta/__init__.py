"""Riemann zeta via finite cotangent/cosecant power sums.

The package's modules, bottom up:

* :mod:`trigzeta.accumulate` -- exact block sums and the one kernel
  that sums powers of positive bases.
* :mod:`trigzeta.trig_sums` -- the finite trigonometric power sums
  whose q -> infinity limit is zeta(s) for Re(s) > 1, plus the catalog
  of classical special cases.
* :mod:`trigzeta.oracle` -- seven independent classical reference
  computations of zeta used for cross-validation.
* :mod:`trigzeta.tannery` -- a checkable harness for the
  limit-interchange theorem that justifies the representations.
* :mod:`trigzeta.convergence` -- sweeps, empirical order fitting and
  Richardson extrapolation.
* :mod:`trigzeta.cli` -- the ``trigzeta`` command (``eval``,
  ``converge``, ``verify``, ``oracle``).
"""

from .convergence import (
    ConvergenceSeries,
    OrderFit,
    QSchedule,
    SweepRecord,
    empirical_order,
    richardson_accelerate,
    run_sweep,
)
from .errors import (
    CrossCheckError,
    DomainError,
    InsufficientDataError,
    UnsupportedRangeError,
    UsageError,
)
from .oracle import (
    ZetaReference,
    bernoulli_numbers,
    cross_routes,
    reference_zeta,
    sieve_primes,
    zeta_borwein,
    zeta_dirichlet,
    zeta_em_bernoulli,
    zeta_eta,
    zeta_euler_maclaurin,
    zeta_euler_product,
    zeta_even,
)
from .tannery import (
    ConditionIIReport,
    ConditionIReport,
    ExchangeResult,
    TanneryInstance,
    c_bound,
    exp_instance,
    exp_limit,
    gamma_limit,
    tannery_exchange,
    term_bound,
    verify_condition_i,
    verify_condition_ii,
    zeta_trig_instance,
)
from .trig_sums import (
    CATALOG_IDS,
    SumEvaluation,
    TrigKind,
    TrigSumSpec,
    classical_form,
    finite_trig_sum,
    term,
    upper_index,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_IDS",
    "ConditionIIReport",
    "ConditionIReport",
    "ConvergenceSeries",
    "CrossCheckError",
    "DomainError",
    "ExchangeResult",
    "InsufficientDataError",
    "OrderFit",
    "QSchedule",
    "SumEvaluation",
    "SweepRecord",
    "TanneryInstance",
    "TrigKind",
    "TrigSumSpec",
    "UnsupportedRangeError",
    "UsageError",
    "ZetaReference",
    "bernoulli_numbers",
    "c_bound",
    "classical_form",
    "cross_routes",
    "empirical_order",
    "exp_instance",
    "exp_limit",
    "finite_trig_sum",
    "gamma_limit",
    "reference_zeta",
    "richardson_accelerate",
    "run_sweep",
    "sieve_primes",
    "tannery_exchange",
    "term",
    "term_bound",
    "upper_index",
    "verify_condition_i",
    "verify_condition_ii",
    "zeta_borwein",
    "zeta_dirichlet",
    "zeta_em_bernoulli",
    "zeta_eta",
    "zeta_euler_maclaurin",
    "zeta_euler_product",
    "zeta_even",
    "zeta_trig_instance",
]
