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

``import trigzeta`` loads none of them, nor numpy: each public name
imports its module on first use (``trigzeta.reference_zeta`` loads
:mod:`trigzeta.oracle`), so a program pays only for what it touches.
"""

import importlib

#: Each public name by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "convergence": (
            "ConvergenceSeries", "OrderFit", "QSchedule", "SweepRecord",
            "empirical_order", "richardson_accelerate", "run_sweep",
        ),
        "errors": (
            "CrossCheckError", "DomainError", "InsufficientDataError",
            "UnsupportedRangeError", "UsageError",
        ),
        "oracle": (
            "ZetaReference", "bernoulli_numbers", "cross_routes", "reference_zeta",
            "sieve_primes", "zeta_borwein", "zeta_dirichlet", "zeta_em_bernoulli",
            "zeta_eta", "zeta_euler_maclaurin", "zeta_euler_product", "zeta_even",
        ),
        "tannery": (
            "ConditionIIReport", "ConditionIReport", "ExchangeResult", "TanneryInstance",
            "c_bound", "exp_instance", "exp_limit", "gamma_limit", "tannery_exchange",
            "term_bound", "verify_condition_i", "verify_condition_ii", "zeta_trig_instance",
        ),
        "trig_sums": (
            "CATALOG_IDS", "SumEvaluation", "TrigKind", "TrigSumSpec",
            "classical_form", "finite_trig_sum", "term", "upper_index",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import a public name's module on first use and keep the name here;
    the defining modules, by their own names, also load on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
