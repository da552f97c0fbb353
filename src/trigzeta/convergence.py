"""Convergence sweeps of the zeta estimators against the oracle.

A sweep evaluates a finite trigonometric sum along a geometric
q-schedule, records absolute errors against a cross-checked reference,
fits the empirical convergence order on a log-log grid, and can apply
one Richardson extrapolation step.  No convergence rate is asserted as
ground truth anywhere; fitted orders are empirical measurements and are
labeled as such in the emitted data.

CSV format: header ``q,re_estimate,im_estimate,abs_error,rel_error``,
floats rendered with 17 significant digits (lossless for binary64).
JSON mirrors the same record fields plus reference metadata and the
fitted order.  Emission is deterministic: identical inputs yield
byte-identical output.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DomainError, InsufficientDataError
from .io_utils import float_text, json_text
from .oracle import ZetaReference, reference_zeta
from .trig_sums import TrigSumSpec, finite_trig_sum


@dataclass(frozen=True, slots=True)
class QSchedule:
    """Geometric schedule q_k = q0 * factor^k for k = 0..steps-1."""

    q0: int = 10
    factor: int = 2
    steps: int = 11

    def __post_init__(self) -> None:
        if self.q0 < 1:
            raise DomainError(f"q0 must be positive, got {self.q0}")
        if self.factor < 2:
            raise DomainError(f"factor must be an integer >= 2, got {self.factor}")
        if self.steps < 1:
            raise DomainError(f"steps must be positive, got {self.steps}")

    def q_values(self) -> list[int]:
        return [self.q0 * self.factor**k for k in range(self.steps)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.q_values())


@dataclass(frozen=True, slots=True)
class SweepRecord:
    q: int
    estimate: complex
    abs_error: float


@dataclass(frozen=True, slots=True)
class OrderFit:
    """Least-squares slope of log(error) vs log(q), negated, with the
    root-mean-square residual of the fit."""

    order: float
    residual: float


@dataclass(frozen=True, slots=True)
class ConvergenceSeries:
    """Sweep results: per-q records, the reference used for the errors,
    and the fitted empirical order (None when too few usable points)."""

    records: tuple[SweepRecord, ...]
    reference: ZetaReference
    fitted_order: float | None
    fit_residual: float | None


def run_sweep(spec: TrigSumSpec, s: complex, sched: QSchedule) -> ConvergenceSeries:
    """One record per schedule point; errors against reference_zeta(s).

    Raises:
        DomainError: Re(s) <= 1, or a schedule point inadmissible for
            the spec's n.
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"sweep needs Re(s) > 1, got Re(s)={s.real}")
    # the schedule increases, so its first point is its smallest
    if not spec.is_admissible(sched.q0):
        raise DomainError(
            f"schedule point q={sched.q0} inadmissible for n={spec.n} "
            f"(requires q >= {spec.min_q()})"
        )
    reference = reference_zeta(s)
    records = []
    for q in sched.q_values():
        estimate = finite_trig_sum(spec, q, s).value
        records.append(
            SweepRecord(q=q, estimate=estimate, abs_error=abs(estimate - reference.value))
        )
    records = tuple(records)
    series = ConvergenceSeries(records, reference, None, None)
    try:
        fit = empirical_order(series)
    except InsufficientDataError:
        return series
    return ConvergenceSeries(records, reference, fit.order, fit.residual)


def empirical_order(series: ConvergenceSeries) -> OrderFit:
    """Fit error ~ c * q^(-order) by least squares on the log-log grid.

    Records with zero error are unusable (their log diverges); at least
    four usable records are required.
    """
    usable = [(r.q, r.abs_error) for r in series.records if r.abs_error > 0.0]
    if len(usable) < 4:
        raise InsufficientDataError(
            f"order fit needs >= 4 records with nonzero error, got {len(usable)}"
        )
    logq = np.log([q for q, _ in usable])
    loge = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(logq, loge, 1)
    resid = loge - (slope * logq + intercept)
    return OrderFit(order=float(-slope), residual=float(np.sqrt(np.mean(resid**2))))


def richardson_accelerate(series: ConvergenceSeries, order: float) -> complex:
    """Eliminate the leading q^(-order) error term from the last two
    records: (r^order E(qr) - E(q)) / (r^order - 1), r the q ratio.

    Raises:
        InsufficientDataError: fewer than 2 records.
        DomainError: order <= 0, or the last two q do not determine a
            ratio > 1.
    """
    if len(series.records) < 2:
        raise InsufficientDataError("Richardson step needs at least 2 records")
    if not order > 0.0:
        raise DomainError(f"order must be positive, got {order}")
    prev, last = series.records[-2], series.records[-1]
    r = last.q / prev.q
    if not r > 1.0:
        raise DomainError(f"records are not increasing in q: {prev.q} -> {last.q}")
    w = r**order
    return (w * last.estimate - prev.estimate) / (w - 1.0)


def _rel_error(record: SweepRecord, reference: ZetaReference) -> float:
    mag = abs(reference.value)
    return record.abs_error / mag if mag > 0.0 else math.inf


def to_csv(series: ConvergenceSeries) -> str:
    """One row per record; floats at 17 significant digits."""
    lines = ["q,re_estimate,im_estimate,abs_error,rel_error"]
    for r in series.records:
        lines.append(
            ",".join(
                [
                    str(r.q),
                    float_text(r.estimate.real),
                    float_text(r.estimate.imag),
                    float_text(r.abs_error),
                    float_text(_rel_error(r, series.reference)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def from_csv(text: str) -> tuple[SweepRecord, ...]:
    """Parse the record rows of a sweep CSV (reference metadata is not
    part of the CSV format; use JSON for full round-trips).  A bad header
    or row raises DomainError, naming the row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "q,re_estimate,im_estimate,abs_error,rel_error":
        raise DomainError("not a sweep CSV: bad or missing header")
    records = []
    for ln in lines[1:]:
        try:
            q, re_e, im_e, abs_e, _rel = ln.split(",")
            estimate = complex(float(re_e), float(im_e))
            records.append(SweepRecord(q=int(q), estimate=estimate, abs_error=float(abs_e)))
        except ValueError as exc:
            raise DomainError(f"not a sweep CSV: bad row {ln!r} ({exc})") from None
    return tuple(records)


def to_json(series: ConvergenceSeries) -> str:
    """Full series as JSON: records, reference metadata, fitted order."""
    payload = {
        "records": [
            {
                "q": r.q,
                "re_estimate": r.estimate.real,
                "im_estimate": r.estimate.imag,
                "abs_error": r.abs_error,
                "rel_error": _rel_error(r, series.reference),
            }
            for r in series.records
        ],
        "reference": series.reference.to_dict(),
        "fitted_order": series.fitted_order,
        "fit_residual": series.fit_residual,
    }
    return json_text(payload)


def from_json(text: str) -> ConvergenceSeries:
    """Inverse of to_json; bit-exact for finite values.  Text that is not
    a sweep JSON raises DomainError, naming its bad line or key."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"not a sweep JSON: {exc}") from None

    def read(obj: Any, key: str, kind: Callable[[Any], Any] = float) -> Any:
        try:
            return kind(obj[key])
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"not a sweep JSON: bad or missing key {key!r}") from None

    def optional(x: Any) -> float | None:
        return None if x is None else float(x)

    records = tuple(
        SweepRecord(
            q=read(r, "q", operator.index),
            estimate=complex(read(r, "re_estimate"), read(r, "im_estimate")),
            abs_error=read(r, "abs_error"),
        )
        for r in read(payload, "records", list)
    )
    ref = read(payload, "reference", dict)
    reference = ZetaReference(
        value=complex(read(ref, "re_value"), read(ref, "im_value")),
        method=read(ref, "method", str),
        error_bound=read(ref, "error_bound"),
    )
    return ConvergenceSeries(
        records=records,
        reference=reference,
        fitted_order=read(payload, "fitted_order", optional),
        fit_residual=read(payload, "fit_residual", optional),
    )

