"""Numerically checkable limit-interchange harness for series.

Tannery's theorem: given a double sequence f_p(q) with per-index limits
f_p, a q-independent dominating bound |f_p(q)| <= M_p with sum M_p
convergent, and an index range alpha(q) growing to infinity,

    lim_{q->inf} sum_{p=0}^{alpha(q)} f_p(q)  =  sum_{p=0}^{inf} f_p.

The harness registers such a sequence as a :class:`TanneryInstance` and
provides desk-scale verification of the two hypotheses plus evaluation
of both sides of the identity.  A finite procedure cannot verify a
limit, so condition (i) is checked as "deviation at the largest
schedule q below tolerance and no larger than at the smallest q" -- the
strongest falsifiable check available.  Convergence of the bound series
is judged from the decay of its partial sums (octave ratio), with the
integral-style tail extrapolation reported for power-law bounds; for
c/p^s bounds that test resolves s > 1 only down to a margin set by the
largest index checked (s >= 1.0025 at p = 1000).

Indexing is 0-based; instances whose natural index starts at 1 (the
zeta sums) simply make f(0, q) = 0 with a zero bound.

The zeta application: the cot summand is bounded by C^s / p^s where

    C_{m,n} = 1 if n <= m, else (1+n)/(1+m)

bounds the ratio (2q+n)/(2q+m) over q >= 1, via 0 < cot x < 1/x on
(0, pi/2).  The csc analogue uses 0 < csc x < pi/(2x), picking up an
extra (pi/2)^s factor.  Both bound series converge exactly when s > 1,
which is what confines the limit representations to Re(s) > 1.

Instances are immutable after construction; all checks are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .accumulate import exact_sum, value_blocks
from .errors import DomainError, UnsupportedRangeError
from .io_utils import float_text
from .trig_sums import TrigKind, TrigSumSpec, _term, upper_index

# Dominance is exact in exact arithmetic; allow a hair of float slack.
_RATIO_SLACK = 1e-12
# Partial-sum octave ratio below this counts as a convergent bound series.
_OCTAVE_THRESHOLD = 0.999
# tannery_exchange stops after this many consecutive exactly-zero terms
# (underflowed tails); adding exact zeros cannot change the sum.
_ZERO_RUN_CUTOFF = 64


@dataclass(frozen=True, slots=True)
class TanneryInstance:
    """A double sequence with its claimed limit data.

    f(p, q) is the double sequence; f_limit(p) the claimed per-index
    limit; bound(p) the q-independent dominating bound M_p; alpha(q)
    the upper index at q; admissible(q) the q-domain predicate.
    """

    name: str
    f: Callable[[int, int], complex]
    f_limit: Callable[[int], complex]
    bound: Callable[[int], float]
    alpha: Callable[[int], int]
    admissible: Callable[[int], bool]


#: key=value text of a report field, by its annotated type
_KV_VALUE: dict[str, Callable[[object], str]] = {
    "bool": lambda v: str(v).lower(),
    "float": float_text,
}


def _kv_lines(prefix: str, report: object) -> str:
    """One prefix.field=value line per dataclass field, in field order."""
    return "\n".join(
        f"{prefix}.{f.name}={_KV_VALUE.get(f.type, str)(getattr(report, f.name))}"
        for f in fields(report)
    )


@dataclass(frozen=True, slots=True)
class ConditionIReport:
    """Per-index-limit check: worst deviation over p <= p_max."""

    passed: bool
    p_max: int
    q_first: int
    q_last: int
    tol: float
    worst_p: int
    worst_deviation: float
    worst_deviation_at_first: float

    def to_kv(self) -> str:
        return _kv_lines("condition_i", self)


@dataclass(frozen=True, slots=True)
class ConditionIIReport:
    """Dominating-bound check plus bound-series convergence diagnostic."""

    passed: bool
    dominance_ok: bool
    worst_ratio: float
    worst_p: int
    worst_q: int
    bound_series_partial: float
    series_converges: bool
    octave_ratio: float
    decay_exponent: float
    tail_estimate: float

    def to_kv(self) -> str:
        return _kv_lines("condition_ii", self)


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Combined report for both hypotheses of the theorem."""

    instance: str
    condition_i: ConditionIReport | None = None
    condition_ii: ConditionIIReport | None = None

    @property
    def passed(self) -> bool:
        parts = [r for r in (self.condition_i, self.condition_ii) if r is not None]
        return bool(parts) and all(r.passed for r in parts)

    def to_kv(self) -> str:
        lines = [f"instance={self.instance}", f"passed={str(self.passed).lower()}"]
        if self.condition_i is not None:
            lines.append(self.condition_i.to_kv())
        if self.condition_ii is not None:
            lines.append(self.condition_ii.to_kv())
        return "\n".join(lines)


class ExchangeResult(NamedTuple):
    lhs: complex
    rhs: complex
    gap: float


def c_bound(m: int, n: int) -> float:
    """Upper bound C_{m,n} for (2q+n)/(2q+m) over q >= 1:
    1 when n <= m, else (1+n)/(1+m)."""
    if m < 0 or n < 0:
        raise DomainError(f"shifts must be nonnegative, got m={m}, n={n}")
    if n <= m:
        return 1.0
    return (1 + n) / (1 + m)


def term_bound(kind: TrigKind, p: int, m: int, n: int, s: float) -> float:
    """q-independent dominating bound M_p for the trigonometric summand.

    cot: C_{m,n}^s / p^s (from 0 < cot x < 1/x);
    csc: (pi/2)^s C_{m,n}^s / p^s (from 0 < csc x < pi/(2x)).

    Requires real s > 0; below that the bounding series has no chance
    of converging and the derivation itself needs s > 0.

    Raises:
        UnsupportedRangeError: when the bound, or for csc its factor
            (pi/2)^s, overflows binary64.
    """
    kind = TrigKind(kind)
    if p < 1:
        raise DomainError(f"index p must be positive, got {p}")
    if not s > 0.0:
        raise DomainError(f"dominating bound needs real s > 0, got {s}")
    c = c_bound(m, n)
    try:
        try:
            bound = c**s / p**s
        except OverflowError:
            # p**s overflows, (C/p)^s need not.  The power would multiply
            # the rounding of r = C/p by s, so r^s is scaled by (C/(p r))^s,
            # taken from the exact rational C/(p r) - 1.
            r = c / p
            bound = r**s * math.exp(s * math.log1p(float(Fraction(c) / (p * Fraction(r)) - 1)))
        if kind is TrigKind.CSC:
            bound *= (math.pi / 2.0) ** s
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise UnsupportedRangeError(
            f"the dominating bound at p={p}, s={s} overflows binary64"
        )
    return bound


def zeta_trig_instance(kind: TrigKind, m: int, n: int, s: float) -> TanneryInstance:
    """The double sequence behind the zeta limit representation with
    parameters (kind, m, n) at real exponent s.

    Indexing is shifted to 0-based: f(0, q) = 0 with a zero bound.
    Per-index limit: (pi/(2q+m)) cot(p pi/(2q+n)) -> 1/p, hence
    f_limit(p) = p^-s (same for csc).
    """
    kind = TrigKind(kind)
    spec = TrigSumSpec(kind, m, n)
    s_float = float(s)
    s_complex = complex(s_float)

    def f(p: int, q: int) -> complex:
        # the harness calls f only for p <= alpha(q) at admissible q,
        # so the unchecked summand suffices
        if p == 0:
            return 0.0 + 0.0j
        return _term(spec, p, q, s_complex)

    def f_limit(p: int) -> complex:
        if p == 0:
            return 0.0 + 0.0j
        return complex(p ** (-s_float))

    def bound(p: int) -> float:
        if p == 0:
            return 0.0
        return term_bound(kind, p, m, n, s_float)

    return TanneryInstance(
        name=f"zeta-{kind.value}(m={m},n={n},s={s_float:g})",
        f=f,
        f_limit=f_limit,
        bound=bound,
        alpha=lambda q: upper_index(q, n),
        admissible=spec.is_admissible,
    )


def _binomial_term(k: int, n: int, x: float) -> float:
    """C(n,k) (x/n)^k by a stable product of per-factor ratios."""
    if k == 0:
        return 1.0
    t = 1.0
    for j in range(1, k + 1):
        t *= (n - j + 1) / n * x / j
        if t == 0.0:
            return 0.0
    return t


def exp_instance(x: float) -> TanneryInstance:
    """Binomial expansion of (1 + x/n)^n as a Tannery double sequence:
    f(k, n) = C(n,k)(x/n)^k -> x^k/k!, dominated by |x|^k/k!."""
    x = float(x)

    def f(k: int, n: int) -> complex:
        if k > n:
            return 0.0 + 0.0j
        return complex(_binomial_term(k, n, x))

    def f_limit(k: int) -> complex:
        return complex(x**k / math.factorial(k)) if k < 171 else 0.0 + 0.0j

    def bound(k: int) -> float:
        return abs(x) ** k / math.factorial(k) if k < 171 else 0.0

    return TanneryInstance(
        name=f"exp(x={x:g})",
        f=f,
        f_limit=f_limit,
        bound=bound,
        alpha=lambda n: n,
        admissible=lambda n: n >= 1,
    )


def _validated_schedule(inst: TanneryInstance, q_schedule: Iterable[int]) -> list[int]:
    qs = list(q_schedule)
    if not qs:
        raise DomainError("empty q schedule")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise DomainError("q schedule must be strictly increasing")
    for q in qs:
        if not inst.admissible(q):
            raise DomainError(f"q={q} not admissible for instance {inst.name}")
    return qs


def verify_condition_i(
    inst: TanneryInstance,
    p_max: int,
    q_schedule: Iterable[int],
    tol: float,
) -> ConditionIReport:
    """Check the per-index limits at desk scale.

    For each p <= p_max: |f(p, q_last) - f_limit(p)| must be below tol
    and no larger than the deviation at q_first.  Failures are reported,
    not raised.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    qs = _validated_schedule(inst, q_schedule)
    q_first, q_last = qs[0], qs[-1]
    if p_max > inst.alpha(q_first):
        raise DomainError(
            f"p_max={p_max} exceeds alpha(q_first)={inst.alpha(q_first)}"
        )
    passed = True
    worst_p = 0
    worst_dev = 0.0
    worst_dev_first = 0.0
    for p in range(0, p_max + 1):
        dev_last = abs(inst.f(p, q_last) - inst.f_limit(p))
        dev_first = abs(inst.f(p, q_first) - inst.f_limit(p))
        if dev_last >= tol or dev_last > dev_first:
            passed = False
        if dev_last >= worst_dev:
            worst_p, worst_dev, worst_dev_first = p, dev_last, dev_first
    return ConditionIReport(
        passed=passed,
        p_max=p_max,
        q_first=q_first,
        q_last=q_last,
        tol=tol,
        worst_p=worst_p,
        worst_deviation=worst_dev,
        worst_deviation_at_first=worst_dev_first,
    )


def _q_grid(inst: TanneryInstance, q_max: int) -> list[int]:
    """Geometric q grid: smallest admissible q, doublings, and q_max."""
    q0 = 1
    while q0 <= q_max and not inst.admissible(q0):
        q0 += 1
    if q0 > q_max:
        raise DomainError(f"no admissible q <= {q_max} for instance {inst.name}")
    grid = []
    q = q0
    while q < q_max:
        grid.append(q)
        q *= 2
    grid.append(q_max)
    return grid


def verify_condition_ii(
    inst: TanneryInstance,
    p_max: int,
    q_max: int,
) -> ConditionIIReport:
    """Check the dominating bound and the convergence of its series.

    Dominance: |f(p, q)| <= bound(p) for all p <= min(p_max, alpha(q))
    over a geometric q grid up to q_max (worst ratio reported; a pass
    requires worst ratio <= 1 + 1e-12).

    Series: partial sums of bound(p) up to p_max must decay -- the last
    two octaves' ratio must fall below 0.999.  For power-law bounds
    c/p^s that ratio is about 2^(1-s) times a discretisation factor
    a little above 1 (1.00072 at s = 1 and p_max = 1000), so the test
    resolves s > 1 only down to a margin set by p_max: at p_max = 1000
    it passes from s = 1.0025 (ratio 0.99899) and fails up to s = 1.0024
    (0.99906; 0.99934 at s = 1.002, 1.0000286 at s = 1.001).  A fail
    just above s = 1 says the bounds do not decay measurably by p_max,
    not that their series diverges; the harmonic profile at s = 1
    fails.  The reported tail estimate is the geometric/integral
    extrapolation.  Failures are reported, not raised.
    """
    if p_max < 8:
        raise DomainError(f"p_max must be at least 8 to assess the bound series, got {p_max}")
    if not inst.admissible(q_max):
        raise DomainError(f"q_max={q_max} not admissible for instance {inst.name}")

    worst_ratio = 0.0
    worst_p = 0
    worst_q = 0
    dominance_ok = True
    for q in _q_grid(inst, q_max):
        top = min(p_max, inst.alpha(q))
        for p in range(0, top + 1):
            mag = abs(inst.f(p, q))
            m_p = inst.bound(p)
            if m_p == 0.0:
                if mag > 0.0:
                    dominance_ok = False
                    worst_ratio = math.inf
                    worst_p, worst_q = p, q
                continue
            ratio = mag / m_p
            if ratio > worst_ratio:
                worst_ratio, worst_p, worst_q = ratio, p, q
    if worst_ratio > 1.0 + _RATIO_SLACK:
        dominance_ok = False

    bounds = [inst.bound(p) for p in range(0, p_max + 1)]
    partial = math.fsum(bounds)
    quarter, half = p_max // 4, p_max // 2
    octave_last = math.fsum(bounds[half + 1 :])
    octave_prev = math.fsum(bounds[quarter + 1 : half + 1])
    if octave_last == 0.0:
        converges, ratio, exponent, tail = True, 0.0, math.inf, 0.0
    elif octave_prev <= 0.0:
        converges, ratio, exponent, tail = False, math.inf, math.nan, math.inf
    else:
        ratio = octave_last / octave_prev
        converges = ratio < _OCTAVE_THRESHOLD
        exponent = 1.0 - math.log2(ratio) if ratio > 0 else math.inf
        tail = octave_last * ratio / (1.0 - ratio) if converges else math.inf

    return ConditionIIReport(
        passed=dominance_ok and converges,
        dominance_ok=dominance_ok,
        worst_ratio=worst_ratio,
        worst_p=worst_p,
        worst_q=worst_q,
        bound_series_partial=partial,
        series_converges=converges,
        octave_ratio=ratio,
        decay_exponent=exponent,
        tail_estimate=tail,
    )


def _lhs_values(inst: TanneryInstance, q: int) -> Iterator[complex]:
    """f(p, q) for p = 0..alpha(q), stopping after _ZERO_RUN_CUTOFF
    consecutive exact zeros."""
    zero_run = 0
    for p in range(0, inst.alpha(q) + 1):
        v = complex(inst.f(p, q))
        yield v
        zero_run = zero_run + 1 if v == 0 else 0
        if zero_run >= _ZERO_RUN_CUTOFF:
            return


def tannery_exchange(
    inst: TanneryInstance,
    q_schedule: Iterable[int],
    series_terms: int,
) -> ExchangeResult:
    """Evaluate both sides of the limit-interchange identity.

    lhs: sum of f(p, q_last) for p = 0..alpha(q_last);
    rhs: sum of f_limit(p) for p = 0..series_terms;
    gap = |lhs - rhs|.  Both sums are exact (:mod:`trigzeta.accumulate`).

    The caller chooses series_terms so the bound-series tail beyond it
    is negligible (< 1e-8 is the intended contract).  The lhs loop
    stops early after a long run of exactly-zero terms, which leaves
    the sum unchanged and makes factorially decaying instances (the
    binomial one at huge q) affordable.
    """
    if series_terms < 0:
        raise DomainError(f"series_terms must be nonnegative, got {series_terms}")
    qs = _validated_schedule(inst, q_schedule)
    q_last = qs[-1]

    lhs, _ = exact_sum(value_blocks(_lhs_values(inst, q_last)))
    rhs, _ = exact_sum(
        value_blocks(complex(inst.f_limit(p)) for p in range(0, series_terms + 1))
    )
    return ExchangeResult(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def exp_limit(x: float, n: int) -> float:
    """(1 + x/n)^n, the binomial-sum route for n <= 64 and
    exp(n log1p(x/n)) beyond (the two agree at the switchover; tests
    pin that).

    Raises:
        DomainError: n < 1, or 1 + x/n <= 0 on the logarithmic path.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    x = float(x)
    if n <= 64:
        y = x / n
        return math.fsum(math.comb(n, k) * y**k for k in range(n + 1))
    y = x / n
    if 1.0 + y <= 0.0:
        raise DomainError(f"1 + x/n = {1.0 + y} is not positive at n={n}")
    return math.exp(n * math.log1p(y))


def gamma_limit(z: complex, n: int) -> complex:
    """Euler's limit expression n! n^z / (z (z+1) ... (z+n)) at finite n.

    Rearranged as exp(z ln n) * prod_{k=1..n} k/(z+k) / z: n^z uses the
    real logarithm of n, the n! is folded into the per-factor ratios
    k/(z+k), and no intermediate can overflow for moderate Re(z).

    Raises:
        DomainError: z in {0, -1, -2, ...} or n < 1.
    """
    z = complex(z)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise DomainError(f"gamma limit undefined at nonpositive integer z={z.real:g}")
    k = np.arange(1, n + 1, dtype=np.float64)
    if z.imag == 0.0:
        factors = k / (k + z.real)
        prod = float(np.prod(factors))
        return complex(math.exp(z.real * math.log(n)) * prod / z.real)
    factors = k / (k + z)
    prod = complex(np.prod(factors))
    return cmath.exp(z * math.log(n)) * prod / z
