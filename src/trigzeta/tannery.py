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
zeta sums) simply make f(0, q) = 0 with a zero bound.  Instances take
and return numpy arrays of indices: a condition makes one call per q,
and the identity's sides are summed over index 0, then
``finite_trig_sum``'s blocks of 4096 indices, so a zeta lhs is that sum
to the bit.

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
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .accumulate import _block_bounds, block_sum, exact_sum, index_blocks, positive_power
from .errors import DomainError, UnsupportedRangeError
from .io_utils import float_text
from .trig_sums import TrigKind, TrigSumSpec, _bases, upper_index

# Dominance is exact in exact arithmetic; allow a hair of float slack.
_RATIO_SLACK = 1e-12
# Partial-sum octave ratio below this counts as a convergent bound series.
_OCTAVE_THRESHOLD = 0.999


def _index_runs(top: int) -> Iterator[np.ndarray]:
    """The indices 0..top as float64 arrays: 0 alone, then blocks from 1."""
    return itertools.chain([np.zeros(1)], index_blocks(1, top + 1))


@dataclass(frozen=True, slots=True)
class TanneryInstance:
    """A double sequence with its claimed limit data, array-valued.

    f(p, q) is the double sequence; f_limit(p) the claimed per-index
    limit; bound(p) the q-independent dominating bound M_p, each at a
    float64 array p of indices; alpha(q) the upper index at q, for
    every q >= min_q.
    """

    name: str
    f: Callable[[np.ndarray, int], np.ndarray]
    f_limit: Callable[[np.ndarray], np.ndarray]
    bound: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[int], int]
    min_q: int


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


def term_bound(kind: TrigKind, p, m: int, n: int, s: float):
    """q-independent dominating bound M_p for the trigonometric summand,
    at an index p or at each index of an integer-valued array p.

    cot: C_{m,n}^s / p^s (from 0 < cot x < 1/x);
    csc: (pi/2)^s C_{m,n}^s / p^s (from 0 < csc x < pi/(2x)).

    Requires real s > 0; below that the bounding series has no chance
    of converging and the derivation itself needs s > 0.  The powers
    are the math module's, one index at a time: numpy's power differs
    from them in the last bit at about one index in twenty.

    Raises:
        UnsupportedRangeError: when a bound overflows binary64.
    """
    kind = TrigKind(kind)
    index = np.asarray(p)
    if index.size and not index.min() >= 1:
        raise DomainError(f"index p must be positive, got {index.min()}")
    if not (np.isrealobj(s) and s > 0.0):
        raise DomainError(f"dominating bound needs real s > 0, got {s}")
    c = c_bound(m, n)
    factor = math.pi / 2.0 if kind is TrigKind.CSC else 1.0
    bound = np.array([_ratio_power(factor, c, int(k), s) for k in index.ravel().tolist()])
    if not np.isfinite(bound).all():
        at = int(index.ravel()[np.argmin(np.isfinite(bound))])
        raise UnsupportedRangeError(f"the dominating bound at p={at}, s={s} overflows binary64")
    return float(bound[0]) if index.ndim == 0 else bound.reshape(index.shape)


def _ratio_power(f: float, c: float, p: int, s: float) -> float:
    """(f c/p)^s as c^s / p^s * f^s, or inf where that overflows binary64."""
    try:
        return c**s / p**s * f**s
    except OverflowError:
        # p**s or f**s overflows, (f C/p)^s need not, and f^s applied after
        # (C/p)^s would come too late where that underflows.  The power would
        # multiply the rounding of r = f C/p by s, so r^s is scaled by
        # (f C/(p r))^s, taken from the exact rational f C/(p r) - 1.
        r = f * c / p
        exact = Fraction(f) * Fraction(c) / (p * Fraction(r))
        try:
            return r**s * math.exp(s * math.log1p(float(exact - 1)))
        except OverflowError:
            return math.inf


def zeta_trig_instance(kind: TrigKind, m: int, n: int, s: float) -> TanneryInstance:
    """The double sequence behind the zeta limit representation with
    parameters (kind, m, n) at real exponent s.

    Indexing is shifted to 0-based: f(0, q) = 0 with a zero bound.
    Per-index limit: (pi/(2q+m)) cot(p pi/(2q+n)) -> 1/p, hence
    f_limit(p) = p^-s (same for csc).  f is ``finite_trig_sum``'s kernel.
    A complex s raises DomainError.
    """
    if np.iscomplexobj(s):
        raise DomainError(f"the zeta instance needs real s, got {s}")
    kind = TrigKind(kind)
    spec = TrigSumSpec(kind, m, n)
    s_float = float(s)
    s_complex = complex(s_float)

    def f(p: np.ndarray, q: int) -> np.ndarray:
        # the harness calls f only for p <= alpha(q) at admissible q, so
        # the unchecked kernel suffices; its base at p = 0 is infinite
        with np.errstate(divide="ignore"):
            terms = positive_power(_bases(spec, q, p), s_complex)
        return np.where(p > 0, terms, 0.0)

    def f_limit(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(p > 0, positive_power(p, -s_complex), 0.0)

    def bound(p: np.ndarray) -> np.ndarray:
        out = np.zeros(p.shape)
        out[p > 0] = term_bound(kind, p[p > 0], m, n, s_float)
        return out

    return TanneryInstance(
        name=f"zeta-{kind.value}(m={m},n={n},s={s_float:g})",
        f=f,
        f_limit=f_limit,
        bound=bound,
        alpha=lambda q: upper_index(q, n),
        min_q=spec.min_q(),
    )


def exp_instance(x: float) -> TanneryInstance:
    """Binomial expansion of (1 + x/n)^n as a Tannery double sequence:
    f(k, n) = C(n,k)(x/n)^k -> x^k/k!, dominated by |x|^k/k!, each the
    running product over j <= k of ((n-j+1)/n x)/j (0 at j = n+1, so
    f(k, n) = 0 for k > n), of x/j and of |x|/j."""
    x = float(x)
    # the first index whose product is an exact zero, by product (n for f):
    # past it every product is zero, so a block wholly past it is not summed
    # again.  An entry depends on x alone, so concurrent calls record one value.
    zero_from: dict[object, int] = {}

    def running_product(
        key: object, k: np.ndarray, ratio: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        if k.size and k.min() >= zero_from.get(key, math.inf):
            return np.zeros(k.shape)
        # a block of ratios at a time, its cumprod started from the last
        # product of the block before, as one scalar loop would take them
        out = np.where(k == 0, 1.0, 0.0)
        last = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in _block_bounds(1, int(k.max(initial=0)) + 1):
                j = np.arange(lo, hi, dtype=np.float64)
                products = np.cumprod(np.concatenate(([last], ratio(j))))
                here = (k >= lo) & (k < hi)
                out[here] = products[(k[here] - (lo - 1)).astype(np.intp)]
                last = products[-1]
                if last == 0.0:  # past an exact zero the product stays zero
                    zero_from[key] = lo - 1 + int(np.argmax(products == 0.0))
                    break
        return out + 0.0  # a zero reached through a negative ratio is -0.0

    return TanneryInstance(
        name=f"exp(x={x:g})",
        f=lambda k, n: running_product(n, k, lambda j: (n - j + 1) / n * x / j),
        f_limit=lambda k: running_product("limit", k, lambda j: x / j),
        bound=lambda k: running_product("bound", k, lambda j: abs(x) / j),
        alpha=lambda n: n,
        min_q=1,
    )


def _validated_schedule(inst: TanneryInstance, q_schedule: Iterable[int]) -> list[int]:
    qs = list(q_schedule)
    if not qs:
        raise DomainError("empty q schedule")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise DomainError("q schedule must be strictly increasing")
    if qs[0] < inst.min_q:
        raise DomainError(f"q={qs[0]} not admissible for instance {inst.name}")
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
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if p_max < 1:
        raise DomainError(f"p_max must be at least 1, got {p_max}")
    qs = _validated_schedule(inst, q_schedule)
    q_first, q_last = qs[0], qs[-1]
    if p_max > inst.alpha(q_first):
        raise DomainError(
            f"p_max={p_max} exceeds alpha(q_first)={inst.alpha(q_first)}"
        )
    p = np.arange(p_max + 1, dtype=np.float64)
    limit = inst.f_limit(p)
    dev_last = np.abs(inst.f(p, q_last) - limit)
    dev_first = np.abs(inst.f(p, q_first) - limit)
    # written so that a nan deviation, at either q, fails
    passed = bool(np.all((dev_last < tol) & (dev_last <= dev_first)))
    # the last p at the largest deviation, a nan above every number
    rank = np.where(np.isnan(dev_last), math.inf, dev_last)
    worst_p = int(np.flatnonzero(rank == rank.max())[-1])
    worst_dev = float(dev_last[worst_p])
    worst_dev_first = float(dev_first[worst_p])
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
    grid = []
    q = inst.min_q
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
    if q_max < inst.min_q:
        raise DomainError(f"q_max={q_max} not admissible for instance {inst.name}")

    p = np.arange(p_max + 1, dtype=np.float64)
    bounds = inst.bound(p)
    worst_ratio, worst_p, worst_q = 0.0, 0, 0
    for q in _q_grid(inst, q_max):
        top = min(p_max, inst.alpha(q))
        mag = np.abs(inst.f(p[: top + 1], q))
        m_p = bounds[: top + 1]
        # the first (p, q) at the largest ratio: a nonzero term over a zero
        # bound has ratio inf, and a nan ratio (argmax's first pick) is
        # above every number
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = np.where(m_p == 0.0, np.where(mag > 0.0, math.inf, mag), mag / m_p)
        at = int(np.argmax(ratio))
        if ratio[at] > worst_ratio or (math.isnan(ratio[at]) and not math.isnan(worst_ratio)):
            worst_ratio, worst_p, worst_q = float(ratio[at]), at, q
    dominance_ok = worst_ratio <= 1.0 + _RATIO_SLACK

    partial = block_sum(bounds)
    quarter, half = p_max // 4, p_max // 2
    octave_last = block_sum(bounds[half + 1 :])
    octave_prev = block_sum(bounds[quarter + 1 : half + 1])
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


def tannery_exchange(
    inst: TanneryInstance,
    q_schedule: Iterable[int],
    series_terms: int,
) -> ExchangeResult:
    """Evaluate both sides of the limit-interchange identity.

    lhs: sum of f(p, q_last) for p = 0..alpha(q_last);
    rhs: sum of f_limit(p) for p = 0..series_terms;
    gap = |lhs - rhs|.  Both sums are exact (:mod:`trigzeta.accumulate`),
    over index 0 and then blocks of 4096 indices, so memory stays a few
    hundred kilobytes at any q.

    The caller chooses series_terms so the bound-series tail beyond it
    is negligible (< 1e-8 is the intended contract).
    """
    if series_terms < 0:
        raise DomainError(f"series_terms must be nonnegative, got {series_terms}")
    qs = _validated_schedule(inst, q_schedule)
    q_last = qs[-1]

    # index 0 alone, then finite_trig_sum's blocks from 1: a zeta instance's
    # lhs is that sum to the bit
    lhs, _ = exact_sum(inst.f(p, q_last) for p in _index_runs(inst.alpha(q_last)))
    rhs, _ = exact_sum(inst.f_limit(p) for p in _index_runs(series_terms))
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
