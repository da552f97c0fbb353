"""Finite cotangent/cosecant power sums whose q -> infinity limit is zeta(s).

For Re(s) > 1 the zeta function is the limit of

    (pi/(2q+m))^s * sum_{p=1}^{floor((2q+n-1)/2)} cot^s(p*pi/(2q+n))

and of the same expression with csc in place of cot.  The nonnegative
integers m and n shift the prefactor and the angle denominator; every
classical cotangent/cosecant limit formula for zeta(2n), zeta(2n+1) and
general s is an (m, n, kind) instance of this family, catalogued in
``classical_form``.

Admissibility: the angle p*pi/(2q+n) must stay strictly inside
(0, pi/2) for all p up to the upper index, which holds exactly when
n = 0 with q >= 2, or n >= 1 with q >= 1.

Every base (pi/(2q+m))*cot(...) or (pi/(2q+m))*csc(...) is a strictly
positive real, so complex powers are defined branch-free as
exp(s * ln base) with the real natural logarithm, that is
exp(sigma ln b) (cos(t ln b) + i sin(t ln b)); real powers use pow,
identical in exact arithmetic.  ``finite_trig_sum`` hands blocks of
bases to :func:`trigzeta.accumulate.power_sum`, which takes their
powers and sums them exactly, with the sum of b^Re(s) as the sum of
magnitudes (for complex s, |b^s| in exact arithmetic); ``term`` is the
same power (:func:`trigzeta.accumulate.positive_power`) on a one-index
block, and the Tannery harness takes the power of bases it computes
afresh, on the sum's blocks of indices, without the memo.

The bases do not depend on s, so each block of bases is computed once
per (spec, q) and kept in a memo of at most _MEMO_BYTES = 1 MiB
(``functools.lru_cache``, thread-safe, evicting the least recently
used block); its arrays are read-only.  That memo is the module's only
state: a result never depends on what it holds, and every function
here is safe to call from any number of threads.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .accumulate import _CHUNK, _block_bounds, positive_power, power_sum
from .errors import DomainError, UnsupportedRangeError


class TrigKind(str, Enum):
    COT = "cot"
    CSC = "csc"


@dataclass(frozen=True, slots=True)
class TrigSumSpec:
    """Parameterization (kind, m, n) of one finite trigonometric power sum.

    m shifts the prefactor denominator (pi/(2q+m)); n shifts the angle
    denominator (p*pi/(2q+n)).  Both must be nonnegative.
    """

    kind: TrigKind
    m: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, TrigKind):
            object.__setattr__(self, "kind", TrigKind(self.kind))
        if self.m < 0 or self.n < 0:
            raise DomainError(f"shifts must be nonnegative, got m={self.m}, n={self.n}")

    def min_q(self) -> int:
        """Smallest admissible q (see ``upper_index``)."""
        return _min_q(self.n)


@dataclass(frozen=True, slots=True)
class SumEvaluation:
    """One finite-sum evaluation at a given q.

    ``rounding_bound`` is (4|s| + 4) eps sum|term|: each base carries a
    few roundings (angle, cos/sin, prefactor product) that the power
    magnifies by |s|, the power adds a few more, and the exact sum adds
    at most one per block of terms.  sum|term| is taken as the sum of
    b^Re(s) over the bases b.
    """

    q: int
    term_count: int
    value: complex
    rounding_bound: float


def _min_q(n: int) -> int:
    """Smallest admissible q for the angle shift n: 2 when n = 0, else 1."""
    return 2 if n == 0 else 1


def upper_index(q: int, n: int) -> int:
    """Upper summation index floor((2q + n - 1)/2) for admissible (q, n).

    For every p from 1 to the result, the angle p*pi/(2q+n) lies
    strictly inside (0, pi/2).

    Raises:
        DomainError: if n = 0 with q < 2, or q < 1, or n < 0.
    """
    if n < 0:
        raise DomainError(f"angle shift n must be nonnegative, got {n}")
    if q < _min_q(n):
        need = "q >= 2 when n = 0" if n == 0 else "q >= 1"
        raise DomainError(f"inadmissible pair (q={q}, n={n}): requires {need}")
    return (2 * q + n - 1) // 2


def term(spec: TrigSumSpec, p: int, q: int, s: complex) -> complex:
    """Single summand ((pi/(2q+m)) * cot_or_csc(p*pi/(2q+n)))**s.

    Raises:
        DomainError: for inadmissible (q, n) or p outside
            1..upper_index(q, n).
        UnsupportedRangeError: when the summand overflows binary64.
    """
    upper = upper_index(q, spec.n)
    if not 1 <= p <= upper:
        raise DomainError(f"index p={p} outside 1..{upper} for (q={q}, n={spec.n})")
    s = complex(s)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(positive_power(_bases(spec, q, np.array([float(p)])), s)[0])
    if not cmath.isfinite(value):
        raise UnsupportedRangeError(f"term p={p} at q={q}, s={s} overflows binary64")
    return value


def _bases(spec: TrigSumSpec, q: int, p: np.ndarray) -> np.ndarray:
    """The bases (pi/(2q+m)) * cot_or_csc(p*pi/(2q+n)) at float64 p."""
    angle = (p * math.pi) / (2 * q + spec.n)
    sin = np.sin(angle)
    # cot as cos/sin (not 1/tan): one rounding fewer per base.
    trig = np.cos(angle) / sin if spec.kind is TrigKind.COT else 1.0 / sin
    return (math.pi / (2 * q + spec.m)) * trig


#: Bytes of bases the memo keeps: 32 blocks of _CHUNK float64 entries.
_MEMO_BYTES = 1 << 20


@functools.lru_cache(maxsize=_MEMO_BYTES // (8 * _CHUNK))
def _block_bases(spec: TrigSumSpec, q: int, lo: int, hi: int) -> np.ndarray:
    """The bases for p = lo..hi-1 as a read-only array."""
    base = _bases(spec, q, np.arange(lo, hi, dtype=np.float64))
    base.flags.writeable = False
    return base


def finite_trig_sum(spec: TrigSumSpec, q: int, s: complex) -> SumEvaluation:
    """Exact sum of term(spec, p, q, s) over p = 1..upper_index(q, n).

    The terms are evaluated with numpy in blocks of p, their bases
    taken from the module's memo, and summed with
    :func:`trigzeta.accumulate.power_sum`.  Memory stays at most the
    1 MiB memo plus a working set of a few hundred kilobytes at any q;
    a sum of at most 32 blocks (131,072 terms) re-evaluated at another
    s recomputes only the powers and the sum.  For real s > 1 the
    result is a strictly positive real (imaginary part exactly zero).

    Raises:
        UnsupportedRangeError: when the value or its rounding bound is
            not finite in binary64 (a term or the sum overflows).
    """
    s = complex(s)
    upper = upper_index(q, spec.n)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value, magnitude = power_sum(
                (_block_bases(spec, q, lo, hi) for lo, hi in _block_bounds(1, upper + 1)), s
            )
        except (OverflowError, ValueError):
            # math.fsum raises on inf - inf and on partial sums past the range
            value, magnitude = complex(math.nan), math.inf
    rounding_bound = (4.0 * abs(s) + 4.0) * sys.float_info.epsilon * magnitude
    if not (cmath.isfinite(value) and math.isfinite(rounding_bound)):
        raise UnsupportedRangeError(
            f"the sum at q={q}, s={s} is not finite in binary64"
        )
    return SumEvaluation(
        q=q, term_count=upper, value=value, rounding_bound=rounding_bound
    )


#: Catalog of the classical limit formulas as (kind, m, n) instances.
#: Keys are opaque catalog ids; the comment gives each formula's shape.
_CATALOG: dict[str, TrigSumSpec] = {
    # prefactor pi/(2q),   angle p*pi/(2q+1), upper limit q
    "E10": TrigSumSpec(TrigKind.COT, 0, 1),
    # prefactor pi/(2q+1), angle p*pi/(2q+1), upper limit q
    "E11": TrigSumSpec(TrigKind.COT, 1, 1),
    # odd-exponent variant of E10 (same family member)
    "E12": TrigSumSpec(TrigKind.COT, 0, 1),
    # prefactor pi/(2q),   angle p*pi/(2q),   upper limit q-1
    "E14": TrigSumSpec(TrigKind.COT, 0, 0),
    "E15": TrigSumSpec(TrigKind.CSC, 0, 0),
    # prefactor pi/(2q),   angle p*pi/(2q+1), upper limit q
    "E16": TrigSumSpec(TrigKind.CSC, 0, 1),
    # general-s versions of the five shapes above
    "E28": TrigSumSpec(TrigKind.COT, 0, 1),
    "E29": TrigSumSpec(TrigKind.COT, 1, 1),
    "E30": TrigSumSpec(TrigKind.COT, 0, 0),
    "E31": TrigSumSpec(TrigKind.CSC, 0, 1),
    "E32": TrigSumSpec(TrigKind.CSC, 0, 0),
}

CATALOG_IDS: tuple[str, ...] = tuple(_CATALOG)


def classical_form(catalog_id: str) -> TrigSumSpec:
    """(kind, m, n) triple reproducing the cited classical formula.

    The upper summation limit of each catalogued formula equals
    upper_index(q, n) for the returned n: q when n = 1, q - 1 when n = 0.
    """
    try:
        return _CATALOG[catalog_id]
    except KeyError:
        raise DomainError(
            f"unknown catalog id {catalog_id!r}; known: {', '.join(CATALOG_IDS)}"
        ) from None

