"""Independent reference computations of the Riemann zeta function.

Six classical routes are implemented and cross-validated against each
other, so the limit representations in :mod:`trigzeta.trig_sums` can be
checked against references that share none of their code:

* ``zeta_dirichlet``       -- truncated sum of 1/n^s            (Re s > 1)
* ``zeta_eta``             -- alternating series with the
  (1 - 2^(1-s))^-1 prefactor                                    (Re s > 0)
* ``zeta_euler_maclaurin`` -- partial sum + n^(1-s)/(s-1) - s * integral
  of the fractional part, with per-unit-interval closed forms   (Re s > 0)
* ``zeta_euler_product``   -- product over primes of (1-p^-s)^-1,
  accumulated in the log domain                                 (Re s > 1)
* ``zeta_even``            -- exact Bernoulli-number closed form for
  even integer arguments
* ``zeta_laurent``         -- truncated Laurent expansion about s = 1
  with numerically estimated Stieltjes constants

Every ``error_bound`` is a truncation bound (rigorous where the
docstring says so, heuristic otherwise) plus a small binary64 rounding
floor proportional to the sum of absolute contributions; without the
floor, bounds at large Re(s) would claim accuracy far beyond double
precision.

All operations are pure; the two table types are immutable after
construction and safe for concurrent shared reads.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .accumulate import exact_sum, index_blocks
from .errors import CrossCheckError, DomainError, UnsupportedRangeError
from .io_utils import write_text_atomic

_EPS = sys.float_info.epsilon

# Reference dispatch targets: truncation bound aimed for by reference_zeta,
# and the largest Euler-Maclaurin integral cutoff it will pay for.
_REFERENCE_TARGET = 1e-10
_X_CAP = 8_000_000


def _rounding_floor(scale: float) -> float:
    """Heuristic binary64 rounding floor for a sum whose absolute
    contributions total ``scale``."""
    return 4.0 * _EPS * scale


def _pow_array(k: np.ndarray, exponent: complex) -> np.ndarray:
    """k**exponent for a positive float array, real or complex dtype."""
    if exponent.imag == 0.0:
        return np.power(k, exponent.real)
    return np.power(k.astype(np.complex128), exponent)


@dataclass(frozen=True, slots=True)
class ZetaReference:
    """A reference value with its method tag and reported error bound."""

    value: complex
    method: str
    error_bound: float


@dataclass(frozen=True, slots=True)
class BernoulliTable:
    """Exact rationals B_0 .. B_{2K}, first convention (B_1 = -1/2)."""

    values: tuple[Fraction, ...]

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
class PrimeCache:
    """Ascending list of all primes <= limit."""

    primes: tuple[int, ...]
    limit: int

    def __len__(self) -> int:
        return len(self.primes)

    def save(self, path: str | Path) -> None:
        """Persist as newline-delimited decimal text (atomic replace)."""
        write_text_atomic(Path(path), "".join(f"{p}\n" for p in self.primes))

    @classmethod
    def load(cls, path: str | Path, limit: int | None = None) -> "PrimeCache":
        """Load a newline-delimited prime file.

        Validates strictly ascending order and, when ``limit`` is given,
        that no entry exceeds it.  Primality itself is not re-proved
        here; tests cover that by trial division.
        """
        entries = [int(line) for line in Path(path).read_text().split()]
        if not entries:
            raise DomainError(f"prime file {path} is empty")
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise DomainError(f"prime file {path} is not strictly ascending")
        if entries[0] < 2:
            raise DomainError(f"prime file {path} contains {entries[0]} < 2")
        stated = entries[-1] if limit is None else limit
        if entries[-1] > stated:
            raise DomainError(
                f"prime file {path} has entries above the stated limit {stated}"
            )
        return cls(primes=tuple(entries), limit=stated)


@dataclass(frozen=True, slots=True)
class StieltjesTable:
    """Laurent-expansion constants gamma_0..gamma_nmax with error data.

    ``m_max`` is the truncation index of the defining limit;
    ``est_error`` is the per-entry heuristic bound |accelerated - raw|.
    """

    gammas: tuple[float, ...]
    m_max: int
    est_error: tuple[float, ...]


@lru_cache(maxsize=8)
def sieve_primes(limit: int) -> PrimeCache:
    """All primes <= limit by the sieve of Eratosthenes."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeCache(primes=tuple(int(p) for p in np.nonzero(flags)[0]), limit=limit)


@lru_cache(maxsize=64)
def _dirichlet_sum(s: complex, N: int) -> tuple[complex, float]:
    """(sum_{n<=N} n^-s, sum of magnitudes), summed exactly."""
    return exact_sum(_pow_array(k, -s) for k in index_blocks(1, N + 1))


def zeta_dirichlet(s: complex, N: int) -> ZetaReference:
    """Truncated defining series sum_{n=1}^{N} n^-s for Re(s) > 1.

    The error bound N^(1-Re s)/(Re s - 1) is the rigorous integral tail
    bound (plus the rounding floor).
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"Dirichlet series needs Re(s) > 1, got Re(s)={s.real}")
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    value, mag = _dirichlet_sum(s, N)
    sigma = s.real
    tail = N ** (1.0 - sigma) / (sigma - 1.0)
    return ZetaReference(value, "dirichlet", tail + _rounding_floor(mag))


def _eta_prefactor(s: complex) -> complex:
    """(1 - 2^(1-s))^-1, raising on the prefactor pole set."""
    if s == 1:
        raise DomainError("eta relation is singular at s = 1")
    w = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    if abs(w) < 1e-9:
        raise DomainError(
            f"s={s} lies on the prefactor pole set 2^(1-s) = 1; "
            "the eta relation is numerically singular there"
        )
    return 1.0 / w


def zeta_eta(s: complex, N: int) -> ZetaReference:
    """Alternating series route, valid for Re(s) > 0 away from the
    prefactor pole set 2^(1-s) = 1.

    The bound |1-2^(1-s)|^-1 * (N+1)^(-Re s) is the alternating-series
    remainder bound; it is rigorous for real s and heuristic for
    complex s.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"eta series needs Re(s) > 0, got Re(s)={s.real}")
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    pref = _eta_prefactor(s)

    def alternating(k: np.ndarray) -> np.ndarray:
        t = _pow_array(k, -s)
        return np.where(k % 2 == 1, t, -t)

    alt, mag = exact_sum(alternating(k) for k in index_blocks(1, N + 1))
    value = pref * alt
    sigma = s.real
    bound = abs(pref) * (N + 1) ** (-sigma) + _rounding_floor(abs(pref) * mag)
    value_out = value.real if s.imag == 0.0 else value
    return ZetaReference(complex(value_out), "eta", bound)


def _em_integral(s: complex, n: int, X: int) -> tuple[complex, float]:
    """integral_n^X (x - floor(x)) x^(-s-1) dx by per-interval closed forms.

    On [k, k+1] the antiderivative of (x-k) x^(-s-1) gives

        ((k+1)^(1-s) - k^(1-s))/(1-s) + (k/s)((k+1)^(-s) - k^(-s)).

    Returns (integral, sum of magnitudes) for the rounding floor.
    """
    one_minus_s = 1.0 - s

    def interval(k: np.ndarray) -> np.ndarray:
        k1 = k + 1.0
        term = (_pow_array(k1, one_minus_s) - _pow_array(k, one_minus_s)) / one_minus_s
        return term + (k / s) * (_pow_array(k1, -s) - _pow_array(k, -s))

    return exact_sum(interval(k) for k in index_blocks(n, X))


@lru_cache(maxsize=64)
def _euler_maclaurin_cached(s: complex, n: int, X: int) -> ZetaReference:
    direct, direct_mag = _dirichlet_sum(s, n)
    pole_term = n ** (1.0 - s) / (s - 1.0)
    integral, integral_mag = _em_integral(s, n, X)
    value = direct + pole_term - s * integral
    sigma = s.real
    tail = abs(s) * X ** (-sigma) / sigma
    scale = direct_mag + abs(pole_term) + abs(s) * integral_mag
    value_out = value.real if s.imag == 0.0 else value
    return ZetaReference(complex(value_out), "euler_maclaurin", tail + _rounding_floor(scale))


def zeta_euler_maclaurin(s: complex, n: int, X: int) -> ZetaReference:
    """Floor-function formula: partial sum to n, the n^(1-s)/(s-1) term,
    and -s times the fractional-part integral truncated at X.

    Valid for Re(s) > 0, s != 1.  The tail bound |s| X^(-Re s)/Re(s)
    follows from |x - floor(x)| <= 1 and is rigorous.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"needs Re(s) > 0, got Re(s)={s.real}")
    if s == 1:
        raise DomainError("zeta has its pole at s = 1")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if X < n:
        raise DomainError(f"X must satisfy X >= n, got X={X} < n={n}")
    return _euler_maclaurin_cached(s, n, X)


@lru_cache(maxsize=64)
def _euler_product_cached(s: complex, limit: int) -> ZetaReference:
    cache = sieve_primes(limit)
    p = np.asarray(cache.primes, dtype=np.float64)
    log_total, log_mag = exact_sum([np.log1p(-_pow_array(p, -s))])
    value = cmath.exp(-log_total)
    sigma = s.real
    tail = limit ** (1.0 - sigma) / (sigma - 1.0)
    scale = abs(value) * (1.0 + log_mag)
    value_out = value.real if s.imag == 0.0 else value
    return ZetaReference(complex(value_out), "euler_product", tail + _rounding_floor(scale))


def zeta_euler_product(s: complex, cache: PrimeCache) -> ZetaReference:
    """Product over the cached primes of (1 - p^-s)^-1 for Re(s) > 1.

    Accumulated in the log domain, exp(-sum log(1 - p^-s)) with the
    principal logarithm; |p^-s| < 1 keeps every factor off the branch
    cut.  The reported bound is the heuristic tail sum_{k>limit} k^(-Re s)
    (it is in fact a true bound: the partial product equals the sum of
    n^-s over limit-smooth n, and every omitted integer exceeds limit).
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"Euler product needs Re(s) > 1, got Re(s)={s.real}")
    if len(cache) == 0:
        raise DomainError("prime cache is empty")
    return _euler_product_cached(s, cache.limit)


_BERNOULLI_MAX_K = 60


@lru_cache(maxsize=4)
def bernoulli_numbers(K: int) -> BernoulliTable:
    """Exact B_0..B_{2K} from the defining recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 over Fractions.

    Supported for K <= 60; beyond that exactness is still possible but
    not promised by this artifact.
    """
    if K < 1:
        raise DomainError(f"K must be positive, got {K}")
    if K > _BERNOULLI_MAX_K:
        raise UnsupportedRangeError(f"K={K} exceeds supported maximum {_BERNOULLI_MAX_K}")
    values: list[Fraction] = [Fraction(1)]
    for m in range(1, 2 * K + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return BernoulliTable(values=tuple(values))


def zeta_even(n: int) -> ZetaReference:
    """zeta(2n) = (-1)^(n+1) (2 pi)^(2n) B_{2n} / (2 (2n)!), exactly
    rational up to the (2 pi)^(2n) factor.

    Evaluated at 50 digits and rounded once to binary64, so the
    reported bound is 2 ulps.  n = 0 (which would assert a value for
    zeta(0)) is outside this artifact's evaluation domain.
    """
    if n < 1:
        raise UnsupportedRangeError("n = 0 (zeta(0)) is not computed by this artifact")
    import mpmath  # imported by its only user, so `import trigzeta` skips it

    table = bernoulli_numbers(max(n, 5))
    b = table[2 * n]
    rational = Fraction((-1) ** (n + 1), 2 * math.factorial(2 * n)) * b
    with mpmath.workdps(50):
        v = (2 * mpmath.pi) ** (2 * n)
        v = v * mpmath.mpf(rational.numerator) / mpmath.mpf(rational.denominator)
        value = float(v)
    return ZetaReference(complex(value), "bernoulli", 2.0 * math.ulp(abs(value)))


_STIELTJES_MAX_N = 8


@lru_cache(maxsize=16)
def stieltjes(nmax: int, M: int) -> StieltjesTable:
    """Constants gamma_n of the Laurent expansion about s = 1, from the
    defining limit

        gamma_n = lim_{m->inf} ( sum_{k<=m} (ln k)^n / k - (ln m)^(n+1)/(n+1) )

    truncated at M, with one two-point elimination step over (M, 2M).
    The truncation error behaves like (ln M)^n / (2M) (half the last
    summand, by the Euler-Maclaurin endpoint correction), so the step
    uses that known shape; for n = 0 it reduces to the plain doubling
    step 2*g(2M) - g(M).  ``est_error`` is the heuristic
    |accelerated - raw| per entry; it is deliberately conservative and
    grows rapidly with n (desk-scale evaluation cannot do better, which
    is why nmax is capped at 8).  Where the two model weights nearly
    coincide (large n at small M) the elimination is skipped and
    est_error reports the modeled truncation itself.

    The n = 0 entry is the limit of H_m - ln m.
    """
    if nmax < 0:
        raise DomainError(f"nmax must be nonnegative, got {nmax}")
    if nmax > _STIELTJES_MAX_N:
        raise UnsupportedRangeError(
            f"nmax={nmax} exceeds supported maximum {_STIELTJES_MAX_N} "
            "(convergence of the defining limit is too slow beyond that)"
        )
    if M < 1000:
        raise DomainError(f"M must be at least 10^3, got {M}")

    sums_m = [[] for _ in range(nmax + 1)]
    sums_2m = [[] for _ in range(nmax + 1)]
    for k in index_blocks(1, 2 * M + 1):
        cut = max(0, M + 1 - int(k[0]))  # entries k <= M
        power = 1.0 / k
        lk = np.log(k)
        for n in range(nmax + 1):
            sums_m[n].append(float(np.sum(power[:cut])))
            sums_2m[n].append(float(np.sum(power[cut:])))
            power = power * lk

    gammas: list[float] = []
    errors: list[float] = []
    ln_m = math.log(M)
    ln_2m = math.log(2 * M)
    for n in range(nmax + 1):
        s_m = math.fsum(sums_m[n])
        s_2m = s_m + math.fsum(sums_2m[n])
        raw_m = s_m - ln_m ** (n + 1) / (n + 1)
        raw_2m = s_2m - ln_2m ** (n + 1) / (n + 1)
        g_m = ln_m**n / M
        g_2m = ln_2m**n / (2 * M)
        if abs(g_m - g_2m) < 0.2 * g_m:
            # the two model weights nearly coincide (large n, small M):
            # elimination would divide by a near-zero weight gap, and
            # |accel - raw| would understate a truncation that is flat
            # in M.  Fall back to the better raw value and report the
            # modeled uncancelled truncation g(2M)/2 itself.
            accel = raw_2m
            err = g_2m / 2.0 + abs(raw_2m - raw_m)
        else:
            accel = (g_m * raw_2m - g_2m * raw_m) / (g_m - g_2m)
            err = abs(accel - raw_m)
        gammas.append(accel)
        errors.append(err)
    return StieltjesTable(gammas=tuple(gammas), m_max=M, est_error=tuple(errors))


def zeta_laurent(s: complex, table: StieltjesTable) -> ZetaReference:
    """Truncated Laurent expansion about the pole,

        1/(s-1) + sum_{n=0}^{K} (-1)^n gamma_n (s-1)^n / n!.

    Best inside |s-1| < 1.  The bound (magnitude of the last included
    term plus propagated table errors) is heuristic.
    """
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has its pole at s = 1")
    w = s - 1.0
    total = 1.0 / w
    last_mag = 0.0
    propagated = 0.0
    wn = complex(1.0)  # w^n
    fact = 1.0
    for n, g in enumerate(table.gammas):
        if n > 0:
            wn *= w
            fact *= n
        term = ((-1) ** n) * g * wn / fact
        total += term
        last_mag = abs(term)
        propagated += table.est_error[n] * abs(wn) / fact
    bound = last_mag + propagated + _rounding_floor(abs(total))
    value_out = total.real if s.imag == 0.0 else total
    return ZetaReference(complex(value_out), "laurent", bound)


def _choose_em_cutoff(s: complex) -> int:
    """Smallest X with |s| X^(-sigma)/sigma at 90% of the reference
    target (leaving room for the rounding floor), capped at _X_CAP (the
    reported bound stays honest if the cap bites).  Worked in log space,
    so no |s| can overflow it."""
    sigma = s.real
    log_x = (math.log(abs(s)) - math.log(sigma * 0.9 * _REFERENCE_TARGET)) / sigma
    if log_x >= math.log(_X_CAP):
        return _X_CAP
    return max(64, math.ceil(math.exp(log_x)))


def _reference_routes(s: complex) -> tuple[ZetaReference, ZetaReference]:
    """(route reported, route it is cross-checked against) at s.

    For Re(s) > 1 both routes are Euler-Maclaurin and the one with the
    smaller error bound is reported; below, the eta route is.
    """
    if s.real > 1.0:
        cut = zeta_euler_maclaurin(s, 64, _choose_em_cutoff(s))
        full = zeta_euler_maclaurin(s, 1_000_000, 1_000_000)
        return (cut, full) if cut.error_bound <= full.error_bound else (full, cut)
    return zeta_eta(s, 1_000_000), zeta_euler_maclaurin(s, 64, 1_000_000)


@lru_cache(maxsize=128)
def reference_zeta(s: complex) -> ZetaReference:
    """Best available reference for zeta(s), cross-checked.

    Re(s) > 1: two Euler-Maclaurin routes, one with the cutoff chosen
    for a 1e-10 bound and one with the whole Dirichlet sum to N = 10^6
    and no integral (bound |s| N^-sigma/sigma); the one with the
    smaller bound is reported and the other checks it.
    0 < Re(s) <= 1: the eta route at N = 10^6, cross-checked against
    Euler-Maclaurin.  The two must agree within 10x the sum of their
    reported bounds, else a CrossCheckError carries both values.

    Raises:
        UnsupportedRangeError: before any summation, when even the
            largest cutoff it pays for, _X_CAP, leaves the
            Euler-Maclaurin tail bound |s| X^-sigma/sigma at 1 or more
            (huge |Im s|, sigma near 0, or a non-finite s); and after
            it, when the cross-check allowance is not below the
            reported |value|, so the check could not fail.
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"reference needs Re(s) > 0, got Re(s)={s.real}")
    if s == 1:
        raise DomainError("zeta has its pole at s = 1")
    bound = abs(s) * _X_CAP ** -s.real / s.real
    if not bound < 1.0:
        raise UnsupportedRangeError(
            f"no reference at s={s}: the Euler-Maclaurin tail bound at the "
            f"largest cutoff {_X_CAP} is {bound:.3e}, not below 1"
        )
    best, other = _reference_routes(s)
    gap = abs(best.value - other.value)
    allowance = 10.0 * (best.error_bound + other.error_bound)
    if not allowance < abs(best.value):
        raise UnsupportedRangeError(
            f"no reference at s={s}: the cross-check allowance {allowance:.3e} "
            f"is not below |{best.method} value| = {abs(best.value):.3e}"
        )
    if gap > allowance:
        raise CrossCheckError(
            f"reference cross-check failed at s={s}: |{best.method} - {other.method}| "
            f"= {gap:.3e} > {allowance:.3e}",
            best.value,
            other.value,
        )
    return best
