"""Independent reference computations of the Riemann zeta function.

Seven classical routes are implemented and cross-validated against
each other, so the limit representations in :mod:`trigzeta.trig_sums`
can be checked against references that share nothing with them but
the power and summation primitives of :mod:`trigzeta.accumulate`:

* ``zeta_dirichlet``       -- truncated sum of 1/n^s            (Re s > 1)
* ``zeta_eta``             -- alternating series with the
  (1 - 2^(1-s))^-1 prefactor                                    (Re s > 0)
* ``zeta_euler_maclaurin`` -- partial sum + n^(1-s)/(s-1) - s * integral
  of the fractional part, with per-unit-interval closed forms   (Re s > 0)
* ``zeta_em_bernoulli``    -- partial sum to N plus the Euler-Maclaurin
  endpoint terms with K Bernoulli corrections, Backlund's bound (Re s > 0)
* ``zeta_borwein``         -- P. Borwein's accelerated eta series with
  exact integer weights                                         (Re s > 0)
* ``zeta_euler_product``   -- product over primes of (1-p^-s)^-1,
  accumulated in the log domain                                 (Re s > 1)
* ``zeta_even``            -- exact Bernoulli-number closed form for
  even integer arguments

``reference_zeta`` reports one route and cross-checks it against a
partner, by one rule for every Re(s) > 0.  The first route is
``zeta_em_bernoulli`` at N = 20 + ceil(|Im s|) where Re(s) <= 1 or the
floor-function cutoff X that a 1e-10 tail bound needs reaches its cap
of 8e6 (every real s <= 1.455), else the floor-function route to X.
The partner is ``zeta_borwein`` wherever Borwein's n stays within 4096
(|Im s| below about 4500) and 2^(1-s) is not within 1e-9 of 1; at other
s with Re(s) > 1 (2.5+10^4 i, 1 + 2^-52) it is the floor-function route
with the whole Dirichlet sum to 10^6.  At Re(s) > 1 the route with the
smaller bound is reported.  What each pair shares, so that a defect
there could shift both routes alike:

  em_bernoulli, borwein      the powers of the first min(N - 1, n)
                             integers, with opposite signs at even bases;
                             the Bernoulli table (in Borwein's bound only)
  floor-function, borwein    the powers of the first n integers, likewise
  em_bernoulli, 10^6 sum     the powers of the first N - 1, same signs
  floor-function, 10^6 sum   the powers up to min(X, 10^6), same signs: in
                             exact arithmetic one series, cut at X and 10^6

Every ``error_bound`` is a truncation bound (rigorous where the
docstring says so) plus one rounding floor, c eps times the sum of
absolute contributions, with c following ``positive_power``'s branch.
Real s raises exact integer bases by ``np.power``, each power within a
few ulps: c = 4.  Complex s takes exp(-s ln n) from a rounded ln n,
whose error the exponent multiplies by |s| (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002): c = 4|s|(1 + ln n) + 4, with
n the largest index whose logarithm enters.

All operations are pure, and every cached value is immutable (tuples,
read-only arrays), so concurrent callers may share them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .accumulate import exact_sum, index_blocks, positive_power, power_sum
from .errors import CrossCheckError, DomainError, UnsupportedRangeError

_EPS = sys.float_info.epsilon

# reference_zeta's pair rule (module docstring): the tail bound the
# floor-function route aims for, and the largest cutoff it will pay for.
_REFERENCE_TARGET = 1e-10
_X_CAP = 8_000_000

# With N = 20 + ceil(|t|) the k-th Bernoulli correction is about
# |s + 2k|^2/(2 pi N)^2 times the one before, so twenty leave Backlund's
# remainder far below rounding.  Borwein's n is the smallest whose
# truncation bound is below _BORWEIN_TARGET; it grows by about 0.89 per
# unit of |t|, so the cap reaches |t| of about 4500.
_EM_TERMS = 20
_BORWEIN_TARGET = 1e-17
_BORWEIN_MAX_N = 4096
_LN2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class ZetaReference:
    """A reference value with its method tag and reported error bound."""

    value: complex
    method: str
    error_bound: float

    def to_dict(self) -> dict[str, float | str]:
        """The fields every JSON output writes for a reference."""
        return {
            "re_value": self.value.real,
            "im_value": self.value.imag,
            "method": self.method,
            "error_bound": self.error_bound,
        }


def _floor_factor(s: complex, terms: int) -> float:
    """The module docstring's c, for largest index ``terms``."""
    if s.imag == 0.0:
        return 4.0
    return 4.0 * abs(s) * (1.0 + math.log(terms)) + 4.0


def _reference(
    s: complex, value: complex, method: str, truncation: float, terms: int, scale: float
) -> ZetaReference:
    """What every route returns: a real value at real s, with truncation
    plus the rounding floor c eps scale."""
    if s.imag == 0.0:
        value = value.real
    return ZetaReference(complex(value), method, truncation + _floor_factor(s, terms) * _EPS * scale)


def _dirichlet_tail(sigma: float, N: int) -> float:
    """N^(1-sigma)/(sigma-1) >= sum_{n>N} n^-sigma, for sigma > 1."""
    return N ** (1.0 - sigma) / (sigma - 1.0)


@lru_cache(maxsize=8)
def sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending, by the sieve of Eratosthenes."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return tuple(int(p) for p in np.nonzero(flags)[0])


def _dirichlet_sum(s: complex, N: int) -> tuple[complex, float]:
    """(sum_{n<=N} n^-s, sum of magnitudes), summed exactly."""
    return power_sum(index_blocks(1, N + 1), -s)


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
    return _reference(s, value, "dirichlet", _dirichlet_tail(s.real, N), N, mag)


def _eta_denominator(s: complex) -> complex:
    """1 - 2^(1-s), raising on the pole set 2^(1-s) = 1.

    Evaluated as -expm1((1-s) ln 2) with
    expm1(x + iy) = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y,
    so it keeps its relative accuracy near s = 1.
    """
    if s == 1:
        raise DomainError("eta relation is singular at s = 1")
    x = (1.0 - s.real) * _LN2
    y = -s.imag * _LN2
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2
    w = complex(-re, -math.exp(x) * math.sin(y))
    if abs(w) < 1e-9:
        raise DomainError(
            f"s={s} lies on the prefactor pole set 2^(1-s) = 1; "
            "the eta relation is numerically singular there"
        )
    return w


def zeta_eta(s: complex, N: int) -> ZetaReference:
    """Alternating series route, valid for Re(s) > 0 away from the
    prefactor pole set 2^(1-s) = 1.

    The truncation bound is rigorous.  For real s it is the
    alternating-series remainder bound |1-2^(1-s)|^-1 (N+1)^(-Re s).
    For complex s the terms need not alternate in sign or shrink, so the
    tail is taken in pairs, n^-s - (n+1)^-s = s * integral_n^(n+1)
    x^(-s-1) dx, with at most one term unpaired:
    |1-2^(1-s)|^-1 (1 + |s|/Re s) (N+1)^(-Re s).
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"eta series needs Re(s) > 0, got Re(s)={s.real}")
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    pref = 1.0 / _eta_denominator(s)

    def alternating(k: np.ndarray) -> np.ndarray:
        t = positive_power(k, -s)
        return np.where(k % 2 == 1, t, -t)

    alt, mag = exact_sum(alternating(k) for k in index_blocks(1, N + 1))
    pairing = 1.0 if s.imag == 0.0 else 1.0 + abs(s) / s.real
    truncation = abs(pref) * pairing * (N + 1) ** (-s.real)
    return _reference(s, pref * alt, "eta", truncation, N, abs(pref) * mag)


def _em_integral(s: complex, n: int, X: int) -> tuple[complex, float]:
    """integral_n^X (x - floor(x)) x^(-s-1) dx by per-interval closed forms.

    On [k, k+1] the antiderivative of (x-k) x^(-s-1) gives

        ((k+1)^(1-s) - k^(1-s))/(1-s) + (k/s)((k+1)^(-s) - k^(-s)).

    Returns (integral, sum of magnitudes) for the rounding floor.
    """
    one_minus_s = 1.0 - s

    def interval(k: np.ndarray) -> np.ndarray:
        ends = np.append(k, k[-1] + 1.0)  # k and k + 1, each power taken once
        rise, drop = positive_power(ends, one_minus_s), positive_power(ends, -s)
        term = (rise[1:] - rise[:-1]) / one_minus_s
        return term + (k / s) * (drop[1:] - drop[:-1])

    return exact_sum(interval(k) for k in index_blocks(n, X))


def zeta_euler_maclaurin(s: complex, n: int, X: int) -> ZetaReference:
    """Floor-function formula: partial sum to n, the n^(1-s)/(s-1) term,
    and -s times the fractional-part integral truncated at X.

    Valid for Re(s) > 0, s != 1.  The tail bound |s| X^(-Re s)/Re(s)
    follows from |x - floor(x)| <= 1 and is rigorous.  In exact
    arithmetic the value is sum_{k<=X} k^-s + X^(1-s)/(s-1) whatever n
    is, so two cutoffs of this route are two truncations of one series.
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
    direct, direct_mag = _dirichlet_sum(s, n)
    pole_term = n ** (1.0 - s) / (s - 1.0)
    integral, integral_mag = _em_integral(s, n, X)
    value = direct + pole_term - s * integral
    scale = direct_mag + abs(pole_term) + abs(s) * integral_mag
    return _reference(s, value, "euler_maclaurin", abs(s) * X ** -s.real / s.real, X, scale)


def zeta_euler_product(s: complex, limit: int) -> ZetaReference:
    """Product over the primes <= limit of (1 - p^-s)^-1 for Re(s) > 1.

    Accumulated in the log domain, exp(-sum log(1 - p^-s)) with the
    principal logarithm; |p^-s| < 1 keeps every factor off the branch
    cut.  The tail bound is Dirichlet's, and it is true: the partial
    product is the sum of n^-s over limit-smooth n, and every omitted
    integer exceeds limit.

    Raises:
        DomainError: for Re(s) <= 1, or limit < 2 (no prime).
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError(f"Euler product needs Re(s) > 1, got Re(s)={s.real}")
    p = np.asarray(sieve_primes(limit), dtype=np.float64)
    log_total, log_mag = exact_sum([np.log1p(-positive_power(p, -s))])
    value = cmath.exp(-log_total)
    scale = abs(value) * (1.0 + log_mag)
    return _reference(s, value, "euler_product", _dirichlet_tail(s.real, limit), limit, scale)


_BERNOULLI_MAX_K = 60

# pi to 64 significant digits (relative error below 1e-64).  (2 pi)^(2n)
# is then off by less than 2n 1e-64 relative, so float() rounds zeta(2n)
# correctly unless it lies that close to a rounding boundary; the tests
# compare every n <= 60 with a 50-digit evaluation.
_PI = Fraction("3.141592653589793238462643383279502884197169399375105820974944592")


@lru_cache(maxsize=1)
def _bernoulli_table() -> tuple[tuple[Fraction, ...], tuple[float, ...]]:
    """(exact B_0..B_120, and B_2k/(2k)! for k = 1..60 each rounded
    once), with B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the
    tangent numbers T_k, built in exact integers by the Knuth-Buckholtz
    recurrence (Brent and Harvey, "Fast computation of Bernoulli, Tangent
    and Secant numbers", 2011, Algorithm TangentNumbers)."""
    K = _BERNOULLI_MAX_K
    t = [0] + [math.factorial(k - 1) for k in range(1, K + 1)]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (2 * K - 1)
    for k in range(1, K + 1):
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    coefficients = [b[2 * k] / math.factorial(2 * k) for k in range(1, K + 1)]
    return tuple(b), tuple(float(c) for c in coefficients)


def bernoulli_numbers(K: int) -> tuple[Fraction, ...]:
    """Exact B_0..B_{2K} (first convention, B_1 = -1/2): a prefix of one
    table, built once.

    Supported for K <= 60; beyond that exactness is still possible but
    not promised by this artifact.
    """
    if K < 1:
        raise DomainError(f"K must be positive, got {K}")
    if K > _BERNOULLI_MAX_K:
        raise UnsupportedRangeError(f"K={K} exceeds supported maximum {_BERNOULLI_MAX_K}")
    return _bernoulli_table()[0][: 2 * K + 1]


def zeta_even(n: int) -> ZetaReference:
    """zeta(2n) = (-1)^(n+1) (2 pi)^(2n) B_{2n} / (2 (2n)!), exactly
    rational up to the (2 pi)^(2n) factor.

    Evaluated in exact rationals with the 64-digit ``_PI`` and rounded
    once to binary64 by float(Fraction), so the reported bound of 2 ulps
    holds with room to spare.  n = 0 (which would assert a value for
    zeta(0)) is outside this artifact's evaluation domain.
    """
    if n < 1:
        raise UnsupportedRangeError("n = 0 (zeta(0)) is not computed by this artifact")
    b = bernoulli_numbers(n)[2 * n]
    rational = Fraction((-1) ** (n + 1), 2 * math.factorial(2 * n)) * b
    value = float(rational * (2 * _PI) ** (2 * n))
    return ZetaReference(complex(value), "bernoulli", 2.0 * math.ulp(abs(value)))


def zeta_em_bernoulli(s: complex, N: int, K: int) -> ZetaReference:
    """Euler-Maclaurin summation with K Bernoulli corrections,

        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{k=1}^{K} T_k + R_K,
        T_k = B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k).

    Valid for Re(s) > 0, s != 1, N >= 1 and 1 <= K <= 59 (the bound
    needs B_{2K+2}, and the exact table stops at B_120).  Backlund's
    bound |R_K| <= |s+2K+1|/(Re s+2K+1) |T_{K+1}| (Edwards, Riemann's
    Zeta Function, 6.4) is rigorous.

    Raises:
        UnsupportedRangeError: before any summation, when a correction
            or the bound is not finite (N far below |Im s|).
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"needs Re(s) > 0, got Re(s)={s.real}")
    if s == 1:
        raise DomainError("zeta has its pole at s = 1")
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    if K < 1:
        raise DomainError(f"K must be positive, got {K}")
    if K >= _BERNOULLI_MAX_K:
        raise UnsupportedRangeError(
            f"K={K} exceeds supported maximum {_BERNOULLI_MAX_K - 1}"
        )
    n_pow = complex(positive_power(np.array([float(N)]), -s)[0])  # N^-s
    # T_k = b_k * rising_k * N^-s with rising_k = s(s+1)...(s+2k-2)/N^(2k-1),
    # carried as a ratio so that no factor overflows while N is near |t|
    corrections = []
    rising = s / N
    for k, b in enumerate(_bernoulli_table()[1][: K + 1], start=1):
        if k > 1:
            rising *= (s + (2 * k - 3)) * (s + (2 * k - 2)) / (N * N)
        corrections.append(b * rising * n_pow)
    last = corrections.pop()
    correction, correction_mag = sum(corrections), sum(abs(c) for c in corrections)
    remainder = abs(s + (2 * K + 1)) / (s.real + 2 * K + 1) * abs(last)
    if not (cmath.isfinite(correction) and math.isfinite(correction_mag + remainder)):
        raise UnsupportedRangeError(
            f"no bound for the Euler-Maclaurin-Bernoulli route at s={s} with N={N}, "
            f"K={K}: its corrections overflow"
        )
    partial, partial_mag = _dirichlet_sum(s, N - 1)
    pole = N * n_pow / (s - 1.0)
    half = 0.5 * n_pow
    value = partial + pole + half + correction
    scale = partial_mag + abs(pole) + abs(half) + correction_mag
    return _reference(s, value, "em_bernoulli", remainder, N, scale)


@lru_cache(maxsize=16)
def _borwein_weights(n: int) -> tuple[np.ndarray, int]:
    """((-1)^k (d_n - d_k)/d_n for k = 0..n-1, each rounded once; d_n),
    with d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!) in exact
    integers (the summands are the coefficients of the shifted
    Chebyshev polynomial T_n(1 + 2x), so every division is exact)."""
    term, d = 1, 0
    partial = []
    for i in range(n + 1):
        d += term
        partial.append(d)
        term = term * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
    d_n = partial[n]
    weights = np.array([(d_n - d_k) / d_n for d_k in partial[:n]])
    weights[1::2] *= -1.0
    weights.flags.writeable = False
    return weights, d_n


def _borwein_log_scale(s: complex) -> float:
    """ln(Gamma(Re s) / (|Gamma(s)| |1 - 2^(1-s)|)) + 1e-12 (1 + |s|);
    Borwein's truncation bound is its exponential over d_n.

    ln|Gamma(s)| = ln|Gamma(s + N)| - sum_{k<N} ln|s+k|, Re s + N >= 20,
    by Stirling's series with 8 terms (remainder below |B_18| 2^9 /
    (18 * 17 * 20^17), about 7e-21): within 7.3e-15 (1 + |s|) of mpmath's
    loggamma over 0 < Re s <= 150, |Im s| <= 1e5, so the widening keeps
    the truncation bound true (the tests also check Re s up to 1e100).
    """
    shift = max(0, math.ceil(20.0 - s.real))
    z = s + shift
    series = 0j  # B_2k/(2k (2k-1)) = B_2k/(2k)! (2k-2)!, by Horner in 1/z^2
    for k, b in reversed(list(enumerate(_bernoulli_table()[1][:8], start=1))):
        series = series / (z * z) + b * math.factorial(2 * k - 2)
    ln_z = cmath.log(z)
    log_abs_gamma = (z.real - 0.5) * ln_z.real - z.imag * ln_z.imag - z.real + _HALF_LN_2PI
    log_abs_gamma += (series / z).real - math.fsum(math.log(abs(s + k)) for k in range(shift))
    log_scale = math.lgamma(s.real) - log_abs_gamma - math.log(abs(_eta_denominator(s)))
    return log_scale + 1e-12 * (1.0 + abs(s))


def zeta_borwein(s: complex, n: int) -> ZetaReference:
    """P. Borwein's accelerated eta series ("An efficient algorithm for
    the Riemann zeta function", CMS Conf. Proc. 27, 2000, Algorithm 2),

        zeta(s) = -1/(d_n (1 - 2^(1-s)))
                  * sum_{k<n} (-1)^k (d_k - d_n) (k+1)^-s + gamma_n(s).

    Valid for Re(s) > 0 away from the pole set 2^(1-s) = 1.  The bound
    |gamma_n(s)| <= Gamma(sigma)/(d_n |Gamma(s)| |1 - 2^(1-s)|) is
    rigorous; d_n > (3 + sqrt 8)^n / 2, so n grows about linearly in
    |Im s|.

    Raises:
        UnsupportedRangeError: when that bound overflows (large |Im s|).
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"Borwein's series needs Re(s) > 0, got Re(s)={s.real}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    w = _eta_denominator(s)
    weights, d_n = _borwein_weights(n)
    try:
        truncation = math.exp(_borwein_log_scale(s) - math.log(d_n))
    except OverflowError:
        raise UnsupportedRangeError(
            f"no bound for Borwein's series at s={s} with n={n}: its truncation bound overflows"
        ) from None
    total, mag = exact_sum([weights * positive_power(np.arange(1.0, n + 1.0), -s)])
    return _reference(s, total / w, "borwein", truncation, n, mag / abs(w))


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


def _borwein_order(s: complex) -> int:
    """Smallest n whose Borwein truncation bound is below _BORWEIN_TARGET
    (from d_n > (3 + sqrt 8)^n / 2), worked in log space.

    Raises:
        UnsupportedRangeError: when that n exceeds _BORWEIN_MAX_N.
        DomainError: on the prefactor's pole set (from _eta_denominator).
    """
    try:
        log_need = _borwein_log_scale(s) + _LN2 - math.log(_BORWEIN_TARGET)
    except OverflowError:  # lgamma(Re s), for Re s above about 2.5e305
        log_need = math.inf
    n_real = log_need / math.log(3.0 + math.sqrt(8.0))
    if not n_real <= _BORWEIN_MAX_N:
        raise UnsupportedRangeError(
            f"no reference at s={s}: Borwein's series needs about "
            f"{n_real:.3g} terms, more than the {_BORWEIN_MAX_N} it pays for"
        )
    return max(1, math.ceil(n_real))


def cross_routes(s: complex) -> list[ZetaReference]:
    """Every route that reaches s, for ``verify --suite cross``.

    Re(s) > 1: the Dirichlet sum, the eta sum and the floor-function
    Euler-Maclaurin route to 10^6, and the Euler product over the primes
    below 10^5.  0 < Re(s) <= 1: eta and Euler-Maclaurin to 10^6.  Then
    em_bernoulli and borwein as reference_zeta's pair rule runs them.
    """
    s = complex(s)
    refs = [zeta_eta(s, 1_000_000), zeta_euler_maclaurin(s, 64, 1_000_000)]
    if s.real > 1.0:
        refs = [zeta_dirichlet(s, 1_000_000), *refs, zeta_euler_product(s, 100_000)]
    n = _borwein_order(s)
    em = zeta_em_bernoulli(s, 20 + math.ceil(abs(s.imag)), _EM_TERMS)
    return [*refs, em, zeta_borwein(s, n)]


def _reference_routes(s: complex) -> tuple[ZetaReference, ZetaReference]:
    """(route reported, route it is cross-checked against) at s, by the
    module docstring's pair rule.

    Raises:
        UnsupportedRangeError: before any summation, when Re(s) > 1 and
            even the largest cutoff, _X_CAP, leaves the Euler-Maclaurin
            tail bound |s| X^-sigma/sigma at 1 or more (huge |Im s|); when
            Re(s) > 1 and the rounding floors of the first route and of
            the 10^6 route (whose c is at least Borwein's) alone would
            make reference_zeta's allowance exceed |value| (each route's
            scale is at least 1, and |value| <= zeta(sigma) + bound <
            sigma/(sigma-1) + bound, so 9 (c1 + c2) eps >= sigma/(sigma-1)
            suffices); or when Re(s) <= 1 and Borwein's n exceeds
            _BORWEIN_MAX_N.
    """
    N, X = 20 + math.ceil(abs(s.imag)), 0  # X = 0: the Bernoulli route is first
    if s.real > 1.0:
        bound = abs(s) * _X_CAP ** -s.real / s.real
        if not bound < 1.0:
            raise UnsupportedRangeError(
                f"no reference at s={s}: the Euler-Maclaurin tail bound at the "
                f"largest cutoff {_X_CAP} is {bound:.3e}, not below 1"
            )
        X = _choose_em_cutoff(s)
        X = 0 if X == _X_CAP and N <= _X_CAP else X
        floors = (_floor_factor(s, X or N) + _floor_factor(s, 1_000_000)) * _EPS
        zeta_cap = s.real / (s.real - 1.0)  # > zeta(sigma) >= |zeta(s)|
        if not 9.0 * floors < zeta_cap:
            raise UnsupportedRangeError(
                f"no reference at s={s}: the rounding floors alone put the cross-check "
                f"allowance above {9.0 * floors:.3e}, not below |zeta(s)| <= "
                f"Re(s)/(Re(s)-1) = {zeta_cap:.3e}"
            )
    try:
        n = _borwein_order(s)
    except (DomainError, UnsupportedRangeError):
        if not s.real > 1.0:
            raise
        n = 0
    first = zeta_euler_maclaurin(s, 64, X) if X else zeta_em_bernoulli(s, N, _EM_TERMS)
    partner = zeta_borwein(s, n) if n else zeta_euler_maclaurin(s, 1_000_000, 1_000_000)
    if s.real > 1.0 and partner.error_bound < first.error_bound:
        return partner, first
    return first, partner


@lru_cache(maxsize=128)
def reference_zeta(s: complex) -> ZetaReference:
    """Best available reference for zeta(s), cross-checked by the module
    docstring's pair rule: the two routes must agree within 10x the sum
    of their reported bounds, else a CrossCheckError names both routes
    with their values and bounds.  A cold call (``benches/baseline.py``,
    2-core x86-64 VM) costs about 1 ms at 1.05, 3.7, 3+2i and 0.5+18i,
    5 ms at 2, 140 ms at 1.5 and 0.4 s at 1.5+1.3i, where Borwein's
    series is reported and the floor-function route to X (5.1e6 at 1.5)
    only checks it.

    Raises:
        UnsupportedRangeError: for a non-finite s; before any summation
            when the routes would not reach a useful bound or their
            rounding floors alone make the cross-check vacuous (see
            _reference_routes); and after it, when the cross-check
            allowance is not below the reported |value|, so the check
            could not fail (at a zero, for instance).
    """
    s = complex(s)
    if not s.real > 0.0:
        raise DomainError(f"reference needs Re(s) > 0, got Re(s)={s.real}")
    if s == 1:
        raise DomainError("zeta has its pole at s = 1")
    if not cmath.isfinite(s):
        raise UnsupportedRangeError(f"no reference at the non-finite s={s}")
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
            f"reference cross-check failed at s={s}: {best.method} = {best.value} "
            f"(bound {best.error_bound:.3e}) and {other.method} = {other.value} "
            f"(bound {other.error_bound:.3e}) differ by {gap:.3e} > {allowance:.3e}"
        )
    return best
