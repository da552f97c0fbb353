"""Independent correctness checks for the benchmark's outputs.

Nothing here calls trigzeta.  Each checker compares a program output
with a value computed apart from it (exact closed forms, mpmath at 30
or 50 digits) or with a property the method must have, and returns a
list of failure messages: empty means the output passed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

EPS = 2.0**-52
#: Correct significant digits of a correctly rounded binary64 value.
ACCURACY_CAP = -math.log10(2.0**-53)

#: Catalog shapes as (kind, m, n): the five distinct (kind, m, n)
#: triples behind the eleven catalog ids.
SHAPES = (("cot", 0, 1), ("cot", 1, 1), ("cot", 0, 0), ("csc", 0, 1), ("csc", 0, 0))
#: One catalog id per shape, for the CLI's --rep flag.
SHAPE_IDS = {"E28": SHAPES[0], "E29": SHAPES[1], "E30": SHAPES[2], "E31": SHAPES[3], "E32": SHAPES[4]}


def upper(q: int, n: int) -> int:
    """Last summation index: q when n = 1, q - 1 when n = 0."""
    return (2 * q + n - 1) // 2


def digits(value: complex, exact: complex) -> float:
    """Correct significant digits, -log10 of the relative error, capped
    at the binary64 limit."""
    err = abs(complex(value) - complex(exact))
    if err == 0.0:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(err / abs(complex(exact))))


@functools.lru_cache(maxsize=None)
def mp_zeta(s: complex, dps: int = 30) -> complex:
    with mpmath.workdps(dps):
        return complex(mpmath.zeta(mpmath.mpmathify(complex(s))))


def rounding_allowance(s: complex, magnitude: float) -> float:
    """Rounding allowance of a float sum of positive-base powers.

    Each base carries a few ulps (prefactor, angle, cos/sin, product)
    that the power magnifies by |s|; the compensated sum adds a few
    more.  ``magnitude`` is the sum of |term|.
    """
    return (4.0 * abs(complex(s)) + 4.0) * EPS * magnitude


def closed_form(shape: tuple[str, int, int], q: int, s: int) -> mpmath.mpf:
    """Exact value of the finite sum at s = 2 or s = 4, at 40 digits.

    Sum_{p<=q} cot^2(p pi/(2q+1)) = q(2q-1)/3,
    Sum_{p<=q} cot^4(p pi/(2q+1)) = q(2q-1)(4q^2+10q-9)/45,
    Sum_{p<q} cot^2(p pi/(2q)) = (q-1)(2q-1)/3,
    Sum_{p<q} cot^4(p pi/(2q)) = (2q-1)(2q-2)(4q^2+6q-13)/90,
    and the csc sums through csc^2 = 1 + cot^2.
    """
    kind, m, n = shape
    count = upper(q, n)
    if n == 1:
        c2 = Fraction(q * (2 * q - 1), 3)
        c4 = Fraction(q * (2 * q - 1) * (4 * q * q + 10 * q - 9), 45)
    else:
        c2 = Fraction((q - 1) * (2 * q - 1), 3)
        c4 = Fraction((2 * q - 1) * (2 * q - 2) * (4 * q * q + 6 * q - 13), 90)
    if kind == "csc":
        c2, c4 = count + c2, count + 2 * c2 + c4
    power_sum = {2: c2, 4: c4}[s]
    with mpmath.workdps(40):
        pref = mpmath.pi / (2 * q + m)
        return +(pref**s * mpmath.mpf(power_sum.numerator) / power_sum.denominator)


def check_closed_form(shape, q: int, s: int, value: complex) -> list[str]:
    exact = closed_form(shape, q, s)
    allowance = rounding_allowance(s, float(exact))
    gap = abs(complex(value) - complex(exact))
    if value.imag != 0.0 or not gap <= allowance:
        return [f"{shape} q={q} s={s}: {value!r} vs closed form {float(exact)!r}, "
                f"gap {gap:.3e} > allowance {allowance:.3e}"]
    return []


def envelope(s: complex, q: int) -> float:
    """Allowance for |S_q(s) - zeta(s)|: 2 (|s|/q + q^(1-sigma)/(sigma-1)).

    The first term is the prefactor/angle mismatch, relative O(|s|/q);
    the second bounds the missing tail sum_{p>q} p^(-s).  Measured
    ratios of the true error to the bracket stay below 1.2 for every
    shape at sigma >= 1.3, q >= 10^3.
    """
    s = complex(s)
    sigma = s.real
    return 2.0 * (abs(s) / q + q ** (1.0 - sigma) / (sigma - 1.0))


def check_limit(shape, q: int, s: complex, value: complex, zeta: complex) -> list[str]:
    gap = abs(complex(value) - zeta)
    allowed = envelope(s, q)
    if not gap <= allowed:
        return [f"{shape} q={q} s={s}: |sum - zeta| = {gap:.3e} > envelope {allowed:.3e}"]
    return []


def check_real_positive(shape, q: int, s: float, value: complex) -> list[str]:
    if value.imag != 0.0 or not value.real > 0.0:
        return [f"{shape} q={q} s={s}: real-s sum {value!r} is not a positive real"]
    return []


def check_conjugate(shape, q: int, s: complex, value: complex, value_conj: complex) -> list[str]:
    """S(conj s) = conj S(s), to 8 ulps of |S| (the exponent's sign only
    flips the imaginary parts of exp(s ln base))."""
    gap = abs(complex(value_conj) - complex(value).conjugate())
    allowed = 8.0 * math.ulp(abs(complex(value)))
    if not gap <= allowed:
        return [f"{shape} q={q} s={s}: conjugate gap {gap:.3e} > {allowed:.3e}"]
    return []


def check_reference(s: complex, value: complex, error_bound: float, zeta: complex) -> list[str]:
    """The reference lies within its own reported error_bound of zeta."""
    gap = abs(complex(value) - zeta)
    if not (math.isfinite(error_bound) and gap <= error_bound):
        return [f"reference at s={s}: |value - zeta| = {gap:.3e} > error_bound {error_bound:.3e}"]
    return []


@functools.lru_cache(maxsize=None)
def transcription(shape, q: int, s: complex, dps: int = 50) -> tuple[complex, float]:
    """Literal evaluation of the finite sum at ``dps`` digits, rounded
    once; returns (value, sum of |term|)."""
    kind, m, n = shape
    with mpmath.workdps(dps):
        pi = mpmath.pi
        sv = mpmath.mpmathify(complex(s))
        f = mpmath.cot if kind == "cot" else mpmath.csc
        pref = pi / (2 * q + m)
        total = mpmath.mpc(0)
        mag = mpmath.mpf(0)
        for p in range(1, upper(q, n) + 1):
            base = pref * f(p * pi / (2 * q + n))
            total += base**sv
            mag += base**sv.real
        return complex(total), float(mag)


def check_transcription(shape, q: int, s: complex, value: complex, exact: tuple[complex, float]) -> list[str]:
    ref, mag = exact
    gap = abs(complex(value) - ref)
    allowed = rounding_allowance(s, mag)
    if not gap <= allowed:
        return [f"{shape} q={q} s={s}: {value!r} vs 50-digit {ref!r}, gap {gap:.3e} > {allowed:.3e}"]
    return []


def check_ulps(label: str, a: complex, b: complex, ulps: float = 4.0) -> list[str]:
    gap = abs(complex(a) - complex(b))
    allowed = ulps * math.ulp(max(abs(complex(a)), abs(complex(b))))
    if not gap <= allowed:
        return [f"{label}: {a!r} vs {b!r} differ by {gap:.3e} > {ulps} ulps"]
    return []


def check_shrinks(label: str, first: complex, last: complex, zeta: complex) -> list[str]:
    e0, e1 = abs(complex(first) - zeta), abs(complex(last) - zeta)
    if not e1 < e0:
        return [f"{label}: error did not shrink, {e0:.3e} at the first q, {e1:.3e} at the last"]
    return []


def check_exit(label: str, returncode: int, stderr: str, want: int) -> list[str]:
    """The README's exit statuses: 0 success, 1 usage/domain error, 2
    verification failure; every error path writes exactly one
    ``error: ...`` line to stderr, and success writes none."""
    lines = stderr.splitlines()
    if returncode != want:
        return [f"{label}: exit status {returncode}, want {want}"]
    if want == 0 and lines:
        return [f"{label}: success wrote to stderr: {lines[0]!r}"]
    if want != 0 and (len(lines) != 1 or not lines[0].startswith("error: ")):
        return [f"{label}: want exactly one 'error:' line on stderr, got {len(lines)} lines"]
    return []
