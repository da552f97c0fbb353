"""Tests for the classical zeta reference computations."""

import dataclasses
import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import trigzeta as tz
from trigzeta import oracle
from trigzeta.errors import CrossCheckError, DomainError, UnsupportedRangeError
from trigzeta.oracle import (
    _X_CAP,
    _borwein_log_scale,
    _borwein_order,
    _borwein_weights,
    _choose_em_cutoff,
    _em_integral,
    _eta_denominator,
    _PI,
    _reference_routes,
)

PI = math.pi
ZETA2 = PI**2 / 6


def combined_gap_ok(a: tz.ZetaReference, b: tz.ZetaReference) -> bool:
    return abs(a.value - b.value) <= a.error_bound + b.error_bound


class TestDirichlet:
    def test_zeta_two_against_bernoulli_route(self):
        ref = tz.zeta_dirichlet(2, 10**6)
        assert abs(ref.value - tz.zeta_even(1).value) <= ref.error_bound
        assert ref.error_bound == pytest.approx(1e-6, rel=1e-4)

    def test_fast_decay_at_s_ten(self):
        ref = tz.zeta_dirichlet(10, 10)
        # 10-term sum; integral tail bound 10^-9/9
        assert ref.error_bound == pytest.approx(10.0**-9 / 9.0, rel=1e-6)
        assert abs(ref.value - 1.0009945751278180853) <= ref.error_bound

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            tz.zeta_dirichlet(1, 100)
        with pytest.raises(DomainError):
            tz.zeta_dirichlet(0.3 + 4j, 100)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            tz.zeta_dirichlet(2, 0)

    @pytest.mark.parametrize("s", [2.0, 3.5, 2.5 + 1.3j])
    def test_odd_term_variant(self, s):
        # (1 - 2^-s)^-1 sum (2n-1)^-s is an alternative route to the
        # same series; agreement within combined tails plus a small
        # rounding allowance for this test path's own arithmetic
        N = 10**5
        pref = 1.0 / (1.0 - 2.0 ** (-complex(s)))
        terms = [(2 * n - 1) ** (-complex(s)) for n in range(1, N + 1)]
        odd = pref * complex(
            math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
        )
        ref = tz.zeta_dirichlet(s, 10**6)
        sigma = complex(s).real
        odd_tail = abs(pref) * (2 * N) ** (1 - sigma) / (sigma - 1)
        rounding = 8 * sys.float_info.epsilon * abs(pref) * sum(abs(t) for t in terms)
        assert abs(odd - ref.value) <= odd_tail + ref.error_bound + rounding


class TestEta:
    def test_matches_dirichlet_at_two(self):
        assert combined_gap_ok(tz.zeta_eta(2, 10**6), tz.zeta_dirichlet(2, 10**6))

    def test_left_of_the_line(self):
        # the one oracle route with Re(s) <= 1 reach besides the
        # floor-function formula
        eta = tz.zeta_eta(0.5, 10**5)
        em = tz.zeta_euler_maclaurin(0.5, 100, 10**6)
        assert abs(eta.value - em.value) <= eta.error_bound + em.error_bound
        # spec-stated approximate value for zeta(1/2)
        assert eta.value.real == pytest.approx(-1.4603545, abs=1e-2)

    @pytest.mark.parametrize("s,N", [(0.1 + 100j, 20), (0.5 + 18j, 5), (0.01 - 5j, 2), (3 + 40j, 10)])
    def test_complex_bound_holds_at_small_n(self, s, N):
        # the terms neither alternate nor shrink here: the alternating
        # bound alone was 0.812 against an error of 6.72 at (0.1+100i, 20)
        ref = tz.zeta_eta(s, N)
        with mpmath.workdps(30):
            error = float(abs(mpmath.zeta(mpmath.mpc(s)) - mpmath.mpc(ref.value)))
        assert error <= ref.error_bound

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            tz.zeta_eta(1, 100)

    def test_prefactor_pole_set_rejected(self):
        s = complex(1.0, 2 * PI / math.log(2.0))  # 2^(1-s) = 1
        with pytest.raises(DomainError):
            tz.zeta_eta(s, 100)

    def test_nonpositive_real_part_rejected(self):
        with pytest.raises(DomainError):
            tz.zeta_eta(-0.5, 100)


class TestEulerMaclaurin:
    def test_zeta_two_within_stated_bound(self):
        ref = tz.zeta_euler_maclaurin(2, 10, 10**4)
        assert abs(ref.value - tz.zeta_even(1).value) <= 1e-8
        assert abs(ref.value - tz.zeta_even(1).value) <= ref.error_bound

    def test_zeta_three(self):
        assert combined_gap_ok(
            tz.zeta_euler_maclaurin(3, 1, 10**4), tz.zeta_dirichlet(3, 10**6)
        )

    def test_half_line(self):
        assert combined_gap_ok(
            tz.zeta_euler_maclaurin(0.5, 100, 10**6), tz.zeta_eta(0.5, 10**5)
        )

    @pytest.mark.parametrize("s", [2.0, 0.5, 3.7, 2.5 + 1.3j])
    @pytest.mark.parametrize("k", [1, 7, 100])
    def test_interval_closed_form_against_quadrature(self, s, k):
        # one unit interval of the fractional-part integral vs adaptive
        # quadrature
        closed, _ = _em_integral(complex(s), k, k + 1)
        re_part, _ = quad(lambda x: ((x - k) * x ** (-complex(s) - 1)).real, k, k + 1, epsabs=1e-14)
        im_part, _ = quad(lambda x: ((x - k) * x ** (-complex(s) - 1)).imag, k, k + 1, epsabs=1e-14)
        assert abs(closed - complex(re_part, im_part)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tz.zeta_euler_maclaurin(1, 10, 100)
        with pytest.raises(DomainError):
            tz.zeta_euler_maclaurin(2, 10, 5)  # X < n
        with pytest.raises(DomainError):
            tz.zeta_euler_maclaurin(-1.0, 10, 100)

    @pytest.mark.parametrize("s", [1.05, 1.5, 3.7, 2.5 + 1.3j, 0.9, 0.5 + 18j])
    def test_value_does_not_depend_on_n(self, s):
        # in exact arithmetic the route is sum_{k<=X} k^-s + X^(1-s)/(s-1)
        # whatever n is, so n = X (no integral at all) must agree
        X = 10**5
        whole = tz.zeta_euler_maclaurin(s, X, X).value
        for n in (1, 64, 500):
            value = tz.zeta_euler_maclaurin(s, n, X).value
            assert abs(value - whole) <= 1e-12 * abs(whole)


class TestEulerProduct:
    def test_zeta_two(self):
        ref = tz.zeta_euler_product(2, 100_000)
        assert abs(ref.value - tz.zeta_even(1).value) <= ref.error_bound
        assert ref.error_bound == pytest.approx(1e-5, rel=1e-3)

    def test_zeta_three(self):
        ref = tz.zeta_euler_product(3, 100_000)
        assert abs(ref.value - tz.zeta_dirichlet(3, 10**6).value) <= (
            ref.error_bound + 1e-12
        )
        # truncation part of the bound is ~5e-11; rounding floor may add a hair
        assert ref.error_bound < 1e-10

    def test_single_prime(self):
        ref = tz.zeta_euler_product(2, 2)
        assert ref.value.real == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tz.zeta_euler_product(1, 100_000)
        with pytest.raises(DomainError):
            tz.zeta_euler_product(2, 1)  # no prime <= 1


class TestSieve:
    def test_count_below_ten_thousand(self):
        assert len(tz.sieve_primes(10**4)) == 1229

    def test_trial_division(self):
        primes = tz.sieve_primes(10**4)
        listed = set(primes)
        for p in primes:
            assert all(p % d for d in range(2, math.isqrt(p) + 1))
        # completeness: nothing missing
        for k in range(2, 10**4 + 1):
            is_prime = all(k % d for d in range(2, math.isqrt(k) + 1))
            assert (k in listed) == is_prime

class TestBernoulli:
    def test_first_values(self):
        table = tz.bernoulli_numbers(6)
        assert table[0] == Fraction(1)
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[3] == 0
        assert table[4] == Fraction(-1, 30)
        assert table[6] == Fraction(1, 42)
        assert table[12] == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        table = tz.bernoulli_numbers(10)
        assert all(table[k] == 0 for k in range(3, 21, 2))

    def test_defining_recurrence(self):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for every m >= 1, over the whole table
        table = tz.bernoulli_numbers(60)
        for m in range(1, 121):
            total = sum(math.comb(m + 1, j) * table[j] for j in range(m + 1))
            assert total == 0, m

    def test_table_equals_the_defining_recurrence_tuple(self):
        # the tuple that recurrence builds, term by term in Fractions
        b = [Fraction(1)]
        for m in range(1, 121):
            b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
        assert tz.bernoulli_numbers(60) == tuple(b)

    def test_against_mpmath(self):
        table = tz.bernoulli_numbers(60)
        with mpmath.workdps(60):
            for k in range(1, 61):
                exact = mpmath.mpf(table[2 * k].numerator) / table[2 * k].denominator
                assert abs(exact / mpmath.bernoulli(2 * k) - 1) < mpmath.mpf(10) ** -55, k

    def test_float_round_trip(self):
        b12 = tz.bernoulli_numbers(6)[12]
        assert Fraction(float(b12)).limit_denominator(10**6) == b12

    def test_range_limits(self):
        with pytest.raises(UnsupportedRangeError):
            tz.bernoulli_numbers(61)
        with pytest.raises(DomainError):
            tz.bernoulli_numbers(0)


class TestZetaEven:
    def test_known_closed_forms(self):
        assert tz.zeta_even(1).value.real == pytest.approx(PI**2 / 6, rel=1e-15)
        assert tz.zeta_even(2).value.real == pytest.approx(PI**4 / 90, rel=1e-15)
        assert tz.zeta_even(3).value.real == pytest.approx(PI**6 / 945, rel=1e-15)

    def test_two_ulp_bound(self):
        ref = tz.zeta_even(1)
        assert ref.error_bound == 2.0 * math.ulp(abs(ref.value))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_dirichlet(self, n):
        dirichlet = tz.zeta_dirichlet(2 * n, 10**6)
        assert abs(tz.zeta_even(n).value - dirichlet.value) <= dirichlet.error_bound

    def test_zero_rejected(self):
        with pytest.raises(UnsupportedRangeError):
            tz.zeta_even(0)

    def test_bits_of_the_fifty_digit_formula(self):
        # the route's earlier evaluation: (2 pi)^(2n) at 50 mpmath digits
        def fifty_digits(n: int) -> float:
            b = tz.bernoulli_numbers(max(n, 5))[2 * n]
            rational = Fraction((-1) ** (n + 1), 2 * math.factorial(2 * n)) * b
            with mpmath.workdps(50):
                v = (2 * mpmath.pi) ** (2 * n)
                return float(v * mpmath.mpf(rational.numerator) / mpmath.mpf(rational.denominator))

        differ = [n for n in range(1, 61) if tz.zeta_even(n).value.real.hex() != fifty_digits(n).hex()]
        assert differ == []

    def test_pi_literal_has_64_digits_of_pi(self):
        with mpmath.workdps(80):
            assert _PI == Fraction(mpmath.nstr(+mpmath.pi, 64))


def mp_zeta(s: complex, dps: int = 50) -> mpmath.mpc:
    with mpmath.workdps(dps):
        return mpmath.zeta(mpmath.mpc(s))


def gap_to(value: complex, exact: mpmath.mpc) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpc(value) - exact))


# truncation-dominated grid: sigma from 0.01 to 2.5, |t| up to 40
ROUTE_S = [0.01, 0.5, 0.99, 1.5, 2.5, 0.3 + 7j, 0.01 - 5j, 0.5 + 18j, 0.9 + 40j, 2.5 + 1.3j]


class TestEulerMaclaurinBernoulli:
    @pytest.mark.parametrize("s", ROUTE_S)
    @pytest.mark.parametrize("N,K", [(2, 1), (3, 2), (5, 4), (10, 8)])
    def test_backlund_bound_holds_when_truncation_dominates(self, s, N, K):
        ref = tz.zeta_em_bernoulli(s, N, K)
        assert ref.method == "em_bernoulli"
        assert gap_to(ref.value, mp_zeta(s)) <= ref.error_bound

    def test_real_s_and_exact_conjugates(self):
        assert tz.zeta_em_bernoulli(0.5, 20, 20).value.imag == 0.0
        s = 0.3 + 7j
        a = tz.zeta_em_bernoulli(s, 27, 20).value
        assert tz.zeta_em_bernoulli(s.conjugate(), 27, 20).value == a.conjugate()

    def test_domain_errors(self):
        for s, N, K in [(1, 20, 20), (0.0, 20, 20), (-1 + 2j, 20, 20), (0.5, 0, 20), (0.5, 20, 0)]:
            with pytest.raises(DomainError):
                tz.zeta_em_bernoulli(s, N, K)
        tz.zeta_em_bernoulli(0.5, 20, 59)
        with pytest.raises(UnsupportedRangeError):
            tz.zeta_em_bernoulli(0.5, 20, 60)

    @pytest.mark.parametrize("s,N,K", [(3 + 1e9j, 2, 20), (0.5 + 1e5j, 3, 58)])
    def test_overflowing_corrections_refused(self, s, N, K):
        # s(s+1).../N^(2k-1) overflows when N is far below |t|
        with pytest.raises(UnsupportedRangeError, match=f"N={N}, K={K}"):
            tz.zeta_em_bernoulli(s, N, K)


class TestBorwein:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_weights_from_the_chebyshev_closed_form(self, n):
        # d_n = T_n(3) by T_{j+1} = 6 T_j - T_{j-1}; d_k by Fractions
        weights, d_n = _borwein_weights(n)
        cheb = [1, 3]
        for _ in range(n):
            cheb.append(6 * cheb[-1] - cheb[-2])
        assert d_n == cheb[n]
        d_k = Fraction(0)
        for k in range(n):
            d_k += Fraction(
                n * math.factorial(n + k - 1) * 4**k,
                math.factorial(n - k) * math.factorial(2 * k),
            )
            assert weights[k] == float((-1) ** k * (d_n - d_k) / d_n)

    @pytest.mark.parametrize("s", ROUTE_S)
    @pytest.mark.parametrize("n", [5, 10, 20, 30])
    def test_truncation_bound_holds(self, s, n):
        ref = tz.zeta_borwein(s, n)
        assert ref.method == "borwein"
        assert gap_to(ref.value, mp_zeta(s)) <= ref.error_bound

    @pytest.mark.parametrize("s", [0.99, 1.01, 1 + 1e-7, 1 + 1e-6j, 0.5 + 18j])
    def test_prefactor_keeps_relative_accuracy_near_one(self, s):
        with mpmath.workdps(50):
            exact = 1 - mpmath.mpf(2) ** (1 - mpmath.mpc(s))
            rel = float(abs(mpmath.mpc(_eta_denominator(complex(s))) - exact) / abs(exact))
        assert rel <= 4 * sys.float_info.epsilon

    @pytest.mark.parametrize(
        "sigma", [0.001, 0.1, 0.5, 0.9, 1.5, 3.0, 10.0, 19.5, 20.0, 55.0, 200.0, 1e5, 1e12, 1e100]
    )
    @pytest.mark.parametrize("t", [0.0, 0.3, -1.0, 18.0, 100.0, -1000.0, 4500.0])
    def test_log_scale_agrees_with_mpmath_from_above(self, sigma, t):
        # Stirling's ln|Gamma(s)| is within 1e-12 (1 + |s|) of mpmath's
        # loggamma, and widening by that much keeps the scale above it,
        # at every Re(s) where Borwein's series can be reference_zeta's
        # partner (|Im s| below about 4500)
        s = complex(sigma, t)
        with mpmath.workdps(40):
            z = mpmath.mpc(sigma, t)
            eta = abs(1 - mpmath.mpf(2) ** (1 - z))
            exact = float(mpmath.loggamma(sigma) - mpmath.loggamma(z).real - mpmath.log(eta))
        assert 0.0 < _borwein_log_scale(s) - exact <= 2e-12 * (1.0 + abs(s))

    @pytest.mark.parametrize(
        "s,n", [(0.5 + 1000j, 50), (0.5 + 3000j, 50), (2 + 5000j, 400), (0.3 - 9000j, 50), (30 + 2000j, 10)]
    )
    def test_overflowing_bound_refused(self, s, n):
        # Gamma(sigma)/|Gamma(s)| grows like e^(pi |t|/2), far faster than d_n
        with pytest.raises(UnsupportedRangeError, match=f"n={n}"):
            tz.zeta_borwein(s, n)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tz.zeta_borwein(complex(1.0, 2 * PI / math.log(2.0)), 30)  # 2^(1-s) = 1
        with pytest.raises(DomainError):
            tz.zeta_borwein(0.0, 30)
        with pytest.raises(DomainError):
            tz.zeta_borwein(0.5, 0)


@pytest.mark.parametrize("sigma", [0.001, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("t", [0.0, 3.0, 18.0, 40.0])
def test_strip_pair_within_bounds(sigma, t):
    """The reference pair for 0 < Re(s) <= 1 against 50-digit zeta."""
    s = complex(sigma, t)
    exact = mp_zeta(s)
    em, bw = _reference_routes(s)
    for ref in (em, bw):
        assert gap_to(ref.value, exact) <= ref.error_bound, ref.method
    ref = tz.reference_zeta(s)
    assert ref == em
    assert gap_to(ref.value, exact) <= 1e-13 * float(abs(exact))
    assert 10.0 * (em.error_bound + bw.error_bound) < float(abs(exact)) / 100


class TestReferenceZeta:
    def test_at_two(self):
        ref = tz.reference_zeta(2)
        assert ref.error_bound <= 1e-10
        assert abs(ref.value - ZETA2) <= ref.error_bound

    def test_conjugate_symmetry(self):
        s = 2.5 + 1.3j
        a = tz.reference_zeta(s).value
        b = tz.reference_zeta(s.conjugate()).value
        scale = abs(a)
        assert abs(b - a.conjugate()) <= 4 * math.ulp(scale)

    def test_pole_and_domain(self):
        with pytest.raises(DomainError):
            tz.reference_zeta(1)
        with pytest.raises(DomainError):
            tz.reference_zeta(-2.0)

    def test_left_of_line_uses_em_bernoulli(self):
        ref = tz.reference_zeta(0.5)
        assert ref.method == "em_bernoulli"
        exact = float(mpmath.zeta(0.5))
        assert abs(ref.value - exact) < 1e-13 * abs(exact)

    def test_near_zero_real_part(self):
        exact = float(mpmath.zeta(0.001))
        assert exact == pytest.approx(-0.50092, abs=1e-5)
        assert abs(tz.reference_zeta(0.001).value - exact) < 1e-13

    @pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.5 + 1.3j])
    def test_cross_check_can_fail(self, s):
        # the allowance 10 x (sum of both bounds) is far below the value
        best, other = _reference_routes(complex(s))
        allowance = 10.0 * (best.error_bound + other.error_bound)
        assert allowance < abs(best.value) / 100
        assert abs(best.value - other.value) <= allowance

    @pytest.mark.parametrize(
        "s", [2 + 1e300j, complex(2, math.inf), complex(2, math.nan), 0.5 + 5000j]
    )
    def test_out_of_range_refused(self, s):
        with pytest.raises(UnsupportedRangeError):
            tz.reference_zeta(s)

    @pytest.mark.parametrize("s", [2.5 + 1.3j, 3.7, 3 + 2j])
    def test_reports_the_better_route(self, s):
        exact = complex(mpmath.zeta(s))
        assert abs(tz.reference_zeta(s).value - exact) < 1e-14 * abs(exact)

    def test_vacuous_cross_check_refused(self):
        # at the first zero both bounds dwarf |zeta|
        with pytest.raises(UnsupportedRangeError, match="allowance"):
            tz.reference_zeta(0.5 + 14.134725141734693j)

    def test_cutoff_without_overflow(self):
        assert _choose_em_cutoff(2 + 1e300j) == _X_CAP
        assert _choose_em_cutoff(10) == 64


# either side of the cap on the floor-function cutoff: every real s <= 1.455
# and these complex s reach it, 1.46 and 1.5 do not.  Borwein's series, the
# partner below |Im s| of about 4500, is reported where its bound is smaller.
SWITCH_GRID = {
    1 + 1e-4: "em_bernoulli", 1.01: "em_bernoulli", 1.05: "em_bernoulli",
    1.3: "em_bernoulli", 1.455: "em_bernoulli", 1.46: "borwein", 1.5: "borwein",
    1.05 + 1j: "em_bernoulli", 1.2 + 14j: "borwein", 1.01 + 100j: "em_bernoulli",
    1.3 + 1000j: "borwein", 1.5 + 1e4j: "em_bernoulli",
}


@pytest.mark.parametrize("s", list(SWITCH_GRID))
def test_capped_cutoff_reports_em_bernoulli(s):
    method = SWITCH_GRID[s]
    s = complex(s)
    capped = _choose_em_cutoff(s) == _X_CAP and 20 + math.ceil(abs(s.imag)) <= _X_CAP
    assert capped == (s not in (1.46, 1.5))
    best, other = _reference_routes(s)
    partner = "borwein" if abs(s.imag) < 4500 else "euler_maclaurin"
    assert {best.method, other.method} == {"em_bernoulli" if capped else "euler_maclaurin", partner}
    assert best.method == method and best.error_bound <= other.error_bound
    ref = tz.reference_zeta(s)
    assert ref == best
    assert gap_to(ref.value, mp_zeta(s, 35)) <= ref.error_bound


def _dirichlet_sizes(monkeypatch) -> list[int]:
    """The N of every Dirichlet prefix the oracle sums from now on, with
    reference_zeta's cache cleared."""
    sizes, right = [], oracle._dirichlet_sum

    def counted(s, N):
        sizes.append(N)
        return right(s, N)

    monkeypatch.setattr(oracle, "_dirichlet_sum", counted)
    tz.reference_zeta.cache_clear()
    return sizes


@pytest.mark.parametrize("s", [1.5, 2.7, 3.7, 3 + 2j, 2.5 + 1.3j])
def test_borwein_partner_sums_no_million_terms(monkeypatch, s):
    sizes = _dirichlet_sizes(monkeypatch)
    assert tz.reference_zeta(s).method == "borwein"
    assert sizes and max(sizes) < 10**6


@pytest.mark.parametrize("s", [2.5 + 1e4j, 1.5 + 4600j])
def test_million_term_partner_beyond_borweins_reach(monkeypatch, s):
    with pytest.raises(UnsupportedRangeError, match="4096"):
        _borwein_order(s)
    sizes = _dirichlet_sizes(monkeypatch)
    ref = tz.reference_zeta(s)
    assert sizes.count(10**6) == 1
    assert gap_to(ref.value, mp_zeta(s, 35)) <= ref.error_bound


def test_perturbed_borwein_fails_the_cross_check(monkeypatch):
    right = oracle.zeta_borwein

    def off(s, n):
        ref = right(s, n)
        return dataclasses.replace(ref, value=ref.value + 1e-8)

    monkeypatch.setattr(oracle, "zeta_borwein", off)
    tz.reference_zeta.cache_clear()
    with pytest.raises(CrossCheckError, match=r"borwein = .* and euler_maclaurin = "):
        tz.reference_zeta(3)


OR_S_VALUES = [1.5, 2.0, 3.0, 4.0, 2.5 + 1.3j, 10.0, 0.5, 0.5 + 18j]


@pytest.mark.parametrize("s", OR_S_VALUES)
def test_oracle_agreement(s):
    """Every route of cross_routes pairwise within summed bounds."""
    refs = tz.cross_routes(s)
    methods = ["eta", "euler_maclaurin", "em_bernoulli", "borwein"]
    if s.real > 1.0:
        methods = ["dirichlet", *methods[:2], "euler_product", *methods[2:]]
    assert [r.method for r in refs] == methods
    for i, a in enumerate(refs):
        for b in refs[i + 1 :]:
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound, (
                f"{a.method} vs {b.method} at s={s}"
            )


# sigma over (0, 60], near 1 from both sides, |t| up to 10^4, and the band
# where the rounding floor rather than truncation decides the bound
_S = st.one_of(
    st.builds(
        complex,
        st.one_of(st.floats(0.0, 60.0, exclude_min=True), st.floats(0.999, 1.001).filter(lambda x: x != 1.0)),
        st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    ),
    st.builds(complex, st.floats(2.0, 15.0), st.one_of(st.floats(500.0, 1e4), st.floats(-1e4, -500.0))),
)
_SIZES = st.fixed_dictionaries({
    "dirichlet": st.integers(1, 300),
    "eta": st.integers(1, 300),
    "euler_maclaurin": st.tuples(st.integers(1, 64), st.integers(0, 300)),
    "euler_product": st.integers(2, 3000),
    "em_bernoulli": st.tuples(st.integers(1, 300), st.integers(1, 20)),
    "borwein": st.one_of(st.integers(1, 64), st.integers(65, 4096)),
})
_ROUTES = {
    "dirichlet": tz.zeta_dirichlet,
    "eta": tz.zeta_eta,
    "euler_maclaurin": lambda s, size: tz.zeta_euler_maclaurin(s, size[0], size[0] + size[1]),
    "euler_product": tz.zeta_euler_product,
    "em_bernoulli": lambda s, size: tz.zeta_em_bernoulli(s, *size),
    "borwein": tz.zeta_borwein,
}
# the sizes of the two examples at which a flat 4 eps floor was false
_AT_6_10000I = {
    "dirichlet": 1000, "eta": 1000, "euler_maclaurin": (64, 1000), "euler_product": 10**5,
    "em_bernoulli": (1000, 20), "borwein": 64,
}


@given(s=_S, sizes=_SIZES)
@example(s=6 + 1e4j, sizes=_AT_6_10000I)
@example(s=12 + 500j, sizes={**_AT_6_10000I, "euler_product": 3000})
@settings(derandomize=True, max_examples=30, deadline=None)
def test_every_route_bound_is_true(s, sizes):
    # each route at small sizes, where truncation or rounding may decide;
    # a route may refuse (Borwein's bound overflows at large |t| and small
    # n; eta and Borwein at the prefactor's pole set), never misreport
    exact = mp_zeta(s, 35)
    for name, size in sizes.items():
        if name in ("dirichlet", "euler_product") and not s.real > 1.0:
            continue
        try:
            ref = _ROUTES[name](s, size)
        except (DomainError, UnsupportedRangeError):
            continue
        assert ref.method == name
        assert gap_to(ref.value, exact) <= ref.error_bound, (name, s, size)


@given(
    s=st.builds(
        complex,
        st.one_of(st.floats(1.0, 1.45, exclude_min=True), st.floats(1.2, 60.0)),
        st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    )
)
@example(s=3 + 1000j)
@example(s=1 + 2**-52)  # the eta prefactor is singular: the 10^6 route checks
@example(s=1e306)  # lgamma(Re s) overflows: the 10^6 route checks
@example(s=12 + 1e5j)
@example(s=6 + 1e5j)
@settings(derandomize=True, max_examples=10, deadline=None)
def test_reference_bound_is_true(s):
    ref = tz.reference_zeta(s)
    assert gap_to(ref.value, mp_zeta(s, 35)) <= ref.error_bound
