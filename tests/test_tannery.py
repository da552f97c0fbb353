"""Tests for the limit-interchange harness and its registered instances."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import trigzeta as tz
from trigzeta.accumulate import index_blocks
from trigzeta.errors import DomainError, UnsupportedRangeError
from trigzeta.trig_sums import _block_bases

from helpers import ulps_between

PI = math.pi

SHAPES = (
    (tz.TrigKind.COT, 0, 1),
    (tz.TrigKind.COT, 1, 1),
    (tz.TrigKind.COT, 0, 0),
    (tz.TrigKind.CSC, 0, 1),
    (tz.TrigKind.CSC, 0, 0),
)


def scalar_term_bound(kind, p, m, n, s):
    """The dominating bound one index at a time, as math-module floats:
    the reference for the array bound's bits.  Past p**s overflow the
    csc factor pi/2 is taken inside the power."""
    c = tz.c_bound(m, n)
    f = PI / 2.0 if kind is tz.TrigKind.CSC else 1.0
    try:
        try:
            bound = c**s / p**s * f**s
        except OverflowError:
            r = f * c / p
            exact = Fraction(f) * Fraction(c) / (p * Fraction(r))
            bound = r**s * math.exp(s * math.log1p(float(exact - 1)))
    except OverflowError:
        bound = math.inf
    return bound


def binomial_term(k, n, x):
    """C(n,k) (x/n)^k by the scalar product of per-factor ratios: the
    reference for exp_instance's bits."""
    if k == 0:
        return 1.0
    t = 1.0
    for j in range(1, k + 1):
        t *= (n - j + 1) / n * x / j
        if t == 0.0:
            return 0.0
    return t


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestCBound:
    @pytest.mark.parametrize("m,n,expected", [(0, 0, 1.0), (0, 1, 2.0), (3, 1, 1.0)])
    def test_cases(self, m, n, expected):
        assert tz.c_bound(m, n) == expected

    @given(m=st.integers(0, 50), n=st.integers(0, 50))
    def test_bounds_the_ratio_for_all_q(self, m, n):
        c = tz.c_bound(m, n)
        assert c == (1.0 if n <= m else (1 + n) / (1 + m))
        for q in (1, 2, 5, 100, 10**6):
            assert (2 * q + n) / (2 * q + m) <= c + 1e-15

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tz.c_bound(-1, 0)


class TestTermBound:
    def test_cot_cases(self):
        assert tz.term_bound(tz.TrigKind.COT, 2, 0, 0, 2) == 0.25
        assert tz.term_bound(tz.TrigKind.COT, 1, 0, 1, 2) == 4.0

    def test_csc_case(self):
        assert tz.term_bound(tz.TrigKind.CSC, 1, 0, 0, 1) == pytest.approx(
            PI / 2, rel=1e-15
        )

    @pytest.mark.parametrize("kind", [tz.TrigKind.COT, tz.TrigKind.CSC])
    @pytest.mark.parametrize("p,s", [(1, 1024.0), (1, 1e300), (1, 1100.0)])
    def test_overflow_refused(self, kind, p, s):
        with pytest.raises(UnsupportedRangeError, match="overflows"):
            tz.term_bound(kind, p, 0, 1, s)

    @pytest.mark.parametrize("kind", [tz.TrigKind.COT, tz.TrigKind.CSC])
    def test_no_false_overflow_past_p_to_the_s(self, kind):
        # 11**300 overflows binary64; (2/11)^300, and (pi/2 * 2/11)^300
        # for csc, do not
        half_pi = mp.mpf(PI) / 2 if kind is tz.TrigKind.CSC else 1
        with mp.workdps(60):
            exact = float((half_pi * 2 / mp.mpf(11)) ** 300)
        assert exact > 0.0
        assert ulps_between(tz.term_bound(kind, 11, 0, 1, 300.0), exact) <= 4
        assert tz.term_bound(kind, 6, 0, 1, 400.0) > 0.0
        # where p**s is finite the bits are those of C^s / p^s
        factor = (PI / 2.0) ** 300.0 if kind is tz.TrigKind.CSC else 1.0
        assert tz.term_bound(kind, 5, 0, 1, 300.0) == 2.0**300.0 / 5.0**300.0 * factor

    @pytest.mark.parametrize("p,s", [(42, 200.0), (875, 110.0)])
    def test_csc_factor_applied_before_underflow(self, p, s):
        # p**s overflows and (1/p)^s underflows; (pi/2 / p)^s is a normal float
        with mp.workdps(60):
            exact = float((mp.mpf(PI) / 2 / p) ** s)
        assert ulps_between(tz.term_bound(tz.TrigKind.CSC, p, 0, 0, s), exact) <= 4

    @pytest.mark.parametrize("kind", [tz.TrigKind.COT, tz.TrigKind.CSC])
    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 1), (0, 3)])
    @pytest.mark.parametrize("s", [1.003, 1.5, 2.0, 2.7, 37.0, 300.0, 400.0, 620.0])
    def test_array_bits_equal_scalar_bits(self, kind, m, n, s):
        # p = 6 and 11 at s = 300 and 400 take the fallback past p^s overflow
        p = np.concatenate([np.arange(2.0, 40.0), [100.0, 999.0, 1000.0, 12345.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = tz.term_bound(kind, p, m, n, s)
        expected = [scalar_term_bound(kind, int(k), m, n, s) for k in p]
        assert np.array_equal(bits(bounds), bits(expected))
        for k in (6, 11):
            assert tz.term_bound(kind, k, m, n, s) == scalar_term_bound(kind, k, m, n, s)

    @pytest.mark.parametrize("kind", [tz.TrigKind.COT, tz.TrigKind.CSC])
    def test_array_overflow_refused_without_warnings(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedRangeError, match="p=1,"):
                tz.term_bound(kind, np.array([1.0, 2.0, 3.0]), 0, 1, 1024.0)
            with pytest.raises(UnsupportedRangeError):
                tz.term_bound(kind, 1, 0, 1, 1024.0)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(DomainError):
            tz.term_bound(tz.TrigKind.COT, 1, 0, 0, 0.0)
        with pytest.raises(DomainError):
            tz.term_bound(tz.TrigKind.CSC, 1, 0, 0, -1.0)

    @pytest.mark.parametrize("s", [2 + 1j, complex(2.0), np.complex128(3 - 2j)])
    def test_complex_s_rejected(self, s):
        with pytest.raises(DomainError, match="real s"):
            tz.term_bound(tz.TrigKind.COT, np.array([1.0, 2.0]), 0, 1, s)
        with pytest.raises(DomainError, match="real s"):
            tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, s)

    @given(
        q=st.integers(1, 500),
        m=st.integers(0, 4),
        n=st.integers(0, 4),
        s=st.sampled_from([1.5, 2.0, 3.0]),
        kind=st.sampled_from([tz.TrigKind.COT, tz.TrigKind.CSC]),
        p_frac=st.floats(0.0, 1.0),
    )
    def test_dominates_the_summand(self, q, m, n, s, kind, p_frac):
        if n == 0 and q < 2:
            return
        upper = tz.upper_index(q, n)
        p = 1 + round(p_frac * (upper - 1))
        value = tz.term(tz.TrigSumSpec(kind, m, n), p, q, s).real
        assert value <= tz.term_bound(kind, p, m, n, s)


class TestConditionI:
    def test_zeta_cot_instance_passes(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        report = tz.verify_condition_i(inst, 5, [10, 100, 1000, 10**5], 1e-3)
        assert report.passed
        assert report.worst_deviation < 1e-3
        # the claimed limit really is p^-s
        assert inst.f_limit(np.array([3.0]))[0] == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_exp_instance_passes(self):
        inst = tz.exp_instance(1.0)
        report = tz.verify_condition_i(inst, 5, [10, 1000, 10**6], 1e-4)
        assert report.passed
        assert inst.f_limit(np.array([4.0]))[0] == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_wrong_limit_is_caught(self):
        good = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        bad = dataclasses.replace(
            good, f_limit=lambda p: np.where(p > 0, 1.0 / np.maximum(p, 1.0), 0.0)
        )
        report = tz.verify_condition_i(bad, 5, [10, 100, 1000, 10**5], 1e-3)
        assert not report.passed

    def test_nan_limit_fails_and_is_the_worst(self):
        good = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        bad = dataclasses.replace(good, f_limit=lambda p: np.full(p.shape, math.nan))
        report = tz.verify_condition_i(bad, 5, [10, 100, 1000], 1e-3)
        assert not report.passed
        assert math.isnan(report.worst_deviation) and report.worst_p == 5
        # one nan index among finite deviations is still the one named
        one = dataclasses.replace(good, f_limit=lambda p: np.where(p == 2, math.nan, good.f_limit(p)))
        report = tz.verify_condition_i(one, 5, [10, 100, 1000], 1e-3)
        assert not report.passed
        assert math.isnan(report.worst_deviation) and report.worst_p == 2

    def test_p_max_must_fit_alpha(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        with pytest.raises(DomainError):
            tz.verify_condition_i(inst, 50, [10, 100], 1e-3)

    @pytest.mark.parametrize("p_max", [-1, 0])
    def test_p_max_below_one_rejected(self, p_max):
        # p_max = 0 would check only a zeta instance's placeholder index 0
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        with pytest.raises(DomainError, match="p_max"):
            tz.verify_condition_i(inst, p_max, [10, 100], 1e-3)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-3])
    def test_nonpositive_or_nan_tol_rejected(self, tol):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        with pytest.raises(DomainError, match="tol"):
            tz.verify_condition_i(inst, 5, [10, 100], tol)


class TestConditionII:
    def test_zeta_cot_passes_above_one(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        report = tz.verify_condition_ii(inst, 10**4, 10**4)
        assert report.passed
        assert report.worst_ratio <= 1.0

    def test_zeta_csc_passes(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.CSC, 0, 0, 3.0)
        report = tz.verify_condition_ii(inst, 10**3, 10**3)
        assert report.passed

    def test_harmonic_bound_fails_at_one(self):
        # s = 1: dominance still holds but the bound series is harmonic
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 1.0)
        report = tz.verify_condition_ii(inst, 10**3, 10**3)
        assert not report.passed
        assert report.dominance_ok
        assert not report.series_converges

    @pytest.mark.parametrize(
        "kind,m,n",
        [(tz.TrigKind.COT, 0, 1), (tz.TrigKind.COT, 1, 1), (tz.TrigKind.COT, 0, 0),
         (tz.TrigKind.CSC, 0, 1), (tz.TrigKind.CSC, 0, 0)],
    )
    def test_resolution_at_desk_scale(self, kind, m, n):
        # at p_max = 1000 the octave test resolves s = 1.003 from s = 1
        def report(s):
            return tz.verify_condition_ii(tz.zeta_trig_instance(kind, m, n, s), 1000, 1000)

        assert report(1.003).passed
        assert not report(1.0).passed

    @pytest.mark.parametrize("s", [110.0, 200.0, 300.0, 400.0, 500.0, 580.0])
    @pytest.mark.parametrize("kind,m,n", SHAPES)
    def test_passes_where_p_to_the_s_overflows(self, kind, m, n, s):
        inst = tz.zeta_trig_instance(kind, m, n, s)
        assert tz.verify_condition_ii(inst, 1000, 1000).passed

    def test_nonzero_term_over_zero_bound_has_ratio_inf(self):
        # the first (p, q) in grid order is reported: p = 7 first enters
        # at q = 8 (alpha(q) = q for n = 1)
        good = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        bad = dataclasses.replace(good, bound=lambda p: np.where(p % 7 == 0, 0.0, good.bound(p)))
        report = tz.verify_condition_ii(bad, 100, 1000)
        assert not report.dominance_ok and not report.passed
        assert (report.worst_ratio, report.worst_p, report.worst_q) == (math.inf, 7, 8)

    def test_nan_term_fails_and_is_the_worst(self):
        good = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        bad = dataclasses.replace(good, f=lambda p, q: np.full(p.shape, math.nan))
        report = tz.verify_condition_ii(bad, 100, 1000)
        assert not report.dominance_ok and not report.passed
        # a nan term over p = 0's zero bound is a nan ratio, at the first q
        assert math.isnan(report.worst_ratio)
        assert (report.worst_p, report.worst_q) == (0, 1)
        # a nan at p = 7 outranks the finite ratios and is named where it first enters
        one = dataclasses.replace(good, f=lambda p, q: np.where(p == 7, math.nan, good.f(p, q)))
        report = tz.verify_condition_ii(one, 100, 1000)
        assert not report.dominance_ok and not report.passed
        assert math.isnan(report.worst_ratio)
        assert (report.worst_p, report.worst_q) == (7, 8)

    def test_exp_instance_converges(self):
        report = tz.verify_condition_ii(tz.exp_instance(1.0), 50, 10**4)
        assert report.passed
        assert report.tail_estimate < 1e-40  # factorial decay

    def test_small_p_max_rejected(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        with pytest.raises(DomainError):
            tz.verify_condition_ii(inst, 4, 100)


class TestExchange:
    def test_zeta_cot_gap_small(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        result = tz.tannery_exchange(inst, [100, 1000, 10**4], 10**5)
        assert result.gap < 1e-3
        # both sides near zeta(2)
        assert abs(result.lhs - tz.zeta_even(1).value) < 1e-3

    def test_exp_gap_small(self):
        result = tz.tannery_exchange(tz.exp_instance(1.0), [10, 100, 10**6], 40)
        assert result.gap < 1e-5
        assert abs(result.rhs - math.e) < 1e-12

    def test_exp_at_zero_exact(self):
        result = tz.tannery_exchange(tz.exp_instance(0.0), [10, 10**6], 40)
        assert result.lhs == result.rhs == 1.0
        assert result.gap == 0.0

    @pytest.mark.parametrize(
        "make,series_terms",
        [
            # series_terms chosen so the rhs truncation sits far below
            # the smallest lhs deficit on the schedule
            (lambda: tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0), 10**5),
            (lambda: tz.zeta_trig_instance(tz.TrigKind.CSC, 0, 0, 3.0), 10**4),
            (lambda: tz.exp_instance(1.0), 60),
        ],
    )
    def test_gap_decreases_along_schedule(self, make, series_terms):
        inst = make()
        schedule = [100, 400, 1600, 6400]
        gaps = [
            tz.tannery_exchange(inst, schedule[: k + 1], series_terms).gap
            for k in range(1, len(schedule))
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_schedule_validation(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 0, 2.0)
        with pytest.raises(DomainError):
            tz.tannery_exchange(inst, [1, 2, 4], 100)  # q=1 inadmissible for n=0

    @pytest.mark.parametrize("s", [1.5, 2.7, 3.3])
    @pytest.mark.parametrize("q", [10, 4097, 10240])
    @pytest.mark.parametrize("kind,m,n", SHAPES)
    def test_lhs_is_finite_trig_sum(self, kind, m, n, s, q):
        # the harness sums finite_trig_sum's blocks of the same kernel
        lhs = tz.tannery_exchange(tz.zeta_trig_instance(kind, m, n, s), [q], 0).lhs
        total = tz.finite_trig_sum(tz.TrigSumSpec(kind, m, n), q, s).value
        assert (lhs.real.hex(), lhs.imag.hex()) == (total.real.hex(), total.imag.hex())

    @pytest.mark.parametrize(
        "make",
        [lambda: tz.exp_instance(1.0), lambda: tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)],
    )
    def test_memory_stays_small_at_q_a_million(self, make):
        inst = make()
        _block_bases.cache_clear()
        tracemalloc.start()
        try:
            tz.tannery_exchange(inst, [10, 10**6], 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("s", [1.5, 2.7, 3.3])
    def test_lhs_matches_finite_trig_sum(self, s):
        # the scalar summands and the vectorised kernel agree to 4 ulps
        q = 10240
        for kind, m, n in ((tz.TrigKind.COT, 0, 1), (tz.TrigKind.COT, 1, 1),
                           (tz.TrigKind.COT, 0, 0), (tz.TrigKind.CSC, 0, 1),
                           (tz.TrigKind.CSC, 0, 0)):
            lhs = tz.tannery_exchange(tz.zeta_trig_instance(kind, m, n, s), [q], 0).lhs
            total = tz.finite_trig_sum(tz.TrigSumSpec(kind, m, n), q, s).value
            assert ulps_between(lhs, total) <= 4.0, (kind, m, n)


class TestExpInstance:
    @pytest.mark.parametrize("x", [0.0, 1.0, -2.5, 30.0])
    @pytest.mark.parametrize("n", [10, 64, 10**6])
    def test_f_is_the_scalar_product(self, x, n):
        # f over the runs the harness passes, k = 0..n, against the scalar
        # loop; that loop returns +0.0 from its first zero on
        inst = tz.exp_instance(x)
        runs = [np.zeros(1), *index_blocks(1, n + 1)]
        values = np.concatenate([inst.f(k, n) for k in runs])
        expected = []
        for k in range(n + 1):
            expected.append(binomial_term(k, n, x))
            if expected[-1] == 0.0:
                break
        zero = len(expected) if expected[-1] != 0.0 else len(expected) - 1
        assert np.array_equal(bits(values[:zero]), bits(expected[:zero]))
        assert np.array_equal(bits(values[zero:]), bits(np.zeros(n + 1 - zero)))

    def test_f_at_scattered_indices(self):
        inst = tz.exp_instance(-2.5)
        k = np.array([7.0, 0.0, 5000.0, 3.0, 101.0, 3.0])
        expected = [binomial_term(int(j), 200, -2.5) for j in k]
        assert np.array_equal(bits(inst.f(k, 200)), bits(expected))

    def test_one_products_zero_leaves_the_others_alone(self):
        # f(., 10) is exactly zero from k = 11; f at another n, f_limit and
        # the bound are not, at the same indices of the same instance
        inst = tz.exp_instance(30.0)
        k = np.arange(11.0, 30.0)
        assert not inst.f(np.arange(30.0), 10)[11:].any()
        assert not inst.f(k, 10).any()
        assert np.array_equal(bits(inst.f(k, 10**6)), bits([binomial_term(int(j), 10**6, 30.0) for j in k]))
        limit = [math.prod(30.0 / i for i in range(1, int(j) + 1)) for j in k]
        assert inst.f_limit(k).tolist() == inst.bound(k).tolist() == pytest.approx(limit, rel=1e-13)


class TestExpLimit:
    def test_zero_is_one(self):
        assert tz.exp_limit(0.0, 10) == 1.0

    def test_approaches_e(self):
        # |(1+1/n)^n - e| ~ e/(2n)
        assert abs(tz.exp_limit(1.0, 10**6) - math.e) < 2e-6

    def test_degenerate_base(self):
        assert tz.exp_limit(-1.0, 1) == 0.0

    def test_paths_agree_at_switchover(self):
        for x in (0.7, -0.3, 2.0):
            binomial = tz.exp_limit(x, 64)
            logarithmic = math.exp(64 * math.log1p(x / 64))
            assert binomial == pytest.approx(logarithmic, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tz.exp_limit(1.0, 0)
        with pytest.raises(DomainError):
            tz.exp_limit(-10.0**7, 10**6)  # 1 + x/n <= 0 on the log path


class TestGammaLimit:
    def test_at_one(self):
        # the expression telescopes to n/(n+1)
        value = tz.gamma_limit(1, 10**5)
        assert abs(value - 1.0) < 1e-4
        assert value.real == pytest.approx(10**5 / (10**5 + 1), rel=1e-12)

    def test_at_half(self):
        assert abs(tz.gamma_limit(0.5, 10**6) - math.sqrt(PI)) < 1e-3

    def test_at_five(self):
        assert abs(tz.gamma_limit(5, 10**6) - 24.0) / 24.0 < 1e-2

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5])
    def test_recurrence_ratio(self, z):
        n = 10**6
        ratio = tz.gamma_limit(z + 1, n) / tz.gamma_limit(z, n)
        assert abs(ratio - z) < 1e-3

    def test_complex_argument(self):
        # conjugate symmetry of the finite expression
        z = 0.5 + 0.5j
        a = tz.gamma_limit(z, 10**4)
        b = tz.gamma_limit(z.conjugate(), 10**4)
        assert abs(b - a.conjugate()) < 1e-12

    @pytest.mark.parametrize("z", [0, -1, -2, -7])
    def test_poles_rejected(self, z):
        with pytest.raises(DomainError):
            tz.gamma_limit(z, 100)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            tz.gamma_limit(0.5, 0)


class TestReports:
    @pytest.mark.parametrize("s,passed", [(2.0, True), (1.0, False)])
    def test_kv_lines_parse_back_to_fields(self, s, passed):
        # passing reports and the s = 1 negative control; the header lines
        # the tannery suite prints above them are tested in test_cli.py
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, s)
        reports = {
            "condition_i": tz.verify_condition_i(inst, 5, [10, 1000], 1e-3),
            "condition_ii": tz.verify_condition_ii(inst, 100, 1000),
        }
        assert all(report.passed for report in reports.values()) is passed
        lines = [line for report in reports.values() for line in report.to_kv().splitlines()]
        parsed = [line.split("=", 1) for line in lines]
        fields = [
            (f"{prefix}.{f.name}", getattr(report, f.name))
            for prefix, report in reports.items()
            for f in dataclasses.fields(report)
        ]
        assert [key for key, _ in parsed] == [key for key, _ in fields]
        for (key, text), (_, value) in zip(parsed, fields):
            if isinstance(value, bool):
                assert text == str(value).lower(), key
            elif isinstance(value, int):
                assert int(text) == value, key
            else:
                assert float(text) == value or (math.isnan(value) and text == "nan"), key
