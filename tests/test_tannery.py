"""Tests for the limit-interchange harness and its registered instances."""

import dataclasses
import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

import trigzeta as tz
from trigzeta.errors import DomainError, UnsupportedRangeError

from helpers import ulps_between

PI = math.pi


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

    def test_nonpositive_s_rejected(self):
        with pytest.raises(DomainError):
            tz.term_bound(tz.TrigKind.COT, 1, 0, 0, 0.0)
        with pytest.raises(DomainError):
            tz.term_bound(tz.TrigKind.CSC, 1, 0, 0, -1.0)

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
        assert inst.f_limit(3) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_exp_instance_passes(self):
        inst = tz.exp_instance(1.0)
        report = tz.verify_condition_i(inst, 5, [10, 1000, 10**6], 1e-4)
        assert report.passed
        assert inst.f_limit(4) == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_wrong_limit_is_caught(self):
        good = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        bad = dataclasses.replace(
            good, f_limit=lambda p: 0.0 if p == 0 else 1.0 / p
        )
        report = tz.verify_condition_i(bad, 5, [10, 100, 1000, 10**5], 1e-3)
        assert not report.passed

    def test_p_max_must_fit_alpha(self):
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, 2.0)
        with pytest.raises(DomainError):
            tz.verify_condition_i(inst, 50, [10, 100], 1e-3)


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
    def test_lhs_matches_finite_trig_sum(self, s):
        # the scalar summands and the vectorised kernel agree to 4 ulps
        q = 10240
        for kind, m, n in ((tz.TrigKind.COT, 0, 1), (tz.TrigKind.COT, 1, 1),
                           (tz.TrigKind.COT, 0, 0), (tz.TrigKind.CSC, 0, 1),
                           (tz.TrigKind.CSC, 0, 0)):
            lhs = tz.tannery_exchange(tz.zeta_trig_instance(kind, m, n, s), [q], 0).lhs
            total = tz.finite_trig_sum(tz.TrigSumSpec(kind, m, n), q, s).value
            assert ulps_between(lhs, total) <= 4.0, (kind, m, n)


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
        # a passing report and the s = 1 negative control
        inst = tz.zeta_trig_instance(tz.TrigKind.COT, 0, 1, s)
        reports = {
            "condition_i": tz.verify_condition_i(inst, 5, [10, 1000], 1e-3),
            "condition_ii": tz.verify_condition_ii(inst, 100, 1000),
        }
        combined = tz.ConditionReport(inst.name, **reports)
        assert combined.passed is passed
        lines = combined.to_kv().splitlines()
        assert lines[:2] == [f"instance={inst.name}", f"passed={str(passed).lower()}"]
        parsed = [line.split("=", 1) for line in lines[2:]]
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

    def test_empty_report_not_passed(self):
        assert not tz.ConditionReport("nothing").passed
