"""Tests for the finite trigonometric power sums and their zeta limits."""

import math
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigzeta as tz
from trigzeta.accumulate import _CHUNK
from trigzeta.errors import DomainError, UnsupportedRangeError
from trigzeta.trig_sums import _MEMO_BYTES, _block_bases

from helpers import (
    FORMULA_SHAPES,
    brute_force_cot_square_sum,
    brute_force_cot_square_sum_even_den,
    direct_transcription,
    ulps_between,
)

PI = math.pi
COT01 = tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
COT00 = tz.TrigSumSpec(tz.TrigKind.COT, 0, 0)
CSC00 = tz.TrigSumSpec(tz.TrigKind.CSC, 0, 0)
CSC01 = tz.TrigSumSpec(tz.TrigKind.CSC, 0, 1)


class TestUpperIndex:
    @pytest.mark.parametrize(
        "q,n,expected",
        [(2, 0, 1), (3, 1, 3), (5, 4, 6), (1, 1, 1), (2, 1, 2), (10, 0, 9)],
    )
    def test_floor_formula(self, q, n, expected):
        assert tz.upper_index(q, n) == expected

    @pytest.mark.parametrize("q,n", [(1, 0), (0, 0), (0, 5), (-3, 1), (5, -1)])
    def test_inadmissible_pairs_raise(self, q, n):
        with pytest.raises(DomainError):
            tz.upper_index(q, n)

    @given(q=st.integers(1, 10**6), n=st.integers(0, 50))
    def test_angles_strictly_inside_quadrant(self, q, n):
        if n == 0 and q < 2:
            return
        upper = tz.upper_index(q, n)
        assert upper >= 1
        # extreme p suffices: angles are monotone in p
        for p in (1, upper):
            angle = p * PI / (2 * q + n)
            assert 0.0 < angle < PI / 2


class TestTerm:
    def test_cot_value_at_pi_third(self):
        # cot(pi/3) = 1/sqrt(3), so ((pi/2) cot(pi/3))^2 = pi^2/12
        value = tz.term(COT01, p=1, q=1, s=2)
        assert value.imag == 0.0
        assert value.real == pytest.approx(PI**2 / 12, rel=1e-15)

    def test_csc_value_at_pi_third(self):
        # csc(pi/3) = 2/sqrt(3), so ((pi/2) csc(pi/3))^2 = pi^2/3
        value = tz.term(CSC01, p=1, q=1, s=2)
        assert value.real == pytest.approx(PI**2 / 3, rel=1e-15)

    def test_zero_exponent_gives_one(self):
        assert tz.term(COT00, p=1, q=2, s=0) == 1.0

    @pytest.mark.parametrize("p", [0, -1, 2])
    def test_p_out_of_range(self, p):
        # upper_index(2, 0) == 1
        with pytest.raises(DomainError):
            tz.term(COT00, p=p, q=2, s=2)

    def test_inadmissible_q(self):
        with pytest.raises(DomainError):
            tz.term(COT00, p=1, q=1, s=2)

    @given(
        q=st.integers(1, 200),
        n=st.integers(0, 4),
        m=st.integers(0, 4),
        s=st.floats(0.1, 6.0),
        p_frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_csc_term_dominates_cot_term(self, q, n, m, s, p_frac):
        # csc x > cot x > 0 on (0, pi/2)
        if n == 0 and q < 2:
            return
        upper = tz.upper_index(q, n)
        p = 1 + round(p_frac * (upper - 1))
        cot_term = tz.term(tz.TrigSumSpec(tz.TrigKind.COT, m, n), p, q, s)
        csc_term = tz.term(tz.TrigSumSpec(tz.TrigKind.CSC, m, n), p, q, s)
        assert 0.0 < cot_term.real < csc_term.real

    @given(
        q=st.integers(1, 200),
        m=st.integers(0, 4),
        n=st.integers(0, 4),
        s=st.sampled_from([1.5, 2.0, 3.7]),
        p_frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_cot_term_within_dominating_bound(self, q, m, n, s, p_frac):
        if n == 0 and q < 2:
            return
        upper = tz.upper_index(q, n)
        p = 1 + round(p_frac * (upper - 1))
        value = tz.term(tz.TrigSumSpec(tz.TrigKind.COT, m, n), p, q, s).real
        assert 0.0 < value <= tz.term_bound(tz.TrigKind.COT, p, m, n, s)


class TestFiniteTrigSum:
    def test_two_term_example(self):
        # (pi/4)^2 (cot^2(pi/5) + cot^2(2pi/5)) = pi^2/8 via the
        # closed form q(2q-1)/3 = 2 at q = 2
        ev = tz.finite_trig_sum(COT01, q=2, s=2)
        assert ev.term_count == 2
        assert ev.value.real == pytest.approx(PI**2 / 8, rel=1e-15)

    def test_single_term_cot(self):
        # only p = 1 survives: (pi/4)^2 cot^2(pi/4) = pi^2/16
        ev = tz.finite_trig_sum(COT00, q=2, s=2)
        assert ev.term_count == 1
        assert ev.value.real == pytest.approx(PI**2 / 16, rel=1e-15)

    def test_single_term_csc(self):
        # (pi/4)^2 csc^2(pi/4) = pi^2/8
        ev = tz.finite_trig_sum(CSC00, q=2, s=2)
        assert ev.value.real == pytest.approx(PI**2 / 8, rel=1e-15)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 10, 25, 50])
    def test_cot_square_closed_form(self, q):
        # sum_{p<=q} cot^2(p pi/(2q+1)) = q(2q-1)/3, brute-forced
        brute = brute_force_cot_square_sum(q)
        exact = q * (2 * q - 1) / 3
        assert brute == pytest.approx(exact, rel=1e-12)
        ev = tz.finite_trig_sum(COT01, q=q, s=2)
        assert ev.value.real == pytest.approx((PI / (2 * q)) ** 2 * exact, rel=1e-13)

    @pytest.mark.parametrize("q", [2, 3, 5, 10, 25, 50])
    def test_cot_square_closed_form_even_denominator(self, q):
        # sum_{p<q} cot^2(p pi/(2q)) = (2q-1)(2q-2)/6, brute-forced
        brute = brute_force_cot_square_sum_even_den(q)
        exact = (2 * q - 1) * (2 * q - 2) / 6
        assert brute == pytest.approx(exact, rel=1e-12, abs=1e-12)
        ev = tz.finite_trig_sum(COT00, q=q, s=2)
        assert ev.value.real == pytest.approx((PI / (2 * q)) ** 2 * exact, rel=1e-13)

    def test_real_exponent_gives_positive_real(self):
        for spec in (COT01, CSC00):
            ev = tz.finite_trig_sum(spec, q=37, s=2.3)
            assert ev.value.imag == 0.0
            assert ev.value.real > 0.0

    def test_term_count_matches_upper_index(self):
        for q, n in ((7, 0), (7, 1), (7, 4)):
            spec = tz.TrigSumSpec(tz.TrigKind.COT, 0, n)
            assert tz.finite_trig_sum(spec, q, 2).term_count == tz.upper_index(q, n)

    def test_conjugate_symmetry_exact(self):
        for spec in (COT01, CSC00, tz.TrigSumSpec(tz.TrigKind.COT, 3, 2)):
            s = 2.5 + 1.3j
            plus = tz.finite_trig_sum(spec, 100, s).value
            minus = tz.finite_trig_sum(spec, 100, s.conjugate()).value
            assert minus == plus.conjugate()

    @given(
        re=st.floats(1.01, 5.0),
        im=st.floats(-3.0, 3.0),
        q=st.integers(2, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry_property(self, re, im, q):
        s = complex(re, im)
        plus = tz.finite_trig_sum(COT01, q, s).value
        minus = tz.finite_trig_sum(COT01, q, s.conjugate()).value
        assert ulps_between(minus, plus.conjugate()) <= 8.0

    @pytest.mark.parametrize("s", [1.5, 2.0, 4.0])
    def test_monotone_error_decay(self, s):
        reference = tz.reference_zeta(s).value
        errors = [
            abs(tz.finite_trig_sum(COT01, 100 * 2**k, s).value - reference)
            for k in range(7)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_cross_kind_agreement_complex_s(self):
        s = 2.5 + 1.3j
        values = [
            tz.finite_trig_sum(tz.classical_form(cid), 10**4, s).value
            for cid in ("E28", "E29", "E30", "E31", "E32")
        ]
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert abs(a - b) < 1e-2

    def test_rounding_bound_covers_error(self):
        # the acceptance grid against the 50-digit transcriptions
        for cid in tz.CATALOG_IDS:
            spec = tz.classical_form(cid)
            for q in (5, 50, 100):
                for s in (2, 3, 2.5 + 1.3j):
                    ev = tz.finite_trig_sum(spec, q, s)
                    gap = abs(ev.value - direct_transcription(cid, q, s))
                    assert 0.0 < ev.rounding_bound < 1e-12 * abs(ev.value)
                    assert gap <= ev.rounding_bound, (cid, q, s)

    @given(
        cid=st.sampled_from(["E28", "E29", "E30", "E31", "E32"]),
        q=st.integers(1, 300),
        sigma=st.one_of(
            st.floats(1.0, 1.001, exclude_min=True), st.floats(1.0, 60.0, exclude_min=True)
        ),
        t=st.one_of(st.just(0.0), st.floats(-1e4, 1e4)),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_rounding_bound_is_a_true_bound(self, cid, q, sigma, t):
        # the five shapes over the limits' domain, against the 50-digit
        # transcriptions; a false bound is mended, the strategy kept
        spec = tz.classical_form(cid)
        q = max(q, spec.min_q())
        s = complex(sigma, t)
        ev = tz.finite_trig_sum(spec, q, s)
        gap = abs(ev.value - direct_transcription(cid, q, s))
        assert gap <= ev.rounding_bound, (cid, q, s)

    def test_repeat_calls_identical_bits(self):
        # numpy's vectorised pow/exp/log differ from libm; what matters
        # is that the same call always gives the same bits
        for s in (2.7, 2.5 + 1.3j):
            for q in (7, 5000, 20000):
                first = tz.finite_trig_sum(CSC01, q, s)
                for _ in range(3):
                    assert tz.finite_trig_sum(CSC01, q, s) == first

    @pytest.mark.parametrize(
        "cid,q,s", [("E15", 2, 1e300), ("E28", 10, 1e300), ("E28", 10, 1e300 + 1e300j)]
    )
    def test_overflow_refused_without_warnings(self, cid, q, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedRangeError, match="not finite"):
                tz.finite_trig_sum(tz.classical_form(cid), q, s)
        with pytest.raises(UnsupportedRangeError, match="overflows"):
            tz.term(tz.classical_form(cid), 1, q, s)

    def test_infinities_of_both_signs_refused(self):
        # three bases above 1 at s = 1000+1i: one block holds +inf and -inf
        # terms, and math.fsum raises on their sum
        spec = tz.TrigSumSpec(tz.TrigKind.COT, 0, 10)
        with pytest.raises(UnsupportedRangeError, match=r"q=1, s=\(1000\+1j\)"):
            tz.finite_trig_sum(spec, 1, 1000 + 1j)

    @pytest.mark.parametrize("s", [2.5, 2.5 + 1.3j])
    def test_memory_stays_small_at_large_q(self, s):
        import tracemalloc

        tracemalloc.start()
        try:
            tz.finite_trig_sum(tz.classical_form("E28"), 10**6, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


# the five distinct (kind, m, n) shapes of the catalog
SHAPES = [tz.classical_form(c) for c in ("E28", "E29", "E30", "E31", "E32")]
MEMO_S_ORDER = [2, 2.5, 2.5 + 1.3j, 4]


def _bits(ev):
    value = complex(ev.value)
    return (value.real.hex(), value.imag.hex(), ev.rounding_bound.hex(), ev.term_count)


def _cold_bits(spec, q, s):
    _block_bases.cache_clear()
    return _bits(tz.finite_trig_sum(spec, q, s))


class TestBaseMemo:
    @pytest.mark.parametrize(
        "order", [MEMO_S_ORDER, MEMO_S_ORDER[::-1]], ids=["forward", "reverse"]
    )
    @pytest.mark.parametrize("q", [7, 4097, 10**5, 131073])
    def test_warm_sums_have_cold_bits(self, q, order):
        # the shapes share the memo; at q = 131073 the n = 1 shapes sum
        # 33 blocks, so the memo evicts mid-sum
        calls = [(spec, q, s) for spec in SHAPES for s in order]
        _block_bases.cache_clear()
        warm = [_bits(tz.finite_trig_sum(*call)) for call in calls]
        assert warm == [_cold_bits(*call) for call in calls]

    def test_repeat_at_another_s_computes_no_base(self):
        # E30 at q = 131073 sums 131,072 terms: exactly the memo's 32 blocks
        spec = tz.classical_form("E30")
        _block_bases.cache_clear()
        tz.finite_trig_sum(spec, 131073, 2.5)
        tz.finite_trig_sum(spec, 131073, 2.5 + 1.3j)
        info = _block_bases.cache_info()
        assert (info.misses, info.hits) == (32, 32)

    def test_memoised_bases_are_read_only(self):
        bases = _block_bases(COT01, 100, 1, 101)
        assert not bases.flags.writeable
        with pytest.raises(ValueError):
            bases[0] = 1.0

    def test_threads_interleaving_give_serial_bits(self):
        # four threads on two cores, switching often; their 25 + 15 + 4 + 3
        # blocks exceed the memo's 32, so each evicts the others' bases
        jobs = [
            [(COT01, 10**5, s) for s in MEMO_S_ORDER],
            [(CSC00, 60_001, s) for s in MEMO_S_ORDER[::-1]],
            [(tz.classical_form("E29"), 16_000, s) for s in MEMO_S_ORDER],
            [(CSC01, 12_000, s) for s in MEMO_S_ORDER[::-1]],
        ]
        serial = [[_cold_bits(*job) for job in thread_jobs] for thread_jobs in jobs]
        start = threading.Barrier(len(jobs), timeout=60)
        got = [[] for _ in jobs]

        def run(k):
            start.wait()
            for _ in range(2):
                got[k].extend(_bits(tz.finite_trig_sum(*job)) for job in jobs[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [2 * bits for bits in serial]

    def test_memo_holds_at_most_one_mebibyte(self):
        import tracemalloc

        _block_bases.cache_clear()
        tracemalloc.start()
        try:
            for q in (10**5, 10**6):
                tz.finite_trig_sum(COT01, q, 2.5)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        info = _block_bases.cache_info()
        assert _MEMO_BYTES == 1 << 20
        assert info.currsize == info.maxsize == _MEMO_BYTES // (8 * _CHUNK) == 32
        # 31 full blocks and the last, shorter one of the q = 10^6 sum,
        # plus the arrays' objects and the cache's keys
        assert _MEMO_BYTES - 8 * _CHUNK < kept < _MEMO_BYTES + 32 * 1024


class TestClassicalForm:
    @pytest.mark.parametrize(
        "cid,kind,m,n",
        [
            ("E10", tz.TrigKind.COT, 0, 1),
            ("E11", tz.TrigKind.COT, 1, 1),
            ("E12", tz.TrigKind.COT, 0, 1),
            ("E14", tz.TrigKind.COT, 0, 0),
            ("E15", tz.TrigKind.CSC, 0, 0),
            ("E16", tz.TrigKind.CSC, 0, 1),
            ("E28", tz.TrigKind.COT, 0, 1),
            ("E29", tz.TrigKind.COT, 1, 1),
            ("E30", tz.TrigKind.COT, 0, 0),
            ("E31", tz.TrigKind.CSC, 0, 1),
            ("E32", tz.TrigKind.CSC, 0, 0),
        ],
    )
    def test_catalog_mapping(self, cid, kind, m, n):
        spec = tz.classical_form(cid)
        assert (spec.kind, spec.m, spec.n) == (kind, m, n)

    def test_upper_limits_match_cited_formulas(self):
        # the upper limits as transcribed from the cited formulas
        for q in (5, 50, 100):
            for cid in tz.CATALOG_IDS:
                spec = tz.classical_form(cid)
                expected = q if FORMULA_SHAPES[cid][2] == "q" else q - 1
                assert tz.upper_index(q, spec.n) == expected

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            tz.classical_form("E99")

    @pytest.mark.parametrize("cid", ["E10", "E11", "E14", "E15", "E16"])
    def test_specialization_equivalence_sample(self, cid):
        # full grid in the acceptance suite; one shape each here
        spec = tz.classical_form(cid)
        for q, s in ((5, 2), (100, 2.5 + 1.3j)):
            mine = tz.finite_trig_sum(spec, q, s).value
            ref = direct_transcription(cid, q, s)
            assert ulps_between(mine, ref) <= 4.0


def test_negative_shifts_rejected():
    with pytest.raises(DomainError):
        tz.TrigSumSpec(tz.TrigKind.COT, -1, 0)
    with pytest.raises(DomainError):
        tz.TrigSumSpec(tz.TrigKind.COT, 0, -2)


def test_concurrent_evaluation_matches_serial():
    # pure functions, no shared mutable state: a thread pool must
    # reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    spec = tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
    qs = [50 + 17 * k for k in range(16)]
    serial = [tz.finite_trig_sum(spec, q, 2.5 + 1.3j).value for q in qs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda q: tz.finite_trig_sum(spec, q, 2.5 + 1.3j).value, qs))
    assert threaded == serial
