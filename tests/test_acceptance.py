"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every tolerance is pinned here, not computed at run time.  Where a
threshold was re-derived before freezing, the derivation is stated in
the test body.  Each criterion prints

    ACCEPTANCE <k> <name>: PASS|FAIL (<details>)

before asserting, so the full scoreboard is visible in the log.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trigzeta as tz
from trigzeta import convergence
from trigzeta.oracle import _choose_em_cutoff

from helpers import direct_transcription, ulps_between

PI = math.pi
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(number: int, name: str, ok: bool, details: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({details}; {elapsed:.2f}s)")


def test_01_theorem_cot_square():
    """Limit representation at s=2: relative error < 5e-4 at q=10^4.

    Threshold provenance: the finite cot^2 sums obey closed forms
    (q(2q-1)/3 for the n=1 shape, (2q-1)(2q-2)/6 for n=0, both
    brute-force verified in test_trig_sums), giving exact relative
    errors -1/(2q) and -3/(2q)+O(q^-2).  At q=10^4 the n=1 shape used
    here sits at 5e-5, so 5e-4 carries a 10x margin.
    """
    t0 = time.perf_counter()
    spec = tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
    estimate = tz.finite_trig_sum(spec, 10**4, 2).value
    target = PI**2 / 6
    rel = abs(estimate - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 5e-4 and elapsed < 1.0
    report(1, "cot limit at s=2", ok, f"rel_err {rel:.3e} < 5e-4", elapsed)
    assert rel < 5e-4
    assert elapsed < 1.0


def test_02_theorem_csc_fourth():
    """csc variant at s=4 against the Bernoulli value pi^4/90."""
    t0 = time.perf_counter()
    spec = tz.TrigSumSpec(tz.TrigKind.CSC, 0, 1)
    estimate = tz.finite_trig_sum(spec, 10**4, 4).value
    target = tz.zeta_even(2).value
    rel = abs(estimate - target) / abs(target)
    elapsed = time.perf_counter() - t0
    ok = rel < 5e-3 and elapsed < 1.0
    report(2, "csc limit at s=4", ok, f"rel_err {rel:.3e} < 5e-3", elapsed)
    assert rel < 5e-3
    assert elapsed < 1.0


def test_03_specialization_suite():
    """Every catalogued formula agrees with its literal transcription
    to 4 ulps (transcriptions evaluated at 50 digits, rounded once)."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_cell = None
    for cid in tz.CATALOG_IDS:
        spec = tz.classical_form(cid)
        for q in (5, 50, 100):
            for s in (2, 3, 2.5 + 1.3j):
                mine = tz.finite_trig_sum(spec, q, s).value
                ref = direct_transcription(cid, q, s)
                u = ulps_between(mine, ref)
                if u > worst:
                    worst, worst_cell = u, (cid, q, s)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 1.0
    report(3, "specialization suite", ok, f"worst {worst:.2f} ulps at {worst_cell}", elapsed)
    assert worst <= 4.0
    assert elapsed < 1.0


def test_04_bernoulli_relation():
    """zeta(2n) closed form vs the Dirichlet sum, inside its tail bound."""
    t0 = time.perf_counter()
    gaps = []
    ok = True
    for n in range(1, 6):
        even = tz.zeta_even(n)
        ref = tz.zeta_dirichlet(2 * n, 10**6)
        gap = abs(even.value - ref.value)
        gaps.append(gap)
        if gap > ref.error_bound:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(4, "Bernoulli relation", ok, f"max gap {max(gaps):.3e}", elapsed)
    assert ok


def test_05_oracle_cross_agreement():
    """All four Re(s)>1 oracles pairwise within summed reported bounds."""
    t0 = time.perf_counter()
    worst_margin = math.inf
    ok = True
    for s in (1.5, 2.0, 3.0, 4.0, 2.5 + 1.3j, 10.0):
        s = complex(s)
        refs = [
            tz.zeta_dirichlet(s, 10**6),
            tz.zeta_eta(s, 10**6),
            tz.zeta_euler_maclaurin(s, 64, _choose_em_cutoff(s)),
            tz.zeta_euler_product(s, 100_000),
        ]
        assert refs[2].error_bound <= 1e-10
        for i, a in enumerate(refs):
            for b in refs[i + 1 :]:
                allowance = a.error_bound + b.error_bound
                margin = allowance - abs(a.value - b.value)
                worst_margin = min(worst_margin, margin)
                if margin < 0:
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(5, "oracle cross-agreement", ok, f"worst margin {worst_margin:.3e}", elapsed)
    assert ok


def test_06_tannery_negative_control():
    """Condition (ii) fails at s=1 (harmonic bound) and passes for
    s in {1.5, 2, 3}, on both the cot and csc instances."""
    t0 = time.perf_counter()
    ok = True
    for kind in (tz.TrigKind.COT, tz.TrigKind.CSC):
        bad = tz.verify_condition_ii(tz.zeta_trig_instance(kind, 0, 1, 1.0), 10**3, 10**3)
        if bad.passed or not bad.dominance_ok:
            ok = False  # must fail via the series, not via dominance
        for s in (1.5, 2.0, 3.0):
            good = tz.verify_condition_ii(tz.zeta_trig_instance(kind, 0, 1, s), 10**3, 10**3)
            if not good.passed:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(6, "Tannery negative control", ok, "s=1 fails, s>1 passes, both kinds", elapsed)
    assert ok


def test_07_strict_bound_sweep():
    """Exhaustive dominance check of the summand against its
    q-independent bound: zero violations allowed, no tolerance."""
    t0 = time.perf_counter()
    violations = 0
    cells = 0
    for q in range(1, 201):
        for n in range(0, 5):
            if n == 0 and q < 2:
                continue
            upper = tz.upper_index(q, n)
            p = np.arange(1, upper + 1, dtype=np.float64)
            angles = p * PI / (2 * q + n)
            sin = np.sin(angles)
            vals = {"cot": np.cos(angles) / sin, "csc": 1.0 / sin}
            for m in range(0, 5):
                pref = PI / (2 * q + m)
                c = tz.c_bound(m, n)
                for s in (1.5, 2.0, 3.7):
                    inv_ps = p**-s
                    for kind, extra in (("cot", 1.0), ("csc", (PI / 2) ** s)):
                        terms = (pref * vals[kind]) ** s
                        bounds = extra * c**s * inv_ps
                        cells += terms.size
                        bad = np.count_nonzero((terms > bounds) | (terms <= 0.0))
                        violations += int(bad)
    # tie the vectorized sweep to the scalar operation on a sample
    rng = random.Random(7)
    for _ in range(50):
        q = rng.randint(2, 200)
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        s = rng.choice([1.5, 2.0, 3.7])
        kind = rng.choice([tz.TrigKind.COT, tz.TrigKind.CSC])
        p_i = rng.randint(1, tz.upper_index(q, n))
        spec = tz.TrigSumSpec(kind, m, n)
        value = tz.term(spec, p_i, q, s).real
        assert 0.0 < value <= tz.term_bound(kind, p_i, m, n, s)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(7, "strict termwise bound", ok, f"{cells} cells, {violations} violations", elapsed)
    assert violations == 0
    assert elapsed < 10.0


def test_08_exchange_identity_exp():
    """Limit-interchange identity on the binomial instance: small gap
    at x=1, exact equality at x=0.

    series_terms=20 puts the dominating-bound tail below 1e-8
    (sum_{k>20} 1/k! ~ 2e-20).
    """
    t0 = time.perf_counter()
    at_one = tz.tannery_exchange(tz.exp_instance(1.0), [10, 1000, 10**6], 20)
    at_zero = tz.tannery_exchange(tz.exp_instance(0.0), [10, 10**6], 20)
    elapsed = time.perf_counter() - t0
    ok = at_one.gap < 1e-5 and at_zero.gap == 0.0 and elapsed < 1.0
    report(8, "exchange identity (exp)", ok,
           f"gap(x=1) {at_one.gap:.3e}, gap(x=0) {at_zero.gap}", elapsed)
    assert at_one.gap < 1e-5
    assert at_zero.gap == 0.0
    assert elapsed < 1.0


def test_09_conjugate_symmetry_random():
    """100 seeded random s with Re(s) in (1,5): conjugating s
    conjugates the finite sum to within 8 ulps of its magnitude."""
    t0 = time.perf_counter()
    rng = random.Random(20240229)
    spec = tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(1.0 + 1e-6, 5.0), rng.uniform(-4.0, 4.0))
        plus = tz.finite_trig_sum(spec, 500, s).value
        minus = tz.finite_trig_sum(spec, 500, s.conjugate()).value
        gap = abs(minus - plus.conjugate())
        tol = 8.0 * math.ulp(abs(plus))
        worst = max(worst, gap / tol if tol else math.inf)
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0 and elapsed < 5.0
    report(9, "conjugate symmetry", ok, f"worst gap {worst:.3f} of the 8-ulp budget", elapsed)
    assert worst < 1.0
    assert elapsed < 5.0


def test_10_empirical_order_sanity():
    """Fitted order for the cot sweep at s=2 lies in [0.8, 1.2];
    synthetic c/q and c/q^2 series recover 1.0 and 2.0 within 1e-6."""
    t0 = time.perf_counter()
    series = tz.run_sweep(tz.TrigSumSpec(tz.TrigKind.COT, 0, 1), 2, tz.QSchedule())
    order, residual = series.fitted_order, series.fit_residual

    def synthetic(power):
        ref = tz.ZetaReference(complex(1.5), "dirichlet", 0.0)
        records = tuple(
            tz.SweepRecord(q=8 * 2**k, estimate=complex(1.5), abs_error=(8 * 2**k) ** -power)
            for k in range(8)
        )
        return tz.empirical_order(tz.ConvergenceSeries(records, ref, None, None))

    fit1, fit2 = synthetic(1.0), synthetic(2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        0.8 <= order <= 1.2
        and abs(fit1.order - 1.0) < 1e-6
        and abs(fit2.order - 2.0) < 1e-6
        and elapsed < 2.0
    )
    report(10, "empirical order", ok,
           f"sweep order {order:.4f} (residual {residual:.2e}), synthetic {fit1.order:.8f}/{fit2.order:.8f}",
           elapsed)
    assert 0.8 <= order <= 1.2
    assert abs(fit1.order - 1.0) < 1e-6
    assert abs(fit2.order - 2.0) < 1e-6
    assert elapsed < 2.0


def test_11_gamma_limit():
    """Euler's finite-n gamma expression: value at z=1 and the
    recurrence ratio at n=10^6."""
    t0 = time.perf_counter()
    at_one = tz.gamma_limit(1, 10**5)
    ratio_gaps = []
    for z in (0.5, 1.0, 2.5):
        ratio = tz.gamma_limit(z + 1, 10**6) / tz.gamma_limit(z, 10**6)
        ratio_gaps.append(abs(ratio - z))
    elapsed = time.perf_counter() - t0
    ok = abs(at_one - 1.0) < 1e-4 and max(ratio_gaps) < 1e-3 and elapsed < 2.0
    report(11, "gamma limit", ok,
           f"|G(1)-1| {abs(at_one - 1.0):.2e}, worst ratio gap {max(ratio_gaps):.2e}",
           elapsed)
    assert abs(at_one - 1.0) < 1e-4
    assert max(ratio_gaps) < 1e-3
    assert elapsed < 2.0


def _cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "trigzeta", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_12_cli_determinism():
    """Specializations suite green; repeated converge runs emit
    byte-identical CSV."""
    t0 = time.perf_counter()
    suite = _cli("verify", "--suite", "specializations")
    args = ("converge", "--s", "2", "--rep", "E28", "--q0", "10", "--factor", "2",
            "--steps", "8", "--output", "csv")
    first, second = _cli(*args), _cli(*args)
    elapsed = time.perf_counter() - t0
    ok = (
        suite.returncode == 0
        and first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and elapsed < 5.0
    )
    report(12, "CLI determinism", ok,
           f"suite exit {suite.returncode}, CSV identical {first.stdout == second.stdout}",
           elapsed)
    assert suite.returncode == 0
    assert first.stdout == second.stdout
    assert elapsed < 5.0
