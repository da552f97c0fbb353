"""Tests of the benchmark itself, kept out of the library's test run.

    python3 -m pytest -q benches/tests

The checker tests show that each correctness check rejects a value
moved past its allowance; the workload tests run every workload for a
few operations end to end.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCHES = Path(__file__).resolve().parent.parent
ROOT = BENCHES.parent
sys.path.insert(0, str(BENCHES))

import checks  # noqa: E402
import workloads  # noqa: E402

SHAPE = ("cot", 0, 1)


def test_closed_form_rejects_a_sum_moved_past_its_allowance():
    q, s = 1000, 4
    exact = checks.closed_form(SHAPE, q, s)
    value = complex(float(exact))
    allowance = checks.rounding_allowance(s, float(exact))
    assert checks.check_closed_form(SHAPE, q, s, value) == []
    assert checks.check_closed_form(SHAPE, q, s, value + 2 * allowance) != []


@pytest.mark.parametrize("shape", checks.SHAPES)
@pytest.mark.parametrize("s", [2, 4])
def test_closed_forms_match_a_40_digit_direct_sum(shape, s):
    value, _ = checks.transcription(shape, 7, s, dps=40)
    assert abs(value - complex(checks.closed_form(shape, 7, s))) <= 1e-15 * abs(value)


def test_limit_envelope_rejects_a_sum_moved_past_it():
    q, s = 10**5, 2.5 + 1.3j
    zeta = checks.mp_zeta(s)
    env = checks.envelope(s, q)
    assert checks.check_limit(SHAPE, q, s, zeta + 0.5 * env, zeta) == []
    assert checks.check_limit(SHAPE, q, s, zeta + 2 * env, zeta) != []


def test_reference_check_rejects_a_value_moved_by_twice_its_bound():
    s = 3.7
    zeta = checks.mp_zeta(s)
    bound = 1e-10
    assert checks.check_reference(s, zeta + 0.5 * bound, bound, zeta) == []
    assert checks.check_reference(s, zeta + 2 * bound, bound, zeta) != []
    assert checks.check_reference(s, zeta, math.nan, zeta) != []


def test_transcription_check_rejects_a_moved_value():
    q, s = 50, 2.5 + 1.3j
    exact = checks.transcription(SHAPE, q, s)
    allowance = checks.rounding_allowance(s, exact[1])
    assert checks.check_transcription(SHAPE, q, s, exact[0], exact) == []
    assert checks.check_transcription(SHAPE, q, s, exact[0] + 2 * allowance, exact) != []


def test_conjugate_and_ulp_checks_reject_moved_values():
    v = 1.25 - 0.5j
    assert checks.check_conjugate(SHAPE, 10, 2 + 1j, v, v.conjugate()) == []
    assert checks.check_conjugate(SHAPE, 10, 2 + 1j, v, v.conjugate() + 20 * math.ulp(abs(v))) != []
    assert checks.check_ulps("x", 1.0, 1.0 + 2 * math.ulp(1.0)) == []
    assert checks.check_ulps("x", 1.0, 1.0 + 8 * math.ulp(1.0)) != []


def test_real_and_shrink_checks():
    assert checks.check_real_positive(SHAPE, 10, 2.0, complex(1.5, 0.0)) == []
    assert checks.check_real_positive(SHAPE, 10, 2.0, complex(1.5, 1e-300)) != []
    assert checks.check_shrinks("x", 1.1, 1.01, 1.0) == []
    assert checks.check_shrinks("x", 1.01, 1.1, 1.0) != []


def test_exit_check_follows_the_documented_statuses():
    assert checks.check_exit("x", 0, "", 0) == []
    assert checks.check_exit("x", 2, "error: failed\n", 2) == []
    assert checks.check_exit("x", 0, "", 1) != []
    traceback = "Traceback (most recent call last):\n  ...\nOverflowError: x\n"
    assert checks.check_exit("x", 1, traceback, 1) != []
    assert checks.check_exit("x", 0, "warning\n", 0) != []


def test_digits_is_capped_at_the_binary64_limit():
    assert checks.digits(1.0, 1.0) == checks.ACCURACY_CAP
    assert checks.digits(1.001, 1.0) == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("z", [2.0, 2.5 + 1.3j, 1e-05 - 3.25e-07j, -0.5 + 14.0j])
def test_cli_complex_rendering_round_trips(z):
    def fmt(x):
        return format(x, ".17g")

    text = fmt(z.real) if z.imag == 0 else f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}i"
    assert workloads.parse_complex_out(text) == z


def test_oracle_workload_check_rejects_a_reference_moved_by_twice_its_bound():
    s = complex(workloads.ORACLE_PANEL[2])
    zeta = checks.mp_zeta(s)
    good = SimpleNamespace(value=zeta, error_bound=1e-10)
    bad = SimpleNamespace(value=zeta + 2e-10, error_bound=1e-10)
    w = workloads.OracleCold()
    assert w.check(None, None, [([s], [good])]) == []
    assert w.check(None, None, [([s], [bad])]) != []


def test_cache_checks_reject_a_warm_cold_oracle_and_missing_hits():
    assert workloads.OracleCold().check_cache(0, 50) == []
    assert workloads.OracleCold().check_cache(1, 49) != []
    assert workloads.LabSweep().check_cache(15, 3) == []
    assert workloads.LabSweep().check_cache(14, 4) != []


def test_cold_offsets_never_repeat_an_s():
    for seed in (1, 2):
        offsets = [workloads.cold_offset(seed, k) for k in range(-5, 50)]
        assert offsets[5] == 0.0
        assert len(set(offsets)) == len(offsets)
    assert workloads.cold_offset(1, 3) != workloads.cold_offset(2, 3)


def test_cli_bad_inputs_count_as_failed_only_until_they_end_in_one_error_line():
    w = workloads.CliCommands()
    inp = workloads._FAILING[0]
    nan_exit_0 = workloads.CliResult(0, "value = nan\n", "")
    fixed = workloads.CliResult(1, "", "error: s must be finite\n")
    assert w.failed(inp, nan_exit_0)
    assert not w.failed(inp, fixed)


def _run(cwd, workload, seconds="0.1", trace="0"):
    return subprocess.run(
        [sys.executable, "benches/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", trace],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_completes_a_few_operations(workload):
    proc = _run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    w = workloads.WORKLOADS[workload]
    assert result["attempted"] >= w.min_ops
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb", "accuracy_digits"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "lab-sweep", trace="1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["convergence.run_sweep.ms"]["value"] > 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCHES, tmp_path / "benches", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "sums-bulk")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
