"""trigzeta benchmark: one workload, in this fresh process, one JSON result.

    python3 benches/run.py --workload sums-bulk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; trigzeta is imported from ./src.
Load is a closed loop with one client: the next operation starts when
the previous one has returned.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
from a traced run (``--trace 1``).  Outputs are checked after the timed
loop; failures go to stderr and make ``correct`` false.  Run records
and span traces are written under benches/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh processes that each time the set-up; setup_s is their median.
SETUP_PROBES = 7


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


#: Run in a fresh interpreter: import trigzeta, then build the workload's
#: tables, timing both and nothing else.
_PROBE = """
import sys, time
t0 = time.perf_counter()
import trigzeta
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].tables(trigzeta)
print(repr(t1 - t0 + time.perf_counter() - t2))
"""


def measure_setup(name: str) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, one at a time."""
    cmd = [sys.executable, "-c", _PROBE, name, str(HERE)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


def timed_loop(workload, tz, tables, seed: int, seconds: float, tr):
    """Run operations until ``seconds`` have passed, in whole rounds and
    at least ``min_ops`` of them; returns (runs, latencies, elapsed)."""
    runs, latencies = [], []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        inp = workload.inputs(seed, k)
        with tr.span("op", index=k):
            t0 = time.perf_counter()
            out = workload.operate(tz, tables, inp, tr)
            t1 = time.perf_counter()
        runs.append((inp, out))
        latencies.append(t1 - t0)
        k += 1
        if t1 >= deadline and k % workload.round_size == 0 and k >= workload.min_ops:
            break
    return runs, latencies, time.perf_counter() - start


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-commands" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer, n_ops: int, cache_delta: tuple[int, int]) -> dict:
    """Per-layer figures from the spans; 0 where the workload makes no
    call into that layer."""
    def durations(name, **match):
        return [tracing.duration_ns(s) for s in tracer.named(name)
                if all(s.get(k) == v for k, v in match.items())]

    sums = tracer.named("trig_sums.finite_trig_sum")
    per_term = {flag: [tracing.duration_ns(s) / s["terms"] for s in sums if s["complex"] is flag]
                for flag in (False, True)}
    exchanges = tracer.named("tannery.tannery_exchange")
    cli = tracer.named("cli.process")
    hits, misses = cache_delta
    m = {
        "trig_sums.finite_trig_sum.ns_per_term.real": (_median(per_term[False]), "ns/term"),
        "trig_sums.finite_trig_sum.ns_per_term.complex": (_median(per_term[True]), "ns/term"),
        "trig_sums.finite_trig_sum.terms": (sum(s["terms"] for s in sums) / n_ops, "count"),
    }
    for reg in ("sigma_near_1", "sigma_1_to_2", "sigma_above_2", "complex", "critical_strip"):
        m[f"oracle.reference_zeta.ms.{reg}"] = (
            _median(durations("oracle.reference_zeta", region=reg), 1e-6), "ms")
    m["oracle.reference_zeta.calls"] = ((hits + misses) / n_ops, "count")
    m["oracle.reference_zeta.cache_hits"] = (hits / n_ops, "count")
    m["convergence.run_sweep.ms"] = (_median(durations("convergence.run_sweep"), 1e-6), "ms")
    m["convergence.fit.us"] = (_median(durations("convergence.fit"), 1e-3), "us")
    m["convergence.emit.us"] = (_median(durations("convergence.emit"), 1e-3), "us")
    m["tannery.verify_condition_i.us"] = (_median(durations("tannery.verify_condition_i"), 1e-3), "us")
    m["tannery.verify_condition_ii.ms"] = (_median(durations("tannery.verify_condition_ii"), 1e-6), "ms")
    m["tannery.tannery_exchange.ns_per_index"] = (
        _median([tracing.duration_ns(s) / s["indices"] for s in exchanges]), "ns/index")
    for key, name, scale in (("import_s", "cli.import.ms", 1e3), ("parse_args_s", "cli.parse_args.us", 1e6),
                             ("execute_s", "cli.execute.ms", 1e3)):
        m[name] = (_median([s[key] for s in cli if key in s], scale), name.rsplit(".", 1)[1])
    m["cli.process.ms"] = (_median([tracing.duration_ns(s) for s in cli], 1e-6), "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "trigzeta" / "__init__.py").is_file():
        print(f"error: no trigzeta sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_samples = measure_setup(args.workload)

    import trigzeta as tz

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else tracing.OFF
    tables = workload.tables(tz)
    # The process's allocator reaches its steady state during untimed
    # operations whose inputs no timed operation repeats.
    for k in range(-1, -1 - workload.warmup_ops, -1):
        workload.operate(tz, tables, workload.inputs(args.seed, k), tracing.OFF)
    info0 = tz.reference_zeta.cache_info()
    runs, latencies, elapsed = timed_loop(workload, tz, tables, args.seed, args.seconds, tracer)
    info1 = tz.reference_zeta.cache_info()
    rss = peak_rss_mb(workload)
    cache_delta = (info1.hits - info0.hits, info1.misses - info0.misses)

    failed_flags = [workload.failed(inp, out) for inp, out in runs]
    good = [r for r, bad in zip(runs, failed_flags) if not bad]
    failures = workload.check(tz, tables, good) + workload.check_cache(*cache_delta)
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    accuracy = workload.accuracy(runs)

    ops_per_s = len(runs) / elapsed
    e2e = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "accuracy_digits": {"value": accuracy, "unit": "digits"},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    if args.trace:
        metrics = layer_metrics(tracer, len(runs), cache_delta)
        untraced_path = OUT / f"result-{stem}.json"
        untraced = (json.loads(untraced_path.read_text())["metrics"]["ops_per_s"]["value"]
                    if untraced_path.is_file() else None)
        # Span bookkeeping as a share of the timed loop; the comparison
        # with an untraced run also holds the machine's drift between runs.
        span_share = len(tracer.spans) * tracing.span_cost_ns() * 1e-9 / elapsed
        summary = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "ops": len(runs), "spans": len(tracer.spans), "span_share_of_loop": span_share,
            "ops_per_s_traced": ops_per_s, "ops_per_s_untraced": untraced,
            "end_to_end_traced": e2e,
        }
        tracer.write(OUT / f"trace-{stem}.json", summary)
        print(f"traced ops_per_s {ops_per_s:.6g}, untraced {untraced}, "
              f"spans {len(tracer.spans)} costing {span_share:.2e} of the loop", file=sys.stderr)
    else:
        metrics = e2e
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(failed_flags),
        "metrics": metrics,
    }
    if not args.trace:
        (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
