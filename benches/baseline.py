"""Single-call reference figures, as rows of a markdown table.

    python3 benches/baseline.py

Measures the import of trigzeta (median of fresh processes), the
finite-sum kernel in ns/term at q = 10^3 .. 10^6 for a real and a
complex s, reference_zeta cold and warm in each s-region, and run_sweep
on the default QSchedule with a cold and a warm reference.
"""

from __future__ import annotations

import statistics
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import trigzeta as tz  # noqa: E402
import workloads  # noqa: E402


def best_of(fn, min_seconds: float = 1.0) -> float:
    """Median seconds per call over calls filling ``min_seconds``."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    rows = []
    imports = run.measure_setup("oracle-cold")
    rows.append(("`import trigzeta` (median of 7 processes)", f"{statistics.median(imports) * 1e3:.0f} ms"))
    spec = tz.classical_form("E28")
    for q in (10**3, 10**4, 10**5, 10**6):
        for s in (2.5, 2.5 + 1.3j):
            sec = best_of(lambda: tz.finite_trig_sum(spec, q, s))
            rows.append((f"`finite_trig_sum` E28, q = {q:.0e}, s = {s}", f"{sec / q * 1e9:.0f} ns/term"))
    for s in workloads.ORACLE_PANEL + (2.0,):
        s = complex(s)
        t0 = time.perf_counter()
        tz.reference_zeta(s)
        cold = time.perf_counter() - t0
        warm = best_of(lambda: tz.reference_zeta(s), 0.05)
        rows.append((f"`reference_zeta` {workloads.region(s)}, s = {s:.4g}",
                     f"cold {cold * 1e3:.0f} ms, warm {warm * 1e6:.2f} µs"))
    sched = tz.QSchedule()
    s = 2.0 + 1e-9  # not yet asked of the oracle in this process
    t0 = time.perf_counter()
    tz.run_sweep(spec, s, sched)
    cold = time.perf_counter() - t0
    warm = best_of(lambda: tz.run_sweep(spec, s, sched))
    rows.append(("`run_sweep` E28, s = 2, default QSchedule", f"cold reference {cold * 1e3:.0f} ms, warm {warm * 1e3:.1f} ms"))
    print("| What | Cost |\n|---|---|")
    for what, cost in rows:
        print(f"| {what} | {cost} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
