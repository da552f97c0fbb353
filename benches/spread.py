"""Run one workload once per seed and report each metric's quartiles.

    python3 benches/spread.py --workload oracle-cold --seeds 1-10 --seconds 20

For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  Runs go one at a time;
their result lines are appended to benches/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / statistics.median(values)}
    return table


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - t0
        results.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s", file=sys.stderr)
    for name, row in summarize(results).items():
        print(f"{args.workload:13s} {name:16s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
              f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload:13s} failed share {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
