"""Steadiness check: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --workload serve-zipf --runs 5 --first-seed 100

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).  For
every end-to-end metric it prints the median of the runs and the spread
(third minus first quartile, ``statistics.quantiles(values, n=4)``, as a
share of the median) next to a third of the metric's bound in
``BENCHMARK.json``, plus the failed share of ops.  Exit code 1 when a
run fails, a check fails, or a spread (``setup_s`` aside) reaches its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(args.runs):
            started = time.monotonic()
            results.append(run_once(workload, args.first_seed + i, args.seconds, 0))
            print(f"  {workload} seed {args.first_seed + i} ({time.monotonic() - started:.1f} s): "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results):
            status = 1
        print(f"{workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else ("wide" if spread < bound else "OVER")
            if verdict == "OVER" and name != "setup_s":
                status = 1
            print(f"  {name:<16} median {median:12.4f}  spread {spread:6.3f}  "
                  f"bound/3 {bound / 3:.3f}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
