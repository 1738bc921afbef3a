"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload compile-graph --seed 1 --seconds 20 --trace 0

Workloads: compile-graph, compile-hyper, serve-zipf, approx-eval (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines above it are the human-readable report: the
host block, each metric under its workload-specific name with raw and
normalised figures, and any check that failed.  With ``--trace 1`` the
spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Every process the benchmark starts runs with this hash seed, so set and
#: dict iteration orders (and hence the program's work) repeat run to run.
HASH_SEED = "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"run.py: the program's sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, here)

    import hostref
    import workloads

    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    host = hostref.host_block()
    print("host " + json.dumps(host, sort_keys=True))
    result = workloads.WORKLOADS[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in result.report:
        print(line)
    for error in result.errors:
        print(f"OP FAILED: {error}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        values = dict(result.per_layer, **{"host.ref_ms": host["host.ref_ms"]})
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        result.tracer.write(spans)
        print(f"spans written to {spans} ({len(result.tracer.spans)} spans)")
        wanted = spec["per_layer"]
    else:
        values = {name: value for name, (value, _) in result.end_to_end.items()}
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"{name:<32} {metrics[name]['value']:>14.4f} {unit}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
