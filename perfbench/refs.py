"""Regenerate ``catalog.json``: the benchmark's queries and reference answers.

    python3 perfbench/refs.py            # all workloads (tens of minutes)
    python3 perfbench/refs.py --only serve-zipf

Queries are drawn from ``inputs.CATALOG_SEED``.  Each reference answer set
is computed by ``all_approximations`` and then every member is confirmed
by the definition-level oracle ``core/identification.is_approximation``
(class member, contained in Q, no class member strictly between); a
member the oracle rejects aborts the regeneration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import inputs  # noqa: E402


def _entry(name, query, spec) -> dict:
    from repro.core.approximation import all_approximations
    from repro.core.classes import class_from_name
    from repro.core.identification import is_approximation
    from repro.core.pipeline import PipelineStats

    cls = class_from_name(spec)
    stats = PipelineStats()
    answers = all_approximations(query, cls, stats=stats)
    started = time.perf_counter()
    for answer in answers:
        if not is_approximation(query, answer, cls):
            raise SystemExit(f"oracle rejects {answer} for {query} / {spec}")
    return {
        "name": name,
        "query": str(query),
        "cls": spec,
        "variables": len(query.variables),
        "atoms": len(query.atoms),
        "answers": [str(a) for a in answers],
        "generated": stats.generated,
        "checks_run": stats.checks_run,
        "member_rate": round(stats.members / max(stats.checks_run + stats.check_memo_hits, 1), 3),
        "oracle_s": round(time.perf_counter() - started, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", help="regenerate just this workload")
    args = parser.parse_args()
    catalog = inputs.load_catalog() if os.path.exists(inputs.CATALOG_PATH) else {}
    for workload, entries in inputs.catalog_queries().items():
        if args.only and workload not in args.only:
            continue
        rows = []
        for name, query, spec in entries:
            rows.append(_entry(name, query, spec))
            print(f"{workload} {name} {spec}: {len(rows[-1]['answers'])} answers, "
                  f"oracle {rows[-1]['oracle_s']} s", flush=True)
        catalog[workload] = rows
    catalog["catalog_seed"] = inputs.CATALOG_SEED
    with open(inputs.CATALOG_PATH + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(catalog, handle, indent=1, sort_keys=True)
    os.replace(inputs.CATALOG_PATH + ".tmp", inputs.CATALOG_PATH)


if __name__ == "__main__":
    main()
