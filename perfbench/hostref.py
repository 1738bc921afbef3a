"""Host normalisation: a fixed pure-Python reference op timed next to every op.

A shared two-CPU host drifts: the same compile can take 350 ms in one run
and 500 ms in the next.  The reference op below does dict, set and sort
work of a fixed size, with the garbage collector paused so that the heap
the program built cannot change its time.  Each measured time is scaled by

    normalised = raw * NOMINAL_REF_MS / adjacent_reference_ms

so a host running 30% slow slows the reference by about as much and the
normalised figure stays put.  Raw and normalised figures are both kept.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time

#: What the reference op is scaled to: normalised figures read as if the
#: reference op had taken exactly this long.
NOMINAL_REF_MS = 10.0

#: Repetitions inside one reference measurement; their median is taken, so
#: one preempted repetition does not move the figure.
_REPEATS = 3

#: Size of the reference work.  Large enough (a few MB of dicts, sets and
#: tuples) that cache and memory-bandwidth pressure from other tenants
#: slows it the way it slows the program; a 1200-key version tracked the
#: compile ops worse than no normalisation at all.
_SIZE = 12000
_KEYS = [f"k{i:06d}" for i in range(_SIZE)]
_ROWS = [((i * 7919) % 12011, (i * 104729) % 6133, i) for i in range(_SIZE)]


def _reference_work() -> int:
    table = {key: index for index, key in enumerate(_KEYS)}
    seen = set()
    for key in _KEYS:
        seen.add(table[key] % 977)
    ordered = sorted(_ROWS, key=lambda row: (row[1], row[0]))
    merged = {row[0]: row[2] for row in ordered}
    return len(seen) + len(merged)


def reference_ms() -> float:
    """One reference measurement in milliseconds (median of its repeats)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            _reference_work()
            samples.append((time.perf_counter() - started) * 1000.0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def normalise(raw: float, ref_ms: float) -> float:
    """Scale a raw time (any unit) by the adjacent reference measurement."""
    return raw * NOMINAL_REF_MS / ref_ms


def host_block() -> dict:
    """What the run ran on: printed at the top of every run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    reference_ms()  # warm the reference op itself
    refs = [reference_ms() for _ in range(5)]
    return {
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "host.ref_ms": statistics.median(refs),
        "nominal_ref_ms": NOMINAL_REF_MS,
    }
