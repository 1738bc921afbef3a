"""The four workloads: compile-graph, compile-hyper, serve-zipf, approx-eval.

Closed loop, one process, one client, serial pipeline.  Every workload
runs whole rounds of ops until ``seconds`` have passed.  The host
reference op is timed between compile ops, and between rounds of the
shorter serving and evaluation ops; every op is scaled by the mean of the
two reference measurements around it.  ``gc.collect()`` runs next to each
reference measurement, outside the op timers.

With tracing on, rounds alternate untraced/traced: the untraced rounds
give the end-to-end figures the traced ones are compared with (the
tracing overhead), the traced rounds give the per-layer figures.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import checks
import hostref
import inputs
from tracing import Tracer, compile_patches, engine_patches, serve_patches

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 5
SERVE_BATCH = 50

_clock = time.perf_counter


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below forty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_engine():
    """A new ``HomEngine`` installed as the process default for one op."""
    import repro.homomorphism.engine as engine_module

    engine = engine_module.HomEngine()
    engine_module.DEFAULT_ENGINE = engine
    return engine


class Clock:
    """Op timings with the host reference measured between them."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.ops: list[dict] = []

    def reference(self) -> None:
        gc.collect()
        self.refs.append(hostref.reference_ms())

    def record(self, raw_s: float, **fields) -> None:
        self.ops.append(dict(fields, raw_s=raw_s, ref_index=len(self.refs) - 1))

    def finish(self) -> None:
        """Scale every op by the mean of the references around it."""
        self.reference()
        for op in self.ops:
            i = op.pop("ref_index")
            op["ref_ms"] = (self.refs[i] + self.refs[i + 1]) / 2.0
            op["norm_ms"] = hostref.normalise(op["raw_s"] * 1000.0, op["ref_ms"])

    def done(self, traced: bool) -> list[dict]:
        return [o for o in self.ops if o["ok"] and o["traced"] == traced]


def import_seconds(modules: list[str]) -> float:
    """Wall time of a fresh interpreter importing the workload's layers."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); " + "; ".join(f"import {m}" for m in modules)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = _clock()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return _clock() - started


def measure_setup(modules: list[str], in_process) -> tuple[float, float]:
    """Median (raw, normalised) set-up seconds over ``SETUP_REPEATS``."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        ref = hostref.reference_ms()
        seconds = import_seconds(modules) + in_process()
        ref = (ref + hostref.reference_ms()) / 2.0
        raw.append(seconds)
        norm.append(hostref.normalise(seconds, ref))
    return statistics.median(raw), statistics.median(norm)


def run_rounds(seconds: float, one_round, trace: bool) -> int:
    """Whole rounds until ``seconds`` have passed, and at least one
    untraced (and, when tracing, one traced) round; returns the count."""
    deadline = _clock() + seconds
    rounds = 0
    while rounds < 1 + trace or _clock() < deadline:
        one_round(rounds)
        rounds += 1
    return rounds


def by_query(ops: list[dict]) -> tuple[dict, dict]:
    """Per-query median times (normalised, raw) in ms."""
    groups: dict = {}
    for o in ops:
        groups.setdefault(o["query"], []).append(o)
    norm = {q: statistics.median(o["norm_ms"] for o in g) for q, g in groups.items()}
    raw = {q: statistics.median(o["raw_s"] * 1000.0 for o in g) for q, g in groups.items()}
    return norm, raw


class Result:
    """What a workload hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # ops that raised or were refused
        self.problems: list[str] = []  # outputs the checks rejected
        self.end_to_end: dict = {}
        self.per_layer: dict = {}
        self.report: list[str] = []  # human-readable lines
        self.tracer: Tracer | None = None

    def line(self, text: str) -> None:
        self.report.append(text)

    def fail(self, name: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def check(self, name: str, verify) -> None:
        try:
            verify()
        except checks.CheckFailure as exc:
            self.problems.append(f"{name}: {exc}")

    def gate(self, setup_norm, peak, op_ms, ops_per_s) -> None:
        self.end_to_end = {
            "setup_s": (setup_norm, "s"),
            "peak_rss_mib": (peak, "MiB"),
            "op_ms_geomean": (op_ms, "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
        }

    def trace_layers(self, tracer: Tracer, layers: dict, clock: Clock, headline) -> None:
        """Per-op mean self time (normalised ms) of every layer in
        ``layers`` (span name -> metric), plus the tracing overhead:
        ``headline`` of the traced ops against the untraced ones."""
        traced = clock.done(True)
        scale = {i: 1000.0 * hostref.NOMINAL_REF_MS / o["ref_ms"] for i, o in enumerate(clock.ops)}
        totals = dict.fromkeys(layers.values(), 0.0)
        for op, spans in tracer.self_times().items():
            for span, seconds in spans.items():
                totals[layers[span]] += seconds * scale[op]
        self.per_layer.update({metric: total / len(traced) for metric, total in totals.items()})
        self.per_layer["trace.overhead_pct"] = 100.0 * (
            headline(traced) / headline(clock.done(False)) - 1.0)
        self.per_layer["trace.spans_per_op"] = len(tracer.spans) / len(traced)
        self.tracer = tracer


def _query_headline(ops: list[dict]) -> float:
    return geomean(by_query(ops)[0].values())


# ------------------------------------------------------------------ compile

COMPILE_LAYERS = {
    "approximation.all_approximations": "pipeline.residue_ms",
    "quotients.generate": "quotients.generate_ms",
    "pipeline.check": "pipeline.check_ms",
    "pipeline.reduce": "pipeline.reduce_ms",
    "pipeline.dominance": "pipeline.dominance_ms",
    "pipeline.canonize": "pipeline.canonize_ms",
    "engine.hom_le": "engine.hom_le_ms",
    "approximation.post": "approximation.post_ms",
}
WORK_COUNTS = (
    "generated", "checks_run", "hom_le_calls", "late_canonizations",
    "order_switches", "generation_switches", "generation_probe_switches",
)


def member_rate(stats) -> float:
    """Members among class-check lookups (memo hits included)."""
    return stats.members / max(stats.checks_run + stats.check_memo_hits, 1)


def compile_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.core.approximation import all_approximations
    from repro.core.classes import class_from_name
    from repro.core.pipeline import PipelineStats
    from repro.cq import parse_query

    result = Result()
    rng = random.Random(seed)
    entries = inputs.load_catalog()[name]
    texts = [inputs.rename(e["query"], rng) for e in entries]

    def prepare():
        started = _clock()
        prepared = [(parse_query(t), class_from_name(e["cls"])) for t, e in zip(texts, entries)]
        for query, _ in prepared:
            query.tableau()
        return _clock() - started, prepared

    setup_raw, setup_norm = measure_setup(
        ["repro.core.approximation", "repro.core.pipeline"], lambda: prepare()[0]
    )
    queries = prepare()[1]
    tracer = Tracer()
    layer_patches = compile_patches(tracer)
    clock = Clock()

    def op(index: int, traced: bool):
        query, cls = queries[index]
        engine = fresh_engine()
        stats = PipelineStats()
        if traced:
            patches = engine_patches(tracer, engine)
            layer_patches.install()
            patches.install()
            frame = tracer.begin_op(len(clock.ops), "approximation.all_approximations")
        started = _clock()
        try:
            answers = all_approximations(query, cls, stats=stats)
        finally:
            raw = _clock() - started
            if traced:
                tracer.end_op(frame)
                patches.remove()
                layer_patches.remove()
        return raw, tuple(str(a) for a in answers), stats

    op(0, False)  # warm-up, outside the timers
    outputs: dict = {}
    counts: dict = {}
    unstable: set = set()

    def one_round(round_index: int) -> None:
        traced = trace and round_index % 2 == 1
        for index in rng.sample(range(len(queries)), len(queries)):
            clock.reference()
            result.attempted += 1
            try:
                raw, answers, stats = op(index, traced)
            except Exception as exc:  # counted and reported; the run goes on
                result.fail(entries[index]["name"], exc)
                clock.record(0.0, query=index, traced=traced, ok=False)
                continue
            work = tuple(getattr(stats, f) for f in WORK_COUNTS)
            if counts.setdefault(index, work) != work:
                unstable.add(index)
            outputs.setdefault(index, set()).add(answers)
            clock.record(raw, query=index, traced=traced, ok=True, stats=stats)

    rounds = run_rounds(seconds, one_round, trace)
    peak = peak_rss_mib()
    clock.finish()

    for index, variants in outputs.items():
        entry = entries[index]
        for answers in variants:
            result.check(entry["name"], lambda: checks.check_frontier(
                texts[index], entry["cls"], list(answers), entry["answers"]))
        if len(variants) > 1:
            result.line(f"note: {entry['name']} gave {len(variants)} distinct (checked) answer lists")

    untraced = clock.done(False)
    med_norm, med_raw = by_query(untraced)
    # Throughput of a median round: every query once, at its median time.
    qps_norm = 1000.0 * len(med_norm) / sum(med_norm.values())
    qps_raw = 1000.0 * len(med_raw) / sum(med_raw.values())
    result.gate(setup_norm, peak, geomean(med_norm.values()), qps_norm)
    result.line(f"rounds {rounds}, ops {len(clock.ops)} ({len(untraced)} untraced)")
    result.line(f"compile_ms_geomean {geomean(med_norm.values()):.3f} ms "
                f"(raw {geomean(med_raw.values()):.3f} ms)")
    result.line(f"queries_per_s {qps_norm:.4f} 1/s (raw {qps_raw:.4f} 1/s)")
    result.line(f"setup_s {setup_norm:.4f} s (raw {setup_raw:.4f} s); peak_rss_mib {peak:.1f} MiB")
    for q in sorted(med_norm):
        e = entries[q]
        first = next(o["stats"] for o in untraced if o["query"] == q)
        result.line(
            f"  {e['name']:<10} {e['cls']:<5} median {med_norm[q]:9.2f} ms (raw {med_raw[q]:9.2f})"
            f"  generated {first.generated}  member_rate {member_rate(first):.3f}"
        )
    for index in sorted(unstable):
        result.line(f"work-count flag: {entries[index]['name']} did different work across repeats")

    if trace:
        stats = [o["stats"] for o in clock.done(True)]
        n = len(stats)
        total = lambda f: sum(getattr(s, f) for s in stats)  # noqa: E731
        result.per_layer = {
            "quotients.candidates": total("generated") / n,
            "pipeline.checks_run": total("checks_run") / n,
            "pipeline.member_rate": total("members") / max(total("checks_run") + total("check_memo_hits"), 1),
            "pipeline.hom_le_calls": total("hom_le_calls") / n,
            "pipeline.late_canonizations": total("late_canonizations") / n,
            "pipeline.regime_flips": (total("order_switches") + total("generation_switches")
                                      + total("generation_probe_switches")) / n,
            "workcount.unstable_queries": len(unstable),
        }
        result.trace_layers(tracer, COMPILE_LAYERS, clock, _query_headline)
    return result


# -------------------------------------------------------------------- serve

SERVE_LAYERS = {
    "serve.request": "serve.residue_ms",
    "cq.parse": "cq.parse_ms",
    "serve.key": "serve.key_ms",
    "serve.cache": "serve.cache_ms",
    "serve.core": "serve.core_ms",
    "serve.pipeline": "serve.pipeline_ms",
}


class _Daemon:
    """One ``ApproximationServer`` on a unix socket, in a thread of this process."""

    def __init__(self, path: str) -> None:
        from repro.serve.client import wait_for_server
        from repro.serve.server import ApproximationServer, ServerConfig

        self.server = ApproximationServer(ServerConfig(
            socket_path=path, concurrency=1, cache_capacity=inputs.SERVE_CACHE_CAPACITY,
        ))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_until_complete, args=(self.server.run(),), daemon=True
        )
        self.thread.start()
        wait_for_server(socket_path=path, deadline=60.0)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=60.0)
        if self.thread.is_alive():
            raise RuntimeError("serving daemon did not drain")
        self.loop.close()


def _split(ops: list[dict]) -> tuple[list[float], list[float]]:
    hits = [o["norm_ms"] for o in ops if o["cached"]]
    misses = [o["norm_ms"] for o in ops if not o["cached"]]
    return hits, misses


def _serve_headline(ops: list[dict]) -> float:
    hits, misses = _split(ops)
    return math.sqrt(statistics.median(hits) * statistics.median(misses))


def serve_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.serve.client import ServeClient

    result = Result()
    rng = random.Random(seed)
    entries = inputs.load_catalog()[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"s{os.getpid()}.sock")
    daemons = []

    def start() -> float:
        if os.path.exists(path):
            os.unlink(path)
        started = _clock()
        daemons.append(_Daemon(path))
        return _clock() - started

    def start_and_stop() -> float:
        elapsed = start()
        daemons.pop().stop()
        return elapsed

    setup_raw, setup_norm = measure_setup(["repro.serve.server", "repro.serve.client"], start_and_stop)
    start()
    daemon = daemons.pop()
    tracer = Tracer()
    patches = serve_patches(tracer)
    log = inputs.zipf_log(len(entries))
    clock = Clock()
    responses: dict = {}
    try:
        with ServeClient(socket_path=path, timeout=120.0) as client:
            # Warm-up, outside the timers: a query outside the log, cold then warm.
            for _ in range(2):
                client.approximate("Q() :- E(a, b), E(b, c), E(c, a)", "TW1", all_=True)
            evictions_before = daemon.server.cache.stats.evictions

            def request(template: int, traced: bool) -> None:
                pad = 1 if rng.random() < inputs.PAD_SHARE else 0
                text = inputs.rephrase(entries[template]["query"], rng, pad=pad)
                result.attempted += 1
                if traced:
                    frame = tracer.begin_op(len(clock.ops), "serve.request")
                started = _clock()
                try:
                    response = client.approximate(text, "TW1", all_=True, check=False)
                finally:
                    raw = _clock() - started
                    if traced:
                        tracer.end_op(frame)
                if not response.get("ok"):
                    result.failed += 1
                    result.errors.append(f"{text}: {response.get('error')}")
                    clock.record(raw, template=template, traced=traced, ok=False)
                    return
                responses.setdefault(template, []).append(tuple(response["approximations"]))
                clock.record(raw, template=template, traced=traced, ok=True,
                             cached=response["cached"])

            def one_round(round_index: int) -> None:
                traced = trace and round_index % 2 == 1
                clock.reference()
                if traced:
                    patches.install()
                try:
                    for _ in range(SERVE_BATCH):
                        request(next(log), traced)
                finally:
                    if traced:
                        patches.remove()

            rounds = run_rounds(seconds, one_round, trace)
            evictions = daemon.server.cache.stats.evictions - evictions_before
    finally:
        daemon.stop()
    peak = peak_rss_mib()
    clock.finish()

    for template, seen in responses.items():
        entry = entries[template]
        if any(answers != seen[0] for answers in seen):
            result.problems.append(f"{entry['name']}: responses differ between requests")
        result.check(entry["name"], lambda: checks.check_frontier(
            entry["query"], "TW1", list(seen[0]), entry["answers"]))

    untraced = clock.done(False)
    hits, misses = _split(untraced)
    if not hits or not misses:
        raise RuntimeError(f"need hits and misses, got {len(hits)} hits and {len(misses)} misses")
    raw_hits = [o["raw_s"] * 1000.0 for o in untraced if o["cached"]]
    raw_misses = [o["raw_s"] * 1000.0 for o in untraced if not o["cached"]]
    rps = 1000.0 * len(untraced) / sum(o["norm_ms"] for o in untraced)
    raw_rps = len(untraced) / sum(o["raw_s"] for o in untraced)
    result.gate(setup_norm, peak, _serve_headline(untraced), rps)
    result.line(f"rounds {rounds}, requests {len(clock.ops)} ({len(untraced)} untraced); "
                f"{len(responses)} of {len(entries)} templates seen; cache capacity "
                f"{inputs.SERVE_CACHE_CAPACITY}")
    result.line(f"hit_p50_ms {statistics.median(hits):.4f} ms "
                f"(raw {statistics.median(raw_hits):.4f}; {len(hits)} hits)")
    hit_tail = tail(hits)
    result.line(f"hit_tail_ms {hit_tail[1]:.4f} ms (p{hit_tail[0]:.2f})" if hit_tail
                else "hit_tail_ms n/a (fewer than 40 hits)")
    result.line(f"miss_p50_ms {statistics.median(misses):.4f} ms "
                f"(raw {statistics.median(raw_misses):.4f}; {len(misses)} misses)")
    result.line(f"requests_per_s {rps:.3f} 1/s (raw {raw_rps:.3f} 1/s)")
    result.line(f"setup_s {setup_norm:.4f} s (raw {setup_raw:.4f} s); peak_rss_mib {peak:.1f} MiB")

    if trace:
        traced = clock.done(True)
        result.per_layer = {
            "serve.hit_rate": sum(o["cached"] for o in traced) / len(traced),
            "serve.evictions": evictions,
        }
        result.trace_layers(tracer, SERVE_LAYERS, clock, _serve_headline)
    return result


# ---------------------------------------------------------------- approx-eval

EVAL_LAYERS = {
    "quality.op": "quality.residue_ms",
    "quality.approximate": "quality.approximate_ms",
    "evaluation.eval": "evaluation.eval_ms",
}


def eval_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    from repro.core.approximation import approximate
    from repro.core.classes import class_from_name
    from repro.cq import parse_query
    from repro.cq.structure import Structure
    from repro.evaluation.engine import evaluate
    from repro.evaluation.stats import EvalStats

    result = Result()
    rng = random.Random(seed)
    entries = inputs.load_catalog()[name]
    texts = [inputs.rename(e["query"], rng) for e in entries]
    edges = inputs.digraph_edges(seed)
    built = []

    def build() -> float:
        started = _clock()
        built.append(Structure({"E": edges}, vocabulary={"E": 2}))
        return _clock() - started

    setup_raw, setup_norm = measure_setup(["repro.core.approximation", "repro.evaluation.engine"], build)
    db = built[-1]
    queries = [(parse_query(t), class_from_name(e["cls"])) for t, e in zip(texts, entries)]
    tracer = Tracer()
    traced_approximate = tracer.wrap("quality.approximate", approximate)
    traced_evaluate = tracer.wrap("evaluation.eval", evaluate)
    clock = Clock()

    def op(index: int, traced: bool):
        query, cls = queries[index]
        fresh_engine()
        stats = EvalStats()
        if traced:
            frame = tracer.begin_op(len(clock.ops), "quality.op")
        started = _clock()
        try:
            approximation = (traced_approximate if traced else approximate)(query, cls)
            middle = _clock()
            answers = (traced_evaluate if traced else evaluate)(
                approximation, db, engine="columnar", stats=stats)
        finally:
            ended = _clock()
            if traced:
                tracer.end_op(frame)
        return ended - started, ended - middle, str(approximation), answers, stats

    op(0, False)  # warm-up, outside the timers
    outputs: dict = {}

    def one_round(round_index: int) -> None:
        traced = trace and round_index % 2 == 1
        clock.reference()
        for index in rng.sample(range(len(queries)), len(queries)):
            result.attempted += 1
            try:
                raw, eval_s, approximation, answers, stats = op(index, traced)
            except Exception as exc:  # counted and reported; the run goes on
                result.fail(entries[index]["name"], exc)
                clock.record(0.0, query=index, traced=traced, ok=False)
                continue
            outputs.setdefault(index, set()).add((approximation, answers))
            clock.record(raw, query=index, traced=traced, ok=True, eval_s=eval_s, stats=stats)

    rounds = run_rounds(seconds, one_round, trace)
    peak = peak_rss_mib()
    clock.finish()

    graph = checks.Graph(edges)
    for index, variants in outputs.items():
        entry = entries[index]
        if len(variants) > 1:
            result.problems.append(f"{entry['name']}: repeats gave different outputs")
        for approximation, answers in variants:
            result.check(entry["name"], lambda: checks.check_answers(
                texts[index], entry["cls"], approximation, answers, entry["answers"], graph))

    untraced = clock.done(False)
    med_norm, med_raw = by_query(untraced)
    ops_per_s = 1000.0 * len(med_norm) / sum(med_norm.values())
    eval_norm_s = sum(hostref.normalise(o["eval_s"], o["ref_ms"]) for o in untraced)
    tuples_per_s = db.total_tuples * len(untraced) / eval_norm_s
    raw_tuples_per_s = db.total_tuples * len(untraced) / sum(o["eval_s"] for o in untraced)
    result.gate(setup_norm, peak, geomean(med_norm.values()), ops_per_s)
    result.line(f"rounds {rounds}, ops {len(clock.ops)} ({len(untraced)} untraced); database "
                f"{db.total_tuples} edges over {inputs.DB_NODES} nodes, skew {inputs.DB_SKEW}")
    result.line(f"answer_ms_geomean {geomean(med_norm.values()):.3f} ms "
                f"(raw {geomean(med_raw.values()):.3f} ms)")
    result.line(f"eval_tuples_per_s {tuples_per_s:.1f} 1/s (raw {raw_tuples_per_s:.1f} 1/s)")
    result.line(f"setup_s {setup_norm:.4f} s (raw {setup_raw:.4f} s); peak_rss_mib {peak:.1f} MiB")
    for q in sorted(med_norm):
        answers = next(iter(outputs[q]))[1]
        result.line(f"  {entries[q]['name']:<12} median {med_norm[q]:8.2f} ms"
                    f" (raw {med_raw[q]:8.2f})  answers {len(answers)}")

    if trace:
        stats = [o["stats"] for o in clock.done(True)]
        n = len(stats)
        result.per_layer = {
            "evaluation.rows_scanned": sum(
                b["rows_scanned"] for s in stats for b in s.operators.values()) / n,
            "evaluation.rows_hashed": sum(s.rows_hashed for s in stats) / n,
            "evaluation.rows_emitted": sum(s.rows_emitted for s in stats) / n,
            "evaluation.intermediate_max": max(s.intermediate_max for s in stats),
        }
        result.trace_layers(tracer, EVAL_LAYERS, clock, _query_headline)
    return result


WORKLOADS = {
    "compile-graph": compile_workload,
    "compile-hyper": compile_workload,
    "serve-zipf": serve_workload,
    "approx-eval": eval_workload,
}
