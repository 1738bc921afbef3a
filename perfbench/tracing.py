"""Spans around calls into the program's layers, recorded from here.

A traced round installs wrappers over the public entry points of each
layer (module functions, class methods, the per-op engine's methods),
records one span per call — name, start, end, parent span, op id — and
removes the wrappers again afterwards.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans'
durations minus the parts their child spans cover; the op's root span
keeps whatever no layer span covers (the residue).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self._ids = itertools.count()
        self._local = threading.local()
        #: Root span of the op in flight: spans opened on a thread with an
        #: empty stack (the serving daemon's threads) hang under it.
        self.root = -1
        self.op = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        frame = (sid, name, _clock(), stack[-1] if stack else self.root)
        stack.append(sid)
        return frame

    def end(self, frame: tuple) -> float:
        ended = _clock()
        self._stack().pop()
        sid, name, started, parent = frame
        self.spans.append((sid, name, started, ended, parent, self.op))
        return ended - started

    def begin_op(self, op: int, name: str) -> tuple:
        self.op = op
        frame = self.begin(name)
        self.root = frame[0]
        return frame

    def end_op(self, frame: tuple) -> float:
        self.root = -1
        return self.end(frame)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return traced

    def wrap_stream(self, name: str, fn):
        """Wrap a generator function: every ``next`` on the stream is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedStream(tracer, name, fn(*args, **kwargs))

        return traced

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict:
        """``{op: {span name: self seconds}}`` plus a consistency check:
        every op's self times sum to its root span's duration."""
        covered = defaultdict(float)
        for sid, name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        per_op: dict = defaultdict(lambda: defaultdict(float))
        roots: dict = {}
        for sid, name, start, end, parent, op in self.spans:
            own = (end - start) - covered.get(sid, 0.0)
            if own < -1e-6:
                raise AssertionError(f"span {name} covers less than its children ({own:.6f} s)")
            per_op[op][name] += own
            if parent < 0:
                roots[op] = end - start
        for op, layers in per_op.items():
            total = sum(layers.values())
            if not math.isclose(total, roots.get(op, -1.0), rel_tol=1e-6, abs_tol=1e-6):
                raise AssertionError(f"op {op}: self times {total:.6f} s != op time {roots.get(op)}")
        return per_op

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\top\n")
            for sid, name, start, end, parent, op in self.spans:
                handle.write(f"{sid}\t{name}\t{start:.7f}\t{end:.7f}\t{parent}\t{op}\n")


class _TracedStream:
    def __init__(self, tracer: Tracer, name: str, stream) -> None:
        self._tracer = tracer
        self._name = name
        self._stream = stream

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.begin(self._name)
        try:
            return next(self._stream)
        finally:
            self._tracer.end(frame)


class Patches:
    """Attribute overrides that can be installed and removed repeatedly."""

    def __init__(self) -> None:
        self._items: list[tuple] = []  # (owner, attribute, original, replacement)

    def add(self, owner, attribute: str, replacement) -> None:
        self._items.append((owner, attribute, getattr(owner, attribute), replacement))

    def install(self) -> None:
        for owner, attribute, _, replacement in self._items:
            setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, original, _ in self._items:
            setattr(owner, attribute, original)


def compile_patches(tracer: Tracer) -> Patches:
    """Layer boundaries of one compile op (``all_approximations``)."""
    import repro.core.approximation as approximation
    import repro.core.pipeline as pipeline
    import repro.core.quotients as quotients

    patches = Patches()
    for module in (pipeline, quotients):
        patches.add(module, "canonical_key_indexed",
                    tracer.wrap("pipeline.canonize", module.canonical_key_indexed))
    patches.add(pipeline, "iter_quotient_candidates",
                tracer.wrap_stream("quotients.generate", pipeline.iter_quotient_candidates))
    patches.add(pipeline, "iter_extended_candidates",
                tracer.wrap_stream("quotients.generate", pipeline.iter_extended_candidates))
    patches.add(pipeline.MembershipTester, "__call__",
                tracer.wrap("pipeline.check", pipeline.MembershipTester.__call__))
    for method in ("resolve", "add"):
        patches.add(pipeline.Frontier, method,
                    tracer.wrap("pipeline.reduce", getattr(pipeline.Frontier, method)))
    patches.add(pipeline.Frontier, "_scan_dominance",
                tracer.wrap("pipeline.dominance", pipeline.Frontier._scan_dominance))
    patches.add(approximation, "core_tableau",
                tracer.wrap("approximation.post", approximation.core_tableau))
    return patches


def engine_patches(tracer: Tracer, engine) -> Patches:
    """The per-op engine's order queries."""
    patches = Patches()
    patches.add(engine, "hom_le", tracer.wrap("engine.hom_le", engine.hom_le))
    patches.add(engine, "hom_le_many", tracer.wrap("engine.hom_le", engine.hom_le_many))
    return patches


def serve_patches(tracer: Tracer) -> Patches:
    """Layer boundaries inside the serving daemon's request path."""
    import repro.serve.server as server
    from repro.serve.cache import ResultCache

    patches = Patches()
    patches.add(server, "parse_query", tracer.wrap("cq.parse", server.parse_query))
    patches.add(server, "canonical_result_key", tracer.wrap("serve.key", server.canonical_result_key))
    patches.add(ResultCache, "get", tracer.wrap("serve.cache", ResultCache.get))
    patches.add(ResultCache, "put", tracer.wrap("serve.cache", ResultCache.put))
    patches.add(server, "canonical_representative",
                tracer.wrap("serve.core", server.canonical_representative))
    patches.add(server, "all_approximations", tracer.wrap("serve.pipeline", server.all_approximations))
    patches.add(server, "approximate", tracer.wrap("serve.pipeline", server.approximate))
    return patches
