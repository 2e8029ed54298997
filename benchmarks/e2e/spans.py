"""Span tracing for the traced benchmark run, and the per-layer split it yields.

The traced run wraps the public callables of each layer at run time,
from the benchmark's own code (:func:`install`); nothing under ``src/``
knows about it.  A span records its name, kind, start and end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` and therefore
comparable across processes), the span that was open on the same thread
when it started, and its pid and thread id.  Spans of the process that
installed the tracer stay in memory.  Pool workers inherit the wrappers
through fork and append their spans to ``spans-<pid>.jsonl`` in the trace
directory, which :meth:`Tracer.collect` merges after every call.

:func:`attribute` and :func:`call_metrics` are pure functions of span
lists, so the unit tests drive them with synthetic spans.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: layer of every span kind.  The root ``call`` span belongs to no layer:
#: its self time is the part of the wall no layer span covers.
KIND_LAYER = {
    "make": "frameworks",
    "substrate_map": "frameworks",
    "close": "frameworks",
    "api": "core",
    "merge": "core",
    "kernel": "analysis",
    "executor_map": "executors",
    "plane": "shm",
    "put": "shm",
    "ingest": "shm",
    "adopt": "shm",
    "resolve": "shm",
    "segment": "shm",
    "sizeof": "serialization",
    "chunk_read": "trajectory",
}
LAYERS = sorted(set(KIND_LAYER.values()))

#: unit of every metric :func:`call_metrics` returns
CALL_METRIC_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unattributed_share": "fraction",
    "analysis.kernel_s": "s",
    "analysis.kernel_calls": "count",
    "analysis.kernel_share": "fraction",
    "core.merge_s": "s",
    "frameworks.map_calls": "count",
    "frameworks.plane_s": "s",
    "serialization.sizeof_s": "s",
    "executors.map_calls": "count",
    "executors.first_task_wait_s": "s",
    "executors.busy_s": "s",
    "executors.overhead_s": "s",
    "executors.utilization": "fraction",
    "shm.put_calls": "count",
    "shm.put_s": "s",
    "shm.ingest_calls": "count",
    "shm.ingest_s": "s",
    "shm.adopt_calls": "count",
    "shm.adopt_s": "s",
    "shm.resolve_s": "s",
    "shm.segments_created": "count",
    "trajectory.chunk_reads": "count",
    "trajectory.chunk_read_s": "s",
    "trajectory.bytes_read": "B",
}


@dataclass
class Span:
    """One timed call into a layer."""

    id: str
    parent: Optional[str]
    name: str
    kind: str
    start: float
    end: float
    pid: int
    tid: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory (this process) or per-pid files (forked workers)."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._sink = None  # (pid, open file) once this is a forked worker

    def _stack(self) -> List[str]:
        # a forked worker inherits the forking thread's stack: start afresh
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            local.pid, local.stack = os.getpid(), []
        return local.stack

    @contextlib.contextmanager
    def span(self, name: str, kind: str) -> Iterator[Span]:
        """Time the body as one span of ``kind``."""
        stack = self._stack()
        pid = os.getpid()
        span = Span(f"{pid}-{next(self._ids)}", stack[-1] if stack else None,
                    name, kind, 0.0, 0.0, pid, threading.get_ident())
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._emit(span)

    def wrap(self, fn: Callable, kind: str,
             attrs: Optional[Callable[[tuple, object], dict]] = None) -> Callable:
        """``fn`` timed as a span; ``attrs(args, result)`` annotates it."""
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, kind) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, result)
            return result

        return traced

    def _emit(self, span: Span) -> None:
        if span.pid == self.pid:
            self.spans.append(span)
            return
        if self._sink is None or self._sink[0] != span.pid:
            path = self.trace_dir / f"spans-{span.pid}.jsonl"
            self._sink = (span.pid, open(path, "a", buffering=1))
        self._sink[1].write(json.dumps([span.id, span.parent, span.name, span.kind,
                                        span.start, span.end, span.pid, span.tid,
                                        span.attrs]) + "\n")

    def collect(self) -> List[Span]:
        """Take every span recorded so far, worker files included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()
        return spans


def _executor_attrs(args: tuple, result: object) -> dict:
    executor = args[0]
    timings = executor.timings
    return {"workers": executor.workers,
            "busy_s": sum(t.duration for t in timings),
            "first_start": min((t.start for t in timings), default=None)}


def _chunk_attrs(args: tuple, result) -> dict:
    return {"bytes": int(result.nbytes)}


def install(tracer: Tracer) -> None:
    """Wrap each layer's callables with ``tracer`` for the rest of the process.

    Module attributes are replaced where the caller looks them up (for
    example ``merge_component_sets`` inside :mod:`repro.core.leaflet`),
    ``PSA_METRICS`` entries in place, and methods on their classes.
    """
    # import_module, because the package attribute ``repro.core.psa`` is psa()
    neighbors, leaflet, psa, base, executors, shm, streaming = (
        importlib.import_module(f"repro.{name}") for name in (
            "analysis.neighbors", "core.leaflet", "core.psa", "frameworks.base",
            "frameworks.executors", "frameworks.shm", "trajectory.streaming"))
    from repro.frameworks import DaskLiteClient, MPIFramework, PilotFramework, SparkLiteContext

    for key, fn in list(psa.PSA_METRICS.items()):
        psa.PSA_METRICS[key] = tracer.wrap(fn, "kernel")
    targets = [
        (psa, "window_minima", "kernel", None),
        (neighbors.BallTree, "__init__", "kernel", None),
        (neighbors.BallTree, "query_radius_pairs", "kernel", None),
        (leaflet, "radius_edges", "kernel", None),
        (leaflet, "connected_components", "kernel", None),
        (leaflet, "merge_component_sets", "merge", None),
        (leaflet, "nbytes_of", "sizeof", None),
        (base, "nbytes_of", "sizeof", None),
        (base, "serialized_size", "sizeof", None),
        (base, "share_payload", "plane", None),
        (base, "adopt_payload", "plane", None),
        (executors, "share_payload", "plane", None),
        (executors, "adopt_payload", "plane", None),
        (shm.SharedMemoryStore, "put", "put", None),
        (shm.SharedMemoryStore, "ingest", "ingest", None),
        (shm.SharedMemoryStore, "adopt", "adopt", None),
        (shm.BlockRef, "resolve", "resolve", None),
        (shm, "_copy_into_segment", "segment", None),
        (streaming.FrameChunkReader, "read_chunk", "chunk_read", _chunk_attrs),
    ]
    targets += [(cls, "map_tasks", "substrate_map", None)
                for cls in (SparkLiteContext, DaskLiteClient, PilotFramework, MPIFramework)]
    targets += [(cls, "map_tasks", "executor_map", _executor_attrs)
                for cls in (executors.SerialExecutor, executors.ThreadExecutor,
                            executors.ProcessExecutor, executors.SharedMemoryExecutor)]
    for owner, attr, kind, attrs in targets:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), kind, attrs))


# --------------------------------------------------------------------- #
# pure analysis of one call's spans
# --------------------------------------------------------------------- #
def resolve_parents(spans: List[Span], root: Span) -> Dict[str, str]:
    """Parent id of every span but the root.

    A span opened on a pool thread or in a forked worker has no parent of
    its own; it belongs to the innermost span open on the root's thread
    when it started (spans on one thread nest, so that is the latest
    started one still open).
    """
    # outer before inner where starts tie, so the search below meets the inner first
    home = sorted((s for s in spans if s.pid == root.pid and s.tid == root.tid),
                  key=lambda s: (s.start, -s.end))
    starts = [s.start for s in home]
    known = {s.id for s in spans}
    parents = {}
    for span in spans:
        if span is root:
            continue
        if span.parent in known:
            parents[span.id] = span.parent
            continue
        i = bisect.bisect_right(starts, span.start) - 1
        while i >= 0 and home[i].end <= span.start:
            i -= 1
        parents[span.id] = home[i].id if i >= 0 else root.id
    return parents


def attribute(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self time of every span, splitting the root's wall without overlap.

    At each instant the time goes to the innermost spans open then: a
    span keeps the instants none of its children cover, and an instant
    covered by ``k`` children (on pool threads or workers running in
    parallel) gives each of them ``1/k`` of it.  Children are clipped to
    their parent, so the self times add up to the root's duration
    exactly; the root's own share is the unattributed time.
    """
    parents = resolve_parents(spans, root)
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span is not root:
            children[parents[span.id]].append(span)
    self_time: Dict[str, float] = defaultdict(float)
    # (span, [(start, stop, weight), ...]) — the share of the wall a span holds
    work = [(root, [(root.start, root.end, 1.0)])]
    while work:
        node, pieces = work.pop()
        kids = sorted(children.get(node.id, ()), key=lambda s: s.start)
        if not kids:
            self_time[node.id] += sum(w * (b - a) for a, b, w in pieces)
            continue
        lo, hi = node.start, node.end
        points = sorted({p for a, b, _ in pieces for p in (a, b)}
                        | {min(max(t, lo), hi) for k in kids for t in (k.start, k.end)})
        shares: Dict[str, list] = defaultdict(list)
        active: List[Span] = []
        nxt = piece = 0
        for x, y in zip(points, points[1:]):
            while nxt < len(kids) and kids[nxt].start <= x:
                active.append(kids[nxt])
                nxt += 1
            active = [k for k in active if k.end > x]
            while piece < len(pieces) and pieces[piece][1] <= x:
                piece += 1
            if piece == len(pieces) or pieces[piece][0] > x:
                continue  # this node holds no share of [x, y)
            weight = pieces[piece][2]
            if not active:
                self_time[node.id] += weight * (y - x)
                continue
            for kid in active:
                shares[kid.id].append((x, y, weight / len(active)))
        work.extend((kid, shares.get(kid.id, [])) for kid in kids)
    return self_time


def call_metrics(spans: List[Span], workers: int) -> Dict[str, float]:
    """Per-layer metrics of one call from its spans (see ``CALL_METRIC_UNITS``).

    ``*.self_s`` and ``trace.unattributed_share`` split the wall; every
    other ``_s`` metric sums span durations, which can exceed the wall
    when spans run in parallel.
    """
    root = next(s for s in spans if s.kind == "call")
    wall = root.duration
    self_time = attribute(spans, root)
    by_kind: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_kind[span.kind].append(span)

    def total(kind: str) -> float:
        return sum(s.duration for s in by_kind[kind])

    kinds = {s.id: s.kind for s in spans}
    kernels = [s for s in by_kind["kernel"] if kinds.get(s.parent) != "kernel"]
    kernel_s = sum(s.duration for s in kernels)
    execs = by_kind["executor_map"]
    busy = sum(s.attrs["busy_s"] for s in execs)
    exec_capacity = sum(s.attrs["workers"] * s.duration for s in execs)
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span in spans:
        layer = KIND_LAYER.get(span.kind)
        if layer is not None:
            metrics[f"{layer}.self_s"] += self_time[span.id]
    unattributed = self_time[root.id]
    if abs(sum(metrics.values()) + unattributed - wall) > 1e-6 * wall:
        raise RuntimeError("layer self times and unattributed time do not add up to the wall")
    metrics.update({
        "trace.wall_s": wall,
        "trace.unattributed_share": unattributed / wall,
        "analysis.kernel_s": kernel_s,
        "analysis.kernel_calls": len(kernels),
        "analysis.kernel_share": kernel_s / (workers * wall),
        "core.merge_s": total("merge"),
        "frameworks.map_calls": len(by_kind["substrate_map"]),
        "frameworks.plane_s": total("plane"),
        "serialization.sizeof_s": total("sizeof"),
        "executors.map_calls": len(execs),
        "executors.first_task_wait_s": sum(s.attrs["first_start"] - s.start for s in execs
                                           if s.attrs["first_start"] is not None),
        "executors.busy_s": busy,
        "executors.overhead_s": sum(s.duration - s.attrs["busy_s"] / s.attrs["workers"]
                                    for s in execs),
        "executors.utilization": busy / exec_capacity if exec_capacity else 0.0,
        "shm.put_calls": len(by_kind["put"]),
        "shm.put_s": total("put"),
        "shm.ingest_calls": len(by_kind["ingest"]),
        "shm.ingest_s": total("ingest"),
        "shm.adopt_calls": len(by_kind["adopt"]),
        "shm.adopt_s": total("adopt"),
        "shm.resolve_s": total("resolve"),
        "shm.segments_created": len(by_kind["segment"]),
        "trajectory.chunk_reads": len(by_kind["chunk_read"]),
        "trajectory.chunk_read_s": total("chunk_read"),
        "trajectory.bytes_read": sum(s.attrs["bytes"] for s in by_kind["chunk_read"]),
    })
    return metrics


#: unit of every metric :func:`report_counters` returns
COUNTER_UNITS = {
    "executors.tasks_retried": "count",
    "executors.tasks_lost": "count",
    "pilot.batches": "count",
    "pilot.scheduling_s": "s",
    "shm.bytes_spilled": "B",
    "shm.spill_wait_s": "s",
    "shm.spill_hidden_s": "s",
    "shm.peak_resident_bytes": "B",
    "shm.bytes_shared": "B",
    "shm.bytes_pickled": "B",
    "shm.bytes_results_pickled": "B",
}


def report_counters(report, fw) -> Dict[str, float]:
    """Program counters of one call: its ``RunMetrics`` and the pilot's ``AgentStats``."""
    m = report.metrics
    agent = fw.pilot.agent.stats if hasattr(fw, "pilot") else None
    return {
        "executors.tasks_retried": m.tasks_retried,
        "executors.tasks_lost": m.tasks_lost,
        "pilot.batches": agent.batches_pulled if agent else 0,
        "pilot.scheduling_s": agent.scheduling_time_s if agent else 0.0,
        "shm.bytes_spilled": m.bytes_spilled,
        "shm.spill_wait_s": m.spill_wait_seconds,
        "shm.spill_hidden_s": m.spill_hidden_seconds,
        "shm.peak_resident_bytes": m.peak_resident_bytes,
        "shm.bytes_shared": m.bytes_shared,
        "shm.bytes_pickled": m.bytes_pickled,
        "shm.bytes_results_pickled": m.bytes_results_pickled,
    }


def chrome_trace(spans: List[Span]) -> dict:
    """Spans in Chrome trace-event format (load in Perfetto or chrome://tracing)."""
    origin = min(s.start for s in spans)
    return {"traceEvents": [
        {"name": s.name, "cat": KIND_LAYER.get(s.kind, "bench"), "ph": "X",
         "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
         "pid": s.pid, "tid": s.tid, "args": {"kind": s.kind, **s.attrs}}
        for s in spans]}
