"""Workload process started by run.py: prepares one workload and times its calls.

``python child.py --workload W --seed S --workdir D [--trace-dir T]``
prepares the inputs, times its first (cold) call and a few warm-up calls,
and then serves blocks of calls: it reads one JSON request per line on
stdin (``{"op": "run", "calls": n}`` or ``{"op": "finish"}``) and
answers each with one JSON line on stdout.  run.py pins the BLAS thread
counts in this process's environment before it imports numpy.

With ``--cold --expect DIGEST`` the process never calls the API itself:
each call it is asked for runs in a child forked from it, so every one
is the first call of a process that has imported the library and
generated the inputs, without repeating the interpreter start-up and the
input generation.  This runs apart from the serving process, whose peak
RSS would otherwise count the forked children.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import measure
import spans
import workloads
from repro.frameworks import make_framework

#: calls made after the cold call and before the first timed block, so
#: that allocator growth and lazy set-up settle (the leaflet workload
#: gets faster over its first few calls)
WARMUP_CALLS = 3

#: name prefixes of what a run leaves behind when cleanup fails:
#: shared-memory segments (stores, worker-published results) and spill dirs
SHM_PREFIXES = ("psm_", "rpub")
SPILL_PREFIX = "repro-spill-"


def leftovers() -> set:
    """Shared-memory segments and spill directories present right now."""
    shm = os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []
    return measure.leftover_names(shm, os.listdir(tempfile.gettempdir()),
                                  SHM_PREFIXES, SPILL_PREFIX)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def call(workload: workloads.Workload, tracer: Optional[spans.Tracer]):
    """One user call: build the framework, run the analysis, close it."""
    span = tracer.span if tracer is not None else (lambda name, kind: contextlib.nullcontext())
    with span("call", "call"):
        with span("make_framework", "make"):
            fw = make_framework(workload.substrate, **workload.framework_kwargs)
        try:
            with span(workload.api.__name__, "api"):
                result, report = workload.api(workload.data, fw, **workload.api_kwargs)
        finally:
            with span("close", "close"):
                fw.close()
    return result, report, fw


@dataclass
class Outcome:
    """What one call produced."""

    wall_s: float
    cpu_s: float
    digest: Optional[str]
    error: Optional[str]
    layers: Optional[dict] = None
    spans: Optional[List[spans.Span]] = None


def timed_call(workload, tracer=None) -> Outcome:
    """Time one call; with a tracer, also split it into layers."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        result, report, fw = call(workload, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.collect()
        return Outcome(wall, cpu_seconds() - cpu0, None, f"{type(exc).__name__}: {exc}")
    outcome = Outcome(time.perf_counter() - start, cpu_seconds() - cpu0,
                      workloads.digest(result), None)
    if tracer is not None:
        outcome.spans = tracer.collect()
        outcome.layers = {**spans.call_metrics(outcome.spans, workloads.WORKERS),
                          **spans.report_counters(report, fw)}
    return outcome


def forked_cold_call(workload: workloads.Workload, tracer=None) -> Outcome:
    """Time the first call of a child forked from this call-free process."""
    read_fd, write_fd = os.pipe()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            outcome = timed_call(workload)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump([outcome.wall_s, outcome.cpu_s, outcome.digest, outcome.error], pipe)
            status = 0
        finally:
            os._exit(status)  # never unwind into the parent's frames
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        raise RuntimeError(f"cold-call process ended with status {status} and no result")
    return Outcome(*json.loads(text))


def errors_of(outcomes: List[Outcome], expected: str) -> List[str]:
    """Why each failed call failed: its exception, or a wrong output."""
    return [o.error or "output differs from the serial reference"
            for o in outcomes if o.digest != expected]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--expect")
    args = parser.parse_args()
    # the protocol owns stdout; anything the library prints goes to stderr
    protocol, sys.stdout = sys.stdout, sys.stderr

    def reply(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    # each watch covers this process's own calls only: the other workload
    # processes are idle while it serves a request
    leaks = measure.LeakCounter(leftovers)
    workload = workloads.prepare(args.workload, args.seed, args.workdir)
    if args.cold:
        # not even the reference: psa_serial shares the kernels with the call
        expected, first, call = args.expect, [], forked_cold_call
    else:
        with leaks.watch():
            cold = timed_call(workload)
        expected = workloads.digest(workload.reference())
        with leaks.watch():
            first = [cold] + [timed_call(workload) for _ in range(WARMUP_CALLS)]
        call = timed_call
    tracer = None
    if args.trace_dir is not None:
        tracer = spans.Tracer(args.trace_dir)
        spans.install(tracer)
    reply({"setup_s": first[0].wall_s if first else None, "expect": expected,
           "attempted": len(first),
           "failed": measure.count_failed([o.digest for o in first], expected),
           "errors": errors_of(first, expected)})
    last_spans = None
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "finish":
            break
        with leaks.watch():
            block = [call(workload, tracer) for _ in range(request["calls"])]
        last_spans = next((o.spans for o in reversed(block) if o.spans), last_spans)
        reply({"walls": [o.wall_s for o in block], "cpus": [o.cpu_s for o in block],
               "failed": measure.count_failed([o.digest for o in block], expected),
               "errors": errors_of(block, expected),
               "layers": [o.layers for o in block if o.layers is not None]})
    if last_spans:
        (args.trace_dir / "last_call.json").write_text(json.dumps(spans.chrome_trace(last_spans)))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reply({"peak_rss_mb": (own + workers) / 1024.0, "leaked": leaks.count})


if __name__ == "__main__":
    main()
