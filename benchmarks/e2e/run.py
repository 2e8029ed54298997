"""End-to-end benchmark: four workloads through the public API, one call at a time.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--trace [0|1]]
                                  [--quick] [--check] [--out F]

A closed loop: one client, one call at a time, no think time.  Every
workload runs in its own long-lived process (``child.py``) with the BLAS
thread counts pinned to 1 and makes a fixed number of timed calls
(``workloads.TIMED_CALLS``) in rounds of ten.  Only one process is active
at a time: a workload's other processes spread their calls evenly over
the same rounds, and with several workloads the rounds take turns, so
drift of a shared machine spreads over all of them.  Every output is
checked bit for bit against the serial reference.

Without ``--trace`` the run reports the end-to-end metrics: the peak
RSS and ``setup_s``, the median of 21 cold calls.  A cold call is the
first call of a process that has imported the library and generated the
inputs: the untraced process's own, and 20 made by another process, each
in a child forked from it.  ``--trace`` (or ``--trace 1``) reports the
per-layer metrics instead: the untraced calls' wall and CPU time, and
the layer split of 30 calls made by a second process with every layer's
callables wrapped in spans (``spans.py``), so that ``trace.overhead``
compares like with like.  ``--seconds`` is accepted for callers that
pass the run length and must equal ``run_seconds`` of BENCHMARK.json,
the length the call counts are sized to.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

import measure  # noqa: E402 - needs the library source on the path
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.bench.stats import median  # noqa: E402

#: the default seed; seed 7 is held out to check claims made on this one
DEFAULT_SEED = 2018
BLOCK_CALLS = 10
TRACED_CALLS = 30
QUICK_CALLS = 5
#: cold calls made by one more process per workload, besides the first
#: call of the untraced process
COLD_CALLS = 20
REPLY_TIMEOUT_S = 150.0

#: end-to-end metrics: the ones steady enough across runs for a bound of
#: 0.1 or less on the shared reference machine (README.md has the spreads)
E2E_UNITS = {
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: the untraced calls' time, which misses a 0.1 bound there: reported
#: with the per-layer metrics
CALL_UNITS = {
    "wall_s_p50": "s",
    "wall_s_p90": "s",
    "cpu_s_per_op": "s",
}
PER_LAYER_UNITS = {
    **CALL_UNITS,
    **spans.CALL_METRIC_UNITS,
    **spans.COUNTER_UNITS,
    "trace.overhead": "fraction",
    "shm.leaked_segments": "count",
}


class Child:
    """One workload process and a thread that queues its reply lines."""

    def __init__(self, args, env) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.lines: "queue.Queue" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def reply(self) -> dict:
        try:
            line = self.lines.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("workload process did not answer in time") from None
        if line is None:
            raise RuntimeError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def stop(self) -> None:
        """Let the process exit on end of input; kill it if it does not."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()


class Serving:
    """Calls collected from one long-lived workload process.

    ``role`` is ``plain`` (the untraced calls), ``traced`` (calls split
    into layers) or ``cold`` (cold calls, each in a forked child).
    """

    def __init__(self, workload: str, role: str, total: int) -> None:
        self.workload = workload
        self.role = role
        self.total = total
        self.child = None
        self.setup_s = None
        self.walls: list = []
        self.cpus: list = []
        self.layers: list = []
        self.errors: list = []
        self.attempted = 0
        self.failed = 0
        self.final: dict = {}

    def absorb(self, reply: dict) -> None:
        self.walls += reply.get("walls", [])
        self.cpus += reply.get("cpus", [])
        self.layers += reply.get("layers", [])
        self.attempted += reply.get("attempted", len(reply.get("walls", [])))
        self.failed += reply["failed"]
        self.errors += reply["errors"]


def child_env(tmp: Path) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def plan(names, quick: bool, trace: bool):
    """The servings of a run, each with its number of calls."""
    servings = []
    for w in names:
        servings.append(Serving(w, "plain", QUICK_CALLS if quick else workloads.TIMED_CALLS[w]))
        if trace:
            servings.append(Serving(w, "traced", TRACED_CALLS))
        elif not quick:
            servings.append(Serving(w, "cold", COLD_CALLS))
    return servings


def run_workloads(names, seed: int, quick: bool, trace: bool, rundir: Path) -> dict:
    """Run the workloads; ``{workload: summary}`` (see :func:`summarize`)."""
    env = child_env(rundir / "tmp")
    servings = plan(names, quick, trace)
    expect = {}
    try:
        for i, s in enumerate(servings):
            args = ["--workload", s.workload, "--seed", str(seed),
                    "--workdir", str(rundir / f"work{i}")]
            if s.role == "traced":
                (rundir / f"trace{i}").mkdir()
                args += ["--trace-dir", str(rundir / f"trace{i}")]
            elif s.role == "cold":
                args += ["--cold", "--expect", expect[s.workload]]
            s.child = Child(args, env)
            ready = s.child.reply()
            s.absorb(ready)
            s.setup_s = ready["setup_s"]
            expect.setdefault(s.workload, ready["expect"])
        # a workload runs in rounds of one block of its untraced calls; its
        # other servings spread their calls evenly over the same rounds
        rounds = {s.workload: -(-s.total // BLOCK_CALLS) for s in servings if s.role == "plain"}
        for r in range(max(rounds.values())):
            for s in servings:
                n = rounds[s.workload]
                calls = measure.share(s.total, n, r) if r < n else 0
                if calls:
                    s.absorb(s.child.request({"op": "run", "calls": calls}))
        for i, s in enumerate(servings):
            s.final = s.child.request({"op": "finish"})
            dump = rundir / f"trace{i}" / "last_call.json"
            if dump.exists():
                shutil.copy(dump, RESULTS / f"trace-{s.workload}.json")
    finally:
        for s in servings:
            if s.child is not None:
                s.child.stop()
    return {w: summarize([s for s in servings if s.workload == w], trace) for w in names}


def summarize(servings, trace: bool) -> dict:
    """One workload's result: the four result keys plus what stands behind them."""
    role = {s.role: s for s in servings}
    plain = role["plain"]
    setups = [plain.setup_s] + (role["cold"].walls if "cold" in role else [])
    attempted = sum(s.attempted for s in servings)
    failed = sum(s.failed for s in servings)
    leaked = sum(s.final["leaked"] for s in servings)
    p90, beyond = measure.percentile(plain.walls, 0.9)
    values = {"wall_s_p50": median(plain.walls), "wall_s_p90": p90,
              "cpu_s_per_op": sum(plain.cpus) / len(plain.cpus),
              "peak_rss_mb": plain.final["peak_rss_mb"], "setup_s": median(setups)}
    samples = {"wall_s": plain.walls, "cpu_s": plain.cpus, "setup_s": setups,
               "beyond_p90": beyond}
    if trace:
        traced = role["traced"]
        for name in {**spans.CALL_METRIC_UNITS, **spans.COUNTER_UNITS}:
            values[name] = median([layer[name] for layer in traced.layers]) if traced.layers else 0.0
        values["trace.overhead"] = median(traced.walls) / median(plain.walls) - 1
        values["shm.leaked_segments"] = leaked
        samples["traced_wall_s"] = traced.walls
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in sorted(units.items())},
            "calls": {name: values[name] for name in CALL_UNITS},
            "leaked": leaked, "errors": sorted({e for s in servings for e in s.errors}),
            "samples": samples}


def report(name: str, summary: dict, seed: int) -> None:
    """Print one workload's metrics by name with their units."""
    samples = summary["samples"]
    traced = f" (+{len(samples['traced_wall_s'])} traced)" if "traced_wall_s" in samples else ""
    print(f"{name}  seed={seed}  timed calls={len(samples['wall_s'])}{traced}  "
          f"attempted={summary['attempted']}  failed={summary['failed']}  "
          f"error_rate={measure.error_rate(summary['attempted'], summary['failed']):.4g}  "
          f"leaked={summary['leaked']}")
    rows = [(m, e["value"], e["unit"]) for m, e in summary["metrics"].items()]
    if "wall_s_p50" not in summary["metrics"]:
        rows += [(m, v, CALL_UNITS[m]) for m, v in summary["calls"].items()]
    for metric, value, unit in rows:
        note = ""
        if metric == "wall_s_p90":
            note = f"  ({samples['beyond_p90']} samples beyond)"
        elif metric == "setup_s":
            note = f"  (median of {len(samples['setup_s'])} cold calls)"
        print(f"  {metric:<30} {value:>14.6g} {unit}{note}")
    for error in summary["errors"][:5]:
        print(f"  error: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="must equal run_seconds of BENCHMARK.json if given")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help=f"report the per-layer metrics of {TRACED_CALLS} traced calls")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_CALLS} calls per workload and one cold call")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the metrics match BENCHMARK.json and nothing leaked")
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.NAMES)
    unknown = sorted(set(names) - set(workloads.NAMES))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {workloads.NAMES}")
    if args.seconds is not None and args.seconds != measure.load_run_seconds():
        parser.error(f"--seconds {args.seconds} differs from run_seconds "
                     f"{measure.load_run_seconds()} of BENCHMARK.json; the timed call "
                     "counts are fixed")
    RESULTS.mkdir(exist_ok=True)
    rundir = RESULTS / f"run-{os.getpid()}"
    (rundir / "tmp").mkdir(parents=True)
    try:
        summaries = run_workloads(names, args.seed, args.quick, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for name, summary in summaries.items():
        report(name, summary, args.seed)
    if args.out is not None:
        args.out.write_text(json.dumps({"seed": args.seed, "trace": args.trace,
                                        "quick": args.quick, "workloads": summaries},
                                       indent=1))
    status = 0
    if args.check:
        section = "per_layer" if args.trace else "end_to_end"
        declared = measure.load_declared()[section]
        for name, summary in summaries.items():
            problems = measure.declaration_problems(summary["metrics"], declared)
            if summary["leaked"]:
                problems.append(f"{summary['leaked']} shared-memory segments or spill "
                                "directories leaked")
            for problem in problems:
                print(f"check failed: {name}: {problem}", file=sys.stderr)
            status = status or int(bool(problems))
    single = len(summaries) == 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {(metric if single else f"{name}.{metric}"): entry
                    for name, summary in summaries.items()
                    for metric, entry in summary["metrics"].items()},
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
