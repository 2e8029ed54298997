"""Dispatch economics — warm worker lanes vs a fresh pool per call.

The process-pool executors keep their worker lanes for the executor's
lifetime, so a caller that maps many small batches (the pilot agent
maps once per unit batch) pays the worker forks once instead of once
per call.  This benchmark samples two full distributions of the same
20 ``map_tasks`` calls x 4 no-op tasks on the shm executor with two
workers: all calls on **one** executor, and each call on a **fresh**
executor (built, mapped, shut down).  Both sides include building and
shutting down their executors.  The acceptance floor: **warm lanes must
be at least 3x faster**, gated as ``median(fresh/warm) - k*MAD > 3``,
never as a single-run ratio.

A second, ungated row records warm single-map dispatch throughput
(tasks/s over one 2000-task no-op map on warm lanes).  Keeping lanes
amortizes forks; it does not make a single dispatch cheaper, so this
row describes the per-task cost floor rather than gating it.

The full distribution record is written to ``BENCH_dispatch.json`` and,
when ``REPRO_BENCH_HISTORY=1``, appended to ``BENCH_history.jsonl``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.bench import speedup_samples
from repro.frameworks.executors import SharedMemoryExecutor

DISPATCH_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"
DISPATCH_SUITE = "dispatch"
WARM_LANES_FLOOR = 3.0      # one executor > 3x faster than one per call

DISPATCH_WORKERS = 2
N_CALLS = 20
N_TASKS = 4
THROUGHPUT_TASKS = 2000

_DISPATCH_RECORDS: list = []


def noop(x):
    """A task that does nothing: the call measures dispatch alone."""
    return x


def _map_calls(ex: SharedMemoryExecutor, items: list) -> None:
    for _ in range(N_CALLS):
        assert ex.map_tasks(noop, items) == items


def test_warm_lanes_beat_fresh_pools(bench_sampler, bench_gate, bench_history):
    """Warm lanes: 20 small maps on one executor > 3x faster than on 20."""
    items = list(range(N_TASKS))

    def fresh() -> float:
        start = time.perf_counter()
        for _ in range(N_CALLS):
            ex = SharedMemoryExecutor(workers=DISPATCH_WORKERS)
            try:
                assert ex.map_tasks(noop, items) == items
            finally:
                ex.shutdown()
        return time.perf_counter() - start

    def warm() -> float:
        start = time.perf_counter()
        ex = SharedMemoryExecutor(workers=DISPATCH_WORKERS)
        try:
            _map_calls(ex, items)
        finally:
            ex.shutdown()
        return time.perf_counter() - start

    # sequential, non-interleaved: the whole fresh distribution first,
    # then the whole warm distribution (same protocol as the recovery
    # and locality benchmarks)
    fresh_dist = bench_sampler.sample_values(fresh, label="executor per call")
    warm_dist = bench_sampler.sample_values(warm, label="one executor")

    speedups = speedup_samples(fresh_dist.samples, warm_dist.samples)
    verdict = bench_gate.check_speedup(fresh_dist, warm_dist, floor=WARM_LANES_FLOOR)
    assert verdict.passed, verdict.reason

    stats = bench_gate.speedup_stats(fresh_dist, warm_dist)
    workload = (f"shm executor, {DISPATCH_WORKERS} workers, {N_CALLS} map calls "
                f"x {N_TASKS} no-op tasks")
    _DISPATCH_RECORDS.append({
        "workload": workload,
        "gating": True,
        "floor": WARM_LANES_FLOOR,
        "warm_speedup_median": stats["speedup_median"],
        "warm_speedup_mad": stats["speedup_mad"],
        "warm_speedup_lower_bound": stats["speedup_lower_bound"],
        "n_speedup_samples": len(speedups),
        "gate_passed": verdict.passed,
        "gate_reason": verdict.reason,
        "executor_per_call": fresh_dist.to_dict(),
        "one_executor": warm_dist.to_dict(),
    })
    if bench_history is not None:
        bench_history.append(DISPATCH_SUITE, "warm_lanes_vs_executor_per_call",
                             workload,
                             {"executor_per_call": fresh_dist,
                              "one_executor": warm_dist},
                             stats={**stats, "floor": WARM_LANES_FLOOR,
                                    "gating": True,
                                    "gate_passed": verdict.passed})


def test_warm_dispatch_throughput(bench_sampler, bench_history):
    """Ungated: tasks/s of one 2000-task no-op map on warm lanes."""
    items = list(range(THROUGHPUT_TASKS))
    ex = SharedMemoryExecutor(workers=DISPATCH_WORKERS)
    try:
        ex.map_tasks(noop, items[:N_TASKS])  # fork the lanes untimed

        def one_map() -> float:
            start = time.perf_counter()
            assert ex.map_tasks(noop, items) == items
            return time.perf_counter() - start

        dist = bench_sampler.sample_values(one_map, label="warm 2000-task map")
    finally:
        ex.shutdown()

    workload = (f"shm executor, {DISPATCH_WORKERS} warm workers, one map of "
                f"{THROUGHPUT_TASKS} no-op tasks")
    _DISPATCH_RECORDS.append({
        "workload": workload,
        "gating": False,
        "tasks_per_s_median": THROUGHPUT_TASKS / dist.median,
        "tasks_per_s_q25": THROUGHPUT_TASKS / dist.q75,
        "tasks_per_s_q75": THROUGHPUT_TASKS / dist.q25,
        "map_seconds": dist.to_dict(),
    })
    if bench_history is not None:
        bench_history.append(DISPATCH_SUITE, "warm_map_throughput", workload,
                             {"map_seconds": dist},
                             stats={"tasks_per_s_median": THROUGHPUT_TASKS / dist.median,
                                    "gating": False})


@pytest.fixture(scope="module", autouse=True)
def write_dispatch_record():
    """Persist the dispatch record, even on partial runs."""
    yield
    if _DISPATCH_RECORDS:
        DISPATCH_RECORD_PATH.write_text(json.dumps({
            "suite": "dispatch: warm worker lanes vs an executor per call",
            "protocol": {
                "statistic": "median of pairwise fresh/warm samples",
                "gate": "median - k*MAD > floor",
            },
            "rows": _DISPATCH_RECORDS,
        }, indent=2) + "\n")
