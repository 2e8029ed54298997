"""Executor-layer contract tests.

Every executor (Serial/Thread/Process/SharedMemory) must satisfy the same
contract: results in input order, exceptions propagated to the caller,
empty input handled, and per-task timings recorded with sane invariants.
The process-based executors additionally account payload bytes
(``bytes_pickled`` / ``bytes_shared``), which the shared-memory data
plane's acceptance criteria are built on, and keep their worker lanes
for the executor's lifetime: lanes fork once, survive later calls, are
dropped after a failed call, and receive each run's state (the kernel
engine, released mappings of unlinked segments) with the run itself.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.engine import get_kernel_method, use_kernel_method
from repro.frameworks.executors import (
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
)
from repro.frameworks.faults import NO_RETRIES
from repro.frameworks.shm import SharedMemoryStore, maybe_resolve

EXECUTOR_KINDS = ("serial", "threads", "processes", "shm")
POOLED_KINDS = ("processes", "shm")


def make(kind):
    if kind == "serial":
        return SerialExecutor()
    if kind == "threads":
        return ThreadExecutor(workers=2)
    if kind == "processes":
        return ProcessExecutor(workers=2)
    return SharedMemoryExecutor(workers=2)


def square(x):
    return x * x


def boom(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


def array_total(arrays):
    return float(sum(np.asarray(a).sum() for a in arrays))


def worker_pid(_):
    return os.getpid()


def worker_kernel_method(_):
    return os.getpid(), get_kernel_method()


def touch_block(block):
    float(np.asarray(maybe_resolve(block)).sum())
    return os.getpid()


def raise_or_sleep(x):
    if x == "boom":
        raise ValueError("lane task failed")
    time.sleep(0.2)
    return x


def slow_echo(x):
    time.sleep(0.4)
    return x


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def maps_segment(pid, name):
    """Whether process ``pid`` still has segment ``name`` mapped."""
    with open(f"/proc/{pid}/maps") as fh:
        return name in fh.read()


@pytest.fixture(params=EXECUTOR_KINDS)
def executor(request):
    ex = make(request.param)
    yield ex
    ex.shutdown()


class TestExecutorContract:
    def test_results_in_input_order(self, executor):
        items = list(range(10))
        assert executor.map_tasks(square, items) == [x * x for x in items]

    def test_empty_input(self, executor):
        assert executor.map_tasks(square, []) == []
        assert executor.timings == []
        assert executor.total_task_time == 0.0

    def test_exception_propagates(self, executor):
        with pytest.raises(ValueError, match="task 3 exploded"):
            executor.map_tasks(boom, [1, 2, 3, 4])

    def test_timing_invariants(self, executor):
        items = list(range(6))
        executor.map_tasks(square, items)
        timings = executor.timings
        assert [t.index for t in timings] == items
        for t in timings:
            assert t.stop >= t.start
            assert t.duration >= 0.0
            assert t.bytes_pickled >= 0
            assert t.bytes_shared >= 0
        assert executor.total_task_time == pytest.approx(
            sum(t.duration for t in timings)
        )

    def test_array_payload_round_trip(self, executor):
        items = [[np.full((20, 3), i, dtype=np.float64)] for i in range(5)]
        expected = [float(i * 60) for i in range(5)]
        assert executor.map_tasks(array_total, items) == expected


class TestByteAccounting:
    def test_in_process_executors_move_nothing(self):
        for kind in ("serial", "threads"):
            ex = make(kind)
            ex.map_tasks(square, [1, 2, 3])
            assert ex.totals().bytes_pickled == 0
            assert ex.totals().bytes_shared == 0

    def test_process_executor_counts_pickled_payloads(self):
        ex = ProcessExecutor(workers=2)
        items = [[np.zeros((50, 3))] for _ in range(4)]
        ex.map_tasks(array_total, items)
        # each payload carries its 1200-byte array plus pickle framing
        assert ex.totals().bytes_pickled > 4 * 50 * 3 * 8
        assert ex.totals().bytes_shared == 0

    def test_shm_executor_shares_instead_of_pickling(self):
        ex = SharedMemoryExecutor(workers=2)
        pex = ProcessExecutor(workers=2)
        items = [[np.zeros((50, 3))] for _ in range(4)]
        try:
            assert ex.map_tasks(array_total, items) == pex.map_tasks(array_total, items)
            assert ex.totals().bytes_shared == 4 * 50 * 3 * 8
            assert 0 < ex.totals().bytes_pickled < pex.totals().bytes_pickled
        finally:
            ex.shutdown()

    def test_shm_executor_deduplicates_shared_arrays(self):
        ex = SharedMemoryExecutor(workers=2)
        shared = np.ones((100, 3))
        try:
            ex.map_tasks(array_total, [[shared] for _ in range(8)])
            # every task references the array, but only one segment exists
            assert ex.totals().bytes_shared == 8 * shared.nbytes
            assert len(ex.store) == 1
        finally:
            ex.shutdown()

    def test_shm_executor_shutdown_unlinks_store(self):
        ex = SharedMemoryExecutor(workers=2)
        ex.map_tasks(array_total, [[np.ones((10, 3))]])
        assert len(ex.store) == 1
        ex.shutdown()
        assert ex.store.closed


class TestFactoryAndDefaults:
    def test_make_executor_shm(self):
        ex = make_executor("shm", workers=2)
        assert isinstance(ex, SharedMemoryExecutor)
        assert ex.workers == 2
        ex.shutdown()

    def test_default_worker_count_reserves_driver_core(self):
        import os

        count = default_worker_count()
        assert count >= 1
        cpus = os.cpu_count()
        if cpus and cpus > 1:
            assert count == cpus - 1


@pytest.mark.parametrize("kind", POOLED_KINDS)
class TestWorkerLanes:
    """Lanes belong to the executor: forked once, kept across calls."""

    def test_lanes_fork_once_per_executor(self, kind):
        ex = make(kind)
        try:
            pids = set()
            for _ in range(5):
                pids.update(ex.map_tasks(worker_pid, range(4)))
            assert len(pids) == 2
            assert all(pid_alive(pid) for pid in pids)
        finally:
            ex.shutdown()
        assert not any(pid_alive(pid) for pid in pids)

    def test_failed_call_drops_lanes_before_raising(self, kind):
        ex = make(kind)
        ex.fault_policy = NO_RETRIES
        try:
            # lane 0 still runs the slow task when lane 1's failure lands;
            # a lane kept past the failure would return that straggler
            # as task 0 of the next call, ahead of the call's own task
            with pytest.raises(ValueError, match="lane task failed"):
                ex.map_tasks(raise_or_sleep, ["slow", "boom"])
            assert ex.map_tasks(slow_echo, ["a", "b"]) == ["a", "b"]
        finally:
            ex.shutdown()

    def test_kernel_method_reaches_warm_lanes(self, kind):
        ex = make(kind)
        try:
            ex.map_tasks(worker_pid, range(4))  # lanes are warm from here on
            with use_kernel_method("reference"):
                inside = ex.map_tasks(worker_kernel_method, range(4))
            after = ex.map_tasks(worker_kernel_method, range(4))
        finally:
            ex.shutdown()
        assert len({pid for pid, _ in inside}) == 2
        assert {method for _, method in inside} == {"reference"}
        assert {method for _, method in after} == {"vectorized"}

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_unlinked_segment_is_released_by_warm_lanes(self, kind):
        store = SharedMemoryStore()
        ex = make(kind)
        try:
            ref = store.put(np.ones(1 << 17))  # 1 MiB
            pids = set(ex.map_tasks(touch_block, [ref] * 4))
            # the lanes forked after the put, so both hold the segment
            assert pids and all(maps_segment(pid, ref.segment) for pid in pids)
            store.cleanup()
            assert set(ex.map_tasks(worker_pid, range(4))) == pids
            assert not any(maps_segment(pid, ref.segment) for pid in pids)
        finally:
            ex.shutdown()
            store.cleanup()
