"""Executor-layer contract tests.

Every executor (Serial/Thread/Process/SharedMemory) must satisfy the same
contract: results in input order, exceptions propagated to the caller,
empty input handled, and per-task timings recorded with sane invariants.
The process-based executors additionally account payload bytes
(``bytes_pickled`` / ``bytes_shared``), which the shared-memory data
plane's acceptance criteria are built on, and keep their worker lanes
for the executor's lifetime: lanes fork once, survive later calls, are
dropped after a failed call, and receive each run's state (its run
token, released mappings of unlinked segments) with the run itself.
A lane is one worker process and one pipe: it leaves no driver thread
behind, and a task exception that does not pickle still reaches the
driver as an exception.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.frameworks import executors
from repro.frameworks.executors import (
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
)
from repro.frameworks.faults import NO_RETRIES, FaultPolicy
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


def blas_threads(_):
    """(pid, thread count of NumPy's OpenBLAS) in the process running the task."""
    time.sleep(0.05)  # keep the lane busy so its sibling takes the next task
    return os.getpid(), executors._numpy_openblas().scipy_openblas_get_num_threads64_()


def worker_run_token(_):
    return os.getpid(), executors._served_run


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


class UnpicklableError(Exception):
    """Cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class UnloadableError(Exception):
    """Pickles, but cannot be unpickled: ``__init__`` needs two arguments."""

    def __init__(self, message, code):
        super().__init__(f"{message} ({code})")


def raise_unpicklable(kind):
    if kind == "lock":
        raise UnpicklableError("holds a lock")
    if kind == "args":
        raise UnloadableError("needs two arguments", 7)
    return os.getpid()


def raise_unpicklable_once(marker_dir):
    """Raise an exception that cannot be pickled on the first call only."""
    marker = os.path.join(marker_dir, "fired")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        raise UnpicklableError("first attempt")
    return os.getpid()


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def running(pid):
    """Whether ``pid`` is a process that has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


DRIVER = """
import os, signal, sys
from repro.frameworks.executors import ProcessExecutor

def worker_pid(_):
    return os.getpid()

ex = ProcessExecutor(workers=2)
print(" ".join(str(pid) for pid in set(ex.map_tasks(worker_pid, range(4)))), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


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


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_driver_gone_without_shutdown_takes_its_lanes(end, tmp_path):
    """A driver that exits without ``shutdown()`` (or is SIGKILLed) does
    not hang, and its lanes do not outlive it."""
    script = tmp_path / "driver.py"
    script.write_text(DRIVER)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    driver = subprocess.Popen([sys.executable, str(script), end],
                              stdout=subprocess.PIPE, text=True, env=env)
    pids = [int(pid) for pid in driver.stdout.readline().split()]
    try:
        driver.wait(timeout=60)
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in pids)
    finally:
        driver.stdout.close()
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


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

    @pytest.mark.skipif(executors._numpy_openblas() is None,
                        reason="this NumPy bundles no scipy-openblas")
    def test_every_lane_runs_blas_on_one_thread(self, kind):
        blas = executors._numpy_openblas()
        driver_threads = blas.scipy_openblas_get_num_threads64_()
        ex = make(kind)
        try:
            replies = ex.map_tasks(blas_threads, range(6))
        finally:
            ex.shutdown()
        assert len({pid for pid, _ in replies}) == 2
        assert {threads for _, threads in replies} == {1}
        # the cap is the lane's own: the driver keeps its thread count
        assert blas.scipy_openblas_get_num_threads64_() == driver_threads

    def test_warm_map_leaves_no_driver_threads(self, kind):
        ex = make(kind)
        try:
            before = threading.active_count()
            ex.map_tasks(worker_pid, range(4))  # forks the lanes
            ex.map_tasks(worker_pid, range(4))  # runs on them warm
            assert threading.active_count() == before
        finally:
            ex.shutdown()

    @pytest.mark.parametrize("exc_kind", ["lock", "args"])
    def test_unpicklable_exception_reaches_driver(self, kind, exc_kind):
        ex = make(kind)
        ex.fault_policy = NO_RETRIES
        watchdog = ThreadPoolExecutor(max_workers=1)
        try:
            with pytest.raises(RuntimeError, match="Error"):
                watchdog.submit(ex.map_tasks, raise_unpicklable,
                                [exc_kind, "ok"]).result(timeout=30)
            assert ex.totals().tasks_lost == 0
        finally:
            watchdog.shutdown(wait=False)
            ex.shutdown()

    def test_unpicklable_exception_is_retried_on_its_lane(self, kind, tmp_path):
        """A task failure that does not pickle is a task failure, not a
        worker death: it is retried without a lost task, and the lane's
        worker serves on."""
        ex = make(kind)
        ex.workers = 1
        ex.fault_policy = FaultPolicy(max_retries=1)
        try:
            pid = ex.map_tasks(worker_pid, [0])[0]
            assert ex.map_tasks(raise_unpicklable_once, [str(tmp_path)]) == [pid]
            assert ex.totals().tasks_retried == 1
            assert ex.totals().tasks_lost == 0
        finally:
            ex.shutdown()

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

    def test_run_token_reaches_warm_lanes(self, kind):
        ex = make(kind)
        try:
            ex.map_tasks(worker_pid, range(4))  # lanes are warm from here on
            first = ex.map_tasks(worker_run_token, range(4))
            second = ex.map_tasks(worker_run_token, range(4))
        finally:
            ex.shutdown()
        assert len({pid for pid, _ in first}) == 2
        assert {pid for pid, _ in second} == {pid for pid, _ in first}
        # every task of a call runs under that call's token, which the
        # lanes could not have inherited at fork; the next call has a new one
        first_tokens = {token for _, token in first}
        second_tokens = {token for _, token in second}
        assert len(first_tokens) == 1 and len(second_tokens) == 1
        assert None not in first_tokens | second_tokens
        assert first_tokens != second_tokens

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
