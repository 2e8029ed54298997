"""Task executors: the physical layer under every framework substrate.

Each framework (sparklite, dasklite, pilot, mpilite) needs to actually run
Python callables over collections of inputs.  To keep that concern in one
place the frameworks delegate to one of four executors:

* :class:`SerialExecutor` — runs tasks in the calling thread; fully
  deterministic, used by default in tests.
* :class:`ThreadExecutor` — a thread pool; NumPy/SciPy kernels release the
  GIL, so this gives real parallel speedup for the compute-heavy tasks of
  the paper (2D-RMSD blocks, cdist blocks) without pickling overhead.
* :class:`ProcessExecutor` and :class:`SharedMemoryExecutor` — process
  pools on the same worker lanes and the same transport, which the
  executor's ``store`` field picks.  Without a store every payload and
  every result is pickled whole, which is exactly the serialization cost
  the paper discusses for Python frameworks.  With one, the zero-copy
  data plane of :mod:`repro.frameworks.shm` carries both directions:
  array payloads are registered in the
  :class:`~repro.frameworks.shm.SharedMemoryStore` once and workers
  receive tiny :class:`~repro.frameworks.shm.BlockRef` handles that
  rehydrate as views, and workers publish result arrays into shared
  segments that the driver copies out once and unlinks on receipt,
  instead of unpickling them.  A framework hands its store to its
  executor, so ``executor="processes"`` on the shm plane ships refs;
  :class:`SharedMemoryExecutor` differs only in owning a private store
  when it is given none.

All executors record per-task wall-clock durations so the frameworks can
report scheduling overhead separately from useful work; the process-based
executors additionally record, per task, ``bytes_pickled`` /
``bytes_results_pickled`` (payload bytes that crossed the process
boundary serialized, in each direction) and ``bytes_shared`` /
``bytes_shared_results`` (array bytes the task accessed or returned
through shared memory instead).

Fault tolerance
---------------
Every executor honours an optional
:class:`~repro.frameworks.faults.FaultPolicy` (plus a deterministic
:class:`~repro.frameworks.faults.FaultInjector` for chaos testing).
The in-process executors retry failing tasks in place; the process-pool
executors run a full recovery loop: tasks are fed to a set of
single-slot *worker lanes* (one worker process and one pipe per lane,
so the driver chooses which worker runs which task), a worker death
(detected by its process sentinel or an end-of-file on its pipe, or
caused by the driver killing a worker whose task overran
``heartbeat_timeout_s``) marks that lane's in-flight task lost, the
orphaned result segments of the dead worker are swept, the lane is
rebuilt, and the lost task is resubmitted — the other lanes keep
executing throughout, so one killed worker costs one task re-execution
instead of the whole run.  Per-task ``tasks_retried`` / ``tasks_lost``
/ ``recovery_seconds`` land in the :class:`TaskTiming` records and roll
up into :class:`~repro.frameworks.base.RunMetrics`.

Worker lanes
------------
The two process-pool executors run their tasks on worker lanes that
belong to the executor, not to one ``map_tasks`` call: the lanes fork
lazily on the first call, stay warm across later calls, and are shut
down and joined by :meth:`~ExecutorBase.shutdown` (which
``TaskFramework.close()`` calls).  A lane is rebuilt only when its
worker dies; a call that ends in an exception kills every busy lane and
shuts every lane down before re-raising, so no straggler of the failed
call can hand a result to the next one.  The lane processes are
daemonic, so a driver that exits without ``shutdown()`` does not wait on
them, and a worker exits when its pipe reads end-of-file, so a driver
that dies, or drops an executor without ``shutdown()``, takes its lanes
along.

The driver signals only its own lane children, and only before it
joins them: an unreaped child's pid cannot be recycled, so a kill can
never reach an unrelated process.

Since a warm lane forked before the current call, nothing of a call's
state may ride on the fork.  Each run ships what its workers need in the
task payload: the run's token, its transport and the claimed fault
spec.  A worker that sees a new run also closes every
shared-memory attachment and spill-file mapping whose name the driver
has unlinked since
(:func:`~repro.frameworks.shm.release_stale_mappings`), so a long-lived
worker never pins the pages of dead blocks.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import multiprocessing
import os
import pickle
import signal
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, ClassVar, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..bench.stats import median as _median
from .counters import TaskCounters
from .faults import (
    NO_RETRIES,
    BlockLost,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    WorkerLost,
    apply_block_fault,
    call_in_process,
    execute_worker_fault,
    prepare_retry,
    unlink_result_refs,
)
from .shm import (
    SharedMemoryStore,
    adopt_payload,
    mark_handed_off,
    prefetch_hints_dropped,
    publish_payload,
    release_stale_mappings,
    resolve_payload,
    share_payload,
    sweep_orphan_segments,
)

__all__ = [
    "TaskTiming",
    "ExecutorBase",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedMemoryExecutor",
    "make_executor",
    "default_worker_count",
    "PROCESS_KINDS",
    "SHM_KINDS",
]

#: :func:`make_executor` names of :class:`ProcessExecutor`...
PROCESS_KINDS = ("processes", "process")
#: ...and of :class:`SharedMemoryExecutor`
SHM_KINDS = ("shm", "sharedmem", "shared-memory")


def default_worker_count() -> int:
    """Return a sensible default worker count for the local machine.

    One core is reserved for the driver (scheduler loops, result
    gathering, the interactive session), matching the deployment the
    paper's single-node runs use; the floor of 1 keeps single-core
    machines working.

    Returns
    -------
    int
        ``max(1, cpu_count - 1)``.
    """
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass
class TaskTiming(TaskCounters):
    """Wall-clock timing and counters of one executed task.

    Besides the fields below, a timing carries every per-task counter
    of :class:`~repro.frameworks.counters.TaskCounters`: the data-plane
    byte split, the spill stall split, retries, speculation and
    dropped read-ahead hints.

    Parameters
    ----------
    index : int
        Position of the task in the submitted batch.
    start, stop : float
        ``perf_counter`` timestamps bracketing the task's final attempt
        (including its payload deserialization and result
        serialization, where a real deployment pays them).
    """

    index: int
    start: float
    stop: float

    @property
    def duration(self) -> float:
        """Task duration in seconds."""
        return self.stop - self.start


@dataclass
class ExecutorBase:
    """Common interface: ``map_tasks(fn, items)`` -> list of results.

    Results are always returned in input order.  ``timings`` holds the
    per-task wall clock of the most recent ``map_tasks`` call.

    ``fault_policy`` / ``fault_injector`` opt the executor into the
    resilience layer (``None`` keeps the fail-fast behaviour).  A
    framework points ``store`` at its shared-memory store: lost-block
    healing reaches the registered source arrays through it, and on the
    process-pool executors it picks the transport (refs through the
    store when set, whole pickles when ``None``).
    """

    #: whether tasks run in other processes: task functions must then
    #: pickle, and the executor measures the bytes that cross itself
    crosses_processes: ClassVar[bool] = False

    workers: int = 1
    timings: List[TaskTiming] = field(default_factory=list, repr=False)
    fault_policy: Optional[FaultPolicy] = field(default=None, repr=False)
    fault_injector: Optional[FaultInjector] = field(default=None, repr=False)
    store: Optional[SharedMemoryStore] = field(default=None, repr=False)

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items`` and return results in order.

        Parameters
        ----------
        fn : callable
            Task function applied to each item.
        items : sequence
            Task payloads.

        Returns
        -------
        list
            ``[fn(item) for item in items]``, computed on this
            executor's resources.
        """
        raise NotImplementedError

    @property
    def total_task_time(self) -> float:
        """Sum of task durations from the last ``map_tasks`` call."""
        return sum(t.duration for t in self.timings)

    def totals(self) -> TaskCounters:
        """Every per-task counter summed over the last ``map_tasks`` call."""
        return TaskCounters.total(self.timings)

    def _fault_context(self) -> Tuple[FaultPolicy, Optional[FaultInjector],
                                      Optional[SharedMemoryStore]]:
        """The (policy, injector, store) triple the retry loops consult."""
        return self.fault_policy or NO_RETRIES, self.fault_injector, self.store

    def _call_retrying(self, fn: Callable[[Any], Any], index: int,
                       item: Any) -> Tuple[Any, TaskTiming]:
        """Run one task in-process under the executor's fault policy.

        See :func:`~repro.frameworks.faults.call_in_process`: an injected
        ``kill_worker`` is simulated as
        :class:`~repro.frameworks.faults.WorkerLost`, since a real kill
        would take the driver down.

        Parameters
        ----------
        fn : callable
            Task function.
        index : int
            Task position in the submitted batch.
        item : Any
            Task payload.

        Returns
        -------
        result : Any
            The successful attempt's return value.
        timing : TaskTiming
            Timing of the final attempt, carrying the retry counters.
        """
        timing = TaskTiming(index, 0.0, 0.0)
        result, timing.start = call_in_process(fn, item, *self._fault_context(), timing)
        timing.stop = time.perf_counter()
        return result, timing

    def shutdown(self) -> None:
        """Release any pooled resources (no-op for stateless executors)."""


class SerialExecutor(ExecutorBase):
    """Run every task in the calling thread, in order."""

    def __init__(self, fault_policy: FaultPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        super().__init__(workers=1, fault_policy=fault_policy,
                         fault_injector=fault_injector)

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run the tasks one after another in the calling thread."""
        self.timings = []
        results: List[Any] = []
        for i, item in enumerate(items):
            result, timing = self._call_retrying(fn, i, item)
            results.append(result)
            self.timings.append(timing)
        return results


class ThreadExecutor(ExecutorBase):
    """Thread-pool executor (shared memory, no pickling).

    Parameters
    ----------
    workers : int, optional
        Pool size; defaults to :func:`default_worker_count`.
    fault_policy : FaultPolicy, optional
        Per-task retry policy (``None`` keeps fail-fast behaviour).
    fault_injector : FaultInjector, optional
        Deterministic chaos source consumed at dispatch time.
    """

    def __init__(self, workers: int | None = None,
                 fault_policy: FaultPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        super().__init__(workers=workers or default_worker_count(),
                         fault_policy=fault_policy, fault_injector=fault_injector)

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run the tasks on the thread pool, preserving input order."""
        self.timings = []
        items = list(items)
        results: List[Any] = [None] * len(items)
        timings: List[TaskTiming] = [None] * len(items)  # type: ignore[list-item]

        def run(index: int, item: Any) -> None:
            results[index], timings[index] = self._call_retrying(fn, index, item)

        if not items:
            return []
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(run, i, item) for i, item in enumerate(items)]
            for future in futures:
                future.result()  # re-raise worker exceptions here
        self.timings = list(timings)
        return results


class _Run(NamedTuple):
    """The per-run state every task payload carries to its worker.

    A warm lane forked before the run began, so this is the only way
    run state reaches it: ``token`` identifies the run (a worker that
    sees a new token releases stale mappings) and ``shm`` says whether
    payloads and results travel as refs through shared memory (the
    executor holds a store) or as whole pickles.
    """

    token: int
    shm: bool


_RUN_TOKENS = itertools.count(1)

# worker-side: token of the last run this process served
_served_run: Optional[int] = None


def _enter_run(run: _Run) -> None:
    """Adopt a run's state in a lane worker, before its task executes.

    The first task of a new run closes the mappings of blocks unlinked
    since the worker's previous run
    (:func:`~repro.frameworks.shm.release_stale_mappings`).
    """
    global _served_run
    if run.token != _served_run:
        _served_run = run.token
        release_stale_mappings()


def _timed_call(payload: tuple) -> tuple:
    """Run one pre-pickled task in a lane worker: the only worker shim.

    The item arrives pre-pickled (serialized exactly once, driver-side,
    which is also how its byte count is measured); deserialization and
    the result's serialization both run inside the timed region, where a
    real deployment pays them.  The result returns as a pickle blob so
    the driver can account the exact bytes that crossed back.  On the
    shm transport (``run.shm``) the payload's refs are resolved to views
    of the shared segments and the result's arrays are published into
    fresh segments, so only refs travel through the pickle channel — the
    attach and the publish are that plane's deserialization and
    serialization costs.

    ``spec`` carries a claimed task-side fault to execute here (a real
    SIGKILL for ``kill_worker``; with ``when="after_publish"`` it fires
    *between* publishing and the hand-off, the crash window whose
    pid-keyed orphan segments the driver's recovery sweep reclaims), and
    ``run`` the per-run state (:class:`_Run`).

    Returns the 6-tuple ``(index, out, start, stop, bytes_shared,
    prefetch_drops)``: ``prefetch_drops`` is the worker-local delta of
    read-ahead hints dropped while this task ran.
    """
    index, fn, blob, spec, run = payload
    _enter_run(run)
    drops_before = prefetch_hints_dropped()
    if spec is not None:
        execute_worker_fault(spec)
    start = time.perf_counter()
    item = pickle.loads(blob)
    if run.shm:
        result, shared = publish_payload(fn(resolve_payload(item)))
    else:
        result, shared = fn(item), 0
    out = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    stop = time.perf_counter()
    if (spec is not None and spec.kind == "kill_worker"
            and spec.when == "after_publish"):
        # die with the result unreturned: published segments are
        # orphans only the pid-keyed sweep can reclaim (SIGKILL skips
        # every hook)
        os.kill(os.getpid(), signal.SIGKILL)
    if run.shm:
        # the blob is on its way to the driver, which copies the blocks
        # out and unlinks them; this worker's crash-cleanup hook must
        # leave them alone, and its own mappings can close now
        mark_handed_off(result)
    return (index, out, start, stop, shared,
            prefetch_hints_dropped() - drops_before)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a stand-in.

    An exception that cannot be pickled (or unpickled) must still reach
    the driver, so it is replaced by a :class:`RuntimeError` carrying
    its repr and traceback text.
    """
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure qualifies
        text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return RuntimeError(f"{exc!r} (not picklable)\n{text}")


# the driver ends of all lane pipes: a forked child closes its copies, so
# the driver is the only holder and a lane reads end-of-file as soon as
# the driver closes, drops or loses its end
_DRIVER_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _close_driver_ends() -> None:
    for conn in list(_DRIVER_ENDS):
        conn.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_driver_ends)


@functools.lru_cache(maxsize=None)
def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """NumPy's bundled OpenBLAS (from ``numpy.libs``), or ``None`` without one.

    Looked up once per process; the driver looks it up before it forks
    a lane, so the lane inherits the handle instead of paying the lookup.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return lib
    return None


def _lane_main(conn: Connection) -> None:
    """Body of a lane's worker process: ``recv → _timed_call → send``.

    A lane is one worker on one core, so NumPy's OpenBLAS runs on one
    thread in it: at its default thread count every lane's BLAS calls
    would compete for the cores the other lanes run on.

    Each reply is ``(True, result_tuple)`` or ``(False, exception)``: a
    task's exception returns as a value (see :func:`_portable`) and the
    worker serves on; an interrupt or exit ends the worker, which the
    driver handles as a lost worker.  ``None`` or a closed pipe ends the
    loop.
    """
    blas = _numpy_openblas()
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(1)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = (True, _timed_call(payload))
        except Exception as exc:  # noqa: BLE001 - returned to the driver
            reply = (False, _portable(exc))
        conn.send(reply)


def _speculation_threshold(durations: Sequence[float],
                           policy: FaultPolicy) -> float:
    """Straggler cutoff: ``factor × median(durations)``, floored at one
    heartbeat interval so a batch of microsecond tasks cannot trip
    speculation on dispatch jitter.

    Uses the statistically honest :func:`repro.bench.stats.median`
    (midpoint average on even counts) — indexing ``sorted[n // 2]``
    picks the *upper* element of an even-length list, which biases the
    threshold upward and delays speculation exactly when half the
    completed durations are fast.
    """
    return policy.speculation_factor * max(_median(durations),
                                           policy.heartbeat_interval_s)


class _WorkerLane:
    """One single-slot worker: its own process, one pipe, and lane state.

    Per-worker lanes shrink the failure domain: sending a task down a
    lane's pipe runs it on that lane's worker process, so a dead worker
    breaks its own lane only, and recovery rebuilds one process while
    the other lanes keep executing.

    A lane belongs to its executor (:class:`_PooledExecutor`), not to a
    ``map_tasks`` call: its worker forks when the lane is built and
    serves every later call until the executor shuts the lane down, so
    the fork cost is paid once per executor and the worker's mappings
    stay warm from one call to the next.  What a call
    needs beyond its task travels in the payload (:class:`_Run`).

    The worker is the driver's own child and is signalled only through
    :meth:`kill`, which sends nothing once the child has been reaped —
    and until then its pid cannot be recycled.
    """

    __slots__ = ("proc", "conn", "index", "is_dup", "launched")

    def __init__(self) -> None:
        self.index: Optional[int] = None
        self.is_dup = False
        self.launched = 0.0
        self._start()

    def _start(self) -> None:
        """Fork the lane's worker, which serves :func:`_lane_main` on a new pipe."""
        self.conn, child_conn = multiprocessing.Pipe()
        _DRIVER_ENDS.add(self.conn)
        _numpy_openblas()  # the worker inherits the lookup
        self.proc = multiprocessing.Process(target=_lane_main, args=(child_conn,),
                                            daemon=True)
        self.proc.start()
        # only the worker holds its end, so the worker's death reads as
        # end-of-file here
        child_conn.close()

    @property
    def busy(self) -> bool:
        """Whether a task is currently in flight on this lane."""
        return self.index is not None

    def submit(self, payload: tuple, index: int, is_dup: bool = False) -> bool:
        """Send one attempt to the worker; ``False`` if its pipe is broken."""
        try:
            self.conn.send(payload)
        except OSError:  # the worker is dead: recovery rebuilds the lane
            return False
        self.index = index
        self.is_dup = is_dup
        self.launched = time.monotonic()
        return True

    def clear(self) -> None:
        """Forget the in-flight task (completed or handed to recovery)."""
        self.index = None
        self.is_dup = False

    def kill(self) -> None:
        """SIGKILL the worker unless it has exited (then this reaps it)."""
        if self.proc.exitcode is None:
            self.proc.kill()

    def stop(self) -> None:
        """Ask the worker to exit: ``None`` to an idle one, SIGKILL to a busy one."""
        if self.busy:
            self.kill()
            return
        try:
            self.conn.send(None)
        except OSError:
            pass  # already dead

    def join(self) -> None:
        """Reap the stopped worker and close the lane's pipe."""
        self.proc.join()
        self.conn.close()

    def rebuild(self) -> None:
        """Fresh worker process in place of the current one."""
        self.clear()
        self.kill()
        self.join()
        self._start()


class _PooledMapEngine:
    """Fault-tolerant task feeder of :meth:`_PooledExecutor.map_tasks`.

    Runs one ``map_tasks`` call on the owner's single-slot
    :class:`_WorkerLane` objects (so worker death loses at most the one
    task on that lane).  The lanes come from one place,
    :meth:`_PooledExecutor._worker_lanes`, and outlive the call; the
    engine only owns the run: its :class:`_Run` state (token and
    transport), shipped with every payload as
    ``(index, fn, blob, spec, run)`` to :func:`_timed_call`.  A run that
    raises kills its busy lanes and shuts every lane down before the
    exception leaves, so a task still in flight cannot return into a
    later call.  The engine waits on the busy lanes' pipes and process
    sentinels at once, and implements the whole recovery protocol:

    * a *task exception* returned by a worker is retried per the policy
      (lost payload blocks are healed from their registered sources
      between attempts);
    * a *broken lane* (its sentinel is ready or its pipe reads
      end-of-file: the worker was SIGKILLed, OOM-killed, or killed by
      the hung-worker check below) marks that lane's in-flight task
      lost, reaps the dead worker, sweeps its orphaned result segments
      and settles the spill pipeline (when the owner holds a store),
      rebuilds the lane and resubmits — tasks queued or in flight on
      healthy lanes are never touched.  A reply the worker sent before
      it died is still taken;
    * with ``heartbeat_timeout_s`` set, the driver wakes every
      ``heartbeat_interval_s`` and SIGKILLs any worker whose task was
      dispatched more than the timeout ago — converting a hang into the
      broken-lane path above;
    * with ``speculation_factor`` set, a task still in flight past
      :func:`_speculation_threshold` gets a *duplicate attempt*
      submitted to a free lane.  The first attempt to return wins and is
      recorded; the loser's result is discarded (``on_discard``, so
      published segments never leak), and a loser that never returns —
      the straggler itself — is SIGKILLed once every result is in, its
      leftovers reclaimed by the ordinary broken-lane sweep;
    * a result whose blocks cannot be adopted (``on_result`` raises
      :class:`~repro.frameworks.shm.BlockLost`) is treated as lost and
      the task re-executed.

    Faults are claimed from the injector once per first-attempt dispatch
    in dispatch order; task-side faults ship to the worker inside the
    payload, driver-side block faults are applied at dispatch (or, for
    ``target="result"``, remembered and applied to the returned refs
    before adoption).  Speculative duplicates never touch the injector:
    the exactly-once injection contract counts real dispatches only.

    The per-task state is ``timings``, one :class:`TaskTiming` per task
    that the owner returns as its own: the engine counts retries and
    speculation into it and stamps ``start``/``stop``,
    ``on_result`` adds the byte counters, and a task's attempt number is
    its ``tasks_retried``.
    """

    def __init__(self, owner: "_PooledExecutor", fn: Callable[[Any], Any],
                 blobs: List[bytes],
                 on_result: Callable[[int, tuple, Optional[FaultSpec], TaskTiming], None],
                 on_discard: Optional[Callable[[tuple], None]] = None) -> None:
        self.owner = owner
        self.fn = fn
        self.blobs = blobs
        self.on_result = on_result
        self.on_discard = on_discard
        self.n_tasks = n_tasks = len(blobs)
        self._run: Optional[_Run] = None
        policy, injector, store = owner._fault_context()
        self.policy = policy
        self.injector = injector
        self.store = store
        self.timings = [TaskTiming(i, 0.0, 0.0) for i in range(n_tasks)]
        self.result_faults: Dict[int, FaultSpec] = {}
        self._durations: List[float] = []
        self._completed: set = set()
        # whether the engine must wake up while waiting: to kill hung
        # workers or to speculate
        self._monitored = (policy.heartbeat_timeout_s is not None
                           or policy.speculation_factor is not None)

    # ------------------------------------------------------------------ #
    def _fail(self, index: int, exc: BaseException, pending: "deque[int]",
              front: bool = False) -> None:
        """Handle one task failure: schedule a retry or re-raise."""
        if not prepare_retry(exc, self.policy, self.store, self.timings[index]):
            raise exc
        if front:
            pending.appendleft(index)
        else:
            pending.append(index)

    def _dispatch_spec(self, index: int) -> Optional[FaultSpec]:
        """Claim and pre-process this dispatch's fault; the worker-side part."""
        if self.injector is None:
            return None
        spec = self.injector.claim(self.timings[index].tasks_retried)
        if spec is None:
            return None
        if spec.is_block_fault:
            if spec.target == "result":
                self.result_faults[index] = spec
            else:
                apply_block_fault(spec, self.store)
            return None
        return spec

    def _payload(self, index: int, spec: Optional[FaultSpec]) -> tuple:
        """The worker payload of one attempt of task ``index``."""
        return (index, self.fn, self.blobs[index], spec, self._run)

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Execute every task to completion (or raise the fatal failure)."""
        self._run = _Run(next(_RUN_TOKENS), self.store is not None)
        pending: "deque[int]" = deque(range(self.n_tasks))
        lanes = self.owner._worker_lanes()
        try:
            while pending or any(lane.busy for lane in lanes):
                broken = self._pump(lanes, pending)
                if broken:
                    self._recover(broken, pending)
        except BaseException:
            # lanes outlive the call: drop them all (killing the busy
            # ones), so an attempt still in flight cannot hand its
            # result to the next call
            self.owner._drop_lanes()
            raise

    def _dispatch(self, lane: _WorkerLane, index: int, pending: "deque[int]",
                  broken: List[_WorkerLane]) -> bool:
        """Submit one first-class attempt of ``index`` on ``lane``.

        Returns ``False`` when the lane's pipe turns out to be broken
        (its worker died while idle): the dispatch never started, so the
        task goes back to the front of the queue un-penalized, any
        injector claim is rolled back (the exactly-once dispatch counter
        stays exact), and the lane is handed to recovery.
        """
        first_attempt = self.timings[index].tasks_retried == 0
        spec = self._dispatch_spec(index)
        if lane.submit(self._payload(index, spec), index):
            return True
        if self.injector is not None and first_attempt:
            self.injector.unclaim(spec or self.result_faults.pop(index, None))
        pending.appendleft(index)
        broken.append(lane)
        return False

    def _fill(self, lanes: List[_WorkerLane], pending: "deque[int]",
              broken: List[_WorkerLane]) -> None:
        """Assign pending tasks to free lanes, in queue order."""
        for lane in lanes:
            if not pending:
                return
            if lane.busy or lane in broken:
                continue
            self._dispatch(lane, pending.popleft(), pending, broken)

    def _pump(self, lanes: List[_WorkerLane],
              pending: "deque[int]") -> List[_WorkerLane]:
        """Fill free lanes, wait for completions, and process them.

        Returns the lanes found broken this round (empty when none):
        the caller runs one recovery pass over all of them, so several
        simultaneous worker deaths cost one sweep-and-rebuild — and
        tasks queued or running on healthy lanes are never disturbed.
        """
        broken: List[_WorkerLane] = []
        self._fill(lanes, pending, broken)
        if broken:
            return broken
        busy = [lane for lane in lanes if lane.busy]
        if not busy:
            return []
        # kill beaten stragglers (every result is in, so the only busy
        # lanes run losing attempts) and hung workers; a killed lane's
        # sentinel turns ready below, and the broken-lane path reaps,
        # sweeps and rebuilds it
        stragglers = not pending and all(lane.index in self._completed for lane in busy)
        timeout_s = self.policy.heartbeat_timeout_s
        now = time.monotonic()
        for lane in busy:
            if stragglers or (timeout_s is not None and now - lane.launched > timeout_s):
                lane.kill()
        ready = wait_ready([w for lane in busy for w in (lane.conn, lane.proc.sentinel)],
                           self.policy.heartbeat_interval_s if self._monitored else None)
        if not ready:
            self._maybe_speculate(lanes, pending)
            return []
        for lane in busy:
            exited = lane.proc.sentinel in ready
            if lane.conn not in ready and not exited:
                continue
            index, was_dup = lane.index, lane.is_dup
            try:
                # a reply the worker sent before exiting is still taken
                ok, out = lane.conn.recv() if lane.conn.poll() else (None, None)
            except (EOFError, OSError):
                ok = None
            if ok is None:
                broken.append(lane)  # slot kept: recovery counts the task lost
                continue
            lane.clear()
            if exited:
                broken.append(lane)  # nothing in flight: only the rebuild
            if not ok:
                if index in self._completed:
                    continue  # a beaten attempt failed; the winner landed
                self._fail(index, out, pending)
                continue
            # read-ahead hints the worker dropped while running this attempt
            self.timings[index].prefetch_hints_dropped += out[5]
            if index in self._completed:
                # the losing attempt of a speculated task finished after
                # the winner: discard its result (and published segments)
                if self.on_discard is not None:
                    self.on_discard(out)
                continue
            self._completed.add(index)
            timing = self.timings[index]
            if was_dup:
                timing.speculation_wins += 1
            if self.policy.speculation_factor is not None:
                self._durations.append(max(0.0, out[3] - out[2]))
            timing.start, timing.stop = out[2], out[3]
            try:
                self.on_result(index, out, self.result_faults.pop(index, None), timing)
            except BlockLost as exc:
                # the result's segments vanished before adoption:
                # re-execute the producing task
                self._completed.discard(index)
                if was_dup and timing.speculation_wins:
                    timing.speculation_wins -= 1
                self._fail(index, exc, pending)
        if broken:
            return broken
        self._maybe_speculate(lanes, pending)
        return []

    def _maybe_speculate(self, lanes: List[_WorkerLane],
                         pending: "deque[int]") -> None:
        """Launch duplicate attempts for tasks straggling past the threshold.

        The threshold comes from :func:`_speculation_threshold`.  At
        most one duplicate per task, only onto genuinely free lanes
        (pending tasks always fill lanes first) and never through the
        injector: duplicates cannot fire or consume injected faults.
        """
        factor = self.policy.speculation_factor
        if factor is None or pending or not self._durations:
            return
        threshold = _speculation_threshold(self._durations, self.policy)
        now = time.monotonic()
        free = [lane for lane in lanes if not lane.busy]
        for lane in lanes:
            if not free:
                return
            if not lane.busy:
                continue
            index = lane.index
            if (lane.is_dup or self.timings[index].tasks_speculated
                    or index in self._completed):
                continue
            if now - lane.launched <= threshold:
                continue
            dup_lane = free.pop(0)
            if not dup_lane.submit(self._payload(index, None), index, is_dup=True):
                return  # the next dispatch to that lane finds it broken
            self.timings[index].tasks_speculated += 1

    def _recover(self, broken: List[_WorkerLane], pending: "deque[int]") -> None:
        """Broken-lane path: account lost tasks, sweep, rebuild, resubmit.

        Only the broken lanes are torn down; healthy lanes keep their
        workers and queues.

        With a store, what the dead workers left behind is reclaimed
        before resubmitting.  A SIGKILLed worker runs neither ``atexit``
        nor its ``multiprocessing.util.Finalize`` hooks, so result
        segments it published but never handed off would outlive the run
        — :func:`~repro.frameworks.shm.sweep_orphan_segments` reclaims
        them by their pid-keyed names once the lanes' processes are
        joined.  The spill pipeline is settled too, so resubmitted tasks
        resolve through a consistent tier state; a sticky spill-writer
        failure is tolerated here — the flush reinstates the enqueued
        blocks as resident (no names leak) and the recovery proceeds
        with spilling disabled.
        """
        recover_start = time.perf_counter()
        doomed = sorted({lane.index for lane in broken if lane.busy})
        for lane in broken:
            lane.rebuild()  # joins the dead worker before the sweep below
        if self.store is not None:
            sweep_orphan_segments()
            try:
                self.store.flush_spill()
            except RuntimeError:
                pass
        alive = [i for i in doomed if i not in self._completed]
        for index in reversed(alive):
            self._fail(index, WorkerLost(
                f"worker died while task {index} was in flight"),
                pending, front=True)
        if alive:
            self.timings[alive[0]].recovery_seconds += time.perf_counter() - recover_start


class _PooledExecutor(ExecutorBase):
    """Base of the two process-pool executors: their lanes and their one ``map_tasks``.

    ``workers`` lanes start lazily on the first ``map_tasks`` call and
    serve every later call; :meth:`shutdown` stops them (a later call
    starts fresh ones).  Between calls a lane is replaced only when its
    worker dies, through the engine's recovery path.
    """

    crosses_processes = True

    def __init__(self, workers: int | None = None,
                 fault_policy: FaultPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        super().__init__(workers=workers or default_worker_count(),
                         fault_policy=fault_policy, fault_injector=fault_injector)
        self._lanes: List[_WorkerLane] = []

    def _worker_lanes(self) -> List[_WorkerLane]:
        """The executor's lanes, created on first use."""
        if not self._lanes:
            self._lanes = [_WorkerLane() for _ in range(self.workers)]
        return self._lanes

    def _drop_lanes(self) -> None:
        """Stop and join every lane's worker and forget the lanes.

        Idle workers exit on their own; a worker still busy with a task
        is killed, not waited out.  Joining reaps every worker, so
        ``RUSAGE_CHILDREN`` counts them all.
        """
        lanes, self._lanes = self._lanes, []
        for lane in lanes:
            lane.stop()
        for lane in lanes:
            lane.join()

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run the tasks on the worker lanes, measuring both crossings.

        Without a store each payload is pickled whole and so is each
        result.  With one, every payload's arrays are registered in the
        store first (each distinct array exactly once) and only refs are
        pickled.  Each result's blocks are copied into the driver's heap
        and their segments unlinked as soon as its task returns, while
        the worker that published them is alive, so results come back as
        plain arrays and hold no shared memory.
        """
        self.timings = []
        items = list(items)
        if not items:
            return []
        store = self.store
        # staging payloads can trigger spill eviction; attribute each
        # item's put-path stall (and background-writer progress) so the
        # per-task timings carry the write-behind split
        shipped: List[Any] = []
        referenced: List[int] = []
        staged: List[Tuple[float, float]] = []
        for item in items:
            if store is None:
                shipped.append(item)
                continue
            wait0, hidden0 = store.spill_wait_seconds, store.spill_hidden_seconds
            converted, _, nbytes = share_payload(item, store)
            shipped.append(converted)
            referenced.append(nbytes)
            staged.append((store.spill_wait_seconds - wait0,
                           store.spill_hidden_seconds - hidden0))
        # serialize each payload exactly once: the blob is both the bytes
        # shipped to the worker and the measurement of what crossed
        blobs = [pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
                 for item in shipped]
        results: List[Any] = [None] * len(items)

        def on_result(i: int, out_tuple: tuple, result_fault: Optional[FaultSpec],
                      timing: TaskTiming) -> None:
            out = out_tuple[1]
            payload = pickle.loads(out)
            if store is None:
                # result-target block faults act on shm segments; whole
                # pickles have none, so they are inert here
                results[i] = payload
            else:
                if result_fault is not None:
                    # injected handoff crash: the refs' segments vanish before
                    # adoption, which must surface as BlockLost → re-execution
                    unlink_result_refs(payload)
                results[i] = adopt_payload(payload, store)
                timing.bytes_shared = referenced[i]
                timing.bytes_shared_results = out_tuple[4]
                timing.spill_wait_seconds, timing.spill_hidden_seconds = staged[i]
            timing.bytes_pickled = len(blobs[i])
            timing.bytes_results_pickled = len(out)

        def on_discard(out_tuple: tuple) -> None:
            # a beaten speculative attempt still published its result
            # segments (and marked them handed off, so its own crash
            # cleanup leaves them alone); unlink them here or they leak
            try:
                unlink_result_refs(pickle.loads(out_tuple[1]))
            except Exception:  # noqa: BLE001 - best-effort reclamation
                pass

        engine = _PooledMapEngine(self, fn, blobs, on_result,
                                  on_discard=None if store is None else on_discard)
        engine.run()
        self.timings = engine.timings
        return results

    def shutdown(self) -> None:
        """Stop the worker lanes (a later ``map_tasks`` starts new ones)."""
        self._drop_lanes()


# The two executors are siblings, not parent and child: each class owns
# its ``map_tasks`` attribute lookup, so wrapping one never wraps the other.
class ProcessExecutor(_PooledExecutor):
    """Process-pool executor (bypasses the GIL).

    Pays pickling costs in both directions unless a framework on the
    shm data plane sets ``store``, which moves payloads and results
    through shared memory as :class:`SharedMemoryExecutor` does.

    Parameters
    ----------
    workers : int, optional
        Pool size; defaults to :func:`default_worker_count`.
    fault_policy : FaultPolicy, optional
        Opt into worker-death recovery and task retries (see the module
        docstring); ``None`` keeps the fail-fast behaviour.
    fault_injector : FaultInjector, optional
        Deterministic chaos source consumed at dispatch time.
    """


class SharedMemoryExecutor(_PooledExecutor):
    """Process-pool executor with a zero-copy shared-memory data plane.

    The transport of :meth:`_PooledExecutor.map_tasks` with a store:
    payload arrays are registered in the :class:`SharedMemoryStore` once
    and workers rehydrate :class:`~repro.frameworks.shm.BlockRef` handles
    as views; workers publish result arrays into fresh segments, and the
    driver copies each block out once and unlinks its segment on
    receipt, so results come back as plain writable arrays and the store
    holds only the payloads (which spill when a capacity is configured).

    Parameters
    ----------
    workers : int, optional
        Pool size; defaults to :func:`default_worker_count`.
    store : SharedMemoryStore, optional
        The store to register payloads in, with whatever capacity and
        spill settings it was built with; the caller owns it and cleans
        it up (a framework hands its own store down this way).  When
        omitted the executor owns a private unbounded store and unlinks
        its segments on :meth:`shutdown`.
    fault_policy : FaultPolicy, optional
        Opt into worker-death recovery, retries, the hung-worker check
        and lost-block handling; ``None`` keeps fail-fast behaviour.
    fault_injector : FaultInjector, optional
        Deterministic chaos source consumed at dispatch time.
    """

    def __init__(self, workers: int | None = None,
                 store: SharedMemoryStore | None = None,
                 fault_policy: FaultPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        super().__init__(workers, fault_policy=fault_policy,
                         fault_injector=fault_injector)
        self._owns_store = store is None
        self.store = SharedMemoryStore() if store is None else store

    def shutdown(self) -> None:
        """Stop the worker lanes, then unlink the owned store's segments.

        A caller-owned store is left alone.
        """
        super().shutdown()
        if self._owns_store:
            self.store.cleanup()


def make_executor(kind: str = "serial", workers: int | None = None,
                  store: SharedMemoryStore | None = None,
                  fault_policy: FaultPolicy | None = None,
                  fault_injector: FaultInjector | None = None) -> ExecutorBase:
    """Build an executor by name.

    Parameters
    ----------
    kind : str
        ``"serial"``, ``"threads"``, ``"processes"`` or ``"shm"`` (see
        :data:`PROCESS_KINDS` / :data:`SHM_KINDS` for the aliases).
    workers : int, optional
        Pool size for the pooled kinds.
    store : SharedMemoryStore, optional
        Caller-owned store for :class:`SharedMemoryExecutor` (ignored by
        the other kinds); when omitted the shm executor owns a private
        unbounded store.
    fault_policy : FaultPolicy, optional
        Retry/recovery policy for the resilience layer (all kinds).
    fault_injector : FaultInjector, optional
        Deterministic chaos source for fault-injection runs (all kinds).

    Returns
    -------
    ExecutorBase
        The requested executor.
    """
    if kind == "serial":
        return SerialExecutor(fault_policy=fault_policy,
                              fault_injector=fault_injector)
    if kind in ("threads", "thread"):
        return ThreadExecutor(workers, fault_policy=fault_policy,
                              fault_injector=fault_injector)
    if kind in PROCESS_KINDS:
        return ProcessExecutor(workers, fault_policy=fault_policy,
                               fault_injector=fault_injector)
    if kind in SHM_KINDS:
        return SharedMemoryExecutor(workers, store=store,
                                    fault_policy=fault_policy,
                                    fault_injector=fault_injector)
    raise ValueError(f"unknown executor kind {kind!r}")
