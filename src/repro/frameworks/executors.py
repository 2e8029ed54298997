"""Task executors: the physical layer under every framework substrate.

Each framework (sparklite, dasklite, pilot, mpilite) needs to actually run
Python callables over collections of inputs.  To keep that concern in one
place the frameworks delegate to one of four executors:

* :class:`SerialExecutor` — runs tasks in the calling thread; fully
  deterministic, used by default in tests.
* :class:`ThreadExecutor` — a thread pool; NumPy/SciPy kernels release the
  GIL, so this gives real parallel speedup for the compute-heavy tasks of
  the paper (2D-RMSD blocks, cdist blocks) without pickling overhead.
* :class:`ProcessExecutor` — a process pool (``spawn`` not required, the
  default start method is used); incurs pickling of inputs and outputs,
  which is exactly the serialization cost the paper discusses for
  Python frameworks.
* :class:`SharedMemoryExecutor` — a process pool with the zero-copy data
  plane of :mod:`repro.frameworks.shm`: array payloads are registered in
  a :class:`~repro.frameworks.shm.SharedMemoryStore` once and workers
  receive tiny :class:`~repro.frameworks.shm.BlockRef` handles that
  rehydrate as views — and the same happens in reverse for results,
  which workers publish into shared segments and the driver adopts
  zero-copy instead of unpickling.

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
single-slot *worker lanes* (one single-process pool per worker, so the
driver chooses which worker runs which task), a worker death (detected
by its lane's broken sentinel, or by the driver killing a worker whose
heartbeat went stale) marks that lane's in-flight task lost, the
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
down by :meth:`~ExecutorBase.shutdown` (which ``TaskFramework.close()``
calls).  A lane is rebuilt only when its worker dies; a call that ends
in an exception shuts every lane down before re-raising, so no
straggler of the failed call can hand a result to the next one.

Since a warm lane forked before the current call, nothing of a call's
state may ride on the fork.  Each run ships what its workers need in the
task payload: the run's token and heartbeat directory, and the claimed
fault spec.  A worker that sees a new run also closes every
shared-memory attachment and spill-file mapping whose name the driver
has unlinked since
(:func:`~repro.frameworks.shm.release_stale_mappings`), so a long-lived
worker never pins the pages of dead blocks.

Locality-aware placement
------------------------
With ``FaultPolicy.locality`` set, the lane layer additionally routes
tasks by data affinity: workers report the block names they hold
resident (piggybacked on the heartbeat directory), the driver scores
pending tasks against each free lane's resident set, and a task whose
input blocks *spilled* is steered to the lane that still has them
mapped instead of paying a cold disk read on an arbitrary worker — with
bounded delay scheduling so affinity never idles a lane (see
:mod:`repro.frameworks.locality`).  Resident sets live on the lanes, so
they carry over from one call to the next — placement can span the
waves of a streamed run.  Placement lands in ``tasks_local``
/ ``tasks_remote`` and the steered-around reads in
``bytes_spill_reads_avoided``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bench.stats import median as _median
from .counters import TaskCounters
from .faults import (
    NO_RETRIES,
    RESIDENT_PREFIX,
    BlockLost,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    WorkerLost,
    apply_block_fault,
    call_in_process,
    clear_heartbeat,
    execute_worker_fault,
    kill_heartbeat_workers,
    kill_stale_workers,
    prepare_retry,
    read_resident_set,
    reap_dead_heartbeats,
    report_resident_set,
    unlink_result_refs,
    write_heartbeat,
)
from .locality import LocalityScheduler, TaskBlocks
from .shm import (
    BlockRef,
    SharedMemoryStore,
    adopt_payload,
    collect_refs,
    mark_handed_off,
    prefetch_hints_dropped,
    prefetch_refs,
    publish_payload,
    refs_nbytes,
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
    placement.

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
    resilience layer (``None`` keeps the fail-fast behaviour); a
    framework running on the shm data plane also points ``fault_store``
    at its store so lost-block healing can reach the registered source
    arrays.
    """

    workers: int = 1
    timings: List[TaskTiming] = field(default_factory=list, repr=False)
    fault_policy: Optional[FaultPolicy] = field(default=None, repr=False)
    fault_injector: Optional[FaultInjector] = field(default=None, repr=False)
    fault_store: Optional[SharedMemoryStore] = field(default=None, repr=False)
    #: heartbeat files left in ``hb_dir`` at the end of the last pooled
    #: run (after dead-pid reaping) — the clean-shutdown hygiene
    #: invariant the chaos suite asserts is that this list is empty
    last_hb_leftovers: List[str] = field(default_factory=list, repr=False)

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
        store = getattr(self, "store", None) or self.fault_store
        return self.fault_policy or NO_RETRIES, self.fault_injector, store

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
    sees a new token releases stale mappings) and ``hb_dir`` is the
    heartbeat directory (``None`` when no monitor needs one).
    """

    token: int
    hb_dir: Optional[str]


_RUN_TOKENS = itertools.count(1)

# worker-side: token of the last run this process served
_served_run: Optional[int] = None


def _enter_run(run: _Run) -> None:
    """Adopt a run's state in a pool worker, before its task executes.

    The first task of a new run closes the mappings of blocks unlinked
    since the worker's previous run
    (:func:`~repro.frameworks.shm.release_stale_mappings`).
    """
    global _served_run
    if run.token != _served_run:
        _served_run = run.token
        release_stale_mappings()


def _timed_call(payload: tuple) -> tuple:
    """Run one pre-pickled task in a pool worker (pickle plane).

    The item arrives pre-pickled (serialized exactly once, driver-side,
    which is also how its byte count is measured); deserialization and
    the result's serialization both run inside the timed region, where a
    real deployment pays them.  The result returns as a pickle blob so
    the driver can account the exact bytes that crossed back.

    ``spec`` carries a claimed task-side fault to execute here (a real
    SIGKILL for ``kill_worker``), and ``run`` the per-run state
    (:class:`_Run`): its ``hb_dir`` is the heartbeat directory this
    worker stamps for the driver's hung-worker monitor and reports its
    resident block set into for locality-aware placement.

    Both pool shims return the same 7-tuple ``(index, out, start, stop,
    bytes_shared, pid, prefetch_drops)``: the pid keys the worker's
    resident-set report to its lane driver-side, and ``prefetch_drops``
    is the worker-local delta of read-ahead hints dropped while this
    task ran.
    """
    index, fn, blob, spec, run = payload
    hb_dir = run.hb_dir
    _enter_run(run)
    write_heartbeat(hb_dir)
    drops_before = prefetch_hints_dropped()
    try:
        if spec is not None:
            execute_worker_fault(spec)
        start = time.perf_counter()
        result = fn(pickle.loads(blob))
        out = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        stop = time.perf_counter()
        if (spec is not None and spec.kind == "kill_worker"
                and spec.when == "after_publish"):
            os.kill(os.getpid(), signal.SIGKILL)
        report_resident_set(hb_dir)
        return (index, out, start, stop, 0, os.getpid(),
                prefetch_hints_dropped() - drops_before)
    finally:
        clear_heartbeat(hb_dir)


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
    """One single-slot worker: a private one-process pool plus lane state.

    Replacing the single shared pool with per-worker lanes is what makes
    placement *routable*: submitting on a lane runs the task on that
    lane's worker process, so the driver can steer a task to the process
    whose resident set covers the task's blocks.  It also shrinks the
    failure domain — a dead worker breaks its own lane only, and
    recovery rebuilds one process while the other lanes keep executing.

    A lane belongs to its executor (:class:`_PooledExecutor`), not to a
    ``map_tasks`` call: its worker forks at the lane's first submit and
    serves every later call until the executor shuts the lane down, so
    the fork cost is paid once per executor and the worker's mappings
    (``resident``) stay warm from one call to the next.  What a call
    needs beyond its task travels in the payload (:class:`_Run`).
    """

    __slots__ = ("lane_id", "pool", "future", "index", "is_dup", "launched",
                 "resident", "pid")

    def __init__(self, lane_id: int) -> None:
        self.lane_id = lane_id
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.future: Optional[Any] = None
        self.index: Optional[int] = None
        self.is_dup = False
        self.launched = 0.0
        self.resident: frozenset = frozenset()
        self.pid: Optional[int] = None

    @property
    def busy(self) -> bool:
        """Whether a task is currently in flight on this lane."""
        return self.future is not None

    def clear(self) -> None:
        """Forget the in-flight task (completed or handed to recovery)."""
        self.future = None
        self.index = None
        self.is_dup = False

    def rebuild(self) -> None:
        """Fresh worker process after a death.

        The resident set dies with the worker — a reaped lane must
        never attract tasks on the strength of blocks only the dead
        process held mapped.
        """
        self.pool = ProcessPoolExecutor(max_workers=1)
        self.resident = frozenset()
        self.pid = None


class _PooledMapEngine:
    """Fault-tolerant task feeder shared by the two process-pool executors.

    Runs one ``map_tasks`` call on the owner's single-slot
    :class:`_WorkerLane` objects (so worker death loses at most the one
    task on that lane).  The lanes come from one place,
    :meth:`_PooledExecutor._worker_lanes`, and outlive the call; the
    engine only owns the run: its :class:`_Run` state (token and
    heartbeat directory), shipped with every payload as
    ``(index, fn, blob, spec, run)``.  A run that raises shuts every
    lane down before the exception leaves, so a task still in flight
    cannot return into a later call.  The engine implements the whole
    recovery protocol:

    * a *task exception* returned by a worker is retried per the policy
      (lost payload blocks are healed from their registered sources
      between attempts);
    * a *broken lane* (worker SIGKILLed, OOM-killed, or killed by the
      heartbeat monitor below) marks that lane's in-flight task lost,
      reaps the lane's pool, runs the owner's
      :meth:`ExecutorBase._after_pool_break` hook (the shm executor
      sweeps the dead worker's orphaned result segments there), rebuilds
      the lane and resubmits — tasks queued or in flight on healthy
      lanes are never touched;
    * with ``heartbeat_timeout_s`` set, the driver checks worker
      heartbeat files while waiting and SIGKILLs any worker whose
      current task overran the timeout — converting a hang into the
      broken-lane path above;
    * with ``speculation_factor`` set, a task still in flight past
      :func:`_speculation_threshold` gets a *duplicate attempt*
      submitted to a free lane (never a chosen one: duplicates do not
      inherit affinity pins).  The first attempt to return wins and is
      recorded; the loser's result is discarded (``on_discard``, so
      published segments never leak), and a loser that never returns —
      the straggler itself — is SIGKILLed once every result is in, its
      leftovers reclaimed by the ordinary broken-lane sweep;
    * a result whose blocks cannot be adopted (``on_result`` raises
      :class:`~repro.frameworks.shm.BlockLost`) is treated as lost and
      the task re-executed;
    * with ``policy.locality`` set and ref-bearing payloads
      (``task_refs``), free lanes are filled by the
      :class:`~repro.frameworks.locality.LocalityScheduler` instead of
      queue order: workers report their resident block names through
      the heartbeat directory after each task, the driver mirrors the
      reports onto the lanes (optimistically extended at dispatch so
      same-wave tasks cluster), and spilled blocks missing from the
      chosen lane are prefetched at dispatch time.

    Faults are claimed from the injector once per first-attempt dispatch
    in dispatch order; task-side faults ship to the worker inside the
    payload, driver-side block faults are applied at dispatch (or, for
    ``target="result"``, remembered and applied to the returned refs
    before adoption).  Speculative duplicates never touch the injector:
    the exactly-once injection contract counts real dispatches only.

    The per-task state is ``timings``, one :class:`TaskTiming` per task
    that the owner returns as its own: the engine counts retries,
    speculation and placement into it and stamps ``start``/``stop``,
    ``on_result`` adds the byte counters, and a task's attempt number is
    its ``tasks_retried``.
    """

    def __init__(self, owner: "_PooledExecutor", worker_fn: Callable[[tuple], tuple],
                 fn: Callable[[Any], Any], blobs: List[bytes],
                 on_result: Callable[[int, tuple, Optional[FaultSpec], TaskTiming], None],
                 on_discard: Optional[Callable[[tuple], None]] = None,
                 task_refs: Optional[List[List[BlockRef]]] = None) -> None:
        self.owner = owner
        self.worker_fn = worker_fn
        self.fn = fn
        self.blobs = blobs
        self.on_result = on_result
        self.on_discard = on_discard
        self.n_tasks = n_tasks = len(blobs)
        self.hb_dir: Optional[str] = None
        self._run: Optional[_Run] = None
        policy, injector, store = owner._fault_context()
        self.policy = policy
        self.injector = injector
        self.store = store
        self.timings = [TaskTiming(i, 0.0, 0.0) for i in range(n_tasks)]
        self.result_faults: Dict[int, FaultSpec] = {}
        self._durations: List[float] = []
        self._completed: set = set()
        self._task_refs = task_refs
        self._scheduler: Optional[LocalityScheduler] = None
        if policy.locality and task_refs is not None and any(task_refs):
            blocks = [TaskBlocks.from_refs(i, refs)
                      for i, refs in enumerate(task_refs)]
            self._scheduler = LocalityScheduler(blocks, policy.locality_wait_s)

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
        hb_dir: Optional[str] = None
        if (self.policy.heartbeat_timeout_s is not None
                or self.policy.speculation_factor is not None
                or self._scheduler is not None):
            hb_dir = tempfile.mkdtemp(prefix="repro-hb-")
        self.hb_dir = hb_dir
        self._run = _Run(next(_RUN_TOKENS), hb_dir)
        pending: "deque[int]" = deque(range(self.n_tasks))
        lanes = self.owner._worker_lanes()
        try:
            while pending or any(lane.busy for lane in lanes):
                broken = self._pump(lanes, pending)
                if broken:
                    self._recover(broken, pending)
        except BaseException:
            # lanes outlive the call: drop them all, so an attempt still
            # in flight cannot hand its result to the next call
            self.owner._drop_lanes()
            raise
        finally:
            if hb_dir is not None:
                try:
                    # res- files are driver-consumed state, not leftovers:
                    # they persist by design until their worker is reaped
                    self.owner.last_hb_leftovers = sorted(
                        entry for entry in os.listdir(hb_dir)
                        if not entry.startswith(RESIDENT_PREFIX))
                except OSError:
                    self.owner.last_hb_leftovers = []
                shutil.rmtree(hb_dir, ignore_errors=True)

    def _dispatch(self, lane: _WorkerLane, index: int, pending: "deque[int]",
                  broken: List[_WorkerLane]) -> bool:
        """Submit one first-class attempt of ``index`` on ``lane``.

        Returns ``False`` when the lane's pool turns out to be broken:
        the dispatch never started, so the task goes back to the front
        of the queue un-penalized, any injector claim is rolled back
        (the exactly-once dispatch counter stays exact), and the lane is
        handed to recovery.
        """
        first_attempt = self.timings[index].tasks_retried == 0
        spec = self._dispatch_spec(index)
        try:
            lane.future = lane.pool.submit(self.worker_fn,
                                           self._payload(index, spec))
        except BrokenProcessPool:
            if self.injector is not None and first_attempt:
                self.injector.unclaim(spec or self.result_faults.pop(index, None))
            pending.appendleft(index)
            lane.clear()
            broken.append(lane)
            return False
        lane.index = index
        lane.is_dup = False
        lane.launched = time.monotonic()
        return True

    def _fill(self, lanes: List[_WorkerLane], pending: "deque[int]",
              broken: List[_WorkerLane]) -> None:
        """Assign pending tasks to free lanes (locality-aware when enabled).

        Without a scheduler this is plain queue order.  With one, each
        free lane asks :meth:`LocalityScheduler.choose` for the task it
        covers best; the lane's resident estimate is extended with the
        dispatched task's blocks immediately (so same-wave tasks over
        the same blocks cluster onto one lane instead of fanning out),
        and spilled blocks the lane is missing are prefetch-hinted so
        the page cache warms while the payload travels.
        """
        if self._scheduler is None:
            for lane in lanes:
                if not pending:
                    return
                if lane.busy or lane in broken:
                    continue
                self._dispatch(lane, pending.popleft(), pending, broken)
            return
        spilled = (self.store.spilled_names() if self.store is not None
                   else frozenset())
        progress = True
        while progress and pending:
            progress = False
            for lane in lanes:
                if not pending:
                    return
                if lane.busy or lane in broken:
                    continue
                others = {o.lane_id: o.resident for o in lanes
                          if o is not lane and o not in broken}
                placement = self._scheduler.choose(
                    pending, lane.lane_id, lane.resident, others, spilled)
                if placement is None:
                    continue  # hold: better-affine lanes may free in time
                pending.remove(placement.index)
                timing = self.timings[placement.index]
                if placement.missing and self._task_refs is not None:
                    missing_refs = [r for r in self._task_refs[placement.index]
                                    if r.segment in placement.missing]
                    drops0 = prefetch_hints_dropped()
                    prefetch_refs(missing_refs)
                    timing.prefetch_hints_dropped += prefetch_hints_dropped() - drops0
                if self._dispatch(lane, placement.index, pending, broken):
                    # last dispatch wins: a retried task re-scores, so the
                    # flags describe the attempt that actually produced
                    # the result
                    timing.tasks_local = int(placement.local)
                    timing.tasks_remote = int(not placement.local)
                    timing.bytes_spill_reads_avoided += placement.bytes_avoided
                    lane.resident = lane.resident | self._scheduler.names_for(
                        placement.index)
                    progress = True

    def _pump(self, lanes: List[_WorkerLane],
              pending: "deque[int]") -> List[_WorkerLane]:
        """Fill free lanes, wait for completions, and process them.

        Returns the lanes found broken this round (empty when none):
        the caller runs one recovery pass over all of them, so several
        simultaneous worker deaths cost one sweep-and-rebuild — and
        tasks queued or running on healthy lanes are never disturbed.
        """
        hb_dir = self.hb_dir
        broken: List[_WorkerLane] = []
        self._fill(lanes, pending, broken)
        if broken:
            return broken
        busy = [lane for lane in lanes if lane.busy]
        if not busy:
            return []
        if (not pending and hb_dir is not None
                and all(lane.index in self._completed for lane in busy)):
            # every result is in; the only occupied lanes are beaten
            # straggler attempts.  SIGKILL them (ownership-verified via
            # the heartbeat files) and let the broken-lane path below
            # reap, sweep and rebuild with nothing left to resubmit.
            kill_heartbeat_workers(hb_dir)
        timeout = self.policy.heartbeat_interval_s if hb_dir is not None else None
        done, _ = futures_wait({lane.future for lane in busy}, timeout=timeout,
                               return_when=FIRST_COMPLETED)
        if not done:
            if hb_dir is not None and self.policy.heartbeat_timeout_s is not None:
                kill_stale_workers(hb_dir, self.policy.heartbeat_timeout_s)
            self._maybe_speculate(lanes, pending)
            return []
        for lane in busy:
            if lane.future not in done:
                continue
            index, was_dup = lane.index, lane.is_dup
            future = lane.future
            lane.clear()
            try:
                out = future.result()
            except BrokenProcessPool:
                # restore the slot so recovery counts this task lost
                lane.future, lane.index, lane.is_dup = future, index, was_dup
                broken.append(lane)
                continue
            except Exception as exc:  # noqa: BLE001 - policy decides below
                if index in self._completed:
                    continue  # a beaten attempt failed; the winner landed
                self._fail(index, exc, pending)
                continue
            self._observe_worker(lane, index, out)
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

    def _observe_worker(self, lane: _WorkerLane, index: int, out: tuple) -> None:
        """Absorb the worker-reported tail of a result tuple.

        Every successful result carries ``(pid, prefetch_drops)`` after
        the payload fields; with locality on, the worker's resident-set
        report (written beside its heartbeat) replaces the driver's
        optimistic estimate — ground truth from the process itself.
        """
        pid, dropped = out[5], out[6]
        lane.pid = pid
        if dropped:
            self.timings[index].prefetch_hints_dropped += dropped
        if self._scheduler is not None and self.hb_dir is not None:
            names = read_resident_set(self.hb_dir, pid)
            if names is not None:
                lane.resident = names

    def _maybe_speculate(self, lanes: List[_WorkerLane],
                         pending: "deque[int]") -> None:
        """Launch duplicate attempts for tasks straggling past the threshold.

        The threshold comes from :func:`_speculation_threshold`.  At
        most one duplicate per task, only onto genuinely free lanes
        (pending tasks always fill lanes first) with no regard for
        affinity — a duplicate exists to dodge a slow *worker*, so it
        must not inherit the placement that put the straggler there —
        and never through the injector: duplicates cannot fire or
        consume injected faults.
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
            try:
                dup_lane.future = dup_lane.pool.submit(self.worker_fn,
                                                       self._payload(index, None))
            except BrokenProcessPool:
                dup_lane.clear()
                return  # the primary's failure handling owns this path
            dup_lane.index = index
            dup_lane.is_dup = True
            dup_lane.launched = now
            self.timings[index].tasks_speculated += 1

    def _recover(self, broken: List[_WorkerLane], pending: "deque[int]") -> None:
        """Broken-lane path: account lost tasks, sweep, rebuild, resubmit.

        Only the broken lanes are torn down; healthy lanes keep their
        workers, queues and resident sets.  Rebuilding resets each
        broken lane's resident set — a fresh worker holds nothing, so
        the scheduler must not route tasks on the dead process's
        affinity — and ``reap_dead_heartbeats`` drops the dead pids'
        heartbeat *and* resident-set files.
        """
        recover_start = time.perf_counter()
        doomed = sorted({lane.index for lane in broken if lane.busy})
        for lane in broken:
            lane.clear()
            lane.pool.shutdown(wait=True)  # reap the dead worker first
        self.owner._after_pool_break()
        if self.hb_dir is not None:
            # a SIGKILLed worker never ran its clear_heartbeat; drop the
            # files of dead/recycled pids so hb_dir ends the run empty
            reap_dead_heartbeats(self.hb_dir)
        alive = [i for i in doomed if i not in self._completed]
        for index in reversed(alive):
            self._fail(index, WorkerLost(
                f"worker died while task {index} was in flight"),
                pending, front=True)
        for lane in broken:
            lane.rebuild()
        if alive:
            self.timings[alive[0]].recovery_seconds += time.perf_counter() - recover_start


class _PooledExecutor(ExecutorBase):
    """Base of the two process-pool executors: owns their worker lanes.

    ``workers`` lanes start lazily on the first ``map_tasks`` call and
    serve every later call; :meth:`shutdown` stops them (a later call
    starts fresh ones).  Between calls a lane is replaced only when its
    worker dies, through the engine's recovery path.
    """

    def __init__(self, workers: int | None = None,
                 fault_policy: FaultPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        super().__init__(workers=workers or default_worker_count(),
                         fault_policy=fault_policy, fault_injector=fault_injector)
        self._lanes: List[_WorkerLane] = []

    def _worker_lanes(self) -> List[_WorkerLane]:
        """The executor's lanes, created on first use."""
        if not self._lanes:
            self._lanes = [_WorkerLane(i) for i in range(self.workers)]
        return self._lanes

    def _drop_lanes(self) -> None:
        """Shut every lane's worker down and forget the lanes."""
        lanes, self._lanes = self._lanes, []
        for lane in lanes:
            lane.pool.shutdown(wait=True)

    def _after_pool_break(self) -> None:
        """Hook run between reaping a broken lane and rebuilding it.

        The shm executor sweeps the dead workers' orphaned result
        segments and settles the spill pipeline here; the base hook does
        nothing.
        """

    def shutdown(self) -> None:
        """Stop the worker lanes (a later ``map_tasks`` starts new ones)."""
        self._drop_lanes()


class ProcessExecutor(_PooledExecutor):
    """Process-pool executor (pays pickling costs, bypasses the GIL).

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

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run the tasks on a process pool, measuring both crossings."""
        self.timings = []
        items = list(items)
        if not items:
            return []
        # serialize each payload exactly once: the blob is both the bytes
        # shipped to the worker and the measurement of what crossed
        blobs = [pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
                 for item in items]
        results: List[Any] = [None] * len(items)

        def on_result(i: int, out_tuple: tuple, result_fault: Optional[FaultSpec],
                      timing: TaskTiming) -> None:
            out = out_tuple[1]
            # result-target block faults act on shm segments; the pickle
            # plane has none, so they are inert here
            results[i] = pickle.loads(out)
            timing.bytes_pickled = len(blobs[i])
            timing.bytes_results_pickled = len(out)

        # the pickle plane carries no BlockRefs unless the caller put
        # some in the payloads (mixed plane); collect them so locality
        # placement works wherever refs are present
        task_refs = None
        if self.fault_policy is not None and self.fault_policy.locality:
            task_refs = [collect_refs(item) for item in items]
        engine = _PooledMapEngine(self, _timed_call, fn, blobs, on_result,
                                  task_refs=task_refs)
        engine.run()
        self.timings = engine.timings
        return results


def _shm_timed_call(payload: tuple) -> tuple:
    """Run one task in a pool worker on the shm plane, both directions.

    Unpickling the (tiny) ref payload plus attaching to the segments
    *is* this data plane's deserialization cost, and publishing the
    result arrays into shared segments is its serialization cost — both
    run inside the timed region, exactly where pickling/unpickling shows
    up for :class:`ProcessExecutor`.  Only the published refs travel
    back through the pickle channel.

    ``spec`` carries a claimed task-side fault: a ``kill_worker`` with
    ``when="after_publish"`` SIGKILLs *between* publishing and the
    hand-off — the crash window whose pid-keyed orphan segments the
    driver's recovery sweep reclaims.
    """
    index, fn, blob, spec, run = payload
    hb_dir = run.hb_dir
    _enter_run(run)
    write_heartbeat(hb_dir)
    drops_before = prefetch_hints_dropped()
    try:
        if spec is not None:
            execute_worker_fault(spec)
        start = time.perf_counter()
        result = fn(resolve_payload(pickle.loads(blob)))
        published, shared = publish_payload(result)
        out = pickle.dumps(published, protocol=pickle.HIGHEST_PROTOCOL)
        stop = time.perf_counter()
        if (spec is not None and spec.kind == "kill_worker"
                and spec.when == "after_publish"):
            # die with the refs unreturned: the segments are orphans only
            # the pid-keyed sweep can reclaim (SIGKILL skips every hook)
            os.kill(os.getpid(), signal.SIGKILL)
        # the blob is on its way to the driver, whose store adopts the
        # segments; this worker's crash-cleanup hook must leave them alone
        mark_handed_off(published)
        report_resident_set(hb_dir)
        return (index, out, start, stop, shared, os.getpid(),
                prefetch_hints_dropped() - drops_before)
    finally:
        clear_heartbeat(hb_dir)


class SharedMemoryExecutor(_PooledExecutor):
    """Process-pool executor with a zero-copy shared-memory data plane.

    Before submission every task payload is walked and its NumPy arrays
    are registered in the executor's :class:`SharedMemoryStore` (each
    distinct array exactly once); the workers receive payloads whose
    arrays are replaced by :class:`~repro.frameworks.shm.BlockRef`
    handles and rehydrate them as views of the shared segments.  Results
    travel the same plane in reverse: workers publish result arrays into
    fresh segments, only the refs return through the pickle channel, and
    the driver adopts the segments into the store — so returned arrays
    are read-only views that stay valid until the store is cleaned up
    (:meth:`shutdown`), and they spill to disk with the rest of the
    store when a capacity is configured.

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
        Opt into worker-death recovery, retries, the heartbeat monitor
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

    def _after_pool_break(self) -> None:
        """Reclaim what a dead worker left behind before resubmitting.

        A SIGKILLed worker runs neither ``atexit`` nor its
        ``multiprocessing.util.Finalize`` hooks, so result segments it
        published but never handed off would outlive the run —
        :func:`~repro.frameworks.shm.sweep_orphan_segments` reclaims
        them by their pid-keyed names now that the pool's processes are
        reaped.  The spill pipeline is settled too, so resubmitted tasks
        resolve through a consistent tier state; a sticky spill-writer
        failure is tolerated here — the flush reinstates the enqueued
        blocks as resident (no names leak) and the recovery proceeds
        with spilling disabled.
        """
        sweep_orphan_segments()
        try:
            self.store.flush_spill()
        except RuntimeError:
            pass

    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run the tasks on a process pool with zero-copy payloads and results."""
        self.timings = []
        items = list(items)
        if not items:
            return []
        # staging payloads can trigger spill eviction; attribute each
        # item's put-path stall (and background-writer progress) so the
        # per-task timings carry the write-behind split
        shared_items: List[Any] = []
        stage_waits: List[float] = []
        stage_hidden: List[float] = []
        for item in items:
            wait0 = self.store.spill_wait_seconds
            hidden0 = self.store.spill_hidden_seconds
            shared_items.append(share_payload(item, self.store)[0])
            stage_waits.append(self.store.spill_wait_seconds - wait0)
            stage_hidden.append(self.store.spill_hidden_seconds - hidden0)
        blobs = [pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
                 for item in shared_items]
        shared_sizes = [refs_nbytes(item) for item in shared_items]
        results: List[Any] = [None] * len(items)

        def on_result(i: int, out_tuple: tuple, result_fault: Optional[FaultSpec],
                      timing: TaskTiming) -> None:
            out, shared = out_tuple[1], out_tuple[4]
            payload = pickle.loads(out)
            if result_fault is not None:
                # injected handoff crash: the refs' segments vanish before
                # adoption, which must surface as BlockLost → re-execution
                unlink_result_refs(payload)
            # adopt while the pool is alive: the worker that created the
            # segments keeps them mapped until the driver owns them
            wait0 = self.store.spill_wait_seconds
            hidden0 = self.store.spill_hidden_seconds
            results[i] = adopt_payload(payload, self.store)
            timing.bytes_pickled = len(blobs[i])
            timing.bytes_shared = shared_sizes[i]
            timing.bytes_results_pickled = len(out)
            timing.bytes_shared_results = shared
            timing.spill_wait_seconds = (stage_waits[i]
                                         + self.store.spill_wait_seconds - wait0)
            timing.spill_hidden_seconds = (stage_hidden[i]
                                           + self.store.spill_hidden_seconds - hidden0)

        def on_discard(out_tuple: tuple) -> None:
            # a beaten speculative attempt still published its result
            # segments (and marked them handed off, so its own crash
            # cleanup leaves them alone); unlink them here or they leak
            try:
                unlink_result_refs(pickle.loads(out_tuple[1]))
            except Exception:  # noqa: BLE001 - best-effort reclamation
                pass

        task_refs = None
        if self.fault_policy is not None and self.fault_policy.locality:
            task_refs = [collect_refs(item) for item in shared_items]
        engine = _PooledMapEngine(self, _shm_timed_call, fn, blobs, on_result,
                                  on_discard=on_discard, task_refs=task_refs)
        engine.run()
        self.timings = engine.timings
        return results

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
