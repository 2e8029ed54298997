"""Fault policies, deterministic fault injection, and retry machinery.

The paper's production frameworks all survive worker loss: Spark
re-runs the tasks of a lost executor, Dask replays the graph upstream of
a dead worker, and RADICAL-Pilot late-binds units so a failed unit can
simply be rescheduled.  This module gives the reproduction the same
property at the same granularity — the task — and ships the test
infrastructure to prove it:

* :class:`FaultPolicy` says *what to do* when a task fails: how many
  times to retry, which exceptions count as transient, how long after
  dispatch a task may run before the driver declares its worker hung,
  and what to do about lost data blocks.  Threaded through
  :class:`~repro.frameworks.base.TaskFramework`, every substrate, and
  every executor.
* :class:`FaultSpec` / :class:`FaultInjector` are the deterministic
  chaos side: *kill the worker running the k-th task*, *raise inside
  the k-th kernel*, *unlink a spilled block when the k-th task is
  dispatched*, *delay the k-th task*.  The injector is consumed
  driver-side at dispatch time, so a retried task never re-triggers its
  fault and a fault-free re-run of the same workload is bit-identical.
* :func:`prepare_retry` is the one recovery step every retry path
  shares (policy check, block healing, accounting).  Three
  attempt loops launch attempts around it:

  - :func:`call_in_process`, run by the serial and thread executors
    and by mpilite's ranks;
  - the process-lane engine of :mod:`repro.frameworks.executors`;
  - pilot's unit rescheduling, RADICAL-Pilot's late binding: a failed
    unit is resubmitted as a new unit.

  sparklite and dasklite add no loop of their own: their tasks run on
  the executor.

Failure taxonomy
----------------
``WorkerLost``
    the process (or simulated worker) executing a task died; always
    retryable within ``max_retries``.
``BlockLost`` (from :mod:`repro.frameworks.shm`)
    a :class:`~repro.frameworks.shm.BlockRef` resolves through no tier.
    For task-payload blocks the store can usually *heal* the block from
    its registered source array; for result blocks the task is
    re-executed.  Governed by ``FaultPolicy.on_lost_block``.
``InjectedFault``
    the exception raised by ``kind="raise"`` faults; retryable like any
    ``retry_on`` match.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from .counters import TaskCounters
from .shm import BlockLost, SharedMemoryStore

__all__ = [
    "FAULT_KINDS",
    "HEARTBEAT_INTERVAL_S",
    "InjectedFault",
    "WorkerLost",
    "BlockLost",
    "FaultPolicy",
    "NO_RETRIES",
    "DEFAULT_POLICY",
    "FaultSpec",
    "FaultInjector",
    "prepare_retry",
    "call_in_process",
    "as_injector",
    "apply_block_fault",
    "execute_worker_fault",
    "simulate_in_process_fault",
]

#: Fault kinds understood by :class:`FaultSpec`.
FAULT_KINDS = ("kill_worker", "raise", "delay", "unlink_block", "corrupt_block")

#: Kinds applied driver-side to the data plane rather than inside a task.
_BLOCK_KINDS = ("unlink_block", "corrupt_block")

#: Seconds between the process-pool driver's wake-ups to check for hung
#: workers and stragglers while it waits on task completions.
HEARTBEAT_INTERVAL_S = 0.05


class InjectedFault(RuntimeError):
    """The exception a ``kind="raise"`` fault throws inside a task."""


class WorkerLost(RuntimeError):
    """A worker died (or was declared hung) while executing a task.

    Raised driver-side when a worker lane's process dies (or is killed
    for overrunning ``heartbeat_timeout_s``), and in-process when a
    ``kill_worker`` fault is simulated on an executor that shares the
    driver's address space.  Always retryable within
    :attr:`FaultPolicy.max_retries`.
    """


@dataclass(frozen=True)
class FaultPolicy:
    """What the frameworks do when a task fails.

    Parameters
    ----------
    max_retries : int, optional
        Times a single task may be re-executed after a failure (default
        2).  0 restores fail-fast behaviour.
    retry_on : tuple of exception types, optional
        In-task exceptions considered transient.  Worker death
        (:class:`WorkerLost`) is always retryable regardless, and lost
        blocks (:class:`~repro.frameworks.shm.BlockLost`) are governed
        by ``on_lost_block``.
    heartbeat_timeout_s : float, optional
        Process pools only: a worker whose current task was dispatched
        more than this many seconds ago without completing is declared
        hung and killed, which surfaces as :class:`WorkerLost` and
        triggers the normal resubmission path.  ``None`` (default)
        disables the check.  The driver checks every
        :data:`HEARTBEAT_INTERVAL_S`.
    on_lost_block : str, optional
        ``"recover"`` (default): heal an unresolvable task-payload block
        from its registered source array and retry, or re-execute the
        producing task for an unresolvable result block — both count
        into ``tasks_lost``.  ``"raise"``: propagate the
        :class:`~repro.frameworks.shm.BlockLost` immediately.
    speculation_factor : float, optional
        Straggler mitigation: a task still running after
        ``speculation_factor * median(completed task durations)``
        (floored at one :data:`HEARTBEAT_INTERVAL_S`) gets a duplicate
        attempt launched on a free worker.  First result wins; the
        loser is discarded (and its worker SIGKILLed if it never
        returns), counted into ``tasks_speculated`` /
        ``speculation_wins``.  ``None`` (default) disables speculation.
        In-process executors, where a straggler cannot be raced for
        real, treat an injected ``"delay"`` fault on a speculative
        policy as a straggler whose duplicate wins immediately — the
        deterministic simulation the chaos suite asserts against.
    """

    max_retries: int = 2
    retry_on: Tuple[type, ...] = (Exception,)
    heartbeat_timeout_s: Optional[float] = None
    on_lost_block: str = "recover"
    speculation_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if self.on_lost_block not in ("recover", "raise"):
            raise ValueError("on_lost_block must be 'recover' or 'raise'")
        if self.speculation_factor is not None and self.speculation_factor <= 0:
            raise ValueError("speculation_factor must be positive")

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether a task that failed with ``exc`` on ``attempt`` may rerun.

        Parameters
        ----------
        exc : BaseException
            The failure.
        attempt : int
            0-based attempt number that failed.

        Returns
        -------
        bool
            ``True`` when the policy allows re-executing the task.
        """
        if attempt >= self.max_retries:
            return False
        if isinstance(exc, WorkerLost):
            return True
        if isinstance(exc, BlockLost):
            return self.on_lost_block == "recover"
        return isinstance(exc, self.retry_on)


#: Fail-fast policy: the pre-resilience behaviour of every substrate.
NO_RETRIES = FaultPolicy(max_retries=0)

#: The policy a caller gets by asking for fault tolerance without tuning.
DEFAULT_POLICY = FaultPolicy()


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: what happens, and at which task.

    ``at_task`` counts *first-attempt* task dispatches in driver
    dispatch order, so a spec fires exactly once per run and a retried
    task can never re-trigger it — the property that makes chaos runs
    reproducible and lets the suite assert exact retry counts.

    Parameters
    ----------
    kind : str
        One of :data:`FAULT_KINDS`:

        ``"kill_worker"``
            SIGKILL the worker process executing the task (process
            pools), or raise :class:`WorkerLost` at the dispatch point
            (in-process executors, where killing the worker would kill
            the driver).
        ``"raise"``
            Raise :class:`InjectedFault` inside the task.
        ``"delay"``
            Sleep ``delay_s`` inside the task before running it (drives
            the hung-worker check and speculation).
        ``"unlink_block"``
            ``target="spill"``: unlink the oldest spilled ``.blk`` file
            of the run's store at dispatch time.  ``target="result"``:
            unlink the task's published result segments after the
            worker returns but before the driver adopts them — a result
            lost between publish and receipt.
        ``"corrupt_block"``
            Truncate the oldest spilled ``.blk`` file to half its size
            (resolves fail exactly like an unlinked block).
    at_task : int, optional
        0-based index of the first-attempt dispatch the fault fires on.
    delay_s : float, optional
        Sleep for ``"delay"`` faults (default 0.5 s).
    when : str, optional
        ``"kill_worker"`` timing: ``"before"`` (default) kills before
        the task body runs; ``"after_publish"`` runs the task, publishes
        its result segments, then kills — leaving segments that only
        the driver's unlink of the attempt's name reclaims.
    target : str, optional
        Block-fault target: ``"spill"`` (default) or ``"result"``.
    message : str, optional
        Message carried by the raised :class:`InjectedFault`.
    """

    kind: str
    at_task: int = 0
    delay_s: float = 0.5
    when: str = "before"
    target: str = "spill"
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.at_task < 0:
            raise ValueError("at_task must be non-negative")
        if self.when not in ("before", "after_publish"):
            raise ValueError("when must be 'before' or 'after_publish'")
        if self.target not in ("spill", "result"):
            raise ValueError("target must be 'spill' or 'result'")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    @property
    def is_block_fault(self) -> bool:
        """Whether this fault sabotages the data plane instead of a task."""
        return self.kind in _BLOCK_KINDS


class FaultInjector:
    """Deterministic, consume-on-fire fault source shared by one run.

    Executors and substrate wrappers call :meth:`claim` exactly once per
    *first-attempt* task dispatch, in dispatch order; a spec whose
    ``at_task`` matches the dispatch counter is removed from the pending
    set and returned for the dispatcher to execute.  Retried dispatches
    (``attempt > 0``) never advance the counter and never fire, so a
    recovered run continues fault-free.

    Thread-safe: the thread executor's tasks and mpilite's ranks claim
    concurrently.

    Parameters
    ----------
    *specs : FaultSpec
        The faults to inject, in any order.
    """

    def __init__(self, *specs: FaultSpec) -> None:
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultInjector takes FaultSpec, got {type(spec)!r}")
        self._initial = tuple(specs)
        self._lock = threading.Lock()
        self._pending: List[FaultSpec] = list(specs)
        self._dispatches = 0
        self.fired: List[FaultSpec] = []

    def claim(self, attempt: int = 0) -> Optional[FaultSpec]:
        """Consume and return the fault for this dispatch, if any.

        Parameters
        ----------
        attempt : int, optional
            0-based attempt number of the dispatch.  Only first
            attempts advance the dispatch counter and can fire.

        Returns
        -------
        FaultSpec or None
            The fault to execute for this dispatch.
        """
        if attempt != 0:
            return None
        with self._lock:
            index = self._dispatches
            self._dispatches += 1
            for spec in self._pending:
                if spec.at_task == index:
                    self._pending.remove(spec)
                    self.fired.append(spec)
                    return spec
        return None

    def unclaim(self, spec: Optional[FaultSpec] = None) -> None:
        """Roll back the most recent :meth:`claim` (dispatch never happened).

        A dispatcher that claimed a fault but failed to start the task
        (e.g. ``pool.submit`` raised on an already-broken pool) calls
        this before requeueing the task, so the dispatch counter stays
        aligned with the tasks that actually ran and a claimed-but-
        unexecuted spec returns to the pending set — preserving the
        exactly-once injection contract.  Only valid immediately after
        the claim, from the same (serial) dispatch loop.

        Parameters
        ----------
        spec : FaultSpec, optional
            The spec the rolled-back claim returned, if any.
        """
        with self._lock:
            if self._dispatches > 0:
                self._dispatches -= 1
            if spec is not None:
                if self.fired and self.fired[-1] is spec:
                    self.fired.pop()
                self._pending.append(spec)

    @property
    def pending(self) -> Tuple[FaultSpec, ...]:
        """Faults that have not fired yet."""
        with self._lock:
            return tuple(self._pending)

    def reset(self) -> None:
        """Restore the initial specs and zero the dispatch counter."""
        with self._lock:
            self._pending = list(self._initial)
            self._dispatches = 0
            self.fired = []


def as_injector(faults: Any) -> Optional[FaultInjector]:
    """Coerce the ``faults`` option of a framework to a :class:`FaultInjector`.

    Accepts ``None``, an injector (returned as-is, so one injector can
    be shared across the stages of a run), a single :class:`FaultSpec`,
    or a sequence of specs.
    """
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultInjector(faults)
    return FaultInjector(*faults)


# --------------------------------------------------------------------------- #
# executing faults
# --------------------------------------------------------------------------- #
def execute_worker_fault(spec: FaultSpec) -> None:
    """Run a task-side fault inside a real pool worker (pre-task timing).

    ``kill_worker`` with ``when="before"`` SIGKILLs the worker here;
    ``when="after_publish"`` is handled by the worker shim after
    publishing.  Block faults are driver-side and ignored here.
    """
    if spec.kind == "kill_worker" and spec.when == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == "raise":
        raise InjectedFault(spec.message)
    elif spec.kind == "delay":
        time.sleep(spec.delay_s)


def simulate_in_process_fault(spec: FaultSpec) -> None:
    """Run a task-side fault on an executor sharing the driver's process.

    ``kill_worker`` cannot SIGKILL without taking the driver down, so it
    degrades to raising :class:`WorkerLost` — the same signal the
    driver-side recovery of a real pool produces, exercising the same
    retry/accounting path on every substrate.
    """
    if spec.kind == "kill_worker":
        raise WorkerLost(f"injected worker kill (simulated in-process) "
                         f"at task {spec.at_task}")
    if spec.kind == "raise":
        raise InjectedFault(spec.message)
    if spec.kind == "delay":
        time.sleep(spec.delay_s)


def apply_block_fault(spec: FaultSpec, store: Optional[SharedMemoryStore]) -> bool:
    """Sabotage the data plane per a driver-side block fault.

    ``target="spill"`` faults act on the oldest spilled ``.blk`` file in
    the store's spill directory (name order, so the choice is
    deterministic): ``unlink_block`` removes it, ``corrupt_block``
    truncates it to half.  ``target="result"`` faults are applied by the
    process-lane engine instead, which unlinks the attempt's result
    segments before adopting them.

    Parameters
    ----------
    spec : FaultSpec
        A block fault (others are ignored).
    store : SharedMemoryStore or None
        The run's store; without one (pickle plane) nothing fires.

    Returns
    -------
    bool
        Whether a block file was actually sabotaged.
    """
    if not spec.is_block_fault or spec.target != "spill":
        return False
    if store is None or store.spill_dir is None:
        return False
    store.flush_spill()  # the fault targets a *spilled* block, so settle first
    try:
        blocks = sorted(name for name in os.listdir(store.spill_dir)
                        if name.endswith(".blk"))
    except OSError:
        return False
    if not blocks:
        return False
    path = os.path.join(store.spill_dir, blocks[0])
    try:
        if spec.kind == "unlink_block":
            os.remove(path)
        else:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
    except OSError:
        return False
    from .shm import _invalidate_mapping  # drop the driver's stale mapping
    _invalidate_mapping(path)
    return True


# --------------------------------------------------------------------------- #
# recovery and the in-process attempt loop
# --------------------------------------------------------------------------- #
def prepare_retry(exc: BaseException, policy: FaultPolicy,
                  store: Optional[SharedMemoryStore], counts: TaskCounters) -> bool:
    """Get a failed task ready to rerun, or report that the policy gives up.

    The recovery step every retry path shares: ask the policy (the
    failed attempt's number is ``counts.tasks_retried``), heal a lost
    payload block from its registered source array, and count the
    retry, the loss (worker death or lost block) and the time spent
    into ``counts``.  Launching the next attempt is the caller's part.

    Parameters
    ----------
    exc : BaseException
        The failure.
    policy : FaultPolicy
        The run's policy.
    store : SharedMemoryStore or None
        The store the payload refs came from, for block healing.
    counts : TaskCounters
        The failed task's own counters.

    Returns
    -------
    bool
        ``False`` when the task must not rerun; the caller surfaces
        ``exc``.
    """
    if not policy.should_retry(exc, counts.tasks_retried):
        return False
    start = time.perf_counter()
    if isinstance(exc, BlockLost) and store is not None:
        store.recover_spilled_block(exc.segment)
    counts.tasks_retried += 1
    counts.tasks_lost += int(isinstance(exc, (WorkerLost, BlockLost)))
    counts.recovery_seconds += time.perf_counter() - start
    return True


def call_in_process(fn: Callable[[Any], Any], item: Any, policy: FaultPolicy,
                    injector: Optional[FaultInjector],
                    store: Optional[SharedMemoryStore],
                    counts: TaskCounters) -> Tuple[Any, float]:
    """Run one task in the calling process, retrying per ``policy``.

    The first attempt claims its fault from the injector and simulates
    it here: block faults sabotage the store, an injected ``"delay"``
    under a speculative policy is a straggler whose duplicate wins at
    once (a real pool would race a duplicate attempt; here it wins
    instead of sleeping out the delay), and any other task-side fault
    goes through :func:`simulate_in_process_fault`.  Failures go through
    :func:`prepare_retry`.

    Parameters
    ----------
    fn : callable
        Task function.
    item : Any
        Task payload.
    policy : FaultPolicy
        Retry policy.
    injector : FaultInjector or None
        Deterministic fault source.
    store : SharedMemoryStore or None
        The run's store, for block faults and lost-block healing.
    counts : TaskCounters
        The task's counters; retries and speculation are counted here.

    Returns
    -------
    result : Any
        The successful attempt's return value.
    start : float
        ``perf_counter`` stamp at the start of that attempt.
    """
    while True:
        spec = injector.claim(counts.tasks_retried) if injector is not None else None
        start = time.perf_counter()
        try:
            if spec is not None:
                if spec.is_block_fault:
                    apply_block_fault(spec, store)
                elif spec.kind == "delay" and policy.speculation_factor is not None:
                    counts.tasks_speculated += 1
                    counts.speculation_wins += 1
                else:
                    simulate_in_process_fault(spec)
            return fn(item), start
        except Exception as exc:  # noqa: BLE001 - the policy decides
            if not prepare_retry(exc, policy, store, counts):
                raise
