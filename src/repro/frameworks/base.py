"""Common framework interface and run metrics.

The paper compares four task-parallel substrates.  To let the algorithms
in :mod:`repro.core` run unchanged on every substrate, each substrate
exposes the same minimal surface:

* ``name`` — the framework's identity ("sparklite", "dasklite", "pilot",
  "mpilite"),
* ``map_tasks(fn, items)`` — run a bag of independent tasks and return
  results in order (the task-API / map-only pattern used by PSA and
  Leaflet Finder approach 2),
* ``broadcast(value)`` — make a value available to every task, returning a
  handle with byte accounting (approach 1),
* ``metrics`` — a :class:`RunMetrics` accumulating task counts, overheads
  and communication volumes for the most recent operation.

Richer, framework-specific APIs (RDDs, bags, delayed graphs, compute
units, communicators) remain available on the concrete classes — the
algorithms use them where the paper's implementation did.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cluster import ClusterSpec, local_cluster
from .counters import COUNTERS, MIRROR, SUM, TaskCounters
from .executors import PROCESS_KINDS, SHM_KINDS, ExecutorBase, make_executor
from .faults import FaultInjector, FaultPolicy, as_injector
from .serialization import nbytes_of, serialized_size
from .shm import (
    DATA_PLANES,
    ResolvingTask,
    SharedMemoryStore,
    adopt_payload,  # noqa: F401 - benchmarks/e2e/spans.py wraps base.adopt_payload
    share_payload,
    stand_in_refs,
)

__all__ = ["RunMetrics", "BroadcastHandle", "TaskFramework"]

#: the store settings of a framework constructed without any
_DEFAULT_STORE_SETTINGS = dict(capacity_bytes=None, spill_dir=None, spill_async=True,
                               spill_queue_depth=4)


@dataclass
class RunMetrics(TaskCounters):
    """Accumulated measurements for one framework operation.

    Carries every per-task counter of
    :class:`~repro.frameworks.counters.TaskCounters` — the task- and
    result-direction ``*_pickled`` / ``*_shared`` byte splits, the
    ``spill_wait_seconds`` / ``spill_hidden_seconds`` stall split,
    retries, speculation and dropped read-ahead hints — summed over the
    operation's tasks and combined per each counter's declared rule.
    Process pools measure real pickled sizes; in-process executors
    estimate with :func:`~repro.frameworks.serialization.nbytes_of`, the
    same would-move convention used for broadcast/shuffle volumes.

    Attributes
    ----------
    tasks_submitted / tasks_completed:
        Task counts.
    wall_time_s:
        End-to-end wall clock of the operation.
    task_time_s:
        Sum of the individual task durations (useful work + per-task
        overhead inside workers).
    overhead_s:
        Framework overhead: wall time not attributable to the critical
        path of useful work (estimated as ``wall - task_time/workers``).
    bytes_broadcast / bytes_shuffled / bytes_staged:
        Communication volumes, measured with
        :func:`repro.frameworks.serialization.nbytes_of` /
        ``serialized_size`` depending on the substrate.
    bytes_spilled:
        Cumulative bytes the framework's store moved to its disk tier
        (non-zero only when a ``store_capacity_bytes`` watermark is
        configured and exceeded).
    bytes_ingested / peak_resident_bytes:
        The streaming-input split: cumulative unique chunk bytes the
        store ingested from source files
        (:meth:`~repro.frameworks.shm.SharedMemoryStore.ingest`), and
        the residency high-water mark over the run.  An out-of-core run
        shows ``peak_resident_bytes`` well below ``bytes_ingested``.
        Like ``bytes_spilled``, these mirror the store's cumulative
        values.
    tasks_restored / restore_seconds:
        Checkpoint/restart accounting: tasks whose results were
        replayed from a :class:`~repro.frameworks.checkpoint.RunJournal`
        instead of re-executed, and the driver time spent replaying.
    events:
        Free-form ``(label, value)`` pairs recorded by substrates
        (e.g. per-stage timings, database round-trips).
    """

    tasks_submitted: int = 0
    tasks_completed: int = 0
    wall_time_s: float = 0.0
    task_time_s: float = 0.0
    overhead_s: float = 0.0
    bytes_broadcast: int = 0
    bytes_shuffled: int = 0
    bytes_staged: int = 0
    bytes_spilled: int = field(default=0, metadata={"rule": MIRROR})
    bytes_ingested: int = field(default=0, metadata={"rule": MIRROR})
    peak_resident_bytes: int = field(default=0, metadata={"rule": MIRROR})
    tasks_restored: int = 0
    restore_seconds: float = 0.0
    events: List[tuple] = field(default_factory=list)

    def record_event(self, label: str, value: Any) -> None:
        """Append a free-form measurement."""
        self.events.append((label, value))

    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Combine two metric records (used when an algorithm runs stages).

        Store mirrors keep the larger reading, since a later one already
        includes the earlier; every other field adds, and the events
        concatenate.
        """
        merged = RunMetrics(events=self.events + other.events)
        for f in fields(self):
            if f.name != "events":
                a, b = getattr(self, f.name), getattr(other, f.name)
                setattr(merged, f.name,
                        max(a, b) if f.metadata.get("rule") == MIRROR else a + b)
        return merged

    def as_dict(self) -> dict:
        """Plain-dict view for reports (every field but ``events``)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "events"}


@dataclass
class BroadcastHandle:
    """Handle to a broadcast value plus its measured size.

    ``value`` is accessible from every task (all substrates here share an
    address space or re-ship the value to worker processes); ``nbytes``
    records how much data a distributed deployment would have had to move
    to every node.  On the shm data plane ``value`` is a
    :class:`~repro.frameworks.shm.BlockRef`, ``nbytes`` shrinks to the
    ref's pickled size and ``bytes_shared`` carries the array bytes that
    are shared instead of moved.
    """

    value: Any
    nbytes: int
    framework: str = ""
    bytes_shared: int = 0

    def unpersist(self) -> None:
        """Drop the reference to the underlying value."""
        self.value = None


class TaskFramework:
    """Base class for the four substrates.

    Parameters
    ----------
    cluster:
        The resources the framework is "deployed" on; defaults to a
        single-node local cluster sized to the executor's worker count.
    executor:
        Physical task executor ("serial", "threads", "processes", "shm"
        or an :class:`ExecutorBase` instance).  A substrate whose tasks
        cannot leave the driver's process (sparklite, mpilite) refuses
        one that crosses processes with ``ValueError``.
    data_plane:
        ``"pickle"`` (default) ships task payloads whole; ``"shm"``
        registers NumPy payloads in a :class:`SharedMemoryStore` once and
        ships :class:`~repro.frameworks.shm.BlockRef` handles instead,
        the zero-copy plane described in :mod:`repro.frameworks.shm`.
        On the shm plane *results* ride the plane too: a process lane
        publishes a result's arrays as segments and returns refs, and the
        driver copies each block out once and unlinks its segment on
        receipt, so results come back as plain arrays on every executor.
    store_capacity_bytes, spill_dir, spill_async, spill_queue_depth:
        The store settings.  The framework builds its one
        :class:`~repro.frameworks.shm.SharedMemoryStore` from them when
        the shm plane or an ``"shm"`` executor needs a store, hands it
        down to that executor, and releases it on :meth:`close`; a run
        that forces the shm plane (:meth:`run_plane`) builds its
        temporary store from the same settings.

        * ``store_capacity_bytes`` — watermark for resident segment
          bytes: past it, blocks spill least-recently-used-first to
          memory-mapped files, so workloads larger than ``/dev/shm``
          complete instead of crashing.  ``None`` (default) disables
          spilling.
        * ``spill_dir`` — directory for the spill tier (a private
          temporary directory when omitted).
        * ``spill_async`` — ``True`` (default) makes the spill tier
          write-behind: evictions enqueue onto a dedicated spill-writer
          thread instead of writing the file in the putting thread, and
          the metrics split the cost into ``spill_wait_seconds``
          (hot-path stall) vs ``spill_hidden_seconds`` (background
          writes).  ``False`` restores synchronous spilling.
        * ``spill_queue_depth`` — bound on the write-behind queue before
          eviction applies backpressure (default 4).

        A pre-built executor that brings its own store (a
        :class:`~repro.frameworks.executors.SharedMemoryExecutor`) is
        used with that store's settings, so giving store settings as
        well raises ``ValueError``.
    fault_policy:
        A :class:`~repro.frameworks.faults.FaultPolicy` opting the
        substrate into the resilience layer: failed tasks are retried
        deterministically, dead pool workers are replaced and their
        in-flight tasks resubmitted, and lost data blocks are healed or
        re-computed.  ``None`` (default) keeps fail-fast behaviour.
    faults:
        Deterministic fault injection for chaos runs: a
        :class:`~repro.frameworks.faults.FaultInjector`, a single
        :class:`~repro.frameworks.faults.FaultSpec`, or a sequence of
        specs.  Faults are consumed at first-attempt dispatch, so a
        recovered run continues fault-free.
    """

    name = "base"

    #: Why this substrate's tasks cannot leave the driver's process, or
    #: ``None`` when any executor may run them; ``__init__`` refuses an
    #: executor that crosses processes when a reason is set.
    _in_process_only: ClassVar[Optional[str]] = None

    def __init__(self, cluster: ClusterSpec | None = None,
                 executor: str | ExecutorBase = "serial",
                 workers: int | None = None,
                 data_plane: str = "pickle",
                 store_capacity_bytes: int | None = None,
                 spill_dir: str | None = None,
                 spill_async: bool = True,
                 spill_queue_depth: int = 4,
                 fault_policy: FaultPolicy | None = None,
                 faults: FaultInjector | Any = None) -> None:
        if data_plane not in DATA_PLANES:
            raise ValueError(
                f"unknown data_plane {data_plane!r}; choose from {DATA_PLANES}"
            )
        crosses = (executor.crosses_processes if isinstance(executor, ExecutorBase)
                   else executor in PROCESS_KINDS + SHM_KINDS)
        if crosses and self._in_process_only:
            raise ValueError(f"{self.name} cannot run on executor {executor!r}: "
                             f"{self._in_process_only}; use 'threads' or 'serial'")
        self._store_settings = dict(capacity_bytes=store_capacity_bytes,
                                    spill_dir=spill_dir, spill_async=spill_async,
                                    spill_queue_depth=spill_queue_depth)
        # a pre-built executor may bring its own store; otherwise the
        # framework owns the one store its plane or executor needs
        self.store: SharedMemoryStore | None = (
            executor.store if isinstance(executor, ExecutorBase) else None)
        if self.store is not None and self._store_settings != _DEFAULT_STORE_SETTINGS:
            raise ValueError(
                "the pre-built executor brings its own store, so the store "
                "settings given here would be ignored; configure that store instead"
            )
        self._owns_store = self.store is None and (data_plane == "shm"
                                                   or executor in SHM_KINDS)
        if self._owns_store:
            self.store = self._build_store()
        self.fault_policy = fault_policy
        self.fault_injector = as_injector(faults)
        if isinstance(executor, ExecutorBase):
            self.executor = executor
            # framework-level settings win where given, but a pre-built
            # executor's own fault configuration is never wiped by an
            # absent one
            if fault_policy is not None:
                self.executor.fault_policy = fault_policy
            if self.fault_injector is not None:
                self.executor.fault_injector = self.fault_injector
            # ...and an executor-only configuration reaches the retry
            # loops that run outside the executor (mpilite's ranks,
            # pilot's unit rescheduling)
            if self.fault_policy is None:
                self.fault_policy = self.executor.fault_policy
            if self.fault_injector is None:
                self.fault_injector = self.executor.fault_injector
        else:
            self.executor = make_executor(executor, workers, store=self.store,
                                          fault_policy=fault_policy,
                                          fault_injector=self.fault_injector)
        self.cluster = cluster or local_cluster(cores=self.executor.workers)
        self.metrics = RunMetrics()
        self.data_plane = data_plane
        # lost-block healing must reach the store the payload refs came
        # from, wherever the retry loop runs; on a process pool the store
        # also carries the payloads and results across
        self.executor.store = self.store

    def _build_store(self) -> SharedMemoryStore:
        """A new store with this framework's store settings."""
        return SharedMemoryStore(**self._store_settings)

    @contextmanager
    def run_plane(self, data_plane: str | None) -> Iterator[SharedMemoryStore | None]:
        """Run one analysis on ``data_plane``, restoring the framework after.

        ``None`` keeps the configured plane.  Forcing the other plane
        switches ``data_plane`` for the duration, so payload conversion
        and the reported label agree; a forced shm run on a framework
        without a store gets a temporary one built from the framework's
        store settings, handed to the executor and released when the run
        ends.  A forced pickle run leaves the executor's store in place,
        so a process pool that holds one keeps shipping refs.

        Parameters
        ----------
        data_plane : str or None
            ``"pickle"``, ``"shm"`` or ``None``.

        Yields
        ------
        SharedMemoryStore or None
            The store the run's payloads go into on the shm plane;
            ``None`` on the pickle plane.
        """
        plane = self.data_plane if data_plane is None else data_plane
        if plane not in DATA_PLANES:
            raise ValueError(f"unknown data_plane {plane!r}; choose from {DATA_PLANES}")
        configured_plane = self.data_plane
        temporary = self._build_store() if plane == "shm" and self.store is None else None
        self.data_plane = plane
        if temporary is not None:
            self.store = self.executor.store = temporary
        try:
            yield self.store if plane == "shm" else None
        finally:
            self.data_plane = configured_plane
            if temporary is not None:
                self.store = self.executor.store = None
                temporary.cleanup()

    # ------------------------------------------------------------------ #
    # the uniform surface used by repro.core
    # ------------------------------------------------------------------ #
    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run independent tasks and return their results in input order."""
        items = list(items)
        self.metrics = RunMetrics(tasks_submitted=len(items))
        fn, items = self._apply_data_plane(fn, items)
        start = time.perf_counter()
        results = self.executor.map_tasks(fn, items)
        wall = time.perf_counter() - start
        results = self._finish_results(results)
        task_time = self.executor.total_task_time
        self.metrics.tasks_completed = len(results)
        self.metrics.wall_time_s = wall
        self.metrics.task_time_s = task_time
        workers = max(1, self.executor.workers)
        self.metrics.overhead_s = max(0.0, wall - task_time / workers)
        self._collect_executor_bytes()
        return results

    def broadcast(self, value: Any) -> BroadcastHandle:
        """Make ``value`` available to all tasks; record its size.

        On the shm plane an array value is placed in the store once; the
        handle then carries a ref whose pickled size is what actually
        moves, while the array bytes are accounted as shared.
        """
        ref = self._share_value(value)
        if ref is not None:
            handle = BroadcastHandle(value=ref, nbytes=serialized_size(ref),
                                     framework=self.name, bytes_shared=ref.nbytes)
            self.metrics.bytes_broadcast += handle.nbytes
            self.metrics.bytes_shared += handle.bytes_shared
            return handle
        handle = BroadcastHandle(value=value, nbytes=nbytes_of(value),
                                 framework=self.name)
        self.metrics.bytes_broadcast += handle.nbytes
        return handle

    # ------------------------------------------------------------------ #
    # data-plane helpers shared by the substrates
    # ------------------------------------------------------------------ #
    def _share_value(self, value: Any):
        """Store ``value`` on the shm plane if eligible; the ref or None."""
        if (self.data_plane == "shm" and self.store is not None
                and isinstance(value, np.ndarray) and value.nbytes > 0):
            return self.store.put(value)
        return None

    def _apply_data_plane(self, fn: Callable[[Any], Any],
                          items: Sequence[Any]) -> Tuple[Callable[[Any], Any], List[Any]]:
        """Convert task payloads for the active data plane.

        On the pickle plane payloads pass through unchanged; when no
        process pool will measure real pickled sizes, the would-cross
        payload volume is estimated with ``nbytes_of`` so both planes
        report comparable ``bytes_pickled`` numbers.  On the shm plane
        every array inside every payload is swapped for a ref
        (deduplicated store-wide), ``fn`` is wrapped to resolve refs
        back to views task-side, and the metrics record the
        pickled-vs-shared byte split that a process-crossing deployment
        would see.  An executor that crosses processes converts and
        accounts payloads itself, through the store the framework handed
        it, so they pass through untouched.
        """
        items = list(items)
        if self.executor.crosses_processes:
            return fn, items
        if self.data_plane != "shm" or self.store is None:
            self.metrics.bytes_pickled += sum(nbytes_of(item) for item in items)
            return fn, items
        shared_items = []
        for item in items:
            converted, _, referenced = share_payload(item, self.store)
            shared_items.append(converted)
            self.metrics.bytes_shared += referenced
        self.metrics.bytes_pickled += sum(serialized_size(item) for item in shared_items)
        return ResolvingTask(fn), shared_items

    def _finish_results(self, results: List[Any]) -> List[Any]:
        """Account task results for the active data plane.

        Tasks that ran in the driver's process (serial and thread
        executors) return their results in the heap, on either plane.
        On the shm plane their result-direction byte split is what a
        process-crossing deployment would see: the array bytes as
        ``bytes_shared_results``, and as ``bytes_results_pickled`` the
        pickled size of each result with its arrays swapped for
        ref-shaped stand-ins (:func:`~repro.frameworks.shm.stand_in_refs`,
        which creates no segment).  On the pickle plane the would-move
        volume is estimated with ``nbytes_of``.  A process pool copied
        its results out of their segments and measured the real sizes
        itself.
        """
        executor_measures = self.executor.crosses_processes
        if self.data_plane == "shm" and self.store is not None:
            if not executor_measures:
                for result in results:
                    stand_in, referenced = stand_in_refs(result, self.store.spill_dir)
                    self.metrics.bytes_shared_results += referenced
                    self.metrics.bytes_results_pickled += serialized_size(stand_in)
            self.metrics.bytes_spilled = max(self.metrics.bytes_spilled,
                                             self.store.bytes_spilled)
            self.metrics.bytes_ingested = max(self.metrics.bytes_ingested,
                                              self.store.bytes_ingested)
            self.metrics.peak_resident_bytes = max(self.metrics.peak_resident_bytes,
                                                   self.store.peak_resident_bytes)
            self.metrics.spill_wait_seconds = max(self.metrics.spill_wait_seconds,
                                                  self.store.spill_wait_seconds)
            self.metrics.spill_hidden_seconds = max(self.metrics.spill_hidden_seconds,
                                                    self.store.spill_hidden_seconds)
        elif not executor_measures:
            self.metrics.bytes_results_pickled += sum(nbytes_of(r) for r in results)
        return results

    # ------------------------------------------------------------------ #
    def _collect_executor_bytes(self, measured: TaskCounters | None = None) -> None:
        """Fold the executor's per-task counters into the metrics.

        ``measured`` defaults to the executor's totals for its last
        ``map_tasks`` call.  Substrates whose tasks do not all run in one
        executor call pass their own: pilot its agent's rollup over every
        batch plus its unit rescheduling, mpilite its ranks' totals.
        Each counter meets what the framework recorded itself by its
        declared rule: ``sum`` counters add; for ``max`` counters
        ``_apply_data_plane`` estimated the crossing that a process
        executor measured, so the larger wins; for ``mirror`` counters
        the store's cumulative reading and the executor's per-task
        attribution describe the same stalls, so again the larger wins.
        """
        if measured is None:
            measured = self.executor.totals()
        for f in COUNTERS:
            ours, theirs = getattr(self.metrics, f.name), getattr(measured, f.name)
            setattr(self.metrics, f.name,
                    ours + theirs if f.metadata["rule"] == SUM else max(ours, theirs))

    def close(self) -> None:
        """Release executor resources and any owned shared-memory store."""
        self.executor.shutdown()
        if self._owns_store and self.store is not None:
            self.store.cleanup()
            # a pre-built executor may serve a later framework: it must
            # not bring this framework's dead store along
            self.executor.store = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} on {self.cluster.name}: "
                f"{self.cluster.total_cores} cores, "
                f"executor={type(self.executor).__name__}>")
