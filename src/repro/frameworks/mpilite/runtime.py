"""SPMD runtime (``mpiexec`` analogue) and the MPI framework facade.

:func:`run_spmd` launches ``size`` ranks of the same function, each on its
own thread with a :class:`~repro.frameworks.mpilite.comm.Communicator`,
and returns the per-rank return values.  :class:`MPIFramework` wraps that
runtime in the uniform :class:`~repro.frameworks.base.TaskFramework`
surface so the algorithms in :mod:`repro.core` can treat MPI as just
another substrate — with the caveats the paper lists: explicit
communication, no shuffle abstraction, static work partitioning.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

from ..base import BroadcastHandle, RunMetrics, TaskFramework
from ..counters import TaskCounters
from ..executors import ExecutorBase
from ..faults import NO_RETRIES, call_in_process
from ..serialization import nbytes_of, serialized_size
from ..sparklite.partitioner import split_into_partitions
from .comm import Communicator, WorldContext

__all__ = ["SPMDError", "run_spmd", "MPIFramework"]


class SPMDError(RuntimeError):
    """Raised when one or more ranks of an SPMD run failed."""

    def __init__(self, failures: List[tuple]) -> None:
        self.failures = failures
        summary = "; ".join(f"rank {rank}: {exc!r}" for rank, exc in failures[:3])
        super().__init__(f"{len(failures)} rank(s) failed: {summary}")


def run_spmd(fn: Callable[..., Any], size: int, *args: Any,
             context: WorldContext | None = None, **kwargs: Any) -> List[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks and collect results.

    Ranks execute on threads sharing a :class:`WorldContext`; the function
    must use the provided communicator for any cross-rank data exchange.
    Exceptions on any rank abort the run with :class:`SPMDError` (after all
    ranks have stopped), mirroring an MPI job abort.
    """
    import threading

    if size < 1:
        raise ValueError("size must be >= 1")
    ctx = context or WorldContext(size=size)
    if ctx.size != size:
        raise ValueError("context size does not match requested size")
    results: List[Any] = [None] * size
    failures: List[tuple] = []
    failure_lock = threading.Lock()

    def rank_main(rank: int) -> None:
        comm = Communicator(rank, ctx)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - collected and re-raised below
            with failure_lock:
                failures.append((rank, exc))
            # release peers blocked on the barrier so the job can abort
            ctx.barrier.abort()

    if size == 1:
        # fast path: run in the calling thread (keeps tracebacks simple)
        rank_main(0)
    else:
        threads = [threading.Thread(target=rank_main, args=(r,), name=f"rank-{r}")
                   for r in range(size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if failures:
        raise SPMDError(sorted(failures, key=lambda f: f[0]))
    return results


class MPIFramework(TaskFramework):
    """MPI-style framework substrate.

    ``map_tasks`` statically partitions the task list over the ranks
    (contiguous blocks, as an SPMD program would), each rank executes its
    block, and rank 0 gathers the results — the structure of the paper's
    MPI4py implementations of PSA and the Leaflet Finder.

    ``run_spmd`` exposes the raw SPMD runtime for algorithms that need
    explicit collectives (Leaflet Finder approaches with ``Bcast``).

    Ranks are threads of the driver's process around one communicator,
    so mpilite refuses executors that cross processes.  Each rank runs
    its tasks through
    :func:`~repro.frameworks.faults.call_in_process`, the same attempt
    loop as the in-process executors.

    On the shm plane the collectives move refs instead of arrays, and
    ranks resolve them zero-copy.

    Parameters
    ----------
    executor:
        See :class:`~repro.frameworks.base.TaskFramework` (default
        ``"threads"``); it sizes the default rank count and carries the
        fault configuration, but never runs a task.
    ranks:
        Number of SPMD ranks (default: the executor's worker count).
    **kwargs:
        ``cluster``, ``workers``, ``data_plane``, the store settings and
        the resilience options, as in
        :class:`~repro.frameworks.base.TaskFramework`.
    """

    name = "mpilite"

    _in_process_only = ("its ranks are threads of the driver's process "
                        "that share one communicator")

    def __init__(self, *, executor: str | ExecutorBase = "threads",
                 ranks: int | None = None, **kwargs) -> None:
        super().__init__(executor=executor, **kwargs)
        self.ranks = ranks or max(1, self.executor.workers)
        self.last_context: Optional[WorldContext] = None

    def _make_context(self, size: int) -> WorldContext:
        """A world context wired to the active data plane's transport."""
        store = self.store if self.data_plane == "shm" else None
        return WorldContext(size=size, store=store)

    # ------------------------------------------------------------------ #
    def run_spmd(self, fn: Callable[..., Any], *args: Any, ranks: int | None = None,
                 **kwargs: Any) -> List[Any]:
        """Run an SPMD function on this framework's ranks."""
        size = ranks or self.ranks
        context = self._make_context(size)
        self.last_context = context
        start = time.perf_counter()
        results = run_spmd(fn, size, *args, context=context, **kwargs)
        wall = time.perf_counter() - start
        self.metrics.wall_time_s += wall
        self.metrics.bytes_shuffled += context.bytes_communicated
        self.metrics.bytes_shared += context.bytes_shared
        self.metrics.record_event("spmd", {
            "ranks": size,
            "wall_time_s": wall,
            "bytes_communicated": context.bytes_communicated,
            "bytes_shared": context.bytes_shared,
            "collective_calls": context.collective_calls,
        })
        return results

    # ------------------------------------------------------------------ #
    # uniform TaskFramework surface
    # ------------------------------------------------------------------ #
    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Statically partition tasks over ranks and gather the results.

        Tasks run inside the SPMD rank threads, where one raising task
        aborts the whole job (the MPI failure model) — so the attempt
        loop runs *inside* the rank: a failing task is re-executed in
        place and the collective never aborts, the closest analogue MPI
        has to task replay.
        """
        items = list(items)
        self.metrics = RunMetrics(tasks_submitted=len(items))
        fn, items = self._apply_data_plane(fn, items)
        start = time.perf_counter()
        if not items:
            return []
        size = min(self.ranks, len(items))
        chunks = split_into_partitions(items, size)
        policy = self.fault_policy or NO_RETRIES
        rank_counts = [TaskCounters() for _ in range(size)]

        def run_one(item: Any, rank: int) -> Any:
            # a task's own record numbers its attempts; the rank's adds them up
            counts = TaskCounters()
            result = call_in_process(fn, item, policy, self.fault_injector,
                                     self.store, counts)[0]
            rank_counts[rank].add(counts)
            return result

        def rank_main(comm: Communicator) -> List[Any]:
            local = chunks[comm.rank]
            local_results = [run_one(item, comm.rank) for item in local]
            gathered = comm.gather(local_results, root=0)
            if comm.rank == 0:
                return [x for chunk in gathered for x in chunk]
            return []

        context = self._make_context(size)
        self.last_context = context
        per_rank = run_spmd(rank_main, size, context=context)
        # on the shm plane the gather accounted the ranks' results as ref
        # payloads; the results themselves never left the heap
        results = self._finish_results(per_rank[0])
        wall = time.perf_counter() - start
        self.metrics.tasks_completed = len(results)
        self.metrics.wall_time_s = wall
        self.metrics.task_time_s = wall * size  # ranks run for the whole job
        self.metrics.overhead_s = 0.0
        self.metrics.bytes_shuffled += context.bytes_communicated
        self.metrics.bytes_shared += context.bytes_shared
        self._collect_executor_bytes(TaskCounters.total(rank_counts))
        return results

    def broadcast(self, value: Any) -> BroadcastHandle:
        """Account for an ``MPI_Bcast`` of ``value`` to all ranks.

        With the shm transport the bcast degenerates to publishing the
        array once and shipping size-1 refs, mirroring an on-node
        ``MPI_Win_allocate_shared`` window.
        """
        ref = self._share_value(value)
        if ref is not None:
            nbytes = serialized_size(ref) * max(0, self.ranks - 1)
            self.metrics.bytes_broadcast += nbytes
            self.metrics.bytes_shared += ref.nbytes
            return BroadcastHandle(value=ref, nbytes=nbytes, framework=self.name,
                                   bytes_shared=ref.nbytes)
        nbytes = nbytes_of(value) * max(0, self.ranks - 1)
        self.metrics.bytes_broadcast += nbytes
        return BroadcastHandle(value=value, nbytes=nbytes, framework=self.name)
