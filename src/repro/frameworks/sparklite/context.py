"""SparkLiteContext: the driver-side entry point (``SparkContext`` analogue)."""

from __future__ import annotations

import time
from typing import Any, Callable, List, Sequence

from ..base import RunMetrics, TaskFramework
from ..executors import PROCESS_KINDS, SHM_KINDS, ExecutorBase
from .broadcast import Broadcast
from .dag import DAGScheduler
from .rdd import ParallelCollectionRDD, RDD

__all__ = ["SparkLiteContext"]


class SparkLiteContext(TaskFramework):
    """Spark-style framework substrate.

    Provides the RDD API (``parallelize`` + transformations/actions), the
    stage-oriented DAG scheduler, hash shuffles, broadcast variables and
    in-memory caching.  Also implements the uniform
    :class:`~repro.frameworks.base.TaskFramework` surface (``map_tasks``,
    ``broadcast``) by translating it to RDD operations, exactly like the
    paper's implementations do ("create an RDD with one partition per
    task; the tasks are executed in a map function").

    On the shm data plane broadcast variables, ``map_tasks`` payloads
    *and collected results* carry shared-memory refs instead of array
    bytes (see :mod:`repro.frameworks.shm`).  Stage tasks run on the
    executor, whose retry loop re-executes lost partitions — Spark's
    lost-task replay at the same granularity.

    Parameters
    ----------
    executor:
        ``"threads"`` (default), ``"serial"`` or an in-process
        :class:`~repro.frameworks.executors.ExecutorBase`.  Process-based
        executors are rejected: RDD lineages are chains of closures,
        which do not pickle (PySpark relies on cloudpickle for this).
    default_parallelism:
        Default number of partitions for ``parallelize`` when the caller
        does not specify one.
    **kwargs:
        ``cluster``, ``workers``, ``data_plane``, the store settings and
        the resilience options, as in
        :class:`~repro.frameworks.base.TaskFramework`.
    """

    name = "sparklite"

    def __init__(self, *, executor: str | ExecutorBase = "threads",
                 default_parallelism: int | None = None, **kwargs) -> None:
        if (executor in PROCESS_KINDS + SHM_KINDS
                or (isinstance(executor, ExecutorBase) and executor.crosses_processes)):
            raise ValueError(
                f"sparklite cannot run on executor {executor!r}: its stage tasks "
                "are closures, which a process pool cannot pickle; use 'threads' "
                "or 'serial'"
            )
        super().__init__(executor=executor, **kwargs)
        self.default_parallelism = default_parallelism or max(2, self.executor.workers)
        self._scheduler = DAGScheduler(self, self.executor)
        self._rdd_counter = 0
        self._broadcasts: List[Broadcast] = []

    # ------------------------------------------------------------------ #
    # RDD API
    # ------------------------------------------------------------------ #
    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def parallelize(self, data: Sequence[Any], num_partitions: int | None = None) -> RDD:
        """Distribute a driver-side collection as an RDD."""
        parts = num_partitions or self.default_parallelism
        return ParallelCollectionRDD(self, data, parts)

    def broadcast(self, value: Any) -> Broadcast:  # type: ignore[override]
        """Create a broadcast variable (size recorded in the metrics).

        On the shm data plane the variable holds a shared-memory ref: the
        broadcast volume recorded is the ref's pickled size, with the
        array bytes accounted as shared.
        """
        store = self.store if self.data_plane == "shm" else None
        bc = Broadcast(value, store=store)
        self._broadcasts.append(bc)
        self.metrics.bytes_broadcast += bc.nbytes
        self.metrics.bytes_shared += bc.bytes_shared
        return bc

    @property
    def stages(self) -> list:
        """Stage book-keeping from the scheduler (for tests and reports)."""
        return self._scheduler.stages

    # ------------------------------------------------------------------ #
    # uniform TaskFramework surface
    # ------------------------------------------------------------------ #
    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run a bag of independent tasks as a map-only Spark job.

        One partition per task, exactly as the paper's PSA implementation
        creates "an RDD with one partition per task".
        """
        items = list(items)
        self.metrics = RunMetrics()
        fn, items = self._apply_data_plane(fn, items)
        start = time.perf_counter()
        if not items:
            return []
        rdd = self.parallelize(items, num_partitions=len(items)).map(fn)
        results = rdd.collect()
        wall = time.perf_counter() - start
        # collect() hands back ref payloads on the shm plane; resolve
        # them zero-copy and account the result-direction byte split
        results = self._finish_results(results)
        self.metrics.wall_time_s = wall
        self.metrics.task_time_s = self.executor.total_task_time
        workers = max(1, self.executor.workers)
        self.metrics.overhead_s = max(0.0, wall - self.metrics.task_time_s / workers)
        self._collect_executor_bytes()
        return results

    def run_map_reduce(self, items: Sequence[Any],
                       map_fn: Callable[[Any], Sequence[tuple]],
                       reduce_fn: Callable[[Any, Any], Any],
                       num_partitions: int | None = None) -> dict:
        """Convenience MapReduce: flatMap to (key, value) pairs, reduceByKey.

        Returns the reduced key/value pairs as a dict.  Used by the Leaflet
        Finder approaches that need a real shuffle between the edge
        discovery and component-merge phases.
        """
        items = list(items)
        self.metrics = RunMetrics()
        start = time.perf_counter()
        if not items:
            return {}
        rdd = self.parallelize(items, num_partitions=len(items))
        reduced = rdd.flatMap(map_fn).reduceByKey(reduce_fn,
                                                  num_partitions=num_partitions)
        output = dict(reduced.collect())
        self.metrics.wall_time_s = time.perf_counter() - start
        return output
