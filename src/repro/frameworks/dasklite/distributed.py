"""Distributed-style Client/Future API and the DaskLite framework facade.

``dask.distributed`` exposes a ``Client`` with ``submit``/``map``/
``gather``/``scatter``; the paper uses exactly these to run delayed
functions on a cluster and to scatter ("broadcast") the physical system in
Leaflet Finder approach 1.  :class:`DaskLiteClient` implements the same
surface on top of the dependency-driven schedulers, and doubles as the
:class:`~repro.frameworks.base.TaskFramework` implementation used by
:mod:`repro.core`.

One behaviour of real Dask that the paper calls out is reproduced
faithfully: ``scatter(list)`` partitions the dataset into *per-element*
futures (the paper notes this prevented broadcasting the 524k-atom system
with Dask).  ``scatter(array, broadcast=True)`` ships the object whole.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Iterable, List, Sequence

from ..base import BroadcastHandle, TaskFramework
from ..executors import ExecutorBase
from ..serialization import nbytes_of, serialized_size
from ..shm import BlockRef, resolve_payload
from ..sparklite.partitioner import split_array_into_partitions
from .bag import Bag, from_sequence
from .delayed import Delayed, compute, delayed
from .scheduler import SchedulerBase, SynchronousScheduler, ThreadedScheduler

__all__ = ["Future", "ScatteredData", "DaskLiteClient"]

_future_counter = itertools.count()


class Future:
    """Handle to the result of a submitted task."""

    def __init__(self, key: str, value: Any = None, done: bool = False) -> None:
        self.key = key
        self._value = value
        self._done = done

    def done(self) -> bool:
        """Whether the result is available."""
        return self._done

    def result(self) -> Any:
        """The task's result (tasks run eagerly in this implementation)."""
        if not self._done:
            raise RuntimeError(f"future {self.key} has no result")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "finished" if self._done else "pending"
        return f"<Future {self.key} {status}>"


class ScatteredData:
    """Result of ``Client.scatter``: data resident on the workers.

    ``broadcast=True`` keeps the object whole on every worker (size counted
    once per node); ``broadcast=False`` on a list splits it element-wise —
    this mirrors Dask's actual scatter semantics that the paper found
    limiting for approach 1.
    """

    def __init__(self, pieces: List[Any], nbytes: int, broadcast: bool) -> None:
        self.pieces = pieces
        self.nbytes = nbytes
        self.broadcast = broadcast

    @property
    def value(self) -> Any:
        """The scattered object (re-assembled view for broadcast scatters)."""
        if self.broadcast:
            return self.pieces[0]
        return self.pieces


class DaskLiteClient(TaskFramework):
    """Dask-style framework substrate (delayed + bag + client APIs).

    Independent tasks (``map_tasks``, ``map``) run on ``self.executor``,
    like Dask's ``Client.map`` on its workers: on ``"processes"`` or
    ``"shm"`` they run in worker processes, and the executor's attempt
    loop retries them.  General graphs (``delayed``/``compute`` and
    bags) run on the graph scheduler in the driver's process.

    Parameters
    ----------
    executor:
        See :class:`~repro.frameworks.base.TaskFramework` (default
        ``"threads"``).  The executor choice also selects the graph
        scheduler: ``"serial"`` maps to the synchronous scheduler,
        anything else to the threaded dependency-driven scheduler.
    **kwargs:
        ``cluster``, ``workers``, ``data_plane``, the store settings and
        the resilience options, as in
        :class:`~repro.frameworks.base.TaskFramework`.
    """

    name = "dasklite"

    def __init__(self, *, executor: str | ExecutorBase = "threads", **kwargs) -> None:
        super().__init__(executor=executor, **kwargs)
        if isinstance(executor, str) and executor == "serial":
            self.scheduler: SchedulerBase = SynchronousScheduler()
        else:
            self.scheduler = ThreadedScheduler(workers=self.executor.workers)
        self._scattered: List[ScatteredData] = []

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Run ``fn(*args, **kwargs)`` and return a Future."""
        key = f"submit-{next(_future_counter)}"
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        self.metrics.record_event("submit", time.perf_counter() - start)
        return Future(key, value, done=True)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Future]:
        """Run ``fn`` over ``items`` in parallel and return Futures."""
        results = self.map_tasks(fn, items)
        return [Future(f"map-{next(_future_counter)}", value, done=True)
                for value in results]

    def gather(self, futures: Iterable[Future]) -> List[Any]:
        """Collect the results of several futures.

        On the shm data plane a future's value may be (or contain) a
        :class:`~repro.frameworks.shm.BlockRef`; gather resolves refs to
        zero-copy views so callers always receive plain arrays, exactly
        like ``dask.distributed.Client.gather`` dereferences remote
        data.
        """
        return [resolve_payload(f.result()) for f in futures]

    def scatter(self, data: Any, broadcast: bool = False) -> ScatteredData:
        """Place data on the workers ahead of computation.

        With ``broadcast=True`` the object is replicated whole to every
        node (cost counted once per node in the metrics); with the default
        ``broadcast=False`` a list is split element-wise, reproducing the
        behaviour the paper describes for Dask's scatter of the physical
        system.
        """
        ref = self._share_value(data)
        if ref is not None:
            # shm plane: the workers attach to one resident copy; only the
            # refs would cross the wire.  broadcast=True replicates the
            # whole-object ref; broadcast=False reproduces Dask's
            # piecewise scatter as zero-copy per-worker row chunks.
            # nbytes follows the pickle branch's single-copy convention.
            if broadcast:
                pieces = [ref]
                nbytes = serialized_size(ref)
            else:
                pieces = split_array_into_partitions(ref, max(1, self.executor.workers))
                nbytes = sum(serialized_size(piece) for piece in pieces)
            scattered = ScatteredData(pieces, nbytes, broadcast=broadcast)
            self._scattered.append(scattered)
            self.metrics.bytes_broadcast += scattered.nbytes
            self.metrics.bytes_shared += ref.nbytes
            return scattered
        if broadcast:
            nbytes = nbytes_of(data) * max(1, self.cluster.nodes)
            scattered = ScatteredData([data], nbytes_of(data), broadcast=True)
        else:
            pieces = list(data) if isinstance(data, (list, tuple)) else [data]
            nbytes = sum(nbytes_of(p) for p in pieces)
            scattered = ScatteredData(pieces, nbytes, broadcast=False)
        self._scattered.append(scattered)
        self.metrics.bytes_broadcast += scattered.nbytes if broadcast else nbytes
        return scattered

    # ------------------------------------------------------------------ #
    # delayed / bag entry points
    # ------------------------------------------------------------------ #
    def delayed(self, fn: Callable[..., Any]) -> Callable[..., Delayed]:
        """Wrap a function in the delayed API."""
        return delayed(fn)

    def compute(self, *nodes: Delayed) -> tuple:
        """Evaluate delayed nodes on this client's scheduler."""
        return compute(*nodes, scheduler=self.scheduler)

    def bag_from_sequence(self, data: Sequence[Any], npartitions: int = 4) -> Bag:
        """Create a Bag partitioned over this client's workers."""
        return from_sequence(data, npartitions=npartitions)

    def compute_bag(self, bag: Bag) -> List[Any]:
        """Materialize a Bag on this client's scheduler."""
        return bag.compute(scheduler=self.scheduler)

    # ------------------------------------------------------------------ #
    # uniform TaskFramework surface
    # ------------------------------------------------------------------ #
    def broadcast(self, value: Any) -> BroadcastHandle:
        """Broadcast via scatter(..., broadcast=True).

        On the shm plane the handle carries the shared-memory ref and the
        array bytes appear as ``bytes_shared`` instead of moved bytes.
        """
        scattered = self.scatter(value, broadcast=True)
        piece = scattered.pieces[0]
        if isinstance(piece, BlockRef):
            return BroadcastHandle(value=piece, nbytes=scattered.nbytes,
                                   framework=self.name, bytes_shared=piece.nbytes)
        return BroadcastHandle(value=value, nbytes=scattered.nbytes, framework=self.name)
