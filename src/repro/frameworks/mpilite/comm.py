"""SPMD communicator with MPI-style collectives.

The paper's MPI4py baselines are SPMD programs: every rank runs the same
function and the ranks cooperate through collectives (``Bcast``,
``Scatter``, ``Gather``, ``Allgather``, ``Reduce``).  This module provides
an in-process equivalent: ranks run as threads that share a
:class:`WorldContext`, and the collectives synchronize through barriers.
NumPy kernels release the GIL, so ranks really do run concurrently for the
compute-bound parts of the algorithms.

All collectives count the bytes a distributed MPI run would have moved, so
the Leaflet Finder experiments can report broadcast volumes per rank
exactly as Figure 8 does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..serialization import nbytes_of, serialized_size
from ..shm import BlockRef, SharedMemoryStore, maybe_resolve, shareable, stand_in_refs

__all__ = ["WorldContext", "Communicator", "ReduceOp"]


class ReduceOp:
    """Reduction operators understood by ``reduce``/``allreduce``."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    CONCAT = "concat"

    _FUNCS: Dict[str, Callable[[Any, Any], Any]] = {}

    @classmethod
    def apply(cls, op: str, values: Sequence[Any]) -> Any:
        """Fold ``values`` (ordered by rank) with operator ``op``."""
        if not values:
            raise ValueError("cannot reduce an empty value list")
        if op == cls.SUM:
            result = values[0]
            for v in values[1:]:
                result = result + v
            return result
        if op == cls.MAX:
            result = values[0]
            for v in values[1:]:
                result = np.maximum(result, v) if isinstance(result, np.ndarray) else max(result, v)
            return result
        if op == cls.MIN:
            result = values[0]
            for v in values[1:]:
                result = np.minimum(result, v) if isinstance(result, np.ndarray) else min(result, v)
            return result
        if op == cls.CONCAT:
            out: List[Any] = []
            for v in values:
                out.extend(v)
            return out
        raise ValueError(f"unknown reduce op {op!r}")


@dataclass
class WorldContext:
    """State shared by all ranks of one SPMD world.

    When ``store`` is set (the shm data plane) the collectives fall back
    to a shared-memory transport for array payloads, the in-process
    analogue of an ``MPI_Win_allocate_shared`` on-node window: the root
    publishes the array to the store once, the wire carries only the ref,
    and the array bytes accumulate in ``bytes_shared`` instead of
    ``bytes_communicated``.

    Contract change vs the pickle transport: arrays received from a
    shm-transport ``bcast``/``scatter`` are *read-only views* of the one
    shared segment (every rank, including the root, sees the same
    memory).  SPMD code that mutates its received buffer in place must
    ``.copy()`` first — exactly as it would with an MPI shared window.
    """

    size: int
    barrier: threading.Barrier = field(init=False)
    lock: threading.Lock = field(default_factory=threading.Lock)
    slots: List[Any] = field(init=False)
    root_slot: Any = None
    bytes_communicated: int = 0
    collective_calls: int = 0
    #: per-collective byte log: (operation, bytes) tuples in call order
    traffic_log: List[tuple] = field(default_factory=list)
    _mailboxes: Dict[tuple, list] = field(default_factory=dict)
    _mail_cv: threading.Condition = field(default_factory=threading.Condition)
    #: shared-memory store enabling the zero-copy transport (None = off)
    store: Optional[SharedMemoryStore] = None
    bytes_shared: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("world size must be >= 1")
        self.barrier = threading.Barrier(self.size)
        self.slots = [None] * self.size

    def account(self, operation: str, nbytes: int) -> None:
        """Record communication volume for one collective call."""
        with self.lock:
            self.bytes_communicated += int(nbytes)
            self.collective_calls += 1
            self.traffic_log.append((operation, int(nbytes)))

    def account_shared(self, nbytes: int) -> None:
        """Record array bytes served through the shared-memory transport."""
        with self.lock:
            self.bytes_shared += int(nbytes)

    def share(self, obj: Any) -> Any:
        """Publish ``obj`` via the store if the transport applies; else obj."""
        if self.store is not None and shareable(obj):
            return self.store.put(obj)
        return obj


class Communicator:
    """Per-rank handle used inside SPMD functions (``comm`` argument)."""

    def __init__(self, rank: int, context: WorldContext) -> None:
        if not 0 <= rank < context.size:
            raise ValueError(f"rank {rank} out of range for world size {context.size}")
        self.rank = rank
        self.context = context

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.context.size

    def Get_rank(self) -> int:
        """mpi4py-style accessor."""
        return self.rank

    def Get_size(self) -> int:
        """mpi4py-style accessor."""
        return self.size

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self.context.barrier.wait()

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to every rank.

        With the shared-memory transport active, an array payload is
        published once and only the ref is accounted as moved per rank;
        every rank then receives a *read-only* view of the shared
        segment (copy before mutating in place).
        """
        ctx = self.context
        if self.rank == root:
            payload = ctx.share(obj)
            ctx.root_slot = payload
            if isinstance(payload, BlockRef):
                ctx.account("bcast", serialized_size(payload) * max(0, self.size - 1))
                ctx.account_shared(payload.nbytes)
            else:
                # root sends size-1 copies across the network
                ctx.account("bcast", nbytes_of(obj) * max(0, self.size - 1))
        ctx.barrier.wait()
        value = maybe_resolve(ctx.root_slot)
        ctx.barrier.wait()
        return value

    def scatter(self, chunks: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter one chunk per rank from ``root``.

        Array chunks travel through the shared-memory transport when it
        is active: each rank receives a *read-only* view of its chunk's
        segment (copy before mutating in place) and only the refs are
        accounted as moved.
        """
        ctx = self.context
        if self.rank == root:
            if chunks is None or len(chunks) != self.size:
                raise ValueError("scatter requires exactly one chunk per rank at the root")
            for i, chunk in enumerate(chunks):
                payload = ctx.share(chunk)
                ctx.slots[i] = payload
                if i != root:
                    if isinstance(payload, BlockRef):
                        ctx.account("scatter", serialized_size(payload))
                        ctx.account_shared(payload.nbytes)
                    else:
                        ctx.account("scatter", nbytes_of(chunk))
        ctx.barrier.wait()
        value = maybe_resolve(ctx.slots[self.rank])
        ctx.barrier.wait()
        return value

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank at ``root`` (None elsewhere).

        With the shared-memory transport active, a payload that carries
        arrays or :class:`~repro.frameworks.shm.BlockRef` handles is
        accounted as a ref payload: the ranks share the root's address
        space, so the arrays stay where they are, and the gather records
        the pickled size of the payload with each array swapped for a
        ref-shaped stand-in (:func:`~repro.frameworks.shm.stand_in_refs`)
        while the referenced array bytes are accounted as shared — the
        result-direction mirror of the ``bcast``/``scatter`` accounting.
        """
        ctx = self.context
        ctx.slots[self.rank] = obj
        if self.rank != root:
            shared = 0
            if ctx.store is not None:
                stand_in, shared = stand_in_refs(obj, ctx.store.spill_dir)
            if shared:
                ctx.account("gather", serialized_size(stand_in))
                ctx.account_shared(shared)
            else:
                ctx.account("gather", nbytes_of(obj))
        ctx.barrier.wait()
        result = list(ctx.slots) if self.rank == root else None
        ctx.barrier.wait()
        return result

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one object per rank, available on every rank."""
        ctx = self.context
        ctx.slots[self.rank] = obj
        ctx.account("allgather", nbytes_of(obj) * max(0, self.size - 1))
        ctx.barrier.wait()
        result = list(ctx.slots)
        ctx.barrier.wait()
        return result

    def reduce(self, obj: Any, op: str = ReduceOp.SUM, root: int = 0) -> Any:
        """Reduce per-rank values with ``op`` at ``root`` (None elsewhere)."""
        gathered = self.gather(obj, root=root)
        if self.rank == root:
            assert gathered is not None
            return ReduceOp.apply(op, gathered)
        return None

    def allreduce(self, obj: Any, op: str = ReduceOp.SUM) -> Any:
        """Reduce per-rank values with ``op``, result on every rank."""
        gathered = self.allgather(obj)
        return ReduceOp.apply(op, gathered)

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        ctx = self.context
        ctx.account("send", nbytes_of(obj))
        with ctx._mail_cv:
            ctx._mailboxes.setdefault((self.rank, dest, tag), []).append(obj)
            ctx._mail_cv.notify_all()

    def recv(self, source: int, tag: int = 0, timeout: float = 30.0) -> Any:
        """Receive one message from ``source`` (blocking, with timeout)."""
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        ctx = self.context
        key = (source, self.rank, tag)
        with ctx._mail_cv:
            ok = ctx._mail_cv.wait_for(lambda: ctx._mailboxes.get(key), timeout=timeout)
            if not ok:
                raise TimeoutError(
                    f"rank {self.rank} timed out waiting for a message from {source} (tag {tag})"
                )
            return ctx._mailboxes[key].pop(0)
