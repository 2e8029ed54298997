"""Broadcast variables.

Spark ships broadcast values to every executor once (torrent-style) rather
than with every task; the paper's Leaflet Finder approach 1 broadcasts the
whole physical system this way.  Our :class:`Broadcast` keeps the value in
the driver's address space but records the bytes that a distributed
deployment would have pushed to each node, which is what the Figure 8
broadcast-time breakdown is computed from.
"""

from __future__ import annotations

from typing import Any

from ..serialization import nbytes_of, serialized_size
from ..shm import SharedMemoryStore, shareable

__all__ = ["Broadcast"]


class Broadcast:
    """A read-only variable shared with all tasks of a Spark-like job.

    When constructed with a :class:`~repro.frameworks.shm.SharedMemoryStore`
    (the shm data plane) an array value is registered in the store once
    and ``value`` yields the :class:`~repro.frameworks.shm.BlockRef`; the
    bytes that must move per node collapse to the ref's pickled size and
    the array bytes are reported via ``bytes_shared`` instead — the
    zero-copy equivalent of Spark's executor-side broadcast block cache.
    """

    _counter = 0

    def __init__(self, value: Any, *, measure_pickle: bool = False,
                 store: SharedMemoryStore | None = None) -> None:
        Broadcast._counter += 1
        self.id = Broadcast._counter
        #: array bytes resident in shared memory (shm plane only)
        self.bytes_shared = 0
        if store is not None and shareable(value):
            ref = store.put(value)
            self._value = ref
            self.nbytes = serialized_size(ref)
            self.bytes_shared = ref.nbytes
        else:
            self._value = value
            #: bytes that must reach every worker node
            self.nbytes = serialized_size(value) if measure_pickle else nbytes_of(value)
        self._destroyed = False

    @property
    def value(self) -> Any:
        """The broadcast value; raises if the broadcast was destroyed."""
        if self._destroyed:
            raise RuntimeError(f"broadcast {self.id} was destroyed")
        return self._value

    def unpersist(self) -> None:
        """Release executor-side copies (driver copy retained)."""
        # in-process implementation: nothing to do beyond bookkeeping

    def destroy(self) -> None:
        """Release all copies; the value becomes unusable."""
        self._destroyed = True
        self._value = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Broadcast id={self.id} nbytes={self.nbytes}>"
