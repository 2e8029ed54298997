"""Zero-copy shared-memory data plane with a spill-to-disk tier.

The paper attributes most of the gap between the Python task-parallel
frameworks and MPI to serialization: every trajectory block and every
position chunk is pickled into the task payload, shipped, and unpickled,
even when producer and consumer share a node.  This module removes that
cost for NumPy payloads — on the inbound *task* path and on the outbound
*result* path:

* :class:`SharedMemoryStore` places an array in a named
  ``multiprocessing.shared_memory`` segment exactly once and returns a
  :class:`BlockRef` — a tiny picklable handle (segment name, shape,
  dtype, offset, spill directory).
* :meth:`BlockRef.resolve` rehydrates the handle as a NumPy *view* of
  the segment, in the owning process or in any worker process that
  attaches by name.  No bytes are copied or pickled for the array
  payload itself.
* :func:`share_payload` / :func:`resolve_payload` walk arbitrary task
  payloads (dataclasses, lists, tuples, dicts) swapping arrays for refs
  and back, so existing task types move onto the data plane unchanged.
* :func:`publish_payload` / :func:`adopt_payload` do the same for
  *results*: a worker process publishes its result arrays into fresh
  segments and returns refs, so no array byte is pickled; on receipt
  the driver copies each block out once into its heap, then unlinks
  the segment and closes its mapping.  A result holds no ``/dev/shm``
  name and no fd once it is back, and the store only ever owns the
  blocks that were put or ingested.
  A task that ran in the driver's own process needs no crossing: its
  result stays in the heap, and :func:`stand_in_refs` accounts it as
  the ref payload it would have moved, without creating a segment.
* When a store is constructed with ``capacity_bytes``, segments past the
  watermark spill into memory-mapped ``.blk`` files in ``spill_dir``.
  Eviction is size-aware LRU: the
  largest block outside the most-recently-used quarter goes first, so
  one big spill frees what would otherwise cost many small ones.
  Spilled refs keep
  resolving — through the page cache instead of ``/dev/shm`` — so
  ensembles larger than shared memory degrade gracefully instead of
  crashing.
* Spilling is **write-behind** by default (``spill_async=True``): the
  evicting ``put`` hands the victim to a dedicated spill-writer thread
  and returns after the enqueue instead of after the file write.  An
  evicted block moves through ``resident → enqueued → spilling →
  spilled``; in the middle two states it is still readable from shared
  memory, and only once its file is atomically in place is the shm
  name unlinked.  The queue is bounded (``spill_queue_depth``), so
  eviction cannot outrun the disk unboundedly — a full queue blocks the
  putter, and that blocked time (the only put-path stall left) is
  recorded as ``spill_wait_seconds``, while the writer's background
  time is recorded as ``spill_hidden_seconds``.
  :meth:`SharedMemoryStore.flush_spill` is the barrier that waits for
  the queue to drain.
* The resolve side pipelines reads the same way:
  :func:`resolve_payload` issues :func:`prefetch_refs` hints for the
  sibling refs of a multi-block payload, so file-tier blocks stream
  into the page cache while the first block is being consumed.

Every framework substrate accepts ``data_plane="pickle"|"shm"``; with
``"shm"`` the payloads that cross the (real or accounted) process
boundary shrink from array bytes to ref bytes in both directions, and
the array bytes are reported separately as *shared* — the split the
fig8 broadcast experiment quantifies.

Lifetime and cleanup
--------------------
Stores unlink their segments in :meth:`SharedMemoryStore.cleanup`,
which is also registered with :mod:`atexit` *and* as a
``multiprocessing.util.Finalize`` hook: ``atexit`` covers normal
interpreter exit, while the finalizer covers pool worker processes
(which exit through ``os._exit`` and never run ``atexit`` handlers).
Worker-published result segments that were never handed back to a
driver — the worker crashed mid-publish — are unlinked by the same
worker-side finalizer, so repeated test runs do not leak ``/dev/shm``
entries.  A worker SIGKILLed between publish and receipt runs no hook;
its pid-keyed names are reclaimed by :func:`sweep_orphan_segments`.
"""

from __future__ import annotations

import atexit
import copy
import itertools
import mmap
import os
import queue
import sys
import tempfile
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from multiprocessing import resource_tracker, shared_memory, util as mp_util

from .serialization import _field_names

__all__ = [
    "DATA_PLANES",
    "BlockLost",
    "BlockRef",
    "SharedMemoryStore",
    "share_payload",
    "stand_in_refs",
    "resolve_payload",
    "prefetch_refs",
    "publish_payload",
    "mark_handed_off",
    "adopt_payload",
    "refs_nbytes",
    "maybe_resolve",
    "ResolvingTask",
    "sweep_orphan_segments",
    "unlink_segment_by_name",
    "array_digest",
    "release_stale_mappings",
    "prefetch_hints_dropped",
]

#: Valid values for the ``data_plane`` option on frameworks and the public API.
DATA_PLANES = ("pickle", "shm")

#: Name prefix of worker-published result segments.  The worker pid is
#: embedded right after it (``rpub-<pid>-<nonce>``) so a driver can sweep
#: the orphans a SIGKILLed worker left behind — a worker killed between
#: ``publish_payload`` and the driver's adopt runs neither its ``atexit``
#: handlers nor its ``multiprocessing.util.Finalize`` hooks, so name-keyed
#: crash cleanup is the only path that reclaims those segments.
PUBLISH_PREFIX = "rpub"


class BlockLost(FileNotFoundError):
    """A :class:`BlockRef` resolved through no tier: the block is lost.

    Raised by :meth:`BlockRef.resolve` when neither a live shared-memory
    segment nor a readable spill file exists for the ref — the block was
    unlinked, corrupted, or belonged to a worker that crashed before
    handing it off.  Subclasses :class:`FileNotFoundError` so callers
    that treated the old error keep working; the resilience layer
    (:mod:`repro.frameworks.faults`) catches it specifically to heal the
    block from its registered source array or to re-execute the
    producing task.

    Parameters
    ----------
    segment : str
        Segment name of the lost block.
    spill_dir : str, optional
        Spill directory the ref would have fallen back to.
    """

    def __init__(self, segment: str, spill_dir: Optional[str] = None) -> None:
        self.segment = segment
        self.spill_dir = spill_dir
        super().__init__(f"block {segment!r} is lost: no shared-memory segment "
                         f"and no spill file under {spill_dir!r}")

    def __reduce__(self):
        """Pickle by (segment, spill_dir) so the error crosses process pools."""
        return (type(self), (self.segment, self.spill_dir))

# Process-local segment registries.  ``_OWNED`` holds segments created by
# stores in this process (resolving a ref to an owned segment is a pure
# dictionary lookup); ``_ATTACHED`` caches segments this process attached
# to by name, so repeated resolves of a driver's input refs reuse one
# mapping;
# ``_MAPPED`` caches memory-mapped spill files the same way.  A forked
# child owns nothing: its inherited ``_OWNED`` entries become
# attachments (see ``_reset_prefetcher_in_child``), which
# :func:`release_stale_mappings` closes once their names are gone.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_MAPPED: Dict[str, mmap.mmap] = {}
_REGISTRY_LOCK = threading.Lock()

# Result segments published by this (worker) process that have not yet
# been handed off to a driver: name -> SharedMemory.  Emptied by
# ``mark_handed_off`` the moment the refs are returned; anything left
# behind belongs to a crashed task and is unlinked at process exit.
_PUBLISHED: Dict[str, shared_memory.SharedMemory] = {}
_PUBLISH_HOOK_INSTALLED = False

# Prefetch hints dropped because the hint queue was full, process-local
# (see :func:`prefetch_refs`).  Surfaced through executor timings into
# ``RunMetrics.prefetch_hints_dropped`` so tuning ``spill_queue_depth``
# against the prefetch depth is observable.
_PREFETCH_DROPPED = 0

# Unlinked segments whose mappings are still pinned by live NumPy views.
# NumPy does not hold a Py_buffer export on the mapping — closing (or
# garbage-collecting) the SharedMemory object would unmap the pages
# underneath the views — so such segments are parked here and closed by
# :func:`_sweep_retired` once their views are gone.
_RETIRED: List[shared_memory.SharedMemory] = []


def _segment_in_use(segment: shared_memory.SharedMemory) -> bool:
    """Whether live array views still point into ``segment``'s mapping.

    A view created by :meth:`BlockRef.resolve` keeps a reference to the
    segment's underlying ``mmap`` object (its ``base``), so the mmap's
    refcount reveals outstanding views.  The baseline references are the
    segment's own ``_mmap`` attribute, the ``obj`` slot of its cached
    ``_buf`` memoryview, the local binding below, and ``getrefcount``'s
    argument — anything beyond those is a view (or another buffer
    consumer), and the mapping must not be torn down.
    """
    mapping = getattr(segment, "_mmap", None)
    if mapping is None:
        return False
    return sys.getrefcount(mapping) > 4


def _retire_or_close(segment: shared_memory.SharedMemory) -> None:
    """Close a no-longer-wanted segment, or park it if views pin it.

    The in-use check and the close run under ``_REGISTRY_LOCK``, the
    same lock :meth:`BlockRef.resolve` holds while constructing a view
    from a registry segment — otherwise a view created between the
    refcount check and the close would dangle over unmapped pages.
    """
    with _REGISTRY_LOCK:
        if _segment_in_use(segment):
            _RETIRED.append(segment)
            return
        try:
            segment.close()
        except Exception:
            pass


def _sweep_retired() -> None:
    """Close parked segments whose last view has since been dropped."""
    with _REGISTRY_LOCK:
        parked = list(_RETIRED)
        _RETIRED.clear()
    for segment in parked:
        _retire_or_close(segment)


def _unregister_from_tracker(segment: shared_memory.SharedMemory) -> None:
    """Undo the resource tracker's registration of a shm segment.

    Both creating and attaching to a segment register it with the
    resource tracker as if this process owned it, which makes the
    tracker unlink (or warn about) the segment when any such process
    exits.  The data plane manages segment lifetime explicitly (stores
    own their segments; the driver unlinks published result segments on
    receipt), so tracker bookkeeping is dropped for everything except
    the creating store's own segments.

    Parameters
    ----------
    segment : multiprocessing.shared_memory.SharedMemory
        The segment to unregister.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass


def _quiet_unlink(segment: shared_memory.SharedMemory) -> None:
    """Unlink a segment without unbalancing the resource tracker.

    ``SharedMemory.unlink`` always sends an *unregister* to the resource
    tracker; depending on which process attached (and dropped tracking)
    in between, the name may or may not still be registered.  The
    tracker's registry is a set, so registering right before unlinking
    makes the pair balanced in every history — and if the unlink fails
    (name already gone), the freshly added entry is removed again so the
    tracker never warns about it at exit.

    Parameters
    ----------
    segment : multiprocessing.shared_memory.SharedMemory
        The segment to unlink.
    """
    try:
        resource_tracker.register(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass
    try:
        segment.unlink()
    except Exception:
        _unregister_from_tracker(segment)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Return the shm segment ``name``: owned registry, attach cache, or a fresh attach.

    Parameters
    ----------
    name : str
        Shared-memory segment name.

    Returns
    -------
    multiprocessing.shared_memory.SharedMemory
        The (cached) mapping of the segment.

    Raises
    ------
    FileNotFoundError
        If no segment with that name exists (e.g. it was spilled to disk
        and unlinked).
    """
    with _REGISTRY_LOCK:
        segment = _OWNED.get(name) or _ATTACHED.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            _unregister_from_tracker(segment)
            _ATTACHED[name] = segment
        return segment


def _attach_file(spill_dir: str, name: str) -> Optional[mmap.mmap]:
    """Memory-map the spill file for segment ``name``, if it exists.

    Parameters
    ----------
    spill_dir : str
        Directory the owning store spills into.
    name : str
        Segment name; the file is ``<spill_dir>/<name>.blk``.

    Returns
    -------
    mmap.mmap or None
        A read-only mapping of the block file (cached per process), or
        ``None`` when the segment was never spilled.
    """
    path = os.path.join(spill_dir, name + ".blk")
    with _REGISTRY_LOCK:
        mapped = _MAPPED.get(path)
    if mapped is not None:
        return mapped
    try:
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (FileNotFoundError, ValueError):
        return None
    with _REGISTRY_LOCK:
        # keep the first mapping if another thread raced us here
        return _MAPPED.setdefault(path, mapped)


def release_stale_mappings() -> None:
    """Close attachments and spill-file mappings whose backing name is gone.

    A long-lived pool worker keeps every segment it ever attached (and
    every segment it inherited from the driver at fork time) mapped in
    its registries, and a mapping pins the pages of a segment even after
    its owner unlinks the name.  Workers call this when they see a new
    run: every ``_ATTACHED`` entry whose ``/dev/shm`` name no longer
    exists, and every ``_MAPPED`` entry whose ``.blk`` file was removed,
    is dropped from the registry and closed — through
    :func:`_retire_or_close` (or :func:`_invalidate_mapping` for spill
    files), so a mapping still pinned by live views is parked instead of
    unmapped underneath them.  Shared-memory entries are only checked
    where ``/dev/shm`` can be listed.
    """
    _sweep_retired()
    segments: List[shared_memory.SharedMemory] = []
    with _REGISTRY_LOCK:
        if os.path.isdir("/dev/shm"):
            gone = [name for name in _ATTACHED
                    if not os.path.exists(os.path.join("/dev/shm", name))]
            segments = [_ATTACHED.pop(name) for name in gone]
        stale = [path for path in _MAPPED if not os.path.exists(path)]
    for segment in segments:
        _retire_or_close(segment)
    for path in stale:
        _invalidate_mapping(path)


def prefetch_hints_dropped() -> int:
    """Process-local count of prefetch hints dropped on a full queue."""
    return _PREFETCH_DROPPED


def _invalidate_mapping(path: str) -> None:
    """Drop a cached spill-file mapping (after a rewrite or corruption).

    The next :func:`_attach_file` call re-opens the file fresh, so a
    block healed by :meth:`SharedMemoryStore.recover_spilled_block` is
    not read through a stale mapping of the old inode.  The old mapping
    is left unclosed if live views may still pin it — the process exit
    reclaims it, which is the same policy :data:`_RETIRED` applies to
    shared-memory segments.
    """
    with _REGISTRY_LOCK:
        mapped = _MAPPED.pop(path, None)
    if mapped is not None:
        try:
            if sys.getrefcount(mapped) <= 3:  # pop local + argument + temp
                mapped.close()
        except Exception:
            pass


def unlink_segment_by_name(name: str) -> bool:
    """Unlink a shared-memory segment by name; whether one was removed.

    Used by the fault injector (simulating a segment that vanished
    before adoption) and by the orphan sweep.  Attaching just to unlink
    would register the name with the resource tracker, so the ``/dev/shm``
    file is removed directly where that directory exists, falling back
    to an attach-and-unlink elsewhere.

    Parameters
    ----------
    name : str
        Shared-memory segment name.

    Returns
    -------
    bool
        ``True`` when a segment with that name existed and was removed.
    """
    path = os.path.join("/dev/shm", name)
    if os.path.isdir("/dev/shm"):
        try:
            os.remove(path)
            return True
        except OSError:
            return False
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    _quiet_unlink(segment)
    try:
        segment.close()
    except Exception:
        pass
    return True


def sweep_orphan_segments(live_pids: Sequence[int] = ()) -> int:
    """Unlink published result segments whose worker process is dead.

    Worker-published segments are named ``rpub-<pid>-<nonce>``
    (:data:`PUBLISH_PREFIX`), and a worker killed between
    ``publish_payload`` and the driver's adopt runs no exit hooks — its
    segments would outlive the run.  This sweep walks ``/dev/shm`` for
    publish-prefixed names, checks whether the embedded pid is still
    alive, and unlinks the segments of dead publishers.  Callers run it
    from a pool-recovery path, after the broken pool's workers have been
    reaped.

    Parameters
    ----------
    live_pids : sequence of int, optional
        Pids to leave alone even if the liveness probe cannot see them
        (e.g. freshly spawned replacement workers).

    Returns
    -------
    int
        Number of segments unlinked.  0 on platforms without a
        ``/dev/shm`` directory, where orphan names cannot be enumerated.
    """
    if not os.path.isdir("/dev/shm"):
        return 0
    keep = {int(pid) for pid in live_pids}
    keep.add(os.getpid())
    swept = 0
    prefix = PUBLISH_PREFIX + "-"
    for entry in os.listdir("/dev/shm"):
        if not entry.startswith(prefix):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):
            continue
        if pid in keep:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            pass  # publisher is gone: the segment is an orphan
        except PermissionError:
            continue  # alive, owned by someone else
        else:
            continue  # publisher still alive: adoption may be in flight
        swept += int(unlink_segment_by_name(entry))
    return swept


# Fork safety for the background threads.  The spill writer and the
# prefetcher take _REGISTRY_LOCK — and, through the shm create/unlink
# calls, the resource tracker's internal lock — for short critical
# sections.  A process pool that forks in exactly such a window would
# inherit a lock no surviving thread can ever release, deadlocking the
# worker's first resolve or publish (observed as a hang inside
# ``resource_tracker.ensure_running``).  Holding the locks across the
# fork closes the window; the child additionally drops the prefetch
# queue — its serving thread did not survive the fork, so a fresh one
# is started on demand.
def _fork_critical_locks() -> List[Any]:
    """The locks that must not be mid-acquisition while forking."""
    locks: List[Any] = [_REGISTRY_LOCK, _prefetch_lock]
    tracker_lock = getattr(resource_tracker._resource_tracker, "_lock", None)  # noqa: SLF001
    if tracker_lock is not None:
        locks.append(tracker_lock)
    return locks


def _hold_module_locks_before_fork() -> None:
    for lock in _fork_critical_locks():
        lock.acquire()


def _release_module_locks_after_fork() -> None:
    for lock in reversed(_fork_critical_locks()):
        lock.release()


def _reset_prefetcher_in_child() -> None:
    global _prefetch_queue, _PREFETCH_DROPPED
    _release_module_locks_after_fork()
    _prefetch_queue = None
    # the parent's stores own their segments, not this child: keep the
    # inherited mappings resolvable, but as attachments, so that
    # release_stale_mappings closes them once the parent unlinks them
    _ATTACHED.update(_OWNED)
    _OWNED.clear()
    # the dropped-hint counter starts fresh in the child, so a worker's
    # deltas describe what *it* dropped, not what the driver did before
    # the fork
    _PREFETCH_DROPPED = 0


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(before=_hold_module_locks_before_fork,
                        after_in_parent=_release_module_locks_after_fork,
                        after_in_child=_reset_prefetcher_in_child)


# Read-ahead for the file tier.  resolve_payload hints the sibling refs
# of a multi-block payload so their spill files are mapped (and madvised)
# by a background thread while the first block is being consumed.  Purely
# best-effort: hints are dropped when the queue is full and every failure
# is swallowed — prefetch must never change semantics, only warm the page
# cache.
_PREFETCH_DEPTH = 64
_prefetch_queue: Optional["queue.Queue[Tuple[str, str]]"] = None
_prefetch_lock = threading.Lock()


def _prefetch_worker() -> None:
    """Serve read-ahead hints: map the spill file and advise the kernel."""
    while True:
        spill_dir, name = _prefetch_queue.get()
        try:
            with _REGISTRY_LOCK:
                if name in _OWNED or name in _ATTACHED:
                    continue  # resident again (or never left): nothing to warm
            mapped = _attach_file(spill_dir, name)
            if mapped is not None and hasattr(mapped, "madvise"):
                mapped.madvise(mmap.MADV_WILLNEED)
        except Exception:
            pass


def prefetch_refs(refs: Sequence["BlockRef"]) -> int:
    """Issue read-ahead hints for refs that may live in the file tier.

    Each hint asks a background thread to memory-map the ref's spill
    file (populating the per-process mapping cache that
    :meth:`BlockRef.resolve` consults) and to ``madvise(WILLNEED)`` it,
    so the kernel starts paging the block in before the first access.
    Refs that are resident in shared memory, already mapped, or carry no
    spill directory are skipped; a hint that finds the queue full is
    dropped (never blocking the caller) and counted in
    :func:`prefetch_hints_dropped`, while the remaining refs of the
    batch still get their chance — the writer drains concurrently, so a
    momentarily full queue must not abandon every sibling.

    Parameters
    ----------
    refs : sequence of BlockRef
        Candidate refs, usually the siblings of the block about to be
        consumed (see :func:`resolve_payload`).

    Returns
    -------
    int
        Number of hints actually enqueued.
    """
    global _prefetch_queue, _PREFETCH_DROPPED
    hints = 0
    dropped = 0
    for ref in refs:
        if not isinstance(ref, BlockRef) or ref.spill_dir is None:
            continue
        name = ref.segment
        path = os.path.join(ref.spill_dir, name + ".blk")
        with _REGISTRY_LOCK:
            if name in _OWNED or name in _ATTACHED or path in _MAPPED:
                continue  # already resolvable without touching the disk
        if _prefetch_queue is None:
            with _prefetch_lock:
                if _prefetch_queue is None:
                    _prefetch_queue = queue.Queue(maxsize=_PREFETCH_DEPTH)
                    threading.Thread(target=_prefetch_worker,
                                     name="repro-spill-prefetch",
                                     daemon=True).start()
        try:
            _prefetch_queue.put_nowait((ref.spill_dir, name))
        except queue.Full:
            # skip only this hint: the worker drains concurrently, so a
            # later sibling may well find a free slot
            dropped += 1
            continue
        hints += 1
    if dropped:
        with _prefetch_lock:
            _PREFETCH_DROPPED += dropped
    return hints


def _copy_into_segment(array: np.ndarray,
                       spill_dir: Optional[str] = None,
                       name_prefix: Optional[str] = None
                       ) -> Tuple[shared_memory.SharedMemory, "BlockRef"]:
    """Copy an array into a fresh shm segment and build its ref.

    The one place that knows how array bytes enter a segment (contiguity
    coercion, sizing, the copy itself) — shared by
    :meth:`SharedMemoryStore.put` and :func:`publish_payload` so the two
    entry points cannot drift apart.

    Parameters
    ----------
    array : numpy.ndarray
        Array to copy (made C-contiguous; zero-byte arrays rejected).
    spill_dir : str, optional
        Spill directory to embed in the returned ref.
    name_prefix : str, optional
        When given, the segment is created under an explicit name
        ``<prefix>-<nonce>`` instead of a platform-chosen one — how
        :func:`publish_payload` keys result segments by worker pid so
        crashed publishers can be swept.

    Returns
    -------
    segment : multiprocessing.shared_memory.SharedMemory
        The freshly created segment (caller owns it).
    ref : BlockRef
        Handle to the copied bytes.
    """
    data = np.ascontiguousarray(array)
    if data.nbytes == 0:
        raise ValueError("cannot share a zero-byte array")
    if name_prefix is None:
        segment = shared_memory.SharedMemory(create=True, size=data.nbytes)
    else:
        while True:
            name = f"{name_prefix}-{uuid.uuid4().hex[:12]}"
            try:
                segment = shared_memory.SharedMemory(name=name, create=True,
                                                     size=data.nbytes)
                break
            except FileExistsError:  # nonce collision: draw again
                continue
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
    np.copyto(view, data)
    del view
    ref = BlockRef(segment=segment.name, shape=tuple(data.shape),
                   dtype=data.dtype.str, spill_dir=spill_dir)
    return segment, ref


def _install_publish_hook() -> None:
    """Install the process-exit hook that unlinks orphaned published segments.

    Registered lazily on first publish so the hook exists in whichever
    process actually publishes (pool workers clear finalizers inherited
    from the parent, so a hook installed driver-side would not cover
    them).  Both ``atexit`` (normal interpreter exit) and
    ``multiprocessing.util.Finalize`` (worker processes, which exit via
    ``os._exit``) paths are covered.
    """
    global _PUBLISH_HOOK_INSTALLED
    if _PUBLISH_HOOK_INSTALLED:
        return
    _PUBLISH_HOOK_INSTALLED = True
    atexit.register(_cleanup_published)
    mp_util.Finalize(None, _cleanup_published, exitpriority=10)


def _cleanup_published() -> None:
    """Unlink any published result segments that were never handed off."""
    with _REGISTRY_LOCK:
        leftovers = list(_PUBLISHED.values())
        _PUBLISHED.clear()
    for segment in leftovers:
        _quiet_unlink(segment)
        _retire_or_close(segment)


@dataclass(frozen=True)
class BlockRef:
    """Lightweight handle to an array stored in a shared-memory segment.

    A ref pickles to a few hundred bytes regardless of the array size;
    :meth:`resolve` returns a read-only NumPy view of the segment (zero
    copies).  Refs are immutable and hashable, so they can be
    deduplicated and reused across many tasks.

    Parameters
    ----------
    segment : str
        Name of the shared-memory segment (or file-backed block) that
        holds the array bytes.
    shape : tuple of int
        Array shape.
    dtype : str
        NumPy dtype string (``array.dtype.str``).
    offset : int, optional
        Byte offset of the array data inside the segment.
    spill_dir : str, optional
        Directory the owning store spills into.  When the segment has
        been retired from ``/dev/shm``, :meth:`resolve` falls back to a
        memory-mapped ``<spill_dir>/<segment>.blk`` file; refs from
        stores that never spill carry ``None``.
    """

    segment: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int = 0
    spill_dir: Optional[str] = None

    @property
    def nbytes(self) -> int:
        """Bytes of array data the ref points at (not bytes it pickles to)."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize

    def _view(self, buffer: Any) -> np.ndarray:
        """Build the read-only array view over ``buffer``."""
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=buffer,
                          offset=self.offset)
        if view.flags.writeable:
            view.flags.writeable = False
        return view

    def resolve(self) -> np.ndarray:
        """Rehydrate the ref as a read-only NumPy view, zero-copy.

        Resolution order: a segment mapping this process already holds
        (owned or attached), the spill-file tier, then a fresh
        shared-memory attach by name.  A segment that spills between the
        lookup and the view construction is retried through the file
        tier, so refs stay valid across spills.

        Returns
        -------
        numpy.ndarray
            Read-only view of the shared (or memory-mapped) bytes.

        Raises
        ------
        BlockLost
            If neither a live segment nor a readable spill file exists
            for this ref's segment name (a :class:`FileNotFoundError`
            subclass, so pre-resilience callers keep working).  A spill
            file too short for the ref's shape — a corrupted or
            truncated block — counts as missing.
        """
        name = self.segment
        with _REGISTRY_LOCK:
            # view construction stays inside the lock so the spill
            # path's check-then-close cannot unmap the segment between
            # our lookup and the ndarray taking its reference
            segment = _OWNED.get(name) or _ATTACHED.get(name)
            if segment is not None and getattr(segment, "buf", None) is not None:
                try:
                    return self._view(segment.buf)
                except (ValueError, TypeError):
                    pass  # segment retired (spilled) under us; fall through
        view = self._file_view()
        if view is not None:
            return view
        try:
            segment = _attach(name)
        except FileNotFoundError:
            # the owning store may have spilled it while we attached
            view = self._file_view()
            if view is not None:
                return view
            raise BlockLost(name, self.spill_dir) from None
        return self._view(segment.buf)

    def _file_view(self) -> Optional[np.ndarray]:
        """Try the spill-file tier; ``None`` when absent or unreadable.

        A mapping too small for the ref's shape (a truncated or
        corrupted block file) is dropped from the per-process cache and
        treated as missing, so the resilience layer sees one uniform
        :class:`BlockLost` signal for every flavour of lost block.
        """
        if self.spill_dir is None:
            return None
        mapped = _attach_file(self.spill_dir, self.segment)
        if mapped is None:
            return None
        try:
            return self._view(mapped)
        except (ValueError, TypeError):
            _invalidate_mapping(os.path.join(self.spill_dir, self.segment + ".blk"))
            return None

    def slice_rows(self, start: int, stop: int) -> "BlockRef":
        """Return a sub-ref covering rows ``start:stop`` along the first axis.

        This is how partitioners hand out per-task chunks without
        copying: the sub-ref shares the parent segment and only adjusts
        offset and shape.  Requires the stored array to be C-contiguous,
        which :meth:`SharedMemoryStore.put` guarantees.

        Parameters
        ----------
        start, stop : int
            Row range (negative and out-of-range values are clipped with
            ``slice`` semantics).

        Returns
        -------
        BlockRef
            Ref to the same segment with adjusted shape and offset.
        """
        if not self.shape:
            raise ValueError("cannot row-slice a 0-d BlockRef")
        start, stop, _ = slice(start, stop).indices(self.shape[0])
        row_items = 1
        for dim in self.shape[1:]:
            row_items *= int(dim)
        itemsize = np.dtype(self.dtype).itemsize
        return BlockRef(
            segment=self.segment,
            shape=(max(0, stop - start),) + tuple(self.shape[1:]),
            dtype=self.dtype,
            offset=self.offset + start * row_items * itemsize,
            spill_dir=self.spill_dir,
        )


class SharedMemoryStore:
    """Registry of arrays placed in shared memory, keyed by segment name.

    ``put`` copies an array into a fresh segment once and returns a
    :class:`BlockRef`; putting the same array object again returns the
    existing ref (so a 2-D block decomposition that reuses every
    trajectory in ~2·N/n1 tasks still shares each one exactly once).
    ``adopt`` consumes a block another process published: it copies the
    bytes into the driver's heap and unlinks the segment at once, so the
    store only ever owns the blocks that were put or ingested.
    With ``capacity_bytes`` set the store keeps at most that many
    resident segment bytes: cold segments spill to memory-mapped files
    in ``spill_dir`` (largest-cold-first — see :meth:`_choose_victim`)
    and their refs keep resolving bit-identically through the file tier.

    Spilling is write-behind by default (``spill_async=True``): the
    evicting put hands the victim block to a dedicated spill-writer
    thread through a bounded queue and returns immediately, so the hot
    path no longer stalls for the file write.  An evicted block moves
    through ``resident → enqueued → spilling → spilled``; until the
    writer demotes it, it stays readable from shared memory.  A full
    queue blocks the evicting put (backpressure), which bounds how far
    shared-memory usage can overrun the watermark.
    :meth:`flush_spill` is the barrier that drains the queue;
    ``spill_async=False`` restores the synchronous in-line write.

    ``cleanup`` closes and unlinks every owned segment and removes the
    spill files; it also runs at interpreter exit (``atexit``) and at
    worker-process exit (``multiprocessing.util.Finalize``) as a
    backstop against leaked ``/dev/shm`` entries.  Pending write-behind
    work is discarded at cleanup, never leaked: blocks still in flight
    are unlinked straight from shared memory.

    Parameters
    ----------
    capacity_bytes : int, optional
        Watermark for resident segment bytes.  ``None`` (default)
        disables spilling.
    spill_dir : str, optional
        Directory for the disk tier.  Created on demand; when omitted
        and a capacity is set, a private temporary directory is used
        (and removed by :meth:`cleanup`).
    spill_async : bool, optional
        ``True`` (default) spills write-behind on the spill-writer
        thread; ``False`` writes spill files synchronously in the
        evicting thread.
    spill_queue_depth : int, optional
        Maximum number of blocks queued for the writer before eviction
        applies backpressure (default 4; must be positive).

    Attributes
    ----------
    bytes_shared : int
        Cumulative unique array bytes entered through :meth:`put`.
    bytes_adopted : int
        Cumulative bytes of worker-published blocks copied out by
        :meth:`adopt`.
    bytes_ingested : int
        Cumulative unique source bytes entered through :meth:`ingest`
        (streamed input chunks; fingerprint hits do not re-count).
    peak_resident_bytes : int
        High-water mark of ``bytes_resident`` over the store's lifetime
        — the number that proves an out-of-core run never materialized
        its inputs.
    bytes_resident : int
        Segment bytes currently resident in shared memory (grows on
        put/ingest, shrinks when a block is evicted — for write-behind
        spills that is enqueue time, when the block is committed to
        leaving).
    bytes_spilled : int
        Cumulative bytes evicted to the disk tier (accounted when the
        eviction is decided, so the counter is deterministic under
        write-behind).
    spill_wait_seconds : float
        Cumulative seconds eviction stalled the putting thread: full
        file-write time when ``spill_async=False``, backpressure
        blocking only when ``True``.
    spill_hidden_seconds : float
        Cumulative seconds the write-behind thread spent writing spill
        files in the background (always 0 for synchronous stores).
    """

    def __init__(self, capacity_bytes: int | None = None,
                 spill_dir: str | None = None,
                 spill_async: bool = True,
                 spill_queue_depth: int = 4) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if spill_queue_depth < 1:
            raise ValueError("spill_queue_depth must be positive")
        self._segments: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        # id(array) -> (array, ref); the array reference keeps the id stable
        self._registered: Dict[int, Tuple[np.ndarray, BlockRef]] = {}
        # ingest-side dedup and healing: fingerprint -> ref, and segment
        # name -> picklable loader that re-reads the block's source bytes
        self._fingerprints: Dict[str, BlockRef] = {}
        self._sources: Dict[str, Any] = {}
        self._spilled: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._closed = False
        self.capacity_bytes = capacity_bytes
        self.spill_async = bool(spill_async)
        self.spill_queue_depth = int(spill_queue_depth)
        self.bytes_shared = 0
        self.bytes_adopted = 0
        self.bytes_ingested = 0
        self.bytes_resident = 0
        self.peak_resident_bytes = 0
        self.bytes_spilled = 0
        self.spill_wait_seconds = 0.0
        self.spill_hidden_seconds = 0.0
        # write-behind state: blocks in the enqueued/spilling states live
        # in _spilling (name -> (segment, nbytes)) so their segments stay
        # mapped and resolvable until the writer demotes them
        self._spilling: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}
        self._spill_queue: "deque[str]" = deque()
        self._spill_cv = threading.Condition(self._lock)
        self._spill_thread: threading.Thread | None = None
        self._spill_stop = False
        self._spill_error: BaseException | None = None
        self._owns_spill_dir = capacity_bytes is not None and spill_dir is None
        if self._owns_spill_dir:
            self.spill_dir: str | None = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            self.spill_dir = spill_dir
            if spill_dir is not None:
                os.makedirs(spill_dir, exist_ok=True)
        atexit.register(self.cleanup)
        # atexit never runs in multiprocessing workers (they exit through
        # os._exit); the Finalize hook covers them
        self._finalizer = mp_util.Finalize(self, SharedMemoryStore.cleanup,
                                           args=(self,), exitpriority=10)

    # ------------------------------------------------------------------ #
    def put(self, array: np.ndarray, dedup: bool = True) -> BlockRef:
        """Place ``array`` in shared memory and return its ref.

        Parameters
        ----------
        array : numpy.ndarray
            Array to share; copied into the segment (made C-contiguous
            if needed).  Zero-byte arrays are rejected.
        dedup : bool, optional
            With the default ``True`` the same array *object* is shared
            at most once and later puts return the original ref; the
            store keeps a reference to the array to pin its identity.
            ``False`` makes a new segment on every call and keeps no
            reference to ``array``; such a block has no healing source
            (:meth:`recover_spilled_block`).

        Returns
        -------
        BlockRef
            Handle to the stored bytes.
        """
        if self._closed:
            raise RuntimeError("SharedMemoryStore is closed")
        if not isinstance(array, np.ndarray):
            raise TypeError(f"SharedMemoryStore.put needs an ndarray, got {type(array)!r}")
        key = id(array)
        _sweep_retired()
        with self._lock:
            # re-checked under the lock: a concurrent cleanup() that beat
            # us here must not gain a segment after its teardown sweep
            if self._closed:
                raise RuntimeError("SharedMemoryStore is closed")
            if dedup:
                hit = self._registered.get(key)
                if hit is not None:
                    self._touch(hit[1].segment)
                    return hit[1]
            segment, ref = _copy_into_segment(array, spill_dir=self.spill_dir)
            with _REGISTRY_LOCK:
                _OWNED[segment.name] = segment
            self._segments[segment.name] = segment
            self._sizes[segment.name] = ref.nbytes
            if dedup:
                self._registered[key] = (array, ref)
            self.bytes_shared += ref.nbytes
            self.bytes_resident += ref.nbytes
            self._note_resident_peak()
            self._maybe_spill()
            return ref

    def ingest(self, fingerprint: str, loader: Any) -> BlockRef:
        """Ingest externally sourced bytes under a dedup fingerprint.

        The streaming-input path: unlike :meth:`put`, nothing pins the
        source array driver-side — deduplication is keyed by
        ``fingerprint`` (e.g. chunk file path + chunk index), and the
        picklable ``loader`` is registered as the block's healing source,
        so a spilled chunk block whose ``.blk`` file is lost heals by
        re-reading the original file
        (:meth:`recover_spilled_block`).  A fingerprint hit refreshes the
        block's LRU position and returns the existing ref without calling
        the loader; a miss calls ``loader()`` once, copies the result
        into a fresh segment, and accounts the bytes under
        ``bytes_ingested``.

        Parameters
        ----------
        fingerprint : str
            Stable identity of the source bytes.  Two ingests with the
            same fingerprint share one block.
        loader : callable
            Zero-argument picklable callable returning the block's
            ``numpy.ndarray`` (e.g.
            :class:`~repro.trajectory.streaming.ChunkSource`).

        Returns
        -------
        BlockRef
            Handle to the ingested bytes.
        """
        if self._closed:
            raise RuntimeError("SharedMemoryStore is closed")
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedMemoryStore is closed")
            hit = self._fingerprints.get(fingerprint)
            if hit is not None:
                self._touch(hit.segment)
                return hit
        # the file read runs outside the store lock; a racing ingest of
        # the same fingerprint is resolved under the lock below
        array = np.asarray(loader())
        _sweep_retired()
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedMemoryStore is closed")
            hit = self._fingerprints.get(fingerprint)
            if hit is not None:
                self._touch(hit.segment)
                return hit
            segment, ref = _copy_into_segment(array, spill_dir=self.spill_dir)
            with _REGISTRY_LOCK:
                _OWNED[segment.name] = segment
            self._segments[segment.name] = segment
            self._sizes[segment.name] = ref.nbytes
            self._fingerprints[fingerprint] = ref
            self._sources[segment.name] = loader
            self.bytes_ingested += ref.nbytes
            self.bytes_resident += ref.nbytes
            self._note_resident_peak()
            self._maybe_spill()
            return ref

    def adopt(self, ref: BlockRef) -> np.ndarray:
        """Receive a worker-published block: copy it out, then unlink it.

        The block's bytes are copied into the driver's heap once, and
        its segment is unlinked and its mapping closed before this
        returns, so a received result holds no ``/dev/shm`` name, no fd
        and no residency; ``bytes_adopted`` counts the copied bytes.  A
        ref to a block this store owns (a task that returned one of its
        input refs) is resolved and copied, and the block stays owned.

        Parameters
        ----------
        ref : BlockRef
            Ref to a published block (or to one of this store's own).

        Returns
        -------
        numpy.ndarray
            A writable copy of the block, sharing no memory with any
            segment.

        Raises
        ------
        BlockLost
            If the published segment is gone before receipt; the
            executor re-executes the producing task.
        """
        if not isinstance(ref, BlockRef):
            raise TypeError(f"SharedMemoryStore.adopt needs a BlockRef, got {type(ref)!r}")
        with self._lock:  # the spill path moves blocks between registries under it
            owned = ref in self
        if owned:
            return np.array(ref.resolve())
        try:
            segment = shared_memory.SharedMemory(name=ref.segment)
        except FileNotFoundError:
            raise BlockLost(ref.segment, ref.spill_dir) from None
        try:
            array = ref._view(segment.buf).copy()
        finally:
            _quiet_unlink(segment)
            segment.close()
        with self._lock:
            self.bytes_adopted += array.nbytes
        return array

    def get(self, ref: BlockRef) -> np.ndarray:
        """Resolve a ref (works for refs from any store in any process)."""
        with self._lock:
            self._touch(ref.segment)
        return ref.resolve()

    def __len__(self) -> int:
        """Number of resident segments (spilled segments excluded)."""
        return len(self._segments)

    def __contains__(self, ref: BlockRef) -> bool:
        """Whether ``ref`` points at a segment this store owns (any tier)."""
        return isinstance(ref, BlockRef) and (ref.segment in self._segments
                                              or ref.segment in self._spilled
                                              or ref.segment in self._spilling)

    @property
    def closed(self) -> bool:
        """Whether :meth:`cleanup` ran."""
        return self._closed

    def spilled_names(self) -> frozenset:
        """Names of blocks currently demoted to the disk tier.

        Only fully spilled blocks are reported — blocks still in the
        write-behind ``enqueued``/``spilling`` states remain readable
        from shared memory everywhere and resolve without touching the
        file tier yet.
        """
        with self._lock:
            return frozenset(self._spilled)

    # ------------------------------------------------------------------ #
    def _touch(self, name: str) -> None:
        """Mark segment ``name`` most recently used (no-op if not resident)."""
        if name in self._segments:
            self._segments.move_to_end(name)

    def _note_resident_peak(self) -> None:
        """Record a residency high-water mark (runs under the store lock)."""
        if self.bytes_resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self.bytes_resident

    def _maybe_spill(self) -> None:
        """Evict cold segments, largest first, until under the watermark.

        Synchronous stores write the spill file in line (the full write
        lands in ``spill_wait_seconds``); write-behind stores enqueue the
        victim for the spill-writer thread and return immediately.  A
        store closed while an eviction waits on backpressure stops
        evicting — cleanup owns every remaining segment from that point.
        """
        if self.capacity_bytes is None:
            return
        while (self.bytes_resident > self.capacity_bytes and self._segments
               and not self._closed):
            victim = self._choose_victim()
            if self.spill_async:
                self._enqueue_spill(victim)
            else:
                start = time.perf_counter()
                self._spill_segment(victim)
                self.spill_wait_seconds += time.perf_counter() - start

    def _choose_victim(self) -> str:
        """Size-aware LRU eviction choice.

        Pure put/get-order eviction can push out many small blocks to make
        room that one cold oversized block would have freed in a single
        spill (and a single write).  Instead, the victim is the *largest*
        segment among the cold majority — everything except the
        most-recently-used quarter (always at least the single hottest
        segment), which stays protected so one oversized put cannot evict
        what the computation just touched.  Ties go to the least recently
        used of the largest, which reduces to classic LRU when all blocks
        are the same size.
        """
        names = list(self._segments)          # LRU -> MRU order
        protected = max(1, len(names) // 4)
        cold = names[:-protected] or names[:1]
        # max() keeps the first (= least recently used) of equal sizes
        return max(cold, key=self._sizes.__getitem__)

    def _write_block(self, name: str, segment: shared_memory.SharedMemory) -> None:
        """Write one segment's bytes to its spill file, atomically.

        Readers must never observe a partial block: the bytes go to a
        ``.tmp`` sibling first and are published with ``os.replace``.
        """
        path = os.path.join(self.spill_dir, name + ".blk")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(segment.buf)
        os.replace(tmp, path)

    def _demote_segment(self, name: str, segment: shared_memory.SharedMemory,
                        nbytes: int) -> None:
        """Retire a written-out segment from shared memory to the file tier.

        Only called once the block's spill file is in place, so refs can
        always resolve through one tier or the other.  Runs under the
        store lock.
        """
        with _REGISTRY_LOCK:
            _OWNED.pop(name, None)
        _quiet_unlink(segment)
        # live views may pin the mapping; park the segment instead of
        # closing under them (swept once the views are gone)
        _retire_or_close(segment)
        self._spilled[name] = nbytes

    def _spill_segment(self, name: str) -> None:
        """Move one resident segment to the disk tier, synchronously."""
        segment = self._segments.pop(name)
        nbytes = self._sizes.pop(name)
        self._write_block(name, segment)
        self._demote_segment(name, segment, nbytes)
        self.bytes_resident -= nbytes
        self.bytes_spilled += nbytes

    # ------------------------------------------------------------------ #
    # write-behind machinery
    # ------------------------------------------------------------------ #
    def _raise_spill_error(self) -> None:
        """Re-raise a failure recorded by the spill-writer thread.

        The error is sticky: once the writer has failed, every flush and
        every further eviction surfaces it instead of hanging on a queue
        nobody drains.  Before raising, every block still in the
        ``enqueued``/``spilling`` states is reinstated into the resident
        set — the dead writer will never demote them, so leaving their
        names in the registry would pin shared memory for the life of
        the store while ``bytes_resident`` claims they left (the leak a
        broken pool's recovery flush used to trip over).  Runs under the
        store lock.
        """
        if self._spill_error is not None:
            for name in list(self._spilling):
                self._reinstate_pending(name)
            raise RuntimeError("async spill writer failed") from self._spill_error

    def _enqueue_spill(self, name: str) -> None:
        """Hand one resident segment to the spill-writer thread.

        Runs under the store lock.  The block leaves the resident set
        immediately — ``bytes_resident`` and ``bytes_spilled`` account
        the eviction decision, not the file write, so the counters are
        deterministic — and enters the ``enqueued`` state, where its ref
        keeps resolving from shared memory.  A full queue blocks until
        the writer takes a block (backpressure); that blocked time is
        the put path's only remaining stall and is recorded in
        ``spill_wait_seconds``.
        """
        self._raise_spill_error()
        if self._spill_thread is None:
            self._spill_thread = threading.Thread(
                target=self._spill_writer, name="repro-spill-writer", daemon=True)
            self._spill_thread.start()
        segment = self._segments.pop(name)
        nbytes = self._sizes.pop(name)
        self._spilling[name] = (segment, nbytes)
        self.bytes_resident -= nbytes
        self.bytes_spilled += nbytes
        start = time.perf_counter()
        while (len(self._spill_queue) >= self.spill_queue_depth
               and not self._spill_stop and self._spill_error is None):
            self._spill_cv.wait()
        self.spill_wait_seconds += time.perf_counter() - start
        if self._spill_stop:
            return  # racing close: cleanup owns the spilling set now
        if self._spill_error is not None:
            # the writer died while we waited on backpressure: appending
            # to its queue would leak the name into the enqueued state
            # forever (nobody drains it), with bytes_resident already
            # decremented — the block would pin /dev/shm for the life of
            # the store while the accounting claims it left.  Reinstate
            # the victim (and every other pending block) and surface the
            # sticky error.
            self._raise_spill_error()
        self._spill_queue.append(name)
        self._spill_cv.notify_all()

    def _reinstate_pending(self, name: str) -> None:
        """Move an enqueued-but-unspilled block back to the resident set.

        Runs under the store lock.  Used when the spill writer has
        failed: the block never reached (and will never reach) the disk
        tier, so residency accounting and the LRU order must reflect
        that it is still in shared memory.
        """
        entry = self._spilling.pop(name, None)
        if entry is None:
            return
        segment, nbytes = entry
        self._segments[name] = segment
        self._segments.move_to_end(name, last=False)  # coldest: evict first later
        self._sizes[name] = nbytes
        self.bytes_resident += nbytes
        self._note_resident_peak()
        self.bytes_spilled -= nbytes
        try:
            self._spill_queue.remove(name)
        except ValueError:
            pass
        if self.spill_dir is not None:
            # a half-written .tmp from the failed write is garbage now
            try:
                os.remove(os.path.join(self.spill_dir, name + ".blk.tmp"))
            except OSError:
                pass

    def _spill_writer(self) -> None:
        """Drain the eviction queue: write each block, then demote it.

        The file write runs outside the store lock, so putters only ever
        contend on the (cheap) enqueue.  Taking a block off the queue
        immediately frees its backpressure slot — a putter blocked on a
        full queue resumes while the write is still in flight.
        """
        while True:
            with self._spill_cv:
                while not self._spill_queue and not self._spill_stop:
                    self._spill_cv.wait()
                if self._spill_stop:
                    return
                name = self._spill_queue.popleft()
                segment, nbytes = self._spilling[name]
                self._spill_cv.notify_all()  # slot freed: unblock putters
            start = time.perf_counter()
            try:
                self._write_block(name, segment)
            except BaseException as exc:  # noqa: BLE001 - surfaced on flush/put
                with self._spill_cv:
                    self._spill_error = exc
                    self._spill_cv.notify_all()
                return
            elapsed = time.perf_counter() - start
            with self._spill_cv:
                self.spill_hidden_seconds += elapsed
                if self._spill_stop:
                    return  # cleanup tears the spilling set down itself
                self._spilling.pop(name, None)
                self._demote_segment(name, segment, nbytes)
                self._spill_cv.notify_all()

    def flush_spill(self) -> None:
        """Barrier: block until every enqueued spill reached the disk tier.

        After it returns, no block is left in the ``enqueued`` or
        ``spilling`` state — every evicted ref resolves through its
        ``.blk`` file and the corresponding shm names are unlinked.
        Returns immediately on stores with no pending write-behind work
        (synchronous stores, stores that never spilled); re-raises a
        spill-writer failure instead of hanging on it.  On such a
        failure every enqueued-but-unspilled block is first reinstated
        into the resident set — their names must not linger in the
        registry's ``enqueued``/``spilling`` states with residency
        already discounted (the leak a broken pool's recovery flush used
        to trip over).
        """
        with self._spill_cv:
            while ((self._spill_queue or self._spilling)
                   and self._spill_error is None and not self._spill_stop):
                self._spill_cv.wait()
            self._raise_spill_error()

    def recover_spilled_block(self, name: str) -> bool:
        """Rewrite a lost or corrupted spill file from its source array.

        Task-payload blocks enter the store through deduplicating
        :meth:`put` calls, which pin the source array driver-side — so a
        spilled block whose ``.blk`` file was unlinked or truncated
        under a live run can be healed in place: the bytes are written
        again under the same segment name and every outstanding
        :class:`BlockRef` resolves bit-identically once more.  Streamed
        input chunks (:meth:`ingest`) carry no pinned array but register
        a source *loader* instead, and heal by re-reading their chunk
        file.  Blocks with no registered source of either kind
        (``dedup=False`` puts) cannot be healed this way.  Worker
        results never enter the store (:meth:`adopt` copies them out and
        unlinks them on receipt), so a result lost before receipt is
        re-executed by the resilience layer instead.

        Parameters
        ----------
        name : str
            Segment name of the lost block.

        Returns
        -------
        bool
            ``True`` when the block was rewritten; ``False`` when it is
            resident anyway, unknown, or has no registered source.
        """
        with self._lock:
            if self._closed or self.spill_dir is None:
                return False
            if name in self._segments or name in self._spilling:
                return False  # still resident: nothing to heal
            source = None
            for array, ref in self._registered.values():
                if ref.segment == name:
                    source = array
                    break
            if source is None:
                loader = self._sources.get(name)
                if loader is not None:
                    try:
                        source = np.asarray(loader())
                    except OSError:
                        return False  # source file itself is gone
            if source is None or name not in self._spilled:
                return False
            data = np.ascontiguousarray(source)
            path = os.path.join(self.spill_dir, name + ".blk")
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data.data)
            os.replace(tmp, path)
        # stale cached mappings (of the unlinked or truncated inode) must
        # not shadow the healed file
        _invalidate_mapping(path)
        return True

    # ------------------------------------------------------------------ #
    def cleanup(self) -> None:
        """Close and unlink every owned segment and spill file (idempotent).

        Pending write-behind work is discarded, not flushed: the spill
        writer is stopped, blocks still in the ``enqueued`` / ``spilling``
        states are unlinked straight from shared memory, and any block
        files they already produced are removed with the rest of the
        disk tier — so a store closed (or a worker that dies) with a
        non-empty spill queue leaks neither ``/dev/shm`` names nor
        ``.blk`` files.
        """
        if self._closed:
            return
        with self._spill_cv:
            if self._closed:  # lost the race to another closer
                return
            self._closed = True
            self._spill_stop = True
            self._spill_queue.clear()
            thread = self._spill_thread
            self._spill_cv.notify_all()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=30.0)
        # the teardown sweep runs under the store lock: a put (or an
        # eviction loop) that raced the close either finished before
        # the sweep — and is swept with everything else — or observes
        # the closed flag under the same lock and backs out
        with self._lock:
            # blocks the writer never demoted go straight from shm to gone
            for name, (segment, _nbytes) in self._spilling.items():
                with _REGISTRY_LOCK:
                    _OWNED.pop(name, None)
                _quiet_unlink(segment)
                _retire_or_close(segment)
            doomed_files = set(self._spilled) | set(self._spilling)
            self._spilling.clear()
            for name, segment in self._segments.items():
                with _REGISTRY_LOCK:
                    _OWNED.pop(name, None)
                # unlink unconditionally so the name never outlives the
                # store, but only unmap when no caller still holds views
                # of its blocks
                _quiet_unlink(segment)
                _retire_or_close(segment)
            self._segments.clear()
            self._sizes.clear()
            self._registered.clear()
            self._fingerprints.clear()
            self._sources.clear()
            self.bytes_resident = 0
            for name in doomed_files:
                path = os.path.join(self.spill_dir, name + ".blk")
                with _REGISTRY_LOCK:
                    mapped = _MAPPED.pop(path, None)
                if mapped is not None:
                    try:
                        mapped.close()
                    except Exception:
                        pass
                for leftover in (path, path + ".tmp"):
                    try:
                        os.remove(leftover)
                    except OSError:
                        pass
            self._spilled.clear()
        if self._owns_spill_dir and self.spill_dir is not None:
            try:
                os.rmdir(self.spill_dir)
            except OSError:
                pass
        try:
            atexit.unregister(self.cleanup)
        except Exception:
            pass
        try:
            self._finalizer.cancel()
        except Exception:
            pass

    close = cleanup


def array_digest(array: np.ndarray) -> str:
    """Content fingerprint of an array: sha256 over dtype, shape and bytes.

    The dedup/identity primitive shared by the block registry (healing a
    spilled block re-verifies its source) and the checkpoint layer
    (:class:`~repro.frameworks.checkpoint.RunJournal` fingerprints the
    input ensemble so a journal written for different data is rejected,
    never silently reused).  Two arrays digest equal iff they are
    elementwise identical with the same dtype and shape.
    """
    import hashlib

    data = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(data.dtype.str).encode())
    digest.update(repr(tuple(data.shape)).encode())
    if data.nbytes:
        digest.update(data.data)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# payload conversion
# --------------------------------------------------------------------------- #
#: nodes the payload walk hands to ``leaf`` but never descends into
_LEAVES = (BlockRef, np.ndarray, np.generic, str, bytes, bytearray, int, float,
           complex, type(None))


def _walk(obj: Any, leaf) -> Any:
    """Rebuild ``obj`` applying ``leaf`` to every array/ref, sharing structure.

    Lists, tuples, dicts and dataclass instances are descended into;
    refs, arrays and scalars are leaves.  Containers are only copied
    when something inside them changed, so a walk that changes nothing
    returns ``obj`` itself, and a rebuilt container keeps its type
    (NamedTuples, list and dict subclasses, frozen dataclasses).
    """
    mapped = leaf(obj)
    if mapped is not obj or isinstance(obj, _LEAVES):
        return mapped
    if isinstance(obj, list):
        new = [_walk(item, leaf) for item in obj]
        if all(a is b for a, b in zip(new, obj)):
            return obj
        if type(obj) is list:
            return new
        clone = copy.copy(obj)
        clone[:] = new
        return clone
    if isinstance(obj, tuple):
        new = tuple(_walk(item, leaf) for item in obj)
        if all(a is b for a, b in zip(new, obj)):
            return obj
        # preserve NamedTuple types: rebuilding as a bare tuple would
        # break attribute access task-side
        if hasattr(obj, "_fields"):
            return type(obj)(*new)
        return new
    if isinstance(obj, dict):
        new = {key: _walk(value, leaf) for key, value in obj.items()}
        if all(a is b for a, b in zip(new.values(), obj.values())):
            return obj
        if type(obj) is dict:
            return new
        clone = copy.copy(obj)
        clone.update(new)
        return clone
    names = _field_names(type(obj))
    if names is None:
        return obj
    changed = {}
    for name in names:
        old = getattr(obj, name)
        new = _walk(old, leaf)
        if new is not old:
            changed[name] = new
    if not changed:
        return obj
    clone = copy.copy(obj)
    for name, value in changed.items():
        object.__setattr__(clone, name, value)
    return clone


def share_payload(obj: Any, store: SharedMemoryStore) -> Tuple[Any, int, int]:
    """Swap every non-empty ndarray in ``obj`` for a :class:`BlockRef`.

    Parameters
    ----------
    obj : Any
        Task payload (arbitrarily nested dataclasses/lists/tuples/dicts).
    store : SharedMemoryStore
        Store the arrays are registered in (deduplicated store-wide).

    Returns
    -------
    converted : Any
        The payload with arrays replaced by refs (structure shared with
        ``obj`` where nothing changed).
    bytes_newly_shared : int
        Segment bytes this call added to the store (deduplicated arrays
        contribute zero).
    bytes_referenced : int
        Array bytes the converted payload's refs point at, refs that
        ``obj`` already carried included: the per-task "bytes accessed
        through the plane" number, :func:`refs_nbytes` of ``converted``
        without a second walk.
    """
    before = store.bytes_shared
    referenced = 0

    def leaf(x: Any) -> Any:
        nonlocal referenced
        if isinstance(x, BlockRef):
            referenced += x.nbytes
        elif isinstance(x, np.ndarray) and x.nbytes > 0:
            referenced += x.nbytes
            return store.put(x)
        return x

    converted = _walk(obj, leaf)
    return converted, store.bytes_shared - before, referenced


def stand_in_refs(obj: Any, spill_dir: Optional[str] = None) -> Tuple[Any, int]:
    """Swap every non-empty ndarray in ``obj`` for a ref that names no segment.

    The accounting side of a result that stays in the heap: each
    stand-in is shaped like the ref ``SharedMemoryStore.put`` would
    return (a distinct segment name as long as a platform-chosen one,
    the array's shape and dtype, ``spill_dir``), so the pickled size of
    ``converted`` is what a ref payload would move across a process
    boundary, and no segment is created to learn it.

    Parameters
    ----------
    obj : Any
        A task result (arbitrarily nested).
    spill_dir : str, optional
        The spill directory the store's refs would carry.

    Returns
    -------
    converted : Any
        The result with every non-empty array replaced by a stand-in.
    bytes_referenced : int
        Array bytes the converted payload's refs point at, refs that
        ``obj`` already carried included (:func:`refs_nbytes` of
        ``converted``).
    """
    referenced = 0
    names = itertools.count()

    def leaf(x: Any) -> Any:
        nonlocal referenced
        if isinstance(x, BlockRef):
            referenced += x.nbytes
        elif isinstance(x, np.ndarray) and x.nbytes > 0:
            referenced += x.nbytes
            return BlockRef(segment=f"psm_{next(names):08x}", shape=tuple(x.shape),
                            dtype=x.dtype.str, spill_dir=spill_dir)
        return x

    return _walk(obj, leaf), referenced


def resolve_payload(obj: Any) -> Any:
    """Swap every :class:`BlockRef` in ``obj`` back to a NumPy view.

    Payloads carrying more than one ref get read-ahead: before the
    first block is resolved, :func:`prefetch_refs` hints are issued for
    its siblings, so blocks that were spilled to the file tier stream
    into the page cache while the earlier blocks are being consumed —
    the resolve-side half of the write-behind spill pipeline.
    """
    refs: List[BlockRef] = []

    def collect(x: Any) -> Any:
        if isinstance(x, BlockRef):
            refs.append(x)
        return x

    _walk(obj, collect)
    if len(refs) > 1:
        prefetch_refs(refs[1:])

    def leaf(x: Any) -> Any:
        if isinstance(x, BlockRef):
            return x.resolve()
        return x

    return _walk(obj, leaf)


def publish_payload(obj: Any) -> Tuple[Any, int]:
    """Publish a result payload's arrays into fresh shm segments (worker side).

    The cross-process counterpart of :func:`share_payload` for the
    *result* path: no store object survives pickling into a pool worker,
    so the worker creates standalone segments and returns refs, and the
    driver copies each block out and unlinks it with
    :func:`adopt_payload`.  Segments are tracked process-locally until
    :func:`mark_handed_off`; anything a crashed task leaves behind is
    unlinked at process exit.

    Parameters
    ----------
    obj : Any
        The task's result (arbitrarily nested).

    Returns
    -------
    converted : Any
        The result with every non-empty array replaced by a
        :class:`BlockRef`.
    bytes_published : int
        Array bytes written into the published segments.
    """
    _install_publish_hook()
    published = 0

    def leaf(x: Any) -> Any:
        nonlocal published
        if isinstance(x, np.ndarray) and x.nbytes > 0:
            # pid-keyed name: a publisher that dies before hand-off can
            # be identified and its segments swept by the driver
            segment, ref = _copy_into_segment(
                x, name_prefix=f"{PUBLISH_PREFIX}-{os.getpid()}")
            # the driver unlinks the segment on receipt; drop the
            # tracker registration so this process's exit does not
            # tear it down before then
            _unregister_from_tracker(segment)
            with _REGISTRY_LOCK:
                _PUBLISHED[segment.name] = segment
            published += ref.nbytes
            return ref
        return x

    converted = _walk(obj, leaf)
    return converted, published


def mark_handed_off(obj: Any) -> None:
    """Close this process's mappings of a published payload's segments.

    Call once the converted payload is definitely on its way to the
    driver (serialized for return): from that point the driver's adopt
    copies the blocks out and unlinks them, so the publisher's exit hook
    must not unlink them, and the publisher keeps no mapping (nor fd) of
    its own.

    Parameters
    ----------
    obj : Any
        A payload previously converted by :func:`publish_payload`.
    """

    def leaf(x: Any) -> Any:
        if isinstance(x, BlockRef):
            with _REGISTRY_LOCK:
                segment = _PUBLISHED.pop(x.segment, None)
            if segment is not None:
                segment.close()
        return x

    _walk(obj, leaf)


def adopt_payload(obj: Any, store: SharedMemoryStore) -> Any:
    """Receive a published result payload (driver side).

    Every ref is passed to :meth:`SharedMemoryStore.adopt`, which copies
    its block into the heap and unlinks the segment, so the payload
    comes back with plain writable arrays and leaves nothing in shared
    memory.

    Parameters
    ----------
    obj : Any
        Result payload containing :class:`BlockRef` handles.
    store : SharedMemoryStore
        The store that receives the payload (and owns any input block a
        ref may name).

    Returns
    -------
    Any
        The payload with every ref replaced by its array.

    Raises
    ------
    BlockLost
        The first lost block's error, raised once every other ref of the
        payload has been received, so a lost block leaves none of the
        result's other segments behind.
    """
    lost: List[BlockLost] = []

    def leaf(x: Any) -> Any:
        if not isinstance(x, BlockRef):
            return x
        try:
            return store.adopt(x)
        except BlockLost as exc:
            lost.append(exc)
            return x

    adopted = _walk(obj, leaf)
    if lost:
        raise lost[0]
    return adopted


def refs_nbytes(obj: Any) -> int:
    """Total array bytes referenced (not moved) by the refs inside ``obj``."""
    total = 0

    def leaf(x: Any) -> Any:
        nonlocal total
        if isinstance(x, BlockRef):
            total += x.nbytes
        return x

    _walk(obj, leaf)
    return total


def maybe_resolve(value: Any) -> Any:
    """Return ``value.resolve()`` for a :class:`BlockRef`, ``value`` otherwise."""
    if isinstance(value, BlockRef):
        return value.resolve()
    return value


class ResolvingTask:
    """Picklable wrapper: resolve the payload's refs, then call ``fn``.

    Substrates whose tasks share the driver's address space wrap the
    user's task function with this when running on the shm data plane,
    so the function still receives plain arrays while only refs cross
    the task boundary.  The result is returned as it is: it is already
    in the driver's heap, and a segment would only copy it there again.
    Process pools resolve payloads and publish results in their own
    worker shim instead (see :mod:`repro.frameworks.executors`).

    Parameters
    ----------
    fn : callable
        The task function.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        """Run the task over the resolved payload."""
        return self.fn(resolve_payload(item))
