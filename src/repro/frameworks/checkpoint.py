"""Checkpoint/restart of whole runs at matrix-block granularity.

A long fan-out analysis (PSA's distance blocks, the Leaflet Finder's
partial components) loses everything on a driver crash: the fault
layer re-executes *tasks* that fail, but a dead driver recomputes the
whole run.  This module adds the missing durability tier — a
:class:`RunJournal` that persists each completed task result to disk as
it happens, so a re-run with the same ``checkpoint_dir`` replays the
journal and submits only the missing blocks.

Design
------
* **Entries are written worker-side, before publish.**
  :class:`JournaledTask` wraps the task function; when a task completes,
  its result is encoded into a raw-bytes ``.blk`` file, a format the
  journal writes itself (the array's bytes in C order, as the spill
  tier also lays them out), plus a JSON sidecar carrying the task
  key, per-part shape/dtype, and a sha256 checksum.  Both are written
  atomically (temp file + ``os.replace``); the sidecar lands *after*
  the block, so a crash mid-write leaves an incomplete entry that
  replay detects and discards — a corrupt or truncated entry is
  recomputed, never trusted.
* **The manifest makes staleness loud.**  ``MANIFEST.json`` records a
  fingerprint of the run's identity — input arrays (via
  :func:`~repro.frameworks.shm.array_digest`), data plane, substrate,
  metric, decomposition.  Opening a journal whose fingerprint
  does not match raises :class:`StaleJournal`; a journal written for
  different inputs is *rejected*, never silently reused.
* **Replay is bit-exact.**  Entries store the raw result bytes, so a
  resumed run assembles the identical matrix an uninterrupted run
  produces, on every substrate and both data planes.

The journal state machine per entry::

    absent ──record()──► block written ──► sidecar written (durable)
       ▲                      │                   │
       │   crash mid-write    │                   │ checksum/shape
       └──── discarded ◄──────┘◄──────────────────┘ mismatch on replay

:func:`checkpointed_map` is the driver-side integration point.  The
wave loop that ``run_psa`` and ``run_leaflet_finder`` share
(:func:`repro.core.waves.run_waves`) calls it once per wave, so a
streamed run resumes mid-stream: restore the journal, map only the
missing items, splice restored and computed results back into input
order, and account ``tasks_restored`` / ``restore_seconds`` into the
run's metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from .shm import array_digest

__all__ = [
    "StaleJournal",
    "RunJournal",
    "JournaledTask",
    "checkpointed_map",
    "run_fingerprint",
    "record_entry",
]

#: Name of the atomic manifest file inside a journal directory.
MANIFEST_NAME = "MANIFEST.json"

#: On-disk journal format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1


class StaleJournal(RuntimeError):
    """A journal directory belongs to a different run and must not be reused.

    Raised when the manifest's fingerprint (or format version) does not
    match the resuming run's.  The caller chooses what to do — point at
    a fresh directory or delete the stale one; the layer never guesses.
    """


def run_fingerprint(arrays: Sequence[Any] = (), **params: Any) -> str:
    """Fingerprint a run's identity from its input arrays and parameters.

    Parameters
    ----------
    arrays : sequence of array-like, optional
        The run's input data, digested by content
        (:func:`~repro.frameworks.shm.array_digest`), so the same
        trajectories produce the same fingerprint across processes.
    **params
        Everything else that shapes the output: data plane, substrate
        name, metric, decomposition.  Hashed by sorted
        ``repr``, so only stable scalar/str values belong here.

    Returns
    -------
    str
        Hex sha256 digest.
    """
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array_digest(np.asarray(array)).encode())
    for key in sorted(params):
        digest.update(f"{key}={params[key]!r};".encode())
    return digest.hexdigest()


def _entry_base(key: str) -> str:
    """Filesystem-safe entry basename for an arbitrary task key."""
    return "e-" + hashlib.sha256(key.encode()).hexdigest()[:24]


def _encode_value(value: Any):
    """Split a task result into ``(kind, part specs, payload bytes)``.

    Supports a single ndarray and (possibly empty) lists/tuples of
    ndarrays — the shapes PSA blocks and leaflet partial components
    come in.  Anything else is a :class:`TypeError` (the task type is
    not journalable).
    """
    if isinstance(value, np.ndarray):
        kind, parts = "array", [value]
    elif isinstance(value, (list, tuple)) and all(
            isinstance(part, np.ndarray) for part in value):
        kind = "list" if isinstance(value, list) else "tuple"
        parts = list(value)
    else:
        raise TypeError(f"cannot journal a result of type {type(value)!r}")
    blobs: List[bytes] = []
    specs: List[Dict[str, Any]] = []
    for part in parts:
        data = np.ascontiguousarray(part)
        blobs.append(data.tobytes())
        specs.append({"shape": list(data.shape), "dtype": data.dtype.str})
    return kind, specs, b"".join(blobs)


def record_entry(directory: str, key: str, value: Any) -> None:
    """Durably persist one completed task result (worker side).

    Block bytes first, sidecar second, each via atomic replace with a
    pid-unique temp name — concurrent workers recording the same key
    (a retried task) converge on identical bytes, and a crash at any
    point leaves either a complete entry or one replay will discard.
    """
    kind, specs, payload = _encode_value(value)
    base = _entry_base(key)
    nonce = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    blk_path = os.path.join(directory, base + ".blk")
    tmp = blk_path + ".tmp-" + nonce
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, blk_path)
    meta = {"key": key, "kind": kind, "parts": specs,
            "checksum": hashlib.sha256(payload).hexdigest()}
    meta_path = os.path.join(directory, base + ".json")
    tmp = meta_path + ".tmp-" + nonce
    with open(tmp, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp, meta_path)


def _decode_entry(directory: str, meta: Dict[str, Any]) -> Any:
    """Rebuild a journaled result from its sidecar; raises on corruption."""
    base = _entry_base(meta["key"])
    with open(os.path.join(directory, base + ".blk"), "rb") as fh:
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != meta["checksum"]:
        raise ValueError("journal entry checksum mismatch")
    parts: List[np.ndarray] = []
    offset = 0
    for spec in meta["parts"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(n) for n in spec["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if nbytes == 0:
            parts.append(np.empty(shape, dtype))
            continue
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError("journal entry shorter than its metadata")
        parts.append(np.frombuffer(chunk, dtype=dtype).reshape(shape).copy())
        offset += nbytes
    if offset != len(payload):
        raise ValueError("journal entry longer than its metadata")
    kind = meta["kind"]
    if kind == "array":
        return parts[0]
    return parts if kind == "list" else tuple(parts)


class RunJournal:
    """Durable record of one run's completed task results.

    Parameters
    ----------
    directory : str
        The ``checkpoint_dir``: created if missing, shared with nothing
        else.  Entry files use the spill tier's ``.blk`` raw-bytes
        format with a JSON sidecar each.
    fingerprint : str
        The run's identity (:func:`run_fingerprint`); checked against
        the directory's manifest by :meth:`open`.
    """

    def __init__(self, directory: str, fingerprint: str) -> None:
        self.directory = str(directory)
        self.fingerprint = fingerprint

    def open(self) -> "RunJournal":
        """Validate or create the manifest; raises :class:`StaleJournal`.

        A directory with a manifest written for a different run —
        different inputs, plane, substrate, parameters or format
        version — is rejected loudly.  An unreadable manifest counts as
        stale: the journal's provenance cannot be proven.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, MANIFEST_NAME)
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError) as exc:
                raise StaleJournal(
                    f"unreadable journal manifest at {path}") from exc
            if (manifest.get("format") != FORMAT_VERSION
                    or manifest.get("fingerprint") != self.fingerprint):
                raise StaleJournal(
                    f"journal at {self.directory} was written for a different "
                    f"run (manifest fingerprint "
                    f"{manifest.get('fingerprint')!r}, this run "
                    f"{self.fingerprint!r}); refusing to reuse it")
        else:
            tmp = path + f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
            with open(tmp, "w") as fh:
                json.dump({"format": FORMAT_VERSION,
                           "fingerprint": self.fingerprint}, fh)
            os.replace(tmp, path)
        return self

    def record(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` (see :func:`record_entry`)."""
        record_entry(self.directory, key, value)

    def restore(self) -> Dict[str, Any]:
        """Replay every valid entry; ``{key: result}``.

        Entries that fail validation — missing block, checksum or shape
        mismatch, unparseable sidecar — are *removed* so the caller
        recomputes them; a journal can only under-promise.
        """
        entries: Dict[str, Any] = {}
        try:
            names = os.listdir(self.directory)
        except OSError:
            return entries
        for name in sorted(names):
            if not name.endswith(".json") or name == MANIFEST_NAME:
                continue
            try:
                with open(os.path.join(self.directory, name)) as fh:
                    meta = json.load(fh)
                entries[meta["key"]] = _decode_entry(self.directory, meta)
            except (OSError, KeyError, ValueError, TypeError):
                self._drop(name)
        return entries

    def _drop(self, sidecar_name: str) -> None:
        """Remove one invalid entry (sidecar + block)."""
        base = sidecar_name[:-len(".json")]
        for suffix in (".json", ".blk"):
            try:
                os.remove(os.path.join(self.directory, base + suffix))
            except OSError:
                pass

    @property
    def n_entries(self) -> int:
        """Number of entry sidecars currently on disk (valid or not)."""
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".json") and name != MANIFEST_NAME)
        except OSError:
            return 0


# --------------------------------------------------------------------------- #
# task wrapping and the driver-side integration point
# --------------------------------------------------------------------------- #
_interval_lock = threading.Lock()
_interval_counts: Dict[str, int] = {}


def _should_record(directory: str, interval: int) -> bool:
    """Per-process completion counter for ``checkpoint_interval_tasks``."""
    if interval <= 1:
        return True
    with _interval_lock:
        count = _interval_counts.get(directory, 0) + 1
        _interval_counts[directory] = count
    return count % interval == 0


class JournaledTask:
    """Picklable task wrapper: run the task, then journal its result.

    Recording happens in the executing process (pool workers included),
    *before* the result is published to the driver — so every completed
    task is durable even if the driver dies next.  Journaling is
    best-effort: an unwritable journal (disk full, unjournalable result
    type) degrades to an ordinary unjournaled run rather than failing
    the task.

    Parameters
    ----------
    fn : callable
        The task function.
    directory : str
        The journal directory.
    key_for : callable
        Maps a task item to its stable journal key; module-level (it
        crosses process boundaries by pickle).
    interval : int, optional
        Journal every ``interval``-th completion per process (the
        policy's ``checkpoint_interval_tasks``; default 1).
    """

    def __init__(self, fn: Callable[[Any], Any], directory: str,
                 key_for: Callable[[Any], str], interval: int = 1) -> None:
        self.fn = fn
        self.directory = directory
        self.key_for = key_for
        self.interval = max(1, int(interval))

    def __call__(self, item: Any) -> Any:
        """Run the task and journal the completed result."""
        result = self.fn(item)
        if _should_record(self.directory, self.interval):
            try:
                record_entry(self.directory, self.key_for(item), result)
            except (OSError, TypeError):
                pass
        return result


def checkpointed_map(framework: Any, fn: Callable[[Any], Any],
                     items: Sequence[Any], journal: RunJournal | None,
                     key_for: Callable[[Any], str]) -> List[Any]:
    """``framework.map_tasks`` with journal restore + record around it.

    Restores every valid journal entry, maps only the items whose key is
    missing (each completion journaled via :class:`JournaledTask`), and
    splices restored and computed results back into input order.
    ``tasks_restored`` / ``restore_seconds`` are added to the
    framework's metrics *after* ``map_tasks`` (which resets them).
    Without a journal this is plain ``framework.map_tasks(fn, items)``,
    so a driver has one dispatch call whether or not it checkpoints.

    Parameters
    ----------
    framework : TaskFramework
        Any substrate; only the uniform ``map_tasks`` surface is used.
    fn : callable
        The task function.
    items : sequence
        Task items, in output order.
    journal : RunJournal or None
        An opened journal, or ``None`` for an unjournaled run.
    key_for : callable
        Stable task-item → key mapping shared by record and restore.

    Returns
    -------
    list
        One result per item, exactly as an unjournaled ``map_tasks``.
    """
    if journal is None:
        return framework.map_tasks(fn, items)
    items = list(items)
    start = time.perf_counter()
    available = journal.restore()
    keys = [key_for(item) for item in items]
    missing = [item for key, item in zip(keys, items) if key not in available]
    restore_seconds = time.perf_counter() - start
    policy = getattr(framework, "fault_policy", None)
    interval = getattr(policy, "checkpoint_interval_tasks", 1) if policy else 1
    wrapped = JournaledTask(fn, journal.directory, key_for, interval)
    computed = framework.map_tasks(wrapped, missing)
    fresh = iter(computed)
    results = [available[key] if key in available else next(fresh)
               for key in keys]
    framework.metrics.tasks_restored += len(items) - len(missing)
    framework.metrics.restore_seconds += restore_seconds
    return results
