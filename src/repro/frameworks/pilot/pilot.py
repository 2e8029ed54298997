"""Pilot, managers, session — the client-side API, plus the framework facade.

The pilot-job pattern: the user first acquires resources by submitting a
*pilot* (a placeholder job) and then schedules application tasks (Compute
Units) onto the running pilot without further queue waits.  The classes
here mirror RADICAL-Pilot's public API surface:

``Session``          owns the coordination database,
``PilotDescription`` / ``Pilot``           the resource placeholder,
``PilotManager``     submits pilots,
``UnitManager``      submits Compute Units to pilots and waits for them,
``PilotFramework``   the :class:`~repro.frameworks.base.TaskFramework`
                     facade used by :mod:`repro.core` (one Compute Unit per
                     task, file-staging based data movement, no shuffle).
"""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from ..base import BroadcastHandle, RunMetrics, TaskFramework
from ..counters import TaskCounters
from ..executors import ExecutorBase
from ..faults import NO_RETRIES, prepare_retry
from ..serialization import nbytes_of, serialized_size
from ..shm import BlockRef
from .agent import PilotAgent
from .database import StateDatabase
from .units import ComputeUnit, ComputeUnitDescription, UnitState

__all__ = [
    "PilotDescription",
    "Pilot",
    "PilotManager",
    "UnitManager",
    "Session",
    "PilotFramework",
]

_pilot_counter = itertools.count()


@dataclass
class PilotDescription:
    """Resources requested for a pilot."""

    cores: int = 1
    runtime_minutes: int = 30
    resource: str = "local"

    def validate(self) -> None:
        """Raise :class:`ValueError` for impossible requests."""
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.runtime_minutes < 1:
            raise ValueError("runtime_minutes must be >= 1")


class Pilot:
    """An active resource placeholder with an agent running inside it."""

    def __init__(self, description: PilotDescription, database: StateDatabase,
                 executor: ExecutorBase | None = None) -> None:
        description.validate()
        self.uid = f"pilot.{next(_pilot_counter):04d}"
        self.description = description
        self.state = "ACTIVE"
        self.agent = PilotAgent(database, executor=executor, cores=description.cores)

    def cancel(self) -> None:
        """Shut the pilot down."""
        self.state = "CANCELED"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Pilot {self.uid} cores={self.description.cores} state={self.state}>"


class Session:
    """A client session owning the coordination database."""

    def __init__(self, database: StateDatabase | None = None) -> None:
        self.uid = f"session.{time.strftime('%Y%m%d%H%M%S')}"
        self.database = database or StateDatabase()
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Tear the session down (drops all database documents)."""
        self.database.drop()
        self._closed = True


class PilotManager:
    """Submits pilots within a session."""

    def __init__(self, session: Session, executor: ExecutorBase | None = None) -> None:
        self.session = session
        self._executor = executor
        self.pilots: List[Pilot] = []

    def submit_pilots(self, descriptions: PilotDescription | Sequence[PilotDescription]) -> List[Pilot]:
        """Submit one or more pilot descriptions; returns active pilots."""
        if isinstance(descriptions, PilotDescription):
            descriptions = [descriptions]
        submitted = [Pilot(desc, self.session.database, executor=self._executor)
                     for desc in descriptions]
        self.pilots.extend(submitted)
        return submitted


class UnitManager:
    """Submits Compute Units to pilots and collects their results."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.pilots: List[Pilot] = []
        self.units: Dict[str, ComputeUnit] = {}

    def add_pilots(self, pilots: Pilot | Sequence[Pilot]) -> None:
        """Attach pilots that will execute submitted units."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        self.pilots.extend(pilots)

    def submit_units(self, descriptions: ComputeUnitDescription | Sequence[ComputeUnitDescription]) -> List[ComputeUnit]:
        """Register units with the database (client-side submission)."""
        if isinstance(descriptions, ComputeUnitDescription):
            descriptions = [descriptions]
        units = [ComputeUnit(desc) for desc in descriptions]
        documents = {}
        for unit in units:
            unit.advance(UnitState.PENDING_INPUT_STAGING)
            documents[unit.uid] = {"state": UnitState.PENDING_INPUT_STAGING.value,
                                   "name": unit.description.name}
            self.units[unit.uid] = unit
        if documents:
            self.session.database.insert_many(documents)
        return units

    def wait_units(self, units: Sequence[ComputeUnit] | None = None) -> List[ComputeUnit]:
        """Block until the given (or all) units reach a terminal state.

        The agents are driven synchronously from here: each attached
        pilot's agent drains the database queue.
        """
        if not self.pilots:
            raise RuntimeError("no pilots attached to this UnitManager")
        targets = list(units) if units is not None else list(self.units.values())
        for pilot in self.pilots:
            if pilot.state != "ACTIVE":
                continue
            pilot.agent.drain(self.units)
        still_pending = [u for u in targets if not u.is_terminal]
        if still_pending:
            raise RuntimeError(
                f"{len(still_pending)} units did not reach a terminal state"
            )
        return targets


class PilotFramework(TaskFramework):
    """RADICAL-Pilot-style framework substrate.

    Implements the uniform ``map_tasks`` surface by wrapping every task in
    a Compute Unit, submitting all of them at once (as the paper's
    throughput experiment does) and waiting for the pilot's agent to drain
    the queue.  There is no broadcast and no shuffle; ``stage_data`` writes
    a pickle to a shared scratch directory and returns its path — the
    filesystem-based communication pattern Table 1 lists as RP's
    limitation.

    On the ``"pickle"`` plane data is staged as pickle files on the
    shared filesystem (RP's pattern); on ``"shm"`` arrays are staged into
    shared memory and units get ``shm://`` refs — the on-node staging
    shortcut that removes both the file write and the payload pickling.
    Unit *results* ride the same plane: output arrays are staged as
    shared segments, which the driver copies out once and unlinks on
    receipt.

    Parameters
    ----------
    executor:
        See :class:`~repro.frameworks.base.TaskFramework` (default
        ``"threads"``); the pilot's agent runs its unit batches on it.
    database_latency_s:
        Latency charged per database round trip (0 for unit tests; the
        perfmodel's calibrated value reproduces the paper's throughput
        ceiling).
    staging_dir:
        Directory for file staging; a private temporary directory is
        made on the first file stage and removed on :meth:`close` when
        omitted.
    **kwargs:
        ``cluster``, ``workers``, ``data_plane``, the store settings and
        the resilience options, as in
        :class:`~repro.frameworks.base.TaskFramework`.
    """

    name = "pilot"

    def __init__(self, *, executor: str | ExecutorBase = "threads",
                 database_latency_s: float = 0.0,
                 staging_dir: str | None = None, **kwargs) -> None:
        super().__init__(executor=executor, **kwargs)
        self._staged_refs: Dict[str, BlockRef] = {}
        self.session = Session(StateDatabase(latency_s=database_latency_s))
        self.pilot_manager = PilotManager(self.session, executor=self.executor)
        pilot_desc = PilotDescription(cores=max(1, self.executor.workers),
                                      resource=self.cluster.name)
        self.pilot = self.pilot_manager.submit_pilots(pilot_desc)[0]
        self.unit_manager = UnitManager(self.session)
        self.unit_manager.add_pilots(self.pilot)
        # a private scratch directory is made on the first file stage and
        # removed on close; a caller's staging_dir is left alone
        self._staging_dir = staging_dir
        self._owns_staging_dir = False

    # ------------------------------------------------------------------ #
    # uniform TaskFramework surface
    # ------------------------------------------------------------------ #
    def map_tasks(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run independent tasks, one Compute Unit each."""
        items = list(items)
        self.metrics = RunMetrics(tasks_submitted=len(items))
        fn, items = self._apply_data_plane(fn, items)
        start = time.perf_counter()
        if not items:
            return []
        descriptions = [
            ComputeUnitDescription(callable_=fn, args=(item,), name=f"task-{i}")
            for i, item in enumerate(items)
        ]
        stats = self.pilot.agent.stats
        before = copy.copy(stats)
        units = list(self.unit_manager.submit_units(descriptions))
        self.unit_manager.wait_units(units)
        rescheduling = self._reschedule_failed_units(units)
        failed = [u for u in units if u.state == UnitState.FAILED]
        if failed:
            raise failed[0].exception  # surface the first task failure
        # on the shm plane a process agent stages unit results as shared
        # segments (the output-staging analogue of shm:// input
        # staging), which the executor already copied out and unlinked;
        # an in-process agent leaves them in the heap
        results = self._finish_results([u.result for u in units])
        wall = time.perf_counter() - start
        self.metrics.tasks_completed = len(results)
        self.metrics.wall_time_s = wall
        self.metrics.task_time_s = self.pilot.agent.stats.execution_time_s
        workers = max(1, self.executor.workers)
        self.metrics.overhead_s = max(0.0, wall - self.metrics.task_time_s / workers)
        self.metrics.record_event("database", self.session.database.stats.as_dict())
        self.metrics.record_event("agent", self.pilot.agent.stats.as_dict())
        # the executor reports only the agent's last batch; the agent's
        # rollup over this call covers every batch
        measured = stats.since(before)
        measured.add(rescheduling)
        self._collect_executor_bytes(measured)
        return results

    def _reschedule_failed_units(self, units: List[ComputeUnit]) -> TaskCounters:
        """Resubmit FAILED units as fresh Compute Units per the fault policy.

        RADICAL-Pilot's late binding means a failed unit is simply
        rescheduled onto the pilot — units are terminal once FAILED, so
        each retry is a *new* unit wrapping the same callable, walked
        through the full state model (and billed the same database round
        trips).  ``units`` is updated in place so the caller collects
        results positionally; exhausted retries leave the unit FAILED
        for the caller to surface.  Each failure goes through
        :func:`~repro.frameworks.faults.prepare_retry`.

        Returns
        -------
        TaskCounters
            The retry counts summed over ``units``.
        """
        policy = self.fault_policy or NO_RETRIES
        counts = [TaskCounters() for _ in units]
        while True:
            failed = [(i, unit) for i, unit in enumerate(units)
                      if unit.state == UnitState.FAILED
                      and prepare_retry(unit.exception, policy, self.store, counts[i])]
            if not failed:
                break
            redo = []
            for i, unit in failed:
                desc = unit.description
                redo.append(ComputeUnitDescription(
                    callable_=desc.callable_, args=desc.args, kwargs=desc.kwargs,
                    cores=desc.cores, name=f"{desc.name}~retry{counts[i].tasks_retried}"))
            replacements = self.unit_manager.submit_units(redo)
            self.unit_manager.wait_units(replacements)
            for (i, _), replacement in zip(failed, replacements):
                units[i] = replacement
        return TaskCounters.total(counts)

    def broadcast(self, value: Any) -> BroadcastHandle:
        """RP has no broadcast: data is staged to the shared filesystem.

        The returned handle carries the staged file's path in ``value`` is
        left untouched (tasks still receive the in-memory object since all
        substrates here share an address space), but the bytes are counted
        as *staged*, not broadcast.  On the shm plane the staging target
        is a shared-memory segment instead of a file: the handle carries
        the ref, only the ref's pickled bytes count as staged, and the
        array bytes are reported as shared.
        """
        ref = self._share_value(value)
        if ref is not None:
            path = f"shm://{ref.segment}"
            self._staged_refs[path] = ref
            handle = BroadcastHandle(value=ref, nbytes=serialized_size(ref),
                                     framework=self.name, bytes_shared=ref.nbytes)
            self.metrics.bytes_staged += handle.nbytes
            self.metrics.bytes_shared += ref.nbytes
            self.metrics.record_event("staged_file", path)
            return handle
        path = self.stage_data(value, label="broadcast")
        handle = BroadcastHandle(value=value, nbytes=nbytes_of(value), framework=self.name)
        self.metrics.bytes_staged += handle.nbytes
        self.metrics.record_event("staged_file", path)
        return handle

    # ------------------------------------------------------------------ #
    def stage_data(self, obj: Any, label: str = "data") -> str:
        """Stage ``obj`` for the units and return a locator for it.

        On the pickle plane this writes a pickle file to the shared
        scratch directory and returns its path (RP's file-staging
        pattern).  On the shm plane an array is registered in the shared
        store instead and an ``shm://<segment>`` locator is returned:
        only the ref's pickled size counts as staged data, the array
        bytes count as shared.
        """
        ref = self._share_value(obj)
        if ref is not None:
            path = f"shm://{ref.segment}"
            self._staged_refs[path] = ref
            self.metrics.bytes_staged += serialized_size(ref)
            self.metrics.bytes_shared += ref.nbytes
            return path
        if self._staging_dir is None:
            self._staging_dir = tempfile.mkdtemp(prefix="repro_pilot_")
            self._owns_staging_dir = True
        os.makedirs(self._staging_dir, exist_ok=True)
        path = os.path.join(self._staging_dir, f"{label}_{time.monotonic_ns()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(obj, fh)
        self.metrics.bytes_staged += os.path.getsize(path)
        return path

    def load_staged(self, path: str) -> Any:
        """Read an object previously staged by :meth:`stage_data`."""
        if path.startswith("shm://"):
            ref = self._staged_refs.get(path)
            if ref is None:
                raise KeyError(f"unknown shared-memory staging locator {path!r}")
            return ref.resolve()
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def close(self) -> None:
        """Cancel the pilot, close the session and drop a private staging directory."""
        self.pilot.cancel()
        self.session.close()
        if self._owns_staging_dir:
            shutil.rmtree(self._staging_dir, ignore_errors=True)
        super().close()
