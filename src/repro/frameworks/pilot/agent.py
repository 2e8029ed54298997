"""The pilot agent: scheduler + executor running inside the allocation.

Once a pilot is active on the compute nodes, its *agent* repeatedly pulls
schedulable Compute Units from the coordination database, assigns them to
free cores, executes them, and writes results/state transitions back.
This module implements that loop synchronously (the unit manager drives
it), which keeps tests deterministic while preserving the cost structure:
every batch pulled and every state pushed is a database round trip.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict

from ..counters import TaskCounters
from ..executors import ExecutorBase, SerialExecutor
from .database import StateDatabase
from .units import ComputeUnit, UnitState

__all__ = ["AgentStats", "PilotAgent"]


@dataclass
class AgentStats(TaskCounters):
    """Counters describing one agent's activity.

    Besides its own four fields, it carries every per-task counter of
    :class:`~repro.frameworks.counters.TaskCounters`, accumulated over
    every batch the agent drained (the executor itself only reports its
    most recent ``map_tasks`` call).
    """

    units_executed: int = 0
    batches_pulled: int = 0
    execution_time_s: float = 0.0
    scheduling_time_s: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict view for metric events."""
        return asdict(self)


class PilotAgent:
    """Executes Compute Units pulled from the database on local resources.

    Parameters
    ----------
    database:
        The shared coordination database.
    executor:
        Physical executor for unit payloads (serial/threads/processes).
    cores:
        Number of cores the agent manages; batches of at most ``cores``
        units run concurrently (the agent-level scheduler).
    """

    def __init__(self, database: StateDatabase, executor: ExecutorBase | None = None,
                 cores: int = 1) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.database = database
        self.executor = executor or SerialExecutor()
        self.cores = cores
        self.stats = AgentStats()

    # ------------------------------------------------------------------ #
    def drain(self, units: Dict[str, ComputeUnit]) -> None:
        """Execute every pending unit registered in the database.

        ``units`` maps uid -> live ComputeUnit objects (the client-side
        view); the agent mirrors RP by reading *descriptions* of
        schedulable units from the database, executing them, and writing
        state + results back, batch by batch.
        """
        while True:
            sched_start = time.perf_counter()
            batch_docs = self.database.pull("state", UnitState.PENDING_INPUT_STAGING.value,
                                            limit=self.cores)
            self.stats.scheduling_time_s += time.perf_counter() - sched_start
            if not batch_docs:
                break
            self.stats.batches_pulled += 1
            batch_units = [units[doc["uid"]] for doc in batch_docs]
            # state transition: scheduling (bulk write back to the database)
            for unit in batch_units:
                unit.advance(UnitState.AGENT_SCHEDULING)
            self.database.update_many(
                {u.uid: {"state": UnitState.AGENT_SCHEDULING.value} for u in batch_units}
            )
            for unit in batch_units:
                unit.advance(UnitState.EXECUTING)
            self.database.update_many(
                {u.uid: {"state": UnitState.EXECUTING.value} for u in batch_units}
            )
            # execute the batch on the local cores
            exec_start = time.perf_counter()
            outcomes = self.executor.map_tasks(_run_unit, batch_units)
            self.stats.execution_time_s += time.perf_counter() - exec_start
            # the executor's counters are per-call; roll them up so
            # early batches survive the later ones
            self.stats.add(self.executor.totals())
            final_states: Dict[str, dict] = {}
            for unit, (ok, payload) in zip(batch_units, outcomes):
                if ok:
                    unit.result = payload
                    unit.advance(UnitState.DONE)
                    final_states[unit.uid] = {"state": UnitState.DONE.value}
                else:
                    unit.exception = payload
                    unit.advance(UnitState.FAILED)
                    final_states[unit.uid] = {
                        "state": UnitState.FAILED.value,
                        "error": repr(payload),
                    }
                self.stats.units_executed += 1
            self.database.update_many(final_states)


def _run_unit(unit: ComputeUnit) -> tuple:
    """Execute one unit's payload, capturing exceptions instead of raising."""
    try:
        return True, unit.execute_payload()
    except Exception as exc:  # noqa: BLE001 - unit failures must not kill the agent
        return False, exc
