"""The per-task run counters, declared once.

Every number a task contributes to a run's report — the data-plane
byte split, the spill stall split, retries, speculation and read-ahead —
is a field of :class:`TaskCounters`.  The records that carry those
numbers are built from it rather than re-declaring them:

* :class:`~repro.frameworks.executors.TaskTiming` (one task) and the
  process-pool engine's per-task state, which is the same record;
* ``ExecutorBase.totals()`` (one ``map_tasks`` call);
* :class:`~repro.frameworks.pilot.agent.AgentStats` (every batch an
  agent drained), to which pilot adds its unit rescheduling;
* the per-rank totals of mpilite's ranks;
* :class:`~repro.frameworks.base.RunMetrics` (one operation).

Each field carries a one-line doc and a combine rule in its metadata:

``sum``
    Events: every source counts distinct occurrences, so sources and
    operations add.
``max``
    A crossing that the framework estimates driver-side and a process
    executor measures as it happens: within one operation both describe
    the same bytes, so the larger wins; separate operations add.
``mirror``
    A mirror of a store's cumulative counter: within an operation the
    larger reading wins, and so it does across operations, because a
    later reading already includes the earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Sequence, Tuple

__all__ = ["SUM", "MAX", "MIRROR", "TaskCounters", "COUNTERS"]

SUM, MAX, MIRROR = "sum", "max", "mirror"


def _counter(rule: str, doc: str, default: Any = 0) -> Any:
    """A dataclass field declaring one counter with its combine rule.

    Parameters
    ----------
    rule : str
        :data:`SUM`, :data:`MAX` or :data:`MIRROR`.
    doc : str
        One-line description of what the counter counts.
    default : int or float, optional
        Zero of the counter's type (``0`` or ``0.0``).

    Returns
    -------
    dataclasses.Field
        The field, with ``rule`` and ``doc`` in its metadata.
    """
    return field(default=default, metadata={"rule": rule, "doc": doc})


@dataclass(kw_only=True)
class TaskCounters:
    """Every per-task counter, zero by default (see the module docstring).

    Byte and spill counters stay 0 for in-process executors, where no
    boundary is crossed and the framework's store is driven directly.
    """

    bytes_pickled: int = _counter(
        MAX, "Task-payload bytes serialized across a process boundary.")
    bytes_shared: int = _counter(
        MAX, "Array bytes tasks accessed through the shared-memory plane instead.")
    bytes_results_pickled: int = _counter(
        MAX, "Result-payload bytes serialized back (on the shm plane, just the refs).")
    bytes_shared_results: int = _counter(
        MAX, "Array bytes tasks returned through shared segments instead.")
    spill_wait_seconds: float = _counter(
        MIRROR, "Seconds spill eviction stalled the hot path while staging payloads.", 0.0)
    spill_hidden_seconds: float = _counter(
        MIRROR, "Spill-writer seconds spent in the background during the same windows.", 0.0)
    tasks_retried: int = _counter(
        SUM, "Re-executions; on one task's record, also its current attempt number.")
    tasks_lost: int = _counter(
        SUM, "Failures that were worker deaths or lost blocks.")
    recovery_seconds: float = _counter(
        SUM, "Driver time spent recovering: backoff, block healing, pool rebuilds.", 0.0)
    tasks_speculated: int = _counter(
        SUM, "Duplicate attempts launched against stragglers.")
    speculation_wins: int = _counter(
        SUM, "Duplicates whose result beat the original attempt.")
    prefetch_hints_dropped: int = _counter(
        SUM, "Read-ahead hints dropped on a full prefetch queue.")

    @classmethod
    def total(cls, records: Sequence["TaskCounters"]) -> "TaskCounters":
        """Every counter summed over ``records``."""
        return cls(**{name: sum(getattr(r, name) for r in records) for name in _NAMES})

    def add(self, other: "TaskCounters") -> None:
        """Add every counter of ``other`` into this record in place."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _NAMES:
            mine[name] += theirs[name]

    def since(self, earlier: "TaskCounters") -> "TaskCounters":
        """The counts accumulated after ``earlier`` was copied from this record."""
        return TaskCounters(**{name: getattr(self, name) - getattr(earlier, name)
                               for name in _NAMES})


#: The counter fields, in declaration order.
COUNTERS: Tuple = fields(TaskCounters)
_NAMES = tuple(f.name for f in COUNTERS)
