"""Locality-aware task placement: block scoring and delay scheduling.

The paper's central measurement is that data movement, not compute,
dominates Python task frameworks.  The pooled process executors drove
that cost down with a shared-memory plane and a write-behind spill tier
— but placement stayed blind: a task whose input blocks spilled to disk
was handed to whichever worker freed up first, paying a cold file read
while the worker that still held those blocks memory-mapped sat idle.

This module is the placement brain the engine consults.  It is pure
bookkeeping over sets and byte counts — no processes, no clocks of its
own — so the scheduling policy is exactly unit-testable:

* :class:`TaskBlocks` describes what one task will resolve (the block
  names inside its payload, with their sizes);
* :class:`LocalityScheduler` scores pending tasks against a free lane's
  *resident set* (the block names that lane's worker process reported it
  holds mapped) and returns a :class:`Placement`.

The policy is classic delay scheduling: prefer the task whose spilled
bytes the lane already covers; a task affine to a *different* lane may
wait up to ``wait_s`` for that lane to free before any other lane is
allowed to steal it — affinity must never idle the pool.  Blocks that
are resident in shared memory are deliberately ignored by the scoring:
shm segments cost the same from every process on the node, so only the
``spilled`` tier — where resolution means a disk read unless the lane
already mapped the file — can make one placement cheaper than another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence

from .shm import BlockRef

__all__ = ["TaskBlocks", "Placement", "LocalityScheduler"]


@dataclass(frozen=True)
class TaskBlocks:
    """The blocks one task will resolve, as names with byte sizes.

    Parameters
    ----------
    index : int
        Position of the task in the submitted batch.
    names : frozenset of str
        Segment names of every :class:`~repro.frameworks.shm.BlockRef`
        in the task's payload.
    nbytes : mapping of str to int
        Bytes each named block contributes to this task.  Sub-refs
        slicing the same segment are collapsed to the largest view, so
        a block never weighs more than the file a cold resolve reads.
    """

    index: int
    names: frozenset
    nbytes: Mapping[str, int]

    @classmethod
    def from_refs(cls, index: int, refs: Sequence[BlockRef]) -> "TaskBlocks":
        """Build the block summary of one task from its payload refs.

        Parameters
        ----------
        index : int
            Task position in the submitted batch.
        refs : sequence of BlockRef
            The refs collected from the task's payload (see
            :func:`~repro.frameworks.shm.collect_refs`).

        Returns
        -------
        TaskBlocks
            Deduplicated name/size summary.
        """
        sizes: Dict[str, int] = {}
        for ref in refs:
            sizes[ref.segment] = max(sizes.get(ref.segment, 0), ref.nbytes)
        return cls(index=index, names=frozenset(sizes), nbytes=sizes)


@dataclass(frozen=True)
class Placement:
    """One scheduling decision: which task a free lane should run.

    Parameters
    ----------
    index : int
        The chosen task.
    lane : int
        The lane it was chosen for.
    local : bool
        Whether the lane's resident set covers every spilled block the
        task needs — the placement incurs no cold disk read.  Tasks
        with no spilled inputs are local by definition.
    bytes_avoided : int
        Spilled-block bytes the task would have read cold on an
        arbitrary worker but finds already mapped on this lane.
    missing : frozenset of str
        Spilled block names the lane does *not* hold — the refs worth
        prefetching at dispatch so the page cache warms while the task
        travels to the worker.
    """

    index: int
    lane: int
    local: bool
    bytes_avoided: int
    missing: frozenset


class LocalityScheduler:
    """Delay-scheduling placement over per-worker resident sets.

    For each free lane the engine asks :meth:`choose`, which ranks the
    pending tasks:

    1. a task whose spilled blocks the lane (partially) covers — the
       best-covered one wins, ties to queue order;
    2. a task with no spilled inputs at all — nothing to place for,
       run the oldest;
    3. a task whose spilled blocks *no* lane covers — someone must pay
       the first cold read, and an idle lane is the cheapest place;
    4. a task affine to a different lane: *held* for up to ``wait_s``
       (counted from the first time it was passed over) hoping that
       lane frees; past the bound the free lane steals it.

    When every pending task is in state 4 and none has waited out its
    bound, :meth:`choose` returns ``None`` and the lane stays idle for
    one engine wait round — the engine wakes every
    ``heartbeat_interval_s`` while locality placement is on, so holds
    are re-evaluated promptly.

    Parameters
    ----------
    tasks : sequence of TaskBlocks
        One entry per task in the batch (indexed by task index).
    wait_s : float
        Delay-scheduling bound (``FaultPolicy.locality_wait_s``).
    clock : callable, optional
        Monotonic time source (injectable for tests).
    """

    def __init__(self, tasks: Sequence[TaskBlocks], wait_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._tasks: Dict[int, TaskBlocks] = {t.index: t for t in tasks}
        self.wait_s = wait_s
        self._clock = clock
        self._held: Dict[int, float] = {}

    def names_for(self, index: int) -> frozenset:
        """Every block name task ``index`` resolves (all tiers)."""
        task = self._tasks.get(index)
        return task.names if task is not None else frozenset()

    def _covered(self, task: TaskBlocks, spill_names: frozenset,
                 resident: frozenset) -> int:
        """Bytes of ``task``'s spilled blocks found in ``resident``."""
        return sum(task.nbytes[name] for name in spill_names & resident)

    def choose(self, pending: Sequence[int], lane: int, resident: frozenset,
               others: Mapping[int, frozenset], spilled: frozenset,
               now: Optional[float] = None) -> Optional[Placement]:
        """Pick the task a free lane should run next, if any.

        Parameters
        ----------
        pending : sequence of int
            Task indices awaiting dispatch, in queue order.
        lane : int
            The free lane being filled.
        resident : frozenset of str
            Block names the lane's worker holds resident (its last
            report, unioned with the blocks of tasks dispatched to it
            since).
        others : mapping of int to frozenset
            Resident sets of the *other* live lanes, keyed by lane id.
        spilled : frozenset of str
            Block names currently demoted to the disk tier (see
            :meth:`~repro.frameworks.shm.SharedMemoryStore.spilled_names`).
        now : float, optional
            Timestamp for hold bookkeeping; defaults to the scheduler's
            clock.

        Returns
        -------
        Placement or None
            The decision, or ``None`` when every pending task is worth
            holding for a busier lane with better affinity.
        """
        if now is None:
            now = self._clock()
        best: Optional[Placement] = None
        best_covered = 0
        fallback: Optional[Placement] = None  # case 2/3: nothing gained here
        stolen: Optional[Placement] = None    # case 4 past its wait bound
        for index in pending:
            task = self._tasks.get(index)
            if task is None:
                # a task with no block summary has nothing to score;
                # treat it like a spill-free task (case 2)
                if fallback is None:
                    fallback = Placement(index, lane, True, 0, frozenset())
                continue
            spill_names = task.names & spilled
            if not spill_names:
                if fallback is None:
                    fallback = Placement(index, lane, True, 0, frozenset())
                self._held.pop(index, None)
                continue
            covered = self._covered(task, spill_names, resident)
            if covered > best_covered:
                spill_bytes = sum(task.nbytes[name] for name in spill_names)
                best = Placement(index, lane, covered >= spill_bytes, covered,
                                 spill_names - resident)
                best_covered = covered
                continue
            if covered > 0:
                continue  # partially covered by an earlier, better task
            elsewhere = any(spill_names & other for other in others.values())
            if not elsewhere:
                # cold everywhere: the first toucher seeds the affinity
                if fallback is None:
                    fallback = Placement(index, lane, False, 0, spill_names)
                self._held.pop(index, None)
                continue
            first_held = self._held.setdefault(index, now)
            if now - first_held >= self.wait_s:
                if stolen is None:
                    stolen = Placement(index, lane, False, 0,
                                       spill_names - resident)
        placement = best or fallback or stolen
        if placement is None:
            return None  # every pending task is held within its wait bound
        self._held.pop(placement.index, None)
        return placement
