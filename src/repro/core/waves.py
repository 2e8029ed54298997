"""The wave loop shared by the PSA and Leaflet Finder drivers.

A run of either analysis is a sequence of waves: each wave is one bag of
independent block tasks, dispatched with one ``map_tasks`` call, whose
results the driver folds into its running answer before the next wave's
payloads are built.  An in-memory run is one wave; a streamed run is one
wave per window or chunk, so that only the data the current wave
touches needs to be resident.  :func:`run_waves` is that loop; a driver
supplies the waves and the fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List

from ..frameworks.base import RunMetrics, TaskFramework
from ..frameworks.checkpoint import RunJournal, checkpointed_map
from ..frameworks.shm import SharedMemoryStore, refs_nbytes

__all__ = ["WaveRun", "run_waves"]


@dataclass
class WaveRun:
    """What a finished wave loop hands back to its driver.

    Attributes
    ----------
    metrics : RunMetrics
        The framework metrics of every wave, combined.
    n_tasks : int
        Every task of the run, journal-restored ones included.
    n_waves : int
        Number of waves dispatched.
    started : float
        ``time.perf_counter()`` at the first dispatch.
    map_s : float
        Time spent inside dispatch, summed over waves.
    """

    metrics: RunMetrics
    n_tasks: int
    n_waves: int
    started: float
    map_s: float


def run_waves(framework: TaskFramework, fn: Callable[[Any], Any],
              key_for: Callable[[Any], str], waves: Iterable[List[Any]],
              fold: Callable[[List[Any]], None], *,
              journal: RunJournal | None,
              store: SharedMemoryStore | None) -> WaveRun:
    """Dispatch each wave of tasks and fold its results, in order.

    Parameters
    ----------
    framework : TaskFramework
        The substrate; its metrics are reset by every dispatch, so each
        wave's are combined into the returned totals.
    fn, key_for : callable
        The task function and its journal key (module level, as they
        cross process boundaries).
    waves : iterable of list
        The task lists, one per wave.  A generator builds each wave only
        after the previous one is folded.
    fold : callable
        Takes one wave's results, in task order.  They are the driver's
        own heap objects on every executor and plane (a process lane's
        result arrays are copied out of their segments on receipt), so
        the fold may keep them.
    journal : RunJournal or None
        Checkpoint journal that every wave restores from and records to.
    store : SharedMemoryStore or None
        The run's store on the shm plane.

    Returns
    -------
    WaveRun
        Combined metrics, task and wave counts, and dispatch timings.
    """
    totals = None
    n_tasks = n_waves = 0
    started = None
    map_s = 0.0
    for tasks in waves:
        start = time.perf_counter()
        started = started or start
        results = checkpointed_map(framework, fn, tasks, journal, key_for)
        map_s += time.perf_counter() - start
        fold(results)
        metrics = framework.metrics
        if store is not None and not metrics.bytes_shared:
            # an executor that ships payloads itself (pilot's agents)
            # counts only the arrays it shares newly; the refs in the
            # tasks went through the plane as well
            metrics.bytes_shared = sum(refs_nbytes(task) for task in tasks)
        # spill and ingest counters mirror the store's cumulative values,
        # so merge() keeps the larger reading
        totals = metrics if totals is None else totals.merge(metrics)
        n_tasks += len(tasks)
        n_waves += 1
    if store is not None:
        totals.bytes_spilled = max(totals.bytes_spilled, store.bytes_spilled)
    return WaveRun(totals, n_tasks, n_waves, started, map_s)
