"""Path Similarity Analysis (PSA) over trajectory ensembles.

The algorithm (paper Algorithm 1 + 2): compute the pairwise Hausdorff
distance between every pair of trajectories in an ensemble, parallelized
with a 2-D partitioning of the output matrix — each task owns an
``n1 x n1`` block of trajectory pairs, computes them serially, and the
driver assembles the symmetric ``N x N`` matrix.

PSA is embarrassingly parallel, so on every substrate it is expressed the
same way: a bag of independent block tasks submitted through
``framework.map_tasks`` (task API for RADICAL-Pilot and Dask, a map-only
RDD job for Spark, a statically partitioned SPMD loop for MPI) —
exactly the implementations section 4.2 describes.

:func:`run_psa` is the one driver, for in-memory and streamed input
alike.  A run covers its frames in one or more windows and submits one
wave of block tasks per window: wave ``w`` compares window ``w`` with
itself and with every earlier window.  A plain run is one window and so
one wave of exactly the bag above.  A run of several windows
(``window_frames=``) lets an out-of-core ensemble be analysed as its
chunks arrive; its tasks return per-frame minima that the driver folds
across waves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import reference
from ..analysis.hausdorff import (
    discrete_frechet,
    hausdorff,
    hausdorff_earlybreak,
    hausdorff_naive,
    hausdorff_windowed,
    window_minima,
)
from ..frameworks.base import TaskFramework
from ..frameworks.checkpoint import RunJournal, run_fingerprint
from ..frameworks.serialization import nbytes_of
from ..frameworks.shm import SharedMemoryStore, maybe_resolve
from ..trajectory.readers import read_trajectory
from ..trajectory.trajectory import TrajectoryEnsemble
from .partitioning import BlockTask, choose_group_size, two_dimensional_partition
from .results import DistanceMatrix, RunReport
from .waves import run_waves

__all__ = [
    "PSA_METRICS",
    "PSABlockTask",
    "execute_psa_block",
    "psa_serial",
    "psa_block_key",
    "run_psa",
    "make_psa_tasks",
]

Window = Tuple[int, int]


def psa_block_key(task: PSABlockTask) -> str:
    """Stable journal key for a PSA block task (matrix-block granularity).

    A task of a multi-window run adds its window pair to the key.
    """
    key = f"psa-{task.block.row_start}-{task.block.col_start}"
    if task.row_window is not None:
        (r0, r1), (c0, c1) = task.row_window, task.col_window
        key += f"-w{r0}-{r1}x{c0}-{c1}"
    return key


def _ensemble_fingerprint(ensemble, **params) -> str:
    """Fingerprint of an ensemble's identity plus run parameters.

    The ensemble supplies its own identity: member digests in memory,
    member file metadata when streamed, so fingerprinting never
    materializes out-of-core data.
    """
    return run_fingerprint(members=ensemble.identity(),
                           labels=tuple(ensemble.labels), **params)


#: Metric name -> callable mapping two (n_frames, n_atoms, 3) arrays to a float.
PSA_METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "hausdorff": hausdorff,
    "hausdorff_naive": hausdorff_naive,
    "hausdorff_earlybreak": hausdorff_earlybreak,
    "hausdorff_earlybreak_reference": reference.hausdorff_earlybreak,
    "hausdorff_windowed": hausdorff_windowed,
    "frechet": discrete_frechet,
}


@dataclass
class PSABlockTask:
    """One PSA task: compare the row block against the column block.

    The task is self-contained — it carries either the position arrays
    themselves (or shm refs to them) or the file paths to read them from
    (``from_files=True``), matching the paper's setup where "each task
    reads its respective input files in parallel".

    In a run of several frame windows the task also owns one ordered pair
    of windows (``row_window``, ``col_window``): its payloads hold only
    those frames, and it returns per-frame minima for the driver to fold
    instead of finished distances.
    """

    block: BlockTask
    row_data: List
    col_data: List
    metric: str = "hausdorff"
    from_files: bool = False
    row_window: Window | None = None
    col_window: Window | None = None

    @property
    def nbytes(self) -> int:
        """Approximate payload size shipped to the worker."""
        return nbytes_of(self.row_data) + nbytes_of(self.col_data)


def _load(item, from_files: bool) -> np.ndarray:
    if from_files:
        return read_trajectory(item).as_array()
    if isinstance(item, (list, tuple)):
        # a streamed frame window: one ref (or array) per source chunk;
        # a single-chunk window stays zero-copy, spanning windows are
        # concatenated worker-side (the only copy the window ever makes)
        parts = [np.asarray(maybe_resolve(part), dtype=np.float64) for part in item]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    # shm data plane: the item is a BlockRef; rehydrate as a zero-copy view
    item = maybe_resolve(item)
    return np.asarray(item, dtype=np.float64)


def execute_psa_block(task: PSABlockTask) -> np.ndarray:
    """Run one PSA block task and return its result rows.

    Diagonal blocks only compute the upper triangle (the distance is
    symmetric and ``d(i, i) = 0``).

    A task without windows returns a ``(n_pairs, 3)`` float64 array of
    ``(i, j, distance)`` triples rather than a list of tuples: a single
    contiguous array is what the result-direction data plane ships as
    one :class:`~repro.frameworks.shm.BlockRef`, so on the shm plane a
    worker's distance block returns to the driver zero-copy instead of
    through pickle.  Iterating the rows still yields unpackable
    ``i, j, d`` triples, so consumers that loop are unaffected.

    A task with windows returns ``(n_pairs, 6 + la + lb)`` rows
    ``[i, j, row_start, la, col_start, lb, row_min_d2..., col_min_d2...]``
    — self-describing, so the driver can fold them in any completion
    order.  Squared distances come from
    :func:`repro.analysis.hausdorff.window_minima`, whose per-pair
    difference formula makes the fold bit-identical to a one-window run.

    A one-member diagonal block has no pair: it returns its empty result
    without loading (on a spill tier, without re-reading) any payload.
    """
    windowed = task.row_window is not None
    if windowed:
        (r0, r1), (c0, c1) = task.row_window, task.col_window
        head = [r0, r1 - r0, c0, c1 - c0]
        width = 6 + (r1 - r0) + (c1 - c0)
    else:
        metric_fn = PSA_METRICS[task.metric]
        width = 3
    if task.block.diagonal and task.block.row_stop - task.block.row_start < 2:
        return np.empty((0, width), dtype=np.float64)
    rows = [_load(item, task.from_files) for item in task.row_data]
    same = task.block.diagonal and task.row_window == task.col_window
    cols = rows if same else [_load(item, task.from_files) for item in task.col_data]
    out: List = []
    for local_i, traj_i in enumerate(rows):
        global_i = task.block.row_start + local_i
        for local_j, traj_j in enumerate(cols):
            global_j = task.block.col_start + local_j
            if task.block.diagonal and global_j <= global_i:
                continue
            if windowed:
                row_min, col_min = window_minima(traj_i, traj_j)
                out.append(np.concatenate(([global_i, global_j, *head], row_min, col_min)))
            else:
                out.append((global_i, global_j, float(metric_fn(traj_i, traj_j))))
    if not out:
        return np.empty((0, width), dtype=np.float64)
    return np.asarray(out, dtype=np.float64)


def _partition(ensemble, metric: str, group_size: int | None, n_tasks: int | None,
               paths: Sequence[str] | None, window: Window | None) -> List[BlockTask]:
    """Validate a PSA request and return its Algorithm 2 blocks."""
    if metric not in PSA_METRICS:
        raise ValueError(f"unknown PSA metric {metric!r}; choose from {sorted(PSA_METRICS)}")
    n = ensemble.n_trajectories
    if n < 2:
        raise ValueError("PSA needs at least two trajectories")
    ensemble.validate_consistent_atoms()
    if group_size is not None and n_tasks is not None:
        raise ValueError("give either group_size or n_tasks, not both")
    if group_size is None:
        group_size = choose_group_size(n, n_tasks) if n_tasks is not None else max(1, n // 8)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if paths is not None and len(paths) != n:
        raise ValueError("paths must have one entry per trajectory")
    if paths is not None and window is not None:
        raise ValueError("window is not supported with path-based tasks")
    return two_dimensional_partition(n, group_size)


def _payloads(ensemble, paths: Sequence[str] | None,
              store: SharedMemoryStore | None, window: Window | None) -> List:
    """Per-member payloads of one frame window (``None``: whole members)."""
    if paths is not None:
        return list(paths)
    start, stop = window or (0, None)
    return ensemble.window_payloads(store, start, stop)


def _block_tasks(blocks: List[BlockTask], rows: List, cols: List, metric: str,
                 from_files: bool = False,
                 windows: Tuple[Window, Window] | None = None) -> List[PSABlockTask]:
    """One task per block over per-member row and column payloads."""
    row_window, col_window = windows or (None, None)
    return [PSABlockTask(block=block,
                         row_data=rows[block.row_start:block.row_stop],
                         col_data=cols[block.col_start:block.col_stop],
                         metric=metric, from_files=from_files,
                         row_window=row_window, col_window=col_window)
            for block in blocks]


def make_psa_tasks(ensemble: TrajectoryEnsemble, *, group_size: int | None = None,
                   n_tasks: int | None = None, metric: str = "hausdorff",
                   paths: Sequence[str] | None = None,
                   store: SharedMemoryStore | None = None,
                   window: Window | None = None) -> List[PSABlockTask]:
    """Build the PSA task list of one frame window (Algorithm 2 decomposition).

    Parameters
    ----------
    group_size:
        ``n1`` of Algorithm 2; mutually exclusive with ``n_tasks``.
    n_tasks:
        Desired task count; the group size is derived from it.  Defaults
        to one trajectory pair block per ensemble member when neither is
        given.
    metric:
        One of :data:`PSA_METRICS`.
    paths:
        Optional per-trajectory file paths; when given, tasks carry paths
        and read the trajectories inside the worker (the paper's I/O
        pattern).
    store:
        Shared-memory store for the shm data plane.  Each trajectory is
        registered exactly once and the tasks carry
        :class:`~repro.frameworks.shm.BlockRef` handles, so the 2-D block
        decomposition — which replicates every trajectory into ~2·N/n1
        task payloads — ships refs instead of array copies.
    window:
        Optional ``(start, stop)`` frame window; the analysis is
        restricted to those frames of every member, resolved by the
        ensemble's ``window_payloads`` (on a
        :class:`~repro.trajectory.streaming.StreamingEnsemble` only the
        chunks the window touches enter memory).  Not supported together
        with ``paths``.
    """
    blocks = _partition(ensemble, metric, group_size, n_tasks, paths, window)
    source = _payloads(ensemble, paths, store, window)
    return _block_tasks(blocks, source, source, metric, from_files=paths is not None)


def psa_serial(ensemble: TrajectoryEnsemble, metric: str = "hausdorff") -> DistanceMatrix:
    """Reference serial PSA (no framework): the executable specification."""
    if metric not in PSA_METRICS:
        raise ValueError(f"unknown PSA metric {metric!r}")
    metric_fn = PSA_METRICS[metric]
    arrays = ensemble.as_arrays()
    n = len(arrays)
    if n < 2:
        raise ValueError("PSA needs at least two trajectories")
    values = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(metric_fn(arrays[i], arrays[j]))
            values[i, j] = values[j, i] = d
    return DistanceMatrix(values, labels=ensemble.labels)


def _scatter(values: np.ndarray, block: np.ndarray) -> None:
    """Write a block's ``(i, j, distance)`` triples into the symmetric matrix."""
    block = block.reshape(-1, 3)
    if block.shape[0] == 0:
        return
    ii = block[:, 0].astype(np.intp)
    jj = block[:, 1].astype(np.intp)
    values[ii, jj] = block[:, 2]
    values[jj, ii] = block[:, 2]


def _fold(fwd: Dict, bwd: Dict, block: np.ndarray) -> None:
    """Fold a windowed block's per-frame minima into the running minima."""
    for row in block.reshape(block.shape[0], -1) if block.size else ():
        pair = (int(row[0]), int(row[1]))
        r0, la = int(row[2]), int(row[3])
        c0, lb = int(row[4]), int(row[5])
        fwd[pair][r0:r0 + la] = np.minimum(fwd[pair][r0:r0 + la], row[6:6 + la])
        bwd[pair][c0:c0 + lb] = np.minimum(bwd[pair][c0:c0 + lb], row[6 + la:6 + la + lb])


def run_psa(ensemble: TrajectoryEnsemble, framework: TaskFramework,
            *, group_size: int | None = None, n_tasks: int | None = None,
            metric: str = "hausdorff",
            paths: Sequence[str] | None = None,
            window: Window | None = None,
            window_frames: int | None = None,
            checkpoint_dir: str | None = None) -> Tuple[DistanceMatrix, RunReport]:
    """Task-parallel PSA on any framework substrate.

    Parameters
    ----------
    ensemble : TrajectoryEnsemble or StreamingEnsemble
        The input: in memory, or chunk files
        (:class:`~repro.trajectory.streaming.StreamingEnsemble`) whose
        frames are ingested window by window.
    framework : TaskFramework
        The substrate to run on.  Its plane and store, fixed when it was
        built, are the run's: on the shm plane each trajectory enters
        the framework's store once and tasks carry refs, the *result*
        direction rides the plane as well, and with a store capacity
        blocks past the watermark spill to disk (``bytes_spilled`` in
        the report).
    group_size, n_tasks : int, optional
        Algorithm 2 trajectory-block decomposition (see
        :func:`make_psa_tasks`).
    metric : str, optional
        One of :data:`PSA_METRICS`.
    paths : sequence of str, optional
        Per-trajectory files that the tasks read themselves (the paper's
        I/O pattern); not combinable with ``window``/``window_frames``.
    window : tuple of int, optional
        ``(start, stop)``: analyse only those frames of every member, in
        one window (any metric).  A window out of any member's bounds
        raises :class:`IndexError`.
    window_frames : int, optional
        Split the frames into windows of this many frames and run one
        wave per window, in arrival order: wave ``w`` compares window
        ``w`` with itself and every earlier window (both orders), so no
        member needs to be resident beyond the chunks the current wave
        touches and the store is free to spill cold chunks between
        waves.  Requires ``metric="hausdorff_windowed"``, the one metric
        whose kernel folds bit-identically over frame windows
        ("frechet" couples windows through its DP recurrence, and the
        GEMM-based Hausdorff variants are not bitwise
        partition-stable).  The matrix equals the one-window run's bit
        for bit, whatever the window size.
    checkpoint_dir : str, optional
        Enables checkpoint/restart: completed blocks are journalled there
        as they finish, and a re-run with the same ensemble, parameters,
        plane and substrate replays them
        (``tasks_restored`` / ``restore_seconds`` in the report; every
        wave consults the same journal) and submits only the missing
        blocks.  A journal written under different inputs raises
        :class:`~repro.frameworks.checkpoint.StaleJournal` instead of
        being silently reused.

    Returns
    -------
    (DistanceMatrix, RunReport)
        The symmetric distance matrix and a report whose metrics add up
        over all waves.  ``n_tasks`` counts every task of the run,
        restored ones included; ``wall_time_s`` runs from the first
        dispatch to the assembled matrix; ``n_windows`` / ``n_waves``
        are 1 for a one-window run.
    """
    if window_frames is not None:
        if metric != "hausdorff_windowed":
            raise ValueError(
                f"windowed PSA requires metric='hausdorff_windowed' (got {metric!r}): "
                "it is the only metric whose kernel merges bit-identically over "
                "frame windows"
            )
        if window is not None or paths is not None:
            raise ValueError("window_frames cannot be combined with window or paths")
    blocks = _partition(ensemble, metric, group_size, n_tasks, paths, window)
    n_atoms = ensemble[0].n_atoms
    windows = [window] if window_frames is None else ensemble.windows(window_frames)
    fold = len(windows) > 1
    n = ensemble.n_trajectories
    values = np.zeros((n, n), dtype=np.float64)
    if fold:
        # running per-pair, per-frame minimum squared distances (driver-side
        # state: 2 * n_pairs * n_frames floats, independent of ensemble size)
        n_frames = ensemble.n_frames
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        fwd = {pair: np.full(n_frames, np.inf) for pair in pairs}
        bwd = {pair: np.full(n_frames, np.inf) for pair in pairs}

    plane = framework.data_plane
    store = framework.store if plane == "shm" else None
    journal = None
    if checkpoint_dir is not None:
        fingerprint = _ensemble_fingerprint(
            ensemble, algorithm="psa", metric=metric, data_plane=plane,
            substrate=framework.name, group_size=group_size,
            n_tasks_hint=n_tasks, window=window, window_frames=window_frames,
            paths=tuple(paths) if paths is not None else None)
        journal = RunJournal(checkpoint_dir, fingerprint).open()

    def waves():
        for w, win_w in enumerate(windows):
            pay_w = _payloads(ensemble, paths, store, win_w)
            wave = [(win_w, pay_w, win_w, pay_w)]
            for win_v in windows[:w]:
                pay_v = _payloads(ensemble, paths, store, win_v)
                wave += [(win_v, pay_v, win_w, pay_w), (win_w, pay_w, win_v, pay_v)]
            yield [task
                   for row_win, row_pay, col_win, col_pay in wave
                   for task in _block_tasks(blocks, row_pay, col_pay, metric,
                                            from_files=paths is not None,
                                            windows=(row_win, col_win) if fold else None)]

    def fold_wave(results):
        for block in results:
            block = np.asarray(block, dtype=np.float64)
            if fold:
                _fold(fwd, bwd, block)
            else:
                _scatter(values, block)

    run = run_waves(framework, execute_psa_block, psa_block_key, waves(), fold_wave,
                    journal=journal)
    if fold:
        for (i, j) in pairs:
            d = np.sqrt(max(fwd[(i, j)].max(), bwd[(i, j)].max()) / n_atoms)
            values[i, j] = values[j, i] = float(d)
    wall = time.perf_counter() - run.started
    report = RunReport(
        algorithm=f"psa[{metric}]",
        framework=framework.name,
        parameters={
            "n_trajectories": n,
            "n_frames": ensemble[0].n_frames,
            "n_atoms": n_atoms,
            "n_tasks": run.n_tasks,
            "n_blocks": len(blocks),
            "n_windows": len(windows),
            "n_waves": run.n_waves,
            "metric": metric,
            "data_plane": plane,
            "window": window,
        },
        wall_time_s=wall,
        n_tasks=run.n_tasks,
        metrics=run.metrics,
    )
    return DistanceMatrix(values, labels=ensemble.labels), report
