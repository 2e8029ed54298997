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
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.engine import get_kernel_method
from ..analysis.hausdorff import (
    discrete_frechet,
    hausdorff,
    hausdorff_earlybreak,
    hausdorff_naive,
    hausdorff_windowed,
    window_minima,
)
from ..frameworks.base import TaskFramework
from ..frameworks.checkpoint import RunJournal, checkpointed_map, run_fingerprint
from ..frameworks.serialization import nbytes_of
from ..frameworks.shm import SharedMemoryStore, maybe_resolve, refs_nbytes
from ..trajectory.readers import read_trajectory
from ..trajectory.trajectory import TrajectoryEnsemble
from .partitioning import BlockTask, choose_group_size, two_dimensional_partition
from .results import DistanceMatrix, RunReport

__all__ = [
    "PSA_METRICS",
    "PSABlockTask",
    "PSAWindowTask",
    "psa_serial",
    "psa_block_key",
    "psa_window_key",
    "run_psa",
    "run_psa_windows",
    "make_psa_tasks",
]


def psa_block_key(task: PSABlockTask) -> str:
    """Stable journal key for a PSA block task (matrix-block granularity)."""
    return f"psa-{task.block.row_start}-{task.block.col_start}"


def psa_window_key(task: PSAWindowTask) -> str:
    """Stable journal key for a streamed PSA window-pair block task."""
    r0, r1 = task.row_window
    c0, c1 = task.col_window
    return (f"psaw-w{r0}-{r1}x{c0}-{c1}"
            f"-b{task.block.row_start}-{task.block.col_start}")


def _ensemble_fingerprint(ensemble, **params) -> str:
    """Content fingerprint of an ensemble plus run parameters.

    In-memory ensembles hash their position arrays; streaming ensembles
    are described by member metadata (paths, chunking, frame counts) so
    fingerprinting never materializes out-of-core data.  The engine-wide
    kernel method participates so a journal written under one kernel
    engine is rejected under another.
    """
    params.setdefault("kernel_method", get_kernel_method())
    if hasattr(ensemble, "window_payloads"):
        members = [
            (os.path.abspath(member.path), member.n_frames,
             member.n_atoms, member.frames_per_chunk)
            for member in ensemble.members
        ]
        return run_fingerprint(members=members,
                               labels=tuple(ensemble.labels), **params)
    return run_fingerprint(arrays=ensemble.as_arrays(),
                           labels=tuple(ensemble.labels), **params)


def hausdorff_earlybreak_reference(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Early-break Hausdorff pinned to the Python reference kernel.

    Kept as an explicit PSA metric so the figure ablations can report the
    reference-vs-vectorized kernel engine split by metric name (tasks carry
    metric *names*, so the choice survives pickling into workers).
    """
    return hausdorff_earlybreak(traj_a, traj_b, method="reference")


#: Metric name -> callable mapping two (n_frames, n_atoms, 3) arrays to a float.
PSA_METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "hausdorff": hausdorff,
    "hausdorff_naive": hausdorff_naive,
    "hausdorff_earlybreak": hausdorff_earlybreak,
    "hausdorff_earlybreak_reference": hausdorff_earlybreak_reference,
    "hausdorff_windowed": hausdorff_windowed,
    "frechet": discrete_frechet,
}


@dataclass
class PSABlockTask:
    """One PSA task: compare the row block against the column block.

    The task is self-contained — it carries either the position arrays
    themselves or the file paths to read them from (``from_files=True``),
    matching the paper's setup where "each task reads its respective input
    files in parallel".
    """

    block: BlockTask
    row_data: List
    col_data: List
    metric: str = "hausdorff"
    from_files: bool = False

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
    """Run one PSA block task and return its distance block.

    Diagonal blocks only compute the upper triangle (the distance is
    symmetric and ``d(i, i) = 0``).

    The block is returned as a ``(n_pairs, 3)`` float64 array of
    ``(i, j, distance)`` triples rather than a list of tuples: a single
    contiguous array is what the result-direction data plane ships as
    one :class:`~repro.frameworks.shm.BlockRef`, so on the shm plane a
    worker's distance block returns to the driver zero-copy instead of
    through pickle.  Iterating the rows still yields unpackable
    ``i, j, d`` triples, so consumers that loop are unaffected.
    """
    metric_fn = PSA_METRICS[task.metric]
    rows = [_load(item, task.from_files) for item in task.row_data]
    cols = rows if task.block.diagonal else [
        _load(item, task.from_files) for item in task.col_data
    ]
    out: List[Tuple[int, int, float]] = []
    for local_i, traj_i in enumerate(rows):
        global_i = task.block.row_start + local_i
        for local_j, traj_j in enumerate(cols):
            global_j = task.block.col_start + local_j
            if task.block.diagonal and global_j <= global_i:
                continue
            out.append((global_i, global_j, float(metric_fn(traj_i, traj_j))))
    if not out:
        return np.empty((0, 3), dtype=np.float64)
    return np.asarray(out, dtype=np.float64)


def make_psa_tasks(ensemble: TrajectoryEnsemble, *, group_size: int | None = None,
                   n_tasks: int | None = None, metric: str = "hausdorff",
                   paths: Sequence[str] | None = None,
                   store: SharedMemoryStore | None = None,
                   window: Tuple[int, int] | None = None) -> List[PSABlockTask]:
    """Build the PSA task list for an ensemble (Algorithm 2 decomposition).

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
        restricted to those frames of every member.  On a
        :class:`~repro.trajectory.streaming.StreamingEnsemble` the window
        resolves through chunk ingestion (only the chunks the window
        touches enter memory); on an in-memory ensemble the members are
        sliced.  Not supported together with ``paths``.
    """
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
    blocks = two_dimensional_partition(n, group_size)
    from_files = paths is not None
    if from_files and len(paths) != n:
        raise ValueError("paths must have one entry per trajectory")
    if from_files and window is not None:
        raise ValueError("window is not supported with path-based tasks")
    if from_files:
        source: Sequence = paths
    elif hasattr(ensemble, "window_payloads"):
        # streaming ensemble: windows resolve as chunk refs (with a
        # store) or window-sized arrays (without) — never whole members
        start, stop = window if window is not None else (0, ensemble.n_frames)
        source = ensemble.window_payloads(store, start, stop)
    else:
        source = ensemble.as_arrays()
        if window is not None:
            start, stop = window
            source = [array[start:stop] for array in source]
        if store is not None:
            source = [store.put(array) for array in source]
    tasks = []
    for block in blocks:
        row_data = [source[i] for i in range(block.row_start, block.row_stop)]
        col_data = [source[j] for j in range(block.col_start, block.col_stop)]
        tasks.append(PSABlockTask(block=block, row_data=row_data, col_data=col_data,
                                  metric=metric, from_files=from_files))
    return tasks


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


def run_psa(ensemble: TrajectoryEnsemble, framework: TaskFramework,
            *, group_size: int | None = None, n_tasks: int | None = None,
            metric: str = "hausdorff",
            paths: Sequence[str] | None = None,
            data_plane: str | None = None,
            window: Tuple[int, int] | None = None,
            checkpoint_dir: str | None = None) -> Tuple[DistanceMatrix, RunReport]:
    """Task-parallel PSA on any framework substrate.

    Returns the symmetric distance matrix and a :class:`RunReport` with the
    framework's metrics (task counts, wall time, overhead).

    ``checkpoint_dir`` enables checkpoint/restart: completed distance
    blocks are journalled there as they finish, and a re-run with the
    same ensemble, parameters, plane, substrate and kernel engine
    replays them (``tasks_restored`` / ``restore_seconds`` in the
    report) and submits only the missing blocks.  A journal written
    under different inputs raises
    :class:`~repro.frameworks.checkpoint.StaleJournal` instead of being
    silently reused.

    ``window=(start, stop)`` restricts the analysis to a frame window of
    every member (any metric); on a
    :class:`~repro.trajectory.streaming.StreamingEnsemble` only the
    chunks the window touches are ingested.

    ``data_plane`` defaults to the framework's own plane; pass ``"shm"``
    to force zero-copy task payloads (each trajectory enters shared
    memory once, tasks carry refs) or ``"pickle"`` to force whole-array
    payloads, for this run only (see
    :meth:`~repro.frameworks.base.TaskFramework.run_plane`).

    On the shm plane the *result* direction rides the plane as well:
    each worker's distance block returns as a
    :class:`~repro.frameworks.shm.BlockRef` that the driver resolves
    zero-copy during assembly, and — when the store has a capacity —
    blocks past the watermark spill to disk and the report's
    ``bytes_spilled`` records how much.
    """
    with framework.run_plane(data_plane) as store:
        plane = framework.data_plane
        tasks = make_psa_tasks(ensemble, group_size=group_size, n_tasks=n_tasks,
                               metric=metric, paths=paths, store=store,
                               window=window)
        n = ensemble.n_trajectories
        start = time.perf_counter()
        journal = None
        if checkpoint_dir is not None:
            fingerprint = _ensemble_fingerprint(
                ensemble, algorithm="psa", metric=metric, data_plane=plane,
                substrate=framework.name, group_size=group_size,
                n_tasks_hint=n_tasks, window=window,
                paths=tuple(paths) if paths is not None else None)
            journal = RunJournal(checkpoint_dir, fingerprint).open()
        results = checkpointed_map(framework, execute_psa_block, tasks, journal,
                                   psa_block_key)
        wall = time.perf_counter() - start
        # assemble the symmetric matrix from the distance blocks; on the
        # shm plane each block is a zero-copy view of a result segment,
        # and the vectorized scatter below is the only copy made of it
        values = np.zeros((n, n), dtype=np.float64)
        for block in results:
            block = np.asarray(block, dtype=np.float64).reshape(-1, 3)
            if block.shape[0] == 0:
                continue
            ii = block[:, 0].astype(np.intp)
            jj = block[:, 1].astype(np.intp)
            values[ii, jj] = block[:, 2]
            values[jj, ii] = block[:, 2]
    matrix = DistanceMatrix(values, labels=ensemble.labels)
    metrics = framework.metrics
    if store is not None:
        metrics.bytes_shared = max(metrics.bytes_shared,
                                   sum(refs_nbytes(task) for task in tasks))
        metrics.bytes_spilled = max(metrics.bytes_spilled, store.bytes_spilled)
    report = RunReport(
        algorithm=f"psa[{metric}]",
        framework=framework.name,
        parameters={
            "n_trajectories": n,
            "n_frames": ensemble[0].n_frames,
            "n_atoms": ensemble[0].n_atoms,
            "n_tasks": len(tasks),
            "metric": metric,
            "data_plane": plane,
            "window": window,
        },
        wall_time_s=wall,
        n_tasks=len(tasks),
        metrics=metrics,
    )
    return matrix, report


@dataclass
class PSAWindowTask:
    """One streamed PSA task: a trajectory-pair block restricted to a window pair.

    The streamed decomposition adds a second axis to Algorithm 2: a task
    owns an ``n1 x n1`` block of trajectory pairs *and* one ordered pair
    of frame windows, and contributes the per-frame minimum squared
    distances of that window pair.  ``row_data`` / ``col_data`` carry the
    members' window payloads (chunk refs on the shm plane, window arrays
    on pickle) — never whole trajectories.
    """

    block: BlockTask
    row_data: List
    col_data: List
    row_window: Tuple[int, int]
    col_window: Tuple[int, int]

    @property
    def nbytes(self) -> int:
        """Approximate payload size shipped to the worker."""
        return nbytes_of(self.row_data) + nbytes_of(self.col_data)


def execute_psa_window(task: PSAWindowTask) -> np.ndarray:
    """Run one streamed PSA window task.

    Returns a ``(n_pairs, 6 + la + lb)`` float64 array whose rows are
    ``[i, j, row_start, la, col_start, lb, row_min_d2..., col_min_d2...]``
    — self-describing, so the driver can merge results regardless of
    completion order.  Squared distances come from
    :func:`repro.analysis.hausdorff.window_minima`, whose per-pair
    difference formula makes the merge bit-identical to a batch pass.
    """
    rows = [_load(item, False) for item in task.row_data]
    same_windows = task.block.diagonal and task.row_window == task.col_window
    cols = rows if same_windows else [_load(item, False) for item in task.col_data]
    r_start, r_stop = task.row_window
    c_start, c_stop = task.col_window
    la, lb = r_stop - r_start, c_stop - c_start
    out: List[np.ndarray] = []
    for local_i, win_a in enumerate(rows):
        global_i = task.block.row_start + local_i
        for local_j, win_b in enumerate(cols):
            global_j = task.block.col_start + local_j
            if task.block.diagonal and global_j <= global_i:
                continue
            row_min, col_min = window_minima(win_a, win_b)
            out.append(np.concatenate((
                [global_i, global_j, r_start, la, c_start, lb], row_min, col_min)))
    if not out:
        return np.empty((0, 6 + la + lb), dtype=np.float64)
    return np.asarray(out, dtype=np.float64)


def run_psa_windows(ensemble, framework: TaskFramework,
                    *, metric: str = "hausdorff_windowed",
                    window_frames: int | None = None,
                    group_size: int | None = None, n_tasks: int | None = None,
                    data_plane: str | None = None,
                    checkpoint_dir: str | None = None) -> Tuple[DistanceMatrix, RunReport]:
    """Streamed PSA: analyze frame windows as chunks arrive, merge minima.

    The incremental driver for out-of-core ensembles: windows are
    processed in arrival order, and when window ``w`` arrives one wave of
    tasks compares it against itself and every earlier window (both
    orders), so at no point does any member need to be resident beyond
    the chunks the current wave touches — the store's watermark is free
    to spill cold chunks between waves.  Per-frame minimum squared
    distances are merged across waves with ``np.minimum``; because
    :func:`~repro.analysis.hausdorff.window_minima` is partition
    independent, the final matrix is bit-identical to the batch
    ``metric="hausdorff_windowed"`` run regardless of the window size.

    Parameters
    ----------
    ensemble:
        A :class:`~repro.trajectory.streaming.StreamingEnsemble` (chunked
        ingest) or an in-memory ensemble (windows are slices).
    framework:
        The task framework to run on.
    metric:
        Must be ``"hausdorff_windowed"`` — the only registered metric
        whose kernel decomposes over frame windows ("frechet" couples
        windows through its DP recurrence, and the GEMM-based Hausdorff
        variants are not bitwise partition-stable).
    window_frames:
        Frames per window; defaults to the ensemble's chunk size
        (in-memory ensembles default to ceil(n_frames / 4)).
    group_size / n_tasks:
        Algorithm 2 trajectory-block decomposition, as in
        :func:`run_psa`.
    data_plane:
        Override the framework's data plane, as in :func:`run_psa`.
    checkpoint_dir:
        Optional journal directory for checkpoint/restart: each
        window-pair block result is journalled as it completes, and a
        resumed run replays finished blocks (all waves consult the same
        journal) and computes only the missing ones, as in
        :func:`run_psa`.

    Returns
    -------
    (DistanceMatrix, RunReport)
        The symmetric distance matrix (bit-identical to batch) and a
        report whose metrics accumulate over all waves —
        ``bytes_ingested`` / ``peak_resident_bytes`` record the
        out-of-core behaviour of the run.
    """
    if metric != "hausdorff_windowed":
        raise ValueError(
            f"streamed PSA requires metric='hausdorff_windowed' (got {metric!r}): "
            "it is the only metric whose kernel merges bit-identically over "
            "frame windows"
        )
    n = ensemble.n_trajectories
    if n < 2:
        raise ValueError("PSA needs at least two trajectories")
    n_atoms = ensemble.validate_consistent_atoms()
    if group_size is not None and n_tasks is not None:
        raise ValueError("give either group_size or n_tasks, not both")
    if group_size is None:
        group_size = choose_group_size(n, n_tasks) if n_tasks is not None else max(1, n // 8)
    blocks = two_dimensional_partition(n, group_size)

    streaming = hasattr(ensemble, "window_payloads")
    if streaming:
        windows = ensemble.windows(window_frames)
        n_frames = ensemble.n_frames
    else:
        n_frames = ensemble[0].n_frames
        size = window_frames or max(1, -(-n_frames // 4))
        windows = [(s, min(n_frames, s + size)) for s in range(0, n_frames, size)]
        arrays = ensemble.as_arrays()

    # running per-pair, per-frame minimum squared distances (driver-side
    # state: 2 * n_pairs * n_frames floats, independent of ensemble size)
    fwd = {}
    bwd = {}
    for i in range(n):
        for j in range(i + 1, n):
            fwd[(i, j)] = np.full(n_frames, np.inf)
            bwd[(i, j)] = np.full(n_frames, np.inf)

    totals = None
    waves = 0
    with framework.run_plane(data_plane) as store:
        plane = framework.data_plane

        def payloads(start: int, stop: int) -> List:
            if streaming:
                return ensemble.window_payloads(store, start, stop)
            return [array[start:stop] for array in arrays]

        journal = None
        if checkpoint_dir is not None:
            fingerprint = _ensemble_fingerprint(
                ensemble, algorithm="psa_stream", metric=metric, data_plane=plane,
                substrate=framework.name, group_size=group_size,
                window_frames=window_frames)
            journal = RunJournal(checkpoint_dir, fingerprint).open()

        start_t = time.perf_counter()
        for w, (w_start, w_stop) in enumerate(windows):
            pay_w = payloads(w_start, w_stop)
            wave_pairs = [((w_start, w_stop), pay_w, (w_start, w_stop), pay_w)]
            for v in range(w):
                v_start, v_stop = windows[v]
                pay_v = payloads(v_start, v_stop)
                wave_pairs.append(((v_start, v_stop), pay_v, (w_start, w_stop), pay_w))
                wave_pairs.append(((w_start, w_stop), pay_w, (v_start, v_stop), pay_v))
            tasks = [
                PSAWindowTask(
                    block=block,
                    row_data=[row_pay[i] for i in range(block.row_start, block.row_stop)],
                    col_data=[col_pay[j] for j in range(block.col_start, block.col_stop)],
                    row_window=row_win, col_window=col_win,
                )
                for (row_win, row_pay, col_win, col_pay) in wave_pairs
                for block in blocks
            ]
            results = checkpointed_map(framework, execute_psa_window, tasks, journal,
                                       psa_window_key)
            for result in results:
                result = np.asarray(result, dtype=np.float64)
                for row in result.reshape(result.shape[0], -1) if result.size else ():
                    gi, gj = int(row[0]), int(row[1])
                    r0, la = int(row[2]), int(row[3])
                    c0, lb = int(row[4]), int(row[5])
                    pair = (gi, gj)
                    fwd[pair][r0:r0 + la] = np.minimum(fwd[pair][r0:r0 + la],
                                                       row[6:6 + la])
                    bwd[pair][c0:c0 + lb] = np.minimum(bwd[pair][c0:c0 + lb],
                                                       row[6 + la:6 + la + lb])
            # map_tasks resets the framework metrics each call; fold this
            # wave into the running totals (spill/ingest counters mirror
            # the store's cumulative values, so merge() takes their max)
            totals = framework.metrics if totals is None else totals.merge(framework.metrics)
            waves += 1
        values = np.zeros((n, n), dtype=np.float64)
        for (i, j) in fwd:
            d = np.sqrt(max(fwd[(i, j)].max(), bwd[(i, j)].max()) / n_atoms)
            values[i, j] = values[j, i] = float(d)
    wall = time.perf_counter() - start_t
    matrix = DistanceMatrix(values, labels=ensemble.labels)
    report = RunReport(
        algorithm="psa_stream[hausdorff_windowed]",
        framework=framework.name,
        parameters={
            "n_trajectories": n,
            "n_frames": n_frames,
            "n_atoms": n_atoms,
            "n_windows": len(windows),
            "n_waves": waves,
            "n_blocks": len(blocks),
            "metric": metric,
            "data_plane": plane,
        },
        wall_time_s=wall,
        n_tasks=totals.tasks_submitted if totals is not None else 0,
        metrics=totals if totals is not None else framework.metrics,
    )
    return matrix, report
