"""High-level convenience API.

These are the functions a downstream user calls first: build a framework
by name, run PSA on an ensemble, run the Leaflet Finder on a membrane,
and compare frameworks/approaches on the same workload.

Every entry point accepts a ``data_plane`` option (``"pickle"`` or
``"shm"``); on the shm plane task payloads *and results* travel as
zero-copy shared-memory refs, and ``store_capacity_bytes`` bounds the
resident shared memory by spilling least-recently-used blocks to disk
— write-behind by default (``spill_async``), so evictions enqueue onto
a background writer instead of stalling the hot path (see
:mod:`repro.frameworks.shm` and ``docs/data_plane.md``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..frameworks import TaskFramework, make_framework
from ..trajectory.trajectory import TrajectoryEnsemble
from ..trajectory.universe import Universe
from .leaflet import LEAFLET_APPROACHES, run_leaflet_finder
from .psa import run_psa
from .results import DistanceMatrix, LeafletResult, RunReport

__all__ = [
    "psa",
    "stream_windows",
    "leaflet_finder",
    "compare_frameworks",
    "compare_leaflet_approaches",
]


def _resolve_framework(framework: str | TaskFramework, **kwargs) -> TaskFramework:
    """Return ``framework`` itself, or build one by name with ``kwargs``."""
    if isinstance(framework, TaskFramework):
        return framework
    return make_framework(framework, **kwargs)


def psa(ensemble: TrajectoryEnsemble, framework: str | TaskFramework = "dasklite",
        *, metric: str = "hausdorff", n_tasks: int | None = None,
        group_size: int | None = None, workers: int | None = None,
        executor: str = "threads",
        data_plane: str | None = None,
        store_capacity_bytes: int | None = None,
        spill_dir: str | None = None,
        spill_async: bool = True,
        spill_queue_depth: int = 4,
        fault_policy=None,
        faults=None,
        window: Tuple[int, int] | None = None,
        checkpoint_dir: str | None = None) -> Tuple[DistanceMatrix, RunReport]:
    """Run Path Similarity Analysis on an ensemble.

    Parameters
    ----------
    ensemble : TrajectoryEnsemble or StreamingEnsemble
        The trajectories to compare all-to-all.  A
        :class:`~repro.trajectory.streaming.StreamingEnsemble` keeps its
        members on disk; on the shm plane its chunks are ingested into
        the store and tasks carry zero-copy window refs.
    framework : str or TaskFramework, optional
        Framework name (``"spark"``, ``"dask"``, ``"pilot"``, ``"mpi"`` or
        their canonical sparklite/dasklite/pilot/mpilite spellings) or an
        already constructed :class:`TaskFramework`.
    metric : str, optional
        ``"hausdorff"`` (default), ``"hausdorff_earlybreak"``
        (blockwise early-break),
        ``"hausdorff_earlybreak_reference"`` (the literal per-pair scan,
        :func:`repro.analysis.reference.hausdorff_earlybreak`),
        ``"frechet"`` or ``"hausdorff_naive"``.
    n_tasks : int, optional
        Target task count; the 2-D block size is derived from it.
    group_size : int, optional
        Explicit block size (``n1`` of the paper's Algorithm 2);
        mutually exclusive with ``n_tasks``.
    workers : int, optional
        Worker count for the executor.
    executor : str, optional
        Physical executor kind (``"serial"``, ``"threads"``,
        ``"processes"``, ``"shm"``).
    data_plane : str, optional
        ``None`` (default) uses the framework's configured plane
        (``"pickle"`` when constructing by name).  ``"pickle"`` ships
        each task's trajectory blocks whole; ``"shm"`` registers every
        trajectory in shared memory once, tasks carry zero-copy refs,
        and distance blocks return through the same plane (see
        :mod:`repro.frameworks.shm`).  An explicit value overrides an
        already constructed framework's plane for this run.
    store_capacity_bytes : int, optional
        Watermark for the shm store when constructing a framework by
        name: resident segment bytes past it spill to memory-mapped
        files, so ensembles larger than ``/dev/shm`` still complete.
    spill_dir : str, optional
        Directory for the spill tier (private temporary directory when
        omitted).
    spill_async : bool, optional
        ``True`` (default) spills write-behind — evictions enqueue onto
        a spill-writer thread and the put path only stalls on
        backpressure; ``False`` writes spill files synchronously.  The
        report splits the cost into ``spill_wait_seconds`` vs
        ``spill_hidden_seconds``.
    spill_queue_depth : int, optional
        Write-behind queue bound before eviction applies backpressure.
    fault_policy : FaultPolicy, optional
        Resilience policy when constructing a framework by name: failed
        tasks are retried deterministically, dead pool workers are
        replaced and their in-flight tasks resubmitted, and lost data
        blocks are healed or re-computed; the report's ``tasks_retried``
        / ``tasks_lost`` / ``recovery_seconds`` metrics quantify the
        overhead (see :mod:`repro.frameworks.faults`).
    faults : FaultInjector or FaultSpec or sequence, optional
        Deterministic fault injection for chaos runs (testing only).
    window : tuple of (int, int), optional
        Restrict the analysis to frames ``[start, stop)`` of every
        member.  On a streaming ensemble only the chunks the window
        touches are ingested; on an in-memory ensemble the members are
        sliced.
    checkpoint_dir : str, optional
        Journal directory for checkpoint/restart: completed distance
        blocks persist there as they finish and a re-run with the same
        inputs resumes (``tasks_restored`` / ``restore_seconds`` in the
        report), recomputing only missing blocks.  A journal written
        under different inputs raises
        :class:`~repro.frameworks.checkpoint.StaleJournal`.

    Returns
    -------
    matrix : DistanceMatrix
        The symmetric trajectory-to-trajectory distance matrix.
    report : RunReport
        Timings, task counts and data-plane byte accounting.
    """
    created = isinstance(framework, str)
    fw = _resolve_framework(framework, executor=executor, workers=workers,
                            data_plane=data_plane or "pickle",
                            store_capacity_bytes=store_capacity_bytes,
                            spill_dir=spill_dir, spill_async=spill_async,
                            spill_queue_depth=spill_queue_depth,
                            fault_policy=fault_policy, faults=faults) \
        if created else framework
    try:
        return run_psa(ensemble, fw, metric=metric, n_tasks=n_tasks,
                       group_size=group_size, data_plane=data_plane,
                       window=window, checkpoint_dir=checkpoint_dir)
    finally:
        # a framework constructed here is closed here: the matrix and
        # report are plain copies, and closing releases the store's
        # shared-memory segments immediately instead of at exit
        if created:
            fw.close()


def stream_windows(source, framework: str | TaskFramework = "dasklite", *,
                   analysis: str = "psa",
                   metric: str = "hausdorff_windowed",
                   window_frames: int | None = None,
                   cutoff: float = 15.0,
                   n_tasks: int | None = None,
                   group_size: int | None = None,
                   workers: int | None = None,
                   executor: str = "threads",
                   data_plane: str | None = None,
                   store_capacity_bytes: int | None = None,
                   spill_dir: str | None = None,
                   spill_async: bool = True,
                   spill_queue_depth: int = 4,
                   fault_policy=None,
                   faults=None,
                   checkpoint_dir: str | None = None) -> Tuple[DistanceMatrix | LeafletResult, RunReport]:
    """Incrementally analyze a streamed input, window by window.

    The out-of-core driver: windows (defaulting to the source's chunk
    boundaries) are analyzed as their chunks arrive and per-window
    results are merged into the final answer — bit-identically to the
    corresponding batch run, while ``peak_resident_bytes`` stays bounded
    by the store watermark instead of the input size.

    Parameters
    ----------
    source : StreamingEnsemble or ChunkedPositions or TrajectoryEnsemble
        For ``analysis="psa"``: a
        :class:`~repro.trajectory.streaming.StreamingEnsemble` (or an
        in-memory ensemble, whose windows are slices).  For
        ``analysis="leaflet"``: a
        :class:`~repro.trajectory.streaming.ChunkedPositions` system.
    framework : str or TaskFramework, optional
        Framework name or an already constructed framework.
    analysis : str, optional
        ``"psa"`` (windowed Hausdorff over trajectory pairs, the
        default) or ``"leaflet"`` (incremental component merging over
        atom-chunk pairs).
    metric : str, optional
        PSA only.  Must be ``"hausdorff_windowed"`` — the one registered
        metric whose kernel merges bit-identically over frame windows.
    window_frames : int, optional
        PSA only: frames per window (default: the chunk size, or
        ``ceil(n_frames / 4)`` for an in-memory ensemble).
    cutoff : float, optional
        Leaflet only: neighbor cutoff in Angstrom.
    n_tasks / group_size : int, optional
        PSA trajectory-block decomposition (as in :func:`psa`).
    workers, executor, data_plane, store_capacity_bytes, spill_dir, \
spill_async, spill_queue_depth, fault_policy, faults :
        As in :func:`psa`, except ``data_plane`` defaults to ``"shm"``
        here: chunks ingest into the store and ride as zero-copy refs,
        and a ``store_capacity_bytes`` watermark spills cold chunks
        between waves.  Pass ``data_plane="pickle"`` explicitly to
        stream windows as serialized arrays instead.
    checkpoint_dir : str, optional
        Journal directory for checkpoint/restart (as in :func:`psa`);
        every wave consults the same journal, so a killed streaming run
        resumes from its last completed blocks.

    Returns
    -------
    result : DistanceMatrix or LeafletResult
        The merged analysis result (matches the batch run).
    report : RunReport
        Wave-accumulated metrics, including ``bytes_ingested`` and
        ``peak_resident_bytes``.
    """
    if analysis not in ("psa", "leaflet"):
        raise ValueError(f"unknown analysis {analysis!r}; choose 'psa' or 'leaflet'")
    created = isinstance(framework, str)
    # unlike psa()/leaflet(), streaming defaults to the shm plane: the
    # whole point is ingesting chunks into the store as shared blocks
    data_plane = data_plane or "shm"
    fw = _resolve_framework(framework, executor=executor, workers=workers,
                            data_plane=data_plane,
                            store_capacity_bytes=store_capacity_bytes,
                            spill_dir=spill_dir, spill_async=spill_async,
                            spill_queue_depth=spill_queue_depth,
                            fault_policy=fault_policy, faults=faults) \
        if created else framework
    try:
        if analysis == "psa":
            if window_frames is None:
                first_start, first_stop = source.windows()[0]
                window_frames = first_stop - first_start
            return run_psa(source, fw, metric=metric, window_frames=window_frames,
                           n_tasks=n_tasks, group_size=group_size,
                           data_plane=data_plane, checkpoint_dir=checkpoint_dir)
        return run_leaflet_finder(source, cutoff, fw, approach="parallel-cc",
                                  data_plane=data_plane, checkpoint_dir=checkpoint_dir)
    finally:
        # see psa(): frameworks constructed by name are closed here
        if created:
            fw.close()


def leaflet_finder(system, framework: str | TaskFramework = "dasklite", *,
                   selection: str = "name P", cutoff: float = 15.0,
                   approach: str = "tree-search", n_tasks: int = 16,
                   workers: int | None = None,
                   executor: str = "threads",
                   data_plane: str | None = None,
                   store_capacity_bytes: int | None = None,
                   spill_dir: str | None = None,
                   spill_async: bool = True,
                   spill_queue_depth: int = 4,
                   fault_policy=None,
                   faults=None,
                   checkpoint_dir: str | None = None) -> Tuple[LeafletResult, RunReport]:
    """Run the Leaflet Finder on a membrane system.

    Parameters
    ----------
    system : Universe or numpy.ndarray
        A :class:`~repro.trajectory.universe.Universe` (the
        ``selection`` is applied to pick the head-group atoms) or a raw
        ``(n_atoms, 3)`` position array.
    framework : str or TaskFramework, optional
        Framework name or an already constructed framework.
    selection : str, optional
        Atom selection applied when a universe is given.
    cutoff : float, optional
        Neighbor cutoff in Angstrom (the paper uses 15).
    approach : str, optional
        One of :data:`~repro.core.leaflet.LEAFLET_APPROACHES`.
    n_tasks : int, optional
        Number of map tasks.
    workers : int, optional
        Worker count for the executor.
    executor : str, optional
        Physical executor kind.
    data_plane : str, optional
        ``data_plane="shm"`` puts the system in shared memory once,
        hands tasks zero-copy chunk refs and returns edge lists /
        partial components through the same plane; ``None`` (default)
        uses the framework's configured plane, and an explicit value
        overrides an already constructed framework's plane for this run.
    store_capacity_bytes : int, optional
        Spill watermark for the shm store when constructing by name.
    spill_dir : str, optional
        Directory for the spill tier.
    spill_async : bool, optional
        Write-behind spilling (default ``True``; see :func:`psa`).
    spill_queue_depth : int, optional
        Write-behind queue bound before eviction applies backpressure.
    fault_policy : FaultPolicy, optional
        Resilience policy when constructing by name (see :func:`psa`).
    faults : FaultInjector or FaultSpec or sequence, optional
        Deterministic fault injection for chaos runs (testing only).
    checkpoint_dir : str, optional
        Journal directory for checkpoint/restart: map-phase block
        results persist there as they finish and a re-run with the same
        inputs resumes, recomputing only missing blocks (as in
        :func:`psa`).

    Returns
    -------
    result : LeafletResult
        The connected components (leaflets) of the neighbor graph.
    report : RunReport
        Timings, per-phase breakdown and data-plane byte accounting.
    """
    if isinstance(system, Universe):
        group = system.select_atoms(selection)
        if group.n_atoms == 0:
            raise ValueError(f"selection {selection!r} matched no atoms")
        positions = group.positions
    else:
        positions = np.asarray(system, dtype=np.float64)
    created = isinstance(framework, str)
    fw = _resolve_framework(framework, executor=executor, workers=workers,
                            data_plane=data_plane or "pickle",
                            store_capacity_bytes=store_capacity_bytes,
                            spill_dir=spill_dir, spill_async=spill_async,
                            spill_queue_depth=spill_queue_depth,
                            fault_policy=fault_policy, faults=faults) \
        if created else framework
    try:
        return run_leaflet_finder(positions, cutoff, fw, approach=approach,
                                  n_tasks=n_tasks, data_plane=data_plane,
                                  checkpoint_dir=checkpoint_dir)
    finally:
        # see psa(): frameworks constructed by name are closed here
        if created:
            fw.close()


def compare_frameworks(ensemble: TrajectoryEnsemble,
                       frameworks: Sequence[str] = ("sparklite", "dasklite", "pilot", "mpilite"),
                       *, metric: str = "hausdorff", n_tasks: int | None = None,
                       workers: int | None = None,
                       data_plane: str = "pickle") -> Dict[str, RunReport]:
    """Run the same PSA workload on several frameworks and collect reports.

    The returned reports are the raw material of the paper's Figure 4/5
    style comparisons; distance matrices are checked for agreement across
    frameworks (they must be identical up to floating-point noise) and the
    first framework's matrix is discarded after the check.

    Parameters
    ----------
    ensemble : TrajectoryEnsemble
        The workload.
    frameworks : sequence of str, optional
        Framework names to compare.
    metric : str, optional
        PSA metric.
    n_tasks : int, optional
        Target task count.
    workers : int, optional
        Worker count per framework.
    data_plane : str, optional
        Data plane every framework runs on.

    Returns
    -------
    dict of str to RunReport
        One report per framework name.
    """
    reports: Dict[str, RunReport] = {}
    reference = None
    for name in frameworks:
        fw = make_framework(name, executor="threads", workers=workers,
                            data_plane=data_plane)
        try:
            matrix, report = run_psa(ensemble, fw, metric=metric, n_tasks=n_tasks)
            if reference is None:
                reference = matrix.values
            elif not np.allclose(reference, matrix.values, atol=1e-9):
                raise AssertionError(
                    f"framework {name} produced a different distance matrix"
                )
            reports[name] = report
        finally:
            fw.close()
    return reports


def compare_leaflet_approaches(positions: np.ndarray, cutoff: float = 15.0,
                               framework: str | TaskFramework = "dasklite", *,
                               approaches: Sequence[str] | None = None,
                               n_tasks: int = 16,
                               workers: int | None = None) -> Dict[str, RunReport]:
    """Run every Leaflet Finder approach on the same system (Figure 7 rows).

    All approaches must agree on the two leaflet components; disagreement
    raises, since that would indicate an implementation bug rather than a
    performance difference.

    Parameters
    ----------
    positions : numpy.ndarray
        ``(n_atoms, 3)`` head-group positions.
    cutoff : float, optional
        Neighbor cutoff in Angstrom.
    framework : str or TaskFramework, optional
        Substrate to run every approach on.
    approaches : sequence of str, optional
        Approach names; defaults to all four.
    n_tasks : int, optional
        Number of map tasks per approach.
    workers : int, optional
        Worker count when constructing the framework by name.

    Returns
    -------
    dict of str to RunReport
        One report per approach name.
    """
    approaches = list(approaches or LEAFLET_APPROACHES)
    created = isinstance(framework, str)
    fw = _resolve_framework(framework, executor="threads", workers=workers) \
        if created else framework
    reports: Dict[str, RunReport] = {}
    reference_sizes = None
    try:
        for approach in approaches:
            result, report = run_leaflet_finder(positions, cutoff, fw,
                                                approach=approach, n_tasks=n_tasks)
            top_sizes = result.sizes[:2]
            if reference_sizes is None:
                reference_sizes = top_sizes
            elif top_sizes != reference_sizes:
                raise AssertionError(
                    f"approach {approach} found leaflet sizes {top_sizes}, "
                    f"expected {reference_sizes}"
                )
            reports[approach] = report
    finally:
        if created:
            fw.close()
    return reports
