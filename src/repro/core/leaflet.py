"""Leaflet Finder: the four architectural approaches of the paper.

The Leaflet Finder (Algorithm 3) assigns lipid head-group particles to the
two leaflets of a bilayer in two stages: (a) build a graph connecting
particles closer than a cutoff, (b) take the connected components of that
graph.  Section 4.3 of the paper evaluates four ways of parallelizing it
(Table 2); all four are implemented here on top of the uniform
:class:`~repro.frameworks.base.TaskFramework` surface so that any of the
substrates (sparklite, dasklite, pilot, mpilite) can execute any approach:

=====================  ============  ==============================  =======================
approach               partitioning  map phase                        shuffle / reduce
=====================  ============  ==============================  =======================
``broadcast-1d``       1-D           pairwise distance vs broadcast   edge list, O(E) -> driver CC
``task-2d``            2-D           pairwise distance on block pair  edge list, O(E) -> driver CC
``parallel-cc``        2-D           pairwise distance + partial CC   partial components, O(n) -> merge
``tree-search``        2-D           BallTree query + partial CC      partial components, O(n) -> merge
=====================  ============  ==============================  =======================

Every function returns ``(LeafletResult, RunReport)``; the report records
wall time, broadcast volume, shuffle volume (bytes returned by map tasks)
and the per-phase timings the paper's Figures 7-9 are built from.

On the shm data plane the map outputs (edge lists, partial components)
ride the zero-copy result plane: tasks return
:class:`~repro.frameworks.shm.BlockRef` handles and the framework's
``map_tasks`` resolves them to read-only views of shared segments before
the reduce phase runs, so the driver-side concatenation / component
merge below never unpickles an edge list.  The report's
``bytes_shared_results`` vs ``bytes_results_pickled`` split quantifies
the saving.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..analysis.engine import get_kernel_method
from ..analysis.graph import connected_components, merge_component_sets
from ..analysis.neighbors import BallTree, GridNeighborSearch, radius_edges
from ..analysis.pairwise import edges_from_block
from ..frameworks.base import TaskFramework
from ..frameworks.checkpoint import RunJournal, checkpointed_map, run_fingerprint
from ..frameworks.serialization import nbytes_of
from ..frameworks.shm import BlockRef, SharedMemoryStore, maybe_resolve
from .partitioning import BlockTask, choose_group_size, one_dimensional_partition, two_dimensional_partition
from .results import LeafletResult, RunReport

__all__ = [
    "LEAFLET_APPROACHES",
    "leaflet_serial",
    "leaflet_broadcast_1d",
    "leaflet_task_2d",
    "leaflet_parallel_cc",
    "leaflet_tree_search",
    "leaflet_task_key",
    "run_leaflet_finder",
    "run_leaflet_stream",
    "LeafletFinder",
]


def _validate_inputs(positions: np.ndarray, cutoff: float) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (n_atoms, 3)")
    if positions.shape[0] < 1:
        raise ValueError("positions must contain at least one atom")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return positions


# --------------------------------------------------------------------------- #
# serial reference (Algorithm 3 as written)
# --------------------------------------------------------------------------- #
def leaflet_serial(positions: np.ndarray, cutoff: float,
                   method: str = "balltree") -> LeafletResult:
    """Serial Leaflet Finder: the executable specification of Algorithm 3.

    ``method`` selects the edge-discovery kernel: ``"balltree"``,
    ``"grid"`` or ``"brute"`` (pairwise distances).
    """
    positions = _validate_inputs(positions, cutoff)
    n = positions.shape[0]
    # the kernel engine's vectorized edge assembly for every method
    edges = radius_edges(positions, cutoff, method=method)
    components = connected_components(edges, n)
    return LeafletResult(components, n_atoms=n, n_edges=edges.shape[0])


# --------------------------------------------------------------------------- #
# map-task payloads (module level so they are picklable)
# --------------------------------------------------------------------------- #
@dataclass
class _ChunkVsAllTask:
    """Approach 1 task: one 1-D chunk of atoms against the broadcast system."""

    start: int
    stop: int
    chunk: np.ndarray
    all_positions: np.ndarray
    cutoff: float

    def run(self) -> np.ndarray:
        # chunk/all_positions may be shared-memory refs; the pairwise
        # kernel resolves them to zero-copy views
        edges = edges_from_block(self.chunk, self.all_positions, self.cutoff,
                                 offset_a=self.start, offset_b=0)
        # keep i < j so each undirected edge is reported exactly once
        return edges[edges[:, 0] < edges[:, 1]]


@dataclass
class _BlockPairTask:
    """Approach 2/3 task: a 2-D block of the atom x atom matrix."""

    block: BlockTask
    rows: np.ndarray
    cols: np.ndarray
    cutoff: float
    partial_components: bool = False

    def run(self):
        if self.block.diagonal:
            edges = edges_from_block(self.rows, self.rows, self.cutoff,
                                     offset_a=self.block.row_start,
                                     offset_b=self.block.col_start,
                                     exclude_self=True)
        else:
            edges = edges_from_block(self.rows, self.cols, self.cutoff,
                                     offset_a=self.block.row_start,
                                     offset_b=self.block.col_start)
        if not self.partial_components:
            return edges
        return _partial_components_from_edges(edges)


@dataclass
class _TreeBlockTask:
    """Approach 4 task: tree-based edge discovery on a 2-D block."""

    block: BlockTask
    rows: np.ndarray
    cols: np.ndarray
    cutoff: float
    method: str = "balltree"

    def run(self):
        # build the tree over the column block, query with the row block;
        # complexity drops from O(|rows| * |cols|) to O(|cols| log |cols| +
        # |rows| log |cols|), the speedup the paper reports for large systems
        rows = maybe_resolve(self.rows)
        cols = maybe_resolve(self.cols)
        if self.method == "balltree":
            searcher = BallTree(cols)
        elif self.method == "grid":
            searcher = GridNeighborSearch(cols, self.cutoff)
        else:
            raise ValueError(f"unknown tree method {self.method!r}")
        # flat (query, point) pairs straight from the batched traversal;
        # the global edge array is two vectorized offsets plus a filter
        local_i, local_j = searcher.query_radius_pairs(rows, self.cutoff)
        global_i = local_i + self.block.row_start
        global_j = local_j + self.block.col_start
        if self.block.diagonal:
            keep = global_j > global_i
            global_i = global_i[keep]
            global_j = global_j[keep]
        if global_i.size:
            edges = np.column_stack([global_i, global_j])
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        return _partial_components_from_edges(edges)


def _partial_components_from_edges(edges: np.ndarray) -> List[np.ndarray]:
    """Connected components of a task's local edge set, as global-id arrays."""
    if edges.size == 0:
        return []
    # compact the node ids in one unique pass; the inverse *is* the
    # relabeled edge array
    nodes, local_edges = np.unique(edges, return_inverse=True)
    local_edges = local_edges.reshape(edges.shape).astype(np.int64, copy=False)
    local_components = connected_components(local_edges, len(nodes),
                                            include_singletons=False)
    return [nodes[c] for c in local_components]


def _run_task(task) -> object:
    """Trampoline passed to ``framework.map_tasks``."""
    return task.run()


def leaflet_task_key(task) -> str:
    """Stable journal key for a leaflet map task (block granularity)."""
    if isinstance(task, _ChunkVsAllTask):
        return f"chunk-{task.start}-{task.stop}"
    if isinstance(task, _TreeBlockTask):
        return f"tree-{task.block.row_start}-{task.block.col_start}"
    return (f"pair-{task.block.row_start}-{task.block.col_start}"
            f"-{int(task.partial_components)}")


def _map_leaflet_tasks(framework: TaskFramework, tasks: List) -> List:
    """Dispatch a leaflet map phase, journalling results when a run journal
    is active (attached by :func:`run_leaflet_finder` /
    :func:`run_leaflet_stream` for the duration of the run)."""
    return checkpointed_map(framework, _run_task, tasks,
                            getattr(framework, "_active_journal", None),
                            leaflet_task_key)


# --------------------------------------------------------------------------- #
# the four approaches
# --------------------------------------------------------------------------- #
def _make_report(approach: str, framework: TaskFramework, positions: np.ndarray,
                 cutoff: float, n_tasks: int, wall: float, phases: Dict[str, float],
                 bytes_broadcast: int, bytes_shuffled: int,
                 n_edges: int | None) -> RunReport:
    metrics = framework.metrics
    metrics.bytes_broadcast = max(metrics.bytes_broadcast, bytes_broadcast)
    metrics.bytes_shuffled += bytes_shuffled
    for label, value in phases.items():
        metrics.record_event(label, value)
    return RunReport(
        algorithm=f"leaflet_finder[{approach}]",
        framework=framework.name,
        parameters={
            "n_atoms": int(positions.shape[0]),
            "cutoff": cutoff,
            "n_tasks": n_tasks,
            "n_edges": n_edges,
            "data_plane": getattr(framework, "data_plane", "pickle"),
            **{f"phase_{k}": v for k, v in phases.items()},
        },
        wall_time_s=wall,
        n_tasks=n_tasks,
        metrics=metrics,
    )


def leaflet_broadcast_1d(positions: np.ndarray, cutoff: float,
                         framework: TaskFramework,
                         n_tasks: int = 16) -> Tuple[LeafletResult, RunReport]:
    """Approach 1: broadcast the full system, 1-D partition the atoms.

    Every task compares its contiguous chunk of atoms against the whole
    (broadcast) system; the edge lists are gathered on the driver which
    runs the connected-components pass.  Scales poorly with system size
    because the broadcast volume is O(n) per node — the limitation the
    paper demonstrates in Figure 8.
    """
    positions = _validate_inputs(positions, cutoff)
    n = positions.shape[0]
    start_all = time.perf_counter()
    bcast_start = time.perf_counter()
    handle = framework.broadcast(positions)
    broadcast_time = time.perf_counter() - bcast_start
    bytes_broadcast = handle.nbytes

    ranges = one_dimensional_partition(n, n_tasks)
    payload = handle.value
    if isinstance(payload, BlockRef):
        # shm plane: chunks are offset sub-refs of the broadcast segment,
        # so neither the chunk nor the full system is copied per task
        tasks = [_ChunkVsAllTask(start, stop, payload.slice_rows(start, stop),
                                 payload, cutoff)
                 for start, stop in ranges]
    else:
        tasks = [_ChunkVsAllTask(start, stop, positions[start:stop], payload, cutoff)
                 for start, stop in ranges]
    map_start = time.perf_counter()
    edge_lists = _map_leaflet_tasks(framework, tasks)
    map_time = time.perf_counter() - map_start

    bytes_shuffled = sum(nbytes_of(e) for e in edge_lists)
    reduce_start = time.perf_counter()
    edges = (np.concatenate([e for e in edge_lists if e.size], axis=0)
             if any(e.size for e in edge_lists) else np.empty((0, 2), dtype=np.int64))
    components = connected_components(edges, n)
    reduce_time = time.perf_counter() - reduce_start
    wall = time.perf_counter() - start_all

    result = LeafletResult(components, n_atoms=n, n_edges=edges.shape[0])
    report = _make_report("broadcast-1d", framework, positions, cutoff, len(tasks),
                          wall, {"broadcast_s": broadcast_time, "map_s": map_time,
                                 "reduce_s": reduce_time},
                          bytes_broadcast, bytes_shuffled, edges.shape[0])
    return result, report


def _position_slicer(positions: np.ndarray, framework: TaskFramework):
    """Row-chunk accessor for the framework's data plane.

    On the pickle plane chunks are array slices that pickle into every
    task payload; on the shm plane the whole system enters the store once
    and chunks are offset sub-refs (zero bytes copied or pickled).
    """
    if getattr(framework, "data_plane", "pickle") == "shm":
        store: SharedMemoryStore | None = getattr(framework, "store", None)
        if store is not None:
            ref = store.put(positions)
            return ref.slice_rows
    return lambda start, stop: positions[start:stop]


def _make_block_tasks(positions: np.ndarray, cutoff: float, n_tasks: int,
                      partial_components: bool,
                      framework: TaskFramework | None = None) -> List[_BlockPairTask]:
    n = positions.shape[0]
    chunk = choose_group_size(n, n_tasks)
    blocks = two_dimensional_partition(n, chunk)
    slice_rows = (_position_slicer(positions, framework) if framework is not None
                  else lambda start, stop: positions[start:stop])
    return [
        _BlockPairTask(block=b,
                       rows=slice_rows(b.row_start, b.row_stop),
                       cols=slice_rows(b.col_start, b.col_stop),
                       cutoff=cutoff,
                       partial_components=partial_components)
        for b in blocks
    ]


def leaflet_task_2d(positions: np.ndarray, cutoff: float,
                    framework: TaskFramework,
                    n_tasks: int = 16) -> Tuple[LeafletResult, RunReport]:
    """Approach 2: no broadcast; 2-D pre-partitioned blocks via the task API.

    Each task receives only the two position chunks of its block, computes
    the block's edges with pairwise distances, and the driver gathers the
    edge lists (O(E) shuffle) before running connected components.
    """
    positions = _validate_inputs(positions, cutoff)
    n = positions.shape[0]
    start_all = time.perf_counter()
    tasks = _make_block_tasks(positions, cutoff, n_tasks, partial_components=False,
                              framework=framework)
    map_start = time.perf_counter()
    edge_lists = _map_leaflet_tasks(framework, tasks)
    map_time = time.perf_counter() - map_start
    bytes_shuffled = sum(nbytes_of(e) for e in edge_lists)
    reduce_start = time.perf_counter()
    edges = (np.concatenate([e for e in edge_lists if e.size], axis=0)
             if any(e.size for e in edge_lists) else np.empty((0, 2), dtype=np.int64))
    components = connected_components(edges, n)
    reduce_time = time.perf_counter() - reduce_start
    wall = time.perf_counter() - start_all
    result = LeafletResult(components, n_atoms=n, n_edges=edges.shape[0])
    report = _make_report("task-2d", framework, positions, cutoff, len(tasks), wall,
                          {"map_s": map_time, "reduce_s": reduce_time},
                          0, bytes_shuffled, edges.shape[0])
    return result, report


def leaflet_parallel_cc(positions: np.ndarray, cutoff: float,
                        framework: TaskFramework,
                        n_tasks: int = 16) -> Tuple[LeafletResult, RunReport]:
    """Approach 3: 2-D blocks with partial connected components in the map phase.

    Each task reduces its edges to partial components before returning, so
    the shuffle shrinks from O(E) to O(n); the driver-side reduce joins
    partial components that share an atom.  This is the refinement the
    paper credits with a ~20% runtime improvement and a >50% shuffle-volume
    reduction for Spark and Dask.
    """
    positions = _validate_inputs(positions, cutoff)
    n = positions.shape[0]
    start_all = time.perf_counter()
    tasks = _make_block_tasks(positions, cutoff, n_tasks, partial_components=True,
                              framework=framework)
    map_start = time.perf_counter()
    partials = _map_leaflet_tasks(framework, tasks)
    map_time = time.perf_counter() - map_start
    bytes_shuffled = sum(nbytes_of(p) for p in partials)
    reduce_start = time.perf_counter()
    merged = merge_component_sets(partials)
    components = _with_singletons(merged, n)
    reduce_time = time.perf_counter() - reduce_start
    wall = time.perf_counter() - start_all
    result = LeafletResult(components, n_atoms=n, n_edges=None)
    report = _make_report("parallel-cc", framework, positions, cutoff, len(tasks),
                          wall, {"map_s": map_time, "reduce_s": reduce_time},
                          0, bytes_shuffled, None)
    return result, report


def leaflet_tree_search(positions: np.ndarray, cutoff: float,
                        framework: TaskFramework,
                        n_tasks: int = 16,
                        method: str = "balltree") -> Tuple[LeafletResult, RunReport]:
    """Approach 4: tree-based edge discovery plus parallel connected components.

    Identical to approach 3 except that each task replaces the pairwise
    ``cdist`` with a BallTree (or uniform-grid) fixed-radius query, cutting
    the per-block complexity from O(b^2) to O(b log b) and the memory
    footprint from a dense distance block to the neighbor lists — which is
    what let the paper scale to the 4M-atom system without increasing the
    task count.
    """
    positions = _validate_inputs(positions, cutoff)
    n = positions.shape[0]
    start_all = time.perf_counter()
    chunk = choose_group_size(n, n_tasks)
    blocks = two_dimensional_partition(n, chunk)
    slice_rows = _position_slicer(positions, framework)
    tasks = [
        _TreeBlockTask(block=b,
                       rows=slice_rows(b.row_start, b.row_stop),
                       cols=slice_rows(b.col_start, b.col_stop),
                       cutoff=cutoff, method=method)
        for b in blocks
    ]
    map_start = time.perf_counter()
    partials = _map_leaflet_tasks(framework, tasks)
    map_time = time.perf_counter() - map_start
    bytes_shuffled = sum(nbytes_of(p) for p in partials)
    reduce_start = time.perf_counter()
    merged = merge_component_sets(partials)
    components = _with_singletons(merged, n)
    reduce_time = time.perf_counter() - reduce_start
    wall = time.perf_counter() - start_all
    result = LeafletResult(components, n_atoms=n, n_edges=None)
    report = _make_report("tree-search", framework, positions, cutoff, len(tasks),
                          wall, {"map_s": map_time, "reduce_s": reduce_time},
                          0, bytes_shuffled, None)
    return result, report


def _with_singletons(components: List[np.ndarray], n_atoms: int) -> List[np.ndarray]:
    """Append single-atom components for atoms not covered by any component."""
    covered = np.zeros(n_atoms, dtype=bool)
    for comp in components:
        covered[comp] = True
    singles = [np.array([i], dtype=np.int64) for i in np.flatnonzero(~covered)]
    return list(components) + singles


#: approach name -> implementation
LEAFLET_APPROACHES: Dict[str, Callable] = {
    "broadcast-1d": leaflet_broadcast_1d,
    "task-2d": leaflet_task_2d,
    "parallel-cc": leaflet_parallel_cc,
    "tree-search": leaflet_tree_search,
}


def run_leaflet_finder(positions: np.ndarray, cutoff: float,
                       framework: TaskFramework, *,
                       approach: str = "tree-search",
                       n_tasks: int = 16,
                       data_plane: str | None = None,
                       checkpoint_dir: str | None = None,
                       **kwargs) -> Tuple[LeafletResult, RunReport]:
    """Run the Leaflet Finder with the named architectural approach.

    ``data_plane`` defaults to the framework's configured plane; passing
    ``"pickle"`` or ``"shm"`` overrides it for this run only (see
    :meth:`~repro.frameworks.base.TaskFramework.run_plane`).

    ``checkpoint_dir`` enables checkpoint/restart: every map-phase block
    result (edge list or partial-component set) is journalled as it
    completes, and a re-run with the same positions, parameters, plane,
    substrate and kernel engine replays finished blocks
    (``tasks_restored`` in the report) and computes only the missing
    ones.  A journal written under different inputs raises
    :class:`~repro.frameworks.checkpoint.StaleJournal`.
    """
    if approach not in LEAFLET_APPROACHES:
        raise ValueError(
            f"unknown approach {approach!r}; choose from {sorted(LEAFLET_APPROACHES)}"
        )
    impl = LEAFLET_APPROACHES[approach]
    with framework.run_plane(data_plane):
        journal = None
        if checkpoint_dir is not None:
            fingerprint = run_fingerprint(
                arrays=[np.asarray(positions, dtype=np.float64)],
                algorithm="leaflet_finder", approach=approach, cutoff=float(cutoff),
                n_tasks=n_tasks, data_plane=framework.data_plane,
                substrate=framework.name, kernel_method=get_kernel_method(),
                extras=tuple(sorted((k, repr(v)) for k, v in kwargs.items())))
            journal = RunJournal(checkpoint_dir, fingerprint).open()
        framework._active_journal = journal
        try:
            return impl(positions, cutoff, framework, n_tasks=n_tasks, **kwargs)
        finally:
            framework._active_journal = None


def run_leaflet_stream(chunked, cutoff: float, framework: TaskFramework, *,
                       data_plane: str | None = None,
                       checkpoint_dir: str | None = None) -> Tuple[LeafletResult, RunReport]:
    """Streamed Leaflet Finder over a chunk-file-backed system.

    The incremental counterpart of :func:`leaflet_parallel_cc` for
    systems that arrive as atom-row chunks
    (:class:`~repro.trajectory.streaming.ChunkedPositions`): when chunk
    ``w`` arrives, one wave of :class:`_BlockPairTask` work compares it
    against itself and every earlier chunk, and the wave's partial
    components are folded into the running component state with
    :func:`~repro.analysis.graph.merge_component_sets` — component
    merging is order independent, so the final leaflets are identical to
    a batch run over the materialized system.  On the shm plane chunks
    ingest into the framework's store
    (:meth:`~repro.frameworks.shm.SharedMemoryStore.ingest`) and tasks
    carry zero-copy refs; cold chunks spill between waves, so the
    resident footprint is bounded by the store watermark, not the system
    size.

    Parameters
    ----------
    chunked : ChunkedPositions
        The chunk-file-backed ``(n_atoms, 3)`` system.
    cutoff : float
        Neighbor cutoff in Angstrom.
    framework : TaskFramework
        Substrate to run on.
    data_plane : str, optional
        Override the framework's plane for this run (as in
        :func:`run_leaflet_finder`).
    checkpoint_dir : str, optional
        Journal directory for checkpoint/restart: each wave's block
        results are journalled as they complete and a resumed run
        replays them, as in :func:`run_leaflet_finder`.

    Returns
    -------
    (LeafletResult, RunReport)
        The leaflet components and a report whose metrics accumulate
        over all waves (``bytes_ingested`` / ``peak_resident_bytes``
        record the out-of-core behaviour).
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    n = chunked.n_atoms
    n_chunks = chunked.n_chunks
    state: List[np.ndarray] = []
    totals = None
    map_time = 0.0
    reduce_time = 0.0
    waves = 0
    with framework.run_plane(data_plane) as store:
        plane = framework.data_plane

        def payload(index: int):
            if store is not None:
                return chunked.ingest_chunk(store, index)
            return chunked.load_chunk(index)

        journal = None
        if checkpoint_dir is not None:
            fingerprint = run_fingerprint(
                algorithm="leaflet_stream", cutoff=float(cutoff),
                path=os.path.abspath(getattr(chunked, "path", "")),
                n_atoms=n, n_chunks=n_chunks, data_plane=plane,
                substrate=framework.name, kernel_method=get_kernel_method())
            journal = RunJournal(checkpoint_dir, fingerprint).open()

        start_all = time.perf_counter()
        framework._active_journal = journal
        try:
            for w in range(n_chunks):
                w_start, w_stop = chunked.chunk_range(w)
                pay_w = payload(w)
                tasks = [_BlockPairTask(block=BlockTask(w_start, w_stop, w_start, w_stop),
                                        rows=pay_w, cols=pay_w, cutoff=cutoff,
                                        partial_components=True)]
                for v in range(w):
                    v_start, v_stop = chunked.chunk_range(v)
                    tasks.append(_BlockPairTask(
                        block=BlockTask(v_start, v_stop, w_start, w_stop),
                        rows=payload(v), cols=pay_w, cutoff=cutoff,
                        partial_components=True))
                map_start = time.perf_counter()
                partials = _map_leaflet_tasks(framework, tasks)
                map_time += time.perf_counter() - map_start
                reduce_start = time.perf_counter()
                state = merge_component_sets([state, *partials])
                reduce_time += time.perf_counter() - reduce_start
                totals = framework.metrics if totals is None else totals.merge(framework.metrics)
                waves += 1
            components = _with_singletons(state, n)
        finally:
            framework._active_journal = None
    wall = time.perf_counter() - start_all
    result = LeafletResult(components, n_atoms=n, n_edges=None)
    metrics = totals if totals is not None else framework.metrics
    metrics.record_event("map_s", map_time)
    metrics.record_event("reduce_s", reduce_time)
    report = RunReport(
        algorithm="leaflet_stream[parallel-cc]",
        framework=framework.name,
        parameters={
            "n_atoms": n,
            "cutoff": cutoff,
            "n_chunks": n_chunks,
            "n_waves": waves,
            "data_plane": plane,
            "phase_map_s": map_time,
            "phase_reduce_s": reduce_time,
        },
        wall_time_s=wall,
        n_tasks=metrics.tasks_submitted,
        metrics=metrics,
    )
    return result, report


class LeafletFinder:
    """Object-oriented wrapper mirroring MDAnalysis' ``LeafletFinder``.

    Parameters
    ----------
    universe_or_positions:
        Either a :class:`~repro.trajectory.universe.Universe` plus a
        selection string, or a raw ``(n_atoms, 3)`` position array.
    selection:
        Selection string applied when a universe is given (default:
        ``"name P"``, the phosphorus head groups).
    cutoff:
        Neighbor cutoff in Angstrom (the paper and MDAnalysis default to 15).
    """

    def __init__(self, universe_or_positions, selection: str = "name P",
                 cutoff: float = 15.0) -> None:
        from ..trajectory.universe import Universe

        if isinstance(universe_or_positions, Universe):
            group = universe_or_positions.select_atoms(selection)
            if group.n_atoms == 0:
                raise ValueError(f"selection {selection!r} matched no atoms")
            self.positions = group.positions
            self.atom_indices = group.indices
        else:
            self.positions = _validate_inputs(universe_or_positions, cutoff)
            self.atom_indices = np.arange(self.positions.shape[0], dtype=np.int64)
        self.cutoff = float(cutoff)
        self.last_report: RunReport | None = None

    def run_serial(self, method: str = "balltree") -> LeafletResult:
        """Serial reference run."""
        return leaflet_serial(self.positions, self.cutoff, method=method)

    def run(self, framework: TaskFramework, approach: str = "tree-search",
            n_tasks: int = 16, **kwargs) -> LeafletResult:
        """Task-parallel run; the :class:`RunReport` lands in ``last_report``."""
        result, report = run_leaflet_finder(self.positions, self.cutoff, framework,
                                            approach=approach, n_tasks=n_tasks, **kwargs)
        self.last_report = report
        return result
