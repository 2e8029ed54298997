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

:func:`run_leaflet_finder` is the one driver, for in-memory and
chunk-file input alike.  A run covers the atoms in chunks and submits
one wave of block tasks per wave of chunks: an in-memory system is one
wave of every block, a chunk file is one wave per chunk, comparing it
with itself and every earlier chunk.  It returns
``(LeafletResult, RunReport)``; the report records wall time, broadcast
volume, shuffle volume (bytes returned by map tasks) and the per-phase
timings the paper's Figures 7-9 are built from.

On the shm data plane the map outputs (edge lists, partial components)
never pass through pickle.  On process lanes they ride the result
plane: tasks return :class:`~repro.frameworks.shm.BlockRef` handles,
and the framework's ``map_tasks`` copies each block out once and
unlinks its segment on receipt, before the reduce phase runs, so the
driver-side concatenation / component merge below never unpickles an
edge list and no segment outlives the call.  Tasks that run in the
driver's process (serial and thread executors) return theirs in the
heap, and no segment is made for them: a tree-search run returns
hundreds of partial-component arrays per call.  The report's
``bytes_shared_results`` vs ``bytes_results_pickled`` split quantifies
what the plane saves a process-crossing deployment in both cases.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..analysis.graph import connected_components, merge_component_sets
from ..analysis.neighbors import BallTree, radius_edges
from ..analysis.pairwise import edges_from_block
from ..frameworks.base import TaskFramework
from ..frameworks.checkpoint import RunJournal, run_fingerprint
from ..frameworks.serialization import nbytes_of
from ..frameworks.shm import BlockRef, maybe_resolve
from ..trajectory.streaming import ChunkedPositions
from .partitioning import (
    BlockTask,
    choose_group_size,
    chunk_ranges,
    one_dimensional_partition,
    two_dimensional_partition,
)
from .results import LeafletResult, RunReport
from .waves import run_waves

__all__ = [
    "LEAFLET_APPROACHES",
    "leaflet_serial",
    "leaflet_task_key",
    "run_leaflet_finder",
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
    edges = radius_edges(positions, cutoff, method=method)
    components = connected_components(edges, n)
    return LeafletResult(components, n_atoms=n, n_edges=edges.shape[0])


# --------------------------------------------------------------------------- #
# map-task payloads (module level so they are picklable)
# --------------------------------------------------------------------------- #
@dataclass
class _ChunkVsAllTask:
    """Approach 1 task: one 1-D chunk of atoms against the broadcast system.

    The block's rows are the chunk and its columns the whole system.
    """

    block: BlockTask
    rows: np.ndarray
    cols: np.ndarray
    cutoff: float

    def run(self) -> np.ndarray:
        """Edges ``i < j`` between the chunk and the whole system."""
        # rows/cols may be shared-memory refs; the pairwise kernel
        # resolves them to zero-copy views
        edges = edges_from_block(self.rows, self.cols, self.cutoff,
                                 offset_a=self.block.row_start,
                                 offset_b=self.block.col_start)
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
        """The block's edges, or their partial components."""
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
    """Approach 4 task: BallTree edge discovery on a 2-D block."""

    block: BlockTask
    rows: np.ndarray
    cols: np.ndarray
    cutoff: float

    def run(self):
        """Partial components of the block's edges."""
        # build the tree over the column block, query with the row block;
        # complexity drops from O(|rows| * |cols|) to O(|cols| log |cols| +
        # |rows| log |cols|), the speedup the paper reports for large systems
        rows = maybe_resolve(self.rows)
        searcher = BallTree(maybe_resolve(self.cols))
        # flat (query, point) pairs straight from the batched query;
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
        return f"chunk-{task.block.row_start}-{task.block.row_stop}"
    if isinstance(task, _TreeBlockTask):
        return f"tree-{task.block.row_start}-{task.block.col_start}"
    return (f"pair-{task.block.row_start}-{task.block.col_start}"
            f"-{int(task.partial_components)}")


# --------------------------------------------------------------------------- #
# the four approaches
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Approach:
    """What differs between the approaches.

    Attributes
    ----------
    task : callable
        Makes a block's map task from ``block, rows, cols, cutoff``.
    partial : bool
        The tasks return partial components, merged after every wave;
        otherwise they return edge lists, whose connected components are
        taken once at the end.
    broadcast : bool
        The whole system is broadcast and every 1-D chunk of atoms is
        compared with it, instead of 2-D blocks comparing two chunks.
    """

    task: Callable[..., object]
    partial: bool
    broadcast: bool = False


#: approach name -> what its map tasks are and which reduce runs
LEAFLET_APPROACHES: Dict[str, _Approach] = {
    "broadcast-1d": _Approach(_ChunkVsAllTask, partial=False, broadcast=True),
    "task-2d": _Approach(_BlockPairTask, partial=False),
    "parallel-cc": _Approach(functools.partial(_BlockPairTask, partial_components=True),
                             partial=True),
    "tree-search": _Approach(_TreeBlockTask, partial=True),
}


def _with_singletons(components: List[np.ndarray], n_atoms: int) -> List[np.ndarray]:
    """Append single-atom components for atoms not covered by any component."""
    covered = np.zeros(n_atoms, dtype=bool)
    for comp in components:
        covered[comp] = True
    singles = [np.array([i], dtype=np.int64) for i in np.flatnonzero(~covered)]
    return list(components) + singles


def run_leaflet_finder(system, cutoff: float, framework: TaskFramework, *,
                       approach: str = "tree-search",
                       n_tasks: int | None = None,
                       data_plane: str | None = None,
                       checkpoint_dir: str | None = None) -> Tuple[LeafletResult, RunReport]:
    """Task-parallel Leaflet Finder with the named architectural approach.

    Parameters
    ----------
    system : numpy.ndarray or ChunkedPositions
        An in-memory ``(n_atoms, 3)`` system, run as one wave of every
        block; or a chunk file
        (:class:`~repro.trajectory.streaming.ChunkedPositions`), run as
        one wave per chunk that compares the chunk with itself and with
        every earlier one.  On the shm plane chunks ingest into the
        framework's store and cold ones may spill between waves, so the
        resident footprint is bounded by the store watermark rather than
        the system size.
    cutoff : float
        Neighbor cutoff in Angstrom.
    framework : TaskFramework
        Substrate to run on.
    approach : str, optional
        One of :data:`LEAFLET_APPROACHES`.  Chunk files take the 2-D
        approaches only: ``broadcast-1d`` raises :class:`ValueError`.
    n_tasks : int, optional
        Target task count of an in-memory system (default 16).  A chunk
        file's chunks fix its blocks, so giving it raises
        :class:`ValueError`.
    data_plane : str, optional
        Defaults to the framework's configured plane; ``"pickle"`` or
        ``"shm"`` overrides it for this run only (see
        :meth:`~repro.frameworks.base.TaskFramework.run_plane`).
    checkpoint_dir : str, optional
        Enables checkpoint/restart: every block result (edge list or
        partial-component set) is journalled as it completes, and a
        re-run with the same system, parameters, plane and substrate
        replays finished blocks (``tasks_restored`` in the report) and
        computes only the missing ones.  A journal written under
        different inputs raises
        :class:`~repro.frameworks.checkpoint.StaleJournal`.

    Returns
    -------
    (LeafletResult, RunReport)
        The leaflet components and a report whose metrics add up over
        all waves.  ``n_tasks`` counts every task, restored ones
        included; ``n_chunks`` / ``n_waves`` / ``n_blocks`` describe the
        decomposition.
    """
    if approach not in LEAFLET_APPROACHES:
        raise ValueError(
            f"unknown approach {approach!r}; choose from {sorted(LEAFLET_APPROACHES)}"
        )
    spec = LEAFLET_APPROACHES[approach]
    phases: Dict[str, float] = {}
    bytes_broadcast = bytes_shuffled = 0
    reduce_s = 0.0
    state: List[np.ndarray] = []
    edges = np.empty((0, 2), dtype=np.int64)

    # the one place input kinds differ: the atom chunks, the blocks of
    # each wave, and where a block's payloads come from
    if isinstance(system, ChunkedPositions):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if n_tasks is not None:
            raise ValueError("n_tasks does not apply to a chunk file: its chunks fix the blocks")
        if spec.broadcast:
            raise ValueError(f"{approach} broadcasts the whole system; "
                             "a chunk file takes a 2-D approach")
        n = system.n_atoms
        chunks = [system.chunk_range(i) for i in range(system.n_chunks)]
        arrays, source = [], (os.path.abspath(system.path), n, system.atoms_per_chunk)

        def waves(store):
            for w, chunk_w in enumerate(chunks):
                order = [w, *range(w)]
                payloads = {chunks[v]: (system.ingest_chunk(store, v) if store is not None
                                        else system.load_chunk(v)) for v in order}
                yield ([BlockTask(*chunks[v], *chunk_w) for v in order],
                       lambda start, stop, payloads=payloads: payloads[(start, stop)])
    else:
        system = _validate_inputs(system, cutoff)
        n = system.shape[0]
        n_tasks = 16 if n_tasks is None else n_tasks
        if spec.broadcast:
            chunks = one_dimensional_partition(n, n_tasks)
            blocks = [BlockTask(start, stop, 0, n) for start, stop in chunks]
        else:
            size = choose_group_size(n, n_tasks)
            chunks = chunk_ranges(n, size)
            blocks = two_dimensional_partition(n, size)
        arrays, source = [system], None

        def waves(store):
            nonlocal bytes_broadcast
            if spec.broadcast:
                start = time.perf_counter()
                handle = framework.broadcast(system)
                phases["broadcast_s"] = time.perf_counter() - start
                bytes_broadcast, whole = handle.nbytes, handle.value
            else:
                # on the shm plane the system enters the store once
                whole = store.put(system) if store is not None else system
            # blocks carry zero-copy sub-refs on the shm plane, slices otherwise
            yield blocks, (whole.slice_rows if isinstance(whole, BlockRef)
                           else lambda start, stop: whole[start:stop])

    def fold(results):
        nonlocal bytes_shuffled, reduce_s, state, edges
        bytes_shuffled += sum(nbytes_of(r) for r in results)
        start = time.perf_counter()
        if spec.partial:
            state = merge_component_sets([state, *results])
        else:
            edges = np.concatenate([edges, *(e for e in results if e.size)])
        reduce_s += time.perf_counter() - start

    with framework.run_plane(data_plane) as store:
        plane = framework.data_plane
        journal = None
        if checkpoint_dir is not None:
            fingerprint = run_fingerprint(
                arrays=arrays, source=source, algorithm="leaflet_finder",
                approach=approach, cutoff=float(cutoff), n_tasks=n_tasks,
                data_plane=plane, substrate=framework.name)
            journal = RunJournal(checkpoint_dir, fingerprint).open()
        start = time.perf_counter()
        tasks = ([spec.task(block=b, rows=rows(b.row_start, b.row_stop),
                            cols=rows(b.col_start, b.col_stop), cutoff=cutoff)
                  for b in blocks]
                 for blocks, rows in waves(store))
        run = run_waves(framework, _run_task, leaflet_task_key, tasks, fold,
                        journal=journal, store=store)
        reduce_start = time.perf_counter()
        if spec.partial:
            components, n_edges = _with_singletons(state, n), None
        else:
            components, n_edges = connected_components(edges, n), edges.shape[0]
        reduce_s += time.perf_counter() - reduce_start
        wall = time.perf_counter() - start

    phases.update(map_s=run.map_s, reduce_s=reduce_s)
    metrics = run.metrics
    metrics.bytes_broadcast = max(metrics.bytes_broadcast, bytes_broadcast)
    metrics.bytes_shuffled += bytes_shuffled
    for label, value in phases.items():
        metrics.record_event(label, value)
    report = RunReport(
        algorithm=f"leaflet_finder[{approach}]",
        framework=framework.name,
        parameters={
            "n_atoms": n,
            "cutoff": cutoff,
            "n_tasks": run.n_tasks,
            "n_edges": n_edges,
            "n_chunks": len(chunks),
            "n_waves": run.n_waves,
            "n_blocks": run.n_tasks,
            "data_plane": plane,
            **{f"phase_{k}": v for k, v in phases.items()},
        },
        wall_time_s=wall,
        n_tasks=run.n_tasks,
        metrics=metrics,
    )
    return LeafletResult(components, n_atoms=n, n_edges=n_edges), report


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
