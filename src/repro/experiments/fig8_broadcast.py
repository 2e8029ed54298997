"""Figure 8 — broadcast-time breakdown of Leaflet Finder approach 1.

Paper setup: approach 1 (broadcast + 1-D partitioning) on the 131k and
262k atom systems, 32-256 cores, reporting total runtime and the
broadcast time for Spark, Dask and MPI4py.  Published findings: broadcast
time is 3-15% of the edge-discovery time for Spark, 40-65% for Dask and
<1-10% for MPI; MPI's broadcast time grows linearly with the process
count while Spark's and Dask's stay roughly constant; Dask could not
broadcast the 524k system at all.

``measured_rows`` times the broadcast and the map phase live on the real
substrates and reports the same breakdown.  ``data_plane_rows`` runs the
identical workload on the pickle and shm data planes and reports the
moved-vs-shared byte split in *both directions*: on the shm plane the
broadcast volume collapses from the full system to a per-node ref, and
the edge lists the tasks produce return as refs too instead of being
pickled back.  ``bytes_shared`` / ``bytes_shared_results`` (from
:class:`~repro.frameworks.base.RunMetrics`) count the array bytes the
tasks accessed / returned through the plane (summed per task, the
analogue of what the pickle plane would have moved), while
``bytes_resident`` counts the segment bytes actually held in the store
— the broadcast system appears there exactly once; the thread-run
tasks' edge lists stay in the driver's heap and take no segment.  This is the serialization saving the paper identifies
as the frameworks' main deficit against MPI.
"""

from __future__ import annotations

import os
import tempfile
from typing import List, Sequence

import numpy as np

from ..core.leaflet import run_leaflet_finder
from ..core.psa import run_psa
from ..frameworks import make_framework
from ..perfmodel.scaling import model_broadcast_breakdown
from ..trajectory.bilayer import BilayerSpec, make_bilayer
from ..trajectory.generators import EnsembleSpec, make_clustered_ensemble
from ..trajectory.streaming import open_streaming_ensemble, write_frame_chunks
from .common import print_rows, standard_argparser

__all__ = ["modeled_rows", "measured_rows", "data_plane_rows", "streamed_rows", "main"]


def modeled_rows(atom_counts: Sequence[int] = (131_072, 262_144)) -> List[dict]:
    """Paper-scale modeled breakdown (runtime + broadcast time)."""
    return [p.as_dict() for p in model_broadcast_breakdown(atom_counts=atom_counts)]


def measured_rows(n_atoms: int = 3000, cutoff: float = 15.0, n_tasks: int = 16,
                  workers: int = 4,
                  frameworks: Sequence[str] = ("sparklite", "dasklite", "mpilite"),
                  data_plane: str = "pickle") -> List[dict]:
    """Laptop-scale live broadcast/map breakdown for approach 1."""
    positions, _labels = make_bilayer(BilayerSpec(n_atoms=n_atoms, seed=11))
    rows: List[dict] = []
    for name in frameworks:
        fw = make_framework(name, executor="threads", workers=workers,
                            data_plane=data_plane)
        _result, report = run_leaflet_finder(positions, cutoff, fw, approach="broadcast-1d", n_tasks=n_tasks)
        broadcast_s = report.parameters.get("phase_broadcast_s", 0.0)
        map_s = report.parameters.get("phase_map_s", 0.0)
        store = getattr(fw, "store", None)
        rows.append({
            "framework": name,
            "data_plane": data_plane,
            "n_atoms": n_atoms,
            "wall_time_s": report.wall_time_s,
            "broadcast_s": broadcast_s,
            "map_s": map_s,
            "broadcast_fraction_of_map": (broadcast_s / map_s) if map_s > 0 else float("nan"),
            "bytes_broadcast": report.metrics.bytes_broadcast,
            # array bytes tasks accessed through the plane (per-task sum)
            "bytes_shared": report.metrics.bytes_shared,
            # result direction: bytes a ref payload would move back vs
            # the array bytes its refs would point at
            "bytes_results_moved": report.metrics.bytes_results_pickled,
            "bytes_shared_results": report.metrics.bytes_shared_results,
            "bytes_spilled": report.metrics.bytes_spilled,
            # segment bytes resident in the store: the broadcast system,
            # once (thread-run results stay in the heap)
            "bytes_resident": store.bytes_resident if store is not None else 0,
        })
        fw.close()
    return rows


def data_plane_rows(n_atoms: int = 3000, cutoff: float = 15.0, n_tasks: int = 16,
                    workers: int = 4,
                    frameworks: Sequence[str] = ("sparklite", "dasklite", "mpilite")) -> List[dict]:
    """Moved-vs-shared byte split: pickle plane against the shm plane.

    One row per framework, covering both directions of the data plane:

    * task direction — the bytes a distributed deployment would move for
      the approach-1 broadcast on each plane (``bytes_moved_*``), the
      array bytes the tasks accessed through shared memory instead
      (``bytes_accessed_shm``, a per-task sum), and the segment bytes
      resident in the store (``bytes_resident_shm``);
    * result direction — the bytes the gathered edge lists would move on
      each plane (``bytes_results_moved_*``: whole arrays on the pickle
      plane, just the refs on the shm plane) and the array bytes
      those refs point at (``bytes_shared_results``).

    ``moved_reduction`` / ``results_moved_reduction`` are the factors by
    which the shm plane shrinks each direction's moved volume.
    """
    rows: List[dict] = []
    pickle_rows = measured_rows(n_atoms, cutoff, n_tasks, workers, frameworks,
                                data_plane="pickle")
    shm_rows = measured_rows(n_atoms, cutoff, n_tasks, workers, frameworks,
                             data_plane="shm")
    for pickled, shared in zip(pickle_rows, shm_rows):
        moved_pickle = pickled["bytes_broadcast"]
        moved_shm = shared["bytes_broadcast"]
        results_pickle = pickled["bytes_results_moved"]
        results_shm = shared["bytes_results_moved"]
        rows.append({
            "framework": pickled["framework"],
            "n_atoms": n_atoms,
            "bytes_moved_pickle": moved_pickle,
            "bytes_moved_shm": moved_shm,
            "bytes_accessed_shm": shared["bytes_shared"],
            "bytes_resident_shm": shared["bytes_resident"],
            "moved_reduction": (moved_pickle / moved_shm) if moved_shm else float("inf"),
            "bytes_results_moved_pickle": results_pickle,
            "bytes_results_moved_shm": results_shm,
            "bytes_shared_results": shared["bytes_shared_results"],
            "results_moved_reduction": (results_pickle / results_shm)
            if results_shm else float("inf"),
            "wall_time_pickle_s": pickled["wall_time_s"],
            "wall_time_shm_s": shared["wall_time_s"],
        })
    return rows


def streamed_rows(n_trajectories: int = 8, n_frames: int = 32, n_atoms: int = 64,
                  workers: int = 4,
                  frameworks: Sequence[str] = ("sparklite", "dasklite", "mpilite"),
                  capacity_fraction: float = 0.25) -> List[dict]:
    """Streamed-vs-materialized ingestion on the shm plane (one row each).

    The out-of-core extension of the data-plane comparison: the same PSA
    workload runs once with the whole ensemble materialized into the
    store (the batch path) and once streamed from chunk files through
    :meth:`~repro.frameworks.shm.SharedMemoryStore.ingest` with a store
    watermark of ``capacity_fraction`` times the ensemble — so the
    streamed run *cannot* hold its inputs resident.  Rows report both
    peaks, the residency reduction, and whether the streamed matrix is
    bit-identical to the materialized one (it must be:
    ``hausdorff_windowed`` merges per-window minima with a
    partition-independent kernel).
    """
    spec = EnsembleSpec(n_trajectories=n_trajectories, n_frames=n_frames,
                        n_atoms=n_atoms, seed=23)
    ensemble = make_clustered_ensemble(spec)
    total_bytes = ensemble.nbytes
    capacity = max(1, int(total_bytes * capacity_fraction))
    chunk_frames = max(1, n_frames // 4)
    rows: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-fig8-stream-") as tmp:
        paths = [
            write_frame_chunks(array, os.path.join(tmp, f"{label}.fchunk"),
                               frames_per_chunk=chunk_frames, name=label)
            for label, array in zip(ensemble.labels, ensemble.as_arrays())
        ]
        streaming = open_streaming_ensemble(paths)
        for name in frameworks:
            fw = make_framework(name, executor="threads", workers=workers,
                                data_plane="shm")
            try:
                batch_matrix, batch_report = run_psa(
                    ensemble, fw, metric="hausdorff_windowed", n_tasks=workers)
            finally:
                fw.close()
            fw = make_framework(name, executor="threads", workers=workers,
                                data_plane="shm", store_capacity_bytes=capacity)
            try:
                stream_matrix, stream_report = run_psa(
                    streaming, fw, metric="hausdorff_windowed",
                    window_frames=chunk_frames, n_tasks=workers)
            finally:
                fw.close()
            peak_stream = stream_report.metrics.peak_resident_bytes
            rows.append({
                "framework": name,
                "ensemble_bytes": total_bytes,
                "store_capacity_bytes": capacity,
                "bytes_ingested": stream_report.metrics.bytes_ingested,
                "peak_resident_streamed": peak_stream,
                "peak_resident_materialized": batch_report.metrics.peak_resident_bytes,
                "bytes_spilled_streamed": stream_report.metrics.bytes_spilled,
                "residency_reduction": (total_bytes / peak_stream)
                if peak_stream else float("inf"),
                "bit_identical": bool(np.array_equal(batch_matrix.values,
                                                     stream_matrix.values)),
                "wall_time_materialized_s": batch_report.wall_time_s,
                "wall_time_streamed_s": stream_report.wall_time_s,
            })
    return rows


def main(argv=None) -> None:
    """Entry point: ``python -m repro.experiments.fig8_broadcast``."""
    args = standard_argparser(__doc__ or "figure 8").parse_args(argv)
    print_rows("Figure 8 (modeled, paper scale): approach-1 broadcast breakdown",
               modeled_rows(),
               columns=["framework", "workload", "cores", "runtime_s",
                        "broadcast_s", "broadcast_fraction"])
    if args.live:
        print_rows("Figure 8 (measured, laptop scale)", measured_rows(workers=args.workers))
        print_rows("Figure 8 extension: pickle vs shm data plane",
                   data_plane_rows(workers=args.workers))
        print_rows("Figure 8 extension: streamed vs materialized ingestion",
                   streamed_rows(workers=args.workers))


if __name__ == "__main__":  # pragma: no cover
    main()
