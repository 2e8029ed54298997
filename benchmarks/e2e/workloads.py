"""The four end-to-end workloads.

Each workload turns a seed into inputs (never timed), names the one
public-API call a user makes, and names the serial reference its output
must match bit for bit.  The framework is built with exactly the keyword
arguments the by-name API path passes to ``make_framework``, handed to
the API function and closed after the call, as the by-name path does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

from repro.core.api import leaflet_finder, psa, stream_windows
from repro.core.leaflet import leaflet_serial
from repro.core.psa import psa_serial
from repro.frameworks import FaultPolicy
from repro.trajectory import BilayerSpec, EnsembleSpec, make_bilayer, make_clustered_ensemble
from repro.trajectory.streaming import open_streaming_ensemble, write_frame_chunks

NAMES = ("psa_batch", "psa_pilot_fine", "leaflet_tree", "stream_spill")

#: timed calls of one untraced run, the same on every commit so that the
#: parent and the change are summarized over the same number of samples;
#: each takes 10-20 s on the reference machine
TIMED_CALLS = {"psa_batch": 200, "psa_pilot_fine": 100, "leaflet_tree": 150,
               "stream_spill": 150}

#: pool size of every workload: the two cores of the reference machine
WORKERS = 2

CUTOFF = 15.0


@dataclass
class Workload:
    """One prepared workload: the call to time and the reference to match."""

    name: str
    substrate: str
    framework_kwargs: Dict[str, Any]
    api: Callable
    data: Any
    api_kwargs: Dict[str, Any]
    reference: Callable[[], Any]


def _framework_kwargs(**overrides) -> Dict[str, Any]:
    """What ``psa``/``leaflet_finder``/``stream_windows`` pass to make_framework."""
    kwargs = dict(executor="threads", workers=WORKERS, data_plane="pickle",
                  store_capacity_bytes=None, spill_dir=None, spill_async=True,
                  spill_queue_depth=4, fault_policy=None, faults=None)
    kwargs.update(overrides)
    return kwargs


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``.

    ``stream_spill`` writes its chunk files under ``workdir``.
    """
    if name == "psa_batch":
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=16, n_frames=102, n_atoms=256, seed=seed))
        return Workload(name, "dasklite", _framework_kwargs(), psa, ensemble,
                        {"data_plane": "pickle"}, lambda: psa_serial(ensemble))
    if name == "psa_pilot_fine":
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=6, n_frames=16, n_atoms=32, seed=seed))
        return Workload(name, "pilot",
                        _framework_kwargs(executor="shm", data_plane="shm",
                                          fault_policy=FaultPolicy()),
                        psa, ensemble, {"data_plane": "shm", "group_size": 1},
                        lambda: psa_serial(ensemble))
    if name == "leaflet_tree":
        positions, _ = make_bilayer(BilayerSpec(n_atoms=8000, seed=seed))
        return Workload(name, "sparklite", _framework_kwargs(), leaflet_finder, positions,
                        {"data_plane": "pickle", "approach": "tree-search", "n_tasks": 16,
                         "cutoff": CUTOFF},
                        lambda: leaflet_serial(positions, CUTOFF))
    if name == "stream_spill":
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=4, n_frames=64, n_atoms=128, seed=seed))
        workdir.mkdir(parents=True, exist_ok=True)
        paths = [write_frame_chunks(array, workdir / f"member{i}.fchunk", 16)
                 for i, array in enumerate(ensemble.as_arrays())]
        streamed = open_streaming_ensemble(paths)
        return Workload(name, "dasklite",
                        _framework_kwargs(data_plane="shm",
                                          store_capacity_bytes=streamed.nbytes // 4),
                        stream_windows, streamed, {"data_plane": "shm"},
                        lambda: psa_serial(ensemble, metric="hausdorff_windowed"))
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def digest(result) -> str:
    """SHA-256 of a result's canonical bytes.

    A distance matrix is its float64 values; a leaflet result labels every
    atom with the smallest atom of its component, so two results with the
    same component sets digest alike whatever order they list them in.
    """
    if hasattr(result, "components"):
        labels = np.full(result.n_atoms, -1, dtype=np.int64)
        for component in result.components:
            labels[component] = component.min()
        data = labels.tobytes()
    else:
        data = np.ascontiguousarray(result.values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()
