"""Trajectory readers.

The paper's workflows read trajectory files (DCD/XTC through MDAnalysis,
NetCDF through CPPTraj) from a parallel filesystem inside every task.  We
provide three self-contained formats that preserve the same access
patterns without external format libraries:

``.npy``
    a raw ``(n_frames, n_atoms, 3)`` array — dense, memory-mappable;
    this is the format the parallel PSA tasks read out-of-core.
``.npz``
    positions plus topology, times and box metadata in one archive.
``.xyz``
    the standard plain-text XYZ multi-frame format, for interoperability
    with external viewers and for small human-readable fixtures.
"""

from __future__ import annotations

import json
import os
from typing import List

import numpy as np

from .topology import Topology
from .trajectory import Trajectory, TrajectoryEnsemble

__all__ = [
    "read_npy",
    "read_npz",
    "read_xyz",
    "read_trajectory",
    "load_ensemble",
]


def read_npy(path: str | os.PathLike, topology: Topology | None = None,
             name: str | None = None) -> Trajectory:
    """Read a dense ``(n_frames, n_atoms, 3)`` ``.npy`` file."""
    path = os.fspath(path)
    positions = np.load(path)
    if positions.ndim == 2:
        positions = positions[None, :, :]
    return Trajectory(positions, topology=topology,
                      name=name or os.path.splitext(os.path.basename(path))[0])


def read_npz(path: str | os.PathLike) -> Trajectory:
    """Read a ``.npz`` archive written by :func:`repro.trajectory.writers.write_npz`."""
    path = os.fspath(path)
    with np.load(path, allow_pickle=False) as data:
        positions = data["positions"]
        times = data["times"] if "times" in data else None
        box = data["box"] if "box" in data else None
        topology = None
        if "topology_json" in data:
            top_dict = json.loads(str(data["topology_json"]))
            topology = Topology.from_dict(top_dict)
        name = str(data["name"]) if "name" in data else None
    return Trajectory(positions, topology=topology, times=times, box=box,
                      name=name or os.path.splitext(os.path.basename(path))[0])


def read_xyz(path: str | os.PathLike, name: str | None = None) -> Trajectory:
    """Read a multi-frame XYZ text file.

    The XYZ format repeats, per frame::

        <n_atoms>
        <comment line>
        <element> <x> <y> <z>
        ...
    """
    path = os.fspath(path)
    frames: List[np.ndarray] = []
    elements: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    first_frame = True
    while i < len(lines):
        header = lines[i].strip()
        if not header:
            i += 1
            continue
        try:
            n_atoms = int(header)
        except ValueError as exc:
            raise ValueError(f"invalid XYZ atom-count line {i + 1}: {header!r}") from exc
        if i + 1 + n_atoms >= len(lines) + 1 and n_atoms > 0 and i + 1 + n_atoms > len(lines):
            raise ValueError(f"truncated XYZ frame starting at line {i + 1}")
        coords = np.empty((n_atoms, 3), dtype=np.float64)
        for j in range(n_atoms):
            parts = lines[i + 2 + j].split()
            if len(parts) < 4:
                raise ValueError(f"invalid XYZ atom line {i + 3 + j}: {lines[i + 2 + j]!r}")
            if first_frame:
                elements.append(parts[0])
            coords[j] = [float(parts[1]), float(parts[2]), float(parts[3])]
        frames.append(coords)
        first_frame = False
        i += 2 + n_atoms
    if not frames:
        raise ValueError(f"no frames found in XYZ file {path}")
    positions = np.stack(frames)
    topology = Topology.from_names(elements)
    return Trajectory(positions, topology=topology,
                      name=name or os.path.splitext(os.path.basename(path))[0])


_READERS = {".npy": read_npy, ".npz": lambda p, **kw: read_npz(p), ".xyz": read_xyz}


def read_trajectory(path: str | os.PathLike, **kwargs) -> Trajectory:
    """Dispatch on file extension (.npy / .npz / .xyz)."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    try:
        reader = _READERS[ext]
    except KeyError as exc:
        raise ValueError(
            f"unsupported trajectory format {ext!r}; supported: {sorted(_READERS)}"
        ) from exc
    return reader(path, **kwargs)


def load_ensemble(paths: List[str | os.PathLike]) -> TrajectoryEnsemble:
    """Load several trajectory files into an ensemble (PSA input)."""
    ensemble = TrajectoryEnsemble()
    for path in paths:
        ensemble.add(read_trajectory(path))
    return ensemble
