"""Trajectory substrate: topology, trajectories, universes, generators.

This subpackage is a compact, self-contained replacement for the parts of
MDAnalysis the paper relies on: an object model for topologies and
trajectories, an atom-selection mini-language, file readers/writers, and
deterministic synthetic data generators (transition ensembles for PSA and
lipid bilayers for the Leaflet Finder).
"""

from .topology import Topology, guess_masses
from .trajectory import Frame, Trajectory, TrajectoryEnsemble
from .universe import AtomGroup, Universe
from .selections import SelectionError, parse_selection, select
from .readers import (
    load_ensemble,
    read_npy,
    read_npz,
    read_trajectory,
    read_xyz,
)
from .writers import write_ensemble, write_npy, write_npz, write_trajectory, write_xyz
from .streaming import (
    ChunkSource,
    ChunkedPositions,
    ChunkedTrajectory,
    FrameChunkReader,
    FrameChunkWriter,
    StreamingEnsemble,
    open_streaming_ensemble,
    write_frame_chunks,
    write_position_chunks,
)
from .generators import (
    PAPER_PSA_N_FRAMES,
    PAPER_PSA_SIZES,
    EnsembleSpec,
    make_clustered_ensemble,
    make_ensemble,
    paper_psa_ensemble,
    random_walk_trajectory,
    transition_trajectory,
)
from .bilayer import (
    PAPER_LEAFLET_SIZES,
    BilayerSpec,
    make_bilayer,
    make_bilayer_universe,
    paper_leaflet_system,
)

__all__ = [
    "Topology",
    "guess_masses",
    "Frame",
    "Trajectory",
    "TrajectoryEnsemble",
    "Universe",
    "AtomGroup",
    "SelectionError",
    "parse_selection",
    "select",
    "read_npy",
    "read_npz",
    "read_xyz",
    "read_trajectory",
    "load_ensemble",
    "write_npy",
    "write_npz",
    "write_xyz",
    "write_trajectory",
    "write_ensemble",
    "FrameChunkWriter",
    "FrameChunkReader",
    "ChunkSource",
    "ChunkedTrajectory",
    "ChunkedPositions",
    "StreamingEnsemble",
    "open_streaming_ensemble",
    "write_frame_chunks",
    "write_position_chunks",
    "EnsembleSpec",
    "PAPER_PSA_SIZES",
    "PAPER_PSA_N_FRAMES",
    "random_walk_trajectory",
    "transition_trajectory",
    "make_ensemble",
    "make_clustered_ensemble",
    "paper_psa_ensemble",
    "BilayerSpec",
    "PAPER_LEAFLET_SIZES",
    "make_bilayer",
    "make_bilayer_universe",
    "paper_leaflet_system",
]
