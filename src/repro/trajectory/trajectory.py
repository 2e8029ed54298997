"""Trajectory containers.

An MD trajectory is a time series of frames; each frame holds the positions
of every atom in the system as an ``(n_atoms, 3)`` float array.  The paper's
algorithms consume trajectories in two different shapes:

* **PSA** treats each trajectory as a dense ``(n_frames, n_atoms, 3)``
  array (one task = one pair of such arrays), and
* the **Leaflet Finder** consumes a single frame of a very large system
  (an ``(n_atoms, 3)`` array).

This module provides:

:class:`Frame`
    a single snapshot with positions, box and time metadata,
:class:`Trajectory`
    an in-memory trajectory backed by one contiguous NumPy array,
:class:`TrajectoryEnsemble`
    an ordered collection of trajectories (the unit of work of PSA), and
:func:`frame_window` / :func:`frame_windows`
    the frame-window bounds checks shared by this ensemble and the
    chunk-file-backed :class:`~repro.trajectory.streaming.StreamingEnsemble`
    (both expose the same ``windows`` / ``window_payloads`` pair).

On-demand frames of trajectories too large for memory come from the
chunk format in :mod:`repro.trajectory.streaming`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..frameworks.shm import SharedMemoryStore

__all__ = ["Frame", "Trajectory", "TrajectoryEnsemble", "frame_window", "frame_windows"]


def frame_window(n_frames: int, start: int = 0, stop: int | None = None) -> Tuple[int, int]:
    """Check frames ``[start, stop)`` against an ``n_frames`` trajectory.

    Parameters
    ----------
    n_frames : int
        Frame count of the trajectory the window is cut from.
    start : int, optional
        First frame of the window.
    stop : int, optional
        One past the last frame; ``None`` means the trajectory's end.

    Returns
    -------
    tuple of int
        ``(start, stop)`` with ``stop`` resolved.

    Raises
    ------
    IndexError
        Unless ``0 <= start < stop <= n_frames``: a window is never empty,
        negative or clamped.
    """
    stop = n_frames if stop is None else stop
    if not 0 <= start < stop <= n_frames:
        raise IndexError(f"window [{start}, {stop}) out of bounds for {n_frames} frames")
    return start, stop


def frame_windows(n_frames: int, window_frames: int) -> List[Tuple[int, int]]:
    """Consecutive windows of ``window_frames`` frames covering ``n_frames``.

    The last window is shorter when ``window_frames`` does not divide
    ``n_frames``.  Raises :class:`ValueError` unless ``window_frames >= 1``.
    """
    if window_frames < 1:
        raise ValueError("window_frames must be >= 1")
    return [(start, min(n_frames, start + window_frames))
            for start in range(0, n_frames, window_frames)]


@dataclass
class Frame:
    """A single trajectory frame.

    Attributes
    ----------
    positions:
        ``(n_atoms, 3)`` array of Cartesian coordinates (Angstrom).
    time:
        Simulation time of the frame (ps).
    box:
        Orthorhombic box lengths ``(lx, ly, lz)`` or ``None`` for a
        non-periodic system.
    index:
        Position of the frame inside its parent trajectory.
    """

    positions: np.ndarray
    time: float = 0.0
    box: np.ndarray | None = None
    index: int = 0

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(
                f"positions must have shape (n_atoms, 3), got {self.positions.shape}"
            )
        if self.box is not None:
            self.box = np.asarray(self.box, dtype=np.float64)
            if self.box.shape != (3,):
                raise ValueError("box must be a length-3 vector of box lengths")

    @property
    def n_atoms(self) -> int:
        """Number of atoms in the frame."""
        return self.positions.shape[0]

    def centroid(self) -> np.ndarray:
        """Geometric center of the frame."""
        return self.positions.mean(axis=0)

    def radius_of_gyration(self, masses: np.ndarray | None = None) -> float:
        """Radius of gyration, optionally mass weighted."""
        if masses is None:
            weights = np.ones(self.n_atoms)
        else:
            weights = np.asarray(masses, dtype=np.float64)
            if weights.shape[0] != self.n_atoms:
                raise ValueError("masses length must match n_atoms")
        total = weights.sum()
        if total <= 0:
            weights = np.ones(self.n_atoms)
            total = float(self.n_atoms)
        center = np.average(self.positions, axis=0, weights=weights)
        sq = ((self.positions - center) ** 2).sum(axis=1)
        return float(np.sqrt(np.average(sq, weights=weights)))

    def translated(self, vector: np.ndarray) -> "Frame":
        """Return a copy translated by ``vector``."""
        return Frame(self.positions + np.asarray(vector, dtype=np.float64),
                     time=self.time, box=self.box, index=self.index)


class Trajectory:
    """An in-memory trajectory: ``(n_frames, n_atoms, 3)`` positions.

    Parameters
    ----------
    positions:
        Array of shape ``(n_frames, n_atoms, 3)``.
    topology:
        Optional :class:`~repro.trajectory.topology.Topology`; a uniform
        topology is generated when omitted.
    times:
        Optional per-frame times; defaults to ``dt * frame_index``.
    box:
        Optional per-frame boxes (``(n_frames, 3)``) or a single box
        applied to all frames.
    dt:
        Time step between frames (ps), used when ``times`` is omitted.
    name:
        Human-readable label (used in PSA distance-matrix reports).
    """

    def __init__(
        self,
        positions: np.ndarray,
        topology: Topology | None = None,
        times: np.ndarray | None = None,
        box: np.ndarray | None = None,
        dt: float = 1.0,
        name: str = "trajectory",
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[2] != 3:
            raise ValueError(
                "positions must have shape (n_frames, n_atoms, 3), "
                f"got {positions.shape}"
            )
        self._positions = positions
        self.name = name
        self.dt = float(dt)
        n_frames, n_atoms, _ = positions.shape
        if topology is None:
            topology = Topology.uniform(n_atoms)
        if topology.n_atoms != n_atoms:
            raise ValueError(
                f"topology has {topology.n_atoms} atoms but positions have {n_atoms}"
            )
        self.topology = topology
        if times is None:
            times = np.arange(n_frames, dtype=np.float64) * self.dt
        else:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != (n_frames,):
                raise ValueError("times must have shape (n_frames,)")
        self._times = times
        if box is not None:
            box = np.asarray(box, dtype=np.float64)
            if box.shape == (3,):
                box = np.broadcast_to(box, (n_frames, 3)).copy()
            elif box.shape != (n_frames, 3):
                raise ValueError("box must have shape (3,) or (n_frames, 3)")
        self._box = box

    # ------------------------------------------------------------------ #
    # shape / metadata
    # ------------------------------------------------------------------ #
    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return self._positions.shape[0]

    @property
    def n_atoms(self) -> int:
        """Number of atoms per frame."""
        return self._positions.shape[1]

    @property
    def positions(self) -> np.ndarray:
        """The full ``(n_frames, n_atoms, 3)`` position array (a view)."""
        return self._positions

    @property
    def times(self) -> np.ndarray:
        """Per-frame simulation times."""
        return self._times

    @property
    def nbytes(self) -> int:
        """Size of the position data in bytes."""
        return int(self._positions.nbytes)

    def __len__(self) -> int:
        return self.n_frames

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Trajectory {self.name!r}: {self.n_frames} frames, "
            f"{self.n_atoms} atoms>"
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def frame(self, index: int) -> Frame:
        """Return frame ``index`` as a :class:`Frame` (negative ok)."""
        idx = int(index)
        if idx < 0:
            idx += self.n_frames
        if not 0 <= idx < self.n_frames:
            raise IndexError(f"frame index {index} out of range [0, {self.n_frames})")
        box = None if self._box is None else self._box[idx]
        return Frame(self._positions[idx], time=float(self._times[idx]),
                     box=box, index=idx)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.slice_frames(index)
        return self.frame(index)

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.n_frames):
            yield self.frame(i)

    def slice_frames(self, sl: slice) -> "Trajectory":
        """Return a new trajectory containing the selected frames."""
        idx = range(*sl.indices(self.n_frames))
        positions = self._positions[list(idx)]
        times = self._times[list(idx)]
        box = None if self._box is None else self._box[list(idx)]
        return Trajectory(positions, topology=self.topology, times=times,
                          box=box, dt=self.dt, name=self.name)

    def select_atoms_by_index(self, indices: Sequence[int]) -> "Trajectory":
        """Return a trajectory restricted to the given atom indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return Trajectory(
            self._positions[:, idx, :],
            topology=self.topology.subset(idx),
            times=self._times,
            box=self._box,
            dt=self.dt,
            name=self.name,
        )

    def as_array(self) -> np.ndarray:
        """Return the ``(n_frames, n_atoms, 3)`` array (copy-free view)."""
        return self._positions

    def as_paths(self) -> np.ndarray:
        """Return the trajectory flattened to ``(n_frames, n_atoms * 3)``.

        PSA treats each frame as a point in ``3N``-dimensional configuration
        space; this is that representation.
        """
        return self._positions.reshape(self.n_frames, self.n_atoms * 3)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def centered(self) -> "Trajectory":
        """Return a copy where every frame's centroid sits at the origin."""
        centroids = self._positions.mean(axis=1, keepdims=True)
        return Trajectory(self._positions - centroids, topology=self.topology,
                          times=self._times, box=self._box, dt=self.dt,
                          name=self.name)

    def transformed(self, func: Callable[[np.ndarray], np.ndarray]) -> "Trajectory":
        """Apply ``func`` to every frame's positions and return a copy."""
        frames = np.stack([np.asarray(func(f), dtype=np.float64)
                           for f in self._positions])
        return Trajectory(frames, topology=self.topology, times=self._times,
                          box=self._box, dt=self.dt, name=self.name)

    def concat_frames(self, other: "Trajectory") -> "Trajectory":
        """Append ``other``'s frames to this trajectory (same atoms)."""
        if other.n_atoms != self.n_atoms:
            raise ValueError("cannot concatenate trajectories with different atom counts")
        positions = np.concatenate([self._positions, other._positions], axis=0)
        times = np.concatenate([self._times, other._times + (self._times[-1] + self.dt if self.n_frames else 0.0)])
        return Trajectory(positions, topology=self.topology, times=times,
                          dt=self.dt, name=self.name)


@dataclass
class TrajectoryEnsemble:
    """An ordered collection of trajectories — the unit of work of PSA.

    PSA computes an ``N x N`` distance matrix over an ensemble of ``N``
    trajectories.  The ensemble also records labels so that the resulting
    matrix rows/columns can be mapped back to trajectories.
    """

    trajectories: List[Trajectory] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.trajectories = list(self.trajectories)

    @property
    def n_trajectories(self) -> int:
        """Number of member trajectories."""
        return len(self.trajectories)

    @property
    def labels(self) -> List[str]:
        """Member trajectory names, in order."""
        return [t.name for t in self.trajectories]

    @property
    def nbytes(self) -> int:
        """Total size of all member trajectories in bytes."""
        return sum(t.nbytes for t in self.trajectories)

    def __len__(self) -> int:
        return self.n_trajectories

    def __getitem__(self, index: int) -> Trajectory:
        return self.trajectories[index]

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def add(self, trajectory: Trajectory) -> None:
        """Append a trajectory to the ensemble."""
        self.trajectories.append(trajectory)

    def as_arrays(self) -> List[np.ndarray]:
        """Return the members as raw ``(n_frames, n_atoms, 3)`` arrays."""
        return [t.as_array() for t in self.trajectories]

    def validate_consistent_atoms(self) -> int:
        """Check all members share an atom count and return it.

        PSA requires members to be comparable frame-by-frame, i.e. to have
        the same number of atoms.  Raises :class:`ValueError` otherwise.
        """
        if not self.trajectories:
            raise ValueError("ensemble is empty")
        counts = {t.n_atoms for t in self.trajectories}
        if len(counts) != 1:
            raise ValueError(
                f"ensemble members have inconsistent atom counts: {sorted(counts)}"
            )
        return counts.pop()

    @property
    def n_frames(self) -> int:
        """Uniform member frame count; :class:`ValueError` if members differ."""
        if not self.trajectories:
            raise ValueError("ensemble is empty")
        counts = {t.n_frames for t in self.trajectories}
        if len(counts) != 1:
            raise ValueError(
                f"windowed analysis requires equal frame counts, got {sorted(counts)}"
            )
        return counts.pop()

    def windows(self, window_frames: int | None = None) -> List[Tuple[int, int]]:
        """Frame windows in order; defaults to ``ceil(n_frames / 4)`` frames each.

        Parameters
        ----------
        window_frames : int, optional
            Frames per window (the last window may be shorter).

        Returns
        -------
        list of tuple of int
            ``(start, stop)`` windows covering every frame once.
        """
        n_frames = self.n_frames
        size = -(-n_frames // 4) if window_frames is None else window_frames
        return frame_windows(n_frames, size)

    def window_payloads(self, store: "SharedMemoryStore | None", start: int = 0,
                        stop: int | None = None) -> List:
        """Per-member payloads for frames ``[start, stop)``.

        Parameters
        ----------
        store : SharedMemoryStore or None
            With a store, each payload is put into it and rides as a
            :class:`~repro.frameworks.shm.BlockRef` (the shm plane).
        start, stop : int, optional
            The frame window; ``stop=None`` is each member's end, so the
            default is every member whole (members may then differ in
            length).

        Returns
        -------
        list
            One array (or ref) per member: a zero-copy slice, or the
            member's own array when the window covers it, so a store
            deduplicates it across runs.
        """
        payloads = []
        for traj in self.trajectories:
            lo, hi = frame_window(traj.n_frames, start, stop)
            array = traj.as_array()
            if (lo, hi) != (0, traj.n_frames):
                array = array[lo:hi]
            payloads.append(array if store is None else store.put(array))
        return payloads

    def identity(self) -> List[str]:
        """Per-member content digests (sha256 over dtype, shape and bytes).

        What a run fingerprint records of an in-memory ensemble: two
        ensembles have equal identities iff their members are elementwise
        identical.
        """
        digests = []
        for traj in self.trajectories:
            data = np.ascontiguousarray(traj.as_array())
            digest = hashlib.sha256(f"{data.dtype.str}{data.shape}".encode())
            digest.update(data.data)
            digests.append(digest.hexdigest())
        return digests
