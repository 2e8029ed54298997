"""Streaming trajectory ingestion: chunked files feeding the shm store.

The paper's campaigns analyze trajectory sets far larger than RAM; the
in-memory :class:`~repro.trajectory.trajectory.TrajectoryEnsemble` used
by the batch paths cannot represent them.  This module adds the
out-of-core input path described in ``docs/streaming.md``:

:class:`FrameChunkWriter` / :class:`FrameChunkReader`
    a chunked on-disk frame format (``.fchunk``): one small fixed-size
    header followed by raw C-contiguous float64 frames, logically split
    into fixed-size frame chunks addressable by index — the unit of
    ingestion.
:class:`ChunkSource`
    a picklable loader (path + chunk index) registered with the store at
    ingest time, so a chunk block lost from the spill tier heals by
    re-reading the source file instead of pinning the array in memory.
:class:`ChunkedTrajectory` / :class:`StreamingEnsemble`
    lazy containers whose ``window_refs``/``window_payloads`` resolve
    frame windows as zero-copy :class:`~repro.frameworks.shm.BlockRef`
    views of store-ingested chunk blocks — the whole ensemble is never
    materialized, and the store's capacity watermark spills cold chunks
    exactly like any other block.
:class:`ChunkedPositions`
    the Leaflet Finder view of the same format: a single large
    ``(n_atoms, 3)`` system streamed as atom-row chunks.

Chunks enter the store through
:meth:`~repro.frameworks.shm.SharedMemoryStore.ingest`, which
deduplicates by *fingerprint* (path + chunk index) rather than by array
identity — re-requesting a window re-uses the registered block without
re-reading the file, and nothing driver-side pins the chunk bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import numpy as np

from .trajectory import frame_window, frame_windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..frameworks.shm import BlockRef, SharedMemoryStore

__all__ = [
    "FRAME_CHUNK_MAGIC",
    "FrameChunkWriter",
    "FrameChunkReader",
    "ChunkSource",
    "ChunkedTrajectory",
    "ChunkedPositions",
    "StreamingEnsemble",
    "write_frame_chunks",
    "write_position_chunks",
    "open_streaming_ensemble",
]

#: File magic of the chunked frame format (8 bytes, versioned).
FRAME_CHUNK_MAGIC = b"FCHUNK1\n"

#: Bytes reserved for the JSON header right after the magic + length word.
_HEADER_SPACE = 256

#: Start of the frame data region.
_DATA_OFFSET = len(FRAME_CHUNK_MAGIC) + 8 + _HEADER_SPACE

_FRAME_DTYPE = np.dtype("<f8")


class FrameChunkWriter:
    """Stream ``(n_frames, n_atoms, 3)`` frames into a chunked file.

    The file layout is a small fixed-size header index followed by raw
    frame data::

        bytes [0, 8)    magic  b"FCHUNK1\\n"
        bytes [8, 16)   uint64 little-endian: JSON header length
        bytes [16, 272) JSON header, space-padded to 256 bytes
        bytes [272, .)  C-contiguous little-endian float64 frames

    The header records ``n_frames``, ``n_atoms``, ``frames_per_chunk``
    and the trajectory name; chunk boundaries are implied (chunk ``i``
    covers frames ``[i*K, min(N, (i+1)*K))``), so appending frames needs
    no index rewrite — the header is patched once on :meth:`close` with
    the final frame count.  Appends are true streaming writes: memory
    use is bounded by the largest batch passed to :meth:`append`.

    Parameters
    ----------
    path : str or os.PathLike
        Destination file (conventionally ``.fchunk``).
    n_atoms : int
        Atoms per frame.
    frames_per_chunk : int
        Fixed logical chunk size ``K`` (the ingestion unit).
    name : str, optional
        Trajectory label stored in the header; defaults to the file
        stem.
    """

    def __init__(self, path: str | os.PathLike, n_atoms: int,
                 frames_per_chunk: int, name: str | None = None) -> None:
        if n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if frames_per_chunk < 1:
            raise ValueError("frames_per_chunk must be >= 1")
        self.path = os.fspath(path)
        self.n_atoms = int(n_atoms)
        self.frames_per_chunk = int(frames_per_chunk)
        self.name = name or os.path.splitext(os.path.basename(self.path))[0]
        self._n_frames = 0
        self._fh = open(self.path, "wb")
        self._write_header()

    def _write_header(self) -> None:
        """Write (or rewrite) the fixed-size header region."""
        header = json.dumps({
            "n_frames": self._n_frames,
            "n_atoms": self.n_atoms,
            "frames_per_chunk": self.frames_per_chunk,
            "dtype": _FRAME_DTYPE.str,
            "name": self.name,
        }).encode("utf-8")
        if len(header) > _HEADER_SPACE:
            raise ValueError(
                f"chunk header exceeds the reserved {_HEADER_SPACE} bytes "
                "(shorten the trajectory name)"
            )
        self._fh.seek(0)
        self._fh.write(FRAME_CHUNK_MAGIC)
        self._fh.write(len(header).to_bytes(8, "little"))
        self._fh.write(header.ljust(_HEADER_SPACE, b" "))

    @property
    def n_frames_written(self) -> int:
        """Frames appended so far."""
        return self._n_frames

    def append(self, frames: np.ndarray) -> int:
        """Append a batch of frames; returns the new total frame count.

        Parameters
        ----------
        frames : numpy.ndarray
            ``(m, n_atoms, 3)`` positions (a single ``(n_atoms, 3)``
            frame is also accepted).

        Returns
        -------
        int
            Total frames written after this append.
        """
        if self._fh.closed:
            raise RuntimeError("FrameChunkWriter is closed")
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim == 2:
            frames = frames[None, :, :]
        if frames.ndim != 3 or frames.shape[1] != self.n_atoms or frames.shape[2] != 3:
            raise ValueError(
                f"frames must have shape (m, {self.n_atoms}, 3), got {frames.shape}"
            )
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(np.ascontiguousarray(frames, dtype=_FRAME_DTYPE).tobytes())
        self._n_frames += frames.shape[0]
        return self._n_frames

    def close(self) -> None:
        """Patch the header with the final frame count and close the file."""
        if self._fh.closed:
            return
        self._write_header()
        self._fh.close()

    def __enter__(self) -> "FrameChunkWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FrameChunkReader:
    """Read a file written by :class:`FrameChunkWriter`, chunk by chunk.

    Chunk ``i`` covers frames ``[i*K, min(N, (i+1)*K))`` for the
    header's ``frames_per_chunk`` ``K``; every chunk except possibly the
    last has exactly ``K`` frames.  Reads are positional (seek + read),
    so a reader touches only the bytes of the chunks it is asked for.

    Parameters
    ----------
    path : str or os.PathLike
        File to open.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(FRAME_CHUNK_MAGIC))
            if magic != FRAME_CHUNK_MAGIC:
                raise ValueError(f"{self.path} is not a frame-chunk file")
            header_len = int.from_bytes(fh.read(8), "little")
            if header_len > _HEADER_SPACE:
                raise ValueError(f"{self.path} has a corrupt chunk header")
            header = json.loads(fh.read(header_len).decode("utf-8"))
        self.n_frames = int(header["n_frames"])
        self.n_atoms = int(header["n_atoms"])
        self.frames_per_chunk = int(header["frames_per_chunk"])
        self.name = str(header.get("name", "")) or \
            os.path.splitext(os.path.basename(self.path))[0]
        if header.get("dtype", _FRAME_DTYPE.str) != _FRAME_DTYPE.str:
            raise ValueError(f"{self.path} has unsupported dtype {header['dtype']!r}")

    @property
    def n_chunks(self) -> int:
        """Number of logical chunks in the file."""
        k = self.frames_per_chunk
        return (self.n_frames + k - 1) // k

    @property
    def nbytes(self) -> int:
        """Total frame-data bytes (the out-of-core size of the trajectory)."""
        return self.n_frames * self.n_atoms * 3 * _FRAME_DTYPE.itemsize

    def chunk_range(self, index: int) -> Tuple[int, int]:
        """Frame range ``(start, stop)`` covered by chunk ``index``."""
        if not 0 <= index < self.n_chunks:
            raise IndexError(f"chunk index {index} out of range [0, {self.n_chunks})")
        start = index * self.frames_per_chunk
        return start, min(self.n_frames, start + self.frames_per_chunk)

    def read_chunk(self, index: int) -> np.ndarray:
        """Read one chunk as a fresh ``(m, n_atoms, 3)`` float64 array."""
        start, stop = self.chunk_range(index)
        return self.read_frames(start, stop)

    def read_frames(self, start: int, stop: int) -> np.ndarray:
        """Read frames ``[start, stop)`` (may span chunk boundaries)."""
        if not 0 <= start <= stop <= self.n_frames:
            raise IndexError(
                f"frame range [{start}, {stop}) out of bounds for {self.n_frames} frames"
            )
        frame_items = self.n_atoms * 3
        with open(self.path, "rb") as fh:
            fh.seek(_DATA_OFFSET + start * frame_items * _FRAME_DTYPE.itemsize)
            data = np.fromfile(fh, dtype=_FRAME_DTYPE, count=(stop - start) * frame_items)
        if data.size != (stop - start) * frame_items:
            raise ValueError(f"truncated frame-chunk file {self.path}")
        return data.reshape(stop - start, self.n_atoms, 3)


@dataclass(frozen=True)
class ChunkSource:
    """Picklable loader for one chunk: the healing source of its block.

    Registered with :meth:`~repro.frameworks.shm.SharedMemoryStore.ingest`
    so a spilled chunk block whose ``.blk`` file is lost or corrupted can
    be rewritten from the original chunk file — the ingest-side analogue
    of the pinned-array healing the task plane uses, without keeping the
    chunk bytes alive driver-side.

    Parameters
    ----------
    path : str
        Chunk file the block came from.
    chunk_index : int
        Index of the chunk inside the file.
    as_positions : bool, optional
        Return the chunk flattened to ``(m * n_atoms, 3)`` rows (the
        Leaflet Finder's atom-chunk view) instead of frame-shaped.
    """

    path: str
    chunk_index: int
    as_positions: bool = False

    @property
    def fingerprint(self) -> str:
        """Store-wide dedup key of the chunk this loader reads."""
        kind = "pos" if self.as_positions else "frames"
        return f"fchunk:{os.path.abspath(self.path)}#{self.chunk_index}:{kind}"

    def __call__(self) -> np.ndarray:
        """Read the chunk from its source file."""
        chunk = FrameChunkReader(self.path).read_chunk(self.chunk_index)
        if self.as_positions:
            chunk = chunk.reshape(-1, 3)
        return np.ascontiguousarray(chunk)


def write_frame_chunks(positions: np.ndarray, path: str | os.PathLike,
                       frames_per_chunk: int, name: str | None = None) -> str:
    """Write an ``(n_frames, n_atoms, 3)`` array as a chunked file.

    Convenience wrapper over :class:`FrameChunkWriter` that streams the
    array chunk by chunk (so it also serves as the executable example of
    the append protocol).

    Parameters
    ----------
    positions : numpy.ndarray
        Frames to write.
    path : str or os.PathLike
        Destination ``.fchunk`` file.
    frames_per_chunk : int
        Logical chunk size.
    name : str, optional
        Trajectory label.

    Returns
    -------
    str
        The written path.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[2] != 3:
        raise ValueError(
            f"positions must have shape (n_frames, n_atoms, 3), got {positions.shape}"
        )
    with FrameChunkWriter(path, positions.shape[1], frames_per_chunk,
                          name=name) as writer:
        for start in range(0, positions.shape[0], frames_per_chunk):
            writer.append(positions[start:start + frames_per_chunk])
    return os.fspath(path)


def write_position_chunks(positions: np.ndarray, path: str | os.PathLike,
                          atoms_per_chunk: int, name: str | None = None) -> str:
    """Write an ``(n_atoms, 3)`` system as atom-row chunks.

    The Leaflet Finder's streaming input: each "frame" of the chunk file
    is a single atom, so a chunk is a contiguous row block of the system
    and :class:`ChunkedPositions` streams it back as ``(m, 3)`` blocks.

    Parameters
    ----------
    positions : numpy.ndarray
        ``(n_atoms, 3)`` head-group positions.
    path : str or os.PathLike
        Destination ``.fchunk`` file.
    atoms_per_chunk : int
        Atoms per ingested chunk.
    name : str, optional
        System label.

    Returns
    -------
    str
        The written path.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (n_atoms, 3), got {positions.shape}")
    return write_frame_chunks(positions[:, None, :], path, atoms_per_chunk, name=name)


class ChunkedTrajectory:
    """A lazy, chunk-file-backed trajectory that ingests into a store.

    Frames stay in the file until a window is requested, and on the shm
    plane a window resolves to zero-copy
    :class:`~repro.frameworks.shm.BlockRef` views of store-registered
    chunk blocks (partial chunks become offset sub-refs via
    ``slice_rows``) — the file's bytes enter memory at most
    one chunk at a time and are governed by the store's spill watermark
    from then on.

    Parameters
    ----------
    path : str or os.PathLike
        A ``.fchunk`` file written by :class:`FrameChunkWriter`.
    name : str, optional
        Label; defaults to the header's name.
    """

    def __init__(self, path: str | os.PathLike, name: str | None = None) -> None:
        self.reader = FrameChunkReader(path)
        self.path = self.reader.path
        self.name = name or self.reader.name

    @property
    def n_frames(self) -> int:
        """Number of frames in the backing file."""
        return self.reader.n_frames

    @property
    def n_atoms(self) -> int:
        """Atoms per frame."""
        return self.reader.n_atoms

    @property
    def frames_per_chunk(self) -> int:
        """Logical chunk size of the backing file."""
        return self.reader.frames_per_chunk

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the backing file."""
        return self.reader.n_chunks

    @property
    def nbytes(self) -> int:
        """On-disk frame bytes (what a materialized load would allocate)."""
        return self.reader.nbytes

    def __len__(self) -> int:
        return self.n_frames

    def ingest_chunk(self, store: "SharedMemoryStore", index: int) -> "BlockRef":
        """Ingest chunk ``index`` into ``store`` and return its block ref.

        Deduplicated by the chunk's fingerprint: the first call reads the
        file and registers the block (with its :class:`ChunkSource` as
        the healing source); later calls return the existing ref without
        touching the file, even after the block spilled.
        """
        source = ChunkSource(self.path, index)
        return store.ingest(source.fingerprint, source)

    def window_refs(self, store: "SharedMemoryStore", start: int,
                    stop: int) -> List["BlockRef"]:
        """Resolve frames ``[start, stop)`` as zero-copy chunk refs.

        Full chunks ride as their registered block refs; a window edge
        that cuts through a chunk becomes an offset sub-ref
        (:meth:`~repro.frameworks.shm.BlockRef.slice_rows`), so no frame
        outside the window is ever exposed and nothing is copied.
        """
        start, stop = frame_window(self.n_frames, start, stop)
        refs: List["BlockRef"] = []
        k = self.frames_per_chunk
        for index in range(start // k, (stop - 1) // k + 1):
            c_start, c_stop = self.reader.chunk_range(index)
            ref = self.ingest_chunk(store, index)
            lo = max(start, c_start) - c_start
            hi = min(stop, c_stop) - c_start
            refs.append(ref if (lo, hi) == (0, c_stop - c_start)
                        else ref.slice_rows(lo, hi))
        return refs

    def load_window(self, start: int, stop: int) -> np.ndarray:
        """Materialize frames ``[start, stop)`` only (no store involved)."""
        return self.reader.read_frames(*frame_window(self.n_frames, start, stop))

    def load(self) -> np.ndarray:
        """Materialize the whole trajectory (small fixtures and tests only)."""
        return self.reader.read_frames(0, self.n_frames)


class ChunkedPositions:
    """A single large position system streamed as atom-row chunks.

    Wraps a file written by :func:`write_position_chunks`: the logical
    object is an ``(n_atoms, 3)`` system, the physical layout is one
    atom per "frame", so chunk ``i`` is the contiguous atom rows
    ``[i*K, (i+1)*K)``.  The streamed Leaflet Finder compares chunk
    pairs as they arrive and merges partial components incrementally.

    Parameters
    ----------
    path : str or os.PathLike
        A ``.fchunk`` file with one atom per frame.
    name : str, optional
        Label; defaults to the header's name.
    """

    def __init__(self, path: str | os.PathLike, name: str | None = None) -> None:
        self.reader = FrameChunkReader(path)
        if self.reader.n_atoms != 1:
            raise ValueError(
                f"{path} holds {self.reader.n_atoms}-atom frames; position "
                "chunk files store one atom per frame (write_position_chunks)"
            )
        self.path = self.reader.path
        self.name = name or self.reader.name

    @property
    def n_atoms(self) -> int:
        """Number of atoms in the system."""
        return self.reader.n_frames

    @property
    def atoms_per_chunk(self) -> int:
        """Atoms per ingested chunk."""
        return self.reader.frames_per_chunk

    @property
    def n_chunks(self) -> int:
        """Number of atom chunks."""
        return self.reader.n_chunks

    @property
    def nbytes(self) -> int:
        """On-disk position bytes."""
        return self.reader.nbytes

    def chunk_range(self, index: int) -> Tuple[int, int]:
        """Atom range ``(start, stop)`` of chunk ``index``."""
        return self.reader.chunk_range(index)

    def ingest_chunk(self, store: "SharedMemoryStore", index: int) -> "BlockRef":
        """Ingest atom chunk ``index`` as an ``(m, 3)`` block ref."""
        source = ChunkSource(self.path, index, as_positions=True)
        return store.ingest(source.fingerprint, source)

    def load_chunk(self, index: int) -> np.ndarray:
        """Materialize atom chunk ``index`` as an ``(m, 3)`` array."""
        return self.reader.read_chunk(index).reshape(-1, 3)

    def load(self) -> np.ndarray:
        """Materialize the whole system (small fixtures and tests only)."""
        return self.reader.read_frames(0, self.reader.n_frames).reshape(-1, 3)


class StreamingEnsemble:
    """An ensemble of chunk-file-backed trajectories (the streamed PSA input).

    Quacks like :class:`~repro.trajectory.trajectory.TrajectoryEnsemble`
    (``n_trajectories``, ``labels``, ``validate_consistent_atoms``,
    ``windows``, ``window_payloads``, ``identity``, ``as_arrays``) but
    never materializes members unless explicitly asked: the PSA driver
    calls :meth:`window_payloads`, which resolves a frame window per
    member — as zero-copy chunk refs when a store is given, as
    window-sized arrays otherwise.

    Parameters
    ----------
    members : sequence of ChunkedTrajectory
        The member trajectories.  Windowed analysis requires a uniform
        frame count and chunk size across members
        (:meth:`validate_aligned`).
    """

    def __init__(self, members: Sequence[ChunkedTrajectory]) -> None:
        self.members: List[ChunkedTrajectory] = list(members)

    @property
    def n_trajectories(self) -> int:
        """Number of member trajectories."""
        return len(self.members)

    @property
    def labels(self) -> List[str]:
        """Member names, in order."""
        return [m.name for m in self.members]

    @property
    def n_frames(self) -> int:
        """Uniform member frame count (requires aligned members)."""
        self.validate_aligned()
        return self.members[0].n_frames

    @property
    def nbytes(self) -> int:
        """Total on-disk frame bytes of the ensemble."""
        return sum(m.nbytes for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> ChunkedTrajectory:
        return self.members[index]

    def __iter__(self) -> Iterator[ChunkedTrajectory]:
        return iter(self.members)

    def validate_consistent_atoms(self) -> int:
        """Check all members share an atom count and return it."""
        if not self.members:
            raise ValueError("ensemble is empty")
        counts = {m.n_atoms for m in self.members}
        if len(counts) != 1:
            raise ValueError(
                f"ensemble members have inconsistent atom counts: {sorted(counts)}"
            )
        return counts.pop()

    def validate_aligned(self) -> None:
        """Check members share a frame count and chunk size (windowing needs both)."""
        if not self.members:
            raise ValueError("ensemble is empty")
        frames = {m.n_frames for m in self.members}
        chunks = {m.frames_per_chunk for m in self.members}
        if len(frames) != 1 or len(chunks) != 1:
            raise ValueError(
                "windowed analysis requires aligned members: "
                f"frame counts {sorted(frames)}, chunk sizes {sorted(chunks)}"
            )

    def windows(self, window_frames: int | None = None) -> List[Tuple[int, int]]:
        """Frame windows in arrival order; defaults to chunk boundaries."""
        self.validate_aligned()
        first = self.members[0]
        size = first.frames_per_chunk if window_frames is None else window_frames
        return frame_windows(first.n_frames, size)

    def window_payloads(self, store: "SharedMemoryStore | None", start: int = 0,
                        stop: int | None = None) -> List:
        """Per-member payloads for frames ``[start, stop)``.

        With a store: one list of zero-copy chunk refs per member (the
        shm plane).  Without: one window-sized array per member (the
        pickle plane) — still never more than the window.  ``stop=None``
        is each member's end.
        """
        payloads = []
        for m in self.members:
            lo, hi = frame_window(m.n_frames, start, stop)
            payloads.append(m.load_window(lo, hi) if store is None
                            else m.window_refs(store, lo, hi))
        return payloads

    def identity(self) -> List[Tuple[str, int, int, int]]:
        """Per-member file identity for run fingerprints.

        ``(path, n_frames, n_atoms, frames_per_chunk)`` per member:
        fingerprinting a streamed run never reads the out-of-core bytes.
        """
        return [(os.path.abspath(m.path), m.n_frames, m.n_atoms, m.frames_per_chunk)
                for m in self.members]

    def as_arrays(self) -> List[np.ndarray]:
        """Materialize every member (small fixtures and tests only)."""
        return [m.load() for m in self.members]


def open_streaming_ensemble(paths: Sequence[str | os.PathLike]) -> StreamingEnsemble:
    """Open several chunk files as a :class:`StreamingEnsemble`."""
    return StreamingEnsemble([ChunkedTrajectory(p) for p in paths])
