"""Pairwise distance kernels used by the Leaflet Finder's edge discovery.

Approaches 1–3 of the paper discover graph edges by computing the pairwise
distance between (blocks of) atom positions with ``scipy.spatial.distance
.cdist`` and keeping the pairs closer than the cutoff.  This module wraps
that kernel plus a memory-bounded chunked variant and helpers for
converting the result into edge lists with *global* atom indices (needed
because each task only sees its 2-D block of the full system).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "pairwise_distances",
    "edges_from_block",
    "edges_within_cutoff",
    "self_edges_within_cutoff",
    "iter_distance_blocks",
    "estimate_pairwise_memory",
]


def _as_positions(block) -> np.ndarray:
    """Coerce a position block to a float64 array.

    Accepts anything with a ``resolve()`` method (duck-typed so this
    module stays independent of the frameworks layer), which lets the
    kernels consume :class:`~repro.frameworks.shm.BlockRef` handles from
    the shared-memory data plane without an extra copy.
    """
    resolver = getattr(block, "resolve", None)
    if resolver is not None and not isinstance(block, np.ndarray):
        block = resolver()
    return np.asarray(block, dtype=np.float64)


def _position_pair(block_a, block_b) -> Tuple[np.ndarray, np.ndarray]:
    """Both blocks as float64 arrays, checked to be ``(n, 3)``."""
    a = _as_positions(block_a)
    b = _as_positions(block_b)
    if a.ndim != 2 or a.shape[1] != 3 or b.ndim != 2 or b.shape[1] != 3:
        raise ValueError("position blocks must have shape (n, 3)")
    return a, b


def pairwise_distances(block_a: np.ndarray, block_b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between two position blocks.

    Thin wrapper over :func:`scipy.spatial.distance.cdist` (the paper uses
    exactly this call); both blocks must be ``(n, 3)`` arrays or
    shared-memory refs to them.
    """
    return cdist(*_position_pair(block_a, block_b))


def edges_from_block(
    block_a: np.ndarray,
    block_b: np.ndarray,
    cutoff: float,
    offset_a: int = 0,
    offset_b: int = 0,
    *,
    exclude_self: bool = False,
) -> np.ndarray:
    """Find edges between two position blocks.

    Returns a ``(n_edges, 2)`` integer array of *global* atom index pairs
    ``(offset_a + i, offset_b + j)`` with ``|a_i - b_j|**2 <= cutoff**2``.

    Parameters
    ----------
    exclude_self:
        When the two blocks are the same part of the system (diagonal block
        of the 2-D decomposition), set this to drop ``i == j`` self edges
        and keep each undirected edge once (``i < j``).
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    a, b = _position_pair(block_a, block_b)
    if exclude_self and a.shape[0] != b.shape[0]:
        raise ValueError("exclude_self requires the two blocks to be the same block")
    # squared distances against the squared cutoff: the boundary rule of
    # every neighbor kernel, so pairs at exactly the cutoff agree
    rows, cols = np.nonzero(cdist(a, b, "sqeuclidean") <= cutoff * cutoff)
    if exclude_self:
        # keep strictly upper-triangular entries only: drops i == j self
        # edges and keeps each undirected edge exactly once (filtering the
        # hit list beats materializing an n x n triangular mask)
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
    edges = np.column_stack([rows + offset_a, cols + offset_b]).astype(np.int64)
    return edges


def edges_within_cutoff(
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    cutoff: float,
    offset_a: int = 0,
    offset_b: int = 0,
) -> np.ndarray:
    """Edges between two disjoint position blocks (no self-edge handling)."""
    return edges_from_block(positions_a, positions_b, cutoff, offset_a, offset_b)


def self_edges_within_cutoff(positions: np.ndarray, cutoff: float,
                             offset: int = 0) -> np.ndarray:
    """Edges inside a single position block, each undirected edge once."""
    return edges_from_block(positions, positions, cutoff, offset, offset,
                            exclude_self=True)


def iter_distance_blocks(
    positions: np.ndarray,
    block_size: int,
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Iterate over the upper-triangular 2-D blocks of an all-pairs problem.

    Yields ``(row_offset, col_offset, block_rows, block_cols)`` for every
    block with ``row_offset <= col_offset``; this is the task decomposition
    of the paper's approaches 2–4 (each yielded block is one map task).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (n_atoms, 3)")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n = positions.shape[0]
    starts = list(range(0, n, block_size))
    for i in starts:
        rows = positions[i:i + block_size]
        for j in starts:
            if j < i:
                continue
            yield i, j, rows, positions[j:j + block_size]


def estimate_pairwise_memory(n_rows: int, n_cols: int, dtype_bytes: int = 8) -> int:
    """Bytes needed by one dense ``cdist`` block of shape ``(n_rows, n_cols)``.

    The paper notes that ``cdist``'s double-precision output forced the 4M
    atom dataset to use 42k tasks for approach 3; this helper makes that
    constraint explicit so the planner can size blocks to a memory budget.
    """
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    return int(n_rows) * int(n_cols) * int(dtype_bytes)
