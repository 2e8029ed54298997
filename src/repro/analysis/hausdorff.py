"""Hausdorff and related path metrics.

The Path Similarity Analysis of the paper (Algorithm 1) quantifies the
similarity of two trajectories with the symmetric Hausdorff distance under
the per-frame ``dRMS`` metric:

.. math::

    d_H(T_1, T_2) = \\max\\Big(
        \\max_{f_1 \\in T_1} \\min_{f_2 \\in T_2} dRMS(f_1, f_2),\\;
        \\max_{f_2 \\in T_2} \\min_{f_1 \\in T_1} dRMS(f_2, f_1) \\Big)

Implementations provided:

* :func:`hausdorff_naive` — the double loop exactly as written in
  Algorithm 1 (reference implementation),
* :func:`hausdorff` — vectorized: one 2D-RMSD matrix then min/max
  reductions (what the parallel tasks execute),
* :func:`hausdorff_earlybreak` — the early-break algorithm of Taha &
  Hanbury (2015) that the paper cites as a potential optimization, run
  blockwise (our ablation benchmark quantifies the speedup over the
  literal scan, :func:`repro.analysis.reference.hausdorff_earlybreak`),
* :func:`hausdorff_windowed` / :func:`window_minima` — per-frame minimum
  squared distances by the per-pair difference formula, tiled in one
  byte-bounded scratch buffer; partition independent, so the streamed
  PSA's merged windows equal one whole pass and :func:`hausdorff_naive`
  bit-for-bit, and
* :func:`discrete_frechet` — the discrete Fréchet distance, the other
  metric offered by MDAnalysis' PSA module, included for completeness.
"""

from __future__ import annotations

import numpy as np

from .rmsd import rmsd, rmsd_matrix

__all__ = [
    "hausdorff",
    "hausdorff_naive",
    "hausdorff_earlybreak",
    "hausdorff_windowed",
    "window_minima",
    "directed_hausdorff",
    "discrete_frechet",
]


def _flatten_paths(traj_a: np.ndarray, traj_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a pair of trajectories and return flattened path views."""
    a = np.asarray(traj_a, dtype=np.float64)
    b = np.asarray(traj_b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != 3 or b.shape[2] != 3:
        raise ValueError("trajectories must have shape (n_frames, n_atoms, 3)")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"trajectories must have the same atom count: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("trajectories must contain at least one frame")
    n_atoms = a.shape[1]
    return a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1), n_atoms


def hausdorff_naive(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Hausdorff distance computed with the literal double loop of Algorithm 1.

    Quadratic in the number of frames and slow in Python; kept as the
    executable specification against which the vectorized and early-break
    variants are verified.
    """
    a = np.asarray(traj_a, dtype=np.float64)
    b = np.asarray(traj_b, dtype=np.float64)
    _flatten_paths(a, b)  # shape validation only
    d_t1 = []
    for frame1 in a:
        d1 = [rmsd(frame1, frame2) for frame2 in b]
        d_t1.append(min(d1))
    d_t2 = []
    for frame2 in b:
        d2 = [rmsd(frame2, frame1) for frame1 in a]
        d_t2.append(min(d2))
    return float(max(max(d_t1), max(d_t2)))


def directed_hausdorff(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Directed Hausdorff distance ``h(A, B) = max_a min_b dRMS(a, b)``."""
    matrix = rmsd_matrix(np.asarray(traj_a, dtype=np.float64),
                         np.asarray(traj_b, dtype=np.float64))
    return float(matrix.min(axis=1).max())


def hausdorff(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance (vectorized).

    Builds the full 2D-RMSD matrix once and takes min/max reductions in
    both directions; this is what each PSA task computes for its block of
    trajectory pairs.
    """
    matrix = rmsd_matrix(np.asarray(traj_a, dtype=np.float64),
                         np.asarray(traj_b, dtype=np.float64))
    forward = matrix.min(axis=1).max()
    backward = matrix.min(axis=0).max()
    return float(max(forward, backward))


def hausdorff_earlybreak(traj_a: np.ndarray, traj_b: np.ndarray,
                         shuffle_seed: int | None = 0, *,
                         block_size: int = 64) -> float:
    """Hausdorff distance with the early-break optimization.

    Implements the algorithm of Taha & Hanbury (IEEE TPAMI 2015) cited by
    the paper: for each point of ``A`` we scan points of ``B`` and break as
    soon as a distance below the current global maximum ``cmax`` is found
    (that point can no longer contribute to the directed Hausdorff value).
    Scanning order is randomized once, which on structured inputs makes
    early breaks much more likely.

    The scan is *blockwise*: squared-distance sub-blocks of
    ``block_size x block_size`` frames are evaluated with the same GEMM
    expansion as :func:`repro.analysis.rmsd.rmsd_matrix` and the cmax
    pruning is applied per block — a running minimum over the processed
    columns retires a row as soon as it drops to ``cmax``, and fully
    retired row blocks skip their remaining column blocks.  It returns
    exactly what the literal per-pair scan
    (:func:`repro.analysis.reference.hausdorff_earlybreak`) returns, the
    symmetric Hausdorff distance; only the work performed changes.
    """
    flat_a, flat_b, n_atoms = _flatten_paths(traj_a, traj_b)
    rng = np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    forward = _directed_earlybreak_blockwise(flat_a, flat_b, rng, block_size)
    backward = _directed_earlybreak_blockwise(flat_b, flat_a, rng, block_size)
    return float(np.sqrt(max(forward, backward) / n_atoms))


def _exact_row_min_d2(a_vec: np.ndarray, points_b: np.ndarray) -> float:
    """Exact min squared distance from one row to all of B, per-pair formula.

    Recomputes with the same ``diff @ diff`` accumulation the reference
    scan uses, so the blockwise kernel returns a bit-identical distance
    (GEMM-expanded block values can differ from the per-pair formula in
    the last ulp).
    """
    best = np.inf
    for b_vec in points_b:
        diff = a_vec - b_vec
        d2 = float(diff @ diff)
        if d2 < best:
            best = d2
    return best


def _directed_earlybreak_blockwise(points_a: np.ndarray, points_b: np.ndarray,
                                   rng: np.random.Generator | None,
                                   block: int) -> float:
    """Blockwise directed early-break pass; returns the exact directed d2.

    Processes the (shuffled) distance matrix in ``block x block`` tiles:
    each row block keeps a running minimum over the column blocks seen so
    far and retires rows whose minimum has dropped to ``cmax`` (they can
    no longer raise the directed maximum), so later column blocks shrink
    — the array-native analogue of the reference scan's inner break.
    """
    if block < 1:
        raise ValueError("block_size must be >= 1")
    order_a = np.arange(points_a.shape[0])
    order_b = np.arange(points_b.shape[0])
    if rng is not None:
        rng.shuffle(order_a)
        rng.shuffle(order_b)
    a = points_a[order_a]
    b = points_b[order_b]
    # remove the common offset before the |a|^2 + |b|^2 - 2ab expansion:
    # pairwise differences are unchanged, but without it a large shared
    # coordinate magnitude cancels catastrophically in the expansion and
    # the pruning would retire the wrong rows
    shift = (a.sum(axis=0) + b.sum(axis=0)) / (a.shape[0] + b.shape[0])
    a = a - shift
    b = b - shift
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    n_a, n_b = a.shape[0], b.shape[0]
    cmax = 0.0
    best_row = -1
    for i0 in range(0, n_a, block):
        i1 = min(i0 + block, n_a)
        row_min = np.full(i1 - i0, np.inf)
        active = np.arange(i1 - i0)
        for j0 in range(0, n_b, block):
            j1 = min(j0 + block, n_b)
            rows = a[i0:i1][active]
            d2 = (sq_a[i0:i1][active][:, None] + sq_b[j0:j1][None, :]
                  - 2.0 * (rows @ b[j0:j1].T))
            np.maximum(d2, 0.0, out=d2)
            row_min[active] = np.minimum(row_min[active], d2.min(axis=1))
            active = active[row_min[active] > cmax]
            if not active.size:
                break
        if active.size:
            mins = row_min[active]
            winner = int(np.argmax(mins))
            if mins[winner] > cmax:
                cmax = float(mins[winner])
                best_row = int(order_a[i0 + active[winner]])
    if best_row < 0:
        return 0.0
    # the pruning decisions above used GEMM-expanded block values; the
    # returned distance is recomputed with the reference per-pair formula
    return _exact_row_min_d2(points_a[best_row], points_b)


#: Byte budget of :func:`window_minima`'s one scratch buffer.  A tile
#: never shrinks below one frame pair, so a pair whose ``3N + 1``
#: float64 values exceed it gets a buffer of exactly that size instead.
_SCRATCH_BYTES = 1 << 20


def _tile_shape(n_a: int, n_b: int, width: int) -> tuple[int, int]:
    """Frames per tile ``(rows, cols)`` within the scratch budget.

    Each frame pair of a tile takes ``width + 1`` float64 values of
    scratch (its ``3N`` squared differences and their sum).  A tile takes
    whole columns of ``win_b`` and as many rows as fit; when not even one
    row fits, it takes one row against as many columns as fit.
    """
    pairs = max(1, _SCRATCH_BYTES // (8 * (width + 1)))
    if pairs >= n_b:
        return min(n_a, pairs // n_b), n_b
    return 1, pairs


def window_minima(win_a: np.ndarray, win_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame minimum squared distances between two frame windows.

    The decomposable core of the streamed Hausdorff computation: for a
    window pair it returns ``(row_min_d2, col_min_d2)`` — for each frame
    of ``win_a`` the minimum squared flat-coordinate distance to any
    frame of ``win_b``, and vice versa.  Squared distances are evaluated
    with the explicit difference formula
    ``((a - b) ** 2).sum()`` rather than the GEMM expansion of
    :func:`repro.analysis.rmsd.rmsd_matrix`: the difference formula is
    *partition independent* (each entry depends only on its own frame
    pair), so minima merged across any window partition via
    ``np.minimum`` are bit-identical to a single whole-trajectory pass —
    the property the streamed driver's bit-identity guarantee rests on.
    GEMM values are shape-dependent in the last ulp and would break it.

    The call allocates one scratch buffer of at most ``_SCRATCH_BYTES``
    (1 MiB; more only when a single frame pair needs more) and computes
    each tile's squares in place inside it, so its memory does not grow
    with the window or atom count.

    Parameters
    ----------
    win_a, win_b : numpy.ndarray
        Frame windows of shape ``(m, n_atoms, 3)`` over the same atoms.

    Returns
    -------
    tuple of numpy.ndarray
        ``(row_min_d2, col_min_d2)`` with shapes ``(len(win_a),)`` and
        ``(len(win_b),)``.
    """
    flat_a, flat_b, _ = _flatten_paths(win_a, win_b)
    (n_a, width), n_b = flat_a.shape, flat_b.shape[0]
    row_min = np.full(n_a, np.inf)
    col_min = np.full(n_b, np.inf)
    tile_a, tile_b = _tile_shape(n_a, n_b, width)
    scratch = np.empty(tile_a * tile_b * (width + 1))
    for i0 in range(0, n_a, tile_a):
        i1 = min(i0 + tile_a, n_a)
        for j0 in range(0, n_b, tile_b):
            j1 = min(j0 + tile_b, n_b)
            # every view is carved C-contiguous from the front of the
            # buffer, so each (i, j) entry is reduced by numpy's pairwise
            # summation over its own contiguous 3N run — the same order as
            # the per-pair rmsd formula, hence bit-identical to the naive
            # double loop (einsum/GEMM would not be)
            n_pairs = (i1 - i0) * (j1 - j0)
            d = scratch[:n_pairs * width].reshape(i1 - i0, j1 - j0, width)
            d2 = scratch[n_pairs * width:n_pairs * (width + 1)].reshape(i1 - i0, j1 - j0)
            np.subtract(flat_a[i0:i1, None, :], flat_b[None, j0:j1, :], out=d)
            np.multiply(d, d, out=d)
            np.sum(d, axis=-1, out=d2)
            np.minimum(row_min[i0:i1], d2.min(axis=1), out=row_min[i0:i1])
            np.minimum(col_min[j0:j1], d2.min(axis=0), out=col_min[j0:j1])
    return row_min, col_min


def hausdorff_windowed(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance via the partition-independent kernel.

    Batch counterpart of the streamed driver: computes
    :func:`window_minima` over the whole pair and reduces.  Because each
    squared distance uses the per-pair difference formula, this equals
    :func:`hausdorff_naive` bit-for-bit, and a streamed run that merges
    per-window minima reproduces it bit-identically regardless of the
    window partition — which is why it is the metric the streaming path
    accepts.
    """
    a = np.asarray(traj_a, dtype=np.float64)
    b = np.asarray(traj_b, dtype=np.float64)
    row_min, col_min = window_minima(a, b)
    n_atoms = a.shape[1]
    return float(np.sqrt(max(row_min.max(), col_min.max()) / n_atoms))


def discrete_frechet(traj_a: np.ndarray, traj_b: np.ndarray) -> float:
    """Discrete Fréchet distance between two trajectories under ``dRMS``.

    Dynamic-programming formulation (Eiter & Mannila 1994).  The Fréchet
    distance is always >= the Hausdorff distance for the same pair; the
    property-based tests assert this invariant.
    """
    matrix = rmsd_matrix(np.asarray(traj_a, dtype=np.float64),
                         np.asarray(traj_b, dtype=np.float64))
    n_a, n_b = matrix.shape
    ca = np.full((n_a, n_b), -1.0)
    ca[0, 0] = matrix[0, 0]
    for i in range(1, n_a):
        ca[i, 0] = max(ca[i - 1, 0], matrix[i, 0])
    for j in range(1, n_b):
        ca[0, j] = max(ca[0, j - 1], matrix[0, j])
    for i in range(1, n_a):
        row_prev = ca[i - 1]
        row_cur = ca[i]
        for j in range(1, n_b):
            row_cur[j] = max(
                min(row_prev[j], row_prev[j - 1], row_cur[j - 1]),
                matrix[i, j],
            )
    return float(ca[-1, -1])
