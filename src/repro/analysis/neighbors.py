"""Neighbor-search structures for edge discovery.

Approach 4 of the paper ("Tree-Search") replaces the all-pairs ``cdist``
edge discovery with a compiled tree's fixed-radius query (scikit-learn's
BallTree in the paper).  scikit-learn is not a dependency of this
reproduction: :class:`BallTree` keeps the paper's name and answers its
queries with :class:`scipy.spatial.cKDTree`.  :class:`GridNeighborSearch`
is the ablation: a uniform grid that bins points with a lexsorted
cell-key array and answers queries with ``np.searchsorted`` over the
batched 27-cell stencil.

Every kernel here — the tree, the grid and the brute-force reference —
and :func:`repro.analysis.pairwise.edges_from_block` count a pair as
within the cutoff when its squared distance is ``<= cutoff**2``, so
their results are bit-identical, pairs at exactly the cutoff included.

The flat-pair surface ``query_radius_pairs`` — parallel ``(query_row,
point_index)`` arrays sorted by query — is what the vectorized
:func:`radius_edges` consumes; ``query_radius`` wraps it into the
classic list-of-arrays view.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

__all__ = [
    "BallTree",
    "GridNeighborSearch",
    "brute_force_radius",
    "brute_force_radius_pairs",
    "radius_edges",
]

#: query rows handled per chunk by the brute-force reference (bounds the
#: dense cdist temporary to ~chunk x n_points doubles)
_BRUTE_CHUNK = 2048


def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _sort_pairs(q: np.ndarray, p: np.ndarray,
                n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort flat (query, point) pairs by query then point index.

    Uses one combined integer key so NumPy's stable (radix) integer sort
    applies — measurably faster than ``np.lexsort`` on two keys.
    """
    order = np.argsort(q * np.int64(n_points + 1) + p, kind="stable")
    return q[order], p[order]


def _pairs_to_lists(n_queries: int, q: np.ndarray, p: np.ndarray) -> List[np.ndarray]:
    """Split sorted flat pairs into one sorted index array per query."""
    if not n_queries:
        return []
    counts = np.bincount(q, minlength=n_queries) if q.size else np.zeros(n_queries, dtype=np.int64)
    splits = np.cumsum(counts)[:-1]
    return [np.ascontiguousarray(chunk) for chunk in np.split(p, splits)]


def _squared_norms(delta: np.ndarray) -> np.ndarray:
    """Row-wise ``x*x + y*y + z*z``, summed left to right.

    The order cdist's ``"sqeuclidean"`` and cKDTree use; ``np.einsum``
    may sum in another order and round a pair at exactly the cutoff to
    the other side of it.
    """
    x, y, z = delta[:, 0], delta[:, 1], delta[:, 2]
    return x * x + y * y + z * z


def _axis_cell_distance(span: np.ndarray, frac: np.ndarray, h: float) -> np.ndarray:
    """Squared per-axis distance from queries to cells ``span`` offsets away.

    ``frac`` is the query coordinate relative to its own cell's lower
    corner (in ``[0, h)``); offset 0 contributes zero, positive offsets
    measure to the cell's near face on the right, negative to the left.
    """
    gap = np.maximum(span * h - frac[:, None], frac[:, None] - (span + 1) * h)
    gap = np.maximum(gap, 0.0)
    return gap * gap


def _check_queries(queries: np.ndarray, radius: float) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError("queries must have shape (m, 3)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return queries


def brute_force_radius_pairs(points: np.ndarray, queries: np.ndarray,
                             radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Reference flat pairs: every (query_row, point_index) within ``radius``.

    Evaluated in query chunks so the dense distance block never exceeds
    ``_BRUTE_CHUNK x n_points`` doubles; output order is (query, point)
    ascending, the canonical order every searcher reproduces.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = _check_queries(queries, radius)
    q_chunks: List[np.ndarray] = []
    p_chunks: List[np.ndarray] = []
    for start in range(0, queries.shape[0], _BRUTE_CHUNK):
        block = queries[start:start + _BRUTE_CHUNK]
        sq = cdist(block, points, "sqeuclidean")
        rows, cols = np.nonzero(sq <= radius * radius)
        q_chunks.append(rows.astype(np.int64) + start)
        p_chunks.append(cols.astype(np.int64))
    if not q_chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(q_chunks), np.concatenate(p_chunks)


def brute_force_radius(points: np.ndarray, queries: np.ndarray,
                       radius: float) -> List[np.ndarray]:
    """Reference implementation: indices of ``points`` within ``radius`` of each query."""
    queries = _check_queries(queries, radius)
    q, p = brute_force_radius_pairs(points, queries, radius)
    return _pairs_to_lists(queries.shape[0], q, p)


class BallTree:
    """Fixed-radius neighbor search over 3-D points, for the tree approach.

    The paper's approach 4 queries scikit-learn's compiled BallTree;
    this class keeps that name and surface but is backed by one
    :class:`scipy.spatial.cKDTree` (a compiled k-d tree that releases
    the GIL while it searches).  A point is a hit when its squared
    distance to the query is ``<= radius**2``, the rule every kernel in
    this module uses.

    Parameters
    ----------
    points:
        ``(n, 3)`` array of points.
    leaf_size:
        Maximum number of points in a leaf (cKDTree's ``leafsize``).
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 16) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = points
        self.leaf_size = int(leaf_size)
        self.n_points = points.shape[0]
        self._tree = cKDTree(points, leafsize=self.leaf_size)

    def query_radius_pairs(self, queries: np.ndarray,
                           radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All (query_row, point_index) pairs within ``radius``, sorted by query.

        This is the flat, allocation-friendly form of :meth:`query_radius`:
        two parallel int64 arrays ordered by (query row, point index).
        The queries get a tree of their own, so the search is one
        dual-tree traversal.
        """
        queries = _check_queries(queries, radius)
        hits = cKDTree(queries).sparse_distance_matrix(
            self._tree, radius, output_type="ndarray")
        return _sort_pairs(hits["i"], hits["j"], self.n_points)

    def query_radius(self, queries: np.ndarray, radius: float) -> List[np.ndarray]:
        """Indices of tree points within ``radius`` of each query point.

        Returns a list with one sorted index array per query row.
        """
        queries = _check_queries(queries, radius)
        q, p = self.query_radius_pairs(queries, radius)
        return _pairs_to_lists(queries.shape[0], q, p)

    def count_within(self, queries: np.ndarray, radius: float) -> np.ndarray:
        """Number of tree points within ``radius`` of each query point.

        Counts without materializing index lists: a node entirely inside
        the query sphere contributes its size wholesale.
        """
        queries = _check_queries(queries, radius)
        counts = self._tree.query_ball_point(queries, radius, return_length=True)
        return counts.astype(np.int64, copy=False)


class GridNeighborSearch:
    """Uniform-grid (cell list) fixed-radius neighbor search.

    Bins points into cubic cells of edge ``cell_size`` (default: the query
    radius) and answers radius queries by scanning the 27 neighboring
    cells.  The bins are a lexsorted array of scalar cell keys, so a
    batch of queries gathers every stencil bucket with two
    ``np.searchsorted`` calls instead of per-cell dict lookups.  For
    homogeneous systems such as lipid bilayers this is O(n) build and
    O(1) expected per query; included as an ablation against the
    BallTree.
    """

    #: dense start/count tables are built while ``prod(dims)`` stays below
    #: ``max(_DENSE_MIN_CELLS, _DENSE_CELLS_PER_POINT * n)``; pathologically
    #: sparse clouds fall back to ``np.searchsorted`` over the sorted keys
    _DENSE_MIN_CELLS = 4096
    _DENSE_CELLS_PER_POINT = 16

    #: relative slack on the binning edge and on the cell-pruning radius.
    #: A point's cell comes from a rounded ``(x - origin) / h``, so two
    #: points exactly ``radius == cell_size`` apart can land two cells
    #: apart; binning on a slightly wider edge and pruning with a slightly
    #: wider radius keeps their cells in reach, and the exact squared
    #: distance test decides
    _CELL_SLACK = 1e-9

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = points
        self.cell_size = float(cell_size)
        self._h = self.cell_size * (1.0 + 2.0 * self._CELL_SLACK)
        self.n_points = points.shape[0]
        self._origin = points.min(axis=0) if self.n_points else np.zeros(3)
        self._cell_starts: np.ndarray | None = None
        self._cell_counts: np.ndarray | None = None
        if self.n_points:
            cells = np.floor((points - self._origin) / self._h).astype(np.int64)
            self._dims = cells.max(axis=0) + 1
            keys = self._encode(cells)
            self._order = np.argsort(keys, kind="stable")
            self._sorted_keys = keys[self._order]
            n_cells = int(self._dims.prod())
            if n_cells <= max(self._DENSE_MIN_CELLS,
                              self._DENSE_CELLS_PER_POINT * self.n_points):
                # dense per-cell bucket tables: O(1) lookups per stencil cell
                self._cell_counts = np.bincount(self._sorted_keys, minlength=n_cells)
                self._cell_starts = np.concatenate(
                    [np.zeros(1, dtype=np.int64),
                     np.cumsum(self._cell_counts)[:-1]])
        else:
            self._dims = np.ones(3, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._sorted_keys = np.empty(0, dtype=np.int64)

    def _cell_reach(self, radius: float) -> Tuple[float, int]:
        """The slack-padded pruning radius and the stencil reach in cells."""
        cell_radius = radius * (1.0 + self._CELL_SLACK)
        return cell_radius, int(np.ceil(cell_radius / self._h))

    def _encode(self, cells: np.ndarray) -> np.ndarray:
        """Scalar cell key for in-range integer cell coordinates."""
        return (cells[..., 0] * self._dims[1] + cells[..., 1]) * self._dims[2] + cells[..., 2]

    def _stencil_buckets(self, queries: np.ndarray,
                         radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket (start, count) arrays, shape ``(m, S)``, for every stencil cell.

        The stencil key of cell ``(cx+a, cy+b, cz+c)`` separates into three
        per-axis terms, so the ``(m, S)`` key matrix is one broadcast sum of
        three ``(m, 2*reach+1)`` arrays instead of ``(m, S, 3)`` temporaries.
        """
        m = queries.shape[0]
        h = self._h
        cell_radius, reach = self._cell_reach(radius)
        span = np.arange(-reach, reach + 1, dtype=np.int64)
        width = span.size
        local = queries - self._origin
        qcells = np.floor(local / h).astype(np.int64)
        ax = qcells[:, 0, None] + span
        ay = qcells[:, 1, None] + span
        az = qcells[:, 2, None] + span
        # per-axis distance from the query to each offset cell's slab; the
        # broadcast sum lower-bounds the query-to-cell box distance, so
        # cells farther than the radius are dropped before any gathering
        frac = local - qcells * h
        d_x = _axis_cell_distance(span, frac[:, 0], h)
        d_y = _axis_cell_distance(span, frac[:, 1], h)
        d_z = _axis_cell_distance(span, frac[:, 2], h)
        near = (d_x[:, :, None, None] + d_y[:, None, :, None]
                + d_z[:, None, None, :]) <= cell_radius * cell_radius
        valid = ((ax >= 0) & (ax < self._dims[0]))[:, :, None, None] \
            & ((ay >= 0) & (ay < self._dims[1]))[:, None, :, None] \
            & ((az >= 0) & (az < self._dims[2]))[:, None, None, :] \
            & near
        keys = (ax * (self._dims[1] * self._dims[2]))[:, :, None, None] \
            + (ay * self._dims[2])[:, None, :, None] \
            + az[:, None, None, :]
        valid = valid.reshape(m, width ** 3)
        keys = keys.reshape(m, width ** 3)
        if self._cell_starts is not None:
            keys = np.where(valid, keys, 0)
            starts = self._cell_starts[keys]
            counts = np.where(valid, self._cell_counts[keys], 0)
        else:
            keys = np.where(valid, keys, -1)
            starts = np.searchsorted(self._sorted_keys, keys, side="left")
            stops = np.searchsorted(self._sorted_keys, keys, side="right")
            counts = np.where(valid, stops - starts, 0)
        return starts, counts

    def query_radius_pairs(self, queries: np.ndarray,
                           radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All (query_row, point_index) pairs within ``radius``, sorted by query."""
        queries = _check_queries(queries, radius)
        empty = np.empty(0, dtype=np.int64)
        if not self.n_points or not queries.shape[0]:
            return empty, empty.copy()
        starts, counts = self._stencil_buckets(queries, radius)
        n_stencil = counts.shape[1]
        counts = counts.ravel()
        pos = np.repeat(starts.ravel(), counts) + _grouped_arange(counts)
        cand_p = self._order[pos]
        cell_q = np.repeat(np.arange(queries.shape[0], dtype=np.int64), n_stencil)
        cand_q = np.repeat(cell_q, counts)
        delta = self.points[cand_p] - queries[cand_q]
        mask = _squared_norms(delta) <= radius * radius
        return _sort_pairs(cand_q[mask], cand_p[mask], self.n_points)

    def query_radius(self, queries: np.ndarray, radius: float) -> List[np.ndarray]:
        """Indices of stored points within ``radius`` of each query point."""
        queries = _check_queries(queries, radius)
        q, p = self.query_radius_pairs(queries, radius)
        return _pairs_to_lists(queries.shape[0], q, p)

    def count_within(self, queries: np.ndarray, radius: float) -> np.ndarray:
        """Number of stored points within ``radius`` of each query point."""
        queries = _check_queries(queries, radius)
        q, _p = self.query_radius_pairs(queries, radius)
        return np.bincount(q, minlength=queries.shape[0]).astype(np.int64)

    #: subset fraction above which the half-stencil self-join (n·d/2
    #: distance tests, then a membership filter) beats querying the full
    #: stencil for every subset point (m·d tests); measured crossover on
    #: a 20k uniform cloud is ~0.7
    _SUBSET_JOIN_FRACTION = 0.7

    def subset_join_pairs(self, query_indices: np.ndarray,
                          radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Edges ``(q, p)``, ``q`` in ``query_indices`` and ``p > q``.

        The ``query_indices`` form of :meth:`self_join_pairs` (approach
        4 hands every task a slice of query atoms searched against the
        global grid).  The wanted edge set is exactly the unordered
        close pairs whose *smaller* endpoint is a query — a pair with
        both endpoints in the subset is emitted from its smaller index
        and suppressed (``p > q``) from its larger, and a cross pair is
        emitted only when the query is the smaller side.  For subsets
        above :data:`_SUBSET_JOIN_FRACTION` of the points it is
        therefore cheaper to run the half-stencil self-join — each
        unordered pair distance-tested exactly once instead of once per
        in-subset endpoint — and filter on the smaller endpoint's
        membership; smaller subsets keep the per-query stencil scan.
        Output is bit-identical either way: grouped by the queries'
        order in ``query_indices``, neighbor index ascending.

        Parameters
        ----------
        query_indices : numpy.ndarray
            Unique indices into the stored points (the grid side always
            contains *all* points).
        radius : float
            Search radius.

        Returns
        -------
        q, p : numpy.ndarray
            Parallel int64 arrays of edge endpoints, ``p > q``.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        query_indices = np.asarray(query_indices, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        m = query_indices.size
        if m == 0 or not self.n_points:
            return empty, empty.copy()
        if np.unique(query_indices).size != m:
            raise ValueError("query_indices must be unique for the subset join")
        if m < self._SUBSET_JOIN_FRACTION * self.n_points:
            # per-query stencil scan; its (row, point) order filtered on
            # p > q is already the canonical output order
            q, p = self.query_radius_pairs(self.points[query_indices], radius)
            qg = query_indices[q]
            keep = p > qg
            return np.ascontiguousarray(qg[keep]), np.ascontiguousarray(p[keep])
        lo, hi = self.self_join_pairs(radius)
        in_set = np.zeros(self.n_points, dtype=bool)
        in_set[query_indices] = True
        keep = in_set[lo]
        qs, ps = lo[keep], hi[keep]
        if not qs.size:
            return empty, empty.copy()
        # canonical order: group position in query_indices, then neighbor
        rank = np.full(self.n_points, -1, dtype=np.int64)
        rank[query_indices] = np.arange(m, dtype=np.int64)
        order = np.argsort(rank[qs] * np.int64(self.n_points + 1) + ps,
                           kind="stable")
        return qs[order], ps[order]

    def self_join_pairs(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All stored-point pairs ``(i, j)``, ``i < j``, closer than ``radius``.

        The classic half cell list: every unordered cell pair is visited
        once (own cell plus the lexicographically forward half of the
        stencil), so each candidate pair is distance-tested exactly once —
        half the work of querying every point against the full stencil.
        Output matches :func:`radius_edges` with ``method="brute"``:
        sorted by ``(i, j)``.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        empty = np.empty(0, dtype=np.int64)
        if self.n_points < 2:
            return empty, empty.copy()
        h = self._h
        cell_radius, reach = self._cell_reach(radius)
        # occupied cells as groups of the key-sorted point order
        uniq, gstart, gcount = np.unique(self._sorted_keys,
                                         return_index=True, return_counts=True)
        d1, d2 = int(self._dims[1]), int(self._dims[2])
        cx = uniq // (d1 * d2)
        rem = uniq - cx * (d1 * d2)
        cy = rem // d2
        cz = rem - cy * d2
        span = np.arange(-reach, reach + 1, dtype=np.int64)
        offs = np.stack(np.meshgrid(span, span, span, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        forward = (offs[:, 0] > 0) | ((offs[:, 0] == 0) & (
            (offs[:, 1] > 0) | ((offs[:, 1] == 0) & (offs[:, 2] >= 0))))
        offs = offs[forward]
        # minimum box-to-box distance per offset prunes far stencil cells
        gap = np.maximum(np.abs(offs) - 1, 0) * h
        offs = offs[(gap * gap).sum(axis=1) <= cell_radius * cell_radius]
        own = (offs == 0).all(axis=1)                 # the (0, 0, 0) offset
        tx = cx[:, None] + offs[:, 0]
        ty = cy[:, None] + offs[:, 1]
        tz = cz[:, None] + offs[:, 2]                 # (G, F)
        valid = ((tx >= 0) & (tx < self._dims[0])
                 & (ty >= 0) & (ty < self._dims[1])
                 & (tz >= 0) & (tz < self._dims[2]))
        tkey = (tx * d1 + ty) * d2 + tz
        if self._cell_starts is not None:
            tkey = np.where(valid, tkey, 0)
            bstart = self._cell_starts[tkey]
            bcount = np.where(valid, self._cell_counts[tkey], 0)
        else:
            tkey = np.where(valid, tkey, -1)
            bstart = np.searchsorted(self._sorted_keys, tkey, side="left")
            bstop = np.searchsorted(self._sorted_keys, tkey, side="right")
            bcount = np.where(valid, bstop - bstart, 0)
        n_pairs = (gcount[:, None] * bcount).ravel()  # candidates per cell pair
        r = _grouped_arange(n_pairs)
        b_sizes = np.repeat(bcount.ravel(), n_pairs)
        a_local = r // b_sizes
        b_local = r - a_local * b_sizes
        a_pos = np.repeat(np.repeat(gstart, offs.shape[0]), n_pairs) + a_local
        b_pos = np.repeat(bstart.ravel(), n_pairs) + b_local
        pi = self._order[a_pos]
        pj = self._order[b_pos]
        delta = self.points[pi] - self.points[pj]
        keep = _squared_norms(delta) <= radius * radius
        # own-cell products contain both orders and the diagonal: keep i < j
        keep &= (pi < pj) | ~np.repeat(np.tile(own, uniq.size), n_pairs)
        pi, pj = pi[keep], pj[keep]
        lo = np.minimum(pi, pj)
        hi = np.maximum(pi, pj)
        return _sort_pairs(lo, hi, self.n_points)


def radius_edges(points: np.ndarray, cutoff: float, *,
                 query_indices: Sequence[int] | np.ndarray | None = None,
                 method: str = "balltree", leaf_size: int = 16) -> np.ndarray:
    """Undirected edges (i, j), i < j, between points closer than ``cutoff``.

    The edge array is assembled from the searcher's flat (query, point)
    pairs with one vectorized filter — no per-query Python loop — and is
    bit-identical across methods: grouped by query (in ``query_indices``
    order), neighbor index ascending within each group.

    Parameters
    ----------
    points:
        ``(n, 3)`` positions of the full system.
    query_indices:
        If given, only edges incident to these points are searched for (the
        tree still contains *all* points).  This is how approach 4
        parallelizes: every task owns a slice of query atoms but queries
        against the global tree.
    method:
        ``"balltree"``, ``"grid"`` or ``"brute"``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if query_indices is None:
        if method == "grid":
            # full self-join: the half-stencil cell list touches every
            # unordered pair once instead of querying the full stencil
            i, j = GridNeighborSearch(points, cell_size=cutoff).self_join_pairs(cutoff)
            if not i.size:
                return np.empty((0, 2), dtype=np.int64)
            return np.column_stack([i, j])
        query_indices = np.arange(n, dtype=np.int64)
    else:
        query_indices = np.asarray(query_indices, dtype=np.int64)
    queries = points[query_indices]
    if method == "balltree":
        q, p = BallTree(points, leaf_size=leaf_size).query_radius_pairs(queries, cutoff)
    elif method == "grid":
        grid = GridNeighborSearch(points, cell_size=cutoff)
        if np.unique(query_indices).size == query_indices.size:
            # subset join: large query subsets run the half-stencil
            # self-join (each unordered pair tested once) plus a
            # membership filter; small ones the per-query stencil scan
            i, j = grid.subset_join_pairs(query_indices, cutoff)
            if not i.size:
                return np.empty((0, 2), dtype=np.int64)
            return np.column_stack([i, j])
        # duplicate query indices: the per-query scan reproduces the
        # duplicates exactly like the other methods
        q, p = grid.query_radius_pairs(queries, cutoff)
    elif method == "brute":
        q, p = brute_force_radius_pairs(points, queries, cutoff)
    else:
        raise ValueError(f"unknown neighbor search method {method!r}")
    qi = query_indices[q]
    keep = p > qi  # i < j, drops self edge
    if not keep.any():
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([qi[keep], p[keep]])
