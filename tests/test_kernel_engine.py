"""Property-based equivalence suite for the vectorized kernel engine.

Every vectorized kernel must match its executable reference *exactly* on
randomized inputs: the flat-array BallTree and the sorted-cell grid
against the brute-force scan (bit-identical index sets and edge arrays),
the min-label-propagation connected components against the union-find
loop and networkx, the vectorized partial-component merge against the
dict/union-find merge, and the blockwise early-break Hausdorff against
the literal Taha & Hanbury scan (equal floats, not approximately equal).
Degenerate cases — coincident points, empty edge lists, single-frame
trajectories, singleton partials — are exercised explicitly.
"""

import importlib.util
import inspect

import numpy as np
import pytest

from repro.analysis import reference
from repro.analysis.graph import (
    connected_components,
    label_components,
    merge_component_sets,
)
from repro.analysis.hausdorff import hausdorff, hausdorff_earlybreak
from repro.analysis.neighbors import (
    BallTree,
    GridNeighborSearch,
    brute_force_radius,
    brute_force_radius_pairs,
    radius_edges,
)
from repro.analysis.rmsd import kabsch_rmsd, rmsd_trajectory


def random_cloud(rng, kind):
    """A point cloud of the named flavour (uniform, clustered, degenerate)."""
    n = int(rng.integers(1, 150))
    if kind == "uniform":
        return rng.uniform(-20.0, 20.0, size=(n, 3))
    if kind == "clustered":
        centers = rng.uniform(-30.0, 30.0, size=(max(1, n // 20), 3))
        return centers[rng.integers(0, len(centers), size=n)] + rng.normal(scale=0.8, size=(n, 3))
    if kind == "coincident":
        # many exactly coincident points plus a few distinct ones
        base = rng.uniform(-5.0, 5.0, size=(max(1, n // 10), 3))
        return base[rng.integers(0, len(base), size=n)]
    if kind == "planar":
        cloud = rng.uniform(-20.0, 20.0, size=(n, 3))
        cloud[:, 2] = 0.0
        return cloud
    raise AssertionError(kind)


CLOUD_KINDS = ("uniform", "clustered", "coincident", "planar")

#: diagonal neighbors of a spacing-3 lattice sit exactly at this cutoff;
#: ``sqrt(18) ** 2`` rounds to just below 18, so how a kernel tests the
#: boundary decides whether they count, and every kernel must agree
LATTICE_CUTOFF = float(np.sqrt(18.0))


def lattice(nx, ny, nz, spacing=3.0):
    """Points of an ``nx x ny x nz`` cubic lattice, row-major."""
    axes = [np.arange(k, dtype=np.float64) * spacing for k in (nx, ny, nz)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


class TestNeighborSearchEquivalence:
    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_searchers_match_brute_force_bitwise(self, kind, seed):
        rng = np.random.default_rng(100 * seed + hash(kind) % 97)
        points = random_cloud(rng, kind)
        queries = random_cloud(rng, kind)[: int(rng.integers(1, 40))]
        radius = float(rng.uniform(0.5, 12.0))
        expected = brute_force_radius(points, queries, radius)
        for searcher in (BallTree(points, leaf_size=int(rng.integers(1, 20))),
                         GridNeighborSearch(points, cell_size=float(rng.uniform(0.5, 8.0)))):
            got = searcher.query_radius(queries, radius)
            assert len(got) == len(expected)
            for e, g in zip(expected, got):
                assert np.array_equal(e, g)     # same ids, same (sorted) order

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_flat_pairs_match_list_view(self, kind, seed):
        rng = np.random.default_rng(500 + seed + hash(kind) % 89)
        points = random_cloud(rng, kind)
        queries = points[: max(1, points.shape[0] // 3)]
        radius = float(rng.uniform(0.5, 10.0))
        bq, bp = brute_force_radius_pairs(points, queries, radius)
        for searcher in (BallTree(points, leaf_size=7),
                         GridNeighborSearch(points, cell_size=radius)):
            q, p = searcher.query_radius_pairs(queries, radius)
            assert np.array_equal(q, bq)
            assert np.array_equal(p, bp)

    @pytest.mark.parametrize("seed", range(6))
    def test_radius_edges_bit_identical_across_methods(self, seed):
        rng = np.random.default_rng(900 + seed)
        points = random_cloud(rng, CLOUD_KINDS[seed % len(CLOUD_KINDS)])
        cutoff = float(rng.uniform(0.5, 10.0))
        brute = radius_edges(points, cutoff, method="brute")
        for method in ("balltree", "grid"):
            edges = radius_edges(points, cutoff, method=method)
            assert edges.dtype == brute.dtype
            assert np.array_equal(edges, brute)   # same pairs in the same order

    @pytest.mark.parametrize("seed", range(4))
    def test_radius_edges_query_subset(self, seed):
        rng = np.random.default_rng(1300 + seed)
        points = random_cloud(rng, "clustered")
        cutoff = float(rng.uniform(1.0, 8.0))
        subset = rng.choice(points.shape[0], size=max(1, points.shape[0] // 4),
                            replace=False)
        brute = radius_edges(points, cutoff, query_indices=subset, method="brute")
        for method in ("balltree", "grid"):
            assert np.array_equal(
                radius_edges(points, cutoff, query_indices=subset, method=method), brute)

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    def test_count_within_matches_query_radius(self, kind):
        rng = np.random.default_rng(hash(kind) % 1000)
        points = random_cloud(rng, kind)
        queries = random_cloud(rng, kind)[:25]
        radius = float(rng.uniform(0.5, 15.0))
        expected = np.array([len(hits) for hits in brute_force_radius(points, queries, radius)])
        tree = BallTree(points, leaf_size=5)
        assert np.array_equal(tree.count_within(queries, radius), expected)
        grid = GridNeighborSearch(points, cell_size=radius)
        assert np.array_equal(grid.count_within(queries, radius), expected)

    @pytest.mark.parametrize("shape", [(6, 6, 3), (12, 12, 2)])
    def test_radius_edges_agree_on_the_exact_cutoff_lattice(self, shape):
        points = lattice(*shape)
        brute = radius_edges(points, LATTICE_CUTOFF, method="brute")
        # axis neighbors (d = 3) are in, diagonal ones (d^2 = 18) are out
        nx, ny, nz = shape
        axis_pairs = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
        assert brute.shape == (axis_pairs, 2)
        for method in ("balltree", "grid"):
            assert np.array_equal(radius_edges(points, LATTICE_CUTOFF, method=method),
                                  brute)
        subset = np.arange(0, points.shape[0], 5)
        sub_brute = radius_edges(points, LATTICE_CUTOFF, query_indices=subset,
                                 method="brute")
        for method in ("balltree", "grid"):
            assert np.array_equal(radius_edges(points, LATTICE_CUTOFF,
                                               query_indices=subset, method=method),
                                  sub_brute)

    def test_grid_keeps_a_pair_binned_two_cells_apart(self):
        # 0.9 and 1.2 are 3 * 0.1 apart in y, but (y + 1.5) / (3 * 0.1)
        # rounds to 7.99.. and 9.0: with cell_size == radius the two points
        # land two cells apart, outside a one-cell stencil
        points = np.array([[-1.5, -1.5, -1.5], [0.9, 1.2, 1.2], [0.9, 0.9, 1.2]])
        radius = 3 * 0.1
        assert radius_edges(points, radius, method="brute").tolist() == [[1, 2]]
        assert radius_edges(points, radius, method="grid").tolist() == [[1, 2]]
        assert radius_edges(points, radius, query_indices=[1],
                            method="grid").tolist() == [[1, 2]]
        grid = GridNeighborSearch(points, cell_size=radius)
        bq, bp = brute_force_radius_pairs(points, points, radius)
        q, p = grid.query_radius_pairs(points, radius)
        assert np.array_equal(q, bq) and np.array_equal(p, bp)

    @staticmethod
    def assert_tree_matches_brute(tree, points, queries, radius):
        bq, bp = brute_force_radius_pairs(points, queries, radius)
        q, p = tree.query_radius_pairs(queries, radius)
        assert q.dtype == p.dtype == np.int64
        assert np.array_equal(q, bq) and np.array_equal(p, bp)
        expected = brute_force_radius(points, queries, radius)
        got = tree.query_radius(queries, radius)
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)
        counts = tree.count_within(queries, radius)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [len(e) for e in expected])

    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    def test_balltree_on_the_exact_cutoff_lattice(self, leaf_size):
        points = lattice(6, 6, 3)
        tree = BallTree(points, leaf_size=leaf_size)
        self.assert_tree_matches_brute(tree, points, points, LATTICE_CUTOFF)
        # radius 3 puts every axis neighbor exactly on the sphere: a corner
        # point counts itself and 3 of them, an interior point 6
        assert tree.count_within(points[[0, 43]], 3.0).tolist() == [4, 7]

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    def test_balltree_leaf_size_one(self, kind):
        rng = np.random.default_rng(7100 + hash(kind) % 71)
        points = random_cloud(rng, kind)
        queries = random_cloud(rng, kind)[:30]
        tree = BallTree(points, leaf_size=1)
        self.assert_tree_matches_brute(tree, points, queries,
                                       float(rng.uniform(0.5, 12.0)))

    def test_balltree_fewer_points_than_leaf_size(self):
        rng = np.random.default_rng(7200)
        points = rng.uniform(-4.0, 4.0, size=(5, 3))
        queries = rng.uniform(-4.0, 4.0, size=(12, 3))
        tree = BallTree(points, leaf_size=64)
        self.assert_tree_matches_brute(tree, points, queries, 3.0)
        self.assert_tree_matches_brute(tree, points, points[:1], 0.1)

    def test_balltree_empty_tree_and_zero_queries(self):
        empty = np.empty((0, 3))
        points = np.random.default_rng(7300).uniform(0.0, 5.0, size=(20, 3))
        for tree_points, queries in ((empty, np.zeros((2, 3))),
                                     (points, np.empty((0, 3))),
                                     (empty, np.empty((0, 3)))):
            tree = BallTree(tree_points)
            self.assert_tree_matches_brute(tree, tree_points, queries, 1.0)
            assert len(tree.query_radius(queries, 1.0)) == queries.shape[0]

    def test_empty_structures(self):
        empty = np.empty((0, 3))
        assert BallTree(empty).query_radius(np.zeros((2, 3)), 1.0)[0].size == 0
        assert BallTree(empty).count_within(np.zeros((2, 3)), 1.0).tolist() == [0, 0]
        i, j = GridNeighborSearch(np.zeros((1, 3)), 1.0).self_join_pairs(1.0)
        assert i.size == 0 and j.size == 0
        assert radius_edges(np.zeros((1, 3)), 5.0).shape == (0, 2)

    def test_all_coincident_points(self):
        points = np.ones((60, 3))
        tree = BallTree(points, leaf_size=4)
        assert tree.query_radius(np.ones((1, 3)), 0.5)[0].size == 60
        assert tree.count_within(np.ones((1, 3)), 0.5)[0] == 60
        edges = radius_edges(points, 0.5, method="grid")
        assert edges.shape[0] == 60 * 59 // 2
        assert np.array_equal(edges, radius_edges(points, 0.5, method="brute"))


class TestGridSubsetJoinEquivalence:
    """The ``query_indices``-aware subset join of :class:`GridNeighborSearch`.

    Large query subsets take the half-stencil self-join plus a
    smaller-endpoint membership filter, small ones the per-query stencil
    scan; both must be bit-identical to filtering the brute-force pairs
    with ``p > q`` — grouped by the queries' order in ``query_indices``,
    neighbor ascending — for every subset shape.
    """

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_subsets_match_brute(self, kind, seed):
        rng = np.random.default_rng(4200 + 10 * seed + hash(kind) % 83)
        points = random_cloud(rng, kind)
        n = points.shape[0]
        cutoff = float(rng.uniform(0.5, 8.0))
        for frac in (0.1, 0.5, 0.8, 1.0):
            m = max(1, int(n * frac))
            subset = rng.choice(n, size=m, replace=False)
            if rng.random() < 0.5:
                subset = np.sort(subset)
            brute = radius_edges(points, cutoff, query_indices=subset,
                                 method="brute")
            grid = radius_edges(points, cutoff, query_indices=subset,
                                method="grid")
            assert grid.dtype == brute.dtype
            assert np.array_equal(grid, brute)
            assert np.array_equal(
                radius_edges(points, cutoff, query_indices=subset,
                             method="balltree"), brute)

    @pytest.mark.parametrize("seed", range(3))
    def test_both_strategies_bit_identical(self, seed):
        """The join+filter and query+filter branches agree exactly."""
        rng = np.random.default_rng(5100 + seed)
        points = random_cloud(rng, "clustered")
        n = points.shape[0]
        cutoff = float(rng.uniform(1.0, 6.0))
        subset = rng.choice(n, size=max(1, int(0.75 * n)), replace=False)
        grid = GridNeighborSearch(points, cell_size=cutoff)
        q, p = grid.subset_join_pairs(subset, cutoff)
        # force the opposite branch by moving the crossover threshold
        flipped = GridNeighborSearch(points, cell_size=cutoff)
        flipped._SUBSET_JOIN_FRACTION = 2.0 if 0.75 >= flipped._SUBSET_JOIN_FRACTION \
            else 0.0
        q2, p2 = flipped.subset_join_pairs(subset, cutoff)
        assert np.array_equal(q, q2)
        assert np.array_equal(p, p2)

    def test_permuted_full_subset_matches_self_join(self):
        rng = np.random.default_rng(6007)
        points = rng.uniform(0, 12, size=(90, 3))
        permuted = rng.permutation(90)
        brute = radius_edges(points, 3.0, query_indices=permuted, method="brute")
        assert np.array_equal(
            radius_edges(points, 3.0, query_indices=permuted, method="grid"), brute)
        # identity order reduces to the plain full-discovery fast path
        ordered = radius_edges(points, 3.0, query_indices=np.arange(90),
                               method="grid")
        assert np.array_equal(ordered, radius_edges(points, 3.0, method="grid"))

    def test_degenerate_subsets(self):
        points = np.random.default_rng(7).uniform(0, 5, size=(40, 3))
        grid = GridNeighborSearch(points, cell_size=2.0)
        q, p = grid.subset_join_pairs(np.empty(0, dtype=np.int64), 2.0)
        assert q.size == 0 and p.size == 0
        single = radius_edges(points, 2.0, query_indices=np.array([17]),
                              method="grid")
        assert np.array_equal(
            single, radius_edges(points, 2.0, query_indices=np.array([17]),
                                 method="brute"))

    def test_duplicate_indices_rejected_but_radius_edges_falls_back(self):
        points = np.random.default_rng(8).uniform(0, 5, size=(30, 3))
        grid = GridNeighborSearch(points, cell_size=2.0)
        with pytest.raises(ValueError, match="unique"):
            grid.subset_join_pairs(np.array([3, 3, 7]), 2.0)
        dup = np.array([3, 3, 7])
        assert np.array_equal(
            radius_edges(points, 2.0, query_indices=dup, method="grid"),
            radius_edges(points, 2.0, query_indices=dup, method="brute"))


class TestConnectedComponentsEquivalence:
    @staticmethod
    def assert_same_components(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("include_singletons", [True, False])
    def test_vectorized_equals_reference_and_networkx(self, seed, include_singletons):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        n_edges = int(rng.integers(0, 300))
        edges = rng.integers(0, n, size=(n_edges, 2))
        vec = connected_components(edges, n, include_singletons)
        ref = reference.connected_components(edges, n, include_singletons)
        nxc = reference.connected_components_networkx(edges, n, include_singletons)
        self.assert_same_components(vec, ref)
        self.assert_same_components(vec, nxc)

    def test_empty_edge_list(self):
        vec = connected_components(np.empty((0, 2)), 5)
        ref = reference.connected_components(np.empty((0, 2)), 5)
        self.assert_same_components(vec, ref)
        assert len(vec) == 5
        assert connected_components(np.empty((0, 2)), 0) == []

    def test_label_components_minimum_labels(self):
        labels = label_components(np.array([[4, 3], [3, 2], [0, 1]]), 6)
        assert labels.tolist() == [0, 0, 2, 2, 2, 5]

    def test_self_loops_and_duplicates(self):
        edges = np.array([[1, 1], [1, 1], [2, 1], [1, 2]])
        vec = connected_components(edges, 4)
        ref = reference.connected_components(edges, 4)
        self.assert_same_components(vec, ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_merge_vectorized_equals_reference(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(2, 200))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 350)), 2))
        partial_sets = [
            [c.tolist() for c in connected_components(chunk, n, include_singletons=False)]
            for chunk in np.array_split(edges, int(rng.integers(1, 7)))
        ]
        vec = merge_component_sets(partial_sets)
        ref = reference.merge_component_sets(partial_sets)
        self.assert_same_components(vec, ref)
        # merged partials reproduce the global components
        expected = connected_components(edges, n, include_singletons=False)
        self.assert_same_components(vec, expected)

    def test_merge_degenerates(self):
        for merge in (merge_component_sets, reference.merge_component_sets):
            assert merge([]) == []
            assert merge([[], []]) == []
            singles = merge([[[7]], [[7]], [[9]]])
            assert [c.tolist() for c in singles] == [[7], [9]]


class TestEarlybreakEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_blockwise_exactly_equals_reference(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n_a = int(rng.integers(1, 24))
        n_b = int(rng.integers(1, 24))
        n_atoms = int(rng.integers(1, 10))
        a = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n_a, n_atoms, 3))
        b = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n_b, n_atoms, 3))
        for shuffle_seed in (None, seed):
            blockwise = hausdorff_earlybreak(a, b, shuffle_seed=shuffle_seed)
            literal = reference.hausdorff_earlybreak(a, b, shuffle_seed=shuffle_seed)
            assert blockwise == literal          # equal floats, not approx
            assert blockwise == pytest.approx(hausdorff(a, b), rel=1e-10)

    @pytest.mark.parametrize("offset", [1e3, 9e6, -5e6])
    @pytest.mark.parametrize("seed", range(4))
    def test_large_common_offset_stays_exact(self, offset, seed):
        """Regression: a large shared coordinate magnitude must not break the
        GEMM expansion's pruning (catastrophic cancellation) — the blockwise
        kernel centers both sets by their common mean first."""
        rng = np.random.default_rng(4000 + seed)
        a = rng.normal(size=(int(rng.integers(1, 20)), 7, 3)) + offset
        b = rng.normal(size=(int(rng.integers(1, 20)), 7, 3)) + offset
        blockwise = hausdorff_earlybreak(a, b, shuffle_seed=seed)
        literal = reference.hausdorff_earlybreak(a, b, shuffle_seed=seed)
        assert blockwise == literal

    @pytest.mark.parametrize("block_size", [1, 3, 17, 256])
    def test_block_size_does_not_change_result(self, block_size):
        rng = np.random.default_rng(77)
        a = rng.normal(size=(21, 6, 3))
        b = rng.normal(size=(13, 6, 3))
        expected = reference.hausdorff_earlybreak(a, b)
        assert hausdorff_earlybreak(a, b, block_size=block_size) == expected

    def test_single_frame_trajectories(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1, 4, 3))
        b = rng.normal(size=(1, 4, 3))
        assert hausdorff_earlybreak(a, b) == reference.hausdorff_earlybreak(a, b)
        assert hausdorff_earlybreak(a, a) == 0.0

    def test_identical_trajectories_zero(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 5, 3))
        for earlybreak in (hausdorff_earlybreak, reference.hausdorff_earlybreak):
            assert earlybreak(a, a.copy()) == 0.0

    def test_invalid_block_size(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 2, 3))
        with pytest.raises(ValueError):
            hausdorff_earlybreak(a, a, block_size=0)


class TestReferenceKernels:
    """The literal formulations live in ``repro.analysis.reference`` alone."""

    def test_disjoint_set_unions_and_groups(self):
        dsu = reference.DisjointSet(6)
        assert dsu.union(4, 3)
        assert dsu.union(3, 2)
        assert not dsu.union(2, 4)          # already one set
        assert dsu.union(0, 1)
        assert dsu.find(2) == dsu.find(4) != dsu.find(0)
        assert sorted(g.tolist() for g in dsu.groups()) == [[0, 1], [2, 3, 4], [5]]

    def test_disjoint_set_sizes(self):
        assert reference.DisjointSet(0).groups() == []
        with pytest.raises(ValueError):
            reference.DisjointSet(-1)

    @pytest.mark.parametrize("kernel", [connected_components, merge_component_sets,
                                        hausdorff_earlybreak],
                             ids=lambda kernel: kernel.__name__)
    def test_hot_kernels_take_no_method(self, kernel):
        assert "method" not in inspect.signature(kernel).parameters

    def test_no_engine_module(self):
        assert importlib.util.find_spec("repro.analysis.engine") is None

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_order_does_not_change_reference_result(self, seed):
        """Shuffling only reorders the scan: every order finds the same float."""
        rng = np.random.default_rng(6000 + seed)
        a = rng.normal(size=(int(rng.integers(1, 20)), 5, 3))
        b = rng.normal(size=(int(rng.integers(1, 20)), 5, 3))
        results = {reference.hausdorff_earlybreak(a, b, shuffle_seed=s)
                   for s in (None, 0, seed + 1, 1000 + seed)}
        assert len(results) == 1


class TestBatchedKabschEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_matches_per_frame_loop(self, seed):
        rng = np.random.default_rng(3000 + seed)
        traj = rng.normal(scale=rng.uniform(0.5, 4.0), size=(17, 9, 3))
        reference = rng.normal(size=(9, 3))
        batched = rmsd_trajectory(traj, reference=reference, superposition=True)
        looped = np.array([kabsch_rmsd(frame, reference) for frame in traj])
        assert np.allclose(batched, looped, rtol=1e-9, atol=1e-12)

    def test_single_frame(self):
        rng = np.random.default_rng(9)
        traj = rng.normal(size=(1, 6, 3))
        out = rmsd_trajectory(traj, superposition=True)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.0, abs=1e-9)

    def test_rotated_copy_has_zero_fitted_rmsd(self):
        rng = np.random.default_rng(10)
        frame = rng.normal(size=(12, 3))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                        [np.sin(theta), np.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        traj = np.stack([frame, frame @ rot.T + 3.0])
        fitted = rmsd_trajectory(traj, reference=frame, superposition=True)
        assert np.allclose(fitted, 0.0, atol=1e-9)
