"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.graph import (
    components_to_labels,
    connected_components,
    merge_component_sets,
    merge_packed,
    pack_components,
    partial_components,
    unpack_components,
)
from repro.analysis.hausdorff import hausdorff, hausdorff_earlybreak, hausdorff_naive
from repro.analysis.neighbors import BallTree, brute_force_radius
from repro.analysis.reference import DisjointSet, connected_components_networkx
from repro.analysis.reference import merge_component_sets as reference_merge
from repro.analysis.rmsd import pairwise_rmsd_loop, rmsd_matrix
from repro.core.partitioning import (
    choose_group_size,
    one_dimensional_partition,
    two_dimensional_partition,
)
from repro.frameworks import make_framework
from repro.frameworks.faults import FaultPolicy, FaultSpec
from repro.frameworks.sparklite.partitioner import split_into_partitions

# keep example sizes small: these kernels are O(n^2)
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def traj_pair_strategy(max_frames=6, max_atoms=6):
    """Two trajectories with the same atom count."""
    return st.tuples(
        st.integers(1, max_frames), st.integers(1, max_frames), st.integers(1, max_atoms),
        st.integers(0, 2 ** 16),
    )


def _make_pair(n_a, n_b, atoms, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-10, 10, size=(n_a, atoms, 3)),
            rng.uniform(-10, 10, size=(n_b, atoms, 3)))


class TestHausdorffProperties:
    @SETTINGS
    @given(traj_pair_strategy())
    def test_symmetry_and_nonnegativity(self, params):
        a, b = _make_pair(*params)
        d_ab = hausdorff(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(hausdorff(b, a), rel=1e-9, abs=1e-9)

    @SETTINGS
    @given(traj_pair_strategy())
    def test_identity(self, params):
        a, _ = _make_pair(*params)
        assert hausdorff(a, a) == pytest.approx(0.0, abs=1e-6)

    @SETTINGS
    @given(traj_pair_strategy(max_frames=5, max_atoms=4))
    def test_implementations_agree(self, params):
        a, b = _make_pair(*params)
        reference = hausdorff_naive(a, b)
        assert hausdorff(a, b) == pytest.approx(reference, rel=1e-8, abs=1e-8)
        assert hausdorff_earlybreak(a, b) == pytest.approx(reference, rel=1e-8, abs=1e-8)

    @SETTINGS
    @given(traj_pair_strategy(), st.floats(-5.0, 5.0))
    def test_translation_invariance_of_relative_order(self, params, shift):
        """Shifting both trajectories by the same vector leaves the distance unchanged."""
        a, b = _make_pair(*params)
        d_original = hausdorff(a, b)
        d_shifted = hausdorff(a + shift, b + shift)
        assert d_shifted == pytest.approx(d_original, rel=1e-7, abs=1e-7)


class TestRmsdMatrixProperties:
    @SETTINGS
    @given(traj_pair_strategy(max_frames=5, max_atoms=4))
    def test_vectorized_matches_loop(self, params):
        a, b = _make_pair(*params)
        assert np.allclose(rmsd_matrix(a, b), pairwise_rmsd_loop(a, b), atol=1e-8)

    @SETTINGS
    @given(traj_pair_strategy(max_frames=5, max_atoms=4))
    def test_transpose_relation(self, params):
        a, b = _make_pair(*params)
        assert np.allclose(rmsd_matrix(a, b), rmsd_matrix(b, a).T, atol=1e-10)


class TestNeighborProperties:
    @SETTINGS
    @given(st.integers(1, 60), st.floats(0.5, 10.0), st.integers(0, 2 ** 16))
    def test_balltree_matches_bruteforce(self, n_points, radius, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 20, size=(n_points, 3))
        queries = points[: min(10, n_points)]
        tree_hits = BallTree(points, leaf_size=4).query_radius(queries, radius)
        brute_hits = brute_force_radius(points, queries, radius)
        for t, b in zip(tree_hits, brute_hits):
            assert np.array_equal(np.sort(t), np.sort(b))


class TestGraphProperties:
    edges_strategy = st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=0, max_size=80
    )

    @SETTINGS
    @given(edges_strategy)
    def test_components_partition_nodes(self, edge_list):
        n = 30
        edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
        comps = connected_components(edges, n)
        flat = sorted(int(x) for c in comps for x in c)
        assert flat == list(range(n))          # every node in exactly one component
        labels = components_to_labels(comps, n)
        for a, b in edges:
            assert labels[a] == labels[b]       # endpoints always share a component

    @SETTINGS
    @given(edges_strategy)
    def test_union_find_matches_networkx(self, edge_list):
        n = 30
        edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
        ours = [c.tolist() for c in connected_components(edges, n)]
        theirs = [c.tolist() for c in connected_components_networkx(edges, n)]
        assert ours == theirs

    @SETTINGS
    @given(edges_strategy, st.integers(1, 5))
    def test_partial_merge_equals_global(self, edge_list, n_blocks):
        """Splitting edges into blocks and merging partial components is lossless."""
        n = 30
        edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
        expected = [c.tolist() for c in connected_components(edges, n,
                                                             include_singletons=False)]
        partials = []
        for chunk in np.array_split(edges, n_blocks) if len(edges) else []:
            comps = connected_components(chunk, n, include_singletons=False)
            partials.append([c.tolist() for c in comps])
        merged = [c.tolist() for c in merge_component_sets(partials)]
        assert merged == expected

    @SETTINGS
    @given(st.lists(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=8),
                             max_size=6), max_size=5))
    def test_packed_merge_equals_reference(self, partial_sets):
        """Merging packed sets equals the list-based reference merge, for
        overlapping, unsorted partials with repeated members."""
        packed = [pack_components(np.array([a for comp in s for a in comp], dtype=np.int64),
                                  np.array([len(comp) for comp in s], dtype=np.int64))
                  for s in partial_sets]
        merged = [c.tolist() for c in unpack_components(merge_packed(packed))]
        assert merged == [c.tolist() for c in reference_merge(partial_sets)]

    @SETTINGS
    @given(edges_strategy, st.integers(1, 5))
    def test_packed_partial_components_merge_to_global(self, edge_list, n_blocks):
        """Each block's packed partial components unpack to the block's
        own components, and their packed merge gives the global ones."""
        n = 30
        edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]  # map tasks never see self-loops
        chunks = np.array_split(edges, n_blocks)
        packed = [partial_components(chunk) for chunk in chunks]
        for chunk, one in zip(chunks, packed):
            assert ([c.tolist() for c in unpack_components(one)]
                    == [c.tolist() for c in connected_components(
                        chunk, n, include_singletons=False)])
        merged = [c.tolist() for c in unpack_components(merge_packed(packed))]
        assert merged == [c.tolist() for c in connected_components(
            edges, n, include_singletons=False)]

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
    def test_disjoint_set_group_sizes(self, pairs):
        dsu = DisjointSet(20)
        for a, b in pairs:
            dsu.union(a, b)
        groups = dsu.groups()
        assert sum(len(g) for g in groups) == 20
        assert all(dsu.find(int(g[0])) == dsu.find(int(x)) for g in groups for x in g)


def _retry_task(x):
    """A deterministic numeric task for the retry-determinism property."""
    return float(np.sum(x * x) + np.sum(np.sort(x)[:3]))


_RETRY_N_TASKS = 7
_RETRY_BASELINE: dict = {}


def _retry_workload():
    """Fixed-seed task payloads (rebuilt per run so faults cannot mutate them)."""
    rng = np.random.default_rng(2024)
    return [rng.uniform(-5, 5, size=16) for _ in range(_RETRY_N_TASKS)]


def _retry_results(framework_name, **kwargs):
    fw = make_framework(framework_name, executor="serial", **kwargs)
    try:
        results = fw.map_tasks(_retry_task, _retry_workload())
        return results, fw.metrics
    finally:
        fw.close()


class TestRetryDeterminism:
    """One injected fault at *any* task index leaves the results bit-identical.

    The resilience layer's core contract: because faults are consumed at
    first-attempt dispatch and tasks are deterministic, a run that loses
    a worker (or hits a transient raise) at any position recovers to
    exactly the fault-free answer, with the retry accounted.
    """

    @SETTINGS
    @given(st.sampled_from(("sparklite", "dasklite", "pilot", "mpilite")),
           st.integers(0, _RETRY_N_TASKS - 1),
           st.sampled_from(("raise", "kill_worker", "delay")))
    def test_single_fault_any_position_is_invisible(self, name, position, kind):
        baseline = _RETRY_BASELINE.setdefault(
            "results", _retry_results("dasklite")[0])
        spec = FaultSpec(kind, at_task=position, delay_s=0.0)
        results, metrics = _retry_results(name, fault_policy=FaultPolicy(),
                                          faults=spec)
        assert results == baseline          # bit-identical floats
        expected_retries = 0 if kind == "delay" else 1
        assert metrics.tasks_retried == expected_retries
        assert metrics.tasks_lost == (1 if kind == "kill_worker" else 0)

    @SETTINGS
    @given(st.integers(0, _RETRY_N_TASKS - 1), st.integers(0, _RETRY_N_TASKS - 1))
    def test_two_faults_any_positions_are_invisible(self, first, second):
        baseline = _RETRY_BASELINE.setdefault(
            "results", _retry_results("dasklite")[0])
        specs = [FaultSpec("raise", at_task=first)]
        if second != first:
            specs.append(FaultSpec("kill_worker", at_task=second))
        results, metrics = _retry_results("dasklite", fault_policy=FaultPolicy(),
                                          faults=specs)
        assert results == baseline
        assert metrics.tasks_retried == len(specs)


class TestPartitioningProperties:
    @SETTINGS
    @given(st.integers(0, 200), st.integers(1, 20))
    def test_1d_partition_is_a_partition(self, n_items, n_chunks):
        ranges = one_dimensional_partition(n_items, n_chunks)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(n_items))
        sizes = [stop - start for start, stop in ranges]
        if sizes:
            assert max(sizes) - min(sizes) <= 1   # balanced

    @SETTINGS
    @given(st.integers(2, 60), st.integers(1, 60))
    def test_2d_partition_covers_pairs_once(self, n_items, chunk):
        blocks = two_dimensional_partition(n_items, chunk)
        seen = set()
        for b in blocks:
            for i in range(b.row_start, b.row_stop):
                for j in range(b.col_start, b.col_stop):
                    if b.diagonal and j <= i:
                        continue
                    assert (i, j) not in seen
                    seen.add((i, j))
        assert seen == {(i, j) for i in range(n_items) for j in range(i + 1, n_items)}

    @SETTINGS
    @given(st.integers(1, 500), st.integers(1, 300))
    def test_choose_group_size_valid(self, n_items, target):
        chunk = choose_group_size(n_items, target)
        assert 1 <= chunk <= n_items

    @SETTINGS
    @given(st.lists(st.integers(), max_size=100), st.integers(1, 12))
    def test_split_into_partitions_preserves_order(self, data, n_parts):
        parts = split_into_partitions(data, n_parts)
        assert len(parts) == n_parts
        assert [x for p in parts for x in p] == data
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
