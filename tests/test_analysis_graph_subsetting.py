"""Unit tests for graph kernels and sub-setting helpers."""

import numpy as np
import pytest

from repro.analysis.graph import (
    components_to_labels,
    connected_components,
    merge_component_sets,
    normalize_components,
)
from repro.analysis.reference import DisjointSet, connected_components_networkx
from repro.analysis.subsetting import (
    stride_frames,
    subset_atoms,
    subset_ensemble,
    subset_frames,
    subset_trajectory,
    within_sphere,
)
from repro.trajectory import Topology, Trajectory, TrajectoryEnsemble


class TestDisjointSet:
    def test_initial_singletons(self):
        dsu = DisjointSet(4)
        assert len(dsu.groups()) == 4

    def test_union_and_find(self):
        dsu = DisjointSet(5)
        assert dsu.union(0, 1) is True
        assert dsu.union(1, 2) is True
        assert dsu.union(0, 2) is False  # already together
        assert dsu.find(0) == dsu.find(2)
        assert dsu.find(3) != dsu.find(0)

    def test_groups_partition_all_elements(self):
        dsu = DisjointSet(6)
        dsu.union(0, 5)
        dsu.union(2, 3)
        groups = dsu.groups()
        flat = sorted(int(x) for g in groups for x in g)
        assert flat == list(range(6))

    def test_negative_size(self):
        with pytest.raises(ValueError):
            DisjointSet(-1)

    def test_empty(self):
        assert DisjointSet(0).groups() == []


class TestConnectedComponents:
    def test_two_components_plus_singleton(self):
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        comps = connected_components(edges, 6)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 2, 3]

    def test_exclude_singletons(self):
        edges = np.array([[0, 1]])
        comps = connected_components(edges, 4, include_singletons=False)
        assert len(comps) == 1
        assert comps[0].tolist() == [0, 1]

    def test_no_edges(self):
        comps = connected_components(np.empty((0, 2)), 3)
        assert len(comps) == 3

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            connected_components(np.array([[0, 9]]), 5)

    def test_sorted_by_size_descending(self):
        edges = np.array([[0, 1], [2, 3], [3, 4], [4, 5]])
        comps = connected_components(edges, 6)
        assert [len(c) for c in comps] == [4, 2]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        edges = rng.integers(0, n, size=(60, 2))
        ours = connected_components(edges, n)
        theirs = connected_components_networkx(edges, n)
        assert [c.tolist() for c in ours] == [c.tolist() for c in theirs]


class TestComponentsToLabels:
    def test_basic(self):
        comps = [np.array([0, 1, 2]), np.array([4])]
        labels = components_to_labels(comps, 6)
        assert labels.tolist() == [0, 0, 0, -1, 1, -1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            components_to_labels([np.array([10])], 5)


class TestNormalizeAndMerge:
    def test_normalize_orders_by_size(self):
        comps = normalize_components([[5], [1, 2, 2], [3, 4]])
        assert [c.tolist() for c in comps] == [[1, 2], [3, 4], [5]]

    def test_normalize_accepts_iterators(self):
        # each component is read once: an iterator must not be used up
        # by an emptiness check before it is sorted
        comps = normalize_components([iter([3, 1]), [5], iter([])])
        assert [c.tolist() for c in comps] == [[1, 3], [5]]

    def test_merge_joins_overlapping_partials(self):
        # task A found {0,1,2}; task B found {2,3}; task C found {5,6}
        merged = merge_component_sets([[[0, 1, 2]], [[2, 3]], [[5, 6]]])
        assert [c.tolist() for c in merged] == [[0, 1, 2, 3], [5, 6]]

    def test_merge_empty(self):
        assert merge_component_sets([]) == []
        assert merge_component_sets([[], []]) == []

    def test_merge_equals_global_components(self, rng):
        """Partial components per edge-block, merged, equal global components."""
        n = 60
        edges = rng.integers(0, n, size=(90, 2))
        expected = [c.tolist() for c in connected_components(edges, n,
                                                             include_singletons=False)]
        # split the edges into 4 blocks and compute partial components per block
        partial_sets = []
        for chunk in np.array_split(edges, 4):
            comps = connected_components(chunk, n, include_singletons=False)
            partial_sets.append([c.tolist() for c in comps])
        merged = [c.tolist() for c in merge_component_sets(partial_sets)]
        assert merged == expected


class TestSubsetting:
    @pytest.fixture()
    def positions(self, rng):
        return rng.normal(size=(6, 10, 3))

    def test_subset_atoms(self, positions):
        sub = subset_atoms(positions, [1, 3, 5])
        assert sub.shape == (6, 3, 3)
        assert np.allclose(sub[:, 1], positions[:, 3])

    def test_subset_atoms_out_of_range(self, positions):
        with pytest.raises(IndexError):
            subset_atoms(positions, [99])

    def test_subset_frames(self, positions):
        sub = subset_frames(positions, [0, 5])
        assert sub.shape == (2, 10, 3)

    def test_subset_frames_out_of_range(self, positions):
        with pytest.raises(IndexError):
            subset_frames(positions, [7])

    def test_stride(self, positions):
        assert stride_frames(positions, 2).shape[0] == 3
        assert stride_frames(positions, 2, offset=1).shape[0] == 3
        with pytest.raises(ValueError):
            stride_frames(positions, 0)

    def test_subset_trajectory_composition(self, rng):
        top = Topology.from_names(["P", "CA", "P", "CA"])
        traj = Trajectory(rng.normal(size=(8, 4, 3)), topology=top)
        sub = subset_trajectory(traj, selection="name P", frame_slice=slice(0, 6),
                                stride=2)
        assert sub.n_atoms == 2
        assert sub.n_frames == 3

    def test_subset_ensemble(self, rng):
        top = Topology.from_names(["P", "CA"])
        ens = TrajectoryEnsemble([
            Trajectory(rng.normal(size=(4, 2, 3)), topology=top, name=f"t{i}")
            for i in range(3)
        ])
        out = subset_ensemble(ens, selection="name P", stride=2)
        assert out.n_trajectories == 3
        assert out[0].n_atoms == 1
        assert out[0].n_frames == 2

    def test_within_sphere(self):
        positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        assert within_sphere(positions, [0, 0, 0], 2.0).tolist() == [0, 1]
        with pytest.raises(ValueError):
            within_sphere(positions, [0, 0, 0], 0.0)
