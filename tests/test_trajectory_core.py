"""Unit tests for Frame, Trajectory and TrajectoryEnsemble."""

import numpy as np
import pytest

from repro.trajectory import (
    Frame,
    Topology,
    Trajectory,
    TrajectoryEnsemble,
)


def make_traj(n_frames=5, n_atoms=4, seed=0, name="t"):
    rng = np.random.default_rng(seed)
    return Trajectory(rng.normal(size=(n_frames, n_atoms, 3)), name=name)


class TestFrame:
    def test_basic(self):
        frame = Frame(np.zeros((3, 3)), time=2.0, index=1)
        assert frame.n_atoms == 3
        assert frame.time == 2.0

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((3, 2)))

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((3, 3)), box=np.zeros((2,)))

    def test_centroid(self):
        frame = Frame(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        assert frame.centroid().tolist() == [1.0, 0.0, 0.0]

    def test_radius_of_gyration_unweighted(self):
        frame = Frame(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        assert frame.radius_of_gyration() == pytest.approx(1.0)

    def test_radius_of_gyration_mass_weighted(self):
        frame = Frame(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        rog = frame.radius_of_gyration(masses=np.array([3.0, 1.0]))
        assert 0.0 < rog < 1.5

    def test_radius_of_gyration_bad_masses(self):
        frame = Frame(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            frame.radius_of_gyration(masses=np.array([1.0]))

    def test_translated(self):
        frame = Frame(np.zeros((2, 3)))
        moved = frame.translated([1.0, 2.0, 3.0])
        assert np.allclose(moved.positions, [[1, 2, 3], [1, 2, 3]])
        assert np.allclose(frame.positions, 0.0)  # original untouched


class TestTrajectory:
    def test_shape_properties(self):
        traj = make_traj(6, 5)
        assert traj.n_frames == 6
        assert traj.n_atoms == 5
        assert len(traj) == 6
        assert traj.nbytes == 6 * 5 * 3 * 8

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((4, 3)))

    def test_topology_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((2, 4, 3)), topology=Topology.uniform(5))

    def test_default_times_use_dt(self):
        traj = Trajectory(np.zeros((4, 2, 3)), dt=0.5)
        assert traj.times.tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_times_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2, 3)), times=np.zeros(2))

    def test_frame_access_and_negative_index(self):
        traj = make_traj(5, 3)
        assert traj.frame(0).index == 0
        assert traj.frame(-1).index == 4
        with pytest.raises(IndexError):
            traj.frame(5)

    def test_getitem_slice_returns_trajectory(self):
        traj = make_traj(10, 3)
        sub = traj[2:8:2]
        assert isinstance(sub, Trajectory)
        assert sub.n_frames == 3
        assert np.allclose(sub.positions[0], traj.positions[2])

    def test_iteration_yields_all_frames(self):
        traj = make_traj(4, 2)
        assert [f.index for f in traj] == [0, 1, 2, 3]

    def test_select_atoms_by_index(self):
        traj = make_traj(3, 6)
        sub = traj.select_atoms_by_index([0, 2, 4])
        assert sub.n_atoms == 3
        assert np.allclose(sub.positions[:, 1], traj.positions[:, 2])

    def test_as_paths_shape(self):
        traj = make_traj(3, 4)
        assert traj.as_paths().shape == (3, 12)

    def test_centered(self):
        traj = make_traj(4, 5, seed=3)
        centered = traj.centered()
        assert np.allclose(centered.positions.mean(axis=1), 0.0, atol=1e-12)

    def test_transformed(self):
        traj = make_traj(2, 3)
        doubled = traj.transformed(lambda xyz: xyz * 2.0)
        assert np.allclose(doubled.positions, traj.positions * 2.0)

    def test_concat_frames(self):
        a, b = make_traj(2, 3, seed=1), make_traj(3, 3, seed=2)
        merged = a.concat_frames(b)
        assert merged.n_frames == 5

    def test_concat_frames_mismatch(self):
        with pytest.raises(ValueError):
            make_traj(2, 3).concat_frames(make_traj(2, 4))

    def test_box_broadcasting(self):
        traj = Trajectory(np.zeros((3, 2, 3)), box=np.array([10.0, 10.0, 10.0]))
        assert traj.frame(1).box.shape == (3,)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2, 3)), box=np.zeros((2, 3)))


class TestTrajectoryEnsemble:
    def test_basic(self):
        ens = TrajectoryEnsemble([make_traj(3, 4, name="a"), make_traj(3, 4, name="b")])
        assert ens.n_trajectories == 2
        assert len(ens) == 2
        assert ens.labels == ["a", "b"]
        assert ens.nbytes == 2 * 3 * 4 * 3 * 8

    def test_add_and_iterate(self):
        ens = TrajectoryEnsemble()
        ens.add(make_traj(2, 2, name="x"))
        assert [t.name for t in ens] == ["x"]
        assert ens[0].name == "x"

    def test_validate_consistent_atoms(self):
        ens = TrajectoryEnsemble([make_traj(3, 4), make_traj(5, 4)])
        assert ens.validate_consistent_atoms() == 4

    def test_validate_inconsistent_raises(self):
        ens = TrajectoryEnsemble([make_traj(3, 4), make_traj(3, 5)])
        with pytest.raises(ValueError):
            ens.validate_consistent_atoms()

    def test_validate_empty_raises(self):
        with pytest.raises(ValueError):
            TrajectoryEnsemble().validate_consistent_atoms()

    def test_as_arrays(self):
        ens = TrajectoryEnsemble([make_traj(3, 4)])
        arrays = ens.as_arrays()
        assert arrays[0].shape == (3, 4, 3)
