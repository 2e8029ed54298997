"""Unit tests for trajectory readers and writers."""

import numpy as np
import pytest

from repro.trajectory import (
    Topology,
    Trajectory,
    TrajectoryEnsemble,
    load_ensemble,
    read_npy,
    read_npz,
    read_trajectory,
    read_xyz,
    write_ensemble,
    write_npy,
    write_npz,
    write_trajectory,
    write_xyz,
)


def make_traj(n_frames=4, n_atoms=5, seed=1, name="traj"):
    rng = np.random.default_rng(seed)
    top = Topology.from_names(["C"] * n_atoms)
    return Trajectory(rng.normal(size=(n_frames, n_atoms, 3)), topology=top, name=name)


class TestNpyRoundtrip:
    def test_roundtrip(self, tmp_path):
        traj = make_traj()
        path = tmp_path / "a.npy"
        write_npy(traj, path)
        back = read_npy(path)
        assert back.n_frames == traj.n_frames
        assert np.allclose(back.positions, traj.positions)

    def test_read_2d_array_promoted_to_single_frame(self, tmp_path):
        path = tmp_path / "single.npy"
        np.save(path, np.zeros((7, 3)))
        traj = read_npy(path)
        assert traj.n_frames == 1
        assert traj.n_atoms == 7

    def test_name_from_filename(self, tmp_path):
        traj = make_traj()
        path = tmp_path / "mytraj.npy"
        write_npy(traj, path)
        assert read_npy(path).name == "mytraj"


class TestNpzRoundtrip:
    def test_roundtrip_preserves_topology_and_times(self, tmp_path):
        traj = make_traj(name="npz_traj")
        path = tmp_path / "b.npz"
        write_npz(traj, path)
        back = read_npz(path)
        assert np.allclose(back.positions, traj.positions)
        assert np.allclose(back.times, traj.times)
        assert back.topology == traj.topology
        assert back.name == "npz_traj"


class TestXyzRoundtrip:
    def test_roundtrip(self, tmp_path):
        traj = make_traj(3, 4)
        path = tmp_path / "c.xyz"
        write_xyz(traj, path)
        back = read_xyz(path)
        assert back.n_frames == 3
        assert back.n_atoms == 4
        assert np.allclose(back.positions, traj.positions, atol=1e-5)

    def test_elements_preserved(self, tmp_path):
        top = Topology.from_names(["C", "N", "O"])
        traj = Trajectory(np.zeros((1, 3, 3)), topology=top)
        path = tmp_path / "d.xyz"
        write_xyz(traj, path)
        assert list(read_xyz(path).topology.elements) == ["C", "N", "O"]

    def test_malformed_count_raises(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("notanumber\ncomment\n")
        with pytest.raises(ValueError):
            read_xyz(path)

    def test_truncated_frame_raises(self, tmp_path):
        path = tmp_path / "trunc.xyz"
        path.write_text("3\ncomment\nC 0 0 0\n")
        with pytest.raises((ValueError, IndexError)):
            read_xyz(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        with pytest.raises(ValueError):
            read_xyz(path)


class TestDispatch:
    @pytest.mark.parametrize("ext", ["npy", "npz", "xyz"])
    def test_write_read_by_extension(self, tmp_path, ext):
        traj = make_traj()
        path = tmp_path / f"t.{ext}"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert np.allclose(back.positions, traj.positions, atol=1e-5)

    def test_unknown_extension_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_trajectory(make_traj(), tmp_path / "t.dcd")
        with pytest.raises(ValueError):
            read_trajectory(tmp_path / "t.dcd")


class TestEnsembleIO:
    def test_write_and_load_ensemble(self, tmp_path):
        ens = TrajectoryEnsemble([make_traj(seed=i, name=f"m{i}") for i in range(3)])
        paths = write_ensemble(ens, tmp_path / "ens", fmt="npy")
        assert len(paths) == 3
        back = load_ensemble(paths)
        assert back.n_trajectories == 3
        assert np.allclose(back[1].positions, ens[1].positions)

    def test_write_ensemble_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_ensemble(TrajectoryEnsemble([make_traj()]), tmp_path, fmt="dcd")
