"""Unit and integration tests for task-parallel PSA."""

import numpy as np
import pytest

from repro.core.psa import (
    PSA_METRICS,
    execute_psa_block,
    make_psa_tasks,
    psa_serial,
    run_psa,
)
from repro.frameworks import make_framework
from repro.trajectory import write_ensemble


class TestMakePsaTasks:
    def test_task_count_matches_partitioning(self, small_ensemble):
        tasks = make_psa_tasks(small_ensemble, group_size=2)
        # 6 trajectories, chunks of 2 -> k=3 -> 6 upper-triangular blocks
        assert len(tasks) == 6

    def test_n_tasks_target(self, small_ensemble):
        tasks = make_psa_tasks(small_ensemble, n_tasks=3)
        assert 1 <= len(tasks) <= 8

    def test_group_size_and_n_tasks_exclusive(self, small_ensemble):
        with pytest.raises(ValueError):
            make_psa_tasks(small_ensemble, group_size=2, n_tasks=3)

    def test_unknown_metric(self, small_ensemble):
        with pytest.raises(ValueError):
            make_psa_tasks(small_ensemble, metric="euclid")

    def test_single_trajectory_rejected(self, small_ensemble):
        from repro.trajectory import TrajectoryEnsemble
        with pytest.raises(ValueError):
            make_psa_tasks(TrajectoryEnsemble([small_ensemble[0]]))

    def test_paths_must_match_count(self, small_ensemble):
        with pytest.raises(ValueError):
            make_psa_tasks(small_ensemble, paths=["only_one.npy"])

    def test_task_nbytes_positive(self, small_ensemble):
        tasks = make_psa_tasks(small_ensemble, group_size=3)
        assert all(t.nbytes > 0 for t in tasks)


class TestExecutePsaBlock:
    def test_covers_all_pairs_once(self, small_ensemble):
        tasks = make_psa_tasks(small_ensemble, group_size=2)
        seen = set()
        for task in tasks:
            for i, j, d in execute_psa_block(task):
                assert d >= 0.0
                assert (i, j) not in seen
                seen.add((i, j))
        n = small_ensemble.n_trajectories
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}

    @pytest.mark.parametrize("windows", [None, ((0, 4), (0, 4)), ((4, 8), (0, 4))])
    def test_pairless_block_loads_nothing(self, small_ensemble, windows):
        """A one-member diagonal block returns its empty rows before any load:
        its payloads are paths that do not exist, so a load would raise."""
        task = make_psa_tasks(small_ensemble, group_size=1,
                              paths=[f"missing-{i}.npy" for i in range(6)])[0]
        assert task.block.diagonal and task.from_files
        if windows is not None:
            task.row_window, task.col_window = windows
        out = execute_psa_block(task)
        width = 3 if windows is None else 6 + 4 + 4
        assert out.shape == (0, width) and out.dtype == np.float64


class TestPsaSerial:
    def test_matrix_properties(self, small_ensemble):
        dm = psa_serial(small_ensemble)
        assert dm.n == 6
        assert dm.is_symmetric()
        assert np.allclose(np.diag(dm.values), 0.0)
        assert np.all(dm.values >= 0.0)

    def test_recovers_cluster_structure(self, small_ensemble):
        """The clustered ensemble's two families must be recoverable."""
        dm = psa_serial(small_ensemble)
        # family 0 = members 0-2, family 1 = members 3-5
        within = max(dm[0, 1], dm[0, 2], dm[1, 2], dm[3, 4], dm[3, 5], dm[4, 5])
        across = min(dm[i, j] for i in range(3) for j in range(3, 6))
        assert across > within
        clusters = dm.cluster_by_threshold((within + across) / 2.0)
        assert sorted(tuple(c) for c in clusters) == [(0, 1, 2), (3, 4, 5)]

    def test_unknown_metric(self, small_ensemble):
        with pytest.raises(ValueError):
            psa_serial(small_ensemble, metric="bogus")

    @pytest.mark.parametrize("metric", sorted(PSA_METRICS))
    def test_all_metrics_run(self, small_ensemble, metric):
        dm = psa_serial(small_ensemble, metric=metric)
        assert dm.is_symmetric()


class TestRunPsa:
    def test_matches_serial_on_every_framework(self, small_ensemble, any_framework):
        reference = psa_serial(small_ensemble)
        matrix, report = run_psa(small_ensemble, any_framework, group_size=2)
        assert np.allclose(matrix.values, reference.values, atol=1e-9)
        assert report.framework == any_framework.name
        assert report.n_tasks == 6
        assert report.wall_time_s > 0.0

    def test_serial_executor_also_correct(self, small_ensemble, serial_framework):
        reference = psa_serial(small_ensemble)
        matrix, _report = run_psa(small_ensemble, serial_framework, n_tasks=4)
        assert np.allclose(matrix.values, reference.values, atol=1e-9)

    def test_from_files(self, small_ensemble, tmp_path):
        """Tasks that read their trajectories from disk give the same matrix."""
        paths = write_ensemble(small_ensemble, tmp_path / "ens", fmt="npy")
        fw = make_framework("dasklite", executor="threads", workers=2)
        matrix, report = run_psa(small_ensemble, fw, group_size=3, paths=paths)
        assert np.allclose(matrix.values, psa_serial(small_ensemble).values, atol=1e-9)
        fw.close()

    def test_earlybreak_metric_consistent(self, small_ensemble):
        fw = make_framework("mpilite", workers=2)
        fast, _ = run_psa(small_ensemble, fw, group_size=3, metric="hausdorff_earlybreak")
        assert np.allclose(fast.values, psa_serial(small_ensemble).values, atol=1e-9)
        fw.close()

    def test_report_parameters(self, small_ensemble):
        fw = make_framework("sparklite", executor="serial")
        _matrix, report = run_psa(small_ensemble, fw, group_size=2)
        assert report.parameters["n_trajectories"] == 6
        assert report.parameters["metric"] == "hausdorff"
        fw.close()
