"""Tests for the experiment drivers (figure/table regeneration harness)."""

import numpy as np
import pytest

from repro.experiments import (
    fig2_throughput,
    fig3_throughput_nodes,
    fig4_psa_wrangler,
    fig5_psa_comet_wrangler,
    fig6_cpptraj,
    fig7_leaflet_approaches,
    fig8_broadcast,
    fig9_rp_leaflet,
    report,
    tables,
)
from repro.experiments.common import format_rows, geometric_factor


class TestCommonHelpers:
    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "a" in text and "10" in text
        assert format_rows([]) == "(no rows)"

    def test_geometric_factor(self):
        assert geometric_factor([1, 2, 4, 8]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_factor([1])


class TestModeledFigures:
    """Each figure's modeled series must exist and reproduce the paper's shape."""

    def test_fig2_dask_dominates(self):
        rows = fig2_throughput.modeled_rows(task_counts=(1024, 16384))
        by = {(r["framework"], r["n_tasks"]): r["throughput_tasks_per_s"] for r in rows}
        assert by[("dask", 16384)] > by[("spark", 16384)] > by[("pilot", 16384)]

    def test_fig3_includes_both_machines(self):
        rows = fig3_throughput_nodes.modeled_rows(node_counts=(1, 2))
        machines = {r["machine"] for r in rows}
        assert machines == {"comet", "wrangler"}

    def test_fig4_full_grid(self):
        rows = fig4_psa_wrangler.modeled_rows(ensemble_sizes=(128,),
                                              trajectory_sizes=("small", "large"),
                                              core_counts=(16, 256))
        # 1 ensemble size x 2 traj sizes x 4 frameworks x 2 core counts
        assert len(rows) == 16
        assert all(r["runtime_s"] > 0 for r in rows)

    def test_fig4_scaling_factor_roughly_six(self):
        rows = fig4_psa_wrangler.modeled_rows(ensemble_sizes=(128,),
                                              trajectory_sizes=("small",),
                                              core_counts=(16, 256))
        dask = [r for r in rows if r["framework"] == "dask"]
        speedup = dask[-1]["speedup"]
        assert 4.0 <= speedup <= 12.0

    def test_fig5_comet_beats_wrangler(self):
        rows = fig5_psa_comet_wrangler.modeled_rows(core_counts=(256,))
        runtimes = {(r["machine"], r["framework"]): r["runtime_s"] for r in rows}
        assert runtimes[("comet", "mpi")] < runtimes[("wrangler", "mpi")]

    def test_fig6_intel_faster(self):
        rows = fig6_cpptraj.modeled_rows(core_counts=(40, 240))
        by = {(r["framework"], r["cores"]): r["runtime_s"] for r in rows}
        assert by[("cpptraj-intel-O3", 240)] < by[("cpptraj-gnu", 240)]

    def test_fig7_grid_and_feasibility(self):
        rows = fig7_leaflet_approaches.modeled_rows(frameworks=("spark", "dask"),
                                                    atom_counts=(131_072, 524_288),
                                                    core_counts=(32, 256))
        assert len(rows) == 2 * 4 * 2 * 2
        dask_bcast_big = [r for r in rows if r["framework"] == "dask"
                          and r["approach"] == "broadcast-1d" and r["n_atoms"] == 524_288]
        assert all(not r["feasible"] for r in dask_bcast_big)

    def test_fig8_dask_broadcast_fraction_highest(self):
        rows = fig8_broadcast.modeled_rows(atom_counts=(262_144,))
        at_256 = {r["framework"]: r["broadcast_fraction"] for r in rows if r["cores"] == 256}
        assert at_256["dask"] > at_256["spark"]
        assert at_256["dask"] > at_256["mpi"]

    def test_fig9_overhead_dominated(self):
        rows = fig9_rp_leaflet.modeled_rows(atom_counts=(131_072, 524_288),
                                            core_counts=(32, 256))
        small = [r["runtime_s"] for r in rows if r["n_atoms"] == 131_072]
        large = [r["runtime_s"] for r in rows if r["n_atoms"] == 524_288]
        # runtimes similar despite 4x system size (overheads dominate)
        assert max(large) / max(small) < 2.5

    def test_report_collects_all_figures(self):
        modeled = report.all_modeled()
        assert set(modeled) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                                "fig8", "fig9"}
        assert all(len(rows) > 0 for rows in modeled.values())


class TestMeasuredFigures:
    """Laptop-scale live runs of the same code paths (kept tiny)."""

    def test_fig2_measured(self):
        rows = fig2_throughput.measured_rows(task_counts=(16, 64), workers=2)
        assert len(rows) == 6
        assert all(r["throughput_tasks_per_s"] > 0 for r in rows)

    def test_fig4_measured_all_frameworks_agree_on_shape(self):
        rows = fig4_psa_wrangler.measured_rows(n_trajectories=6, scale=0.005,
                                               workers=2, n_frames=8)
        assert len(rows) == 4
        max_d = {r["framework"]: r["max_distance"] for r in rows}
        assert np.allclose(list(max_d.values()), list(max_d.values())[0])

    def test_fig6_measured_vectorized_wins(self):
        rows = fig6_cpptraj.measured_rows(n_pairs=3, n_frames=20, scale=0.01)
        assert rows[0]["speedup_vs_naive"] > 1.0
        # the blockwise early-break and the literal reference scan return
        # exactly the same distances on the same pairs
        earlybreak = {r["kernel_engine"]: r["checksum"] for r in rows
                      if r["kernel"].startswith("earlybreak")}
        assert set(earlybreak) == {"vectorized", "reference"}
        assert earlybreak["vectorized"] == earlybreak["reference"]

    def test_fig7_measured_small(self):
        rows = fig7_leaflet_approaches.measured_rows(n_atoms=400, n_tasks=6, workers=2,
                                                     frameworks=("dasklite",),
                                                     approaches=("task-2d", "parallel-cc"))
        assert len(rows) == 2
        assert all(r["agreement"] == 1.0 for r in rows)

    def test_fig8_measured(self):
        rows = fig8_broadcast.measured_rows(n_atoms=400, n_tasks=4, workers=2,
                                            frameworks=("dasklite",))
        assert rows[0]["bytes_broadcast"] > 0

    def test_fig9_measured_latency_hurts(self):
        rows = fig9_rp_leaflet.measured_rows(n_atoms=300, n_tasks=10, workers=2,
                                             database_latency_s=0.002)
        assert rows[1]["wall_time_s"] > rows[0]["wall_time_s"]


class TestTablesDriver:
    def test_render_all_tables(self):
        for t in (1, 2, 3):
            text = tables.render_table_text(t)
            assert len(text) > 100
        with pytest.raises(ValueError):
            tables.render_table_text(4)

    def test_table3_includes_recommendations(self):
        text = tables.render_table_text(3)
        assert "recommendation" in text
        assert "Dask" in text and "Spark" in text


class TestMainEntrypoints:
    """The CLI mains run without error (modeled output only)."""

    @pytest.mark.parametrize("module", [fig2_throughput, fig3_throughput_nodes,
                                        fig6_cpptraj, fig8_broadcast, fig9_rp_leaflet,
                                        tables])
    def test_main_runs(self, module, capsys):
        module.main([])
        out = capsys.readouterr().out
        assert len(out) > 50
