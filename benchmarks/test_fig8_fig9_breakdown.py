"""Figures 8 and 9 — broadcast breakdown and RADICAL-Pilot overheads.

Figure 8: runtime + broadcast time of Leaflet Finder approach 1.
Figure 9: approach 2 on RADICAL-Pilot, where per-unit overheads dominate.
"""

import pytest

from conftest import framework
from repro.core.leaflet import run_leaflet_finder
from repro.experiments import fig8_broadcast, fig9_rp_leaflet
from repro.frameworks.pilot import PilotFramework

CUTOFF = 15.0


@pytest.mark.parametrize("name", ["sparklite", "dasklite", "mpilite"])
def test_fig8_broadcast_approach_live(benchmark, bench_bilayer, name):
    """Approach 1 (broadcast + 1-D) on each substrate, laptop scale."""
    positions, _ = bench_bilayer
    fw = framework(name)

    def run():
        _result, report = run_leaflet_finder(positions, CUTOFF, fw, approach="broadcast-1d", n_tasks=16)
        return report

    report = benchmark(run)
    assert report.metrics.bytes_broadcast > 0
    assert "phase_broadcast_s" in report.parameters
    fw.close()


def test_fig8_modeled_breakdown_shape(benchmark):
    """Broadcast fraction: Dask >> Spark, MPI smallest; MPI bcast grows with nodes."""
    rows = benchmark(lambda: fig8_broadcast.modeled_rows(atom_counts=(131_072, 262_144)))
    by = {(r["framework"], r["n_atoms"], r["cores"]): r for r in rows}
    for n_atoms in (131_072, 262_144):
        dask_frac = by[("dask", n_atoms, 256)]["broadcast_fraction"]
        spark_frac = by[("spark", n_atoms, 256)]["broadcast_fraction"]
        mpi_frac = by[("mpi", n_atoms, 256)]["broadcast_fraction"]
        assert dask_frac > spark_frac > mpi_frac
    # MPI broadcast time grows with the allocation, Spark/Dask stay ~flat
    mpi_growth = (by[("mpi", 262_144, 256)]["broadcast_s"]
                  / by[("mpi", 262_144, 32)]["broadcast_s"])
    spark_growth = (by[("spark", 262_144, 256)]["broadcast_s"]
                    / by[("spark", 262_144, 32)]["broadcast_s"])
    assert mpi_growth > spark_growth


def test_fig9_pilot_overheads_live(benchmark, bench_bilayer):
    """Approach 2 on the pilot substrate with a non-zero DB latency (Figure 9)."""
    positions, _ = bench_bilayer
    fw = PilotFramework(executor="threads", workers=4, database_latency_s=0.001)

    def run():
        _result, report = run_leaflet_finder(positions, CUTOFF, fw, approach="task-2d", n_tasks=16)
        return report

    report = benchmark(run)
    db_stats = dict(report.metrics.events).get("database", {})
    assert db_stats.get("round_trips", 0) > 0
    fw.close()


def test_fig9_modeled_overhead_dominance(benchmark):
    """RP runtimes are similar across system sizes and improve with more nodes."""
    rows = benchmark(lambda: fig9_rp_leaflet.modeled_rows(core_counts=(32, 256)))
    by = {(r["n_atoms"], r["cores"]): r["runtime_s"] for r in rows}
    # similar runtime despite 4x more atoms (overhead dominated)
    assert by[(524_288, 256)] / by[(131_072, 256)] < 2.0
    # a single 32-core node is the worst configuration
    for n_atoms in (131_072, 262_144, 524_288):
        assert by[(n_atoms, 32)] > by[(n_atoms, 256)]
    # and RP is far slower than the Big Data frameworks on the same workload
    from repro.perfmodel import model_leaflet_runtime
    assert by[(131_072, 256)] > 3 * model_leaflet_runtime("dask", "task-2d",
                                                          cores=256, n_atoms=131_072)
