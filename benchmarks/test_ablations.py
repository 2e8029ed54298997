"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the individual design decisions
the paper (and our reproduction) relies on:

* early-break Hausdorff vs the naive double loop (the paper cites Taha &
  Hanbury 2015 as a future optimization),
* vectorized 2D-RMSD vs the per-frame loop,
* cdist-based vs BallTree vs grid edge discovery,
* edge-list shuffle (approach 2) vs partial-component shuffle (approach 3),
* blocked vs single-GEMM 2D-RMSD memory/time trade-off.
"""

import numpy as np
import pytest

from conftest import framework
from repro.analysis.hausdorff import hausdorff, hausdorff_earlybreak, hausdorff_naive
from repro.analysis.neighbors import radius_edges
from repro.analysis.rmsd import rmsd_matrix, rmsd_matrix_blocked
from repro.core.leaflet import run_leaflet_finder

CUTOFF = 15.0


@pytest.fixture(scope="module")
def pair(bench_ensemble):
    arrays = bench_ensemble.as_arrays()
    return arrays[0], arrays[2]


class TestHausdorffAblation:
    def test_vectorized(self, benchmark, pair):
        a, b = pair
        benchmark(lambda: hausdorff(a, b))

    def test_earlybreak(self, benchmark, pair):
        a, b = pair
        value = benchmark(lambda: hausdorff_earlybreak(a, b))
        assert value == pytest.approx(hausdorff(*pair), rel=1e-9)

    def test_naive(self, benchmark, pair):
        a, b = pair
        value = benchmark(lambda: hausdorff_naive(a, b))
        assert value == pytest.approx(hausdorff(*pair), rel=1e-9)


class TestRmsdMatrixAblation:
    def test_single_gemm(self, benchmark, pair):
        a, b = pair
        benchmark(lambda: rmsd_matrix(a, b))

    def test_blocked(self, benchmark, pair):
        a, b = pair
        result = benchmark(lambda: rmsd_matrix_blocked(a, b, block=8))
        assert np.allclose(result, rmsd_matrix(a, b), atol=1e-12)


class TestEdgeDiscoveryAblation:
    @pytest.mark.parametrize("method", ["brute", "balltree", "grid"])
    def test_method(self, benchmark, bench_bilayer, method):
        positions, _ = bench_bilayer
        edges = benchmark(lambda: radius_edges(positions, CUTOFF, method=method))
        assert edges.shape[0] > 0

    def test_methods_agree(self, benchmark, bench_bilayer):
        positions, _ = bench_bilayer
        brute = set(map(tuple, benchmark(lambda: radius_edges(positions, CUTOFF, method="brute"))))
        tree = set(map(tuple, radius_edges(positions, CUTOFF, method="balltree")))
        grid = set(map(tuple, radius_edges(positions, CUTOFF, method="grid")))
        assert brute == tree == grid


class TestShuffleVolumeAblation:
    def test_edge_list_vs_partial_components(self, benchmark, bench_bilayer):
        """Approach 3's shuffle is smaller than approach 2's (paper: >50% smaller)."""
        positions, _ = bench_bilayer
        fw = framework("dasklite")

        def run():
            _r2, rep2 = run_leaflet_finder(positions, CUTOFF, fw, approach="task-2d", n_tasks=16)
            _r3, rep3 = run_leaflet_finder(positions, CUTOFF, fw, approach="parallel-cc", n_tasks=16)
            return rep2.metrics.bytes_shuffled, rep3.metrics.bytes_shuffled

        edge_bytes, component_bytes = benchmark(run)
        assert component_bytes < edge_bytes
        fw.close()
