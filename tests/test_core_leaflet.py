"""Unit and integration tests for the Leaflet Finder approaches."""

import numpy as np
import pytest

from repro.core.leaflet import (
    LEAFLET_APPROACHES,
    LeafletFinder,
    leaflet_serial,
    run_leaflet_finder,
)
from repro.frameworks import make_framework
from repro.trajectory import BilayerSpec, make_bilayer_universe

CUTOFF = 15.0


class TestLeafletSerial:
    @pytest.mark.parametrize("method", ["brute", "balltree", "grid"])
    def test_two_leaflets_found(self, small_bilayer, method):
        positions, labels = small_bilayer
        result = leaflet_serial(positions, CUTOFF, method=method)
        assert result.sizes[0] + result.sizes[1] == positions.shape[0]
        assert result.agreement_with(labels) == 1.0

    def test_methods_agree_on_edges(self, small_bilayer):
        positions, _ = small_bilayer
        brute = leaflet_serial(positions, CUTOFF, method="brute")
        tree = leaflet_serial(positions, CUTOFF, method="balltree")
        assert brute.n_edges == tree.n_edges
        assert brute.sizes == tree.sizes

    def test_curved_bilayer(self, curved_bilayer):
        positions, labels = curved_bilayer
        result = leaflet_serial(positions, CUTOFF)
        assert result.agreement_with(labels) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            leaflet_serial(np.zeros((4, 2)), CUTOFF)
        with pytest.raises(ValueError):
            leaflet_serial(np.zeros((4, 3)), -1.0)
        with pytest.raises(ValueError):
            leaflet_serial(np.empty((0, 3)), CUTOFF)

    def test_small_cutoff_gives_many_components(self, small_bilayer):
        positions, _ = small_bilayer
        result = leaflet_serial(positions, 0.5)
        assert result.n_components > 2


class TestApproachesAgainstSerial:
    """Every approach on every framework must reproduce the serial result."""

    @pytest.mark.parametrize("approach", sorted(LEAFLET_APPROACHES))
    def test_approach_matches_serial(self, small_bilayer, approach, any_framework):
        positions, labels = small_bilayer
        serial = leaflet_serial(positions, CUTOFF)
        result, report = run_leaflet_finder(positions, CUTOFF, any_framework,
                                            approach=approach, n_tasks=6)
        assert result.sizes[:2] == serial.sizes[:2]
        assert result.agreement_with(labels) == 1.0
        assert report.n_tasks >= 1
        assert report.wall_time_s > 0.0
        assert report.algorithm == f"leaflet_finder[{approach}]"
        assert report.parameters["n_waves"] == 1
        assert report.parameters["n_blocks"] == report.n_tasks
        phases = [v for k, v in report.parameters.items() if k.startswith("phase_")]
        assert sum(phases) <= report.wall_time_s

    def test_unknown_approach(self, small_bilayer):
        positions, _ = small_bilayer
        fw = make_framework("dasklite", executor="serial")
        with pytest.raises(ValueError):
            run_leaflet_finder(positions, CUTOFF, fw, approach="quantum")
        fw.close()


class TestApproachCharacteristics:
    def test_broadcast_approach_reports_broadcast_bytes(self, small_bilayer):
        positions, _ = small_bilayer
        fw = make_framework("sparklite", executor="serial")
        _result, report = run_leaflet_finder(positions, CUTOFF, fw, approach="broadcast-1d", n_tasks=4)
        assert report.metrics.bytes_broadcast >= positions.nbytes
        assert "phase_broadcast_s" in report.parameters
        fw.close()

    def test_task_2d_has_no_broadcast(self, small_bilayer):
        positions, _ = small_bilayer
        fw = make_framework("sparklite", executor="serial")
        _result, report = run_leaflet_finder(positions, CUTOFF, fw, approach="task-2d", n_tasks=4)
        assert report.metrics.bytes_broadcast == 0
        fw.close()

    def test_parallel_cc_shuffles_less_than_task_2d(self, small_bilayer):
        """The paper's key claim for approach 3: smaller shuffle volume."""
        positions, _ = small_bilayer
        fw = make_framework("dasklite", executor="serial")
        _r2, report2 = run_leaflet_finder(positions, CUTOFF, fw, approach="task-2d", n_tasks=6)
        _r3, report3 = run_leaflet_finder(positions, CUTOFF, fw, approach="parallel-cc", n_tasks=6)
        assert report3.metrics.bytes_shuffled < report2.metrics.bytes_shuffled
        fw.close()

    def test_tree_search_equals_parallel_cc_result(self, small_bilayer):
        positions, labels = small_bilayer
        fw = make_framework("mpilite", workers=2)
        r3, _ = run_leaflet_finder(positions, CUTOFF, fw, approach="parallel-cc", n_tasks=4)
        r4, _ = run_leaflet_finder(positions, CUTOFF, fw, approach="tree-search", n_tasks=4)
        assert r3.sizes[:2] == r4.sizes[:2]
        assert r4.agreement_with(labels) == 1.0
        fw.close()

    def test_edge_counts_consistent(self, small_bilayer):
        positions, _ = small_bilayer
        serial = leaflet_serial(positions, CUTOFF, method="brute")
        fw = make_framework("dasklite", executor="serial")
        r1, _ = run_leaflet_finder(positions, CUTOFF, fw, approach="broadcast-1d", n_tasks=5)
        r2, _ = run_leaflet_finder(positions, CUTOFF, fw, approach="task-2d", n_tasks=5)
        assert r1.n_edges == serial.n_edges
        assert r2.n_edges == serial.n_edges
        fw.close()


class TestLeafletFinderClass:
    def test_from_universe_with_selection(self):
        universe, labels = make_bilayer_universe(BilayerSpec(n_atoms=200, seed=17))
        finder = LeafletFinder(universe, "name P", cutoff=CUTOFF)
        serial = finder.run_serial()
        assert serial.agreement_with(labels) == 1.0
        fw = make_framework("dasklite", executor="threads", workers=2)
        parallel = finder.run(fw, approach="parallel-cc", n_tasks=4)
        assert parallel.sizes[:2] == serial.sizes[:2]
        assert finder.last_report is not None
        fw.close()

    def test_from_raw_positions(self, small_bilayer):
        positions, labels = small_bilayer
        finder = LeafletFinder(positions, cutoff=CUTOFF)
        assert finder.run_serial().agreement_with(labels) == 1.0

    def test_empty_selection_raises(self):
        universe, _ = make_bilayer_universe(BilayerSpec(n_atoms=50, seed=1))
        with pytest.raises(ValueError):
            LeafletFinder(universe, "name XYZ")
