"""The disk tier never changes what a run computes.

PSA and Leaflet Finder run on the ``shm`` executor with a store cap far
below the working set, so staged inputs spill to memory-mapped files
while the worker lanes read them.  Every combination of the frameworks
that run on worker processes (pilot, dasklite), both data planes, both
spill writers (write-behind and synchronous) and every Leaflet Finder
approach must match the serial reference exactly, also under
speculation, and must leave no spill file behind.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.api import leaflet_finder, psa
from repro.core.leaflet import LEAFLET_APPROACHES
from repro.frameworks.faults import FaultPolicy
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
)

PROCESS_FRAMEWORKS = ["pilot", "dasklite"]
PLANES = ["pickle", "shm"]
STORE_CAP = 4 * 1024  # holds one 3 KiB trajectory: the rest of the ensemble spills


@pytest.fixture(scope="module")
def ensemble():
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=5, n_frames=8, n_atoms=16, n_clusters=2,
                     seed=42))


@pytest.fixture(scope="module")
def reference(ensemble):
    matrix, _ = psa(ensemble, "dasklite", executor="serial")
    return matrix.values.copy()


@pytest.fixture(scope="module")
def bilayer():
    positions, _ = make_bilayer(BilayerSpec(n_atoms=240, seed=9))
    return positions


class TestPsaOnSpillTier:
    @pytest.mark.parametrize("spill_async", [True, False])
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("name", PROCESS_FRAMEWORKS)
    def test_bit_identical(self, name, plane, spill_async, ensemble,
                           reference, tmp_path):
        matrix, report = psa(ensemble, name, executor="shm", workers=2,
                             data_plane=plane, store_capacity_bytes=STORE_CAP,
                             spill_dir=str(tmp_path), spill_async=spill_async)
        assert np.array_equal(matrix.values, reference)
        if plane == "shm":
            assert report.metrics.bytes_spilled > 0
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("plane", PLANES)
    def test_bit_identical_under_speculation(self, plane, ensemble, reference,
                                             tmp_path):
        # speculated duplicates read the same spilled inputs as the original
        matrix, report = psa(
            ensemble, "pilot", executor="shm", workers=2, data_plane=plane,
            store_capacity_bytes=STORE_CAP, spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(speculation_factor=50.0,
                                     heartbeat_interval_s=0.05))
        assert np.array_equal(matrix.values, reference)
        if plane == "shm":
            assert report.metrics.bytes_spilled > 0
        assert os.listdir(tmp_path) == []


class TestLeafletOnSpillTier:
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("name", PROCESS_FRAMEWORKS)
    @pytest.mark.parametrize("approach", sorted(LEAFLET_APPROACHES))
    def test_components_identical(self, approach, name, plane, bilayer,
                                  tmp_path):
        expected, _ = leaflet_finder(bilayer, "dasklite", executor="serial",
                                     approach=approach, n_tasks=6)
        result, report = leaflet_finder(
            bilayer, name, executor="shm", workers=2, data_plane=plane,
            approach=approach, n_tasks=6, store_capacity_bytes=STORE_CAP,
            spill_dir=str(tmp_path))
        assert result.sizes == expected.sizes
        if plane == "shm":
            assert report.metrics.bytes_spilled > 0
        assert os.listdir(tmp_path) == []
