"""Tests for the top-level package surface and framework factory."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.frameworks import (
    FRAMEWORK_NAMES,
    DaskLiteClient,
    MPIFramework,
    PilotFramework,
    SparkLiteContext,
    make_framework,
)


class TestPackageSurface:
    def test_version_and_paper(self):
        assert repro.__version__ == "1.0.0"
        assert "ICPP 2018" in repro.PAPER

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_library_imports_without_networkx(self):
        """networkx is only the tests' cross-check: no module imports it eagerly."""
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None  # any import of it now fails\n"
            "import importlib, pkgutil, repro\n"
            "for mod in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(mod.name)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_core_entry_points_exported(self):
        assert callable(repro.psa)
        assert callable(repro.leaflet_finder)
        assert callable(repro.recommend_framework)
        assert callable(repro.make_framework)


class TestMakeFramework:
    @pytest.mark.parametrize("alias,cls", [
        ("spark", SparkLiteContext),
        ("sparklite", SparkLiteContext),
        ("dask", DaskLiteClient),
        ("dasklite", DaskLiteClient),
        ("radical-pilot", PilotFramework),
        ("RP", PilotFramework),
        ("pilot", PilotFramework),
        ("mpi", MPIFramework),
        ("MPI4PY", MPIFramework),
        ("mpilite", MPIFramework),
    ])
    def test_aliases(self, alias, cls):
        fw = make_framework(alias, executor="serial")
        assert isinstance(fw, cls)
        fw.close()

    def test_unknown_framework(self):
        with pytest.raises(ValueError):
            make_framework("flink")

    def test_canonical_names_constant(self):
        assert set(FRAMEWORK_NAMES) == {"sparklite", "dasklite", "pilot", "mpilite"}

    def test_every_framework_has_unique_name(self):
        names = set()
        for canonical in FRAMEWORK_NAMES:
            fw = make_framework(canonical, executor="serial")
            names.add(fw.name)
            fw.close()
        assert len(names) == 4

    def test_workers_forwarded(self):
        fw = make_framework("dask", executor="threads", workers=3)
        assert fw.executor.workers == 3
        fw.close()


class TestEndToEndViaTopLevelImports:
    def test_docstring_quickstart_pattern(self):
        ensemble = repro.paper_psa_ensemble("small", 6, n_frames=8, scale=0.005)
        matrix, report = repro.psa(ensemble, framework="dask", workers=2, n_tasks=4)
        assert matrix.n == 6
        assert report.framework == "dasklite"

    def test_leaflet_pattern(self):
        from repro.trajectory import BilayerSpec
        universe, truth = repro.make_bilayer_universe(BilayerSpec(n_atoms=200, seed=9))
        result, _report = repro.leaflet_finder(universe, framework="mpi", workers=2,
                                               approach="parallel-cc", n_tasks=4)
        assert result.agreement_with(truth) == 1.0

    def test_paper_leaflet_system_shapes(self):
        positions, labels = repro.paper_leaflet_system("262k", scale=0.001)
        assert positions.shape[0] == labels.shape[0] == 262
        assert positions.shape[1] == 3
        assert set(np.unique(labels)) == {0, 1}
