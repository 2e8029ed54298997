"""Shared fixtures and measurement protocol for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper: it benchmarks the laptop-scale live code path and prints/asserts
the paper-scale modeled series whose shape must match the published
figure.  Run with::

    pytest benchmarks/ -m bench

Measurement discipline (see ``docs/benchmarking.md``): timings flow
through :class:`repro.bench.Sampler` — distributions, not points — and
perf floors are enforced by :class:`repro.bench.RegressionGate` as
``median - k*MAD > floor``, never as raw single-run ratios.

Cache-state control is pinned here, not assumed: benchmark items are
forced into deterministic file order and any test-shuffling or
process-splitting plugin (pytest-randomly, pytest-xdist) is disabled
for bench runs, so one workload's samples are never interleaved with
another workload polluting its cache and allocator state.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import BenchHistory, RegressionGate, Sampler
from repro.frameworks import make_framework
from repro.trajectory import BilayerSpec, EnsembleSpec, make_bilayer, make_clustered_ensemble

#: worker threads used by all live benchmark runs
BENCH_WORKERS = 4

#: MAD multiplier for every perf gate in this harness
BENCH_K = 3.0

_BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = _BENCH_DIR.parent
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"


def pytest_configure(config):
    """Pin sequential, non-interleaved execution for bench runs.

    The sampling protocol assumes one workload's samples run
    back-to-back on a quiet interpreter.  Two plugins break that
    assumption if present: pytest-xdist (splits items across worker
    processes that time-share cores) and pytest-randomly (shuffles
    item order between runs, changing which workload warms the cache
    for which).  Both are disabled whenever this conftest is loaded —
    i.e. whenever benchmarks are being collected; neither is a
    dependency, so every knob is hasattr-guarded.
    """
    option = config.option
    if hasattr(option, "numprocesses") and option.numprocesses:
        option.numprocesses = 0
    if hasattr(option, "dist") and getattr(option, "dist", None) not in (None, "no"):
        option.dist = "no"
    # pytest-randomly: stop both test reordering and per-test reseeding
    if hasattr(option, "randomly_reorganize"):
        option.randomly_reorganize = False
    if hasattr(option, "randomly_reset_seed"):
        option.randomly_reset_seed = False


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench`` and pin its order.

    The ``bench`` marker lets CI (de)select the harness
    deterministically (``-m bench`` / ``-m "not bench"``).  On top of
    the plugin opt-outs in :func:`pytest_configure`, the bench items
    themselves are re-sorted into deterministic (file, definition)
    order among the positions they already occupy, so cache-state
    control survives even a plugin this conftest does not know about
    reshuffling collection.
    """
    bench_positions = []
    bench_items = []
    for index, item in enumerate(items):
        if _BENCH_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.bench)
            bench_positions.append(index)
            bench_items.append(item)
    ordered = sorted(bench_items, key=lambda it: (str(it.path), it.reportinfo()[1] or 0))
    for index, item in zip(bench_positions, ordered):
        items[index] = item


@pytest.fixture(scope="session")
def bench_sampler():
    """The session's :class:`~repro.bench.Sampler`.

    Sample counts come from ``REPRO_BENCH_SAMPLES`` /
    ``REPRO_BENCH_WARMUP`` (CI smoke lowers them; the committed BENCH
    records are regenerated with the full defaults).
    """
    return Sampler()


@pytest.fixture(scope="session")
def bench_gate():
    """The session's :class:`~repro.bench.RegressionGate` (k = BENCH_K)."""
    return RegressionGate(k=BENCH_K)


def _records_requested() -> bool:
    """Whether this run was asked to write records (``REPRO_BENCH_HISTORY=1``)."""
    return os.environ.get("REPRO_BENCH_HISTORY", "0") not in ("", "0")


@pytest.fixture(scope="session")
def bench_history():
    """Append-mode :class:`~repro.bench.BenchHistory` at the repo root.

    Appending is opt-in via ``REPRO_BENCH_HISTORY=1`` so that casual
    local runs do not grow the committed trajectory; the CI bench
    smoke job and the record-regeneration runs set it.  Returns
    ``None`` when disabled.
    """
    if not _records_requested():
        return None
    return BenchHistory(HISTORY_PATH)


def save_record(name: str, suite: str, protocol: dict, rows: list) -> None:
    """Write a module's distribution record to ``BENCH_<name>.json``.

    Under the same ``REPRO_BENCH_HISTORY=1`` opt-in as
    :func:`bench_history`: a plain run, such as the tier-1 suite, leaves
    the committed records as they are.  Nothing is written when the
    module recorded no rows.
    """
    if not rows or not _records_requested():
        return
    (REPO_ROOT / f"BENCH_{name}.json").write_text(json.dumps({
        "suite": suite,
        "protocol": protocol,
        "rows": rows,
    }, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_ensemble():
    """PSA workload: 8 trajectories x 24 frames x 64 atoms."""
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=8, n_frames=24, n_atoms=64, n_clusters=2, seed=2018)
    )


@pytest.fixture(scope="session")
def bench_bilayer():
    """Leaflet Finder workload: 1500-particle bilayer."""
    return make_bilayer(BilayerSpec(n_atoms=1500, seed=2018))


@pytest.fixture(scope="session")
def bench_bilayer_large():
    """Larger Leaflet Finder workload for the tree-search crossover."""
    return make_bilayer(BilayerSpec(n_atoms=4000, seed=2018))


def framework(name: str):
    """A fresh framework substrate with the benchmark worker count."""
    return make_framework(name, executor="threads", workers=BENCH_WORKERS)
