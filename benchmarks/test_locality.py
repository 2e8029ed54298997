"""Locality-aware placement economics — affinity routing vs blind FIFO.

Placement only earns its keep if steering tasks to the workers that
already hold their spilled blocks beats handing them to whichever lane
frees first.  This benchmark builds an over-capacity PSA workload with
a skewed reuse pattern — a few *hub* trajectories far too large for the
store (they spill; the small spoke trajectories stay resident in shared
memory) and one task per hub x spoke pair — then samples two full
distributions of the identical run: locality placement ON and OFF.
With FIFO fan-out consecutive tasks over the same hub land on different
lanes, so every worker ends up paying the cold read of every hub; with
placement ON each hub is read cold roughly once and its remaining tasks
ride the resident mapping.

The disk tier is pinned with the ``REPRO_COLD_READ_BW_MBS`` cost model
(CI page cache would otherwise hide exactly the cost placement
avoids), identically for both configs — so the gate measures placement
quality (the *number* of cold attaches) rather than CI disk variance.
The acceptance floor is the PR's headline number: **locality ON must be
at least 1.5x faster**, gated as ``median(off/on) - k*MAD > 1.5``,
never as a single-run ratio.  Bit-identical results are asserted on
both paths before any timing is trusted.

When ``REPRO_BENCH_HISTORY=1``, the full distribution record is written
to ``BENCH_locality.json`` and appended to ``BENCH_history.jsonl``.
"""

import time

import numpy as np
import pytest

from conftest import save_record
from repro.bench import speedup_samples
from repro.core.psa import PSA_METRICS
from repro.frameworks.executors import SharedMemoryExecutor
from repro.frameworks.faults import FaultPolicy
from repro.frameworks.shm import SharedMemoryStore

LOCALITY_SUITE = "locality"
LOCALITY_FLOOR = 1.5        # locality ON > 1.5x faster than FIFO placement

LOCALITY_WORKERS = 3
N_HUBS = 4                  # large trajectories that spill
N_SPOKES = 6                # small trajectories that stay resident
HUB_FRAMES = 3000           # ~1.1 MiB per hub block (16 atoms x 3 x f8)
SPOKE_FRAMES = 8
N_ATOMS = 16
COLD_READ_BW_MBS = "20"     # ~56 ms per cold hub attach, deterministic

_LOCALITY_RECORDS: list = []


def hub_spoke_distance(pair):
    """Hausdorff distance for one (hub, spoke) trajectory pair."""
    hub, spoke = pair
    return float(PSA_METRICS["hausdorff"](np.asarray(hub), np.asarray(spoke)))


def _trajectory(rng, n_frames):
    return rng.standard_normal((n_frames, N_ATOMS, 3))


@pytest.fixture(scope="module")
def hub_spoke_store(tmp_path_factory):
    """An over-capacity store: every hub block on the disk tier.

    The capacity watermark sits below a single hub, so each hub put
    evicts it straight to the spill directory while the spokes (tiny,
    most-recently used) stay resident — the big half of the data is
    spilled, which is exactly the tier placement can and must win on.
    """
    rng = np.random.default_rng(2018)
    spill_dir = tmp_path_factory.mktemp("locality-spill")
    store = SharedMemoryStore(capacity_bytes=256 * 1024,
                              spill_dir=str(spill_dir),
                              spill_async=False)
    hub_refs = [store.put(_trajectory(rng, HUB_FRAMES)) for _ in range(N_HUBS)]
    spoke_refs = [store.put(_trajectory(rng, SPOKE_FRAMES))
                  for _ in range(N_SPOKES)]
    spilled = store.spilled_names()
    assert {ref.segment for ref in hub_refs} <= spilled
    yield store, hub_refs, spoke_refs
    store.cleanup()


def _run_once(store, tasks, policy):
    """One timed run of the hub x spoke workload on fresh worker lanes."""
    ex = SharedMemoryExecutor(workers=LOCALITY_WORKERS, store=store,
                              fault_policy=policy)
    try:
        start = time.perf_counter()
        results = ex.map_tasks(hub_spoke_distance, tasks)
        elapsed = time.perf_counter() - start
        placed = (ex.totals().tasks_local, ex.totals().tasks_remote,
                  ex.totals().bytes_spill_reads_avoided)
    finally:
        ex.shutdown()
    return elapsed, results, placed


def test_locality_beats_fifo_placement(bench_sampler, bench_gate,
                                       bench_history, hub_spoke_store,
                                       monkeypatch):
    """PR 10 acceptance: affinity placement > 1.5x over blind FIFO.

    Every sample spins up fresh worker lanes (cold resident sets), so
    each run pays its own cold attaches under the pinned cost model.
    The OFF config is the identical engine with the scheduler disabled;
    the ON config must beat it through fewer cold reads alone.
    """
    monkeypatch.setenv("REPRO_COLD_READ_BW_MBS", COLD_READ_BW_MBS)
    store, hub_refs, spoke_refs = hub_spoke_store
    # hub-major order: FIFO fans consecutive same-hub tasks across lanes
    tasks = [(hub, spoke) for hub in hub_refs for spoke in spoke_refs]
    n_tasks = len(tasks)

    _, reference, _ = _run_once(store, tasks, FaultPolicy())

    placements: list = []

    def run_off() -> float:
        elapsed, results, _ = _run_once(store, tasks, FaultPolicy())
        assert results == reference
        return elapsed

    def run_on() -> float:
        elapsed, results, placed = _run_once(
            store, tasks,
            FaultPolicy(locality=True, locality_wait_s=0.3))
        assert results == reference
        local, remote, avoided = placed
        assert local + remote == n_tasks
        assert avoided > 0
        placements.append(placed)
        return elapsed

    # sequential, non-interleaved: the whole OFF distribution first,
    # then the whole ON distribution (same protocol as the recovery
    # benchmark)
    off_dist = bench_sampler.sample_values(run_off, label="placement off")
    on_dist = bench_sampler.sample_values(run_on, label="placement on")

    speedups = speedup_samples(off_dist.samples, on_dist.samples)
    verdict = bench_gate.check_speedup(off_dist, on_dist,
                                       floor=LOCALITY_FLOOR)
    assert verdict.passed, verdict.reason

    stats = bench_gate.speedup_stats(off_dist, on_dist)
    workload = (f"psa[hausdorff] hub x spoke, {N_HUBS} spilled hubs x "
                f"{N_SPOKES} resident spokes, {n_tasks} tasks, "
                f"{LOCALITY_WORKERS} lanes, cold-read model "
                f"{COLD_READ_BW_MBS} MB/s")
    _LOCALITY_RECORDS.append({
        "workload": workload,
        "gating": True,
        "floor": LOCALITY_FLOOR,
        "n_tasks": n_tasks,
        "locality_speedup_median": stats["speedup_median"],
        "locality_speedup_mad": stats["speedup_mad"],
        "locality_speedup_lower_bound": stats["speedup_lower_bound"],
        "n_speedup_samples": len(speedups),
        "tasks_local_last": placements[-1][0],
        "tasks_remote_last": placements[-1][1],
        "bytes_spill_reads_avoided_last": placements[-1][2],
        "gate_passed": verdict.passed,
        "gate_reason": verdict.reason,
        "placement_off": off_dist.to_dict(),
        "placement_on": on_dist.to_dict(),
    })
    if bench_history is not None:
        bench_history.append(LOCALITY_SUITE, "locality_vs_fifo_placement",
                             workload,
                             {"placement_off": off_dist,
                              "placement_on": on_dist},
                             stats={**stats, "floor": LOCALITY_FLOOR,
                                    "gating": True,
                                    "gate_passed": verdict.passed})


@pytest.fixture(scope="module", autouse=True)
def write_locality_record():
    """Persist the locality comparison, even on partial runs."""
    yield
    save_record("locality", "locality: affinity placement vs FIFO fan-out", {
        "statistic": "median of pairwise off/on samples",
        "gate": "median - k*MAD > floor",
    }, _LOCALITY_RECORDS)
