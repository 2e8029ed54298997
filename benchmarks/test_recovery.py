"""Recovery economics — journal resume vs full recompute.

Checkpointing only earns its keep if coming back from a crash is
decisively cheaper than starting over.  This benchmark populates a run
journal once, then samples two full distributions on an identical
compute-heavy PSA workload: a cold recompute (no journal) and a resume
that replays every block from the journal.  The acceptance floor is the
PR's headline number — **resume must cost less than half the
recompute** — gated as ``median(recompute/resume) - k*MAD > 2``, never
as a single-run ratio.  The workload is kernel-dominated on purpose
(Hausdorff over 192-frame x 128-atom pairs), so the gate measures journal
replay against real work rather than against harness overhead.

When ``REPRO_BENCH_HISTORY=1``, the full distribution record is written
to ``BENCH_recovery.json`` and appended to ``BENCH_history.jsonl``.
"""

import time

import numpy as np
import pytest

from conftest import save_record
from repro.bench import speedup_samples
from repro.core.api import psa
from repro.trajectory import EnsembleSpec, make_clustered_ensemble

RECOVERY_SUITE = "recovery"
RESUME_FLOOR = 2.0          # resume < 0.5x recompute  <=>  speedup > 2

_RECOVERY_RECORDS: list = []


def _recovery_ensemble():
    """A kernel-dominated PSA workload: 6 x 192 frames x 128 atoms."""
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=6, n_frames=192, n_atoms=128,
                     n_clusters=2, seed=2018)
    )


def test_resume_beats_recompute(bench_sampler, bench_gate, bench_history,
                                tmp_path):
    """PR 8 acceptance: a full-journal resume costs < 0.5x the recompute.

    One checkpointed run populates the journal; every resume sample then
    replays all blocks (``tasks_restored == n_tasks``, nothing
    submitted) while every recompute sample runs the kernels from
    scratch.  Bit-identical results are asserted on both paths before
    any timing is trusted.
    """
    ensemble = _recovery_ensemble()
    ckpt = tmp_path / "journal"

    reference, _ = psa(ensemble, "dasklite", executor="serial")
    _populated, seeded = psa(ensemble, "dasklite", executor="serial",
                             checkpoint_dir=str(ckpt))
    n_tasks = seeded.metrics.tasks_submitted
    assert n_tasks > 0

    restored_counts: list = []

    def recompute() -> float:
        start = time.perf_counter()
        matrix, _report = psa(ensemble, "dasklite", executor="serial")
        elapsed = time.perf_counter() - start
        assert np.array_equal(matrix.values, reference.values)
        return elapsed

    def resume() -> float:
        start = time.perf_counter()
        matrix, report = psa(ensemble, "dasklite", executor="serial",
                             checkpoint_dir=str(ckpt))
        elapsed = time.perf_counter() - start
        assert np.array_equal(matrix.values, reference.values)
        restored_counts.append(report.metrics.tasks_restored)
        assert report.metrics.tasks_restored == n_tasks
        assert report.metrics.tasks_submitted == 0
        return elapsed

    # sequential, non-interleaved: the whole recompute distribution
    # first, then the whole resume distribution (same protocol as the
    # spill benchmark — interleaving would share cache state between
    # the two pipelines being compared)
    recompute_dist = bench_sampler.sample_values(recompute, label="recompute")
    resume_dist = bench_sampler.sample_values(resume, label="journal resume")

    assert restored_counts and min(restored_counts) == n_tasks

    speedups = speedup_samples(recompute_dist.samples, resume_dist.samples)
    verdict = bench_gate.check_speedup(recompute_dist, resume_dist,
                                       floor=RESUME_FLOOR)
    assert verdict.passed, verdict.reason

    stats = bench_gate.speedup_stats(recompute_dist, resume_dist)
    workload = (f"psa[hausdorff] {n_tasks} blocks, "
                f"6 traj x 192 frames x 128 atoms")
    _RECOVERY_RECORDS.append({
        "workload": workload,
        "gating": True,
        "floor": RESUME_FLOOR,
        "n_tasks": int(n_tasks),
        "resume_speedup_median": stats["speedup_median"],
        "resume_speedup_mad": stats["speedup_mad"],
        "resume_speedup_lower_bound": stats["speedup_lower_bound"],
        "n_speedup_samples": len(speedups),
        "gate_passed": verdict.passed,
        "gate_reason": verdict.reason,
        "recompute": recompute_dist.to_dict(),
        "resume": resume_dist.to_dict(),
    })
    if bench_history is not None:
        bench_history.append(RECOVERY_SUITE, "journal_resume_vs_recompute",
                             workload,
                             {"recompute": recompute_dist,
                              "resume": resume_dist},
                             stats={**stats, "floor": RESUME_FLOOR,
                                    "gating": True,
                                    "gate_passed": verdict.passed})


@pytest.fixture(scope="module", autouse=True)
def write_recovery_record():
    """Persist the recovery comparison, even on partial runs."""
    yield
    save_record("recovery", "recovery: journal resume vs full recompute", {
        "statistic": "median of pairwise recompute/resume samples",
        "gate": "median - k*MAD > floor",
    }, _RECOVERY_RECORDS)
