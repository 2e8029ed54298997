"""Locality-aware placement: scheduler policy, engine accounting, hygiene.

The placement layer must never change *what* a run computes — only
*where* tasks execute.  The correctness matrix here pins that: PSA and
leaflet results are bit-identical with locality on and off, across both
data planes, under speculation and under worker death.  The scheduler
policy itself (delay scheduling over resident sets) is pure bookkeeping
and is unit-tested with a fake clock; the engine-level tests pin the
exact ``tasks_local`` / ``tasks_remote`` split on deterministic
single-lane runs, resident-set transport through the heartbeat
directory, dead-lane invalidation, and the two bugfixes that rode along
(the even-count speculation median and prefetch hints dropped on a full
queue).
"""

from __future__ import annotations

import os
import queue

import numpy as np
import pytest

from repro.core.api import leaflet_finder, psa
from repro.frameworks import shm as shm_mod
from repro.frameworks.base import RunMetrics
from repro.frameworks.counters import TaskCounters
from repro.frameworks.executors import (
    SharedMemoryExecutor,
    _speculation_threshold,
    _WorkerLane,
)
from repro.frameworks.faults import (
    RESIDENT_PREFIX,
    FaultPolicy,
    read_resident_set,
    reap_dead_heartbeats,
    report_resident_set,
    write_heartbeat,
)
from repro.frameworks.locality import LocalityScheduler, Placement, TaskBlocks
from repro.frameworks.shm import (
    BlockRef,
    SharedMemoryStore,
    prefetch_hints_dropped,
    prefetch_refs,
)
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
)


def ref(name, nbytes=80, spill_dir=None):
    """A BlockRef of ``nbytes`` bytes under segment ``name``."""
    return BlockRef(segment=name, shape=(nbytes // 8,), dtype="<f8",
                    spill_dir=spill_dir)


def blocks(index, *named_sizes):
    """TaskBlocks from ``(name, nbytes)`` pairs."""
    return TaskBlocks.from_refs(
        index, [ref(name, size) for name, size in named_sizes])


def block_sum(payload):
    return float(np.asarray(payload).sum())


# --------------------------------------------------------------------------- #
# the scheduler policy, unit-tested pure
# --------------------------------------------------------------------------- #
class TestTaskBlocks:
    def test_from_refs_dedups_to_largest_view(self):
        refs = [ref("a", 800), ref("a", 80), ref("b", 160)]
        task = TaskBlocks.from_refs(0, refs)
        assert task.names == frozenset({"a", "b"})
        assert task.nbytes == {"a": 800, "b": 160}

    def test_empty_refs(self):
        task = TaskBlocks.from_refs(3, [])
        assert task.names == frozenset()


class TestLocalityScheduler:
    def scheduler(self, tasks, wait_s=10.0, t0=100.0):
        clock = lambda: t0  # noqa: E731 - overridden via now= in choose
        return LocalityScheduler(tasks, wait_s, clock=clock)

    def test_prefers_best_covered_task(self):
        sched = self.scheduler([blocks(0, ("a", 80)), blocks(1, ("b", 800)),
                                blocks(2, ("c", 80))])
        choice = sched.choose([0, 1, 2], lane=0, resident=frozenset({"a", "b"}),
                              others={}, spilled=frozenset({"a", "b", "c"}))
        assert choice.index == 1          # covers 800 bytes > 80 bytes
        assert choice.local is True
        assert choice.bytes_avoided == 800
        assert choice.missing == frozenset()

    def test_tie_goes_to_queue_order(self):
        sched = self.scheduler([blocks(0, ("a", 80)), blocks(1, ("b", 80))])
        choice = sched.choose([0, 1], lane=0, resident=frozenset({"a", "b"}),
                              others={}, spilled=frozenset({"a", "b"}))
        assert choice.index == 0

    def test_partial_coverage_is_remote_with_missing_names(self):
        sched = self.scheduler([blocks(0, ("a", 80), ("b", 80))])
        choice = sched.choose([0], lane=0, resident=frozenset({"a"}),
                              others={}, spilled=frozenset({"a", "b"}))
        assert choice.local is False
        assert choice.bytes_avoided == 80
        assert choice.missing == frozenset({"b"})

    def test_spill_free_task_is_local_fallback(self):
        sched = self.scheduler([blocks(0, ("a", 80))])
        choice = sched.choose([0], lane=1, resident=frozenset(),
                              others={}, spilled=frozenset())
        assert choice == Placement(0, 1, True, 0, frozenset())

    def test_first_toucher_runs_remote_when_no_lane_covers(self):
        sched = self.scheduler([blocks(0, ("a", 80))])
        choice = sched.choose([0], lane=0, resident=frozenset(),
                              others={1: frozenset()},
                              spilled=frozenset({"a"}))
        assert choice.local is False
        assert choice.missing == frozenset({"a"})

    def test_task_affine_elsewhere_is_held_then_stolen(self):
        sched = self.scheduler([blocks(0, ("a", 80))], wait_s=5.0)
        others = {1: frozenset({"a"})}
        spilled = frozenset({"a"})
        # within the wait bound: held, the lane stays idle
        assert sched.choose([0], 0, frozenset(), others, spilled,
                            now=100.0) is None
        assert sched.choose([0], 0, frozenset(), others, spilled,
                            now=104.9) is None
        # past the bound (counted from the first pass-over): stolen
        choice = sched.choose([0], 0, frozenset(), others, spilled, now=105.0)
        assert choice is not None
        assert choice.index == 0
        assert choice.local is False

    def test_hold_state_clears_once_chosen(self):
        sched = self.scheduler([blocks(0, ("a", 80))], wait_s=5.0)
        others = {1: frozenset({"a"})}
        spilled = frozenset({"a"})
        assert sched.choose([0], 0, frozenset(), others, spilled,
                            now=100.0) is None
        choice = sched.choose([0], 0, frozenset(), others, spilled, now=106.0)
        assert choice.index == 0
        # re-queued (retry): the hold timer starts over
        assert sched.choose([0], 0, frozenset(), others, spilled,
                            now=107.0) is None

    def test_covered_task_beats_held_and_fallback(self):
        sched = self.scheduler([blocks(0, ("a", 80)), blocks(1, ("b", 80)),
                                blocks(2, ("c", 80))], wait_s=0.0)
        others = {1: frozenset({"a"})}
        choice = sched.choose([0, 1, 2], 0, frozenset({"b"}), others,
                              frozenset({"a", "b"}), now=100.0)
        assert choice.index == 1

    def test_unknown_index_treated_as_spill_free(self):
        sched = self.scheduler([blocks(0, ("a", 80))])
        choice = sched.choose([7], 0, frozenset(), {}, frozenset({"a"}))
        assert choice == Placement(7, 0, True, 0, frozenset())

    def test_names_for(self):
        sched = self.scheduler([blocks(4, ("a", 80), ("b", 80))])
        assert sched.names_for(4) == frozenset({"a", "b"})
        assert sched.names_for(9) == frozenset()


# --------------------------------------------------------------------------- #
# satellite bugfix: even-count speculation median
# --------------------------------------------------------------------------- #
class TestSpeculationThreshold:
    def test_even_count_uses_midpoint_median(self):
        policy = FaultPolicy(speculation_factor=2.0, heartbeat_interval_s=0.05)
        # sorted[len//2] would pick 3.0 and yield 6.0, delaying
        # speculation; the true median of [1, 2, 3, 4] is 2.5
        assert _speculation_threshold([4.0, 1.0, 3.0, 2.0], policy) == 5.0

    def test_odd_count_unchanged(self):
        policy = FaultPolicy(speculation_factor=2.0, heartbeat_interval_s=0.05)
        assert _speculation_threshold([3.0, 1.0, 2.0], policy) == 4.0

    def test_heartbeat_floor_still_applies(self):
        policy = FaultPolicy(speculation_factor=3.0, heartbeat_interval_s=0.5)
        assert _speculation_threshold([0.001, 0.002], policy) == 1.5


# --------------------------------------------------------------------------- #
# satellite bugfix: prefetch hint drops are counted, siblings survive
# --------------------------------------------------------------------------- #
class TestPrefetchDrops:
    def test_full_queue_drops_only_the_full_hint(self, tmp_path, monkeypatch):
        # a one-slot queue with no drain thread: the first hint fills it,
        # the siblings behind it must still be attempted (and counted as
        # dropped) instead of being silently abandoned
        stub = queue.Queue(maxsize=1)
        monkeypatch.setattr(shm_mod, "_prefetch_queue", stub)
        spill = str(tmp_path)
        refs = [ref("pf-a", 80, spill), ref("pf-b", 80, spill),
                ref("pf-c", 80, spill)]
        before = prefetch_hints_dropped()
        hints = prefetch_refs(refs)
        assert hints == 1
        assert prefetch_hints_dropped() - before == 2

    def test_refs_without_spill_dir_are_not_hints(self):
        before = prefetch_hints_dropped()
        assert prefetch_refs([ref("no-spill", 80)]) == 0
        assert prefetch_hints_dropped() == before


# --------------------------------------------------------------------------- #
# resident-set transport and dead-lane invalidation
# --------------------------------------------------------------------------- #
class TestResidentSetReporting:
    def test_report_read_round_trip(self, tmp_path):
        hb_dir = str(tmp_path)
        report_resident_set(hb_dir)
        names = read_resident_set(hb_dir, os.getpid())
        assert names is not None
        assert isinstance(names, frozenset)

    def test_read_missing_pid_returns_none(self, tmp_path):
        assert read_resident_set(str(tmp_path), 1) is None

    def test_reap_removes_dead_pid_resident_sets(self, tmp_path):
        hb_dir = str(tmp_path)
        report_resident_set(hb_dir)
        own = os.path.join(hb_dir, f"{RESIDENT_PREFIX}{os.getpid()}")
        # forge a report from a pid that cannot be alive
        dead = os.path.join(hb_dir, f"{RESIDENT_PREFIX}999999999")
        with open(dead, "w") as fh:
            fh.write("stale-block\n")
        write_heartbeat(hb_dir)
        reap_dead_heartbeats(hb_dir)
        assert not os.path.exists(dead)
        assert os.path.exists(own)

    def test_rebuilt_lane_forgets_resident_set(self):
        lane = _WorkerLane(0)
        try:
            lane.resident = frozenset({"a", "b"})
            lane.pid = 12345
            lane.rebuild()
            assert lane.resident == frozenset()
            assert lane.pid is None
        finally:
            lane.pool.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# engine accounting on deterministic single-lane runs
# --------------------------------------------------------------------------- #
class TestPlacementAccounting:
    def spilled_store(self, tmp_path):
        """A store where block A is deterministically on the disk tier."""
        a = np.arange(8192, dtype=np.float64)          # 64 KiB
        b = np.arange(8192, dtype=np.float64) + 1.0
        store = SharedMemoryStore(capacity_bytes=80 * 1024,
                                  spill_dir=str(tmp_path),
                                  spill_async=False)
        ref_a = store.put(a)
        ref_b = store.put(b)                            # evicts A (cold, largest)
        assert store.spilled_names() == frozenset({ref_a.segment})
        return store, ref_a, ref_b, a, b

    def test_exact_local_remote_split(self, tmp_path):
        store, ref_a, _, a, _ = self.spilled_store(tmp_path)
        ex = SharedMemoryExecutor(workers=1, store=store,
                                  fault_policy=FaultPolicy(locality=True))
        try:
            results = ex.map_tasks(block_sum, [ref_a, ref_a, ref_a, ref_a])
            assert results == [float(a.sum())] * 4
            # the first toucher pays the cold read; with one lane every
            # later task finds A resident there
            assert ex.totals().tasks_remote == 1
            assert ex.totals().tasks_local == 3
            assert ex.totals().bytes_spill_reads_avoided == 3 * a.nbytes
            assert ex.last_hb_leftovers == []
            # the lane outlives the call, and so does its resident set:
            # the next call finds A resident from its first task on
            assert ex.map_tasks(block_sum, [ref_a, ref_a]) == [float(a.sum())] * 2
            assert ex.totals().tasks_local == 2
            assert ex.totals().tasks_remote == 0
        finally:
            ex.shutdown()
        store.cleanup()

    def test_spill_free_tasks_all_local(self, tmp_path):
        ex = SharedMemoryExecutor(workers=2,
                                  fault_policy=FaultPolicy(locality=True))
        try:
            arrays = [np.full(64, float(i)) for i in range(6)]
            results = ex.map_tasks(block_sum, arrays)
            assert results == [float(arr.sum()) for arr in arrays]
            assert ex.totals().tasks_local == 6
            assert ex.totals().tasks_remote == 0
            assert ex.totals().bytes_spill_reads_avoided == 0
            assert ex.last_hb_leftovers == []
        finally:
            ex.shutdown()

    def test_locality_off_places_nothing(self):
        ex = SharedMemoryExecutor(workers=2, fault_policy=FaultPolicy())
        try:
            ex.map_tasks(block_sum, [np.full(64, 1.0), np.full(64, 2.0)])
            assert ex.totals().tasks_local == 0
            assert ex.totals().tasks_remote == 0
        finally:
            ex.shutdown()

    def test_dispatch_prefetch_drops_surface_in_totals(self, tmp_path,
                                                       monkeypatch):
        # driver-side prefetch at dispatch meets a full hint queue: the
        # drops must land in the executor totals (and thence RunMetrics)
        store, ref_a, _, a, _ = self.spilled_store(tmp_path)
        stub = queue.Queue(maxsize=1)
        stub.put_nowait(("x", "y"))
        monkeypatch.setattr(shm_mod, "_prefetch_queue", stub)
        ex = SharedMemoryExecutor(workers=1, store=store,
                                  fault_policy=FaultPolicy(locality=True))
        try:
            results = ex.map_tasks(block_sum, [ref_a, ref_a])
            assert results == [float(a.sum())] * 2
            assert ex.totals().prefetch_hints_dropped >= 1
        finally:
            ex.shutdown()
        store.cleanup()


# --------------------------------------------------------------------------- #
# metrics plumbing
# --------------------------------------------------------------------------- #
class TestLocalityMetrics:
    def test_run_metrics_merge_and_dict_carry_placement_fields(self):
        one = RunMetrics(tasks_local=3, tasks_remote=1,
                         bytes_spill_reads_avoided=4096,
                         prefetch_hints_dropped=2)
        two = RunMetrics(tasks_local=1, tasks_remote=2,
                         bytes_spill_reads_avoided=1024,
                         prefetch_hints_dropped=1)
        merged = one.merge(two)
        assert merged.tasks_local == 4
        assert merged.tasks_remote == 3
        assert merged.bytes_spill_reads_avoided == 5120
        assert merged.prefetch_hints_dropped == 3
        view = merged.as_dict()
        assert view["tasks_local"] == 4
        assert view["tasks_remote"] == 3
        assert view["bytes_spill_reads_avoided"] == 5120
        assert view["prefetch_hints_dropped"] == 3

    def test_task_counters_total_carries_placement_fields(self):
        per_task = [TaskCounters(tasks_local=1, bytes_spill_reads_avoided=512),
                    TaskCounters(tasks_remote=1, prefetch_hints_dropped=4)]
        totals = TaskCounters.total(per_task)
        assert totals.tasks_local == 1
        assert totals.tasks_remote == 1
        assert totals.bytes_spill_reads_avoided == 512
        assert totals.prefetch_hints_dropped == 4
        totals.add(per_task[0])
        assert totals.tasks_local == 2
        assert totals.bytes_spill_reads_avoided == 1024

    def test_policy_knobs_validate(self):
        policy = FaultPolicy(locality=True, locality_wait_s=0.2)
        assert policy.locality is True
        with pytest.raises(ValueError):
            FaultPolicy(locality_wait_s=-1.0)


# --------------------------------------------------------------------------- #
# the correctness matrix: locality must never change results
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def locality_ensemble():
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=5, n_frames=8, n_atoms=16, n_clusters=2,
                     seed=42))


@pytest.fixture(scope="module")
def locality_reference(locality_ensemble):
    matrix, _ = psa(locality_ensemble, "dasklite", executor="serial")
    return matrix.values.copy()


class TestLocalityCorrectnessMatrix:
    @pytest.mark.parametrize("plane", ["pickle", "shm"])
    def test_psa_bit_identical_with_locality(self, plane, locality_ensemble,
                                             locality_reference, tmp_path):
        matrix, report = psa(
            locality_ensemble, "pilot", executor="shm", workers=2,
            data_plane=plane,
            store_capacity_bytes=48 * 1024,
            spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(locality=True, locality_wait_s=0.02))
        assert np.array_equal(matrix.values, locality_reference)
        placed = (report.metrics.tasks_local + report.metrics.tasks_remote)
        if plane == "shm":
            assert placed >= report.metrics.tasks_completed
        assert report.metrics.as_dict()["tasks_local"] == \
            report.metrics.tasks_local

    def test_psa_locality_with_speculation(self, locality_ensemble,
                                           locality_reference, tmp_path):
        # speculated duplicates bypass placement; results stay identical
        matrix, report = psa(
            locality_ensemble, "pilot", executor="shm", workers=2,
            data_plane="shm", spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(locality=True, locality_wait_s=0.02,
                                     speculation_factor=50.0,
                                     heartbeat_interval_s=0.05))
        assert np.array_equal(matrix.values, locality_reference)

    def test_leaflet_bit_identical_with_locality(self, tmp_path):
        positions, _ = make_bilayer(BilayerSpec(n_atoms=240, seed=9))
        reference, _ = leaflet_finder(positions, "dasklite",
                                      executor="serial",
                                      approach="tree-search", n_tasks=6)
        result, _ = leaflet_finder(
            positions, "pilot", executor="shm", workers=2, data_plane="shm",
            approach="tree-search", n_tasks=6,
            fault_policy=FaultPolicy(locality=True, locality_wait_s=0.02))
        assert result.sizes == reference.sizes
