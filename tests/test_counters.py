"""The per-task counter declaration and every record built from it.

The table-driven tests walk :data:`repro.frameworks.counters.COUNTERS`,
so a counter added to the declaration is covered without a new test.
The pilot tests pin the cross-batch rollup: an agent that drains many
batches must report the same per-task counters as one that drains one.
"""

from __future__ import annotations

import copy
from dataclasses import fields

import numpy as np
import pytest

from repro.core.api import leaflet_finder, psa
from repro.core.psa import psa_serial
from repro.frameworks import FaultPolicy, FaultSpec, make_framework
from repro.frameworks.base import RunMetrics, TaskFramework
from repro.frameworks.counters import COUNTERS, MAX, MIRROR, SUM, TaskCounters
from repro.frameworks.executors import ExecutorBase, SerialExecutor, TaskTiming
from repro.frameworks.pilot import (
    ComputeUnitDescription,
    PilotAgent,
    Session,
    UnitManager,
)
from repro.trajectory import BilayerSpec, EnsembleSpec, make_bilayer, make_clustered_ensemble

COUNTER_NAMES = [f.name for f in COUNTERS]


def rule_of(name):
    return next(f.metadata["rule"] for f in COUNTERS if f.name == name)


class TestDeclaration:
    def test_every_counter_has_a_rule_and_a_doc(self):
        for f in COUNTERS:
            assert f.metadata["rule"] in (SUM, MAX, MIRROR)
            assert f.metadata["doc"]
            assert f.default == 0


class TestCombineRules:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunMetrics) if f.name != "events"])
    def test_merge_applies_each_fields_rule(self, name):
        merged = RunMetrics(**{name: 3}).merge(RunMetrics(**{name: 5}))
        rule = next(f.metadata.get("rule", SUM) for f in fields(RunMetrics) if f.name == name)
        assert getattr(merged, name) == (5 if rule == MIRROR else 8)

    @pytest.mark.parametrize("name", COUNTER_NAMES)
    def test_as_dict_carries_every_counter(self, name):
        assert RunMetrics(**{name: 7}).as_dict()[name] == 7

    @pytest.mark.parametrize("name", COUNTER_NAMES)
    def test_collect_folds_the_executor_by_rule(self, name):
        fw = TaskFramework(executor="serial")
        try:
            fw.metrics = RunMetrics(**{name: 3})
            fw.executor.timings = [TaskTiming(0, 0.0, 0.0, **{name: 5})]
            measured = fw.executor.totals()
            measured.add(TaskCounters(**{name: 1}))
            fw._collect_executor_bytes(measured)
            assert getattr(fw.metrics, name) == (9 if rule_of(name) == SUM else 6)
        finally:
            fw.close()


class TestAccumulators:
    @pytest.mark.parametrize("name", COUNTER_NAMES)
    def test_task_counters_add_and_since(self, name):
        counters = TaskCounters()
        counters.add(TaskCounters(**{name: 2}))
        before = copy.copy(counters)
        counters.add(TaskCounters(**{name: 3}))
        assert getattr(counters, name) == 5
        assert all(getattr(counters, other) == 0 for other in COUNTER_NAMES if other != name)
        assert getattr(before, name) == 2
        assert getattr(counters.since(before), name) == 3

    def test_task_counters_reject_unknown_names(self):
        with pytest.raises(TypeError):
            TaskCounters(not_a_counter=1)

    @pytest.mark.parametrize("name", COUNTER_NAMES)
    def test_executor_totals_sum_over_timings(self, name):
        ex = SerialExecutor()
        ex.timings = [TaskTiming(i, 0.0, 1.0, **{name: i + 1}) for i in range(3)]
        totals = ex.totals()
        assert getattr(totals, name) == 6
        assert all(getattr(totals, other) == 0 for other in COUNTER_NAMES if other != name)

    @pytest.mark.parametrize("name", COUNTER_NAMES)
    def test_agent_stats_accumulate_across_batches(self, name):
        class CountingExecutor(ExecutorBase):
            """Runs units serially and reports one count of ``name`` per task."""

            def map_tasks(self, fn, items):
                self.timings = [TaskTiming(i, 0.0, 0.0, **{name: 1})
                                for i in range(len(items))]
                return [fn(item) for item in items]

        session = Session()
        agent = PilotAgent(session.database, executor=CountingExecutor(), cores=2)
        manager = UnitManager(session)
        manager.submit_units([ComputeUnitDescription(callable_=int, args=(i,))
                              for i in range(5)])
        agent.drain(manager.units)
        assert agent.stats.batches_pulled == 3
        assert getattr(agent.stats, name) == 5
        assert agent.stats.as_dict()[name] == 5


# --------------------------------------------------------------------------- #
# pilot: per-task counters cover every agent batch
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fine_ensemble():
    """Six trajectories: 21 one-pair PSA tasks, 11 agent batches on 2 workers."""
    return make_clustered_ensemble(EnsembleSpec(n_trajectories=6, n_frames=16,
                                                n_atoms=32, seed=3))


def pilot_psa(ensemble, executor, plane, one_batch, **options):
    fw = make_framework("pilot", executor=executor, workers=2, data_plane=plane, **options)
    try:
        if one_batch:
            fw.pilot.agent.cores = 1000  # pull every unit in one batch
        matrix, report = psa(ensemble, fw, group_size=1)
        return matrix, report.metrics, fw.pilot.agent.stats.batches_pulled
    finally:
        fw.close()


@pytest.mark.parametrize("executor,plane", [("processes", "pickle"), ("shm", "shm")])
def test_pilot_byte_counts_cover_every_batch(fine_ensemble, executor, plane):
    many_matrix, many, many_batches = pilot_psa(fine_ensemble, executor, plane, False)
    one_matrix, one, one_batches = pilot_psa(fine_ensemble, executor, plane, True)
    assert (many_batches, one_batches) == (11, 1)
    assert np.array_equal(many_matrix.values, one_matrix.values)
    for name in ("bytes_pickled", "bytes_results_pickled", "bytes_shared_results"):
        assert getattr(many, name) == getattr(one, name), name
    assert many.bytes_pickled > 0 and many.bytes_results_pickled > 0
    assert (many.bytes_shared_results > 0) == (plane == "shm")


@pytest.mark.parametrize("analysis", ["psa", "leaflet"])
def test_pilot_shm_executor_counts_shared_bytes(fine_ensemble, analysis):
    """Pilot's agents ship shm payloads themselves, yet the run counts the
    arrays its tasks reference, as a substrate on the thread pool does."""
    positions, _ = make_bilayer(BilayerSpec(n_atoms=400, seed=9))
    shared = {}
    for name, executor in (("pilot", "shm"), ("dasklite", "threads")):
        if analysis == "psa":
            _, report = psa(fine_ensemble, name, executor=executor, workers=2,
                            data_plane="shm", group_size=1)
        else:
            _, report = leaflet_finder(positions, name, executor=executor, workers=2,
                                       data_plane="shm", approach="tree-search", n_tasks=10)
        shared[name] = report.metrics.bytes_shared
    assert shared["pilot"] == shared["dasklite"] > 0


@pytest.mark.faults
def test_pilot_faults_in_different_batches_count_exactly(fine_ensemble):
    faults = [FaultSpec("raise", at_task=1), FaultSpec("kill_worker", at_task=6)]
    matrix, metrics, batches = pilot_psa(fine_ensemble, "processes", "pickle", False,
                                         fault_policy=FaultPolicy(), faults=faults)
    assert batches == 11
    assert np.array_equal(matrix.values, psa_serial(fine_ensemble).values)
    assert metrics.tasks_retried == 2
    assert metrics.tasks_lost == 1
