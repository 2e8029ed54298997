"""Chaos suite: injected faults across every substrate and data plane.

The resilience layer's acceptance criteria live here.  For each of the
four substrates × both data planes, a worker is killed (really, for the
process pools; simulated as :class:`WorkerLost` for in-process
executors) or a kernel made to raise mid-run, and the run must finish
with results *bit-identical* to a fault-free run, exact
``tasks_retried`` / ``tasks_lost`` metrics, and no ``/dev/shm`` or
spill-file leaks.  The pool executors additionally cover the real
failure machinery: SIGKILL mid-task and between publish and adoption
(the driver names each attempt's result segments, so it unlinks a
killed attempt's segments by that name, and only those), hung workers
killed once their task overruns ``heartbeat_timeout_s`` (the driver
signals only its own live, unreaped lane children), unresolvable
result blocks re-executed, and spilled payload blocks unlinked or
corrupted under a live run and healed from their registered sources.

The spill-writer failure tests reproduce (and pin the fix for) the
latent leak where an eviction waiting on backpressure when the writer
died would enqueue its victim into a queue nobody drains — leaving the
block name in the registry's ``enqueued`` state forever with residency
accounting already discounted.

Everything here is deterministic: faults are claimed at first-attempt
dispatch in dispatch order and consumed when they fire, so a recovered
run continues fault-free and re-runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import leaflet_finder, psa, stream_windows
from repro.core.leaflet import leaflet_serial
from repro.core.psa import psa_serial
from repro.frameworks import executors as executors_mod
from repro.frameworks import faults as faults_mod
from repro.frameworks import make_framework
from repro.frameworks.checkpoint import (
    JournaledTask,
    RunJournal,
    StaleJournal,
    run_fingerprint,
)
from repro.frameworks.base import TaskFramework
from repro.frameworks.executors import (
    ProcessExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    _speculation_threshold,
    _WorkerLane,
)
from repro.frameworks.faults import (
    HEARTBEAT_INTERVAL_S,
    BlockLost,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedFault,
    WorkerLost,
    as_injector,
)
from repro.frameworks.shm import PUBLISH_PREFIX, SharedMemoryStore
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
    open_streaming_ensemble,
    write_frame_chunks,
    write_position_chunks,
)
from repro.trajectory.streaming import ChunkedPositions

pytestmark = pytest.mark.faults

FRAMEWORK_NAMES = ("sparklite", "dasklite", "pilot", "mpilite")
DATA_PLANES = ("pickle", "shm")


def shm_entries():
    """Current /dev/shm segment names (empty set if the dir is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux fallback: nothing to compare
        return set()


@pytest.fixture(scope="module")
def chaos_ensemble():
    """A tiny PSA ensemble: enough tasks for mid-run faults, fast to run."""
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=5, n_frames=8, n_atoms=16, n_clusters=2, seed=42)
    )


@pytest.fixture(scope="module")
def reference_matrix(chaos_ensemble):
    """The fault-free PSA matrix every chaos run must reproduce exactly."""
    matrix, _ = psa(chaos_ensemble, "dasklite", executor="serial")
    return matrix.values.copy()


@pytest.fixture(scope="module")
def chaos_bilayer():
    """A small bilayer plus its fault-free leaflet component sizes."""
    positions, _ = make_bilayer(BilayerSpec(n_atoms=240, seed=9))
    result, _ = leaflet_finder(positions, "dasklite", executor="serial",
                               approach="tree-search", n_tasks=6)
    return positions, result.sizes


def square(x):
    return x * x


def slow_square(x):
    """A task long enough for the speculation median to be meaningful."""
    time.sleep(0.05)
    return x * x


def make_block(x):
    """A task returning an ndarray (rides the result plane on shm)."""
    return np.full((12, 12), float(x))


def scale_block(a):
    """A task over an ndarray payload (rides the shm plane both ways)."""
    return a * 2.0


def block_after(seconds):
    """A task returning an ndarray after ``seconds``: a result still in flight."""
    time.sleep(seconds)
    return np.full((12, 12), seconds)


def block_after_one_failure(marker):
    """A task returning an ndarray that raises once: on its first call
    for the ``marker`` path, in whichever process runs it."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise OSError("transient failure")
    return np.full((12, 12), 1.0)


def flaky_once(marker_dir):
    """A task function that fails its first invocation per marker dir."""
    def task(x):
        marker = os.path.join(marker_dir, "fired")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("x")
            raise OSError("transient failure")
        return x * x
    return task


# --------------------------------------------------------------------------- #
# fault-spec / injector / policy plumbing
# --------------------------------------------------------------------------- #
class TestFaultPlumbing:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match="at_task"):
            FaultSpec("raise", at_task=-1)
        with pytest.raises(ValueError, match="when"):
            FaultSpec("kill_worker", when="later")
        with pytest.raises(ValueError, match="target"):
            FaultSpec("unlink_block", target="everything")
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec("delay", delay_s=-1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(on_lost_block="ignore")

    def test_policy_has_five_settings(self):
        assert [f.name for f in dataclasses.fields(FaultPolicy)] == [
            "max_retries", "retry_on", "heartbeat_timeout_s",
            "on_lost_block", "speculation_factor"]

    @pytest.mark.parametrize("setting", ["backoff_s", "backoff_factor",
                                         "checkpoint_interval_tasks",
                                         "heartbeat_interval_s"])
    def test_policy_rejects_removed_settings(self, setting):
        # a retry does not wait, every completion is journalled and the
        # driver wakes every HEARTBEAT_INTERVAL_S: a caller still asking
        # for any of these gets an error, not a silent no-op
        with pytest.raises(TypeError, match=setting):
            FaultPolicy(**{setting: 1})

    def test_policy_should_retry_taxonomy(self):
        policy = FaultPolicy(max_retries=1, retry_on=(OSError,))
        assert policy.should_retry(WorkerLost("x"), 0)          # always transient
        assert policy.should_retry(OSError("x"), 0)
        assert not policy.should_retry(ValueError("x"), 0)      # not in retry_on
        assert not policy.should_retry(OSError("x"), 1)         # budget exhausted
        assert policy.should_retry(BlockLost("seg"), 0)
        strict = FaultPolicy(on_lost_block="raise")
        assert not strict.should_retry(BlockLost("seg"), 0)

    def test_injector_claims_first_attempts_in_dispatch_order(self):
        injector = FaultInjector(FaultSpec("raise", at_task=2),
                                 FaultSpec("delay", at_task=0))
        assert injector.claim(0).kind == "delay"       # dispatch 0
        assert injector.claim(1) is None               # retries never claim
        assert injector.claim(0) is None               # dispatch 1
        assert injector.claim(0).kind == "raise"       # dispatch 2
        assert injector.claim(0) is None               # consumed
        assert [s.kind for s in injector.fired] == ["delay", "raise"]
        injector.reset()
        assert len(injector.pending) == 2

    def test_unclaim_rolls_back_a_dispatch(self):
        injector = FaultInjector(FaultSpec("raise", at_task=1))
        assert injector.claim(0) is None                  # dispatch 0
        spec = injector.claim(0)                          # dispatch 1 fires
        assert spec is not None
        injector.unclaim(spec)                            # dispatch never ran
        assert injector.fired == []
        assert injector.claim(0).kind == "raise"          # dispatch 1, again
        # rolling back a no-fault claim only rewinds the counter
        injector2 = FaultInjector(FaultSpec("raise", at_task=1))
        assert injector2.claim(0) is None
        injector2.unclaim(None)
        assert injector2.claim(0) is None                 # still dispatch 0
        assert injector2.claim(0).kind == "raise"

    def test_framework_preserves_prebuilt_executor_config(self):
        from repro.frameworks.executors import SerialExecutor

        ex = SerialExecutor(fault_policy=FaultPolicy(max_retries=5))
        fw = make_framework("dasklite", executor=ex,
                            faults=FaultSpec("raise", at_task=0))
        try:
            # the executor's policy survives a framework that only added
            # an injector — and reaches the framework's own retry wrapper
            assert ex.fault_policy is not None
            assert ex.fault_policy.max_retries == 5
            assert fw.fault_policy is ex.fault_policy
            results = fw.map_tasks(square, list(range(3)))
            assert results == [0, 1, 4]
            assert fw.metrics.tasks_retried == 1
        finally:
            fw.close()

    def test_as_injector_coercions(self):
        assert as_injector(None) is None
        spec = FaultSpec("raise")
        assert as_injector(spec).pending == (spec,)
        injector = FaultInjector(spec)
        assert as_injector(injector) is injector
        assert len(as_injector([spec, FaultSpec("delay", at_task=1)]).pending) == 2
        with pytest.raises(TypeError):
            FaultInjector("raise")


# --------------------------------------------------------------------------- #
# the substrate x plane chaos matrix (acceptance criterion)
# --------------------------------------------------------------------------- #
class TestChaosMatrix:
    """One injected fault per run; results bit-identical, metrics exact."""

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_worker_kill_mid_psa(self, name, plane, chaos_ensemble,
                                 reference_matrix, tmp_path):
        before = shm_entries()
        matrix, report = psa(
            chaos_ensemble, name, executor="serial", data_plane=plane,
            spill_dir=str(tmp_path), fault_policy=FaultPolicy(),
            faults=FaultSpec("kill_worker", at_task=2))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried == 1
        assert report.metrics.tasks_lost == 1
        assert shm_entries() == before
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_kernel_raise_mid_psa(self, name, plane, chaos_ensemble,
                                  reference_matrix, tmp_path):
        before = shm_entries()
        matrix, report = psa(
            chaos_ensemble, name, executor="serial", data_plane=plane,
            spill_dir=str(tmp_path), fault_policy=FaultPolicy(),
            faults=FaultSpec("raise", at_task=1))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried == 1
        assert report.metrics.tasks_lost == 0    # an in-task raise is not a loss
        assert shm_entries() == before
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_spilled_block_unlinked_under_live_run(self, name, chaos_ensemble,
                                                   reference_matrix, tmp_path):
        """Unlink a spilled payload .blk mid-run: healed from its source."""
        before = shm_entries()
        matrix, report = psa(
            chaos_ensemble, name, executor="serial", data_plane="shm",
            store_capacity_bytes=4096, spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(),
            faults=FaultSpec("unlink_block", at_task=0))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried >= 1
        assert report.metrics.tasks_lost >= 1
        assert shm_entries() == before
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_worker_kill_mid_leaflet(self, name, plane, chaos_bilayer):
        positions, expected_sizes = chaos_bilayer
        before = shm_entries()
        result, report = leaflet_finder(
            positions, name, executor="serial", data_plane=plane,
            approach="tree-search", n_tasks=6, fault_policy=FaultPolicy(),
            faults=FaultSpec("kill_worker", at_task=3))
        assert result.sizes == expected_sizes
        assert report.metrics.tasks_retried >= 1
        assert report.metrics.tasks_lost >= 1
        assert shm_entries() == before

    def test_fault_free_run_reports_zero_retries(self, chaos_ensemble,
                                                 reference_matrix):
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             fault_policy=FaultPolicy())
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried == 0
        assert report.metrics.tasks_lost == 0
        assert report.metrics.recovery_seconds == 0.0

    @pytest.mark.parametrize("name", ["dasklite", "mpilite"])
    def test_reused_executor_reports_no_stale_retries(self, name):
        # a retry counted on the executor by an earlier framework must not
        # show up in a later fault-free call on the same executor
        ex = ThreadExecutor(workers=2)
        try:
            first = TaskFramework(executor=ex, fault_policy=FaultPolicy(),
                                  faults=FaultSpec("raise"))
            assert first.map_tasks(square, list(range(3))) == [0, 1, 4]
            assert first.metrics.tasks_retried == 1
            fw = make_framework(name, executor=ex)
            assert fw.map_tasks(square, list(range(3))) == [0, 1, 4]
            assert fw.metrics.tasks_retried == 0
        finally:
            ex.shutdown()


# --------------------------------------------------------------------------- #
# policy gating
# --------------------------------------------------------------------------- #
class TestPolicyGating:
    def test_without_policy_faults_are_fatal(self):
        fw = make_framework("dasklite", executor="serial",
                            faults=FaultSpec("raise", at_task=1))
        try:
            with pytest.raises(InjectedFault):
                fw.map_tasks(square, list(range(4)))
        finally:
            fw.close()

    def test_retry_on_excludes_the_exception(self):
        fw = make_framework("dasklite", executor="serial",
                            fault_policy=FaultPolicy(retry_on=(OSError,)),
                            faults=FaultSpec("raise", at_task=0))
        try:
            with pytest.raises(InjectedFault):
                fw.map_tasks(square, list(range(3)))
        finally:
            fw.close()

    def test_exhausted_budget_surfaces_the_failure(self, tmp_path):
        fw = make_framework("mpilite", executor="serial",
                            fault_policy=FaultPolicy(max_retries=0),
                            faults=FaultSpec("kill_worker", at_task=0))
        try:
            with pytest.raises(Exception) as info:
                fw.map_tasks(square, list(range(3)))
        finally:
            fw.close()
        assert "injected worker kill" in str(info.value)

    @pytest.mark.parametrize("name,executor", [
        ("dasklite", "serial"),       # call_in_process
        ("mpilite", "serial"),        # call_in_process on the ranks
        ("pilot", "serial"),          # pilot's unit rescheduling
        ("dasklite", "processes"),    # the process-lane engine
    ])
    def test_retry_recovers_without_pausing(self, name, executor, monkeypatch,
                                            tmp_path):
        """Every attempt loop re-executes a failed task at once."""
        pauses = []

        class Clock:
            def sleep(self, seconds):
                pauses.append(seconds)

            def __getattr__(self, attr):
                return getattr(time, attr)

        monkeypatch.setattr(faults_mod, "time", Clock())
        if name == "pilot":
            # the agent's executor would consume an injected fault; a unit
            # whose body fails once reaches pilot's own rescheduling
            fn, faults = flaky_once(str(tmp_path)), None
        else:
            fn, faults = square, FaultSpec("raise", at_task=1)
        fw = make_framework(name, executor=executor, workers=1,
                            fault_policy=FaultPolicy(), faults=faults)
        try:
            assert fw.map_tasks(fn, list(range(4))) == [0, 1, 4, 9]
            assert fw.metrics.tasks_retried == 1
            if name == "pilot":
                # 4 units and the one replacement unit
                assert fw.pilot.agent.stats.units_executed == 5
        finally:
            fw.close()
        assert pauses == []

    def test_user_code_failures_retry_on_every_substrate(self, tmp_path):
        """A genuinely flaky task (no injector) recovers everywhere."""
        for name in FRAMEWORK_NAMES:
            marker = tmp_path / name
            marker.mkdir()
            fw = make_framework(name, executor="serial",
                                fault_policy=FaultPolicy(retry_on=(OSError,)))
            try:
                results = fw.map_tasks(flaky_once(str(marker)), list(range(4)))
                assert results == [0, 1, 4, 9]
                assert fw.metrics.tasks_retried == 1
                assert fw.metrics.tasks_lost == 0
            finally:
                fw.close()


# --------------------------------------------------------------------------- #
# real process-pool failures
# --------------------------------------------------------------------------- #
class TestRealWorkerDeath:
    def test_process_pool_sigkill_recovers_exactly(self):
        ex = ProcessExecutor(workers=1, fault_policy=FaultPolicy(),
                             fault_injector=FaultInjector(
                                 FaultSpec("kill_worker", at_task=2)))
        try:
            results = ex.map_tasks(square, list(range(6)))
            assert results == [0, 1, 4, 9, 16, 25]
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
            assert ex.totals().recovery_seconds > 0.0
        finally:
            ex.shutdown()

    def test_process_pool_sigkill_with_spare_workers(self):
        ex = ProcessExecutor(workers=2, fault_policy=FaultPolicy(),
                             fault_injector=FaultInjector(
                                 FaultSpec("kill_worker", at_task=3)))
        try:
            results = ex.map_tasks(square, list(range(10)))
            assert results == [x * x for x in range(10)]
            assert ex.totals().tasks_lost >= 1
            assert ex.totals().tasks_retried >= 1
        finally:
            ex.shutdown()

    def test_unrecoverable_worker_death_raises_worker_lost(self):
        ex = ProcessExecutor(workers=1, fault_policy=FaultPolicy(max_retries=0),
                             fault_injector=FaultInjector(
                                 FaultSpec("kill_worker", at_task=1)))
        try:
            with pytest.raises(WorkerLost):
                ex.map_tasks(square, list(range(4)))
        finally:
            ex.shutdown()

    def test_shm_pool_kill_before_task(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=1, fault_policy=FaultPolicy(),
                                  fault_injector=FaultInjector(
                                      FaultSpec("kill_worker", at_task=1)))
        try:
            results = ex.map_tasks(make_block, list(range(4)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_lost == 1
        finally:
            ex.shutdown()
        assert shm_entries() == before

    def test_shm_pool_kill_between_publish_and_adoption(self):
        """The crash window SIGKILL leaves: the driver unlinks the killed
        attempt's segments by the name it gave them."""
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=1, fault_policy=FaultPolicy(),
                                  fault_injector=FaultInjector(
                                      FaultSpec("kill_worker", at_task=1,
                                                when="after_publish")))
        try:
            results = ex.map_tasks(make_block, list(range(4)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
        finally:
            ex.shutdown()
        leaked = {name for name in shm_entries() - before
                  if name.startswith(PUBLISH_PREFIX)}
        assert not leaked
        assert shm_entries() == before

    def test_reclaim_touches_only_its_own_attempts_names(self, monkeypatch):
        """A lane killed after publishing is reclaimed while another lane's
        published result is still unread: only the killed attempt's
        names go, and the live result is adopted bit-identically."""
        before = shm_entries()
        reclaims = []
        real_unlink = executors_mod.unlink_published

        def unlink_once_the_other_result_is_out(name):
            # hold the reclaim until the live lane has published
            deadline = time.monotonic() + 30.0
            while not (others := {e for e in shm_entries() - before
                                  if e.startswith(PUBLISH_PREFIX)
                                  and not e.startswith(name + "-")}):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            removed = real_unlink(name)
            reclaims.append((removed, others <= shm_entries()))
            return removed

        monkeypatch.setattr(executors_mod, "unlink_published",
                            unlink_once_the_other_result_is_out)
        ex = SharedMemoryExecutor(workers=2, fault_policy=FaultPolicy(),
                                  fault_injector=FaultInjector(
                                      FaultSpec("kill_worker", at_task=0,
                                                when="after_publish")))
        try:
            results = ex.map_tasks(block_after, [0.0, 0.2])
            assert np.array_equal(results[0], block_after(0.0))
            assert np.array_equal(results[1], block_after(0.2))
            assert ex.totals().tasks_lost == 1
        finally:
            ex.shutdown()
        # one reclaim, of the one segment the killed attempt published,
        # and the other lane's segment was still there after it
        assert reclaims == [(1, True)]
        assert shm_entries() == before

    def test_heartbeat_monitor_reaps_hung_worker(self):
        start = time.monotonic()
        ex = SharedMemoryExecutor(
            workers=1,
            fault_policy=FaultPolicy(heartbeat_timeout_s=0.5),
            fault_injector=FaultInjector(
                FaultSpec("delay", at_task=1, delay_s=60.0)))
        try:
            results = ex.map_tasks(square, list(range(3)))
            assert results == [0, 1, 4]
            assert ex.totals().tasks_lost == 1
            assert time.monotonic() - start < 30.0  # nowhere near the 60s hang
        finally:
            ex.shutdown()

    @pytest.mark.parametrize("fault", [
        dict(kind="kill_worker"),
        dict(kind="kill_worker", when="after_publish"),
        dict(kind="unlink_block", target="result"),
    ], ids=["kill", "kill-after-publish", "unlink-result"])
    @pytest.mark.parametrize("executor", ["shm", "processes"])
    @pytest.mark.parametrize("name", ["pilot", "dasklite"])
    def test_psa_on_shm_executor_survives_sigkill(self, name, executor, fault,
                                                  chaos_ensemble,
                                                  reference_matrix):
        # the substrates that run their tasks on a process pool (sparklite's
        # stage tasks are closures that do not pickle, and mpilite's ranks
        # are driver threads); both pools carry the shm plane's refs the
        # same way
        before = shm_entries()
        matrix, report = psa(chaos_ensemble, name, executor=executor,
                             workers=2, data_plane="shm",
                             fault_policy=FaultPolicy(),
                             faults=FaultSpec(at_task=2, **fault))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried >= 1
        assert report.metrics.tasks_lost >= 1
        assert shm_entries() == before


# --------------------------------------------------------------------------- #
# lost and corrupted blocks
# --------------------------------------------------------------------------- #
class TestLostBlocks:
    def test_lost_result_segment_reexecutes_task(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=1, fault_policy=FaultPolicy(),
                                  fault_injector=FaultInjector(
                                      FaultSpec("unlink_block", at_task=1,
                                                target="result")))
        try:
            results = ex.map_tasks(make_block, list(range(3)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
        finally:
            ex.shutdown()
        assert shm_entries() == before

    @pytest.mark.parametrize("max_retries", [1, 2])
    def test_result_fault_goes_with_the_attempt_that_claimed_it(self, max_retries,
                                                               tmp_path):
        # task 0's first attempt claims the result fault and raises; the
        # fault goes with that attempt, so the retry's result is adopted
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=1,
                                  fault_policy=FaultPolicy(max_retries=max_retries),
                                  fault_injector=FaultInjector(
                                      FaultSpec("unlink_block", at_task=0,
                                                target="result")))
        try:
            results = ex.map_tasks(block_after_one_failure, [str(tmp_path / "fired")])
            assert np.array_equal(results[0], np.full((12, 12), 1.0))
            assert ex.totals().tasks_retried == 1
            assert ex.totals().tasks_lost == 0
        finally:
            ex.shutdown()
        assert shm_entries() == before

    def test_corrupted_spill_file_heals_from_source(self, chaos_ensemble,
                                                    reference_matrix, tmp_path):
        before = shm_entries()
        matrix, report = psa(
            chaos_ensemble, "dasklite", executor="serial", data_plane="shm",
            store_capacity_bytes=4096, spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(),
            faults=FaultSpec("corrupt_block", at_task=0))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_retried >= 1
        assert shm_entries() == before
        assert os.listdir(tmp_path) == []

    def test_on_lost_block_raise_propagates(self, chaos_ensemble, tmp_path):
        with pytest.raises(BlockLost):
            psa(chaos_ensemble, "dasklite", executor="serial", data_plane="shm",
                store_capacity_bytes=4096, spill_dir=str(tmp_path),
                fault_policy=FaultPolicy(on_lost_block="raise"),
                faults=FaultSpec("unlink_block", at_task=0))

    def test_recover_spilled_block_contract(self, tmp_path):
        rng = np.random.default_rng(3)
        store = SharedMemoryStore(capacity_bytes=4000, spill_dir=str(tmp_path),
                                  spill_async=False)
        try:
            arrays = [rng.random((25, 20)) for _ in range(3)]  # 4000 bytes each
            refs = [store.put(a) for a in arrays]
            spilled = [r for r in refs
                       if os.path.exists(os.path.join(str(tmp_path),
                                                      r.segment + ".blk"))]
            assert spilled, "capacity 4000 must have spilled at least one block"
            victim = spilled[0]
            os.remove(os.path.join(str(tmp_path), victim.segment + ".blk"))
            assert store.recover_spilled_block(victim.segment)
            expected = arrays[refs.index(victim)]
            assert np.array_equal(victim.resolve(), expected)
            # unknown or resident names cannot be healed
            assert not store.recover_spilled_block("no-such-block")
            resident = [r for r in refs if r not in spilled]
            if resident:
                assert not store.recover_spilled_block(resident[0].segment)
        finally:
            store.cleanup()

    def test_block_lost_error_pickles_with_context(self):
        import pickle

        err = BlockLost("seg-1", "/tmp/spill")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.segment == "seg-1"
        assert clone.spill_dir == "/tmp/spill"
        assert isinstance(clone, FileNotFoundError)


# --------------------------------------------------------------------------- #
# the spill-writer backpressure leak (latent bug, now fixed)
# --------------------------------------------------------------------------- #
class TestSpillWriterFailure:
    def _failing_store(self, tmp_path, release, entered):
        """A write-behind store whose first spill write blocks, then fails."""
        store = SharedMemoryStore(capacity_bytes=4000, spill_dir=str(tmp_path),
                                  spill_async=True, spill_queue_depth=1)

        def broken_write(name, segment):
            entered.set()
            release.wait(timeout=30.0)
            raise OSError("spill device gone")

        store._write_block = broken_write
        return store

    def test_backpressure_eviction_does_not_leak_into_dead_queue(self, tmp_path):
        """The reproduced leak: an eviction that was waiting on backpressure
        when the writer died must reinstate its victim, not enqueue it."""
        release = threading.Event()
        entered = threading.Event()
        store = self._failing_store(tmp_path, release, entered)
        rng = np.random.default_rng(11)
        arrays = [rng.random((25, 20)) for _ in range(5)]  # 4000 bytes each
        refs = []
        errors = []

        def put_all():
            try:
                for a in arrays:
                    refs.append(store.put(a))
            except RuntimeError as exc:
                errors.append(exc)

        try:
            putter = threading.Thread(target=put_all)
            putter.start()
            assert entered.wait(timeout=10.0)  # writer is busy dying
            time.sleep(0.2)                    # let a put block on backpressure
            release.set()                      # writer now fails
            putter.join(timeout=10.0)
            assert not putter.is_alive()
            # the evicting put surfaced the sticky writer failure...
            assert errors and "spill writer" in str(errors[0])
            # ...and nothing lingers in the enqueued/spilling states
            # (pre-fix: the waiting evictor appended its victim to the
            # dead queue, leaking the name with residency discounted)
            with store._lock:
                assert store._spilling == {}
                assert list(store._spill_queue) == []
                resident = sum(store._sizes.values())
                assert store.bytes_resident == resident
            # every block that made it into the store still resolves
            for ref, array in zip(refs, arrays):
                assert np.array_equal(ref.resolve(), array)
        finally:
            store.cleanup()
        assert os.listdir(tmp_path) == []

    def test_flush_spill_reinstates_after_writer_death(self, tmp_path):
        release = threading.Event()
        entered = threading.Event()
        store = self._failing_store(tmp_path, release, entered)
        rng = np.random.default_rng(12)
        arrays = [rng.random((25, 20)) for _ in range(3)]
        try:
            refs = [store.put(a) for a in arrays]
            assert entered.wait(timeout=10.0)
            release.set()
            with pytest.raises(RuntimeError, match="spill writer"):
                store.flush_spill()
            # the failed write's block is resident again and resolvable
            with store._lock:
                assert store._spilling == {}
            for ref, array in zip(refs, arrays):
                assert np.array_equal(ref.resolve(), array)
            # later evictions keep surfacing the sticky error instead of
            # silently queueing to a dead writer
            with pytest.raises(RuntimeError, match="spill writer"):
                store.put(rng.random((25, 20)))
        finally:
            store.cleanup()
        assert os.listdir(tmp_path) == []

    def test_pool_recovery_tolerates_dead_spill_writer(self, tmp_path):
        """Broken-lane recovery flushes the spill pipeline; a dead
        writer must not abort the recovery (blocks are reinstated)."""
        store = SharedMemoryStore(capacity_bytes=1 << 20, spill_dir=str(tmp_path))
        ex = SharedMemoryExecutor(
            workers=1, store=store, fault_policy=FaultPolicy(),
            fault_injector=FaultInjector(FaultSpec("kill_worker", at_task=1)))
        # poison the writer exactly like a vanished spill device would
        store._spill_error = OSError("spill device gone")
        try:
            results = ex.map_tasks(make_block, list(range(3)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_lost == 1
        finally:
            ex.shutdown()
            store.cleanup()


# --------------------------------------------------------------------------- #
# metrics plumbing
# --------------------------------------------------------------------------- #
class TestResilienceMetrics:
    def test_exact_counts_for_multiple_faults(self):
        fw = make_framework("dasklite", executor="serial",
                            fault_policy=FaultPolicy(),
                            faults=[FaultSpec("raise", at_task=1),
                                    FaultSpec("raise", at_task=3),
                                    FaultSpec("kill_worker", at_task=5)])
        try:
            results = fw.map_tasks(square, list(range(8)))
            assert results == [x * x for x in range(8)]
            assert fw.metrics.tasks_retried == 3
            assert fw.metrics.tasks_lost == 1
        finally:
            fw.close()

    def test_metrics_merge_and_dict_carry_resilience_fields(self):
        from repro.frameworks.base import RunMetrics

        a = RunMetrics(tasks_retried=2, tasks_lost=1, recovery_seconds=0.25)
        b = RunMetrics(tasks_retried=1, tasks_lost=0, recovery_seconds=0.5)
        merged = a.merge(b)
        assert merged.tasks_retried == 3
        assert merged.tasks_lost == 1
        assert merged.recovery_seconds == 0.75
        for key in ("tasks_retried", "tasks_lost", "recovery_seconds"):
            assert key in merged.as_dict()

    def test_timings_carry_retry_attribution(self):
        ex = ProcessExecutor(workers=1, fault_policy=FaultPolicy(),
                             fault_injector=FaultInjector(
                                 FaultSpec("kill_worker", at_task=1)))
        try:
            ex.map_tasks(square, list(range(3)))
            timing = ex.timings[1]
            assert timing.tasks_retried == 1
            assert timing.tasks_lost == 1
            assert timing.recovery_seconds > 0.0
            assert ex.timings[0].tasks_retried == 0
        finally:
            ex.shutdown()

    def test_metrics_carry_checkpoint_and_speculation_fields(self):
        from repro.frameworks.base import RunMetrics

        a = RunMetrics(tasks_speculated=1, speculation_wins=1,
                       tasks_restored=4, restore_seconds=0.1)
        b = RunMetrics(tasks_speculated=2, speculation_wins=0,
                       tasks_restored=1, restore_seconds=0.2)
        merged = a.merge(b)
        assert merged.tasks_speculated == 3
        assert merged.speculation_wins == 1
        assert merged.tasks_restored == 5
        assert merged.restore_seconds == pytest.approx(0.3)
        for key in ("tasks_speculated", "speculation_wins",
                    "tasks_restored", "restore_seconds"):
            assert key in merged.as_dict()


# --------------------------------------------------------------------------- #
# checkpoint/restart of whole runs
# --------------------------------------------------------------------------- #
class TestCheckpointResume:
    """Driver-kill → resume: bit-identical output, only missing blocks run."""

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_killed_run_resumes_bit_identical(self, name, plane, chaos_ensemble,
                                              reference_matrix, tmp_path):
        ckpt = tmp_path / "journal"
        # a fatal fault (no policy) at dispatch 2: tasks 0 and 1 are
        # journalled before the driver dies (mpilite wraps the injected
        # fault in its SPMDError, so match by message)
        with pytest.raises(Exception, match="injected fault"):
            psa(chaos_ensemble, name, executor="serial", data_plane=plane,
                checkpoint_dir=str(ckpt), faults=FaultSpec("raise", at_task=2))
        assert len(list(ckpt.glob("e-*.json"))) == 2
        matrix, report = psa(chaos_ensemble, name, executor="serial",
                             data_plane=plane, checkpoint_dir=str(ckpt))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_restored == 2
        assert report.metrics.restore_seconds > 0.0

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_killed_leaflet_run_resumes(self, name, plane, chaos_bilayer,
                                        tmp_path):
        positions, expected_sizes = chaos_bilayer
        ckpt = tmp_path / "journal"
        with pytest.raises(Exception, match="injected fault"):
            leaflet_finder(positions, name, executor="serial", data_plane=plane,
                           approach="tree-search", n_tasks=6,
                           checkpoint_dir=str(ckpt),
                           faults=FaultSpec("raise", at_task=2))
        assert len(list(ckpt.glob("e-*.json"))) == 2
        result, report = leaflet_finder(positions, name, executor="serial",
                                        data_plane=plane,
                                        approach="tree-search", n_tasks=6,
                                        checkpoint_dir=str(ckpt))
        assert result.sizes == expected_sizes
        assert report.metrics.tasks_restored == 2

    def test_completed_run_restores_everything(self, chaos_ensemble,
                                               reference_matrix, tmp_path):
        ckpt = str(tmp_path / "journal")
        _, first = psa(chaos_ensemble, "dasklite", executor="serial",
                       checkpoint_dir=ckpt)
        assert first.metrics.tasks_restored == 0
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             checkpoint_dir=ckpt)
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_restored == first.n_tasks
        assert report.metrics.tasks_submitted == 0

    def test_stale_journal_rejected_not_reused(self, chaos_ensemble, tmp_path):
        ckpt = str(tmp_path / "journal")
        psa(chaos_ensemble, "dasklite", executor="serial", checkpoint_dir=ckpt)
        # a different metric is a different run: loud rejection
        with pytest.raises(StaleJournal):
            psa(chaos_ensemble, "dasklite", executor="serial",
                metric="frechet", checkpoint_dir=ckpt)
        # so is a different ensemble under the same parameters
        other = make_clustered_ensemble(EnsembleSpec(
            n_trajectories=5, n_frames=8, n_atoms=16, n_clusters=2, seed=43))
        with pytest.raises(StaleJournal):
            psa(other, "dasklite", executor="serial", checkpoint_dir=ckpt)
        # and a different substrate or plane
        with pytest.raises(StaleJournal):
            psa(chaos_ensemble, "mpilite", executor="serial",
                checkpoint_dir=ckpt)
        with pytest.raises(StaleJournal):
            psa(chaos_ensemble, "dasklite", executor="serial",
                data_plane="shm", checkpoint_dir=ckpt)

    def test_list_form_leaflet_journal_is_stale(self, chaos_bilayer, tmp_path):
        """A journal of list-form partial components, the result format
        before tasks packed them into one array, is rejected rather than
        fed to the packed merge."""
        positions, _ = chaos_bilayer
        ckpt = str(tmp_path / "journal")
        # such a journal's manifest: the leaflet fingerprint with no result format
        listed = run_fingerprint(arrays=[positions], source=None,
                                 algorithm="leaflet_finder", approach="tree-search",
                                 cutoff=15.0, n_tasks=6, data_plane="pickle",
                                 substrate="dasklite")
        RunJournal(ckpt, listed).open().record(
            "tree-0-0", [np.arange(2, dtype=np.int64), np.arange(4, 9, dtype=np.int64)])
        with pytest.raises(StaleJournal):
            leaflet_finder(positions, "dasklite", executor="serial",
                           approach="tree-search", n_tasks=6, checkpoint_dir=ckpt)

    def test_corrupt_entry_is_recomputed(self, chaos_ensemble,
                                         reference_matrix, tmp_path):
        ckpt = tmp_path / "journal"
        psa(chaos_ensemble, "dasklite", executor="serial",
            checkpoint_dir=str(ckpt))
        blocks = sorted(ckpt.glob("e-*.blk"))
        n_entries = len(blocks)
        blocks[0].write_bytes(b"\x00garbage\x00")
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             checkpoint_dir=str(ckpt))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_restored == n_entries - 1
        # the recomputed entry was re-journalled
        assert len(list(ckpt.glob("e-*.json"))) == n_entries

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(crash_at=st.integers(min_value=0, max_value=5))
    def test_resume_after_crash_at_any_index(self, crash_at, chaos_ensemble,
                                             reference_matrix):
        # group_size=2 over 5 trajectories -> exactly 6 block tasks
        with tempfile.TemporaryDirectory() as d:
            ckpt = os.path.join(d, "journal")
            with pytest.raises(InjectedFault):
                psa(chaos_ensemble, "dasklite", executor="serial",
                    group_size=2, checkpoint_dir=ckpt,
                    faults=FaultSpec("raise", at_task=crash_at))
            matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                                 group_size=2, checkpoint_dir=ckpt)
            assert np.array_equal(matrix.values, reference_matrix)
            assert report.metrics.tasks_restored == crash_at

    def test_every_completion_is_journalled_on_every_run(self, chaos_ensemble,
                                                         reference_matrix, tmp_path):
        """Each run into a fresh journal records all six completions,
        also when an earlier run in this process used the same path."""
        ckpt = tmp_path / "journal"
        for _ in range(2):
            if ckpt.exists():
                for entry in ckpt.iterdir():
                    entry.unlink()
                ckpt.rmdir()
            psa(chaos_ensemble, "dasklite", executor="serial", group_size=2,
                checkpoint_dir=str(ckpt))
            assert len(list(ckpt.glob("e-*.json"))) == 6
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             group_size=2, checkpoint_dir=str(ckpt))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_restored == 6

    def test_lane_completions_are_all_journalled(self, chaos_ensemble,
                                                 reference_matrix, tmp_path):
        """Forked lanes journal every task they complete."""
        ckpt = tmp_path / "journal"
        psa(chaos_ensemble, "dasklite", executor="processes", workers=2,
            group_size=2, checkpoint_dir=str(ckpt))
        assert len(list(ckpt.glob("e-*.json"))) == 6
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             group_size=2, checkpoint_dir=str(ckpt))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_restored == 6

    def test_journaled_task_records_each_call(self, tmp_path):
        task = JournaledTask(make_block, str(tmp_path), str)
        for x in range(5):
            assert np.array_equal(task(x), make_block(x))
        assert len(list(tmp_path.glob("e-*.json"))) == 5

    def test_faulted_task_is_not_journalled(self, chaos_ensemble, tmp_path):
        """A task that dies mid-run must not leave a journal entry: the
        journal records completions, so resume counts stay exact."""
        ckpt = tmp_path / "journal"
        matrix, report = psa(chaos_ensemble, "dasklite", executor="serial",
                             group_size=2, checkpoint_dir=str(ckpt),
                             fault_policy=FaultPolicy(),
                             faults=FaultSpec("raise", at_task=1))
        assert report.metrics.tasks_retried == 1
        # all six completed (one after retry): all six journalled
        assert len(list(ckpt.glob("e-*.json"))) == 6


@pytest.fixture(scope="module")
def windowed_ensemble():
    """4 trajectories x 16 frames: four 4-frame windows, 160 block tasks."""
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=4, n_frames=16, n_atoms=12, seed=7))


@pytest.fixture()
def windowed_chunks(windowed_ensemble, tmp_path):
    """The windowed ensemble as chunk files, one 4-frame chunk per window."""
    paths = [
        write_frame_chunks(traj.as_array(), str(tmp_path / f"{traj.name}.fchunk"),
                           frames_per_chunk=4, name=traj.name)
        for traj in windowed_ensemble
    ]
    return open_streaming_ensemble(paths)


class TestStreamedResume:
    """A killed multi-window run resumes from its journal, bit-identically."""

    @pytest.mark.parametrize("at_task", [3, 17])
    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_killed_streamed_run_resumes_bit_identical(
            self, plane, at_task, windowed_ensemble, windowed_chunks, tmp_path):
        # wave 0 has 10 tasks, wave 1 has 30: the faults land in either
        ckpt = str(tmp_path / "journal")
        with pytest.raises(InjectedFault):
            stream_windows(windowed_chunks, "dasklite", executor="serial",
                           data_plane=plane, checkpoint_dir=ckpt,
                           faults=FaultSpec("raise", at_task=at_task))
        matrix, report = stream_windows(windowed_chunks, "dasklite",
                                        executor="serial", data_plane=plane,
                                        checkpoint_dir=ckpt)
        reference = psa_serial(windowed_ensemble, metric="hausdorff_windowed")
        assert np.array_equal(matrix.values, reference.values)
        assert report.metrics.tasks_restored == at_task

    @pytest.mark.parametrize("at_task", [0, 5])
    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_killed_streamed_leaflet_resumes(self, plane, at_task, tmp_path):
        # four 100-atom chunks: waves of 1, 2, 3 and 4 tasks, so task 0
        # is the whole first wave and task 5 lands in the third
        positions, _ = make_bilayer(BilayerSpec(n_atoms=400, seed=9))
        chunked = ChunkedPositions(write_position_chunks(
            positions, str(tmp_path / "bilayer.fchunk"), atoms_per_chunk=100))
        ckpt = str(tmp_path / "journal")
        with pytest.raises(InjectedFault):
            stream_windows(chunked, "dasklite", analysis="leaflet", executor="serial",
                           data_plane=plane, checkpoint_dir=ckpt,
                           faults=FaultSpec("raise", at_task=at_task))
        result, report = stream_windows(chunked, "dasklite", analysis="leaflet",
                                        executor="serial", data_plane=plane,
                                        checkpoint_dir=ckpt)
        reference = leaflet_serial(positions, 15.0)
        assert (sorted(tuple(sorted(c)) for c in result.components)
                == sorted(tuple(sorted(c)) for c in reference.components))
        assert report.metrics.tasks_restored == at_task

    def test_resumed_run_counts_every_task(self, windowed_ensemble, tmp_path):
        ckpt = str(tmp_path / "journal")
        with pytest.raises(InjectedFault):
            stream_windows(windowed_ensemble, "dasklite", executor="serial",
                           checkpoint_dir=ckpt,
                           faults=FaultSpec("raise", at_task=3))
        _, report = stream_windows(windowed_ensemble, "dasklite",
                                   executor="serial", checkpoint_dir=ckpt)
        metrics = report.metrics
        assert metrics.tasks_restored == 3
        assert report.n_tasks == metrics.tasks_restored + metrics.tasks_submitted
        assert report.n_tasks == 160


# --------------------------------------------------------------------------- #
# heartbeat-driven speculative re-execution
# --------------------------------------------------------------------------- #
class TestSpeculation:
    """A straggler triggers exactly one duplicate; first result wins."""

    def test_new_policy_knobs_validate(self):
        with pytest.raises(ValueError, match="speculation_factor"):
            FaultPolicy(speculation_factor=0.0)
        with pytest.raises(ValueError, match="speculation_factor"):
            FaultPolicy(speculation_factor=-1.0)
        assert FaultPolicy().speculation_factor is None

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_straggler_speculated_exactly_once(self, name, plane,
                                               chaos_ensemble,
                                               reference_matrix, tmp_path):
        start = time.monotonic()
        matrix, report = psa(
            chaos_ensemble, name, executor="serial", data_plane=plane,
            spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(speculation_factor=2.0),
            faults=FaultSpec("delay", at_task=2, delay_s=60.0))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_speculated == 1
        assert report.metrics.speculation_wins == 1
        assert time.monotonic() - start < 30.0  # nowhere near the 60s straggle

    def test_fault_free_run_speculates_nothing(self, chaos_ensemble):
        _, report = psa(chaos_ensemble, "dasklite", executor="serial",
                        fault_policy=FaultPolicy(speculation_factor=2.0))
        assert report.metrics.tasks_speculated == 0
        assert report.metrics.speculation_wins == 0

    @pytest.mark.parametrize("cls", [ProcessExecutor, SharedMemoryExecutor])
    def test_real_pool_duplicate_beats_straggler(self, cls):
        """The pooled engine launches one duplicate on a free worker, takes
        its result, and SIGKILLs the beaten straggler."""
        start = time.monotonic()
        ex = cls(workers=2,
                 fault_policy=FaultPolicy(speculation_factor=3.0),
                 fault_injector=FaultInjector(
                     FaultSpec("delay", at_task=1, delay_s=60.0)))
        try:
            results = ex.map_tasks(slow_square, list(range(6)))
            assert results == [x * x for x in range(6)]
            assert ex.totals().tasks_speculated == 1
            assert ex.totals().speculation_wins == 1
            assert time.monotonic() - start < 30.0
        finally:
            ex.shutdown()

    def test_shm_pool_speculation_leaks_no_segments(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(
            workers=2, fault_policy=FaultPolicy(speculation_factor=3.0),
            fault_injector=FaultInjector(
                FaultSpec("delay", at_task=1, delay_s=60.0)))
        try:
            results = ex.map_tasks(make_block, list(range(6)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_speculated == 1
        finally:
            ex.shutdown()
        assert shm_entries() == before


class TestSpeculationThreshold:
    def test_even_count_uses_midpoint_median(self):
        policy = FaultPolicy(speculation_factor=2.0)
        # sorted[len//2] would pick 3.0 and yield 6.0, delaying
        # speculation; the true median of [1, 2, 3, 4] is 2.5
        assert _speculation_threshold([4.0, 1.0, 3.0, 2.0], policy) == 5.0

    def test_odd_count_unchanged(self):
        policy = FaultPolicy(speculation_factor=2.0)
        assert _speculation_threshold([3.0, 1.0, 2.0], policy) == 4.0

    def test_heartbeat_floor_still_applies(self):
        policy = FaultPolicy(speculation_factor=3.0)
        assert _speculation_threshold([0.001, 0.002], policy) == 3.0 * HEARTBEAT_INTERVAL_S


# --------------------------------------------------------------------------- #
# the driver signals only its own live lane children
# --------------------------------------------------------------------------- #
def record_kills(monkeypatch, ex):
    """Record every signal the driver sends, and whether its target was
    one of ``ex``'s lane processes, alive and not yet reaped.

    ``waitid(..., WNOWAIT)`` inspects a child without reaping it: it
    returns ``None`` for a child that has not exited and raises
    ``ChildProcessError`` for a pid that is no (longer a) child — one
    that recovery already joined, or an unrelated process.
    """
    real_kill = os.kill
    sent = []

    def kill(pid, sig):
        if sig != 0:  # signal 0 only probes liveness
            procs = [lane.proc for lane in ex._lanes if lane.proc.pid == pid]
            try:
                live = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG
                                 | os.WNOWAIT) is None
            except ChildProcessError:
                live = False
            sent.append((pid, bool(procs) and live, procs[0] if procs else None))
        real_kill(pid, sig)

    monkeypatch.setattr(os, "kill", kill)
    return sent


def assert_kills_hit_live_lanes(sent):
    """Every signal reached a live, unjoined lane child; once recovery has
    joined that child, the lane's kill sends nothing more."""
    assert sent
    assert all(live for _, live, _ in sent), sent
    n_sent = len(sent)
    for _, _, proc in sent:
        assert proc.exitcode is not None  # recovery joined it
        _WorkerLane.kill(SimpleNamespace(proc=proc))
    assert len(sent) == n_sent


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
class TestLaneSignals:
    def test_hung_worker_kill_targets_its_live_lane(self, monkeypatch):
        ex = SharedMemoryExecutor(
            workers=1,
            fault_policy=FaultPolicy(heartbeat_timeout_s=0.5),
            fault_injector=FaultInjector(
                FaultSpec("delay", at_task=1, delay_s=60.0)))
        sent = record_kills(monkeypatch, ex)
        try:
            assert ex.map_tasks(square, list(range(3))) == [0, 1, 4]
            assert ex.totals().tasks_lost == 1
            assert_kills_hit_live_lanes(sent)
        finally:
            ex.shutdown()

    def test_straggler_kill_targets_its_live_lane(self, monkeypatch):
        ex = ProcessExecutor(
            workers=2, fault_policy=FaultPolicy(speculation_factor=3.0),
            fault_injector=FaultInjector(
                FaultSpec("delay", at_task=1, delay_s=60.0)))
        sent = record_kills(monkeypatch, ex)
        try:
            assert ex.map_tasks(slow_square, list(range(6))) == \
                [x * x for x in range(6)]
            assert ex.totals().speculation_wins == 1
            assert_kills_hit_live_lanes(sent)
        finally:
            ex.shutdown()

    def test_kill_after_join_sends_nothing(self, monkeypatch):
        lane = _WorkerLane()
        sent = []
        real_kill = os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: (
            sent.append(pid) if sig else None, real_kill(pid, sig)))
        lane.kill()
        lane.join()
        lane.kill()
        assert sent == [lane.proc.pid]


# --------------------------------------------------------------------------- #
# per-lane failure domains: one dead worker must cost exactly one task
# --------------------------------------------------------------------------- #
class TestLaneFailureDomain:
    """Worker lanes shrink the blast radius of a SIGKILL to one task.

    The old single shared pool marked *every* in-flight task lost when
    any worker died; with single-slot lanes only the dead lane's task
    is, so the counts below are exact even with spare workers — and
    tasks queued or running on the healthy lanes must be untouched.
    """

    def test_single_lane_kill_loses_exactly_one_task(self):
        ex = ProcessExecutor(workers=3, fault_policy=FaultPolicy(),
                             fault_injector=FaultInjector(
                                 FaultSpec("kill_worker", at_task=4)))
        try:
            results = ex.map_tasks(square, list(range(12)))
            assert results == [x * x for x in range(12)]
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
        finally:
            ex.shutdown()

    def test_shm_lane_kill_mid_wave_is_bit_identical(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=3, fault_policy=FaultPolicy(),
                                  fault_injector=FaultInjector(
                                      FaultSpec("kill_worker", at_task=4)))
        try:
            results = ex.map_tasks(make_block, list(range(12)))
            for i, block in enumerate(results):
                assert np.array_equal(block, make_block(i))
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
        finally:
            ex.shutdown()
        assert shm_entries() == before

    def test_lane_kill_on_spill_tier_keeps_exact_accounting(self, tmp_path):
        """A killed lane while most payload blocks sit on the spill tier:
        results identical and exactly one task lost, with nothing left
        in ``/dev/shm``."""
        before = shm_entries()
        blocks = [np.full((64, 64), float(i)) for i in range(12)]   # 32 KiB each
        store = SharedMemoryStore(capacity_bytes=64 * 1024, spill_dir=str(tmp_path))
        ex = SharedMemoryExecutor(
            workers=3,
            store=store,
            fault_policy=FaultPolicy(),
            fault_injector=FaultInjector(
                FaultSpec("kill_worker", at_task=4)))
        try:
            results = ex.map_tasks(scale_block, blocks)
            for i, block in enumerate(results):
                assert np.array_equal(block, blocks[i] * 2.0)
            assert ex.totals().tasks_lost == 1
            assert ex.totals().tasks_retried == 1
        finally:
            ex.shutdown()
            store.cleanup()  # caller-owned: shutdown leaves it alone
        assert shm_entries() == before

    def test_psa_lane_kill_on_spill_tier(self, chaos_ensemble,
                                         reference_matrix, tmp_path):
        matrix, report = psa(
            chaos_ensemble, "pilot", executor="shm", workers=3,
            data_plane="shm", spill_dir=str(tmp_path),
            fault_policy=FaultPolicy(),
            faults=FaultSpec("kill_worker", at_task=2))
        assert np.array_equal(matrix.values, reference_matrix)
        assert report.metrics.tasks_lost == 1
        assert report.metrics.tasks_retried == 1
