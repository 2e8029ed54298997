"""Unit tests for cluster model, executors, serialization and the base framework."""

import dataclasses
import sys
import time

import numpy as np
import pytest

from repro.frameworks import FRAMEWORK_NAMES, make_framework
from repro.frameworks.base import BroadcastHandle, RunMetrics, TaskFramework
from repro.frameworks.cluster import ClusterSpec, local_cluster
from repro.frameworks.executors import (
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
)
from repro.frameworks.serialization import (
    estimate_transfer_time,
    nbytes_of,
    serialized_size,
)
from repro.frameworks.shm import SharedMemoryStore
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
)


def reference_nbytes_of(obj):
    """The ``nbytes_of`` formula without the per-class field cache."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return int(sys.getsizeof(obj)) + sum(reference_nbytes_of(item) for item in obj)
    if isinstance(obj, dict):
        return int(sys.getsizeof(obj)) + sum(
            reference_nbytes_of(k) + reference_nbytes_of(v) for k, v in obj.items())
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return int(sys.getsizeof(obj)) + sum(
            reference_nbytes_of(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return int(sys.getsizeof(obj))


class TestClusterSpec:
    def test_totals(self):
        spec = ClusterSpec(nodes=3, cores_per_node=24, memory_per_node_gb=128,
                           hyperthreads_per_core=2, name="wrangler")
        assert spec.total_cores == 72
        assert spec.total_slots == 144
        assert spec.total_memory_gb == 384

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            ClusterSpec(memory_per_node_gb=0)
        with pytest.raises(ValueError):
            ClusterSpec(hyperthreads_per_core=0)

    def test_with_nodes(self):
        spec = ClusterSpec(nodes=1, cores_per_node=8)
        assert spec.with_nodes(4).total_cores == 32

    def test_for_cores_rounds_up_to_whole_nodes(self):
        spec = ClusterSpec(nodes=1, cores_per_node=24, hyperthreads_per_core=2)
        assert spec.for_cores(32).nodes == 1
        assert spec.for_cores(64).nodes == 2
        assert spec.for_cores(256).nodes == 6
        with pytest.raises(ValueError):
            spec.for_cores(0)

    def test_local_cluster(self):
        assert local_cluster(cores=8).total_cores == 8


class TestExecutors:
    @pytest.mark.parametrize("kind", ["serial", "threads"])
    def test_map_tasks_order_preserved(self, kind):
        ex = make_executor(kind, workers=3)
        results = ex.map_tasks(lambda x: x * 2, list(range(20)))
        assert results == [x * 2 for x in range(20)]
        assert len(ex.timings) == 20
        assert ex.total_task_time >= 0.0

    def test_serial_executor_single_worker(self):
        assert SerialExecutor().workers == 1

    def test_thread_executor_propagates_exceptions(self):
        ex = ThreadExecutor(workers=2)

        def boom(x):
            if x == 3:
                raise RuntimeError("task failed")
            return x

        with pytest.raises(RuntimeError, match="task failed"):
            ex.map_tasks(boom, list(range(5)))

    def test_thread_executor_empty_items(self):
        assert ThreadExecutor(2).map_tasks(lambda x: x, []) == []

    def test_thread_executor_parallelism(self):
        """Sleep-bound tasks should overlap on multiple threads."""
        ex = ThreadExecutor(workers=4)
        start = time.perf_counter()
        ex.map_tasks(lambda _x: time.sleep(0.05), list(range(4)))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05 * 4  # strictly less than serial time

    def test_make_executor_unknown(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_process_executor_with_picklable_fn(self):
        ex = ProcessExecutor(workers=2)
        results = ex.map_tasks(abs, [-1, -2, 3])
        assert results == [1, 2, 3]
        assert len(ex.timings) == 3


class TestSerialization:
    def test_serialized_size_positive(self):
        assert serialized_size({"a": list(range(100))}) > 100

    def test_nbytes_of_array(self):
        arr = np.zeros((100, 3))
        assert nbytes_of(arr) == 2400

    def test_nbytes_of_nested(self):
        data = [np.zeros(10), np.zeros(20)]
        assert nbytes_of(data) >= 30 * 8

    def test_nbytes_of_dict_and_bytes(self):
        assert nbytes_of({"k": b"12345"}) >= 5
        assert nbytes_of(b"1234") == 4

    def test_nbytes_of_matches_the_uncached_formula_on_psa_tasks(self):
        from repro.core.psa import make_psa_tasks

        ensemble = make_clustered_ensemble(EnsembleSpec(n_trajectories=5, n_frames=8,
                                                        n_atoms=16, seed=3))
        store = SharedMemoryStore()
        try:
            for options in ({}, {"store": store}, {"window": (2, 6)}):
                tasks = make_psa_tasks(ensemble, n_tasks=4, **options)
                assert [nbytes_of(t) for t in tasks] == [
                    reference_nbytes_of(t) for t in tasks]
                assert nbytes_of(tasks) == reference_nbytes_of(tasks)
        finally:
            store.cleanup()

    def test_nbytes_of_matches_the_uncached_formula_on_partial_components(self):
        from repro.core.leaflet import _TreeBlockTask
        from repro.core.partitioning import BlockTask

        system, _ = make_bilayer(BilayerSpec(n_atoms=200, seed=5))
        results = [_TreeBlockTask(BlockTask(start, stop, 0, 200), system[start:stop],
                                  system, 15.0).run()
                   for start, stop in ((0, 100), (100, 200))]
        # each task's partial components come back as one packed array
        for packed in results:
            assert packed.dtype == np.int64 and packed.ndim == 1 and packed[0] > 0
        assert [nbytes_of(r) for r in results] == [reference_nbytes_of(r) for r in results]
        assert [nbytes_of(r) for r in results] == [r.nbytes for r in results]
        assert nbytes_of(results) == reference_nbytes_of(results)
        assert nbytes_of([]) == reference_nbytes_of([])

    def test_transfer_time_monotone_in_size(self):
        assert estimate_transfer_time(10**9) > estimate_transfer_time(10**6)
        with pytest.raises(ValueError):
            estimate_transfer_time(-1)
        with pytest.raises(ValueError):
            estimate_transfer_time(10, bandwidth_gbps=0)


class TestRunMetrics:
    def test_merge_adds_fields(self):
        a = RunMetrics(tasks_submitted=2, wall_time_s=1.0, bytes_broadcast=10)
        b = RunMetrics(tasks_submitted=3, wall_time_s=2.0, bytes_shuffled=5)
        merged = a.merge(b)
        assert merged.tasks_submitted == 5
        assert merged.wall_time_s == pytest.approx(3.0)
        assert merged.bytes_broadcast == 10
        assert merged.bytes_shuffled == 5

    def test_record_event_and_as_dict(self):
        m = RunMetrics()
        m.record_event("stage", {"id": 1})
        assert ("stage", {"id": 1}) in m.events
        assert "wall_time_s" in m.as_dict()


class TestTaskFrameworkBase:
    def test_map_tasks_and_metrics(self):
        fw = TaskFramework(executor="serial")
        results = fw.map_tasks(lambda x: x + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert fw.metrics.tasks_submitted == 3
        assert fw.metrics.tasks_completed == 3
        assert fw.metrics.wall_time_s > 0.0

    def test_broadcast_accounts_bytes(self):
        fw = TaskFramework(executor="serial")
        handle = fw.broadcast(np.zeros(1000))
        assert isinstance(handle, BroadcastHandle)
        assert handle.nbytes == 8000
        assert fw.metrics.bytes_broadcast == 8000
        handle.unpersist()
        assert handle.value is None

    def test_cluster_defaults_to_executor_workers(self):
        fw = TaskFramework(executor="threads", workers=3)
        assert fw.cluster.total_cores == 3


class TestStoreSettings:
    """The framework turns the four store settings into its one store."""

    @pytest.mark.parametrize("plane", ["pickle", "shm"])
    @pytest.mark.parametrize("executor", ["threads", "shm"])
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_by_name_keyword_set_reaches_the_store(self, name, executor, plane, tmp_path):
        # the keyword set psa() / leaflet_finder() / stream_windows() pass
        # to make_framework, with non-default store settings
        kwargs = dict(executor=executor, workers=2, data_plane=plane,
                      store_capacity_bytes=1 << 20, spill_dir=str(tmp_path / "spill"),
                      spill_async=False, spill_queue_depth=2,
                      fault_policy=None, faults=None)
        if name in ("sparklite", "mpilite") and executor == "shm":
            with pytest.raises(ValueError, match="cannot run on executor"):
                make_framework(name, **kwargs)
            return
        fw = make_framework(name, **kwargs)
        try:
            store = fw.store
            if plane == "pickle" and executor == "threads":
                assert store is None  # neither the plane nor the executor needs one
                return
            assert store is fw.executor.store
            assert store.capacity_bytes == 1 << 20
            assert store.spill_dir == str(tmp_path / "spill")
            assert store.spill_async is False
            assert store.spill_queue_depth == 2
        finally:
            fw.close()

    def test_prebuilt_executor_store_rejects_store_settings(self):
        ex = SharedMemoryExecutor(workers=2)
        try:
            with pytest.raises(ValueError, match="own store"):
                make_framework("pilot", executor=ex, data_plane="shm",
                               store_capacity_bytes=4096)
        finally:
            ex.shutdown()

    def test_prebuilt_executor_store_is_used_as_is(self):
        ex = SharedMemoryExecutor(workers=2)
        fw = make_framework("pilot", executor=ex, data_plane="shm")
        try:
            assert fw.store is ex.store
        finally:
            fw.close()
        assert ex.store.closed  # the executor owned it and released it

    def test_framework_owns_the_store_it_hands_down(self):
        fw = TaskFramework(executor="shm", workers=2)
        store = fw.store
        assert store is fw.executor.store
        fw.close()
        assert store.closed
