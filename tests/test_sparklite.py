"""Unit tests for the sparklite substrate (RDDs, shuffle, DAG scheduler, broadcast)."""

import numpy as np
import pytest

from repro.frameworks import make_framework
from repro.frameworks.executors import ProcessExecutor, SharedMemoryExecutor
from repro.frameworks.sparklite import (
    Broadcast,
    HashPartitioner,
    RangePartitioner,
    SparkLiteContext,
    shuffle_partitions,
    split_into_partitions,
)
from repro.frameworks.sparklite.shuffle import combine_by_key


@pytest.fixture()
def sc():
    return SparkLiteContext(executor="serial", default_parallelism=4)


class TestPartitioners:
    def test_split_even(self):
        parts = split_into_partitions(list(range(10)), 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert sum(parts, []) == list(range(10))

    def test_split_more_partitions_than_items(self):
        parts = split_into_partitions([1, 2], 5)
        assert len(parts) == 5
        assert sum(parts, []) == [1, 2]

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            split_into_partitions([1], 0)

    def test_hash_partitioner_range(self):
        p = HashPartitioner(4)
        assert all(0 <= p.partition_for(k) < 4 for k in range(100))
        assert p == HashPartitioner(4)
        assert p != HashPartitioner(5)

    def test_hash_partitioner_invalid(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_range_partitioner(self):
        p = RangePartitioner([10, 20])
        assert p.partition_for(5) == 0
        assert p.partition_for(15) == 1
        assert p.partition_for(25) == 2


class TestShuffle:
    def test_shuffle_routes_by_key(self):
        p = HashPartitioner(3)
        result = shuffle_partitions([[("a", 1), ("b", 2)], [("a", 3)]], p)
        assert result.num_partitions == 3
        all_records = [r for bucket in result.buckets for r in bucket]
        assert sorted(all_records) == [("a", 1), ("a", 3), ("b", 2)]
        # same key always lands in the same bucket
        buckets_of_a = {i for i, bucket in enumerate(result.buckets)
                        if any(k == "a" for k, _ in bucket)}
        assert len(buckets_of_a) == 1
        assert result.bytes_shuffled > 0

    def test_shuffle_rejects_non_pairs(self):
        with pytest.raises(TypeError):
            shuffle_partitions([[1, 2, 3]], HashPartitioner(2))

    def test_combine_by_key(self):
        combined = dict(combine_by_key([("a", 1), ("a", 2), ("b", 5)],
                                       create=lambda v: v,
                                       merge_value=lambda acc, v: acc + v))
        assert combined == {"a": 3, "b": 5}


class TestRDDTransformations:
    def test_parallelize_collect(self, sc):
        rdd = sc.parallelize(range(10), 3)
        assert rdd.getNumPartitions() == 3
        assert rdd.collect() == list(range(10))

    def test_map_filter_flatmap(self, sc):
        rdd = sc.parallelize(range(10), 4)
        assert rdd.map(lambda x: x * x).collect() == [x * x for x in range(10)]
        assert rdd.filter(lambda x: x % 2 == 0).collect() == [0, 2, 4, 6, 8]
        assert rdd.flatMap(lambda x: [x, x]).count() == 20

    def test_map_partitions_with_index(self, sc):
        rdd = sc.parallelize(range(8), 4).mapPartitionsWithIndex(
            lambda idx, it: [(idx, sum(it))]
        )
        result = dict(rdd.collect())
        assert set(result) == {0, 1, 2, 3}
        assert sum(result.values()) == sum(range(8))

    def test_glom(self, sc):
        parts = sc.parallelize(range(6), 3).glom().collect()
        assert parts == [[0, 1], [2, 3], [4, 5]]

    def test_union(self, sc):
        a = sc.parallelize([1, 2], 1)
        b = sc.parallelize([3, 4], 1)
        assert a.union(b).collect() == [1, 2, 3, 4]

    def test_keys_values_mapvalues(self, sc):
        rdd = sc.parallelize([("a", 1), ("b", 2)], 2)
        assert rdd.keys().collect() == ["a", "b"]
        assert rdd.values().collect() == [1, 2]
        assert rdd.mapValues(lambda v: v * 10).collect() == [("a", 10), ("b", 20)]


class TestRDDActions:
    def test_count_reduce_sum(self, sc):
        rdd = sc.parallelize(range(1, 11), 3)
        assert rdd.count() == 10
        assert rdd.reduce(lambda a, b: a + b) == 55
        assert rdd.sum() == 55

    def test_take_first(self, sc):
        rdd = sc.parallelize(range(100), 5)
        assert rdd.take(3) == [0, 1, 2]
        assert rdd.first() == 0

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([], 1).reduce(lambda a, b: a + b)

    def test_count_by_key(self, sc):
        rdd = sc.parallelize([("a", 1), ("a", 2), ("b", 1)], 2)
        assert rdd.countByKey() == {"a": 2, "b": 1}


class TestShuffleOperations:
    def test_reduce_by_key(self, sc):
        rdd = sc.parallelize([(i % 3, i) for i in range(12)], 4)
        result = dict(rdd.reduceByKey(lambda a, b: a + b).collect())
        expected = {k: sum(i for i in range(12) if i % 3 == k) for k in range(3)}
        assert result == expected

    def test_group_by_key(self, sc):
        rdd = sc.parallelize([("x", 1), ("y", 2), ("x", 3)], 2)
        grouped = dict(rdd.groupByKey().collect())
        assert sorted(grouped["x"]) == [1, 3]
        assert grouped["y"] == [2]

    def test_partition_by(self, sc):
        rdd = sc.parallelize([(i, i) for i in range(20)], 2).partitionBy(5)
        assert rdd.getNumPartitions() == 5
        assert sorted(rdd.collect()) == [(i, i) for i in range(20)]

    def test_repartition(self, sc):
        rdd = sc.parallelize(range(12), 2).repartition(4)
        assert sorted(rdd.collect()) == list(range(12))

    def test_shuffle_recorded_in_metrics_and_stages(self, sc):
        sc.parallelize([(i % 2, i) for i in range(10)], 2).reduceByKey(lambda a, b: a + b).collect()
        assert sc.metrics.bytes_shuffled > 0
        kinds = [s.kind for s in sc.stages]
        assert "shuffle-map" in kinds and "result" in kinds


class TestCachingAndBroadcast:
    def test_cache_reuses_partitions(self, sc):
        calls = []

        def tracked(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(5), 1).map(tracked).cache()
        rdd.collect()
        first_count = len(calls)
        rdd.collect()
        assert len(calls) == first_count  # second action served from cache

    def test_unpersist_recomputes(self, sc):
        calls = []
        rdd = sc.parallelize(range(3), 1).map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 6

    def test_broadcast_value_and_destroy(self, sc):
        bc = sc.broadcast(np.arange(100))
        assert isinstance(bc, Broadcast)
        assert np.array_equal(bc.value, np.arange(100))
        assert sc.metrics.bytes_broadcast >= 100 * 8
        bc.destroy()
        with pytest.raises(RuntimeError):
            _ = bc.value


class TestUniformSurface:
    def test_map_tasks(self):
        sc = SparkLiteContext(executor="threads", workers=2)
        assert sc.map_tasks(lambda x: x ** 2, list(range(9))) == [x ** 2 for x in range(9)]
        assert sc.metrics.tasks_submitted == 9

    def test_map_tasks_empty(self, sc):
        assert sc.map_tasks(lambda x: x, []) == []

    def test_run_map_reduce(self, sc):
        out = sc.run_map_reduce(
            list(range(10)),
            map_fn=lambda x: [(x % 2, x)],
            reduce_fn=lambda a, b: a + b,
        )
        assert out == {0: 20, 1: 25}


class TestExecutorChoice:
    """sparklite and mpilite keep their tasks in the driver's process."""

    @pytest.mark.parametrize("substrate", ["sparklite", "mpilite"])
    @pytest.mark.parametrize("executor", ["processes", "shm"])
    def test_rejects_process_executor_kinds(self, substrate, executor):
        with pytest.raises(ValueError, match=f"{substrate} cannot run on executor"):
            make_framework(substrate, executor=executor, workers=2)

    @pytest.mark.parametrize("substrate", ["sparklite", "mpilite"])
    @pytest.mark.parametrize("cls", [ProcessExecutor, SharedMemoryExecutor])
    def test_rejects_process_executor_instances(self, substrate, cls):
        ex = cls(workers=2)
        try:
            with pytest.raises(ValueError, match=f"{substrate} cannot run on executor"):
                make_framework(substrate, executor=ex)
        finally:
            ex.shutdown()
