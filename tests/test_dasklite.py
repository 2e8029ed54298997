"""Unit tests for the dasklite substrate (graphs, delayed, bag, client)."""

import os

import numpy as np
import pytest

from repro.core.api import psa
from repro.core.psa import psa_serial
from repro.frameworks.dasklite import (
    Bag,
    DaskLiteClient,
    GraphError,
    KeyRef,
    SynchronousScheduler,
    TaskGraph,
    TaskSpec,
    ThreadedScheduler,
    compute,
    delayed,
    from_sequence,
    get_scheduler,
)
from repro.trajectory import EnsembleSpec, make_clustered_ensemble


def pid_and_square(x):
    """A task that reports which process ran it (module level, so it pickles)."""
    return os.getpid(), x * x


class TestTaskGraph:
    def test_literals_and_tasks(self):
        g = TaskGraph()
        g.add_literal("x", 10)
        g.add_task("y", TaskSpec(lambda v: v + 1, (KeyRef("x"),)))
        assert "x" in g and "y" in g
        assert len(g) == 2
        assert g.dependencies("y") == {"x"}
        assert g.dependencies("x") == set()

    def test_duplicate_key_raises(self):
        g = TaskGraph()
        g.add_literal("x", 1)
        with pytest.raises(GraphError):
            g.add_literal("x", 2)
        with pytest.raises(GraphError):
            g.add_task("x", TaskSpec(lambda: 1))

    def test_missing_dependency_raises(self):
        g = TaskGraph()
        g.add_task("y", TaskSpec(lambda v: v, (KeyRef("nope"),)))
        with pytest.raises(GraphError):
            g.dependencies("y")

    def test_nested_refs_found(self):
        g = TaskGraph()
        g.add_literal("a", 1)
        g.add_literal("b", 2)
        g.add_task("c", TaskSpec(lambda pair, m: pair[0] + pair[1] + m["k"],
                                 ([KeyRef("a"), KeyRef("b")],),
                                 {"m": {"k": KeyRef("a")}}))
        assert g.dependencies("c") == {"a", "b"}

    def test_topological_order_respects_deps(self):
        g = TaskGraph()
        g.add_literal("a", 1)
        g.add_task("b", TaskSpec(lambda v: v, (KeyRef("a"),)))
        g.add_task("c", TaskSpec(lambda v: v, (KeyRef("b"),)))
        order = g.topological_order(["c"])
        assert order.index("a") < order.index("b") < order.index("c")

    def test_culling(self):
        g = TaskGraph()
        g.add_literal("a", 1)
        g.add_task("b", TaskSpec(lambda v: v, (KeyRef("a"),)))
        g.add_task("unrelated", TaskSpec(lambda: 0))
        assert "unrelated" not in g.topological_order(["b"])

    def test_cycle_detection(self):
        g = TaskGraph()
        g.add_task("a", TaskSpec(lambda v: v, (KeyRef("b"),)))
        g.add_task("b", TaskSpec(lambda v: v, (KeyRef("a"),)))
        with pytest.raises(GraphError):
            g.topological_order(["a"])

    def test_non_callable_spec(self):
        with pytest.raises(TypeError):
            TaskSpec(42)


class TestSchedulers:
    def _diamond_graph(self):
        g = TaskGraph()
        g.add_literal("x", 2)
        g.add_task("left", TaskSpec(lambda v: v + 1, (KeyRef("x"),)))
        g.add_task("right", TaskSpec(lambda v: v * 10, (KeyRef("x"),)))
        g.add_task("top", TaskSpec(lambda a, b: a + b, (KeyRef("left"), KeyRef("right"))))
        return g

    @pytest.mark.parametrize("scheduler", [SynchronousScheduler(), ThreadedScheduler(3)])
    def test_diamond(self, scheduler):
        results = scheduler.execute(self._diamond_graph(), ["top"])
        assert results["top"] == 23
        assert scheduler.total_task_time >= 0.0

    def test_threaded_matches_sync_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            g = TaskGraph()
            g.add_literal("root", 1)
            keys = ["root"]
            for i in range(15):
                deps = rng.choice(keys, size=min(len(keys), 2), replace=False)
                key = f"n{trial}_{i}"
                g.add_task(key, TaskSpec(lambda *vs: sum(vs) + 1,
                                         tuple(KeyRef(d) for d in deps)))
                keys.append(key)
            targets = keys[-3:]
            sync = SynchronousScheduler().execute(g, targets)
            threaded = ThreadedScheduler(4).execute(g, targets)
            assert sync == threaded

    def test_get_scheduler(self):
        assert isinstance(get_scheduler("sync"), SynchronousScheduler)
        assert isinstance(get_scheduler("threads", 2), ThreadedScheduler)
        with pytest.raises(ValueError):
            get_scheduler("gpu")
        with pytest.raises(ValueError):
            ThreadedScheduler(0)


class TestDelayed:
    def test_simple_chain(self):
        inc = delayed(lambda x: x + 1, name="inc")
        assert inc(1).compute() == 2

    def test_nested_composition(self):
        inc = delayed(lambda x: x + 1)
        total = delayed(sum)([inc(1), inc(2), inc(3)])
        assert total.compute() == 9

    def test_kwargs_and_dict_args(self):
        f = delayed(lambda a, scale=1: a * scale)
        node = f(delayed(lambda: 5)(), scale=3)
        assert node.compute() == 15

    def test_compute_many_shares_graph(self):
        inc = delayed(lambda x: x + 1)
        a, b = inc(1), inc(2)
        assert compute(a, b) == (2, 3)
        assert compute() == ()

    def test_compute_rejects_non_delayed(self):
        with pytest.raises(TypeError):
            compute(42)

    def test_threaded_scheduler_through_compute(self):
        inc = delayed(lambda x: x + 1)
        nodes = [inc(i) for i in range(20)]
        assert compute(*nodes, scheduler="threads", workers=4) == tuple(range(1, 21))

    def test_visualize_keys(self):
        inc = delayed(lambda x: x + 1, name="incr")
        node = inc(inc(0))
        keys = node.visualize_keys()
        assert len(keys) == 2
        assert all("incr" in k for k in keys)


class TestBag:
    def test_from_sequence_and_compute(self):
        bag = from_sequence(range(10), npartitions=3)
        assert bag.npartitions == 3
        assert bag.compute() == list(range(10))

    def test_map_filter(self):
        bag = from_sequence(range(10), npartitions=4)
        assert bag.map(lambda x: x * 2).filter(lambda x: x > 10).compute() == [12, 14, 16, 18]

    def test_map_partitions_and_flatten(self):
        bag = from_sequence(range(6), npartitions=2)
        assert bag.map_partitions(lambda part: [sum(part)]).compute() == [3, 12]
        assert bag.map(lambda x: [x, x]).flatten().count() == 12

    def test_fold(self):
        bag = from_sequence(range(1, 11), npartitions=3)
        assert bag.fold(lambda a, b: a + b) == 55
        assert bag.fold(lambda a, b: a + b, initial=100) == 155

    def test_fold_empty(self):
        bag = from_sequence([1], npartitions=1).filter(lambda x: x > 5)
        assert bag.fold(lambda a, b: a + b, initial=0) == 0
        with pytest.raises(ValueError):
            bag.fold(lambda a, b: a + b)

    def test_frequencies_and_groupby(self):
        bag = from_sequence(["a", "b", "a", "c", "a"], npartitions=2)
        assert bag.frequencies() == {"a": 3, "b": 1, "c": 1}
        groups = bag.groupby(lambda s: s)
        assert sorted(groups["a"]) == ["a", "a", "a"]

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            Bag(TaskGraph(), [])


class TestDaskLiteClient:
    def test_submit_and_gather(self):
        client = DaskLiteClient(executor="serial")
        futures = [client.submit(lambda x: x * 3, i) for i in range(4)]
        assert all(f.done() for f in futures)
        assert client.gather(futures) == [0, 3, 6, 9]

    def test_map_returns_futures(self):
        client = DaskLiteClient(executor="threads", workers=2)
        futures = client.map(lambda x: x + 1, range(5))
        assert [f.result() for f in futures] == [1, 2, 3, 4, 5]

    def test_scatter_list_splits_elementwise(self):
        client = DaskLiteClient(executor="serial")
        scattered = client.scatter([np.zeros(10), np.zeros(10)])
        assert scattered.broadcast is False
        assert len(scattered.pieces) == 2

    def test_scatter_broadcast_keeps_whole(self):
        client = DaskLiteClient(executor="serial")
        data = np.zeros((100, 3))
        scattered = client.scatter(data, broadcast=True)
        assert scattered.broadcast is True
        assert scattered.value is data
        assert client.metrics.bytes_broadcast >= data.nbytes

    def test_map_tasks_uniform_surface(self):
        client = DaskLiteClient(executor="threads", workers=2)
        assert client.map_tasks(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]
        assert client.metrics.tasks_completed == 3
        assert client.map_tasks(lambda x: x, []) == []

    @pytest.mark.parametrize("executor", ["processes", "shm"])
    def test_map_tasks_run_in_the_executors_processes(self, executor):
        client = DaskLiteClient(executor=executor, workers=2)
        try:
            out = client.map_tasks(pid_and_square, list(range(6)))
        finally:
            client.close()
        assert [square for _, square in out] == [x * x for x in range(6)]
        assert os.getpid() not in {pid for pid, _ in out}

    @pytest.mark.parametrize("plane", ["pickle", "shm"])
    @pytest.mark.parametrize("executor", ["processes", "shm"])
    def test_psa_on_process_executors_matches_serial(self, executor, plane):
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=5, n_frames=8, n_atoms=16, seed=4))
        matrix, report = psa(ensemble, "dasklite", executor=executor, workers=2,
                             data_plane=plane)
        assert np.array_equal(matrix.values, psa_serial(ensemble).values)
        assert report.metrics.bytes_results_pickled > 0

    def test_delayed_and_bag_entry_points(self):
        client = DaskLiteClient(executor="serial")
        inc = client.delayed(lambda x: x + 1)
        assert client.compute(inc(1), inc(2)) == (2, 3)
        bag = client.bag_from_sequence(range(6), npartitions=2)
        assert client.compute_bag(bag.map(lambda x: x * 2)) == [0, 2, 4, 6, 8, 10]

    def test_unresolved_future_raises(self):
        from repro.frameworks.dasklite.distributed import Future
        with pytest.raises(RuntimeError):
            Future("pending").result()
