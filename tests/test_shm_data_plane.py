"""Tests for the zero-copy shared-memory data plane.

Covers the store/ref primitives, payload conversion, the ``data_plane``
option on every framework substrate, and the acceptance criteria of the
data-plane work: identical PSA/leaflet results on both planes, and
strictly fewer pickled/moved bytes on the shm plane.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.api import leaflet_finder, psa, stream_windows
from repro.core.leaflet import (
    LEAFLET_APPROACHES,
    leaflet_serial,
    run_leaflet_finder,
)
from repro.core.psa import psa_serial, run_psa
from repro.experiments.fig8_broadcast import data_plane_rows
from repro.frameworks import make_framework, shm
from repro.frameworks.base import TaskFramework
from repro.frameworks.serialization import serialized_size
from repro.frameworks.shm import (
    PUBLISH_PREFIX,
    BlockRef,
    SharedMemoryStore,
    _walk,
    maybe_resolve,
    publish_payload,
    refs_nbytes,
    resolve_payload,
    share_payload,
    stand_in_refs,
    unlink_published,
)
from repro.frameworks.sparklite.partitioner import split_array_into_partitions
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
)

FRAMEWORK_NAMES = ("sparklite", "dasklite", "pilot", "mpilite")


@pytest.fixture()
def store():
    s = SharedMemoryStore()
    yield s
    s.cleanup()


@pytest.fixture(scope="module")
def ensemble():
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=6, n_frames=8, n_atoms=16, n_clusters=2, seed=7)
    )


@pytest.fixture(scope="module")
def bilayer():
    positions, _labels = make_bilayer(BilayerSpec(n_atoms=360, seed=11))
    return positions


class TestStoreAndRefs:
    def test_put_resolve_round_trip(self, store):
        array = np.arange(24, dtype=np.float64).reshape(8, 3)
        ref = store.put(array)
        view = ref.resolve()
        assert np.array_equal(view, array)
        assert not view.flags.writeable  # shared views are read-only
        assert ref.nbytes == array.nbytes

    def test_put_deduplicates_same_array(self, store):
        array = np.ones((10, 3))
        assert store.put(array) == store.put(array)
        assert len(store) == 1
        assert store.bytes_shared == array.nbytes

    def test_put_copies_non_contiguous(self, store):
        array = np.arange(60, dtype=np.float64).reshape(10, 6)[:, ::2]
        assert not array.flags.c_contiguous
        assert np.array_equal(store.put(array).resolve(), array)

    def test_put_rejects_empty_and_non_arrays(self, store):
        with pytest.raises(ValueError):
            store.put(np.empty((0, 3)))
        with pytest.raises(TypeError):
            store.put([1, 2, 3])

    def test_cleanup_is_idempotent_and_closes(self, store):
        store.put(np.ones(4))
        store.cleanup()
        store.cleanup()
        assert store.closed
        with pytest.raises(RuntimeError):
            store.put(np.ones(4))

    def test_slice_rows_zero_copy(self, store):
        array = np.arange(36, dtype=np.float64).reshape(12, 3)
        ref = store.put(array)
        sub = ref.slice_rows(3, 9)
        assert sub.segment == ref.segment  # same segment, new offset
        assert np.array_equal(sub.resolve(), array[3:9])
        assert np.array_equal(ref.slice_rows(10, 99).resolve(), array[10:])
        assert ref.slice_rows(5, 5).resolve().shape == (0, 3)

    def test_slice_rows_3d(self, store):
        array = np.arange(48, dtype=np.float64).reshape(4, 4, 3)
        ref = store.put(array)
        assert np.array_equal(ref.slice_rows(1, 3).resolve(), array[1:3])


class TestPayloadConversion:
    def test_share_and_resolve_nested_payload(self, store):
        a = np.ones((5, 3))
        b = np.full((2, 3), 7.0)
        payload = {"rows": [a, b], "meta": ("x", 3), "single": a}
        converted, newly, referenced = share_payload(payload, store)
        assert newly == a.nbytes + b.nbytes  # a stored once despite two uses
        assert isinstance(converted["rows"][0], BlockRef)
        assert converted["meta"] == ("x", 3)
        assert refs_nbytes(converted) == referenced == 2 * a.nbytes + b.nbytes
        back = resolve_payload(converted)
        assert np.array_equal(back["rows"][0], a)
        assert np.array_equal(back["single"], a)

    def test_non_array_payload_untouched(self, store):
        payload = {"n": 3, "s": "x"}
        converted, newly, referenced = share_payload(payload, store)
        assert converted is payload
        assert newly == referenced == 0

    def test_maybe_resolve(self, store):
        array = np.ones((4, 3))
        ref = store.put(array)
        assert np.array_equal(maybe_resolve(ref), array)
        assert maybe_resolve("plain") == "plain"

    def test_split_array_into_partitions_refs(self, store):
        array = np.arange(30, dtype=np.float64).reshape(10, 3)
        ref = store.put(array)
        parts = split_array_into_partitions(ref, 3)
        assert [p.shape[0] for p in parts] == [4, 3, 3]
        assert np.array_equal(np.concatenate([p.resolve() for p in parts]), array)
        views = split_array_into_partitions(array, 3)
        assert all(isinstance(v, np.ndarray) for v in views)


class Pair(NamedTuple):
    left: object
    right: object


class Tagged(list):
    """A list subclass carrying an attribute, as a payload might."""

    tag = "default"


@dataclass(frozen=True)
class Frozen:
    data: object
    label: str


def _visited(payload):
    """Every node ``_walk`` hands to its leaf, in order."""
    seen = []

    def leaf(x):
        seen.append(x)
        return x

    return _walk(payload, leaf), seen


class TestPayloadWalk:
    def test_unchanged_walk_returns_the_object_itself(self):
        payload = {"rows": [np.ones(3), (1, "x")], "frozen": Frozen(np.ones(2), "f"),
                   "pair": Pair([2.0], None), "tagged": Tagged([np.zeros(1)])}
        assert _visited(payload)[0] is payload
        # nothing to swap: no array, or only an empty one
        plain = {"n": 3, "s": ("x", None), "empty": np.empty(0), "f": Frozen([1], "f")}
        assert stand_in_refs(plain)[0] is plain

    def test_never_descends_into_a_ref(self, store):
        ref = store.put(np.arange(6.0).reshape(2, 3))
        walked, seen = _visited([ref, ref.slice_rows(0, 1)])
        assert walked[0] is ref
        # the list and its two refs; no field of a ref (name, shape, dtype)
        assert len(seen) == 3
        assert not any(isinstance(x, (str, tuple, int)) for x in seen)

    def test_arrays_and_scalars_are_leaves(self):
        array = np.ones((2, 2))
        _, seen = _visited([array, np.float64(1.5), 7, "s", None])
        assert len(seen) == 6  # the list and its five items, nothing inside them

    def test_rebuilt_containers_keep_their_types(self, store):
        a, b = np.ones((4, 3)), np.zeros((2, 3))
        tagged = Tagged([a, 1])
        tagged.tag = "rows"
        payload = (Pair(a, "keep"), tagged, Frozen(data=[b], label="f"))
        converted, _, referenced = share_payload(payload, store)
        pair, rows, frozen = converted
        assert type(pair) is Pair and isinstance(pair.left, BlockRef)
        assert pair.right == "keep"
        assert type(rows) is Tagged and rows.tag == "rows"
        assert isinstance(rows[0], BlockRef) and rows[1] == 1
        assert type(frozen) is Frozen and isinstance(frozen.data[0], BlockRef)
        assert frozen.label == "f"
        assert referenced == 2 * a.nbytes + b.nbytes
        # the input payload is never mutated
        assert payload[1][0] is a and payload[2].data[0] is b
        back = resolve_payload(converted)
        assert np.array_equal(back[0].left, a) and np.array_equal(back[2].data[0], b)


class TestInProcessResults:
    """Tasks run in the driver's process return their results in the heap."""

    def test_stand_ins_pickle_like_store_refs(self, store):
        result = [np.arange(12).reshape(4, 3), (np.ones(5), 2.5), {"k": np.zeros(2)}]
        before = shm_entries()
        stand_in, referenced = stand_in_refs(result, store.spill_dir)
        assert shm_entries() == before  # a stand-in names no segment
        assert isinstance(stand_in[1][0], BlockRef)
        real = _walk(result, lambda x: store.put(x, dedup=False)
                     if isinstance(x, np.ndarray) else x)
        assert referenced == refs_nbytes(real) == 12 * 8 + 5 * 8 + 2 * 8
        assert serialized_size(stand_in) == serialized_size(real)

    def test_threads_account_results_without_segments(self):
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane="shm")
        try:
            items = [np.full((30, 10), i, dtype=np.float64) for i in range(4)]
            results = fw.map_tasks(_double, items)
            for i, out in enumerate(results):
                assert np.array_equal(out, items[i] * 2)
                assert out.flags.writeable  # the task's own array, not a view
            assert len(fw.store) == 4  # the inputs, and no result segment
            assert fw.metrics.bytes_shared_results == 4 * 30 * 10 * 8
            assert 0 < fw.metrics.bytes_results_pickled < fw.metrics.bytes_shared_results
        finally:
            fw.close()

    @pytest.mark.parametrize("name, executor", [
        *(pytest.param(name, "threads", id=name) for name in FRAMEWORK_NAMES),
        # sparklite and mpilite refuse process lanes
        *(pytest.param(name, kind, id=f"{name}-{kind}")
          for name in ("dasklite", "pilot") for kind in ("processes", "shm")),
    ])
    def test_reused_framework_leaves_shm_and_fds_flat(self, name, executor):
        """Ten tree-search calls on one framework add no segment and no fd,
        in the driver or in any lane, and ``close()`` leaves none behind."""
        before, retired = shm_entries(), list(shm._RETIRED)
        system, _ = make_bilayer(BilayerSpec())
        fw = make_framework(name, executor=executor, workers=2, data_plane="shm")
        try:
            # the first call puts the system into the store, once, and
            # starts the lanes of a process executor
            leaflet_finder(system, fw, approach="tree-search", n_tasks=16)
            counts = _plane_counts(fw)
            for _ in range(9):
                result, _ = leaflet_finder(system, fw, approach="tree-search",
                                           n_tasks=16)
                assert _plane_counts(fw) == counts
            assert len(result.components) == 2
        finally:
            fw.close()
        assert shm_entries() <= before
        assert [s for s in shm._RETIRED if not any(s is r for r in retired)] == []

    @pytest.mark.parametrize("executor", ["processes", "shm"])
    def test_lanes_account_results_without_segments(self, executor):
        """Process lanes publish results as segments, and the driver
        copies each out and unlinks it on receipt: the store keeps only
        the inputs, and the byte split is the one the lanes measured."""
        fw = make_framework("dasklite", executor=executor, workers=2,
                            data_plane="shm")
        try:
            items = [np.full((30, 10), i, dtype=np.float64) for i in range(4)]
            results = fw.map_tasks(_double, items)
            for i, out in enumerate(results):
                assert np.array_equal(out, items[i] * 2)
                assert out.flags.writeable and out.flags.owndata  # a heap copy
            assert len(fw.store) == 4  # the inputs, and no result segment
            assert fw.metrics.bytes_shared_results == 4 * 30 * 10 * 8
            assert 0 < fw.metrics.bytes_results_pickled < fw.metrics.bytes_shared_results
        finally:
            fw.close()

    @pytest.mark.parametrize("approach", ["tree-search", "parallel-cc"])
    @pytest.mark.parametrize("name, executor", [("dasklite", "processes"),
                                                ("pilot", "shm")])
    def test_lanes_return_one_leaflet_result_per_task(self, name, executor,
                                                      approach, monkeypatch):
        """Each partial-components task returns one packed array, so the
        driver adopts at most one block per task, however many components
        the tasks found."""
        adopted = []
        adopt = SharedMemoryStore.adopt

        def counting_adopt(store, ref):
            adopted.append(ref.segment)
            return adopt(store, ref)

        monkeypatch.setattr(SharedMemoryStore, "adopt", counting_adopt)
        system, _ = make_bilayer(BilayerSpec(n_atoms=1024))
        expected = leaflet_serial(system, 15.0).components
        fw = make_framework(name, executor=executor, workers=2, data_plane="shm")
        try:
            for _ in range(2):
                adopted.clear()
                result, report = leaflet_finder(system, fw, approach=approach,
                                                n_tasks=16)
                assert 0 < len(adopted) <= report.n_tasks
                assert len(result.components) == len(expected)
                for ours, theirs in zip(result.components, expected):
                    assert np.array_equal(ours, theirs)
        finally:
            fw.close()


def _double(array):
    return array * 2


def open_fds(pid="self"):
    """Number of file descriptors process ``pid`` holds open."""
    return len(os.listdir(f"/proc/{pid}/fd"))


def _plane_counts(fw):
    """``/dev/shm`` entries, driver fds, and each worker lane's fds."""
    lanes = getattr(fw.executor, "_lanes", [])
    return (len(shm_entries()), open_fds(),
            [open_fds(lane.proc.pid) for lane in lanes])


class TestFrameworkDataPlane:
    def test_rejects_unknown_plane(self):
        with pytest.raises(ValueError, match="data_plane"):
            TaskFramework(data_plane="carrier-pigeon")

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_psa_identical_across_planes(self, name, ensemble):
        reference = psa_serial(ensemble).values
        for plane in ("pickle", "shm"):
            fw = make_framework(name, executor="threads", workers=2, data_plane=plane)
            matrix, report = run_psa(ensemble, fw, n_tasks=4)
            assert np.allclose(matrix.values, reference)
            assert report.parameters["data_plane"] == plane
            if plane == "shm":
                assert report.metrics.bytes_shared > 0
            fw.close()

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    @pytest.mark.parametrize("approach", sorted(LEAFLET_APPROACHES))
    def test_leaflet_identical_across_planes(self, name, approach, bilayer):
        expected = sorted(len(c) for c in leaflet_serial(bilayer, 15.0).components)
        for plane in ("pickle", "shm"):
            fw = make_framework(name, executor="threads", workers=2, data_plane=plane)
            result, report = run_leaflet_finder(bilayer, 15.0, fw,
                                                approach=approach, n_tasks=6)
            assert sorted(len(c) for c in result.components) == expected
            assert report.parameters["data_plane"] == plane
            fw.close()

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_shm_broadcast_moves_only_refs(self, name, bilayer):
        fw_pickle = make_framework(name, executor="threads", workers=2)
        fw_shm = make_framework(name, executor="threads", workers=2, data_plane="shm")
        handle_pickle = fw_pickle.broadcast(bilayer)
        handle_shm = fw_shm.broadcast(bilayer)
        try:
            assert handle_shm.nbytes < handle_pickle.nbytes
            assert handle_shm.bytes_shared == bilayer.nbytes
            assert fw_shm.metrics.bytes_shared >= bilayer.nbytes
        finally:
            fw_pickle.close()
            fw_shm.close()

    def test_mpilite_shm_collectives(self, bilayer):
        fw = make_framework("mpilite", executor="threads", workers=2,
                            ranks=3, data_plane="shm")

        def rank_main(comm):
            received = comm.bcast(bilayer if comm.rank == 0 else None, root=0)
            chunks = None
            if comm.rank == 0:
                chunks = [bilayer[i::comm.size] for i in range(comm.size)]
            mine = comm.scatter(chunks, root=0)
            return float(received.sum()) + float(mine.sum())

        results = fw.run_spmd(rank_main)
        expected = [float(bilayer.sum()) + float(bilayer[i::3].sum()) for i in range(3)]
        assert results == pytest.approx(expected)
        ctx = fw.last_context
        assert ctx.bytes_shared >= bilayer.nbytes  # arrays served via shm
        assert ctx.bytes_communicated < bilayer.nbytes  # only refs moved
        fw.close()

    def test_dasklite_piecewise_scatter_splits_refs(self, bilayer):
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane="shm")
        scattered = fw.scatter(bilayer, broadcast=False)
        assert len(scattered.pieces) == 2  # one zero-copy chunk per worker
        assert all(isinstance(p, BlockRef) for p in scattered.pieces)
        reassembled = np.concatenate([p.resolve() for p in scattered.pieces])
        assert np.array_equal(reassembled, bilayer)
        assert scattered.nbytes < bilayer.nbytes  # only refs would move
        fw.close()

    def test_pilot_shm_staging(self, bilayer):
        fw = make_framework("pilot", executor="threads", workers=2, data_plane="shm")
        path = fw.stage_data(bilayer)
        assert path.startswith("shm://")
        assert np.array_equal(fw.load_staged(path), bilayer)
        assert fw.metrics.bytes_shared >= bilayer.nbytes
        assert fw.metrics.bytes_staged < bilayer.nbytes  # only the ref staged
        fw.close()

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_planes_report_comparable_payload_bytes(self, name, bilayer):
        """Both planes report would-cross payload bytes on in-process
        executors, with the shm plane strictly smaller (refs vs arrays)."""
        fw_pickle = make_framework(name, executor="threads", workers=2)
        fw_shm = make_framework(name, executor="threads", workers=2, data_plane="shm")
        try:
            _, report_pickle = run_leaflet_finder(bilayer, 15.0, fw_pickle,
                                                  approach="task-2d", n_tasks=6)
            _, report_shm = run_leaflet_finder(bilayer, 15.0, fw_shm,
                                               approach="task-2d", n_tasks=6)
            assert (report_pickle.metrics.bytes_pickled
                    > report_shm.metrics.bytes_pickled > 0)
        finally:
            fw_pickle.close()
            fw_shm.close()

    def test_close_releases_owned_store(self):
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane="shm")
        fw.broadcast(np.ones((50, 3)))
        store = fw.store
        fw.close()
        assert store.closed


def shm_entries():
    """Current /dev/shm segment names (empty set if the dir is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux fallback: nothing to compare
        return set()


def _canonical_components(result):
    return sorted(tuple(sorted(c)) for c in result.components)


#: (substrate, executor, plane): every substrate on both planes on
#: threads, and the two whose tasks run on a process pool on ``"shm"``
PREBUILT_CASES = ([(name, "threads", plane) for name in FRAMEWORK_NAMES
                   for plane in ("pickle", "shm")]
                  + [(name, "shm", plane) for name in ("dasklite", "pilot")
                     for plane in ("pickle", "shm")])


class TestPrebuiltFrameworkPlane:
    """A framework's plane and store are fixed when it is built: the API
    functions run a pre-built framework on them, accept its own plane,
    and refuse any other before anything is shared."""

    @pytest.mark.parametrize("name,executor,plane", PREBUILT_CASES)
    def test_api_keeps_the_plane_and_store(self, name, executor, plane,
                                          ensemble, bilayer):
        before_fw = shm_entries()
        fw = make_framework(name, executor=executor, workers=2, data_plane=plane)
        store, executor_store = fw.store, fw.executor.store
        try:
            matrix, report = psa(ensemble, fw, n_tasks=4)
            assert np.array_equal(matrix.values, psa_serial(ensemble).values)
            assert report.parameters["data_plane"] == plane
            result, report = leaflet_finder(bilayer, fw, n_tasks=6, data_plane=plane)
            assert (_canonical_components(result)
                    == _canonical_components(leaflet_serial(bilayer, 15.0)))
            assert report.parameters["data_plane"] == plane
            matrix, report = stream_windows(ensemble, fw, window_frames=3, n_tasks=4)
            reference = psa_serial(ensemble, metric="hausdorff_windowed")
            assert np.array_equal(matrix.values, reference.values)
            assert report.parameters["data_plane"] == plane
            assert fw.data_plane == plane
            assert fw.store is store
            assert fw.executor.store is executor_store

            other = "shm" if plane == "pickle" else "pickle"
            before_run = shm_entries()
            for call in (lambda: psa(ensemble, fw, data_plane=other),
                         lambda: leaflet_finder(bilayer, fw, data_plane=other),
                         lambda: stream_windows(ensemble, fw, window_frames=3,
                                                data_plane=other)):
                with pytest.raises(ValueError, match="fixed when it is built"):
                    call()
            assert shm_entries() == before_run
            assert fw.data_plane == plane
            assert fw.store is store
            assert fw.executor.store is executor_store
        finally:
            fw.close()
        assert shm_entries() <= before_fw


def object_array(n):
    """An array of Python objects: its bytes are pointers, not data."""
    return np.array([{"n": n}, "x" * n, None], dtype=object)


def describe(arrays):
    """What a task sees of an object array and a numeric one."""
    objects, numbers = arrays
    return [repr(x) for x in objects], float(np.asarray(numbers).sum())


OBJECT_RESULT_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.frameworks import make_framework

    def build(n):
        return np.array([{"n": n}, "x" * n, None], dtype=object), np.full(4, float(n))

    if __name__ == "__main__":
        fw = make_framework("dasklite", executor="shm", workers=2)
        try:
            results = fw.map_tasks(build, [1, 2, 3])
        finally:
            fw.close()
        for n, (objects, numbers) in zip([1, 2, 3], results):
            assert list(objects) == [{"n": n}, "x" * n, None], objects
            assert np.array_equal(numbers, np.full(4, float(n)))
        print("ok")
""")


class TestObjectArrays:
    """Arrays of Python objects never enter shared memory: they ride the pickle."""

    def test_put_refuses_them(self, store):
        with pytest.raises(TypeError, match="Python objects"):
            store.put(object_array(2))
        with pytest.raises(TypeError, match="Python objects"):
            store.put(np.zeros(3, dtype=[("a", "f8"), ("b", "O")]))
        assert len(store) == 0

    def test_walkers_leave_them_in_the_payload(self, store):
        objects, numbers = object_array(2), np.arange(3.0)
        converted, newly, referenced = share_payload([objects, numbers], store)
        assert converted[0] is objects and isinstance(converted[1], BlockRef)
        assert newly == referenced == numbers.nbytes
        stand_in, referenced = stand_in_refs([objects, numbers])
        assert stand_in[0] is objects and isinstance(stand_in[1], BlockRef)
        assert referenced == numbers.nbytes
        name = f"{PUBLISH_PREFIX}-{os.urandom(8).hex()}"
        published, nbytes = publish_payload([objects, numbers], name)
        try:
            assert published[0] is objects and published[1].segment == f"{name}-0"
            assert nbytes == numbers.nbytes
        finally:
            assert unlink_published(name) == 1

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_broadcast_keeps_them_whole(self, name):
        fw = make_framework(name, executor="threads", workers=2, data_plane="shm")
        try:
            handle = fw.broadcast(object_array(2))
            assert handle.bytes_shared == 0
            assert len(fw.store) == 0
        finally:
            fw.close()

    def test_object_array_input_on_shm_executor(self):
        """Warm lanes forked before these objects existed, so pointer bytes
        in a segment would name nothing in them."""
        fw = make_framework("dasklite", executor="shm", workers=2)
        try:
            fw.map_tasks(describe, [(object_array(0), np.zeros(4))] * 2)  # forks the lanes
            items = [(object_array(n), np.full(4, float(n))) for n in (1, 2, 3)]
            assert fw.map_tasks(describe, items) == [describe(item) for item in items]
        finally:
            fw.close()

    def test_object_array_result_on_shm_executor(self, tmp_path):
        """At the parent the driver read pointer bytes back and crashed, so
        the case runs in its own interpreter."""
        script = tmp_path / "object_result.py"
        script.write_text(OBJECT_RESULT_SCRIPT)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (done.returncode, done.stdout.strip()) == (0, "ok"), done.stderr[-2000:]


class TestAcceptance:
    """The PR's acceptance criteria, executable."""

    def test_shm_executor_matches_process_executor_on_psa(self, ensemble):
        fw_process = TaskFramework(executor="processes", workers=2)
        fw_shm = TaskFramework(executor="shm", workers=2, data_plane="shm")
        try:
            matrix_p, report_p = run_psa(ensemble, fw_process, n_tasks=4)
            matrix_s, report_s = run_psa(ensemble, fw_shm, n_tasks=4)
            assert np.allclose(matrix_p.values, matrix_s.values)
            assert np.allclose(matrix_p.values, psa_serial(ensemble).values)
            # strictly fewer pickled bytes on the shm plane
            assert 0 < report_s.metrics.bytes_pickled < report_p.metrics.bytes_pickled
            assert report_s.metrics.bytes_shared > 0
        finally:
            fw_process.close()
            fw_shm.close()

    def test_fig8_reports_strictly_fewer_moved_bytes(self):
        rows = data_plane_rows(n_atoms=400, workers=2, n_tasks=4)
        assert rows
        system_bytes = 400 * 3 * 8
        for row in rows:
            assert row["bytes_moved_shm"] < row["bytes_moved_pickle"]
            # tasks access the system many times over...
            assert row["bytes_accessed_shm"] >= system_bytes
            # ...but it enters the store exactly once, and the thread-run
            # tasks' results stay in the heap
            assert row["bytes_resident_shm"] == system_bytes
            assert row["bytes_resident_shm"] < row["bytes_accessed_shm"]
            assert row["moved_reduction"] > 1.0

    def test_fig8_result_path_rides_the_plane(self):
        """PR 2 acceptance: result payloads (edge lists) move >=10x fewer
        bytes on the shm plane — only refs return through pickle."""
        rows = data_plane_rows(n_atoms=800, workers=2, n_tasks=4)
        for row in rows:
            assert row["bytes_results_moved_shm"] < row["bytes_results_moved_pickle"]
            assert row["results_moved_reduction"] >= 10.0
            # the edge-list bytes the pickle plane would have moved are
            # what the returned refs would point at
            assert row["bytes_shared_results"] > 0
