"""Tests for the zero-copy shared-memory data plane.

Covers the store/ref primitives, payload conversion, the ``data_plane``
option on every framework substrate, and the acceptance criteria of the
data-plane work: identical PSA/leaflet results on both planes, and
strictly fewer pickled/moved bytes on the shm plane.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.api import leaflet_finder
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
    BlockRef,
    SharedMemoryStore,
    _walk,
    maybe_resolve,
    refs_nbytes,
    resolve_payload,
    share_payload,
    stand_in_refs,
)
from repro.frameworks.sparklite.partitioner import split_array_into_partitions
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    make_bilayer,
    make_clustered_ensemble,
)
from repro.trajectory.streaming import ChunkedPositions, write_position_chunks

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

    def test_forced_plane_overrides_and_restores(self, bilayer):
        """An explicit data_plane overrides the framework's configured
        plane for the run, labels the report correctly, and restores."""
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane="shm")
        try:
            _, report = run_leaflet_finder(bilayer, 15.0, fw, approach="task-2d",
                                           data_plane="pickle")
            assert report.parameters["data_plane"] == "pickle"
            assert report.metrics.bytes_shared == 0
            assert fw.data_plane == "shm"
        finally:
            fw.close()

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


def _run_driver(driver, ensemble, bilayer, chunk_path, fw, plane):
    """Run one of the four drivers with a forced plane; (matches, report)."""
    if driver == "psa":
        matrix, report = run_psa(ensemble, fw, n_tasks=4, data_plane=plane)
        return np.array_equal(matrix.values, psa_serial(ensemble).values), report
    if driver == "psa_windows":
        matrix, report = run_psa(ensemble, fw, metric="hausdorff_windowed",
                                 window_frames=3, n_tasks=4, data_plane=plane)
        reference = psa_serial(ensemble, metric="hausdorff_windowed")
        return np.array_equal(matrix.values, reference.values), report
    reference = _canonical_components(leaflet_serial(bilayer, 15.0))
    if driver == "leaflet":
        result, report = run_leaflet_finder(bilayer, 15.0, fw, n_tasks=6,
                                            data_plane=plane)
    else:
        result, report = run_leaflet_finder(ChunkedPositions(chunk_path), 15.0, fw,
                                            approach="parallel-cc", data_plane=plane)
    return _canonical_components(result) == reference, report


class TestPerRunPlaneOverride:
    """A forced ``data_plane`` holds for one run of any driver, then the
    framework's own plane and store come back and nothing leaks."""

    @pytest.mark.parametrize("configured,forced", [("pickle", "shm"), ("shm", "pickle")])
    @pytest.mark.parametrize("driver", ["psa", "psa_windows", "leaflet", "leaflet_stream"])
    def test_forced_plane_is_scoped_to_the_run(self, driver, configured, forced,
                                               ensemble, bilayer, tmp_path):
        chunk_path = write_position_chunks(bilayer, str(tmp_path / "bilayer.fchunk"),
                                           atoms_per_chunk=120)
        before_fw = shm_entries()
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane=configured)
        try:
            store = fw.store
            before_run = shm_entries()
            matches, report = _run_driver(driver, ensemble, bilayer, chunk_path, fw,
                                          forced)
            assert matches
            assert report.parameters["data_plane"] == forced
            assert fw.data_plane == configured
            assert fw.store is store
            assert shm_entries() <= before_run
        finally:
            fw.close()
        assert shm_entries() <= before_fw

    def test_forced_shm_honours_configured_capacity(self):
        """A temporary store built for a forced shm run uses the
        framework's store settings, so it spills like the configured
        plane does."""
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=6, n_frames=16, n_atoms=32, seed=7))
        spilled = {}
        for configured in ("pickle", "shm"):
            fw = make_framework("dasklite", executor="threads", workers=2,
                                data_plane=configured, store_capacity_bytes=4096)
            try:
                _, report = run_psa(ensemble, fw, data_plane="shm")
                spilled[configured] = report.metrics.bytes_spilled
            finally:
                fw.close()
        assert spilled["shm"] > 0
        assert spilled["pickle"] == spilled["shm"]


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
