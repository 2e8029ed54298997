"""Tests for the tiered result plane: spill-to-disk and segment cleanup.

Covers the PR's acceptance criteria for the spill tier: a store filled
past its watermark moves least-recently-used blocks to memory-mapped
files, refs keep resolving bit-identically across the tier change,
``bytes_spilled`` is reported, a PSA run sized beyond a configured store
cap completes with bit-identical output — and no ``/dev/shm`` segments
leak across runs (the worker-crash cleanup fix).

The write-behind pipeline (PR 4) is covered by ``TestWriteBehind``:
enqueued/spilling blocks stay readable from shared memory, ``flush_spill``
is a real barrier, backpressure bounds the queue, concurrent
put/resolve races stay bit-identical, ``spill_async=False`` is an exact
behavioural twin, and closing (or crashing a worker) with a non-empty
queue leaks neither ``/dev/shm`` names nor spill files.
``TestLongLivedLanes`` runs warm worker lanes next to the spill writer.
``TestPrefetchDrops`` pins the file tier's read-ahead queue: a full
queue drops (and counts) only the hints that do not fit.
``TestSpillRoundTrip`` sends every dtype and layout through the disk
tier, and ``TestSpilledRefsOnLanes`` dispatches spilled inputs to worker
lanes, with no read-ahead issued by the driver.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.psa import psa_serial, run_psa
from repro.frameworks import make_framework
from repro.frameworks import shm as shm_mod
from repro.frameworks.executors import SharedMemoryExecutor, _WorkerLane
from repro.frameworks.shm import (
    BlockLost,
    BlockRef,
    SharedMemoryStore,
    adopt_payload,
    mark_handed_off,
    prefetch_hints_dropped,
    prefetch_refs,
    publish_payload,
    unlink_segment_by_name,
)
from repro.trajectory import EnsembleSpec, make_clustered_ensemble


def shm_entries():
    """Current /dev/shm segment names (empty set if the dir is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux fallback: nothing to compare
        return set()


def ref(name, nbytes=80, spill_dir=None):
    """A BlockRef of ``nbytes`` bytes under segment ``name``."""
    return BlockRef(segment=name, shape=(nbytes // 8,), dtype="<f8",
                    spill_dir=spill_dir)


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(42)
    return [rng.random((50, 10)) for _ in range(6)]  # 4000 bytes each


class TestSpillToDisk:
    def test_fill_past_watermark_spills_lru_first(self, arrays):
        store = SharedMemoryStore(capacity_bytes=10_000)
        try:
            refs = [store.put(a) for a in arrays]
            # 24k put into a 10k store: at least 4 blocks must have spilled
            assert store.bytes_spilled >= 4 * 4000
            assert store.bytes_resident <= 10_000
            # LRU: the most recently put block is still resident
            assert refs[-1].segment in store._segments
            # after the write-behind barrier the first block is on disk,
            # as a .blk file in the spill dir
            store.flush_spill()
            assert os.path.exists(
                os.path.join(store.spill_dir, refs[0].segment + ".blk"))
        finally:
            store.cleanup()

    def test_spilled_refs_resolve_bit_identical(self, arrays):
        store = SharedMemoryStore(capacity_bytes=5_000)
        try:
            refs = [store.put(a) for a in arrays]
            assert store.bytes_spilled > 0
            for array, ref in zip(arrays, refs):
                view = ref.resolve()
                assert np.array_equal(view, array)  # bit-identical
                assert not view.flags.writeable
        finally:
            store.cleanup()

    def test_slice_rows_survives_spill(self, arrays):
        store = SharedMemoryStore(capacity_bytes=4_000)
        try:
            ref = store.put(arrays[0])
            sub = ref.slice_rows(10, 30)
            store.put(arrays[1])  # pushes the first block to disk
            assert ref.segment not in store._segments
            assert np.array_equal(sub.resolve(), arrays[0][10:30])
        finally:
            store.cleanup()

    def test_get_refreshes_lru_position(self, arrays):
        store = SharedMemoryStore(capacity_bytes=9_000)  # two blocks fit
        try:
            ref0 = store.put(arrays[0])
            store.put(arrays[1])
            store.get(ref0)           # touch: block 0 becomes most recent
            store.put(arrays[2])      # evicts block 1, not block 0
            assert ref0.segment in store._segments
        finally:
            store.cleanup()

    def test_size_aware_eviction_prefers_large_cold_blocks(self):
        """One cold oversized block spills before many small cold ones."""
        rng = np.random.default_rng(7)
        small = [rng.random((25, 5)) for _ in range(2)]   # 1000 bytes each
        big = rng.random((200, 5))                        # 8000 bytes
        store = SharedMemoryStore(capacity_bytes=10_000)
        try:
            small_refs = [store.put(a) for a in small]
            big_ref = store.put(big)                      # resident: 10k exactly
            assert store.bytes_spilled == 0
            trigger = store.put(rng.random((25, 5)))      # 11k > 10k: evict
            # the big block is the largest cold segment -> it spills alone,
            # every small block (older ones included) stays resident
            assert big_ref.segment not in store._segments
            assert store.bytes_spilled == big.nbytes
            for ref in small_refs + [trigger]:
                assert ref.segment in store._segments
            assert np.array_equal(big_ref.resolve(), big)  # via the file tier
        finally:
            store.cleanup()

    def test_size_aware_eviction_protects_most_recent(self):
        """Equal sizes reduce to classic LRU; the hottest block never spills."""
        rng = np.random.default_rng(8)
        arrays = [rng.random((50, 10)) for _ in range(4)]  # 4000 bytes each
        store = SharedMemoryStore(capacity_bytes=9_000)
        try:
            ref0 = store.put(arrays[0])
            store.put(arrays[1])
            store.get(ref0)                   # block 0 is now the hottest
            ref2 = store.put(arrays[2])       # evicts block 1 (cold), not 0
            assert ref0.segment in store._segments
            assert ref2.segment in store._segments
        finally:
            store.cleanup()

    def test_adopted_segments_spill_too(self, arrays):
        """Adoption consumes a published block: its bytes are copied out
        and its segment unlinked on receipt, so a result never joins the
        store's resident set and never spills."""
        published, _ = publish_payload([arrays[0], arrays[1]])
        mark_handed_off(published)
        names = {ref.segment for ref in published}
        assert names <= shm_entries()
        store = SharedMemoryStore(capacity_bytes=4_000)
        try:
            results = adopt_payload(published, store)
            assert store.bytes_adopted >= 8_000
            assert not names & shm_entries()  # unlinked on receipt
            assert (len(store), store.bytes_resident, store.bytes_spilled) == (0, 0, 0)
            for array, out in zip(arrays, results):
                assert np.array_equal(out, array)
                assert out.flags.writeable  # a heap copy, not a segment view
        finally:
            store.cleanup()

    def test_a_lost_block_leaves_no_other_segment_of_its_result(self, arrays):
        """When one segment of a result is gone before receipt, adoption
        still consumes the result's other segments before it raises."""
        published, _ = publish_payload([arrays[0], arrays[1], arrays[2]])
        mark_handed_off(published)
        names = {ref.segment for ref in published}
        assert unlink_segment_by_name(published[1].segment)
        store = SharedMemoryStore()
        try:
            with pytest.raises(BlockLost):
                adopt_payload(published, store)
            assert not names & shm_entries()  # the first and the last too
            assert len(store) == 0
        finally:
            store.cleanup()

    def test_cleanup_removes_spill_files(self, arrays):
        store = SharedMemoryStore(capacity_bytes=4_000)
        refs = [store.put(a) for a in arrays[:3]]
        store.flush_spill()
        spill_dir = store.spill_dir
        assert os.listdir(spill_dir)
        store.cleanup()
        assert not os.path.exists(spill_dir)  # files and owned dir removed
        del refs

    def test_zero_capacity_goes_straight_to_disk(self, arrays):
        store = SharedMemoryStore(capacity_bytes=0)
        try:
            ref = store.put(arrays[0])
            assert store.bytes_resident == 0
            assert store.bytes_spilled == arrays[0].nbytes
            assert np.array_equal(ref.resolve(), arrays[0])
        finally:
            store.cleanup()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SharedMemoryStore(capacity_bytes=-1)

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ValueError):
            SharedMemoryStore(capacity_bytes=100, spill_queue_depth=0)


class TestWriteBehind:
    """The async spill pipeline: enqueue/spilling states, barrier, races."""

    def test_flush_spill_is_a_noop_without_pending_work(self, arrays):
        store = SharedMemoryStore()  # no capacity: nothing ever spills
        try:
            store.put(arrays[0])
            store.flush_spill()
        finally:
            store.cleanup()

    def test_spilling_blocks_resolve_from_shm_until_demoted(self, arrays):
        """In the enqueued/spilling states the shm mapping still serves
        reads; after the barrier the same ref resolves via the file."""
        store = SharedMemoryStore(capacity_bytes=0, spill_queue_depth=1)
        try:
            ref = store.put(arrays[0])
            # whichever state the block is in right now, reads are exact
            assert np.array_equal(ref.resolve(), arrays[0])
            store.flush_spill()
            assert ref.segment in store._spilled
            assert os.path.exists(
                os.path.join(store.spill_dir, ref.segment + ".blk"))
            assert np.array_equal(ref.resolve(), arrays[0])
        finally:
            store.cleanup()

    def test_async_matches_sync_bit_for_bit(self, arrays):
        """spill_async=False equivalence: same evictions, same counters,
        same bytes back — only where the write time lands differs."""
        sync = SharedMemoryStore(capacity_bytes=8_000, spill_async=False)
        behind = SharedMemoryStore(capacity_bytes=8_000, spill_async=True)
        try:
            sync_refs = [sync.put(a) for a in arrays]
            async_refs = [behind.put(a) for a in arrays]
            behind.flush_spill()
            assert sync.bytes_spilled == behind.bytes_spilled > 0
            assert sync.bytes_resident == behind.bytes_resident
            assert set(sync._spilled) != set()  # both really hit the disk tier
            for array, s_ref, a_ref in zip(arrays, sync_refs, async_refs):
                assert np.array_equal(s_ref.resolve(), array)
                assert np.array_equal(a_ref.resolve(), array)
            # the split: sync stalls the putter, write-behind hides it
            assert sync.spill_wait_seconds > 0.0
            assert sync.spill_hidden_seconds == 0.0
            assert behind.spill_hidden_seconds > 0.0
        finally:
            sync.cleanup()
            behind.cleanup()

    def test_backpressure_bounds_the_queue(self):
        """A depth-1 queue forces eviction to wait for the writer; the
        store still ends up exactly at its watermark."""
        rng = np.random.default_rng(21)
        arrays = [rng.random((500, 100)) for _ in range(8)]  # 400k each
        store = SharedMemoryStore(capacity_bytes=400_000, spill_queue_depth=1)
        try:
            refs = [store.put(a) for a in arrays]
            store.flush_spill()
            assert store.bytes_resident <= 400_000
            assert store.bytes_spilled == 7 * arrays[0].nbytes
            for array, ref in zip(arrays, refs):
                assert np.array_equal(ref.resolve(), array)
        finally:
            store.cleanup()

    def test_concurrent_put_resolve_during_spill(self):
        """Putters and resolvers race the spill writer; every read is
        bit-identical whichever tier serves it."""
        rng = np.random.default_rng(12)
        arrays = [rng.random((100, 20)) for _ in range(32)]  # 16k each
        store = SharedMemoryStore(capacity_bytes=48_000, spill_queue_depth=2)
        refs: dict = {}
        failures: list = []

        def putter(indices):
            try:
                for i in indices:
                    refs[i] = store.put(arrays[i])
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        def resolver():
            try:
                for _ in range(50):
                    for i, ref in list(refs.items()):
                        if not np.array_equal(ref.resolve(), arrays[i]):
                            failures.append(f"mismatch on block {i}")
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        import threading
        threads = [threading.Thread(target=putter, args=(range(0, 32, 2),)),
                   threading.Thread(target=putter, args=(range(1, 32, 2),)),
                   threading.Thread(target=resolver),
                   threading.Thread(target=resolver)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures
            store.flush_spill()
            for i, ref in refs.items():
                assert np.array_equal(ref.resolve(), arrays[i])
        finally:
            store.cleanup()

    def test_adopt_while_block_is_spilling(self, arrays):
        """Adopting a ref the store owns while its block is mid-spill
        returns equal data and neither unlinks nor duplicates the block."""
        store = SharedMemoryStore(capacity_bytes=0, spill_queue_depth=1)
        try:
            ref = store.put(arrays[0])  # immediately enqueued (capacity 0)
            owned = (len(store), store.bytes_resident, store.bytes_spilled,
                     store.bytes_adopted)
            out = store.adopt(ref)
            assert np.array_equal(out, arrays[0])
            assert ref in store
            assert (len(store), store.bytes_resident, store.bytes_spilled,
                    store.bytes_adopted) == owned
            # still in shared memory, or demoted by the writer with its file
            assert ref.segment in shm_entries() | store.spilled_names()
            store.flush_spill()
            assert ref.segment in store.spilled_names()
            assert np.array_equal(ref.resolve(), arrays[0])
        finally:
            store.cleanup()

    def test_close_with_nonempty_queue_leaks_nothing(self):
        """flush-on-close: cleanup with blocks still enqueued/in flight
        leaves neither /dev/shm names nor spill files behind."""
        before = shm_entries()
        rng = np.random.default_rng(3)
        store = SharedMemoryStore(capacity_bytes=0, spill_queue_depth=1)
        spill_dir = store.spill_dir
        for _ in range(6):
            store.put(rng.random((200, 50)))
        store.cleanup()  # no flush first: the queue is likely non-empty
        assert shm_entries() <= before
        assert not os.path.exists(spill_dir)

    def test_put_after_close_still_raises(self, arrays):
        store = SharedMemoryStore(capacity_bytes=1_000)
        store.cleanup()
        with pytest.raises(RuntimeError):
            store.put(arrays[0])


class TestMetricsAndAcceptance:
    def test_psa_spill_async_ablation_bit_identical(self):
        """PR 4 acceptance: the write-behind pipeline changes where the
        spill time lands, never the results."""
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=8, n_frames=16, n_atoms=64, seed=3))
        total = sum(t.as_array().nbytes for t in ensemble)
        reference = psa_serial(ensemble).values
        reports = {}
        for spill_async in (False, True):
            fw = make_framework("dasklite", executor="threads", workers=2,
                                data_plane="shm",
                                store_capacity_bytes=total // 4,
                                spill_async=spill_async)
            try:
                matrix, report = run_psa(ensemble, fw, n_tasks=8)
                assert np.array_equal(matrix.values, reference)  # bit-identical
                assert report.metrics.bytes_spilled > 0
                reports[spill_async] = report
            finally:
                fw.close()
        sync_metrics = reports[False].metrics
        async_metrics = reports[True].metrics
        # the new split reaches the run report on both paths
        assert sync_metrics.spill_wait_seconds > 0.0
        assert sync_metrics.spill_hidden_seconds == 0.0
        assert async_metrics.spill_hidden_seconds >= 0.0
        assert "spill_wait_seconds" in async_metrics.as_dict()
        assert "spill_hidden_seconds" in async_metrics.as_dict()

    def test_shm_executor_attributes_per_task_spill_stall(self):
        """Synchronous spilling during payload staging lands on the
        staged task's TaskTiming and rolls up through the executor
        totals into RunMetrics — even on a pickle-plane framework."""
        from repro.frameworks.base import TaskFramework

        store = SharedMemoryStore(capacity_bytes=2_000, spill_async=False)
        ex = SharedMemoryExecutor(workers=2, store=store)
        fw = TaskFramework(executor=ex)  # data_plane defaults to "pickle"
        try:
            items = [np.full((30, 10), i, dtype=np.float64) for i in range(4)]
            results = fw.map_tasks(_double, items)
            for i, out in enumerate(results):
                assert np.array_equal(out, items[i] * 2)
            assert any(t.spill_wait_seconds > 0.0 for t in ex.timings)
            assert ex.totals().spill_wait_seconds > 0.0
            assert ex.totals().spill_hidden_seconds == 0.0  # synchronous store
            assert fw.metrics.spill_wait_seconds >= ex.totals().spill_wait_seconds
        finally:
            fw.close()
            store.cleanup()  # caller-owned: neither fw nor ex unlinks it

    def test_cleanup_racing_concurrent_puts_leaks_nothing(self):
        """Closing a store out from under putter threads (including ones
        parked on spill backpressure) neither crashes nor leaks."""
        import threading

        before = shm_entries()
        rng = np.random.default_rng(17)
        arrays = [rng.random((200, 50)) for _ in range(16)]  # 80k each
        store = SharedMemoryStore(capacity_bytes=80_000, spill_queue_depth=1)
        spill_dir = store.spill_dir
        failures: list = []

        def hammer(sub):
            try:
                for i in sub:
                    store.put(arrays[i], dedup=False)
            except RuntimeError:
                pass  # closed under us: the documented outcome
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(range(0, 16, 2),)),
                   threading.Thread(target=hammer, args=(range(1, 16, 2),))]
        for t in threads:
            t.start()
        store.cleanup()  # race the putters deliberately
        for t in threads:
            t.join()
        assert not failures
        assert shm_entries() <= before
        assert not os.path.exists(spill_dir)

    def test_psa_beyond_store_cap_completes_bit_identical(self):
        """PR 2 acceptance: a PSA run sized beyond the configured store
        cap completes via spill with bit-identical output."""
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=8, n_frames=16, n_atoms=64, seed=3))
        total = sum(t.as_array().nbytes for t in ensemble)
        reference = psa_serial(ensemble).values
        fw = make_framework("dasklite", executor="threads", workers=2,
                            data_plane="shm", store_capacity_bytes=total // 4)
        try:
            matrix, report = run_psa(ensemble, fw, n_tasks=8)
            assert np.array_equal(matrix.values, reference)  # bit-identical
            assert report.metrics.bytes_spilled > 0
            assert fw.store.bytes_resident <= total // 4
            assert report.metrics.as_dict()["bytes_spilled"] > 0
        finally:
            fw.close()

    def test_shm_executor_with_cap_spills_results(self):
        """Cross-process: worker-published result blocks spill once the
        driver store runs past its watermark, and still round-trip."""
        before = shm_entries()
        store = SharedMemoryStore(capacity_bytes=2_000)
        ex = SharedMemoryExecutor(workers=2, store=store)
        try:
            items = [np.full((30, 10), i, dtype=np.float64) for i in range(4)]
            results = ex.map_tasks(_double, items)
            for i, out in enumerate(results):
                assert np.array_equal(out, items[i] * 2)
            assert ex.store.bytes_spilled > 0
            assert ex.totals().bytes_shared_results == 4 * 30 * 10 * 8
            assert 0 < ex.totals().bytes_results_pickled < ex.totals().bytes_shared_results
        finally:
            ex.shutdown()
            store.cleanup()  # caller-owned: shutdown leaves it alone
        assert shm_entries() <= before  # nothing leaked


def _double(array):
    return np.asarray(array) * 2


class TestNoSegmentLeaks:
    """The worker-crash cleanup fix: /dev/shm stays clean across runs."""

    def test_executor_run_leaves_no_segments(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=2)
        ex.map_tasks(_double, [np.ones((40, 3)) for _ in range(4)])
        ex.shutdown()
        assert shm_entries() <= before

    def test_failing_tasks_leave_no_segments(self):
        before = shm_entries()
        ex = SharedMemoryExecutor(workers=2)
        with pytest.raises(ValueError, match="boom"):
            ex.map_tasks(_explode, [np.ones((40, 3)) for _ in range(4)])
        ex.shutdown()
        assert shm_entries() <= before

    def test_framework_shm_run_leaves_no_segments(self):
        before = shm_entries()
        ensemble = make_clustered_ensemble(
            EnsembleSpec(n_trajectories=4, n_frames=8, n_atoms=16, seed=5))
        fw = make_framework("sparklite", executor="threads", workers=2,
                            data_plane="shm")
        run_psa(ensemble, fw, n_tasks=2)
        fw.close()
        assert shm_entries() <= before

    def test_worker_crash_with_nonempty_spill_queue_leaks_nothing(self, tmp_path):
        """A pool worker that dies mid-pipeline — store created, blocks
        enqueued for write-behind, task raises — must leave /dev/shm and
        the spill directory clean (the worker-exit finalizer drains)."""
        before = shm_entries()
        spill_dir = str(tmp_path / "crash-spill")
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match="crashed with a non-empty"):
                pool.submit(_crash_with_pending_spills, spill_dir).result()
        # the pool has joined its workers: finalizers have run
        assert shm_entries() <= before
        leftovers = os.listdir(spill_dir) if os.path.exists(spill_dir) else []
        assert leftovers == []

    def test_store_registers_exit_finalizers(self):
        """cleanup is wired to both atexit and the multiprocessing
        finalizer registry (workers skip atexit), and cleanup cancels
        them again."""
        import multiprocessing.util as mp_util

        store = SharedMemoryStore()
        assert store._finalizer in mp_util._finalizer_registry.values()
        store.cleanup()
        assert store._finalizer not in mp_util._finalizer_registry.values()


def _explode(array):
    raise ValueError("boom")


def _crash_with_pending_spills(spill_dir):
    """Worker-side: build a write-behind store, keep its queue busy, die."""
    rng = np.random.default_rng(0)
    store = SharedMemoryStore(capacity_bytes=0, spill_dir=spill_dir,
                              spill_async=True, spill_queue_depth=1)
    for _ in range(8):
        store.put(rng.random((200, 64)), dedup=False)
    raise ValueError("crashed with a non-empty spill queue")


def _negate(array):
    return -np.asarray(array)


class TestLongLivedLanes:
    """Worker lanes that outlive a call, beside the write-behind spill writer."""

    def test_warm_lanes_beside_spill_writer(self, tmp_path):
        """The lanes fork during the first map, while evictions keep the
        spill writer busy (the ``register_at_fork`` lock guard in shm.py
        must hold), then serve ten more maps that each evict blocks and
        re-read spilled inputs.  Results are copied out on receipt and
        never enter the store, so each map stages one fresh input to
        evict.  No map may hang, every map matches the serial reference,
        and ``close()`` leaves nothing behind."""
        before = shm_entries()
        rng = np.random.default_rng(11)
        inputs = [rng.random((256, 64)) for _ in range(8)]   # 128 KiB each
        spill_dir = tmp_path / "spill"
        store = SharedMemoryStore(capacity_bytes=sum(a.nbytes for a in inputs) // 4,
                                  spill_dir=str(spill_dir), spill_async=True)
        ex = SharedMemoryExecutor(workers=2, store=store)
        watchdog = ThreadPoolExecutor(max_workers=1)
        try:
            # the puts enqueue evictions, so the writer can still be
            # writing when the first map forks the lanes; the maps' puts
            # of these are dedup hits, and only the fresh input evicts
            input_names = {store.put(a).segment for a in inputs}
            for call in range(11):
                spilled_inputs = store.spilled_names() & input_names
                spilled_before = store.bytes_spilled
                batch = inputs + [rng.random((256, 64))]
                results = watchdog.submit(ex.map_tasks, _negate, batch).result(timeout=30)
                for out, item in zip(results, batch):
                    assert np.array_equal(out, _negate(item))
                assert store.bytes_spilled > spilled_before
                if call:
                    assert spilled_inputs, f"map {call} re-read no spilled input"
                del results
        finally:
            watchdog.shutdown(wait=False)
            ex.shutdown()
            store.close()
        leaked = {name for name in shm_entries() - before
                  if name.startswith(("psm_", "rpub-"))}
        assert leaked == set()
        assert os.listdir(spill_dir) == []


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


SPILL_DTYPES = ["<f8", "<f4", "<i8", "<i4", "|u1", "<c16", "|b1", ">f8"]
SPILL_LAYOUTS = ["C", "F", "reversed"]


class TestSpillRoundTrip:
    """Every dtype and memory layout comes back from the disk tier bit for bit."""

    @pytest.mark.parametrize("layout", SPILL_LAYOUTS)
    @pytest.mark.parametrize("dtype", SPILL_DTYPES)
    def test_block_resolves_bit_identical_from_disk(self, dtype, layout, tmp_path):
        rng = np.random.default_rng(5)
        base = (rng.random((6, 4, 3)) * 100).astype(dtype)
        array = {"C": base, "F": np.asfortranarray(base),
                 "reversed": base[::-1]}[layout]
        store = SharedMemoryStore(capacity_bytes=0, spill_dir=str(tmp_path),
                                  spill_async=False)
        try:
            block = store.put(array)
            assert store.spilled_names() == frozenset({block.segment})
            out = block.resolve()
            assert out.dtype == array.dtype
            assert out.shape == array.shape
            assert np.array_equal(out, array)
            assert np.array_equal(block.slice_rows(1, 4).resolve(), array[1:4])
        finally:
            store.cleanup()


def _block_sum(payload):
    return float(np.asarray(payload).sum())


class TestSpilledRefsOnLanes:
    """Spilled inputs dispatched to worker lanes, on deterministic single-lane runs."""

    def spilled_store(self, tmp_path):
        """A store where block A is deterministically on the disk tier."""
        a = np.arange(8192, dtype=np.float64)          # 64 KiB
        b = np.arange(8192, dtype=np.float64) + 1.0
        store = SharedMemoryStore(capacity_bytes=80 * 1024,
                                  spill_dir=str(tmp_path),
                                  spill_async=False)
        ref_a = store.put(a)
        store.put(b)                                   # evicts A (cold, largest)
        assert store.spilled_names() == frozenset({ref_a.segment})
        return store, ref_a, a

    def test_spilled_block_resolves_on_a_lane(self, tmp_path):
        store, ref_a, a = self.spilled_store(tmp_path)
        ex = SharedMemoryExecutor(workers=1, store=store)
        try:
            assert ex.map_tasks(_block_sum, [ref_a] * 4) == [float(a.sum())] * 4
            # the lane outlives the call and keeps reading the spilled block
            assert ex.map_tasks(_block_sum, [ref_a] * 2) == [float(a.sum())] * 2
        finally:
            ex.shutdown()
        store.cleanup()

    def test_dispatch_issues_no_driver_prefetch(self, tmp_path, monkeypatch):
        # the driver sends refs down the lanes as they are: any read-ahead
        # happens in the worker that resolves them, never at dispatch
        store, ref_a, a = self.spilled_store(tmp_path)
        stub = queue.Queue(maxsize=1)
        monkeypatch.setattr(shm_mod, "_prefetch_queue", stub)
        before = prefetch_hints_dropped()
        ex = SharedMemoryExecutor(workers=1, store=store)
        try:
            assert ex.map_tasks(_block_sum, [ref_a] * 3) == [float(a.sum())] * 3
            assert ex.totals().prefetch_hints_dropped == 0
        finally:
            ex.shutdown()
        store.cleanup()
        assert stub.empty()
        assert prefetch_hints_dropped() == before

    def test_rebuilt_lane_serves_a_fresh_process(self):
        lane = _WorkerLane()
        try:
            pid = lane.proc.pid
            lane.rebuild()
            assert lane.proc.pid != pid and lane.proc.is_alive()
            assert not lane.busy
        finally:
            lane.stop()
            lane.join()
