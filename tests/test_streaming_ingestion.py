"""Streaming ingestion suite: chunk files, ingest, and windowed analyses.

Covers the out-of-core layer end to end: the ``.fchunk`` on-disk format
round-trips bit-identically; :meth:`SharedMemoryStore.ingest` dedups
chunk blocks by fingerprint and counts ``bytes_ingested`` /
``peak_resident_bytes``; windowed PSA and streamed leaflet runs merge
per-window results *bit-identically* to their batch counterparts on all
four substrates; and a streamed run whose ensemble is four times the
store watermark completes with a bounded resident peak (the acceptance
criterion).  The fault cases unlink a spilled chunk block mid-run and
require the store to heal it from its registered source file.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.hausdorff import hausdorff_naive, window_minima
from repro.core.api import psa, stream_windows
from repro.core.leaflet import leaflet_serial, run_leaflet_finder
from repro.core.psa import run_psa
from repro.frameworks import make_framework
from repro.frameworks.faults import FaultPolicy, FaultSpec
from repro.frameworks.shm import SharedMemoryStore
from repro.trajectory import (
    BilayerSpec,
    EnsembleSpec,
    FrameChunkReader,
    FrameChunkWriter,
    make_bilayer,
    make_clustered_ensemble,
    open_streaming_ensemble,
    write_frame_chunks,
    write_position_chunks,
)
from repro.trajectory.streaming import ChunkedPositions, ChunkSource

pytestmark = pytest.mark.streaming

FRAMEWORK_NAMES = ("sparklite", "dasklite", "pilot", "mpilite")


def shm_entries():
    """Current /dev/shm segment names (empty set if the dir is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux fallback: nothing to compare
        return set()


@pytest.fixture(scope="module")
def ensemble():
    """A small PSA ensemble shared by the bit-identity tests."""
    return make_clustered_ensemble(
        EnsembleSpec(n_trajectories=5, n_frames=16, n_atoms=24, seed=42))


@pytest.fixture(scope="module")
def arrays(ensemble):
    return [t.as_array() for t in ensemble]


@pytest.fixture()
def chunk_paths(tmp_path, ensemble, arrays):
    """The ensemble written as one ``.fchunk`` file per trajectory."""
    return [
        write_frame_chunks(array, str(tmp_path / f"{traj.name}.fchunk"),
                           frames_per_chunk=4, name=traj.name)
        for traj, array in zip(ensemble, arrays)
    ]


@pytest.fixture(scope="module")
def batch_matrix(ensemble):
    """The batch windowed-Hausdorff matrix every streamed run must match."""
    matrix, _ = psa(ensemble, "dasklite", executor="serial",
                    metric="hausdorff_windowed")
    return matrix.values.copy()


# --------------------------------------------------------------------------- #
# chunk file format
# --------------------------------------------------------------------------- #
class TestChunkFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.random((13, 7, 3))  # uneven: 13 frames, 4 per chunk
        path = str(tmp_path / "traj.fchunk")
        write_frame_chunks(frames, path, frames_per_chunk=4, name="traj")
        reader = FrameChunkReader(path)
        assert reader.n_frames == 13
        assert reader.n_atoms == 7
        assert reader.n_chunks == 4
        assert reader.nbytes == frames.nbytes
        recovered = np.concatenate([reader.read_chunk(i)
                                    for i in range(reader.n_chunks)])
        assert np.array_equal(recovered, frames)

    def test_chunk_ranges_partition_the_file(self, tmp_path):
        frames = np.zeros((10, 2, 3))
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=3)
        reader = FrameChunkReader(path)
        ranges = [reader.chunk_range(i) for i in range(reader.n_chunks)]
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_read_frames_arbitrary_window(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.random((20, 5, 3))
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=6)
        reader = FrameChunkReader(path)
        assert np.array_equal(reader.read_frames(5, 17), frames[5:17])
        assert np.array_equal(reader.read_frames(0, 20), frames)

    def test_incremental_writer_appends(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.random((9, 4, 3))
        path = str(tmp_path / "t.fchunk")
        with FrameChunkWriter(path, n_atoms=4, frames_per_chunk=4) as writer:
            writer.append(frames[:2])
            writer.append(frames[2])      # single frame
            writer.append(frames[3:])
        reader = FrameChunkReader(path)
        assert reader.n_frames == 9
        assert np.array_equal(reader.read_frames(0, 9), frames)

    def test_magic_rejected_on_garbage(self, tmp_path):
        path = tmp_path / "bogus.fchunk"
        path.write_bytes(b"not a chunk file at all")
        with pytest.raises(ValueError, match="magic"):
            FrameChunkReader(str(path))

    def test_chunk_source_fingerprint_is_stable(self, tmp_path):
        frames = np.zeros((4, 2, 3))
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=2)
        a = ChunkSource(path, 0)
        b = ChunkSource(path, 0)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != ChunkSource(path, 1).fingerprint
        assert np.array_equal(a(), frames[:2])


# --------------------------------------------------------------------------- #
# store ingestion
# --------------------------------------------------------------------------- #
class TestIngest:
    def test_ingest_dedups_by_fingerprint(self, tmp_path):
        before = shm_entries()
        rng = np.random.default_rng(3)
        frames = rng.random((8, 6, 3))
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=4)
        store = SharedMemoryStore()
        try:
            src = ChunkSource(path, 0)
            ref1 = store.ingest(src.fingerprint, src)
            ref2 = store.ingest(src.fingerprint, src)
            assert ref1.segment == ref2.segment
            assert store.bytes_ingested == frames[:4].nbytes  # counted once
            assert store.peak_resident_bytes >= frames[:4].nbytes
            assert np.array_equal(ref1.resolve(), frames[:4])
        finally:
            store.cleanup()
        assert shm_entries() == before

    def test_window_refs_slice_zero_copy(self, tmp_path, ensemble, arrays,
                                         chunk_paths):
        streaming = open_streaming_ensemble(chunk_paths)
        store = SharedMemoryStore()
        try:
            member = streaming.members[0]
            refs = member.window_refs(store, 3, 13)  # crosses chunk edges
            window = np.concatenate([r.resolve() for r in refs])
            assert np.array_equal(window, arrays[0][3:13])
        finally:
            store.cleanup()

    def test_spilled_chunk_heals_from_source_file(self, tmp_path):
        rng = np.random.default_rng(4)
        frames = rng.random((16, 8, 3))
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=4)
        chunk_bytes = frames[:4].nbytes
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        store = SharedMemoryStore(capacity_bytes=chunk_bytes * 2,
                                  spill_dir=str(spill_dir), spill_async=False)
        try:
            refs = [store.ingest(ChunkSource(path, i).fingerprint,
                                 ChunkSource(path, i)) for i in range(4)]
            spilled = [r for r in refs
                       if (spill_dir / (r.segment + ".blk")).exists()]
            assert spilled, "two-chunk watermark must have spilled"
            victim = spilled[0]
            os.remove(spill_dir / (victim.segment + ".blk"))
            assert store.recover_spilled_block(victim.segment)
            idx = refs.index(victim)
            assert np.array_equal(victim.resolve(), frames[idx * 4:(idx + 1) * 4])
        finally:
            store.cleanup()

    def test_heal_fails_when_source_file_is_gone(self, tmp_path):
        frames = np.arange(4 * 2 * 3, dtype=float).reshape(4, 2, 3)
        path = write_frame_chunks(frames, str(tmp_path / "t.fchunk"),
                                  frames_per_chunk=2)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        store = SharedMemoryStore(capacity_bytes=frames[:2].nbytes,
                                  spill_dir=str(spill_dir), spill_async=False)
        try:
            refs = [store.ingest(ChunkSource(path, i).fingerprint,
                                 ChunkSource(path, i)) for i in range(2)]
            spilled = [r for r in refs
                       if (spill_dir / (r.segment + ".blk")).exists()]
            assert spilled
            os.remove(spill_dir / (spilled[0].segment + ".blk"))
            os.remove(path)  # the source is gone too: nothing left to heal from
            assert not store.recover_spilled_block(spilled[0].segment)
        finally:
            store.cleanup()


# --------------------------------------------------------------------------- #
# windowed kernel
# --------------------------------------------------------------------------- #
class TestWindowedKernel:
    def test_window_minima_partition_independent(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((11, 6, 3)), rng.random((9, 6, 3))
        whole_r, whole_c = window_minima(a, b)
        # merge per-window minima over a 3-way split of a and 2-way of b
        row = np.full(11, np.inf)
        col = np.full(9, np.inf)
        for alo, ahi in ((0, 4), (4, 8), (8, 11)):
            for blo, bhi in ((0, 5), (5, 9)):
                r, c = window_minima(a[alo:ahi], b[blo:bhi])
                row[alo:ahi] = np.minimum(row[alo:ahi], r)
                col[blo:bhi] = np.minimum(col[blo:bhi], c)
        assert np.array_equal(row, whole_r)
        assert np.array_equal(col, whole_c)

    def test_windowed_hausdorff_matches_naive(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((10, 8, 3)), rng.random((12, 8, 3))
        row, col = window_minima(a, b)
        n_atoms = a.shape[1]
        value = float(np.sqrt(max(row.max(), col.max()) / n_atoms))
        assert value == hausdorff_naive(a, b)


# --------------------------------------------------------------------------- #
# windowed PSA: streamed == batch, bit for bit
# --------------------------------------------------------------------------- #
class TestWindowedPSA:
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_streamed_matches_batch_all_substrates(self, name, chunk_paths,
                                                   batch_matrix):
        before = shm_entries()
        streaming = open_streaming_ensemble(chunk_paths)
        fw = make_framework(name, executor="threads", workers=2,
                            data_plane="shm")
        try:
            matrix, report = run_psa(streaming, fw, metric="hausdorff_windowed",
                                     window_frames=4, n_tasks=4)
        finally:
            fw.close()
        assert np.array_equal(matrix.values, batch_matrix)
        assert report.metrics.bytes_ingested == streaming.nbytes
        assert shm_entries() == before

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_in_memory_windows_match_batch(self, name, ensemble, batch_matrix):
        fw = make_framework(name, executor="threads", workers=2)
        try:
            matrix, _ = run_psa(ensemble, fw, metric="hausdorff_windowed",
                               window_frames=5)
        finally:
            fw.close()
        assert np.array_equal(matrix.values, batch_matrix)

    def test_psa_window_argument(self, ensemble, arrays, chunk_paths):
        start, stop = 3, 13
        matrix, _ = psa(ensemble, "dasklite", executor="serial",
                        metric="hausdorff_windowed", window=(start, stop))
        n = len(arrays)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                row, col = window_minima(arrays[i][start:stop],
                                         arrays[j][start:stop])
                expected[i, j] = expected[j, i] = float(
                    np.sqrt(max(row.max(), col.max()) / arrays[i].shape[1]))
        assert np.array_equal(matrix.values, expected)
        # the same window over the streamed ensemble gives the same matrix
        streaming = open_streaming_ensemble(chunk_paths)
        streamed, _ = psa(streaming, "dasklite", executor="serial",
                          metric="hausdorff_windowed", window=(start, stop),
                          data_plane="shm")
        assert np.array_equal(streamed.values, expected)

    def test_out_of_core_acceptance(self, chunk_paths, batch_matrix):
        """Ensemble 4x the watermark: bounded peak, bit-identical matrix."""
        streaming = open_streaming_ensemble(chunk_paths)
        total = streaming.nbytes
        matrix, report = stream_windows(streaming, "dasklite", workers=2,
                                        store_capacity_bytes=total // 4)
        assert np.array_equal(matrix.values, batch_matrix)
        assert report.metrics.bytes_ingested == total
        assert 0 < report.metrics.peak_resident_bytes < total
        assert report.metrics.bytes_spilled > 0

    @pytest.mark.parametrize("bad, error", [
        ({"window": (-3, 12)}, IndexError),
        ({"window": (0, 99)}, IndexError),
        ({"window": (7, 7)}, IndexError),
        ({"window_frames": -1}, ValueError),
        ({"window_frames": 0}, ValueError),
    ])
    @pytest.mark.parametrize("source", ["memory", "streaming"])
    def test_bad_windows_rejected_on_every_input(self, source, bad, error,
                                                 ensemble, chunk_paths):
        """In-memory and streamed input agree on which windows are legal."""
        data = ensemble if source == "memory" else open_streaming_ensemble(chunk_paths)
        fw = make_framework("dasklite", executor="serial")
        try:
            with pytest.raises(error):
                run_psa(data, fw, metric="hausdorff_windowed", **bad)
        finally:
            fw.close()

    def test_rejects_non_decomposable_metric(self, ensemble):
        fw = make_framework("dasklite", executor="serial")
        try:
            with pytest.raises(ValueError, match="hausdorff_windowed"):
                run_psa(ensemble, fw, metric="frechet", window_frames=4)
        finally:
            fw.close()


# --------------------------------------------------------------------------- #
# streamed leaflet
# --------------------------------------------------------------------------- #
class TestStreamedLeaflet:
    @pytest.mark.parametrize("approach", ["task-2d", "parallel-cc", "tree-search"])
    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_streamed_components_match_serial(self, name, approach, tmp_path):
        positions, _ = make_bilayer(BilayerSpec(n_atoms=400, seed=9))
        path = write_position_chunks(positions,
                                     str(tmp_path / "bilayer.fchunk"),
                                     atoms_per_chunk=120)
        reference = leaflet_serial(positions, 15.0)
        chunked = ChunkedPositions(path)
        fw = make_framework(name, executor="threads", workers=2,
                            data_plane="shm")
        try:
            result, report = run_leaflet_finder(chunked, 15.0, fw, approach=approach)
        finally:
            fw.close()
        canon = sorted(tuple(sorted(c)) for c in result.components)
        expected = sorted(tuple(sorted(c)) for c in reference.components)
        assert canon == expected
        assert report.metrics.bytes_ingested == positions.nbytes
        assert report.algorithm == f"leaflet_finder[{approach}]"
        assert report.parameters["n_waves"] == report.parameters["n_chunks"] == 4
        assert report.n_tasks == report.parameters["n_blocks"] == 10
        phases = [v for k, v in report.parameters.items() if k.startswith("phase_")]
        assert sum(phases) <= report.wall_time_s

    def test_stream_windows_leaflet_dispatch(self, tmp_path):
        positions, _ = make_bilayer(BilayerSpec(n_atoms=300, seed=10))
        path = write_position_chunks(positions,
                                     str(tmp_path / "bilayer.fchunk"),
                                     atoms_per_chunk=100)
        reference = leaflet_serial(positions, 15.0)
        result, _ = stream_windows(ChunkedPositions(path), "dasklite",
                                   analysis="leaflet", workers=2)
        canon = sorted(tuple(sorted(c)) for c in result.components)
        expected = sorted(tuple(sorted(c)) for c in reference.components)
        assert canon == expected

    @pytest.mark.parametrize("bad", [{"approach": "broadcast-1d"},
                                     {"approach": "parallel-cc", "n_tasks": 10}])
    def test_chunk_file_rejects_broadcast_and_task_count(self, bad, tmp_path):
        positions, _ = make_bilayer(BilayerSpec(n_atoms=200, seed=9))
        path = write_position_chunks(positions, str(tmp_path / "bilayer.fchunk"),
                                     atoms_per_chunk=100)
        fw = make_framework("dasklite", executor="serial")
        try:
            with pytest.raises(ValueError):
                run_leaflet_finder(ChunkedPositions(path), 15.0, fw, **bad)
        finally:
            fw.close()

    @pytest.mark.parametrize("plane", ["pickle", "shm"])
    def test_streamed_report_counts_match_batch(self, plane, tmp_path):
        """Four 100-atom chunks make the same 10 blocks as a 10-task batch
        run: the shuffle volume agrees, and a run replayed whole from its
        journal still counts every task."""
        positions, _ = make_bilayer(BilayerSpec(n_atoms=400, seed=9))
        path = write_position_chunks(positions, str(tmp_path / "bilayer.fchunk"),
                                     atoms_per_chunk=100)
        fw = make_framework("dasklite", executor="threads", workers=2, data_plane=plane)
        ckpt = str(tmp_path / "journal")
        try:
            _, batch = run_leaflet_finder(positions, 15.0, fw, approach="parallel-cc",
                                          n_tasks=10)
            _, streamed = run_leaflet_finder(ChunkedPositions(path), 15.0, fw,
                                             approach="parallel-cc", checkpoint_dir=ckpt)
            _, resumed = run_leaflet_finder(ChunkedPositions(path), 15.0, fw,
                                            approach="parallel-cc", checkpoint_dir=ckpt)
        finally:
            fw.close()
        assert batch.n_tasks == 10
        assert streamed.metrics.bytes_shuffled == batch.metrics.bytes_shuffled > 0
        metrics = resumed.metrics
        assert metrics.tasks_restored == 10
        assert resumed.n_tasks == metrics.tasks_restored + metrics.tasks_submitted == 10
        assert resumed.metrics.bytes_shuffled == batch.metrics.bytes_shuffled


# --------------------------------------------------------------------------- #
# chaos: faults mid-ingest
# --------------------------------------------------------------------------- #
@pytest.mark.faults
class TestStreamingFaults:
    def test_unlinked_chunk_block_heals_from_file(self, chunk_paths,
                                                  batch_matrix, tmp_path):
        """A spilled chunk block unlinked mid-run heals from its source."""
        before = shm_entries()
        streaming = open_streaming_ensemble(chunk_paths)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        # at_task=20 lands in wave 2, where the one-window watermark has
        # already spilled the window-0 chunk blocks that the wave's
        # cross-window pairs still need — the unlinked victim is an
        # input chunk, so the heal must come from its source file
        matrix, report = stream_windows(
            streaming, "dasklite", executor="serial",
            store_capacity_bytes=streaming.nbytes // 4,
            spill_dir=str(spill_dir),
            fault_policy=FaultPolicy(),
            faults=FaultSpec("unlink_block", at_task=20))
        assert np.array_equal(matrix.values, batch_matrix)
        assert report.metrics.tasks_retried >= 1
        assert shm_entries() == before
        assert os.listdir(spill_dir) == []

    def test_worker_killed_mid_ingest_run_completes(self, chunk_paths,
                                                    batch_matrix):
        """Kill a worker mid-wave: retries finish the run bit-identically."""
        before = shm_entries()
        streaming = open_streaming_ensemble(chunk_paths)
        matrix, report = stream_windows(
            streaming, "dasklite", workers=2,
            fault_policy=FaultPolicy(),
            faults=FaultSpec("kill_worker", at_task=2))
        assert np.array_equal(matrix.values, batch_matrix)
        assert report.metrics.tasks_retried >= 1
        assert report.metrics.tasks_lost >= 1
        assert shm_entries() == before
