"""Analytical cost of the numerical kernels.

The scaling model needs per-kernel time estimates as a function of problem
size: the 2D-RMSD matrix of a trajectory pair (PSA's inner loop), a
``cdist`` block, a BallTree build/query, and a connected-components pass.
Each is parameterized by a throughput constant expressed in *element
operations per second on one reference core*; the defaults are
representative of NumPy/SciPy on a Haswell core, and
:func:`repro.perfmodel.calibration.calibrate_kernels` can re-measure them
on the local machine (from sampled distribution medians) so that modeled
and measured laptop-scale numbers line up.

The rates are engine-aware: the reference-engine fields
(``union_find_ops``, ``tree_query_points``) describe the paper-era
per-element Python loops while the vectorized-engine fields
(``cc_label_ops``, ``tree_batch_candidates``) describe the kernel
engine's whole-array passes.
:func:`repro.perfmodel.calibration.engine_preset` returns a preset with
the vectorized fields recalibrated from the distribution medians
committed in ``BENCH_kernels.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["KernelRates", "DEFAULT_RATES", "KernelCosts"]


@dataclass(frozen=True)
class KernelRates:
    """Throughput constants (element operations per second per core).

    ``union_find_ops`` describes the reference (per-edge Python)
    connected-components loop the paper's measurements reflect, and
    ``tree_query_points`` the regime where queries are issued one at a
    time (per-query call overhead dominates, as in the paper-era tree
    search); ``cc_label_ops`` and ``tree_batch_candidates`` describe the
    vectorized kernel engine, whose per-element throughput is one to two
    orders of magnitude higher because the work runs as whole-array
    NumPy passes.
    """

    #: fused multiply-adds per second achieved by the GEMM inside rmsd_matrix
    gemm_flops: float = 4.0e9
    #: element distance evaluations per second achieved by scipy cdist
    cdist_evals: float = 2.0e8
    #: point insertions per second for BallTree construction
    tree_build_points: float = 6.0e5
    #: neighbor candidates examined per second when radius queries are
    #: issued one query per call (the paper-era per-query regime)
    tree_query_points: float = 4.0e5
    #: union-find operations per second for reference connected components
    union_find_ops: float = 2.0e6
    #: label updates per second for the vectorized connected components
    #: (min-label propagation over the whole edge array)
    cc_label_ops: float = 4.0e7
    #: neighbor candidates filtered per second by one batched query
    #: through the compiled tree of the vectorized kernel engine
    tree_batch_candidates: float = 2.0e7
    #: trajectory file read bandwidth (bytes/s) from the parallel filesystem
    io_bandwidth: float = 5.0e8
    #: spill-file write bandwidth (bytes/s) to node-local storage — the
    #: denominator of the data plane's spill-to-disk cost
    spill_bandwidth: float = 1.0e9

    def scaled(self, factor: float) -> "KernelRates":
        """All rates multiplied by ``factor`` (e.g. a faster/slower core)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            gemm_flops=self.gemm_flops * factor,
            cdist_evals=self.cdist_evals * factor,
            tree_build_points=self.tree_build_points * factor,
            tree_query_points=self.tree_query_points * factor,
            union_find_ops=self.union_find_ops * factor,
            cc_label_ops=self.cc_label_ops * factor,
            tree_batch_candidates=self.tree_batch_candidates * factor,
        )


DEFAULT_RATES = KernelRates()


class KernelCosts:
    """Kernel time estimates on one core, given a set of rates."""

    def __init__(self, rates: KernelRates = DEFAULT_RATES) -> None:
        self.rates = rates

    # ------------------------------------------------------------------ #
    def hausdorff_pair(self, n_frames: int, n_atoms: int) -> float:
        """One Hausdorff distance between two trajectories.

        Dominated by the 2D-RMSD GEMM: ``n_frames^2 x 3 n_atoms``
        multiply-adds, plus the min/max reductions (negligible).
        """
        if n_frames < 1 or n_atoms < 1:
            raise ValueError("n_frames and n_atoms must be positive")
        flops = 2.0 * (n_frames ** 2) * (3.0 * n_atoms)
        return flops / self.rates.gemm_flops

    def rmsd_2d_pair(self, n_frames: int, n_atoms: int) -> float:
        """One full 2D-RMSD matrix between two trajectories (CPPTraj kernel)."""
        return self.hausdorff_pair(n_frames, n_atoms)

    def hausdorff_earlybreak_pair(self, n_frames: int, n_atoms: int,
                                  visit_fraction: float = 0.25) -> float:
        """One blockwise early-break Hausdorff distance.

        The early-break kernel evaluates only a fraction of the 2D-RMSD
        matrix before every row is retired; ``visit_fraction`` is that
        fraction (Taha & Hanbury report ~0.1-0.4 depending on structure,
        and :mod:`repro.perfmodel.calibration` measures it locally).
        """
        if not 0.0 < visit_fraction <= 1.0:
            raise ValueError("visit_fraction must be in (0, 1]")
        return visit_fraction * self.hausdorff_pair(n_frames, n_atoms)

    def trajectory_read(self, n_frames: int, n_atoms: int) -> float:
        """Reading one trajectory from the filesystem (float32 on disk)."""
        nbytes = n_frames * n_atoms * 3 * 4
        return nbytes / self.rates.io_bandwidth

    def spill_write(self, nbytes: int, spill_async: bool = True,
                    hidden_fraction: float = 0.9) -> float:
        """Critical-path cost of spilling ``nbytes`` to the disk tier.

        A synchronous spill stalls the putting thread for the whole file
        write (``nbytes / spill_bandwidth``).  The write-behind pipeline
        moves the write onto a background thread; only the fraction the
        writer cannot hide — enqueue overhead plus backpressure when
        eviction outruns the disk — stays on the critical path.

        Parameters
        ----------
        nbytes : int
            Bytes evicted to the disk tier.
        spill_async : bool, optional
            Model the write-behind pipeline (default) or the
            synchronous in-line write.
        hidden_fraction : float, optional
            Fraction of the write the background thread overlaps with
            useful work, in ``[0, 1]``.  The default 0.9 reflects a
            compute-bound workload whose spill queue rarely fills;
            workloads that evict faster than the disk drains push it
            toward 0 (pure backpressure = a synchronous write).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not 0.0 <= hidden_fraction <= 1.0:
            raise ValueError("hidden_fraction must be in [0, 1]")
        full = nbytes / self.rates.spill_bandwidth
        if not spill_async:
            return full
        return (1.0 - hidden_fraction) * full

    def retry_overhead(self, task_seconds: float, retries: int = 1,
                       backoff_s: float = 0.0, backoff_factor: float = 2.0,
                       redispatch_s: float = 0.0) -> float:
        """Critical-path cost of re-executing a task ``retries`` times.

        Task-granular recovery (the resilience layer of
        :mod:`repro.frameworks.faults`) pays, per retry, the task's own
        runtime again, the framework's redispatch latency, and any
        deterministic backoff (``backoff_s * backoff_factor**n`` before
        the n-th retry) — but never the rest of the run, which is
        the point of task-level replay over job-level restart.  The
        experiments subtract this from a faulty run's wall time to check
        the measured ``recovery_seconds`` against the model.

        Parameters
        ----------
        task_seconds : float
            Runtime of one attempt of the task.
        retries : int, optional
            Number of re-executions (default 1: one fault, one replay).
        backoff_s : float, optional
            First retry's backoff pause (default 0: the local
            substrates re-execute without pausing).
        backoff_factor : float, optional
            Multiplier between successive backoffs.
        redispatch_s : float, optional
            Per-retry scheduling cost (e.g. a framework's
            ``task_overhead_s``, or the pool-rebuild time for a worker
            death).
        """
        if task_seconds < 0 or retries < 0 or backoff_s < 0 or redispatch_s < 0:
            raise ValueError("retry_overhead arguments must be non-negative")
        backoff_total = sum(backoff_s * backoff_factor ** n for n in range(retries))
        return retries * (task_seconds + redispatch_s) + backoff_total

    def restore_cost(self, nbytes: int, n_entries: int = 1,
                     verify_s_per_entry: float = 1.0e-4) -> float:
        """Replaying ``n_entries`` journalled task results from disk.

        Checkpoint/restart (:mod:`repro.frameworks.checkpoint`) turns a
        driver crash into a journal replay instead of a full recompute:
        the resumed run reads the entry blocks back at the spill tier's
        bandwidth and pays a small per-entry cost for the sidecar parse
        and checksum verification.  A resume is profitable whenever this
        is smaller than re-executing the journalled tasks — the
        ``resume cost < 0.5 x recompute`` gate the recovery benchmark
        enforces.

        Parameters
        ----------
        nbytes : int
            Total bytes of journalled result blocks replayed.
        n_entries : int, optional
            Number of journal entries (one per completed task).
        verify_s_per_entry : float, optional
            Per-entry sidecar parse + checksum cost.
        """
        if nbytes < 0 or n_entries < 0 or verify_s_per_entry < 0:
            raise ValueError("restore_cost arguments must be non-negative")
        return nbytes / self.rates.spill_bandwidth + n_entries * verify_s_per_entry

    def speculation_overhead(self, task_seconds: float,
                             straggler_seconds: float,
                             speculation_factor: float = 3.0,
                             redispatch_s: float = 0.0) -> float:
        """Critical-path cost of a straggler with speculative re-execution.

        Without speculation a straggling task holds the run open for its
        full ``straggler_seconds``.  With speculation the engine waits
        ``speculation_factor x median(task duration)`` before launching a
        duplicate attempt on a free worker; the straggler's tail is then
        bounded by that threshold plus one normal execution (the
        duplicate), never by the straggler itself.  Returns the modeled
        completion time of the straggling task, i.e.
        ``min(straggler, threshold + redispatch + task)``.

        Parameters
        ----------
        task_seconds : float
            Median runtime of a healthy attempt.
        straggler_seconds : float
            Runtime the straggling attempt would need.
        speculation_factor : float, optional
            The policy's duplicate-launch threshold multiplier.
        redispatch_s : float, optional
            Scheduling cost of submitting the duplicate.
        """
        if task_seconds < 0 or straggler_seconds < 0 or redispatch_s < 0:
            raise ValueError("speculation_overhead arguments must be non-negative")
        if speculation_factor <= 0:
            raise ValueError("speculation_factor must be positive")
        duplicate_path = speculation_factor * task_seconds + redispatch_s + task_seconds
        return min(straggler_seconds, duplicate_path)

    # ------------------------------------------------------------------ #
    def cdist_block(self, n_rows: int, n_cols: int) -> float:
        """A dense pairwise-distance block (Leaflet Finder approaches 1-3)."""
        if n_rows < 0 or n_cols < 0:
            raise ValueError("block dimensions must be non-negative")
        return (n_rows * n_cols) / self.rates.cdist_evals

    def tree_block(self, n_rows: int, n_cols: int) -> float:
        """Tree build over ``n_cols`` points plus ``n_rows`` radius queries."""
        if n_rows < 0 or n_cols < 0:
            raise ValueError("block dimensions must be non-negative")
        log_cols = max(1.0, np.log2(max(n_cols, 2)))
        build = n_cols / self.rates.tree_build_points
        query = n_rows * log_cols / self.rates.tree_query_points
        return build + query

    def connected_components(self, n_nodes: int, n_edges: int,
                             method: str = "reference") -> float:
        """Connected components over ``n_edges`` edges (plus node init).

        ``method="reference"`` models the per-edge union-find loop (what
        the paper's Python measurements reflect, and the default so the
        modeled figures keep the published shapes);
        ``method="vectorized"`` models the array-native min-label
        propagation, whose per-element rate is ``cc_label_ops`` but which
        takes O(log n) passes over the edge array.
        """
        if n_nodes < 0 or n_edges < 0:
            raise ValueError("n_nodes and n_edges must be non-negative")
        if method == "reference":
            return (n_nodes + n_edges) / self.rates.union_find_ops
        if method == "vectorized":
            passes = max(1.0, np.log2(max(n_nodes, 2)) / 2.0)
            return (n_nodes + n_edges) * passes / self.rates.cc_label_ops
        raise ValueError(f"unknown connected-components cost method {method!r}")

    def tree_block_batched(self, n_rows: int, n_cols: int) -> float:
        """Tree build plus one batched radius query on a block."""
        if n_rows < 0 or n_cols < 0:
            raise ValueError("block dimensions must be non-negative")
        log_cols = max(1.0, np.log2(max(n_cols, 2)))
        build = n_cols / self.rates.tree_build_points
        query = n_rows * log_cols / self.rates.tree_batch_candidates
        return build + query

    def partial_component_merge(self, n_memberships: int) -> float:
        """Merging partial components with ``n_memberships`` (atom, comp) pairs."""
        if n_memberships < 0:
            raise ValueError("n_memberships must be non-negative")
        return n_memberships / self.rates.union_find_ops
