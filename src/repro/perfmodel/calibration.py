"""Local calibration of the kernel rates, from distribution medians.

The defaults in :data:`repro.perfmodel.kernels.DEFAULT_RATES` describe a
Haswell core of the paper's testbeds.  When comparing modeled curves with
live laptop-scale measurements it helps to calibrate the rates on the
machine actually running the benchmarks; :func:`calibrate_kernels` does
that with a handful of sub-second micro-benchmarks of exactly the kernels
the algorithms use.

All calibration timings flow through :class:`repro.bench.Sampler`: each
micro-benchmark is sampled repeatedly after an explicit warmup, the
calibrated timer/dispatch overhead is subtracted, and the rate is
derived from the **median** of the distribution — never from a
single run or a best-of-N minimum, both of which a single scheduler
hiccup (or an unusually quiet machine) can bias.

:func:`rates_from_bench_record` goes one step further and recalibrates
the engine-split rates from the distribution medians persisted in
``BENCH_kernels.json``, so the perf model's vectorized-engine presets
track exactly what the benchmark harness measured;
:func:`engine_preset` is the convenience lookup used by modeled
figures.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np
from scipy.spatial.distance import cdist

from ..analysis import reference
from ..analysis.neighbors import BallTree
from ..analysis.rmsd import rmsd_matrix
from ..analysis.graph import connected_components
from ..bench import Distribution, Sampler
from .kernels import DEFAULT_RATES, KernelRates

__all__ = [
    "CalibrationResult",
    "calibrate_kernels",
    "rates_from_bench_record",
    "engine_preset",
    "BENCH_RECORD_PATH",
]

#: the committed kernel-benchmark distribution record at the repo root
BENCH_RECORD_PATH = Path(__file__).resolve().parents[3] / "BENCH_kernels.json"


@dataclass(frozen=True)
class CalibrationResult:
    """Measured rates plus the micro-benchmark evidence that produced them.

    Attributes
    ----------
    rates : KernelRates
        The calibrated rates (medians of the sampled distributions).
    timings : dict of str to float
        Median seconds per micro-benchmark (the numbers the rates were
        derived from).
    distributions : dict of str to Distribution
        The full sample distributions behind each timing, so the
        calibration's own noise level is inspectable (e.g. a rate whose
        distribution has MAD comparable to its median should not be
        trusted to a single digit).
    """

    rates: KernelRates
    timings: dict
    distributions: Dict[str, Distribution] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable one-line-per-kernel summary (median ± MAD)."""
        lines = []
        for key, value in self.timings.items():
            dist = self.distributions.get(key)
            if dist is not None:
                lines.append(f"{key}: {value * 1e3:.2f} ms "
                             f"± {dist.mad * 1e3:.2f} ms MAD (n={dist.n})")
            else:
                lines.append(f"{key}: {value * 1e3:.2f} ms")
        return "\n".join(lines)


def calibrate_kernels(*, n_frames: int = 64, n_atoms: int = 512,
                      n_points: int = 2000, seed: int = 0,
                      repeats: int = 3) -> CalibrationResult:
    """Measure the local machine's kernel rates from sampled medians.

    The sizes are chosen so the whole calibration takes well under a
    second; rates are extrapolated from the measured per-element
    throughput, which is size-independent to first order for these
    kernels.

    Parameters
    ----------
    n_frames, n_atoms, n_points : int, optional
        Micro-benchmark workload sizes.
    seed : int, optional
        Workload RNG seed.
    repeats : int, optional
        Samples per micro-benchmark (one extra warmup run is always
        taken and excluded); the derived rate uses the median.

    Returns
    -------
    CalibrationResult
        Rates, their median timings, and the full distributions.
    """
    rng = np.random.default_rng(seed)
    traj_a = rng.normal(size=(n_frames, n_atoms, 3))
    traj_b = rng.normal(size=(n_frames, n_atoms, 3))
    points = rng.uniform(0.0, 100.0, size=(n_points, 3))
    edges = rng.integers(0, n_points, size=(4 * n_points, 2))

    sampler = Sampler(n_samples=max(1, repeats), warmup=1)
    timings: dict = {}
    distributions: Dict[str, Distribution] = {}

    def measure(key: str, fn) -> float:
        dist = sampler.sample(fn, label=key)
        distributions[key] = dist
        # floor at the calibrated overhead scale so a kernel faster
        # than the timer cannot yield an infinite rate
        timings[key] = max(dist.median, 1e-9)
        return timings[key]

    t = measure("rmsd_matrix", lambda: rmsd_matrix(traj_a, traj_b))
    gemm_flops = 2.0 * (n_frames ** 2) * (3.0 * n_atoms) / t

    t = measure("cdist", lambda: cdist(points, points))
    cdist_evals = (n_points ** 2) / t

    t = measure("balltree_build", lambda: BallTree(points, leaf_size=32))
    tree_build = n_points / t

    tree = BallTree(points, leaf_size=32)
    queries = points[: max(1, n_points // 10)]
    # one query per call: measures the per-query regime tree_query_points
    # models (per-call overhead dominated, like the paper-era tree search)
    t = measure("balltree_query_per_query",
                lambda: [tree.query_radius(q, 5.0) for q in queries])
    tree_query = queries.shape[0] * np.log2(n_points) / t

    # one batched query through the compiled tree (the vectorized engine rate)
    t = measure("balltree_query_batched",
                lambda: tree.query_radius_pairs(queries, 5.0))
    tree_batch = queries.shape[0] * np.log2(n_points) / t

    t = measure("connected_components_reference",
                lambda: reference.connected_components(edges, n_points))
    uf_ops = (n_points + edges.shape[0]) / t

    t = measure("connected_components_vectorized",
                lambda: connected_components(edges, n_points))
    passes = max(1.0, np.log2(max(n_points, 2)) / 2.0)
    cc_label = (n_points + edges.shape[0]) * passes / t

    # spill-file write bandwidth: what one synchronous eviction of a
    # ~4 MB block costs on this machine's local storage (the async
    # pipeline hides most of it, but the model needs the denominator)
    block = rng.normal(size=(4 * 1024 * 1024 // 8,))
    with tempfile.TemporaryDirectory(prefix="repro-calib-spill-") as tmpdir:
        path = os.path.join(tmpdir, "calib.blk")

        def _write() -> None:
            with open(path, "wb") as fh:
                fh.write(block.data)

        t = measure("spill_write", _write)
    spill_bw = block.nbytes / t

    rates = KernelRates(
        gemm_flops=gemm_flops,
        cdist_evals=cdist_evals,
        tree_build_points=tree_build,
        tree_query_points=tree_query,
        union_find_ops=uf_ops,
        cc_label_ops=cc_label,
        tree_batch_candidates=tree_batch,
        io_bandwidth=DEFAULT_RATES.io_bandwidth,
        spill_bandwidth=spill_bw,
    )
    return CalibrationResult(rates=rates, timings=timings,
                             distributions=distributions)


# ---------------------------------------------------------------------- #
def _row_by_kernel(record: dict) -> Dict[str, dict]:
    return {row.get("kernel"): row for row in record.get("rows", [])}


def rates_from_bench_record(record: Union[dict, str, Path, None] = None,
                            rates: KernelRates = DEFAULT_RATES) -> KernelRates:
    """Recalibrate the engine-split rates from a BENCH_kernels.json record.

    The benchmark harness persists full reference-vs-vectorized
    distributions per kernel; this derives the vectorized-engine rates
    (``cc_label_ops``, ``tree_batch_candidates``) from the **speedup
    medians** of that record so the modeled engine gap tracks the
    measured one:

    * ``cc_label_ops`` — the model's vectorized components time is
      ``(n+e) * passes / cc_label_ops`` against the reference's
      ``(n+e) / union_find_ops``, so a measured median speedup ``s`` on
      an ``n``-node workload gives
      ``cc_label_ops = s * passes(n) * union_find_ops``.
    * ``tree_batch_candidates`` — the balltree row measures the batched
      engine against the dense scan, which the model prices as
      ``n^2 / cdist_evals``; dividing by the measured speedup and
      removing the build term leaves the batched query time to solve
      for the candidate rate.

    Derived rates are sanity-clamped: a vectorized rate never falls
    below its reference counterpart (the ordering invariants of
    :class:`~repro.perfmodel.kernels.KernelCosts` must survive any
    record), and kernels missing from the record keep their incoming
    values.

    Parameters
    ----------
    record : dict, str, Path, or None, optional
        A parsed record, a path to one, or ``None`` for the committed
        :data:`BENCH_RECORD_PATH` (missing file → ``rates`` unchanged).
    rates : KernelRates, optional
        The base (reference-engine) rates to recalibrate.

    Returns
    -------
    KernelRates
        ``rates`` with the vectorized-engine fields recalibrated.
    """
    if record is None:
        if not BENCH_RECORD_PATH.exists():
            return rates
        record = BENCH_RECORD_PATH
    if isinstance(record, (str, Path)):
        record = json.loads(Path(record).read_text())
    rows = _row_by_kernel(record)
    updates = {}

    cc = rows.get("connected_components")
    if cc and cc.get("speedup_median", 0.0) > 0.0:
        n_nodes = 30_000                        # the record's fixed workload
        workload = cc.get("workload", "")
        if "n=" in workload:
            try:
                n_nodes = int(workload.split("n=")[1].split()[0])
            except ValueError:
                pass
        passes = max(1.0, np.log2(max(n_nodes, 2)) / 2.0)
        derived = cc["speedup_median"] * passes * rates.union_find_ops
        updates["cc_label_ops"] = max(derived, rates.union_find_ops)

    tree = rows.get("radius_edges[balltree]")
    if tree and tree.get("speedup_median", 0.0) > 0.0:
        n = 20_000                              # the record's fixed workload
        workload = tree.get("workload", "")
        if "n=" in workload:
            try:
                n = int(workload.split("n=")[1].split()[0])
            except ValueError:
                pass
        log_n = max(1.0, np.log2(max(n, 2)))
        dense_s = (n * n) / rates.cdist_evals
        batched_s = dense_s / tree["speedup_median"]
        query_s = batched_s - n / rates.tree_build_points
        if query_s > 0.0:
            derived = n * log_n / query_s
            updates["tree_batch_candidates"] = max(derived,
                                                   rates.tree_query_points)

    if not updates:
        return rates
    from dataclasses import replace
    return replace(rates, **updates)


def engine_preset(engine: str = "reference",
                  rates: KernelRates = DEFAULT_RATES) -> KernelRates:
    """Engine-aware kernel-rate preset.

    Parameters
    ----------
    engine : str, optional
        ``"reference"`` returns ``rates`` unchanged (the paper-era
        Haswell preset models the reference engine);
        ``"vectorized"`` returns ``rates`` with the engine-split
        fields recalibrated from the committed benchmark distribution
        medians (see :func:`rates_from_bench_record`).
    rates : KernelRates, optional
        The base preset.

    Returns
    -------
    KernelRates
    """
    if engine == "reference":
        return rates
    if engine == "vectorized":
        return rates_from_bench_record(None, rates=rates)
    raise ValueError(f"unknown engine {engine!r}")
