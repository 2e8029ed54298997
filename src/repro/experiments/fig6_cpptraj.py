"""Figure 6 — 2D-RMSD with the compiled comparator (CPPTraj).

Paper setup: CPPTraj's MPI/OpenMP 2D-RMSD (Algorithm 1 without the
min-max reduction) on 128 small trajectories, 1-240 cores of 20-core
Haswell nodes, compiled with GNU (no optimization) and Intel ``-O3``.
Published findings: the compiled implementation has much lower absolute
runtimes than the Python frameworks, scales close to linearly to ~100
cores and then saturates; the Intel build is roughly 2x faster than the
GNU build.

Substitution (see DESIGN.md): CPPTraj itself is C++ and not
redistributable here, so the "compiled" comparator is our fully
vectorized NumPy 2D-RMSD kernel (one GEMM per trajectory pair) run
through the same sweep, with the naive per-frame Python loop standing in
for the unoptimized build.  This preserves exactly the contrast the
figure makes: optimized compiled-style kernel vs interpreter-bound loop.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..analysis import reference
from ..analysis.hausdorff import hausdorff_earlybreak
from ..analysis.rmsd import pairwise_rmsd_loop, rmsd_matrix
from ..bench import Sampler
from ..perfmodel.scaling import cpptraj_sweep
from ..trajectory.generators import paper_psa_ensemble
from .common import print_rows, standard_argparser

__all__ = ["modeled_rows", "measured_rows", "main"]


def modeled_rows(core_counts: Sequence[int] = (1, 20, 40, 80, 120, 160, 200, 240)) -> List[dict]:
    """Paper-scale modeled series: GNU vs Intel builds over core counts."""
    return [p.as_dict() for p in cpptraj_sweep(core_counts=core_counts)]


def measured_rows(n_pairs: int = 6, n_frames: int = 40, scale: float = 0.02,
                  samples: int = 3) -> List[dict]:
    """Laptop-scale measurement of the optimized vs naive 2D-RMSD kernels.

    Every row carries an explicit ``kernel_engine`` column (vectorized vs
    the Python reference), and the 2D-RMSD contrast is followed by the
    same contrast for the early-break Hausdorff: the blockwise kernel vs
    the literal Taha & Hanbury scan
    (:func:`repro.analysis.reference.hausdorff_earlybreak`) on identical
    pairs.

    Each cell is sampled ``samples`` times (after one warmup run,
    overhead-subtracted, via :class:`repro.bench.Sampler`); ``time_s``
    is the distribution **median** and ``time_mad_s`` its MAD, so a
    single scheduler hiccup cannot distort the reported contrast.
    """
    ensemble = paper_psa_ensemble("small", max(4, n_pairs), n_frames=n_frames, scale=scale)
    arrays = ensemble.as_arrays()
    pairs = [(arrays[i], arrays[(i + 1) % len(arrays)]) for i in range(n_pairs)]
    sampler = Sampler(n_samples=max(1, samples), warmup=1)
    rows: List[dict] = []
    for label, kernel, engine in (
            ("vectorized (compiled-equivalent)", rmsd_matrix, "vectorized"),
            ("naive python loop", pairwise_rmsd_loop, "reference")):
        checksum = sum(float(np.sum(kernel(a, b))) for a, b in pairs)
        dist = sampler.sample(
            lambda: [kernel(a, b) for a, b in pairs], label=label)
        rows.append({
            "kernel": label,
            "kernel_engine": engine,
            "n_pairs": n_pairs,
            "n_frames": n_frames,
            "n_atoms": arrays[0].shape[1],
            "time_s": dist.median,
            "time_mad_s": dist.mad,
            "n_samples": dist.n,
            "checksum": checksum,
        })
    rows[0]["speedup_vs_naive"] = (rows[1]["time_s"] / rows[0]["time_s"]
                                   if rows[0]["time_s"] > 0 else float("inf"))
    for label, kernel, engine in (
            ("earlybreak (blockwise)", hausdorff_earlybreak, "vectorized"),
            ("earlybreak (python reference)", reference.hausdorff_earlybreak,
             "reference")):
        checksum = sum(kernel(a, b) for a, b in pairs)
        dist = sampler.sample(
            lambda: [kernel(a, b) for a, b in pairs], label=label)
        rows.append({
            "kernel": label,
            "kernel_engine": engine,
            "n_pairs": n_pairs,
            "n_frames": n_frames,
            "n_atoms": arrays[0].shape[1],
            "time_s": dist.median,
            "time_mad_s": dist.mad,
            "n_samples": dist.n,
            "checksum": checksum,
        })
    if rows[2]["time_s"] > 0:
        rows[2]["speedup_vs_reference"] = rows[3]["time_s"] / rows[2]["time_s"]
    return rows


def main(argv=None) -> None:
    """Entry point: ``python -m repro.experiments.fig6_cpptraj``."""
    args = standard_argparser(__doc__ or "figure 6").parse_args(argv)
    print_rows("Figure 6 (modeled, paper scale): compiled 2D-RMSD comparator",
               modeled_rows(),
               columns=["framework", "cores", "runtime_s", "speedup"])
    if args.live:
        print_rows("Figure 6 (measured, laptop scale): kernel comparison", measured_rows())


if __name__ == "__main__":  # pragma: no cover
    main()
