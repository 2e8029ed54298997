"""Figure 7 — Leaflet Finder: the four architectural approaches.

Paper setup: bilayers of 131k, 262k, 524k and 4M atoms, 1024 map tasks
(42k for the 4M system with approach 3), Spark, Dask and MPI4py, 32-256
cores of Wrangler.  Published findings:

* approach 1 (broadcast + 1-D) is the slowest and stops scaling beyond
  262k (Dask) / 524k (Spark, MPI) atoms,
* approach 2 (task API + 2-D) removes the broadcast and scales to 524k,
* approach 3 (parallel connected components) cuts the shuffle by >50% and
  improves runtime by ~20% for Spark and Dask; Spark and MPI handle the
  4M system with 42k tasks,
* approach 4 (tree search) is slower for the two small systems but wins
  for 524k and 4M atoms and has a much smaller memory footprint,
* MPI4py scales almost linearly; Spark and Dask reach speedups of ~4.5-5.

``measured_rows`` runs all four approaches live on every substrate with a
scaled-down bilayer and verifies they agree on the leaflet assignment.
"""

from __future__ import annotations

from typing import List, Sequence

from ..bench import Distribution
from ..core.leaflet import LEAFLET_APPROACHES, run_leaflet_finder
from ..frameworks import make_framework
from ..perfmodel.machines import WRANGLER
from ..perfmodel.scaling import PAPER_LEAFLET_CORE_COUNTS, leaflet_sweep
from ..trajectory.bilayer import BilayerSpec, make_bilayer
from .common import print_rows, standard_argparser

__all__ = ["modeled_rows", "measured_rows", "main"]

PAPER_FRAMEWORKS = ("spark", "dask", "mpi")
PAPER_ATOM_COUNTS = (131_072, 262_144, 524_288, 4_194_304)


def modeled_rows(frameworks: Sequence[str] = PAPER_FRAMEWORKS,
                 atom_counts: Sequence[int] = PAPER_ATOM_COUNTS,
                 core_counts: Sequence[int] = PAPER_LEAFLET_CORE_COUNTS) -> List[dict]:
    """Paper-scale modeled grid: every cell of Figure 7."""
    points = leaflet_sweep(frameworks=frameworks, machine=WRANGLER,
                           atom_counts=atom_counts, core_counts=core_counts)
    return [p.as_dict() for p in points]


def measured_rows(n_atoms: int = 2000, cutoff: float = 15.0, n_tasks: int = 32,
                  workers: int = 4,
                  frameworks: Sequence[str] = ("sparklite", "dasklite", "mpilite"),
                  approaches: Sequence[str] | None = None,
                  samples: int = 3) -> List[dict]:
    """Laptop-scale live run of every (framework, approach) combination.

    All cells must agree on the leaflet assignment.

    Each cell runs ``samples`` times on a fresh substrate;
    ``wall_time_s`` is the **median** of the per-run wall clocks and
    ``wall_time_mad_s`` their MAD, so one preempted run cannot reorder
    the approaches in the reported table.
    """
    approaches = list(approaches or LEAFLET_APPROACHES)
    positions, labels = make_bilayer(BilayerSpec(n_atoms=n_atoms, seed=7))
    rows: List[dict] = []
    reference_sizes = None
    for name in frameworks:
        for approach in approaches:
            walls: List[float] = []
            result = report = None
            for _ in range(max(1, samples)):
                fw = make_framework(name, executor="threads", workers=workers)
                result, report = run_leaflet_finder(positions, cutoff, fw,
                                                    approach=approach,
                                                    n_tasks=n_tasks)
                walls.append(report.wall_time_s)
                fw.close()
            dist = Distribution(samples=tuple(walls), label=f"{name}/{approach}")
            sizes = result.sizes[:2]
            if reference_sizes is None:
                reference_sizes = sizes
            elif sizes != reference_sizes:
                raise AssertionError(
                    f"{name}/{approach} disagrees on leaflet sizes: "
                    f"{sizes} vs {reference_sizes}"
                )
            rows.append({
                "framework": name,
                "approach": approach,
                "n_atoms": n_atoms,
                "n_tasks": report.n_tasks,
                "wall_time_s": dist.median,
                "wall_time_mad_s": dist.mad,
                "n_samples": dist.n,
                "bytes_broadcast": report.metrics.bytes_broadcast,
                "bytes_shuffled": report.metrics.bytes_shuffled,
                "agreement": result.agreement_with(labels),
            })
    return rows


def main(argv=None) -> None:
    """Entry point: ``python -m repro.experiments.fig7_leaflet_approaches``."""
    args = standard_argparser(__doc__ or "figure 7").parse_args(argv)
    rows = modeled_rows()
    print_rows("Figure 7 (modeled, paper scale): Leaflet Finder approaches",
               rows, columns=["framework", "approach", "n_atoms", "cores",
                              "runtime_s", "speedup", "feasible"])
    if args.live:
        print_rows("Figure 7 (measured, laptop scale)",
                   measured_rows(workers=args.workers))


if __name__ == "__main__":  # pragma: no cover
    main()
