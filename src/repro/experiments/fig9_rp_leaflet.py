"""Figure 9 — RADICAL-Pilot running Leaflet Finder approach 2.

Paper setup: approach 2 (task API + 2-D partitioning) on RADICAL-Pilot
for the 131k, 262k and 524k atom systems, 32-256 cores.  Published
findings: runtimes (roughly 200-600 s) are dominated by RADICAL-Pilot's
per-unit overheads — they are similar regardless of the system size — and
are worst on a single 32-core node; adding nodes improves the runtime
substantially because units are dispatched to more agents concurrently.

``measured_rows`` runs approach 2 on the pilot substrate with a non-zero
simulated database latency so the same overhead-dominated behaviour is
observable at laptop scale.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.leaflet import run_leaflet_finder
from ..frameworks.pilot import PilotFramework
from ..perfmodel.machines import WRANGLER
from ..perfmodel.scaling import PAPER_LEAFLET_CORE_COUNTS, model_leaflet_runtime
from ..trajectory.bilayer import BilayerSpec, make_bilayer
from .common import print_rows, standard_argparser

__all__ = ["modeled_rows", "measured_rows", "main"]

PAPER_ATOM_COUNTS = (131_072, 262_144, 524_288)


def modeled_rows(atom_counts: Sequence[int] = PAPER_ATOM_COUNTS,
                 core_counts: Sequence[int] = PAPER_LEAFLET_CORE_COUNTS,
                 n_tasks: int = 1024) -> List[dict]:
    """Paper-scale modeled RADICAL-Pilot runtimes for approach 2."""
    rows: List[dict] = []
    for n_atoms in atom_counts:
        for cores in core_counts:
            runtime = model_leaflet_runtime("pilot", "task-2d", WRANGLER,
                                            cores=cores, n_atoms=n_atoms,
                                            n_tasks=n_tasks)
            rows.append({
                "framework": "pilot",
                "approach": "task-2d",
                "n_atoms": n_atoms,
                "cores": cores,
                "nodes": WRANGLER.nodes_for_cores(cores),
                "n_tasks": n_tasks,
                "runtime_s": runtime,
            })
    return rows


def measured_rows(n_atoms: int = 1500, cutoff: float = 15.0, n_tasks: int = 24,
                  workers: int = 4, database_latency_s: float = 0.002) -> List[dict]:
    """Laptop-scale live run on the pilot substrate, with and without DB latency."""
    positions, _labels = make_bilayer(BilayerSpec(n_atoms=n_atoms, seed=13))
    rows: List[dict] = []
    for latency in (0.0, database_latency_s):
        fw = PilotFramework(executor="threads", workers=workers,
                            database_latency_s=latency)
        _result, report = run_leaflet_finder(positions, cutoff, fw, approach="task-2d", n_tasks=n_tasks)
        db_stats = next((v for k, v in report.metrics.events if k == "database"), {})
        rows.append({
            "database_latency_s": latency,
            "n_atoms": n_atoms,
            "n_tasks": report.n_tasks,
            "wall_time_s": report.wall_time_s,
            "overhead_s": report.metrics.overhead_s,
            "db_round_trips": db_stats.get("round_trips", 0),
        })
        fw.close()
    return rows


def main(argv=None) -> None:
    """Entry point: ``python -m repro.experiments.fig9_rp_leaflet``."""
    args = standard_argparser(__doc__ or "figure 9").parse_args(argv)
    print_rows("Figure 9 (modeled, paper scale): RADICAL-Pilot, approach 2",
               modeled_rows(),
               columns=["n_atoms", "cores", "nodes", "n_tasks", "runtime_s"])
    if args.live:
        print_rows("Figure 9 (measured, laptop scale)", measured_rows(workers=args.workers))


if __name__ == "__main__":  # pragma: no cover
    main()
