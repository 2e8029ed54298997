"""repro: task-parallel analysis of molecular dynamics trajectories.

A reproduction of Paraskevakos et al., *Task-parallel Analysis of
Molecular Dynamics Trajectories* (ICPP 2018): PSA (Hausdorff) and the
Leaflet Finder implemented over four task-parallel framework substrates
(Spark-, Dask-, RADICAL-Pilot- and MPI-style), plus the benchmark harness
that regenerates every figure and table of the paper's evaluation.

Quickstart
----------
>>> from repro import paper_psa_ensemble, psa
>>> ensemble = paper_psa_ensemble("small", 16, scale=0.02)   # doctest: +SKIP
>>> matrix, report = psa(ensemble, framework="dask")          # doctest: +SKIP

See ``examples/`` for runnable scenarios and ``README.md`` for the full
architecture overview.
"""

from .version import PAPER, __version__
from .core import (
    DistanceMatrix,
    LeafletFinder,
    LeafletResult,
    RunReport,
    compare_frameworks,
    compare_leaflet_approaches,
    leaflet_finder,
    leaflet_serial,
    psa,
    psa_serial,
    recommend_framework,
    run_leaflet_finder,
    run_psa,
    stream_windows,
)
from .frameworks import (
    DaskLiteClient,
    MPIFramework,
    PilotFramework,
    SparkLiteContext,
    TaskFramework,
    make_framework,
)
from .trajectory import (
    StreamingEnsemble,
    Trajectory,
    TrajectoryEnsemble,
    Universe,
    make_bilayer,
    make_bilayer_universe,
    paper_leaflet_system,
    open_streaming_ensemble,
    paper_psa_ensemble,
)

__all__ = [
    "__version__",
    "PAPER",
    # core API
    "psa",
    "psa_serial",
    "run_psa",
    "stream_windows",
    "leaflet_finder",
    "leaflet_serial",
    "run_leaflet_finder",
    "LeafletFinder",
    "compare_frameworks",
    "compare_leaflet_approaches",
    "recommend_framework",
    "DistanceMatrix",
    "LeafletResult",
    "RunReport",
    # frameworks
    "TaskFramework",
    "make_framework",
    "SparkLiteContext",
    "DaskLiteClient",
    "PilotFramework",
    "MPIFramework",
    # data
    "Trajectory",
    "TrajectoryEnsemble",
    "Universe",
    "paper_psa_ensemble",
    "StreamingEnsemble",
    "open_streaming_ensemble",
    "make_bilayer",
    "make_bilayer_universe",
    "paper_leaflet_system",
]
