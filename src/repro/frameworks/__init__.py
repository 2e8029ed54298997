"""Task-parallel framework substrates.

Four architecture-faithful re-implementations of the substrates the paper
evaluates, all exposing the uniform :class:`~repro.frameworks.base.TaskFramework`
surface used by :mod:`repro.core`:

=================  =====================================================
``sparklite``      Spark: RDDs, stage-oriented DAG scheduler, hash
                   shuffle, broadcast variables, caching
``dasklite``       Dask: delayed task graphs, dependency-driven
                   scheduler, bags, client/futures/scatter
``pilot``          RADICAL-Pilot: pilots, compute units, database-
                   mediated state, file staging, no shuffle
``mpilite``        MPI: SPMD ranks with explicit collectives
=================  =====================================================
"""

from .base import BroadcastHandle, RunMetrics, TaskFramework
from .checkpoint import (
    JournaledTask,
    RunJournal,
    StaleJournal,
    checkpointed_map,
    run_fingerprint,
)
from .cluster import ClusterSpec, local_cluster
from .executors import (
    ExecutorBase,
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    default_worker_count,
    make_executor,
)
from .faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedFault,
    WorkerLost,
)
from .serialization import estimate_transfer_time, nbytes_of, serialized_size
from .shm import DATA_PLANES, BlockLost, BlockRef, SharedMemoryStore
from .sparklite import SparkLiteContext
from .dasklite import DaskLiteClient
from .pilot import PilotFramework
from .mpilite import MPIFramework

__all__ = [
    "TaskFramework",
    "RunMetrics",
    "BroadcastHandle",
    "ClusterSpec",
    "local_cluster",
    "ExecutorBase",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedMemoryExecutor",
    "make_executor",
    "default_worker_count",
    "serialized_size",
    "nbytes_of",
    "estimate_transfer_time",
    "DATA_PLANES",
    "BlockLost",
    "BlockRef",
    "SharedMemoryStore",
    "FaultPolicy",
    "FaultSpec",
    "FaultInjector",
    "DEFAULT_POLICY",
    "InjectedFault",
    "WorkerLost",
    "RunJournal",
    "StaleJournal",
    "JournaledTask",
    "checkpointed_map",
    "run_fingerprint",
    "SparkLiteContext",
    "DaskLiteClient",
    "PilotFramework",
    "MPIFramework",
    "make_framework",
    "FRAMEWORK_NAMES",
]

#: Canonical framework names accepted by :func:`make_framework`.
FRAMEWORK_NAMES = ("sparklite", "dasklite", "pilot", "mpilite")


def make_framework(name: str, **kwargs) -> TaskFramework:
    """Instantiate a framework substrate by name.

    Accepts the canonical names plus the paper's spellings ("spark",
    "dask", "radical-pilot", "mpi", "mpi4py").
    """
    normalized = name.lower().replace("_", "-")
    aliases = {
        "spark": "sparklite",
        "sparklite": "sparklite",
        "dask": "dasklite",
        "dasklite": "dasklite",
        "radical-pilot": "pilot",
        "rp": "pilot",
        "pilot": "pilot",
        "mpi": "mpilite",
        "mpi4py": "mpilite",
        "mpilite": "mpilite",
    }
    if normalized not in aliases:
        raise ValueError(
            f"unknown framework {name!r}; expected one of {sorted(set(aliases))}"
        )
    canonical = aliases[normalized]
    if canonical == "sparklite":
        return SparkLiteContext(**kwargs)
    if canonical == "dasklite":
        return DaskLiteClient(**kwargs)
    if canonical == "pilot":
        return PilotFramework(**kwargs)
    return MPIFramework(**kwargs)
