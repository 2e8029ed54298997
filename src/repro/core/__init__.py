"""Core library: the paper's contribution.

Task-parallel PSA (Hausdorff) and the four Leaflet Finder architectural
approaches, the 1-D/2-D partitioning schemes, result containers, the Big
Data Ogres characterization and the framework decision framework.
"""

from .api import (
    compare_frameworks,
    compare_leaflet_approaches,
    leaflet_finder,
    psa,
    stream_windows,
)
from .characterization import (
    DECISION_FRAMEWORK,
    FRAMEWORK_COMPARISON,
    LEAFLET_MAPREDUCE_OPERATIONS,
    LEAFLET_OGRES,
    PSA_OGRES,
    OgreClassification,
    Support,
    decision_framework_table,
    framework_comparison_table,
    leaflet_operations_table,
    recommend_framework,
    render_table,
)
from .leaflet import (
    LEAFLET_APPROACHES,
    LeafletFinder,
    leaflet_serial,
    run_leaflet_finder,
)
from .partitioning import (
    BlockTask,
    choose_group_size,
    chunk_ranges,
    one_dimensional_partition,
    pair_blocks,
    tasks_for_group_size,
    two_dimensional_partition,
)
from .psa import (
    PSA_METRICS,
    PSABlockTask,
    execute_psa_block,
    make_psa_tasks,
    psa_serial,
    run_psa,
)
from .results import DistanceMatrix, LeafletResult, RunReport

__all__ = [
    "psa",
    "stream_windows",
    "leaflet_finder",
    "compare_frameworks",
    "compare_leaflet_approaches",
    "run_psa",
    "psa_serial",
    "make_psa_tasks",
    "execute_psa_block",
    "PSABlockTask",
    "PSA_METRICS",
    "run_leaflet_finder",
    "leaflet_serial",
    "LeafletFinder",
    "LEAFLET_APPROACHES",
    "BlockTask",
    "chunk_ranges",
    "one_dimensional_partition",
    "two_dimensional_partition",
    "pair_blocks",
    "tasks_for_group_size",
    "choose_group_size",
    "DistanceMatrix",
    "LeafletResult",
    "RunReport",
    "OgreClassification",
    "PSA_OGRES",
    "LEAFLET_OGRES",
    "FRAMEWORK_COMPARISON",
    "LEAFLET_MAPREDUCE_OPERATIONS",
    "DECISION_FRAMEWORK",
    "Support",
    "recommend_framework",
    "render_table",
    "framework_comparison_table",
    "leaflet_operations_table",
    "decision_framework_table",
]
