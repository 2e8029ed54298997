"""MD analysis kernels: RMSD, Hausdorff/Fréchet, pairwise distances,
neighbor search, graph components and sub-setting.

These are the serial building blocks that the task-parallel algorithms in
:mod:`repro.core` distribute across frameworks.  The literal formulations
they are verified against live in :mod:`repro.analysis.reference`.
"""

from .rmsd import (
    kabsch_rmsd,
    kabsch_rotation,
    pairwise_rmsd_loop,
    rmsd,
    rmsd_matrix,
    rmsd_matrix_blocked,
    rmsd_trajectory,
)
from .hausdorff import (
    directed_hausdorff,
    discrete_frechet,
    hausdorff,
    hausdorff_earlybreak,
    hausdorff_naive,
)
from .pairwise import (
    edges_from_block,
    edges_within_cutoff,
    estimate_pairwise_memory,
    iter_distance_blocks,
    pairwise_distances,
    self_edges_within_cutoff,
)
from .neighbors import (
    BallTree,
    GridNeighborSearch,
    brute_force_radius,
    brute_force_radius_pairs,
    radius_edges,
)
from .graph import (
    components_to_labels,
    connected_components,
    label_components,
    merge_component_sets,
    normalize_components,
)
from .subsetting import (
    stride_frames,
    subset_atoms,
    subset_ensemble,
    subset_frames,
    subset_trajectory,
    within_sphere,
)

__all__ = [
    "rmsd",
    "kabsch_rmsd",
    "kabsch_rotation",
    "rmsd_trajectory",
    "rmsd_matrix",
    "rmsd_matrix_blocked",
    "pairwise_rmsd_loop",
    "hausdorff",
    "hausdorff_naive",
    "hausdorff_earlybreak",
    "directed_hausdorff",
    "discrete_frechet",
    "pairwise_distances",
    "edges_from_block",
    "edges_within_cutoff",
    "self_edges_within_cutoff",
    "iter_distance_blocks",
    "estimate_pairwise_memory",
    "BallTree",
    "GridNeighborSearch",
    "brute_force_radius",
    "brute_force_radius_pairs",
    "radius_edges",
    "label_components",
    "connected_components",
    "components_to_labels",
    "merge_component_sets",
    "normalize_components",
    "subset_atoms",
    "subset_frames",
    "stride_frames",
    "subset_trajectory",
    "subset_ensemble",
    "within_sphere",
]
