"""Graph kernels: connected components and partial-component merging.

The Leaflet Finder's second stage computes the connected components of the
neighbor graph.  The paper's four approaches differ in *where* this
happens:

* approaches 1 and 2 gather the full edge list on one process and run a
  sequential connected-components pass (:func:`connected_components`),
* approaches 3 and 4 compute *partial* components inside every map task
  and merge them in the reduce phase whenever two partial components share
  an atom (:func:`merge_component_sets`), which shrinks the shuffled data
  from O(edges) to O(atoms).

Both kernels propagate minimum labels over the whole edge array with
``np.minimum.at`` plus pointer jumping — no per-edge Python work.  The
union-find loops they are verified against, and a networkx cross-check,
live in :mod:`repro.analysis.reference`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "connected_components",
    "components_to_labels",
    "label_components",
    "merge_component_sets",
    "normalize_components",
]


def label_components(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per-node component labels via array-wide minimum-label propagation.

    Every node starts labeled with its own id; each pass lowers both
    endpoints of every edge to their common minimum (``np.minimum.at``
    over the whole edge array at once) and then pointer-jumps
    (``labels = labels[labels]``) until chains are collapsed.  Converges
    in O(log n) passes, so the total work is O((n + e) log n) array
    operations with no per-edge Python involvement.

    Returns
    -------
    numpy.ndarray
        ``(n_nodes,)`` int64 labels; each component is labeled by its
        smallest member id.
    """
    labels = np.arange(n_nodes, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return labels
    e0 = edges[:, 0]
    e1 = edges[:, 1]
    while True:
        before = labels.copy()
        lowest = np.minimum(labels[e0], labels[e1])
        np.minimum.at(labels, e0, lowest)
        np.minimum.at(labels, e1, lowest)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def _groups_from_labels(labels: np.ndarray, include_singletons: bool) -> List[np.ndarray]:
    """Convert a label array to the canonical component list.

    Components come out sorted by (-size, smallest member), each one an
    ascending array of node ids — the same normal form the reference
    union-find loop produces.
    """
    if labels.size == 0:
        return []
    uniq, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")
    groups = np.split(order, np.cumsum(counts)[:-1])
    comp_order = np.lexsort((uniq, -counts))
    return [np.ascontiguousarray(groups[i]) for i in comp_order
            if include_singletons or counts[i] > 1]


def _check_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        raise ValueError("edge list references nodes outside [0, n_nodes)")
    return edges


def connected_components(edges: np.ndarray, n_nodes: int,
                         include_singletons: bool = True) -> List[np.ndarray]:
    """Connected components of an undirected graph given as an edge list.

    Parameters
    ----------
    edges:
        ``(n_edges, 2)`` integer array; nodes are 0..n_nodes-1.
    n_nodes:
        Total number of nodes (needed because isolated atoms have no edges).
    include_singletons:
        Whether to return single-node components (isolated atoms).

    Returns
    -------
    list of numpy.ndarray
        Components sorted by decreasing size, each a sorted array of node ids.
    """
    edges = _check_edges(edges, n_nodes)
    return _groups_from_labels(label_components(edges, n_nodes), include_singletons)


def components_to_labels(components: Sequence[np.ndarray], n_nodes: int) -> np.ndarray:
    """Convert a component list to a per-node label array.

    Nodes not contained in any component get label ``-1``.  Component ids
    follow the order of ``components`` (0 for the first/largest, ...).
    """
    labels = np.full(n_nodes, -1, dtype=np.int64)
    for comp_id, comp in enumerate(components):
        comp = np.asarray(comp, dtype=np.int64)
        if comp.size and (comp.min() < 0 or comp.max() >= n_nodes):
            raise ValueError("component references nodes outside [0, n_nodes)")
        labels[comp] = comp_id
    return labels


def normalize_components(components: Iterable[Iterable[int]]) -> List[np.ndarray]:
    """Sort each component and order components by (-size, smallest member)."""
    # each component is read exactly once, so iterators work too
    normalized = [np.array(sorted(set(int(x) for x in comp)), dtype=np.int64)
                  for comp in components]
    normalized = [c for c in normalized if c.size > 0]
    normalized.sort(key=lambda g: (-len(g), int(g[0])))
    return normalized


def merge_component_sets(
        component_sets: Iterable[Iterable[Iterable[int]]]) -> List[np.ndarray]:
    """Merge partial connected components from multiple tasks (reduce phase).

    Each element of ``component_sets`` is the list of components one map
    task found on its block of the graph.  Two partial components belong to
    the same global component whenever they share at least one atom; this
    is exactly the reduce step of the paper's approaches 3 and 4.

    The merge cost is proportional to the total number of
    (atom, partial-component) memberships — O(n), not O(edges).  The
    membership relabeling is one ``np.unique(..., return_inverse=True)``
    pass and the joining is a star-shaped edge array through
    :func:`label_components`.
    """
    partials: List[np.ndarray] = []
    for comp_set in component_sets:
        for comp in comp_set:
            try:
                arr = np.asarray(comp, dtype=np.int64).ravel()
            except (TypeError, ValueError):  # arbitrary iterables of ints
                arr = np.fromiter((int(x) for x in comp), dtype=np.int64)
            # no per-partial dedup needed: a duplicated member only adds a
            # redundant star edge, which the label propagation absorbs
            if arr.size:
                partials.append(arr)
    if not partials:
        return []
    lengths = np.array([p.size for p in partials], dtype=np.int64)
    all_atoms, inverse = np.unique(np.concatenate(partials), return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    # star edges: each partial's first atom links to the rest of it
    starts = np.cumsum(lengths) - lengths
    rest = np.ones(inverse.size, dtype=bool)
    rest[starts] = False
    edges = np.column_stack([np.repeat(inverse[starts], lengths - 1), inverse[rest]])
    labels = label_components(edges, all_atoms.size)
    return [all_atoms[g] for g in _groups_from_labels(labels, include_singletons=True)]
