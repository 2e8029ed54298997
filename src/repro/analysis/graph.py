"""Graph kernels: connected components and partial-component merging.

The Leaflet Finder's second stage computes the connected components of the
neighbor graph.  The paper's four approaches differ in *where* this
happens:

* approaches 1 and 2 gather the full edge list on one process and run a
  sequential connected-components pass (:func:`connected_components`),
* approaches 3 and 4 compute *partial* components inside every map task
  (:func:`partial_components`) and merge them in the reduce phase
  whenever two partial components share an atom (:func:`merge_packed`),
  which shrinks the shuffled data from O(edges) to O(atoms).

Partial components travel *packed*: one contiguous int64 array per
component set, in CSR form ``[k, offset_0 = 0, ..., offset_k, members...]``
— the component count, ``k + 1`` offsets into the members, then the
members grouped by component.  A map task therefore returns one array
(one result, one shared-memory segment on process lanes) however many
components it found, and the merge concatenates members and lengths of
every set in one pass.  Every packed array this module builds holds each
component's members in ascending order; :func:`unpack_components` turns
one into the canonical component list once, at the end of a run.

Both kernels propagate minimum labels over the whole edge array with
``np.minimum.at`` plus pointer jumping — no per-edge Python work.  The
union-find loops they are verified against, and a networkx cross-check,
live in :mod:`repro.analysis.reference`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "connected_components",
    "components_to_labels",
    "label_components",
    "merge_component_sets",
    "merge_packed",
    "normalize_components",
    "pack_components",
    "packed_parts",
    "partial_components",
    "unpack_components",
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


#: the packed form of no components: ``k = 0`` and the one offset 0
_EMPTY = np.zeros(2, dtype=np.int64)


def pack_components(members: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One packed array from members grouped by component and their lengths.

    Parameters
    ----------
    members : numpy.ndarray
        Node ids, component after component.
    lengths : numpy.ndarray
        Size of each component, in the order of ``members``; every size
        is at least 1 and they add up to ``members.size``.

    Returns
    -------
    numpy.ndarray
        ``[k, 0, offset_1, ..., offset_k, members...]`` as one int64
        array of ``k + 2 + members.size`` entries.
    """
    k = lengths.size
    packed = np.empty(k + 2 + members.size, dtype=np.int64)
    packed[0] = k
    packed[1] = 0
    np.cumsum(lengths, out=packed[2:k + 2])
    packed[k + 2:] = members
    return packed


def packed_parts(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(members, lengths)`` of a packed array; ``members`` is a view."""
    k = int(packed[0])
    return packed[k + 2:], np.diff(packed[1:k + 2])


def _pack_labels(labels: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Pack ``nodes`` grouped by their labels from :func:`label_components`.

    One stable argsort groups the members (ascending within each
    component, because ``nodes`` is ascending) and a boundary scan finds
    where each component starts; components come out ordered by their
    smallest member, which is their label.
    """
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))  # labels are >= 0
    return pack_components(nodes[order], np.diff(np.r_[starts, labels.size]))


def partial_components(edges: np.ndarray) -> np.ndarray:
    """Packed connected components of one map task's edges (global ids).

    The node ids are compacted in one ``np.unique`` pass, whose inverse
    *is* the relabeled edge array; every node lies on an edge, so with no
    self-loops no component is a singleton.
    """
    nodes, local_edges = np.unique(edges, return_inverse=True)
    return _pack_labels(label_components(local_edges, nodes.size), nodes)


def unpack_components(packed: np.ndarray, min_size: int = 1) -> List[np.ndarray]:
    """The canonical component list of a packed array built by this module.

    Components come out sorted by (-size, smallest member), each one an
    ascending array of node ids — the same normal form the reference
    union-find loop produces.  Components smaller than ``min_size`` are
    left out.
    """
    members, lengths = packed_parts(packed)
    if lengths.size == 0:
        return []
    offsets = packed[1:lengths.size + 2]
    order = np.lexsort((members[offsets[:-1]], -lengths))
    order = order[lengths[order] >= min_size]
    groups = np.split(members, offsets[1:-1])
    return [groups[i] for i in order]


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
    labels = label_components(_check_edges(edges, n_nodes), n_nodes)
    packed = _pack_labels(labels, np.arange(n_nodes, dtype=np.int64))
    return unpack_components(packed, min_size=1 if include_singletons else 2)


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


def merge_packed(packed_sets: Iterable[np.ndarray]) -> np.ndarray:
    """Merge packed partial components from multiple tasks (reduce phase).

    Each element of ``packed_sets`` is the packed component set one map
    task found on its block of the graph (or an earlier merge's output).
    Two partial components belong to the same global component whenever
    they share at least one atom; this is exactly the reduce step of the
    paper's approaches 3 and 4.

    The cost is proportional to the total number of (atom,
    partial-component) memberships — O(n), not O(edges), and no Python
    work per component: the members and lengths of every set are
    concatenated, one ``np.unique(..., return_inverse=True)`` pass
    relabels the memberships, and a star-shaped edge array (each
    partial's first atom linked to the rest of it) goes through
    :func:`label_components`.  A duplicated member only adds a redundant
    star edge, which the label propagation absorbs.

    Returns
    -------
    numpy.ndarray
        The merged components, packed, ordered by smallest member.
    """
    parts = [packed_parts(p) for p in packed_sets]
    if not parts:
        return _EMPTY.copy()
    members = np.concatenate([m for m, _ in parts])
    lengths = np.concatenate([n for _, n in parts])
    all_atoms, inverse = np.unique(members, return_inverse=True)
    starts = np.cumsum(lengths) - lengths
    rest = np.ones(inverse.size, dtype=bool)
    rest[starts] = False
    edges = np.column_stack([np.repeat(inverse[starts], lengths - 1), inverse[rest]])
    return _pack_labels(label_components(edges, all_atoms.size), all_atoms)


def _pack_set(components: Iterable[Iterable[int]]) -> np.ndarray:
    """Pack one list-form component set, dropping empty components."""
    arrays = []
    for comp in components:
        try:
            arr = np.asarray(comp, dtype=np.int64).ravel()
        except (TypeError, ValueError):  # arbitrary iterables of ints
            arr = np.fromiter((int(x) for x in comp), dtype=np.int64)
        if arr.size:
            arrays.append(arr)
    if not arrays:
        return _EMPTY.copy()
    return pack_components(np.concatenate(arrays),
                           np.array([a.size for a in arrays], dtype=np.int64))


def merge_component_sets(
        component_sets: Iterable[Iterable[Iterable[int]]]) -> List[np.ndarray]:
    """Merge partial components given as lists of arrays.

    The list-form face of :func:`merge_packed`: each set is packed, the
    packed sets are merged, and the result is unpacked into the canonical
    component list (sorted by (-size, smallest member)).
    """
    return unpack_components(merge_packed([_pack_set(s) for s in component_sets]))
