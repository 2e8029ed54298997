"""Reference kernels: the literal formulations the fast kernels must match.

Each function here is the executable specification of one hot kernel,
written the way the algorithm reads on paper — slow, obviously correct,
and what the equivalence tests compare the production kernels against
with exact equality:

* :func:`hausdorff_earlybreak` — the per-pair early-break scan of Taha &
  Hanbury (2015), the optimization the paper cites for PSA; the
  production kernel is :func:`repro.analysis.hausdorff.hausdorff_earlybreak`
  (blockwise GEMM tiles with per-block pruning),
* :func:`connected_components` — the per-edge union-find loop over
  :class:`DisjointSet`; production: min-label propagation in
  :func:`repro.analysis.graph.connected_components`,
* :func:`merge_component_sets` — the per-atom dict relabel plus unions
  of the Leaflet Finder's partial-component reduce; production:
  :func:`repro.analysis.graph.merge_packed` (list form:
  :func:`repro.analysis.graph.merge_component_sets`),
* :func:`connected_components_networkx` — an independent cross-check
  through networkx, imported only when called.

The production kernels never call into this module, so an ablation
(a figure, a benchmark, a calibration) names the variant it runs by
calling the function it wants.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .graph import _check_edges, normalize_components
from .hausdorff import _flatten_paths

__all__ = [
    "DisjointSet",
    "connected_components",
    "connected_components_networkx",
    "hausdorff_earlybreak",
    "merge_component_sets",
]


def hausdorff_earlybreak(traj_a: np.ndarray, traj_b: np.ndarray,
                         shuffle_seed: int | None = 0) -> float:
    """Symmetric early-break Hausdorff distance, one point pair at a time.

    Same contract as :func:`repro.analysis.hausdorff.hausdorff_earlybreak`:
    ``shuffle_seed`` seeds one generator that shuffles the scan order of
    the forward pass and then of the backward pass (``None`` scans in
    frame order), and the result is exactly the symmetric Hausdorff
    distance.
    """
    flat_a, flat_b, n_atoms = _flatten_paths(traj_a, traj_b)
    rng = np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    forward = _directed_earlybreak(flat_a, flat_b, rng)
    backward = _directed_earlybreak(flat_b, flat_a, rng)
    return float(np.sqrt(max(forward, backward) / n_atoms))


def _directed_earlybreak(points_a: np.ndarray, points_b: np.ndarray,
                         rng: np.random.Generator | None) -> float:
    """The per-pair early-break scan exactly as Taha & Hanbury write it."""
    order_a = np.arange(points_a.shape[0])
    order_b = np.arange(points_b.shape[0])
    if rng is not None:
        rng.shuffle(order_a)
        rng.shuffle(order_b)
    cmax = 0.0
    for ia in order_a:
        a_vec = points_a[ia]
        cmin = np.inf
        # squared distances to all of B for this point, but scanned with
        # early break in the randomized order
        for ib in order_b:
            diff = a_vec - points_b[ib]
            d2 = float(diff @ diff)
            if d2 < cmin:
                cmin = d2
                if cmin <= cmax:
                    break
        if cmin > cmax and np.isfinite(cmin):
            cmax = cmin
    return cmax


class DisjointSet:
    """Union-find over integer elements 0..n-1 with path compression + union by size."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path compression)."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def groups(self) -> List[np.ndarray]:
        """All disjoint sets as sorted index arrays (singletons included)."""
        roots = np.array([self.find(i) for i in range(self.n)], dtype=np.int64)
        out: List[np.ndarray] = []
        order = np.argsort(roots, kind="stable")
        sorted_roots = roots[order]
        if self.n == 0:
            return out
        boundaries = np.flatnonzero(np.diff(sorted_roots)) + 1
        for chunk in np.split(order, boundaries):
            out.append(np.sort(chunk))
        return out


def _canonical(groups: List[np.ndarray], include_singletons: bool) -> List[np.ndarray]:
    """Order components by (-size, smallest member), optionally dropping singletons."""
    if not include_singletons:
        groups = [g for g in groups if len(g) > 1]
    groups.sort(key=lambda g: (-len(g), int(g[0]) if len(g) else 0))
    return groups


def connected_components(edges: np.ndarray, n_nodes: int,
                         include_singletons: bool = True) -> List[np.ndarray]:
    """Connected components by a per-edge union-find loop.

    Same arguments and canonical output as
    :func:`repro.analysis.graph.connected_components`: components sorted
    by decreasing size (ties by smallest member), each a sorted array of
    node ids.
    """
    edges = _check_edges(edges, n_nodes)
    dsu = DisjointSet(n_nodes)
    for a, b in edges:
        dsu.union(int(a), int(b))
    return _canonical(dsu.groups(), include_singletons)


def connected_components_networkx(edges: np.ndarray, n_nodes: int,
                                  include_singletons: bool = True) -> List[np.ndarray]:
    """Same as :func:`connected_components` but via networkx (cross-check)."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from(map(tuple, np.asarray(edges, dtype=np.int64).reshape(-1, 2)))
    groups = [np.array(sorted(c), dtype=np.int64) for c in nx.connected_components(graph)]
    return _canonical(groups, include_singletons)


def merge_component_sets(
        component_sets: Iterable[Iterable[Iterable[int]]]) -> List[np.ndarray]:
    """Merge partial components with a per-atom dict relabel and union-find.

    Same contract as :func:`repro.analysis.graph.merge_component_sets`:
    two partial components join whenever they share an atom.
    """
    partials: List[np.ndarray] = []
    for comp_set in component_sets:
        for comp in comp_set:
            arr = np.array(sorted(set(int(x) for x in comp)), dtype=np.int64)
            if arr.size:
                partials.append(arr)
    if not partials:
        return []
    # map the atoms that occur anywhere to a compact index space
    all_atoms = np.unique(np.concatenate(partials))
    index_of = {int(atom): i for i, atom in enumerate(all_atoms)}
    dsu = DisjointSet(len(all_atoms))
    for comp in partials:
        first = index_of[int(comp[0])]
        for atom in comp[1:]:
            dsu.union(first, index_of[int(atom)])
    merged: dict[int, List[int]] = {}
    for atom in all_atoms:
        root = dsu.find(index_of[int(atom)])
        merged.setdefault(root, []).append(int(atom))
    return normalize_components(merged.values())
