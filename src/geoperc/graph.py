"""Geometric graph construction and connectivity analysis.

Adjacency is built with a uniform spatial grid whose cell side is at least the
connection radius, so candidate pairs only come from 3x3 cell neighborhoods.
Two nodes are adjacent iff their distance is <= radius (ties included), using
the wrap-around metric on a torus region.

The graph is its edge list and degrees, nothing more. Each block of cell pairs
keeps only its pairs within radius, as one key ``min(a, b) * n + max(a, b)``
per edge. One sort of those keys gives ``edges``, rows u < v in lexicographic
order; ``degrees`` counts both ends. Only a torus with fewer than 3 cells on an
axis can revisit a cell pair, so only there are the keys deduplicated. Every
per-node count over neighbors (failed neighbors in a cascade, reliable
neighbors in a classification) is one ``_neighbor_counts`` over the edges.

Connectivity has one primitive, ``_component_roots``: given an edge list, every
node gets the smallest node index of its component, by min-label hooking and
pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982). Component labels
rank the roots over the alive edges; a crossing is a root shared by both edge
strips. ``crossing_level`` finds the level at which weighted survivors stop
crossing by a binary search that drops or contracts the nodes each step
decides, so it labels a graph about once in all, not once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TORUS, PointSet

# Half of the 3x3 neighborhood: together with the within-cell pass, every
# unordered pair of neighboring cells is visited exactly once.
_HALF_OFFSETS = ((1, 0), (0, 1), (1, 1), (-1, 1))


@dataclass(frozen=True)
class SpatialGraph:
    """Immutable geometric graph: points, radius, the int64 edge list (E, 2)
    with rows u < v in lexicographic order, and the int64 degree per node."""

    points: PointSet
    radius: float
    edges: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        for name in ("edges", "degrees"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def node_count(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def mean_degree(self) -> float:
        return float(self.degrees.mean()) if len(self) else 0.0


def _block_pairs(a_starts, a_counts, b_starts, b_counts):
    """Positions of all cartesian pairs across per-block slice ranges."""
    sizes = a_counts * b_counts
    total = int(sizes.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    block = np.repeat(np.arange(len(sizes)), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    t = np.arange(total) - offsets[block]
    nb = b_counts[block]
    left = a_starts[block] + t // nb
    right = b_starts[block] + t % nb
    return left, right


def _candidate_pairs(ucell, ustart, ucount, ncx, ncy, torus):
    """Cell-sorted positions of candidate pairs: within cells, then per half-offset."""
    left, right = _block_pairs(ustart, ucount, ustart, ucount)
    keep = left < right
    yield left[keep], right[keep]

    ucy, ucx = np.divmod(ucell, ncx)
    for dx, dy in _HALF_OFFSETS:
        nx = ucx + dx
        ny = ucy + dy
        if torus:
            nx %= ncx
            ny %= ncy
            # on a 1-cell axis the offset maps a cell onto itself, whose
            # pairs the within-cell block already has
            valid = (nx != ucx) | (ny != ucy)
        else:
            valid = (nx >= 0) & (nx < ncx) & (ny >= 0) & (ny < ncy)
        nid = ny * ncx + nx
        pos = np.searchsorted(ucell, nid[valid])
        pos = np.minimum(pos, len(ucell) - 1)
        found = ucell[pos] == nid[valid]
        a = np.flatnonzero(valid)[found]
        b = pos[found]
        yield _block_pairs(ustart[a], ucount[a], ustart[b], ucount[b])


def build_graph(points: PointSet, radius: float = 1.0) -> SpatialGraph:
    """Connect every pair of points at distance <= radius."""
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    region = points.region
    n = len(points)
    torus = region.boundary == TORUS
    key = np.empty(0, dtype=np.int64)

    if n >= 2:
        # at most 2**31 cells per axis keep cell ids within int64; fewer cells
        # are only larger, which the 3x3 scan still covers
        ncx = max(1, int(min(region.width / radius, 2**31)))
        ncy = max(1, int(min(region.height / radius, 2**31)))
        coords = points.coordinates
        ix = np.minimum((coords[:, 0] * (ncx / region.width)).astype(np.int64), ncx - 1)
        iy = np.minimum((coords[:, 1] * (ncy / region.height)).astype(np.int64), ncy - 1)
        cell = iy * ncx + ix

        order = np.argsort(cell, kind="stable")
        x, y = coords[order].T.copy()
        ucell, ustart, ucount = np.unique(cell[order], return_index=True, return_counts=True)

        r2 = radius * radius
        keys = []
        for left, right in _candidate_pairs(ucell, ustart, ucount, ncx, ncy, torus):
            dx = np.abs(x[left] - x[right])
            dy = np.abs(y[left] - y[right])
            if torus:
                dx = np.minimum(dx, region.width - dx)
                dy = np.minimum(dy, region.height - dy)
            close = dx * dx + dy * dy <= r2
            a = order[left[close]]
            b = order[right[close]]
            keys.append(np.minimum(a, b) * n + np.maximum(a, b))
        key = np.concatenate(keys)
        # wrap-around offsets revisit a cell pair only on a torus axis with < 3 cells
        key = np.unique(key) if torus and min(ncx, ncy) < 3 else np.sort(key)

    src, dst = np.divmod(key, n)
    degrees = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    return SpatialGraph(points, float(radius), np.column_stack((src, dst)), degrees)


def _neighbor_counts(graph: SpatialGraph, mask: np.ndarray) -> np.ndarray:
    """Per node, how many of its neighbors lie in the boolean node mask."""
    u, v = graph.edges.T
    n = len(graph)
    return np.bincount(v[mask[u]], minlength=n) + np.bincount(u[mask[v]], minlength=n)


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component ids per node; dead nodes carry the sentinel -1."""

    labels: np.ndarray
    sizes: np.ndarray
    largest_id: int
    largest_size: int


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per node of an n-node graph with edges (u[k], v[k]), the smallest node
    index of its component.

    Each sweep hooks the larger root of every edge whose ends have different
    roots onto the smaller one, then jumps pointers until every node points at
    a root. Roots only decrease, and an edge whose ends share a root keeps
    sharing it, so later sweeps visit only the edges still split. A node on no
    edge is its own root.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def _alive_edges(graph: SpatialGraph, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = graph.edges
    both = alive[e[:, 0]] & alive[e[:, 1]]
    return e[both, 0], e[both, 1]


def components(graph: SpatialGraph, alive) -> ComponentLabeling:
    """Components of the alive nodes, numbered in the order of their smallest node."""
    n = len(graph)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (n,):
        raise ValueError(f"alive mask length {alive.shape} does not match node count {n}")

    roots = _component_roots(n, *_alive_edges(graph, alive))
    _, inverse, sizes = np.unique(roots[alive], return_inverse=True, return_counts=True)
    labels = np.full(n, -1, dtype=np.int64)
    labels[alive] = inverse
    if sizes.size:
        largest_id = int(np.argmax(sizes))
        largest_size = int(sizes[largest_id])
    else:
        largest_id = -1
        largest_size = 0
    return ComponentLabeling(labels, sizes.astype(np.int64), largest_id, largest_size)


def _strips(graph: SpatialGraph, rect, direction: str):
    """Masks of the nodes inside rect and of those in its start and end strips."""
    region = graph.points.region
    if region.boundary == TORUS:
        raise ValueError("crossing is undefined on a torus region")
    x1, y1, x2, y2 = (float(c) for c in rect)
    if not (0 <= x1 < x2 <= region.width and 0 <= y1 < y2 <= region.height):
        raise ValueError(f"rect {rect} is not a proper rectangle inside the region")
    if direction not in ("left-right", "top-bottom"):
        raise ValueError(f"direction must be 'left-right' or 'top-bottom', got {direction!r}")

    coords = graph.points.coordinates
    x, y = coords[:, 0], coords[:, 1]
    inside = (x >= x1) & (x <= x2) & (y >= y1) & (y <= y2)
    if direction == "left-right":
        c, lo, hi = x, x1, x2
    else:
        c, lo, hi = y, y1, y2
    r = graph.radius
    start = inside & (c - lo > 0) & (c - lo < r)
    end = inside & (hi - c > 0) & (hi - c < r)
    return inside, start, end


def _spanning_roots(roots: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mask over node indices: the roots whose component has a start and an end node."""
    has_start = np.zeros(len(roots), dtype=bool)
    has_start[roots[start]] = True
    has_end = np.zeros(len(roots), dtype=bool)
    has_end[roots[end]] = True
    return has_start & has_end


def crosses(graph: SpatialGraph, alive, rect, direction: str = "left-right") -> bool:
    """Whether alive nodes inside rect form a crossing in the given direction.

    A left-right crossing is a connected sequence of alive nodes inside the
    rectangle whose first node lies strictly within distance radius of the left
    edge (0 < x - x1 < r) and whose last node lies strictly within radius of
    the right edge (0 < x2 - x < r); top-bottom is the 90-degree rotation.
    """
    inside, start, end = _strips(graph, rect, direction)
    n = len(graph)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (n,):
        raise ValueError(f"alive mask length {alive.shape} does not match node count {n}")

    inside &= alive
    start &= alive
    end &= alive
    if not start.any() or not end.any():
        return False
    roots = _component_roots(n, *_alive_edges(graph, inside))
    return bool(_spanning_roots(roots, start, end).any())


def crossing_level(
    graph: SpatialGraph, weights, rect, direction: str = "left-right"
) -> float | None:
    """Largest weight t whose survivors {weights >= t} cross rect in the given
    direction (see ``crosses``), or None when no survivor set does.

    Survivors only shrink as t grows, so they cross at t iff t <= the returned
    level. A binary search over the sorted weights of the inside nodes finds
    it on a graph that shrinks at every step. Where the survivors at t cross,
    a crossing at any higher level lies within one of their crossing
    components, so every other node is dropped. Where they do not, each of
    their components stays connected at every lower level, so it is
    contracted to one node that carries its strip flags and the weight of its
    smallest node, which is at least t. Each step labels only the edges
    between the nodes left.
    """
    inside, start, end = _strips(graph, rect, direction)
    n = len(graph)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"weights length {weights.shape} does not match node count {n}")
    if np.isnan(weights).any():
        raise ValueError("weights must not be NaN")

    # the reduced graph: node weights w, start and finish strip flags s and f,
    # edges (a, b)
    index = np.cumsum(inside) - 1
    a, b = (index[u] for u in _alive_edges(graph, inside))
    w, s, f = weights[inside], start[inside], end[inside]
    levels = np.sort(w)
    lo, hi = -1, len(levels)  # crosses at levels[lo] if lo >= 0; not at levels[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        alive = w >= levels[mid]
        both = alive[a] & alive[b]
        roots = _component_roots(len(w), a[both], b[both])
        spanning = _spanning_roots(roots, s & alive, f & alive)
        if spanning.any():
            lo = mid
            keep = alive & spanning[roots]
            both &= keep[a]
            index = np.cumsum(keep) - 1
            a, b = index[a[both]], index[b[both]]
            w, s, f = w[keep], s[keep], f[keep]
        else:
            hi = mid
            # a node not on a survivor edge is its own root
            rep = roots == np.arange(len(w))
            index = (np.cumsum(rep) - 1)[roots]
            a, b = index[a], index[b]
            split = a != b
            a, b = a[split], b[split]
            w = w[rep]
            s = np.bincount(index[s], minlength=len(w)) > 0
            f = np.bincount(index[f], minlength=len(w)) > 0
    return None if lo < 0 else float(levels[lo])
