"""Geometric graph construction and connectivity analysis.

Adjacency is built on a grid of cells at least the connection radius wide, so
candidate pairs only come from 3x3 cell neighborhoods and follow the density
of the points wherever they sit. A cell's padded id is iy * (ncx + 2) + ix + 1:
an empty column on each side and an empty row on top, so each half-offset of
a cell is its id plus a constant. In cell order each cell's points are
contiguous, so each point pairs with contiguous ranges: the later points of
its own cell, then the whole cell at each half-offset of its 3x3 neighborhood
(a padding cell, empty past an open box, holds the wrapped cell's range on a
torus). On a grid of at most 4n + 64 padded cells every range is read from one
table indexed by the padded id, filled by one bincount and one cumsum, as in
the cell lists of Allen & Tildesley (Computer Simulation of Liquids, 1987).
Only a grid much larger than n, as in a huge sparse region, would not fit that
table; there the occupied cells are found as runs, and each neighbor run once
per occupied cell by binary search over the runs' cell ids. Two nodes are
adjacent iff their distance is <= radius (ties included), using the
wrap-around metric on a torus region.

The graph is its edge list and degrees, nothing more. The candidates within
radius become one key ``min(a, b) << bits | max(a, b)`` per edge, with bits
the bit length of n - 1 (at least 1). One sort of those keys gives ``edges``, rows u < v in lexicographic order stored column by
column, so the u and v columns are contiguous arrays; ``degrees`` counts both
ends. Only a torus with fewer than 3 cells on an axis can revisit a cell pair,
so only there are the keys deduplicated. Every per-node count over neighbors
(failed neighbors in a cascade, reliable neighbors in a classification) is one
``_neighbor_counts`` over the edges.

Connectivity has one primitive, ``_component_roots``: given an edge list,
every node gets the smallest node index of its component, by min-label hooking
and pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982). Component
labels number the alive roots in node order, with no sort, as each root is the
smallest node of its component. The finite-size percolation proxy is one
event, a left-right crossing of the whole region: a component of alive nodes
with a node strictly within radius of the left edge and one strictly within
radius of the right edge, found as a root shared by both strips.
``crossing_level`` finds the level at which weighted survivors stop crossing
by a binary search that drops or contracts the nodes each step decides, so it
labels a graph about once in all, not once per step.

Hot filters compact through an index, not a boolean mask. With numpy 2.4 on a
2-core Xeon VM, ``x[mask]`` over 15k entries at half density takes about 120
us, while ``idx = mask.nonzero()[0]`` and ``x[idx]`` take 18 + 12 us, and the
index serves every array the mask filters; ``_alive_edges`` uses one too. Its
int64 index does not set the labeling's peak memory: traced on a λ 5 graph
with 90% of nodes alive, ``components`` peaks at about 2.1 times the bytes of
``edges``, where the roots gathered after the first sweep and their compaction
overlap the alive edge list. The graph layer otherwise keeps few arrays the
size of the edge list alive: ``build_graph`` computes distances and keys in
place and frees each candidate chunk's arrays before it makes the next
chunk's, sorts the keys in place, and splits them into one (2, E) buffer whose
transpose is ``edges``. Cells are sorted by a key of the narrowest unsigned
type that holds every padded cell id; on grids of at most 2**16 padded cells
numpy's stable sort is then a radix sort, 10x faster at 5k points, and a
stable sort of the same keys gives the same permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TORUS, PointSet

# Half of the 3x3 neighborhood, none a step down: together with the within-cell
# ranges, every unordered pair of neighboring cells is visited exactly once.
_HALF_OFFSETS = ((1, 0), (0, 1), (1, 1), (-1, 1))


@dataclass(frozen=True)
class SpatialGraph:
    """Immutable geometric graph: points, radius, the int64 edge list (E, 2)
    with rows u < v in lexicographic order and contiguous columns, and the
    int64 degree per node."""

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
    def edge_count(self) -> int:
        return len(self.edges)


def _range_pairs(lo, hi):
    """Pairs (i, j) for every i and every j with lo[i] <= j < hi[i]."""
    size = hi - lo
    left = np.repeat(np.arange(len(lo)), size)
    # the k-th pair of i sits k places past i's first and has j = lo[i] + k
    right = np.arange(len(left)) + (lo - (np.cumsum(size) - size))[left]
    return left, right


def _cell_table(cell, ncx, ncy, torus):
    """Rows [start, end) of every padded cell's points, given the sorted
    padded cell id of each point. Past an open box the padding cells hold no
    points; on a torus they hold the ranges of the cells they wrap onto."""
    counts = np.bincount(cell, minlength=(ncx + 2) * (ncy + 1))
    table = np.empty((2, len(counts)), dtype=np.int64)
    np.cumsum(counts, out=table[1])
    np.subtract(table[1], counts, out=table[0])
    if torus:
        grid = table.reshape(2, ncy + 1, ncx + 2)
        grid[:, :ncy, 0] = grid[:, :ncy, ncx]
        grid[:, :ncy, ncx + 1] = grid[:, :ncy, 1]
        grid[:, ncy] = grid[:, 0]
    return table


def _candidate_pairs(cell, ncx, ncy, torus):
    """Cell-sorted positions of candidate pairs: each point with the later
    points of its own cell, then with the whole cell at each half-offset.

    cell holds each point's padded cell id in sorted order. A grid of at most
    4n + 64 padded cells reads every range from ``_cell_table`` by the id.
    A larger grid searches the neighbor among the occupied cells instead, once
    per occupied cell. That path exists only because the table of a huge
    sparse grid would not fit in memory, while cells coarse enough for it would
    pair every point of a dense patch with all the others."""
    n = len(cell)
    stride = ncx + 2
    # on a 1-cell torus axis a step wraps onto the cell itself, whose pairs
    # the own-cell ranges already have
    steps = [dy * stride + dx for dx, dy in _HALF_OFFSETS
             if not (torus and (dx == 0 or ncx == 1) and (dy == 0 or ncy == 1))]
    if stride * (ncy + 1) <= 4 * n + 64:
        start, end = _cell_table(cell, ncx, ncy, torus)
        yield _range_pairs(np.arange(1, n + 1), end[cell])
        for step in steps:
            nid = cell + step
            yield _range_pairs(start[nid], end[nid])
        return
    # one run of equal ids per occupied cell; run[i] is point i's run
    first = np.diff(cell, prepend=-1) != 0
    start = np.flatnonzero(first)
    end = np.append(start[1:], n)
    run = np.cumsum(first) - 1
    yield _range_pairs(np.arange(1, n + 1), end[run])
    rcell = cell[start]
    for step in steps:
        nid = rcell + step
        if torus:
            # a padding cell stands for the cell it wraps onto
            col = nid % stride
            nid[col == 0] += ncx
            nid[col == ncx + 1] -= ncx
            nid[nid >= ncy * stride] -= ncy * stride
        pos = np.minimum(np.searchsorted(rcell, nid), len(rcell) - 1)
        # an unoccupied neighbor, a padding cell off a torus included, gives
        # an empty range
        hit = rcell[pos] == nid
        yield _range_pairs(np.where(hit, start[pos], 0)[run], np.where(hit, end[pos], 0)[run])


def build_graph(points: PointSet, radius: float = 1.0) -> SpatialGraph:
    """Connect every pair of points at distance <= radius."""
    if not (radius > 0 and np.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    region = points.region
    n = len(points)
    torus = region.boundary == TORUS
    # at most 2**31 cells per axis keep padded cell ids within int64; fewer
    # cells are only larger, which the 3x3 scan still covers
    ncx = max(1, int(min(region.width / radius, 2**31)))
    ncy = max(1, int(min(region.height / radius, 2**31)))
    coords = points.coordinates
    # by the cell side, as nc / side overflows on a side below about 5.6e-309
    ix = np.minimum((coords[:, 0] / (region.width / ncx)).astype(np.int64), ncx - 1)
    iy = np.minimum((coords[:, 1] / (region.height / ncy)).astype(np.int64), ncy - 1)
    # padded ids: one empty column on each side and one row on top, so every
    # half-offset of a cell is the cell's id plus a constant
    cell = iy * (ncx + 2) + ix + 1
    del ix, iy

    order = np.argsort(cell.astype(np.min_scalar_type((ncx + 2) * (ncy + 1) - 1)), kind="stable")
    x, y = coords[order].T.copy()

    # distances in units of 2**-shift, with the radius in [1, 2): scaling by
    # a power of two is exact, so r2 never leaves the normal floats and the
    # test is the plain one wherever radius**2 is a normal float
    shift = 1 - math.frexp(radius)[1]
    r2 = math.ldexp(radius, shift) ** 2
    # keys min(a, b) << bits | max(a, b) sort lexicographically
    bits = max(1, (n - 1).bit_length())
    keys = []
    # a scaled or squared distance past the float range is inf, not within radius
    with np.errstate(over="ignore"):
        for left, right in _candidate_pairs(cell[order], ncx, ncy, torus):
            # squared distances in place; off a torus squaring drops the sign
            dx = x[left]
            dx -= x[right]
            dy = y[left]
            dy -= y[right]
            if torus:
                np.abs(dx, out=dx)
                np.minimum(dx, region.width - dx, out=dx)
                np.abs(dy, out=dy)
                np.minimum(dy, region.height - dy, out=dy)
            if shift:
                np.ldexp(dx, shift, out=dx)
                np.ldexp(dy, shift, out=dy)
            dx *= dx
            dy *= dy
            dx += dy
            close = (dx <= r2).nonzero()[0]
            # free this chunk's arrays before the generator makes the next one's
            del dx, dy
            a = order[left[close]]
            b = order[right[close]]
            del left, right, close
            key = np.minimum(a, b)
            key <<= bits
            key |= np.maximum(a, b, out=b)
            keys.append(key)
            del a, b
    key = np.concatenate(keys)
    del keys
    # wrap-around offsets revisit a cell pair only on a torus axis with < 3 cells
    if torus and min(ncx, ncy) < 3:
        key = np.unique(key)
    else:
        key.sort()

    pair = np.empty((2, len(key)), dtype=np.int64)
    np.right_shift(key, bits, out=pair[0])
    np.bitwise_and(key, (1 << bits) - 1, out=pair[1])
    del key
    degrees = np.bincount(pair[0], minlength=n) + np.bincount(pair[1], minlength=n)
    return SpatialGraph(points, float(radius), pair.T, degrees)


def _neighbor_counts(graph: SpatialGraph, mask: np.ndarray) -> np.ndarray:
    """Per node, how many of its neighbors lie in the boolean node mask."""
    u, v = graph.edges.T
    n = len(graph)
    return (np.bincount(v[mask[u].nonzero()[0]], minlength=n)
            + np.bincount(u[mask[v].nonzero()[0]], minlength=n))


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
    sharing it, so later sweeps visit only the edges still split. In the first
    sweep every node is its own root, so it hooks the larger end of each edge
    onto the smaller one directly, with no root gather and no compaction; a
    self-loop hooks a node onto itself and changes nothing. u and v are only
    read. A node on no edge is its own root.
    """
    root = np.arange(n)
    ru, rv = u, v
    while True:
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
        ru, rv = root[u], root[v]
        split = (ru != rv).nonzero()[0]
        if not split.size:
            return root
        # one array at a time, so only one old and new copy are alive together;
        # the roots first, as the caller holds the first u and v
        ru = ru[split]
        rv = rv[split]
        u = u[split]
        v = v[split]


def _alive_edges(u: np.ndarray, v: np.ndarray, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges (u[k], v[k]) with both ends alive."""
    both = (alive[u] & alive[v]).nonzero()[0]
    return u[both], v[both]


def _per_node(graph: SpatialGraph, values, dtype, what: str) -> np.ndarray:
    """values as an array of dtype, which must hold one entry per node."""
    values = np.asarray(values, dtype=dtype)
    n = len(graph)
    if values.shape != (n,):
        raise ValueError(f"{what} {values.shape} does not match node count {n}")
    return values


def components(graph: SpatialGraph, alive) -> ComponentLabeling:
    """Components of the alive nodes, numbered in the order of their smallest node."""
    n = len(graph)
    alive = _per_node(graph, alive, bool, "alive mask length")
    roots = _component_roots(n, *_alive_edges(*graph.edges.T, alive))
    # an alive component's root is its smallest node: rank them in node order
    rank = np.cumsum(alive & (roots == np.arange(n))) - 1
    labels = np.full(n, -1, dtype=np.int64)
    idx = alive.nonzero()[0]
    labels[idx] = rank[roots[idx]]
    sizes = np.bincount(labels[idx])
    if sizes.size:
        largest_id = int(np.argmax(sizes))
        largest_size = int(sizes[largest_id])
    else:
        largest_id = -1
        largest_size = 0
    return ComponentLabeling(labels, sizes.astype(np.int64), largest_id, largest_size)


def _strips(graph: SpatialGraph):
    """Masks of the nodes strictly within radius of the region's left edge
    (0 < x < r) and of its right edge (0 < width - x < r)."""
    region = graph.points.region
    if region.boundary == TORUS:
        raise ValueError("crossing is undefined on a torus region")
    x = graph.points.coordinates[:, 0]
    r = graph.radius
    return (x > 0) & (x < r), (region.width - x > 0) & (region.width - x < r)


def _spanning_roots(roots: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mask over node indices: the roots whose component has a start and an end node."""
    has_start = np.zeros(len(roots), dtype=bool)
    has_start[roots[start]] = True
    has_end = np.zeros(len(roots), dtype=bool)
    has_end[roots[end]] = True
    return has_start & has_end


def crosses(graph: SpatialGraph, alive) -> bool:
    """Whether the alive nodes cross the region left to right.

    A crossing is a connected sequence of alive nodes whose first node lies
    strictly within distance radius of the left edge (0 < x < r) and whose last
    node lies strictly within radius of the right edge (0 < width - x < r).
    """
    start, end = _strips(graph)
    alive = _per_node(graph, alive, bool, "alive mask length")
    start &= alive
    end &= alive
    if not start.any() or not end.any():
        return False
    roots = _component_roots(len(graph), *_alive_edges(*graph.edges.T, alive))
    return bool(_spanning_roots(roots, start, end).any())


def crossing_level(graph: SpatialGraph, weights) -> float | None:
    """Largest weight t whose survivors {weights >= t} cross the region left
    to right (see ``crosses``), or None when no survivor set does.

    Survivors only shrink as t grows, so they cross at t iff t <= the returned
    level. A binary search over the sorted weights finds it on a graph that
    shrinks at every step. Where the survivors at t cross, a crossing at any
    higher level lies within one of their crossing components, so every other
    node is dropped. Where they do not, each of their components stays
    connected at every lower level, so it is contracted to one node that
    carries its strip flags and the weight of its smallest node, which is at
    least t. Each step labels only the edges between the nodes left.
    """
    start, end = _strips(graph)
    weights = _per_node(graph, weights, np.float64, "weights length")
    if np.isnan(weights).any():
        raise ValueError("weights must not be NaN")

    # the reduced graph: node weights w, start and finish strip flags s and f,
    # edges (a, b)
    a, b = graph.edges.T
    w, s, f = weights, start, end
    levels = np.sort(w)
    lo, hi = -1, len(levels)  # crosses at levels[lo] if lo >= 0; not at levels[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        alive = w >= levels[mid]
        a_in, b_in = _alive_edges(a, b, alive)
        roots = _component_roots(len(w), a_in, b_in)
        spanning = _spanning_roots(roots, s & alive, f & alive)
        if spanning.any():
            lo = mid
            keep = alive & spanning[roots]
            # an edge of both alive ends joins one component: it stays iff its
            # a end is kept
            on = keep[a_in].nonzero()[0]
            index = np.cumsum(keep) - 1
            a, b = index[a_in[on]], index[b_in[on]]
            kept = keep.nonzero()[0]
            w, s, f = w[kept], s[kept], f[kept]
        else:
            hi = mid
            # a node not on a survivor edge is its own root
            rep = roots == np.arange(len(w))
            index = (np.cumsum(rep) - 1)[roots]
            a, b = index[a], index[b]
            split = (a != b).nonzero()[0]
            a, b = a[split], b[split]
            w = w[rep.nonzero()[0]]
            s = np.bincount(index[s], minlength=len(w)) > 0
            f = np.bincount(index[f], minlength=len(w)) > 0
    return None if lo < 0 else float(levels[lo])
