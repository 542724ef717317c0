import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geoperc.geometry import OPEN_BOX, TORUS, PointSet, Region, generate_poisson, generate_uniform
from geoperc.graph import (
    _cell_table,
    _component_roots,
    _range_pairs,
    build_graph,
    components,
    crosses,
    crossing_level,
)

from conftest import bfs_component_labels, bfs_crosses, brute_force_edges, neighbor_lists


def _graph_from_coords(coords, width=10.0, height=10.0, radius=1.0, boundary=OPEN_BOX):
    region = Region(width, height, boundary)
    pts = PointSet(np.asarray(coords, dtype=float), region)
    return build_graph(pts, radius)


def test_distance_ties_are_adjacent():
    g = _graph_from_coords([[1.0, 1.0], [2.0, 1.0]])
    assert g.edge_count == 1
    g = _graph_from_coords([[1.0, 1.0], [2.0001, 1.0]])
    assert g.edge_count == 0


def _assert_canonical_layout(g, pts, radius):
    """Edges equal the oracle's, sorted with u < v; degrees follow from them."""
    for name in ("edges", "degrees"):
        assert getattr(g, name).dtype == np.int64
    # u and v gather from contiguous columns
    assert g.edges[:, 0].flags.c_contiguous and g.edges[:, 1].flags.c_contiguous
    assert [tuple(e) for e in g.edges.tolist()] == sorted(brute_force_edges(pts, radius))
    assert g.degrees.tolist() == [len(a) for a in neighbor_lists(g)]


def test_invalid_radius_rejected():
    pts = generate_uniform(5, Region(5.0, 5.0), seed=1)
    with pytest.raises(ValueError):
        build_graph(pts, 0.0)


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_non_finite_radius_rejected(radius):
    pts = generate_uniform(5, Region(5.0, 5.0), seed=1)
    with pytest.raises(ValueError, match="finite"):
        build_graph(pts, radius)


def test_adjacency_matches_brute_force_oracle():
    pts = generate_uniform(200, Region(9.0, 9.0), seed=17)
    g = build_graph(pts, 1.0)
    assert {tuple(e) for e in g.edges.tolist()} == brute_force_edges(pts, 1.0)


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 120),
    boundary=st.sampled_from([OPEN_BOX, TORUS]),
    radius=st.floats(0.3, 2.5),
    width=st.floats(3.0, 12.0),
    height=st.floats(3.0, 12.0),
)
def test_grid_equals_brute_force_property(seed, n, boundary, radius, width, height):
    pts = generate_uniform(n, Region(width, height, boundary), seed=seed)
    _assert_canonical_layout(build_graph(pts, radius), pts, radius)


@pytest.mark.parametrize("boundary", [OPEN_BOX, TORUS])
@pytest.mark.parametrize("cells", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (2, 6), (3, 3)])
def test_tiny_grids_canonical_layout(cells, boundary):
    # radius 1 gives int(side) cells per axis; on a torus, wrap-around offsets
    # revisit cell pairs and map a 1-cell axis onto itself
    region = Region(cells[0] + 0.5, cells[1] + 0.5, boundary)
    for seed in range(4):
        pts = generate_uniform(50, region, seed=seed)
        _assert_canonical_layout(build_graph(pts, 1.0), pts, 1.0)


@pytest.mark.parametrize("cells", [(14, 15), (15, 15), (254, 255), (255, 255)],
                         ids=["uint8", "uint16-small", "uint16", "uint32"])
def test_cell_sort_key_type_boundaries(cells):
    # radius 1 gives int(side) cells per axis; cells sort by a key of the
    # narrowest unsigned type holding every padded id, up to
    # (ncx + 2) * (ncy + 1) - 1: 255, 271, 65535, 65791; the first two grids
    # read the cell table, the last two search the occupied cells
    width, height = cells[0] + 0.5, cells[1] + 0.5
    rng = np.random.default_rng(sum(cells))
    spread = rng.random((150, 2)) * (width, height)
    # a dense patch at the far corner holds the largest cell ids
    corner = (width, height) - 4.0 * (1.0 - rng.random((150, 2)))
    g = _graph_from_coords(np.vstack((spread, corner)), width, height)
    _assert_canonical_layout(g, g.points, 1.0)


# (cells per axis at radius 1, point count, path): a grid of at most 4n + 64
# padded cells, (ncx + 2) * (ncy + 1), reads the cell table, a larger one
# searches the occupied cells; each pair sits on either side of that bound
CANDIDATE_PATH_CASES = [
    ((20, 20), 100, "table"),  # 462 of 464
    ((21, 21), 100, "search"),  # 506
    ((1, 47), 20, "table"),  # 144 of 144
    ((1, 48), 20, "search"),  # 147
    ((70, 1), 20, "table"),  # 144
    ((71, 1), 20, "search"),  # 146
    ((2, 35), 20, "table"),  # 144
    ((2, 36), 20, "search"),  # 148
]


@pytest.mark.parametrize("boundary", [OPEN_BOX, TORUS])
@pytest.mark.parametrize("cells, n, path", CANDIDATE_PATH_CASES,
                         ids=[f"{c[0]}x{c[1]}-{path}" for c, _, path in CANDIDATE_PATH_CASES])
def test_both_candidate_paths_match_brute_force(monkeypatch, cells, n, path, boundary):
    tables = []

    def counting_cell_table(*args):
        tables.append(args)
        return _cell_table(*args)

    monkeypatch.setattr("geoperc.graph._cell_table", counting_cell_table)
    size = np.array(cells) + 0.5
    for seed in range(4):
        rng = np.random.default_rng(seed)
        # half the points sit within radius of a partner, across the region's
        # edges and corners for some of them
        base = rng.uniform(-1.0, 1.0, size=(n // 2, 2)) % size
        base[n // 4:] = rng.uniform(0.0, 1.0, size=(n // 2 - n // 4, 2)) * size
        coords = np.vstack((base, (base + rng.uniform(-0.7, 0.7, size=base.shape)) % size))
        pts = PointSet(coords, Region(*size, boundary))
        tables.clear()
        _assert_canonical_layout(build_graph(pts, 1.0), pts, 1.0)
        assert len(tables) == (path == "table")


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32),
    side=st.sampled_from([1e10, 1e12, 1e15]),
    boundary=st.sampled_from([OPEN_BOX, TORUS]),
)
def test_extreme_width_radius_ratio_matches_brute_force(seed, side, boundary):
    # (side / radius)**2 cells would overflow int64 cell ids
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.0, side, size=2)
    coords = np.clip(center + rng.uniform(-0.3, 0.3, size=(40, 2)), 0.0, side)
    pts = PointSet(coords, Region(side, side, boundary))
    _assert_canonical_layout(build_graph(pts, 0.1), pts, 0.1)


def test_numpy_scalar_sides_overflow_without_warning():
    # side / radius overflows to inf; on numpy scalars that would also warn
    side = np.float64(1e15)
    pts = PointSet(np.zeros((2, 2)), Region(side, side))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph(pts, 1e-300)
    assert g.edges.tolist() == [[0, 1]]


@pytest.mark.parametrize(
    "coords, region, radius, edges",
    [([[0.0, 0.0], [3e-300, 0.0]], Region(1.0, 1.0), 1e-300, []),
     ([[0.0, 0.0], [1e-300, 0.0]], Region(1.0, 1.0), 1e-300, [[0, 1]]),
     ([[0.5, 0.0], [0.5, 1.9e300]], Region(1.0, 1e308), 1e300, []),
     ([[0.5, 0.0], [0.5, 1e300]], Region(1.0, 1e308), 1e300, [[0, 1]])],
    ids=["3-radii-r2-underflows", "tie-r2-underflows", "1.9-radii-r2-overflows",
         "tie-r2-overflows"],
)
def test_extreme_radius_compares_distances_not_overflowed_squares(coords, region, radius, edges):
    # radius**2 is 0 at 1e-300 and inf at 1e300; distances in units of a
    # power of two near the radius keep every square in the float range
    assert build_graph(PointSet(coords, region), radius).edges.tolist() == edges


@pytest.mark.parametrize("boundary", [OPEN_BOX, TORUS])
def test_side_below_float_cell_scale(boundary):
    # cells per unit height, 1 / 5e-324, overflow to inf, and 0 * inf is a NaN
    # cell index; the cell side itself is a float
    pts = PointSet([[0.78, 0.0], [0.48, 5e-324], [0.1, 5e-324]], Region(1.0, 5e-324, boundary))
    _assert_canonical_layout(build_graph(pts, 1.0), pts, 1.0)


_SIDES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 25),
    boundary=st.sampled_from([OPEN_BOX, TORUS]),
    width=_SIDES,
    height=_SIDES,
    radius=_SIDES,
)
def test_any_sides_and_radius_match_exact_oracle(seed, n, boundary, width, height, radius):
    # the points sit in a window a few radii wide, so pairs near the radius
    # occur at every scale, and some get a partner one radius to the right
    rng = np.random.default_rng(seed)
    size = np.array([width, height])
    with np.errstate(over="ignore"):
        span = np.minimum(size, 4.0 * radius)
        coords = np.minimum(rng.random(2) * (size - span) + rng.random((n, 2)) * span, size)
        partners = coords[: n // 3] + (radius, 0.0)
    coords = np.vstack((coords, partners[partners[:, 0] <= width]))
    pts = PointSet(coords, Region(width, height, boundary))
    _assert_canonical_layout(build_graph(pts, radius), pts, radius)


def _sparse_region_points(case, seed, boundary):
    rng = np.random.default_rng(seed)
    if case == "spread":
        # 600 points over 1e4 x 1e4 at radius 1: each point has a partner
        # within radius, across the region's edges for the 30 at a corner
        side, radius = 1e4, 1.0
        base = rng.uniform(0.0, side, size=(300, 2))
        base[:30] %= 1.0
        coords = np.vstack((base, (base + rng.uniform(-0.5, 0.5, size=(300, 2))) % side))
    elif case == "cluster":
        # 600 points in the 11 x 11 corner of 1e4 x 1e4 at radius 1: ~5 points
        # a cell; one cell for the whole cluster would pair all of them
        side, radius = 1e4, 1.0
        coords = rng.uniform(0.0, 11.0, size=(600, 2))
    elif case == "overflow":
        # side / radius overflows a float; only coincident points and points
        # near the origin, where floats are dense, are within radius
        side, radius = 1e15, 1e-300
        sites = np.vstack((rng.uniform(0.0, side, size=(6, 2)), np.zeros((2, 2))))
        coords = sites[rng.integers(0, len(sites), size=30)]
        coords[:6, 0] += rng.choice([0.0, 5e-301, 1e-300, 3e-300], size=6)
    else:
        # 8 points at radius 1 on 1e3 x 1e3; the pairs straddle the region's
        # edges and corners
        side, radius = 1e3, 1.0
        base = rng.uniform(-1.0, 1.0, size=(4, 2)) % side
        coords = np.vstack((base, (base + rng.uniform(-0.6, 0.6, size=(4, 2))) % side))
    return PointSet(coords, Region(side, side, boundary)), radius


@pytest.mark.parametrize("boundary", [OPEN_BOX, TORUS])
@pytest.mark.parametrize("case", ["spread", "cluster", "overflow", "edge-pairs"])
def test_sparse_regions_match_brute_force(monkeypatch, case, boundary):
    # a region many radii wide, whatever width / radius is: the candidate
    # pairs stay a few per point wherever the points sit
    candidates = []

    def counting_range_pairs(lo, hi):
        candidates.append(int((hi - lo).sum()))
        return _range_pairs(lo, hi)

    monkeypatch.setattr("geoperc.graph._range_pairs", counting_range_pairs)
    for seed in range(3):
        pts, radius = _sparse_region_points(case, seed, boundary)
        candidates.clear()
        _assert_canonical_layout(build_graph(pts, radius), pts, radius)
        assert sum(candidates) < 30 * len(pts)


def test_graph_determinism(medium_graph):
    pts = generate_uniform(500, Region(14.0, 14.0), seed=99)
    again = build_graph(pts, 1.0)
    assert np.array_equal(again.edges, medium_graph.edges)
    assert np.array_equal(again.degrees, medium_graph.degrees)


def test_components_all_dead(medium_graph):
    empty = _graph_from_coords(np.empty((0, 2)))
    for g in (empty, medium_graph):
        lab = components(g, np.zeros(len(g), dtype=bool))
        assert lab.sizes.shape == (0,)
        assert lab.sizes.dtype == np.int64
        assert lab.largest_size == 0
        assert lab.largest_id == -1
        assert (lab.labels == -1).all()


def test_components_triangle():
    g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0], [1.25, 1.4]])
    lab = components(g, np.ones(3, dtype=bool))
    assert lab.largest_size == 3
    assert len(lab.sizes) == 1


def test_components_match_bfs_oracle(medium_graph):
    torus = build_graph(generate_uniform(300, Region(10.0, 10.0, TORUS), seed=3), 1.0)
    rng = np.random.default_rng(5)
    for g in (medium_graph, torus):
        for _ in range(5):
            alive = rng.random(len(g)) < 0.7
            lab = components(g, alive)
            # ids follow the smallest alive node of each component; dead nodes carry -1
            expected = bfs_component_labels(g, alive)
            assert lab.labels.tolist() == expected
            assert lab.sizes.tolist() == [expected.count(c) for c in range(len(lab.sizes))]
            assert lab.largest_size == max(lab.sizes)
            assert lab.largest_id == lab.sizes.tolist().index(lab.largest_size)


def _union_find_roots(n, edges):
    """Reference roots: plain union-find that hangs the larger root under the
    smaller, so each root is the smallest node of its component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(n)]


@st.composite
def _multigraphs(draw):
    """n nodes and an edge list with self-loops, repeats and both orientations."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if edges:
        edges += [(b, a) for a, b in draw(st.lists(st.sampled_from(edges), max_size=n))]
    return n, draw(st.permutations(edges))


@settings(max_examples=80)
@given(graph=_multigraphs())
@example(graph=(0, []))
@example(graph=(6, []))
def test_component_roots_match_union_find(graph):
    n, edges = graph
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    roots = _component_roots(n, u, v)
    assert roots.tolist() == _union_find_roots(n, edges)


def test_component_roots_never_writes_its_inputs(medium_graph):
    n = len(medium_graph)
    u, v = medium_graph.edges.T  # read-only views, as components passes them
    roots = _component_roots(n, u, v)
    # writable copies, shuffled and half reversed so that later sweeps run
    rng = np.random.default_rng(5)
    order = rng.permutation(len(u))
    flip = rng.random(len(u)) < 0.5
    a = np.where(flip, v, u)[order]
    b = np.where(flip, u, v)[order]
    a_before, b_before = a.copy(), b.copy()
    assert np.array_equal(_component_roots(n, a, b), roots)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def _traced_peak(func, *args):
    """func(*args) and the peak bytes it allocated beyond what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_graph_layer_peak_memory_guard():
    # numpy reports its buffers to tracemalloc, so these peaks repeat exactly;
    # in units of the edge array they read 2.42 (build_graph), 2.05
    # (components) and 2.07 (crosses), against over 3.4 when a sweep's root
    # gathers and compactions or the distance temporaries pile up
    points = generate_poisson(5.0, Region(40.0, 40.0), seed=3)
    graph, build_peak = _traced_peak(build_graph, points, 1.0)
    edge_bytes = graph.edges.nbytes
    alive = np.random.default_rng(3).random(len(graph)) < 0.9
    assert build_peak <= 3.0 * edge_bytes
    for func in (components, crosses):
        peak = _traced_peak(func, graph, alive)[1]
        assert peak <= 2.5 * edge_bytes, (func.__name__, peak / edge_bytes)


def test_components_mask_length_checked(medium_graph):
    message = re.escape("alive mask length (3,) does not match node count 500")
    for func in (components, crosses):
        with pytest.raises(ValueError, match=message):
            func(medium_graph, np.ones(3, dtype=bool))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.8, 3.0),
    side=st.floats(4.0, 14.0),
    survival=st.floats(0.5, 1.0),
)
def test_crosses_match_bfs_oracle(seed, lam, side, survival):
    g = build_graph(generate_poisson(lam, Region(side, side), seed=seed), 1.0)
    alive = np.random.default_rng(seed).random(len(g)) < survival
    assert crosses(g, alive) is bfs_crosses(g, alive)


def test_crosses_degenerate_graphs_match_bfs_oracle():
    empty = _graph_from_coords(np.empty((0, 2)))
    # a 5x5 lattice of spacing 2 has no edges at radius 1
    lattice = _graph_from_coords([[x, y] for x in range(1, 10, 2) for y in range(1, 10, 2)])
    assert lattice.edge_count == 0
    # isolated nodes each within radius of both edges of a narrow region
    column = _graph_from_coords([[0.75, y] for y in range(1, 10, 2)], width=1.5)
    assert column.edge_count == 0
    for g, expected in ((empty, False), (lattice, False), (column, True)):
        alive = np.ones(len(g), bool)
        assert crosses(g, alive) is bfs_crosses(g, alive) is expected


def _assert_crossing_level_matches_bfs(g, weights):
    level = crossing_level(g, weights)
    assert level is None or level in weights
    grid = [-np.inf, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, np.inf]
    if level is not None:
        grid += [level, np.nextafter(level, np.inf)]
    for t in grid:
        expected = bfs_crosses(g, weights >= t)
        assert (level is not None and t <= level) == expected, (t, level)
    return level


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(1.0, 4.0),
    side=st.floats(5.0, 14.0),
    tied=st.floats(0.0, 1.0),
)
def test_crossing_level_matches_bfs_oracle(seed, lam, side, tied):
    g = build_graph(generate_poisson(lam, Region(side, side), seed=seed), 1.0)
    rng = np.random.default_rng(seed)
    # a share `tied` of the weights comes from a few values, +-inf among them
    weights = np.where(
        rng.random(len(g)) < tied,
        rng.choice([-np.inf, 0.25, 0.5, 0.75, np.inf], len(g)),
        rng.random(len(g)),
    )
    _assert_crossing_level_matches_bfs(g, weights)


def test_crossing_level_degenerate_graphs():
    empty = _graph_from_coords(np.empty((0, 2)))
    lattice = _graph_from_coords([[x, y] for x in range(1, 10, 2) for y in range(1, 10, 2)])
    weights = np.random.default_rng(5).random(len(lattice))
    for g, w in ((empty, np.empty(0)), (lattice, weights)):
        assert _assert_crossing_level_matches_bfs(g, w) is None
    # one node within radius of both edges of a narrow region
    single = _graph_from_coords([[0.5, 5.0]], width=1.0)
    for w in (0.3, np.inf, -np.inf):
        assert _assert_crossing_level_matches_bfs(single, np.array([w])) == w


def test_crossing_level_rejects_bad_input():
    g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        crossing_level(g, np.array([0.5, np.nan]))
    message = re.escape("weights length (3,) does not match node count 2")
    with pytest.raises(ValueError, match=message):
        crossing_level(g, np.zeros(3))


def test_crosses_empty_graph():
    g = _graph_from_coords(np.empty((0, 2)))
    assert crosses(g, np.zeros(0, bool)) is False


def test_crosses_chain():
    xs = np.arange(0.5, 10.0, 0.9)
    coords = [[x, 5.0] for x in xs]
    g = _graph_from_coords(coords)
    alive = np.ones(len(coords), bool)
    assert crosses(g, alive) is True
    # killing a middle node breaks the crossing
    alive[4] = False
    assert crosses(g, alive) is False


def test_crosses_requires_strict_edge_clearance():
    # chain start exactly on the left edge fails 0 < x, and the next node
    # sits at distance exactly r from the edge, failing x < r
    coords = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
    g = _graph_from_coords(coords, width=2.5)
    alive = np.ones(3, bool)
    assert crosses(g, alive) is False
    # nudging the chain strictly inside restores the crossing
    coords = [[0.05, 5.0], [0.95, 5.0], [1.85, 5.0]]
    g = _graph_from_coords(coords, width=2.5)
    assert crosses(g, alive) is True


def test_crosses_single_node_wide_enough():
    # one node within radius of both edges of a narrow region
    g = _graph_from_coords([[0.5, 5.0]], width=1.0)
    assert crosses(g, np.ones(1, bool)) is True


def test_crosses_rejects_torus():
    g = _graph_from_coords([[1.0, 1.0]], boundary=TORUS)
    with pytest.raises(ValueError):
        crosses(g, np.ones(1, bool))
