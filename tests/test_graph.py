import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoperc.geometry import OPEN_BOX, TORUS, PointSet, Region, generate_poisson, generate_uniform
from geoperc.graph import build_graph, components, crosses, crossing_level

from conftest import bfs_component_labels, bfs_crosses, brute_force_edges, neighbor_lists


def _graph_from_coords(coords, width=10.0, height=10.0, radius=1.0, boundary=OPEN_BOX):
    region = Region(width, height, boundary)
    pts = PointSet(np.asarray(coords, dtype=float), region, len(coords) / region.area)
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
    pts = PointSet(coords, Region(side, side, boundary), len(coords) / side**2)
    _assert_canonical_layout(build_graph(pts, 0.1), pts, 0.1)


def test_graph_determinism(medium_graph):
    pts = generate_uniform(500, Region(14.0, 14.0), seed=99)
    again = build_graph(pts, 1.0)
    assert np.array_equal(again.edges, medium_graph.edges)
    assert np.array_equal(again.degrees, medium_graph.degrees)


def test_components_all_dead(medium_graph):
    lab = components(medium_graph, np.zeros(len(medium_graph), dtype=bool))
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


def test_components_mask_length_checked(medium_graph):
    with pytest.raises(ValueError):
        components(medium_graph, np.ones(3, dtype=bool))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.8, 3.0),
    side=st.floats(4.0, 14.0),
    survival=st.floats(0.5, 1.0),
)
def test_crosses_match_bfs_oracle(seed, lam, side, survival):
    g = build_graph(generate_poisson(lam, Region(side, side), seed=seed), 1.0)
    rng = np.random.default_rng(seed)
    alive = rng.random(len(g)) < survival
    (x1, x2), (y1, y2) = np.sort(rng.uniform(0.0, side, (2, 2)), axis=1)
    for rect in ((0.0, 0.0, side, side), (x1, y1, x2, y2)):
        for direction in ("left-right", "top-bottom"):
            expected = bfs_crosses(g, alive, rect, direction)
            assert crosses(g, alive, rect, direction) is expected


def test_crosses_degenerate_graphs_match_bfs_oracle():
    empty = _graph_from_coords(np.empty((0, 2)))
    # a 5x5 lattice of spacing 2 has no edges at radius 1
    lattice = _graph_from_coords([[x, y] for x in range(1, 10, 2) for y in range(1, 10, 2)])
    assert lattice.edge_count == 0
    rects = ((0, 0, 10, 10), (0.5, 0.5, 1.5, 9.5), (2.5, 0, 3.5, 10), (0, 4.2, 10, 5.8))
    for g in (empty, lattice):
        alive = np.ones(len(g), bool)
        for rect in rects:
            for direction in ("left-right", "top-bottom"):
                assert crosses(g, alive, rect, direction) is bfs_crosses(g, alive, rect, direction)


def _assert_crossing_level_matches_bfs(g, weights, rect, direction):
    level = crossing_level(g, weights, rect, direction)
    assert level is None or level in weights
    grid = [-np.inf, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, np.inf]
    if level is not None:
        grid += [level, np.nextafter(level, np.inf)]
    for t in grid:
        expected = bfs_crosses(g, weights >= t, rect, direction)
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
    (x1, x2), (y1, y2) = np.sort(rng.uniform(0.0, side, (2, 2)), axis=1)
    for rect in ((0.0, 0.0, side, side), (x1, y1, x2, y2)):
        for direction in ("left-right", "top-bottom"):
            _assert_crossing_level_matches_bfs(g, weights, rect, direction)


def test_crossing_level_degenerate_graphs():
    empty = _graph_from_coords(np.empty((0, 2)))
    lattice = _graph_from_coords([[x, y] for x in range(1, 10, 2) for y in range(1, 10, 2)])
    weights = np.random.default_rng(5).random(len(lattice))
    for g, w in ((empty, np.empty(0)), (lattice, weights)):
        for direction in ("left-right", "top-bottom"):
            assert _assert_crossing_level_matches_bfs(g, w, (0, 0, 10, 10), direction) is None
    # one node within radius of both edges of a narrow rectangle
    single = _graph_from_coords([[1.0, 5.0]], width=1.5)
    for w in (0.3, np.inf, -np.inf):
        rect = (0.5, 0, 1.5, 10)
        assert _assert_crossing_level_matches_bfs(single, np.array([w]), rect, "left-right") == w


def test_crossing_level_rejects_bad_input():
    g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        crossing_level(g, np.array([0.5, np.nan]), (0, 0, 10, 10))
    with pytest.raises(ValueError, match="length"):
        crossing_level(g, np.zeros(3), (0, 0, 10, 10))


def test_crosses_empty_graph():
    g = _graph_from_coords(np.empty((0, 2)))
    assert crosses(g, np.zeros(0, bool), (0, 0, 10, 10)) is False


def test_crosses_chain():
    xs = np.arange(0.5, 10.0, 0.9)
    coords = [[x, 5.0] for x in xs]
    g = _graph_from_coords(coords)
    alive = np.ones(len(coords), bool)
    assert crosses(g, alive, (0, 0, 10, 10), "left-right") is True
    # same chain does not cross top to bottom
    assert crosses(g, alive, (0, 0, 10, 10), "top-bottom") is False
    # killing a middle node breaks the crossing
    alive[4] = False
    assert crosses(g, alive, (0, 0, 10, 10), "left-right") is False


def test_crosses_requires_strict_edge_clearance():
    # chain start exactly on the left edge fails 0 < x - x1, and the next node
    # sits at distance exactly r from the edge, failing x - x1 < r
    coords = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
    g = _graph_from_coords(coords, width=2.5)
    alive = np.ones(3, bool)
    assert crosses(g, alive, (0, 0, 2.5, 10), "left-right") is False
    # nudging the chain strictly inside restores the crossing
    coords = [[0.05, 5.0], [0.95, 5.0], [1.85, 5.0]]
    g = _graph_from_coords(coords, width=2.5)
    assert crosses(g, alive, (0, 0, 2.5, 10), "left-right") is True


def test_crosses_single_node_wide_enough():
    # one node within radius of both edges of a narrow rectangle
    g = _graph_from_coords([[1.0, 5.0]], width=1.5)
    assert crosses(g, np.ones(1, bool), (0.5, 0, 1.5, 10), "left-right") is True


def test_crosses_rejects_torus():
    g = _graph_from_coords([[1.0, 1.0]], boundary=TORUS)
    with pytest.raises(ValueError):
        crosses(g, np.ones(1, bool), (0, 0, 10, 10))


def test_crosses_rejects_bad_rect():
    g = _graph_from_coords([[1.0, 1.0]])
    with pytest.raises(ValueError):
        crosses(g, np.ones(1, bool), (0, 0, 11, 10))
    with pytest.raises(ValueError):
        crosses(g, np.ones(1, bool), (5, 0, 5, 10))


def test_crosses_subrectangle():
    # a, c sit near the rect edges; b is the only connector
    coords = [[2.7, 5.0], [3.25, 5.7], [3.8, 5.0]]
    g = _graph_from_coords(coords)
    alive = np.ones(3, bool)
    assert crosses(g, alive, (2.5, 4.0, 4.0, 6.0), "left-right") is True
    # shrinking the rect pushes b outside; the remaining nodes are not adjacent
    assert crosses(g, alive, (2.5, 4.0, 4.0, 5.5), "left-right") is False
