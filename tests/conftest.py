import hypothesis
import numpy as np
import pytest

from geoperc.geometry import Region, generate_uniform
from geoperc.graph import build_graph

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def brute_force_edges(points, radius):
    """All-pairs oracle for adjacency, honoring the torus metric."""
    c = points.coordinates
    n = len(c)
    region = points.region
    dx = np.abs(c[:, None, 0] - c[None, :, 0])
    dy = np.abs(c[:, None, 1] - c[None, :, 1])
    if region.boundary == "torus":
        dx = np.minimum(dx, region.width - dx)
        dy = np.minimum(dy, region.height - dy)
    d2 = dx * dx + dy * dy
    return {
        (i, j) for i in range(n) for j in range(i + 1, n) if d2[i, j] <= radius * radius
    }


def neighbor_lists(graph):
    """Plain-Python adjacency lists from the edge list, each ascending."""
    nbrs = [[] for _ in range(len(graph))]
    for u, v in graph.edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(a) for a in nbrs]


def bfs_component_labels(graph, alive):
    """Reference labels via plain breadth-first search: components numbered in
    the order of their smallest alive node, -1 on dead nodes."""
    n = len(graph)
    nbrs = neighbor_lists(graph)
    labels = [-1] * n
    count = 0
    for s in range(n):
        if labels[s] >= 0 or not alive[s]:
            continue
        queue = [s]
        labels[s] = count
        while queue:
            u = queue.pop()
            for v in nbrs[u]:
                if alive[v] and labels[v] < 0:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return labels


def bfs_component_sizes(graph, alive):
    """Reference component sizes via plain breadth-first search."""
    labels = bfs_component_labels(graph, alive)
    return sorted(labels.count(c) for c in range(max(labels, default=-1) + 1))


def bfs_crosses(graph, alive, rect, direction):
    """Reference crossing test: breadth-first search over the alive nodes inside
    rect, from the start strip to the end strip (both open, of width radius)."""
    x1, y1, x2, y2 = rect
    r = graph.radius
    inside, start, end = set(), set(), set()
    for i, (x, y) in enumerate(graph.points.coordinates.tolist()):
        if not (alive[i] and x1 <= x <= x2 and y1 <= y <= y2):
            continue
        inside.add(i)
        c, lo, hi = (x, x1, x2) if direction == "left-right" else (y, y1, y2)
        if 0 < c - lo < r:
            start.add(i)
        if 0 < hi - c < r:
            end.add(i)
    nbrs = neighbor_lists(graph)
    seen = set(start)
    queue = list(start)
    while queue:
        u = queue.pop()
        if u in end:
            return True
        for v in nbrs[u]:
            if v in inside and v not in seen:
                seen.add(v)
                queue.append(v)
    return False


@pytest.fixture(scope="session")
def medium_graph():
    pts = generate_uniform(500, Region(14.0, 14.0), seed=99)
    return build_graph(pts, 1.0)
