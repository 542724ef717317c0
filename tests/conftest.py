import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest

from geoperc import experiments
from geoperc.failures import apply_failures
from geoperc.geometry import Region, generate_poisson, generate_uniform
from geoperc.graph import build_graph, crossing_level
from geoperc.seeding import (
    STREAM_FAILURES,
    STREAM_PLACEMENT,
    derive_seed,
    generator_from_seed,
    substream,
)

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def brute_force_edges(points, radius):
    """All-pairs oracle for adjacency, honoring the torus metric, exact on the
    float coordinate differences at every radius: np.hypot(dx, dy) / radius
    decides the clear cases, and rational arithmetic the near-ties, so no
    square leaves the float range."""
    c = points.coordinates
    region = points.region
    dx = np.abs(c[:, None, 0] - c[None, :, 0])
    dy = np.abs(c[:, None, 1] - c[None, :, 1])
    if region.boundary == "torus":
        dx = np.minimum(dx, region.width - dx)
        dy = np.minimum(dy, region.height - dy)
    with np.errstate(over="ignore"):  # past the float range is inf, far outside
        ratio = np.hypot(dx, dy) / radius
    within = ratio < 1
    r2 = Fraction(radius) ** 2
    for i, j in zip(*(abs(ratio - 1) <= 1e-6).nonzero()):
        within[i, j] = Fraction(dx[i, j]) ** 2 + Fraction(dy[i, j]) ** 2 <= r2
    return set(zip(*(part.tolist() for part in np.triu(within, 1).nonzero())))


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


def bfs_crosses(graph, alive):
    """Reference crossing test: breadth-first search over the alive nodes from
    the strip within radius of the region's left edge to the one within radius
    of its right edge (both open)."""
    width = graph.points.region.width
    r = graph.radius
    start, end = set(), set()
    for i, x in enumerate(graph.points.coordinates[:, 0].tolist()):
        if alive[i] and 0 < x < r:
            start.add(i)
        if alive[i] and 0 < width - x < r:
            end.add(i)
    nbrs = neighbor_lists(graph)
    seen = set(start)
    queue = list(start)
    while queue:
        u = queue.pop()
        if u in end:
            return True
        for v in nbrs[u]:
            if alive[v] and v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def trial_graph(config, lam_index, trial_seed):
    """The whole graph of one harness trial, rebuilt from its trial seed."""
    lam = config.lambdas[lam_index] if config.lambdas else 0.0
    points = experiments.place_points(trial_seed, config.region, config.n, lam)
    return build_graph(points, config.radius)


def per_rule_sweep(config):
    """A failure sweep's points as (params, estimate), lambda-major then rule,
    with every rule failed and labeled on every trial graph: each trial is
    replayed from its placement and failure substreams, with no rule's
    indicator implied by another's."""
    points = []
    for i, lam in enumerate(config.lambdas):
        graphs = []
        for t in range(config.trials):
            seed = derive_seed(config.base_seed, i, t, config.trials)
            placed = generate_poisson(lam, config.region, substream(seed, STREAM_PLACEMENT))
            graphs.append((seed, build_graph(placed, config.radius)))
        for rule in config.rules:
            hits = 0.0
            for seed, graph in graphs:
                alive = apply_failures(graph, rule, substream(seed, STREAM_FAILURES)).alive
                hits += experiments._proxy_indicator(config, graph, alive)
            points.append(({"lambda": lam, "rule": rule.to_text()}, hits / config.trials))
    return points


def whole_graph_critical_q(graph, failure_seed):
    """Largest q at which the survivors of IndependentFailure(q) still cross,
    or -inf when the intact graph does not cross.

    apply_failures keeps node i iff u_i >= q, with u drawn from failure_seed, so
    survivors only shrink as q grows: the graph crosses at q iff q <= q*. The
    survivor set changes only at the u_i, so q* is the crossing level of the
    weights u.
    """
    u = generator_from_seed(failure_seed).random(len(graph))
    level = crossing_level(graph, u)
    return -math.inf if level is None else level


@pytest.fixture(scope="session")
def medium_graph():
    pts = generate_uniform(500, Region(14.0, 14.0), seed=99)
    return build_graph(pts, 1.0)
