"""Threshold-driven cascading failures.

Each node i carries an i.i.d. threshold psi_i in (0, 1) and fails once the
fraction of its ORIGINAL neighbors that have failed reaches psi_i (>=, so a
vulnerable node with psi <= 1/k is triggered by a single failed neighbor).
Failures propagate in synchronous rounds from a single seed node; the dynamic
is monotone, so the final failed set is schedule-independent, and psi_i > 0, so
it is connected: every failed node but the seed has an earlier-failed neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SpatialGraph, _neighbor_counts, _per_node
from .seeding import generator_from_seed

_MASS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ThresholdDistribution:
    """Piecewise-constant density on (0, 1) with an exact piecewise-linear CDF.

    ``pieces`` are (start, end, density) triples partitioning (0, 1); the total
    mass must equal 1 within 1e-12. The CDF is 0 at and below 0 and 1 at and
    above 1.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        pieces = tuple((float(a), float(b), float(d)) for a, b, d in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("distribution needs at least one piece")
        for i, piece in enumerate(pieces):
            if not all(math.isfinite(v) for v in piece):
                raise ValueError(f"piece {i} has a non-finite start, end or density {piece}")
        if pieces[0][0] != 0.0:
            raise ValueError(f"first piece must start at 0, got {pieces[0][0]}")
        if pieces[-1][1] != 1.0:
            raise ValueError(f"last piece must end at 1, got {pieces[-1][1]}")
        for i, (a, b, d) in enumerate(pieces):
            if not a < b:
                raise ValueError(f"piece {i} has empty interval ({a}, {b}]")
            if d < 0:
                raise ValueError(f"piece {i} has negative density {d}")
            if i and pieces[i - 1][1] != a:
                raise ValueError(
                    f"piece {i} starts at {a} but the previous piece ends at {pieces[i - 1][1]}"
                )
        mass = sum(d * (b - a) for a, b, d in pieces)
        if not abs(mass - 1.0) <= _MASS_TOLERANCE:
            raise ValueError(f"total mass {mass} differs from 1 by more than {_MASS_TOLERANCE}")

    @classmethod
    def uniform(cls) -> "ThresholdDistribution":
        return cls(((0.0, 1.0, 1.0),))

    def cdf(self, x):
        """Exact CDF, valid for scalars and arrays."""
        xs = np.asarray(x, dtype=np.float64)
        starts = np.array([a for a, _, _ in self.pieces])
        ends = np.array([b for _, b, _ in self.pieces])
        dens = np.array([d for _, _, d in self.pieces])
        cum_before = np.concatenate(([0.0], np.cumsum(dens * (ends - starts))[:-1]))
        idx = np.clip(np.searchsorted(ends, xs, side="left"), 0, len(self.pieces) - 1)
        inner = cum_before[idx] + dens[idx] * (xs - starts[idx])
        out = np.where(xs <= 0.0, 0.0, np.where(xs >= 1.0, 1.0, inner))
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Inverse-CDF sampling of n thresholds; deterministic given seed."""
        gen = generator_from_seed(seed)
        u = gen.random(n)
        while (u == 0.0).any():  # keep psi strictly inside (0, 1)
            zero = u == 0.0
            u[zero] = gen.random(int(zero.sum()))
        positive = [(a, b, d * (b - a)) for a, b, d in self.pieces if d > 0]
        starts = np.array([a for a, _, _ in positive])
        widths = np.array([b - a for a, b, _ in positive])
        masses = np.array([m for _, _, m in positive])
        masses = masses / masses.sum()
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(positive) - 1)
        cum_before = np.concatenate(([0.0], cum[:-1]))
        frac = (u - cum_before[idx]) / masses[idx]
        psi = starts[idx] + frac * widths[idx]
        return np.clip(psi, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def parse_distribution(text: str) -> ThresholdDistribution:
    """Parse the CLI form 'pieces:start,end,density;start,end,density;...'."""
    kind, sep, body = text.partition(":")
    if not sep or kind != "pieces":
        raise ValueError(f"threshold distribution {text!r} must start with 'pieces:'")
    pieces = []
    for i, chunk in enumerate(body.split(";")):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ValueError(f"piece {i} of {text!r} is not a start,end,density triple")
        try:
            pieces.append(tuple(float(v) for v in parts))
        except ValueError as exc:
            raise ValueError(f"piece {i} of {text!r}: {exc}") from exc
    return ThresholdDistribution(tuple(pieces))


def distribution_to_text(dist: ThresholdDistribution) -> str:
    return "pieces:" + ";".join(f"{a!r},{b!r},{d!r}" for a, b, d in dist.pieces)


@dataclass(frozen=True)
class NodeClassification:
    """Boolean masks per node; the predicates overlap (a degree-1 node is both
    vulnerable and reliable), so they are exposed separately."""

    vulnerable: np.ndarray
    reliable: np.ndarray

    def __post_init__(self):
        self.vulnerable.setflags(write=False)
        self.reliable.setflags(write=False)


def classify(graph: SpatialGraph, thresholds: np.ndarray) -> NodeClassification:
    """Label nodes against their ORIGINAL degrees.

    vulnerable: k >= 1 and psi <= 1/k. reliable: k == 0 or psi > (k-1)/k.
    """
    psi = _per_node(graph, thresholds, np.float64, "threshold vector shape")
    k = graph.degrees
    safe_k = np.maximum(k, 1)
    vulnerable = (k >= 1) & (psi <= 1.0 / safe_k)
    reliable = (k == 0) | (psi > (k - 1) / safe_k)
    return NodeClassification(vulnerable, reliable)


@dataclass(frozen=True)
class CascadeState:
    """Full history of one cascade: per-round failure sets and the final mask."""

    failed: np.ndarray
    rounds: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.failed.setflags(write=False)
        for r in self.rounds:
            r.setflags(write=False)

    @property
    def failed_count(self) -> int:
        return int(self.failed.sum())


def run_cascade(graph: SpatialGraph, thresholds: np.ndarray, seed_node: int) -> CascadeState:
    """Synchronous rounds: round 0 fails the seed; afterwards every operational
    node whose failed-neighbor fraction reaches its threshold fails."""
    n = len(graph)
    psi = _per_node(graph, thresholds, np.float64, "threshold vector shape")
    if not 0 <= seed_node < n:
        raise ValueError(f"seed node {seed_node} outside [0, {n})")
    # a node that no failure has reached has fraction 0 and must stay up
    if not (psi > 0).all():
        i = int(np.argmin(psi > 0))
        raise ValueError(f"thresholds[{i}] = {psi[i]} is not positive")

    safe_k = np.maximum(graph.degrees, 1)
    failed = np.zeros(n, dtype=bool)
    failed[seed_node] = True
    newly = failed.copy()
    failed_nbrs = np.zeros(n, dtype=np.int64)
    rounds = [np.array([seed_node], dtype=np.int64)]
    while True:
        failed_nbrs += _neighbor_counts(graph, newly)
        newly = ~failed & (failed_nbrs / safe_k >= psi)
        if not newly.any():
            break
        failed |= newly
        rounds.append(np.flatnonzero(newly))
    return CascadeState(failed, tuple(rounds))


def isolated_reliable(graph: SpatialGraph, thresholds: np.ndarray) -> np.ndarray:
    """Mask of the reliable nodes with at least one neighbor, none reliable."""
    reliable = classify(graph, thresholds).reliable
    return reliable & (graph.degrees >= 1) & (_neighbor_counts(graph, reliable) == 0)


def isolated_reliable_count_check(graph: SpatialGraph, thresholds: np.ndarray) -> int:
    """Maximum over nodes of the number of isolated-reliable neighbors.

    Geometry caps this at 6: two neighbors in the same 60-degree sector of a
    node are themselves adjacent, and adjacent reliable nodes are not isolated.
    """
    return int(_neighbor_counts(graph, isolated_reliable(graph, thresholds)).max(initial=0))
