"""Degree-dependent node failure processes.

A failure rule maps a node's degree in the ORIGINAL graph to a failure
probability q(k). Node i fails iff u_i < q(k_i), where u_i is the i-th value
of the counter-based uniform stream keyed by the seed. Sharing the stream
across rules gives an exact monotone coupling: pointwise larger q can only
kill more nodes under the same seed. ``experiments.run_sweep`` gives every
rule at one lambda the same trial graphs and failure seed. On a graph, a rule
whose q(k) is at least as large at every degree up to the maximum keeps a
subset of another rule's survivors, so a proxy hit at the harsher rule is a
hit at the milder one, and a miss at the milder one a miss at the harsher.
run_sweep labels only the rules these implications leave open, which leaves
every indicator exactly what labeling its rule would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SpatialGraph
from .seeding import generator_from_seed
from .theory import MU_C


class FailureRule:
    """Base class; subclasses provide q(k) and the degrees where it can change."""

    def probabilities(self, degrees) -> np.ndarray:
        raise NotImplementedError

    def step_degrees(self):
        """Ascending degrees such that q(k) is constant from each one up to
        the next and past the last, so q at them reads every step of q."""
        raise NotImplementedError

    def is_nondecreasing(self) -> bool:
        return bool((np.diff(self.probabilities(self.step_degrees())) >= 0).all())

    def is_nonincreasing(self) -> bool:
        return bool((np.diff(self.probabilities(self.step_degrees())) <= 0).all())

    def to_text(self) -> str:
        raise NotImplementedError


def _check_probability(value: float, what: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class IndependentFailure(FailureRule):
    """Every node fails with the same probability q, regardless of degree."""

    q: float

    def __post_init__(self):
        _check_probability(self.q, "failure probability")

    def probabilities(self, degrees) -> np.ndarray:
        return np.full(np.shape(degrees), self.q, dtype=np.float64)

    def step_degrees(self):
        return [0]

    def to_text(self) -> str:
        return f"indep:{self.q!r}"


@dataclass(frozen=True)
class DegreeFunctionFailure(FailureRule):
    """Tabulated q(k) for k = 0..K, with a constant tail for k > K."""

    table: tuple[float, ...]
    tail: float

    def __post_init__(self):
        if len(self.table) == 0:
            raise ValueError("degree table must be non-empty")
        for k, q in enumerate(self.table):
            _check_probability(q, f"table[{k}]")
        _check_probability(self.tail, "tail")
        object.__setattr__(self, "table", tuple(float(q) for q in self.table))

    def probabilities(self, degrees) -> np.ndarray:
        k = np.asarray(degrees, dtype=np.int64)
        arr = np.asarray(self.table, dtype=np.float64)
        out = np.where(k < len(arr), arr[np.minimum(k, len(arr) - 1)], self.tail)
        return out.astype(np.float64)

    def step_degrees(self):
        return range(len(self.table) + 1)

    def to_text(self) -> str:
        entries = ",".join(repr(q) for q in self.table)
        return f"table:{entries};tail={self.tail!r}"


@dataclass(frozen=True)
class ThresholdAttack(FailureRule):
    """Destroy every node whose degree is strictly greater than phi."""

    phi: int

    def __post_init__(self):
        if self.phi < 0:
            raise ValueError(f"attack threshold must be non-negative, got {self.phi}")

    def probabilities(self, degrees) -> np.ndarray:
        return (np.asarray(degrees) > self.phi).astype(np.float64)

    def step_degrees(self):
        return [self.phi, self.phi + 1]

    def to_text(self) -> str:
        return f"attack:{self.phi}"


def parse_rule(text: str) -> FailureRule:
    """Parse the compact CLI form: 'indep:0.3', 'attack:4', 'table:q0,q1;tail=t'."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"failure rule {text!r} is missing a ':' separator")
    try:
        if kind == "indep":
            return IndependentFailure(float(body))
        if kind == "attack":
            return ThresholdAttack(int(body))
        if kind == "table":
            entries, _, tail_part = body.partition(";")
            table = tuple(float(v) for v in entries.split(",") if v != "")
            if tail_part:
                key, _, val = tail_part.partition("=")
                if key != "tail":
                    raise ValueError(f"unknown table option {key!r}")
                tail = float(val)
            else:
                tail = table[-1] if table else 0.0
            return DegreeFunctionFailure(table, tail)
    except ValueError as exc:
        raise ValueError(f"invalid failure rule {text!r}: {exc}") from exc
    raise ValueError(f"unknown failure rule kind {kind!r} (expected indep, attack, or table)")


def degree_margin_rule(mu: float, max_degree: int) -> DegreeFunctionFailure:
    """q(k) = max(0, 1 - mu_c/mu - 1/k) tabulated through max_degree.

    Leaves each degree-k node a survival probability of at least
    mu_c/mu + 1/k, which keeps the surviving density supercritical. q(0) is 0
    (isolated nodes never matter for components).
    """
    if mu <= 0:
        raise ValueError(f"mean degree must be positive, got {mu}")
    margin = 1.0 - MU_C / mu
    table = [0.0]
    for k in range(1, max_degree + 1):
        table.append(max(0.0, margin - 1.0 / k))
    return DegreeFunctionFailure(tuple(table), tail=max(0.0, margin))


@dataclass(frozen=True)
class FailureOutcome:
    alive: np.ndarray

    def __post_init__(self):
        self.alive.setflags(write=False)


def failure_uniforms(seed: int, n: int) -> np.ndarray:
    """The failure uniforms u_0 .. u_{n-1} keyed by seed: node i fails iff u_i < q."""
    return generator_from_seed(seed).random(n)


def apply_failures(graph: SpatialGraph, rule: FailureRule, seed: int) -> FailureOutcome:
    """Fail node i independently with probability q(original degree of i)."""
    uniforms = failure_uniforms(seed, len(graph))
    q = rule.probabilities(graph.degrees)
    alive = ~(uniforms < q)
    return FailureOutcome(alive)
