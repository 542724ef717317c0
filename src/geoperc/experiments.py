"""Monte Carlo harness: parameter sweeps, critical-point estimation, cascade trials.

Every trial draws its seed as splitmix64(splitmix64(base_seed) + lam_index *
trials + trial), so per-trial seeds are pairwise distinct within a sweep and
results are bit-reproducible. One trial loop builds one graph per (lambda,
trial); a failure sweep applies every rule to it with the same failure
uniforms, an exact coupling. Trials are reduced in (lambda, trial) order, so a
parallel executor would produce the same output as this serial one.

The critical-point estimators build one graph per trial and reduce it to one
critical value (Newman & Ziff, PRL 85, 4104 (2000)). Independent failure keeps
node i iff u_i >= q for one shared uniform u_i, so a trial crosses at q iff
q <= q*, its largest crossing q, which ``graph.crossing_level`` finds in one
shrinking binary search over the u_i. For the critical density, failure with
q = 1 - lam/lam_max thins a lam_max Poisson graph to a lam one, giving
lam* = lam_max (1 - q*). Each bisection evaluation is then the empirical CDF
of the per-trial values: common random numbers, no graph built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .cascade import (
    ThresholdDistribution,
    classify,
    distribution_to_text,
    parse_distribution,
    run_cascade,
)
from .failures import FailureRule, apply_failures, parse_rule
from .geometry import OPEN_BOX, Region, generate_poisson, generate_uniform
from .graph import SpatialGraph, _neighbor_counts, build_graph, components, crosses, crossing_level
from .seeding import (
    STREAM_FAILURES,
    STREAM_PLACEMENT,
    STREAM_SEED_NODE,
    STREAM_THRESHOLDS,
    derive_seed,
    generator_from_seed,
    substream,
)
from .theory import CriticalConstants, DEFAULT_CONSTANTS, SubcriticalDensityError

KINDS = ("percolation-sweep", "failure-sweep", "cascade-trial")
PROXIES = ("crossing", "giant-fraction")
SEEDINGS = ("random-node", "adjacent-to-largest-vulnerable-component")
COUNT_MODES = ("poisson", "fixed")


def _integer_field(doc: dict, name: str, default: int | None) -> int | None:
    """doc[name] as an int; NaN, infinities and non-integral values fail by name."""
    value = doc.get(name, default)
    if value is None or isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _typed(value, name: str, types, what: str):
    """value if it has one of the JSON types; otherwise an error naming the field.
    JSON true and false are not numbers, though Python's bool is an int."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float; an integer past the float range becomes inf,
    which the config's finiteness check then rejects by name."""
    try:
        return float(_typed(value, name, (int, float), "a finite number"))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    width: float
    height: float
    boundary: str = OPEN_BOX
    radius: float = 1.0
    lambdas: tuple[float, ...] = ()
    rules: tuple[FailureRule, ...] = ()
    distribution: ThresholdDistribution | None = None
    seeding: str = "random-node"
    trials: int = 100
    base_seed: int = 0
    proxy: str = "crossing"
    giant_threshold: float = 0.1
    count_mode: str = "poisson"
    n: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        numbers = {"width": self.width, "height": self.height, "radius": self.radius,
                   "giant_threshold": self.giant_threshold}
        numbers.update((f"lambdas[{i}]", lam) for i, lam in enumerate(self.lambdas))
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.proxy not in PROXIES:
            raise ValueError(f"proxy must be one of {PROXIES}, got {self.proxy!r}")
        if self.seeding not in SEEDINGS:
            raise ValueError(f"seeding must be one of {SEEDINGS}, got {self.seeding!r}")
        if self.count_mode not in COUNT_MODES:
            raise ValueError(f"count_mode must be one of {COUNT_MODES}, got {self.count_mode!r}")
        if self.kind in ("percolation-sweep", "failure-sweep") and not self.lambdas:
            raise ValueError(f"{self.kind} needs a non-empty lambda grid")
        if self.kind == "failure-sweep" and not self.rules:
            raise ValueError("failure-sweep needs a non-empty rule grid")
        if self.kind == "cascade-trial":
            if self.distribution is None:
                raise ValueError("cascade-trial needs a threshold distribution")
            if not self.lambdas and self.n is None:
                raise ValueError("cascade-trial needs a lambda value or an explicit n")

    @property
    def region(self) -> Region:
        return Region(self.width, self.height, self.boundary)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "region": {"width": self.width, "height": self.height, "boundary": self.boundary},
            "radius": self.radius,
            "lambdas": list(self.lambdas),
            "rules": [r.to_text() for r in self.rules],
            "distribution": None
            if self.distribution is None
            else distribution_to_text(self.distribution),
            "seeding": self.seeding,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "proxy": self.proxy,
            "giant_threshold": self.giant_threshold,
            "count_mode": self.count_mode,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError("experiment config must be a JSON object")
        region = _typed(doc.get("region", {}), "region", dict, "an object")
        lambdas = _typed(doc.get("lambdas", []), "lambdas", list, "a list")
        rules = _typed(doc.get("rules", []), "rules", list, "a list")
        dist = doc.get("distribution")
        return cls(
            kind=doc.get("kind", ""),
            width=_number(region.get("width", 0.0), "width"),
            height=_number(region.get("height", 0.0), "height"),
            boundary=region.get("boundary", OPEN_BOX),
            radius=_number(doc.get("radius", 1.0), "radius"),
            lambdas=tuple(_number(v, f"lambdas[{i}]") for i, v in enumerate(lambdas)),
            rules=tuple(parse_rule(_typed(t, f"rules[{i}]", str, "a string"))
                        for i, t in enumerate(rules)),
            distribution=None if dist is None
            else parse_distribution(_typed(dist, "distribution", str, "a string")),
            seeding=doc.get("seeding", "random-node"),
            trials=_integer_field(doc, "trials", 100),
            base_seed=_integer_field(doc, "base_seed", 0),
            proxy=doc.get("proxy", "crossing"),
            giant_threshold=_number(doc.get("giant_threshold", 0.1), "giant_threshold"),
            count_mode=doc.get("count_mode", "poisson"),
            n=_integer_field(doc, "n", None),
        )


@dataclass(frozen=True)
class PointResult:
    params: dict
    estimate: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    points: tuple[PointResult, ...]


def _trial_graph(config: ExperimentConfig, lam_index: int, trial_seed: int) -> SpatialGraph:
    region = config.region
    placement_seed = substream(trial_seed, STREAM_PLACEMENT)
    lam = config.lambdas[lam_index] if config.lambdas else 0.0
    if config.count_mode == "fixed":
        n = config.n if config.n is not None else round(lam * region.area)
        pts = generate_uniform(n, region, placement_seed)
    else:
        pts = generate_poisson(lam, region, placement_seed)
    return build_graph(pts, config.radius)


def trial_seeds(config: ExperimentConfig, lam_index: int) -> list[int]:
    return [
        derive_seed(config.base_seed, lam_index, t, config.trials) for t in range(config.trials)
    ]


def _over_trials(config: ExperimentConfig, lam_index: int, evaluate) -> list:
    """evaluate(seed, graph) per trial at one lambda index, in order; one graph alive at a time."""
    return [evaluate(seed, _trial_graph(config, lam_index, seed))
            for seed in trial_seeds(config, lam_index)]


def _proxy_indicator(config: ExperimentConfig, graph: SpatialGraph, alive: np.ndarray) -> float:
    if len(graph) == 0:
        return 0.0
    if config.proxy == "crossing":
        rect = (0.0, 0.0, config.width, config.height)
        return 1.0 if crosses(graph, alive, rect, "left-right") else 0.0
    labeling = components(graph, alive)
    return 1.0 if labeling.largest_size >= config.giant_threshold * len(graph) else 0.0


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Per grid point (lambda-major, then rule): `trials` instances, aggregated
    to a Bernoulli estimate with its binomial standard error. All rules at one
    lambda share its trial graphs and failure uniforms."""
    if config.kind not in ("percolation-sweep", "failure-sweep"):
        raise ValueError(f"run_sweep does not handle kind {config.kind!r}")
    rules = config.rules if config.kind == "failure-sweep" else (None,)

    def indicators(seed: int, graph: SpatialGraph) -> list[float]:
        failure_seed = substream(seed, STREAM_FAILURES)
        return [
            _proxy_indicator(config, graph, np.ones(len(graph), dtype=bool) if rule is None
                             else apply_failures(graph, rule, failure_seed).alive)
            for rule in rules
        ]

    results = []
    for lam_index, lam in enumerate(config.lambdas):
        hits = np.sum(_over_trials(config, lam_index, indicators), axis=0)
        for rule, rule_hits in zip(rules, hits):
            params = {"lambda": lam} if rule is None else {"lambda": lam, "rule": rule.to_text()}
            est = float(rule_hits) / config.trials
            stderr = float(np.sqrt(est * (1.0 - est) / config.trials))
            results.append(PointResult(params, est, stderr, config.trials))
    return SweepResult(config, tuple(results))


MEDIAN_CI_LEVEL = 0.95


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _median_ci_rank(n: int) -> int | None:
    """Largest 0-based rank j with P(B <= j) <= (1 - MEDIAN_CI_LEVEL) / 2 for
    B ~ Binomial(n, 1/2), or None when even j = 0 is too likely.

    The sorted sample's values at ranks j and n - 1 - j then enclose the
    population median with probability at least MEDIAN_CI_LEVEL, whatever the
    distribution. Exact in integers: P(B <= j) = sum_{i <= j} C(n, i) / 2**n.
    """
    bound = (1 - Fraction(MEDIAN_CI_LEVEL)) / 2 * 2**n
    rank, term, mass = None, 1, 0
    for j in range(n):
        mass += term
        if mass > bound:
            return rank
        rank = j
        term = term * (n - j) // (j + 1)
    return rank


@dataclass(frozen=True)
class BisectionResult:
    """Bracketing interval from bisection plus every evaluation made, and the
    per-trial critical values (in trial order) that every evaluation reads."""

    low: float
    high: float
    evaluations: tuple[tuple[float, float], ...]  # (parameter, estimate)
    trials: int
    base_seed: int
    critical_values: tuple[float, ...]  # +-inf: the trial never crosses

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def median(self) -> float:
        return float(np.median(self.critical_values))

    @property
    def median_ci(self) -> tuple[float, float]:
        """Distribution-free MEDIAN_CI_LEVEL interval for the median; infinite
        bounds when there are too few trials for one."""
        rank = _median_ci_rank(len(self.critical_values))
        if rank is None:
            return (-math.inf, math.inf)
        ordered = sorted(self.critical_values)
        return (ordered[rank], ordered[-1 - rank])

    def to_dict(self) -> dict:
        ci_low, ci_high = self.median_ci
        return {
            "low": self.low,
            "high": self.high,
            "midpoint": self.midpoint,
            "evaluations": [list(e) for e in self.evaluations],
            "trials": self.trials,
            "base_seed": self.base_seed,
            "critical_values": [_finite_or_none(v) for v in self.critical_values],
            "median": _finite_or_none(self.median),
            "median_ci": {
                "level": MEDIAN_CI_LEVEL,
                "low": _finite_or_none(ci_low),
                "high": _finite_or_none(ci_high),
            },
        }


def _critical_q(graph: SpatialGraph, failure_seed: int, rect) -> float:
    """Largest q at which the survivors of IndependentFailure(q) still cross rect
    left-right, or -inf when the intact graph does not cross.

    apply_failures keeps node i iff u_i >= q, with u drawn from failure_seed, so
    survivors only shrink as q grows: the graph crosses at q iff q <= q*. The
    survivor set changes only at the u_i, so q* is the crossing level of the
    weights u.
    """
    u = generator_from_seed(failure_seed).random(len(graph))
    level = crossing_level(graph, u, rect, "left-right")
    return -math.inf if level is None else level


def _trial_critical_qs(config: ExperimentConfig) -> np.ndarray:
    """q* of the trial graph at config.lambdas[0] per trial, in trial order."""
    rect = (0.0, 0.0, config.width, config.height)
    return np.array(_over_trials(
        config, 0, lambda seed, graph: _critical_q(graph, substream(seed, STREAM_FAILURES), rect)
    ))


def _bisect(p, lo: float, hi: float, target_width: float, rising: bool):
    """Bisect to where p crosses 1/2; p must rise (or fall) across [lo, hi].

    Returns the final bracket and every (parameter, p) evaluated, in order.
    Stops early when lo and hi are adjacent floats, where no midpoint is left.
    """
    evals = []

    def evaluate(x: float) -> float:
        evals.append((x, p(x)))
        return evals[-1][1]

    p_lo = evaluate(lo)
    p_hi = evaluate(hi)
    if not (p_lo < 0.5 < p_hi if rising else p_lo > 0.5 > p_hi):
        raise ValueError(
            f"initial bracket does not straddle the transition: "
            f"p({lo})={p_lo}, p({hi})={p_hi}"
        )
    while hi - lo > target_width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (evaluate(mid) < 0.5) == rising:
            lo = mid
        else:
            hi = mid
    return lo, hi, tuple(evals)


def _estimator_config(lam: float, side: float, radius: float, trials: int, base_seed: int):
    """The trial graphs of an estimator: one Poisson graph at density lam per trial."""
    return ExperimentConfig(
        kind="percolation-sweep",
        width=side,
        height=side,
        radius=radius,
        lambdas=(lam,),
        trials=trials,
        base_seed=base_seed,
    )


def estimate_lambda_c(
    side: float = 50.0,
    radius: float = 1.0,
    trials: int = 200,
    base_seed: int = 0,
    bracket: tuple[float, float] = (1.0, 2.0),
    target_width: float = 0.02,
) -> BisectionResult:
    """Bisect the density at which the left-right crossing probability is 1/2.

    Each trial builds one graph at lam_max = bracket[1]. Independent failure
    with q = 1 - lam/lam_max thins it to exactly a density-lam Poisson graph,
    so the trial crosses at lam iff lam >= lam* = lam_max (1 - q*). The region
    side must be at least 50 radii; the returned interval has width at most
    target_width and brackets the empirical transition point.
    """
    if side < 50.0 * radius:
        raise ValueError(f"region side {side} must be at least 50 radii ({50.0 * radius})")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket {bracket} is not an interval")
    if not target_width > 0:
        raise ValueError(f"target_width must be positive, got {target_width}")
    q_star = _trial_critical_qs(_estimator_config(hi, side, radius, trials, base_seed))
    low, high, evals = _bisect(
        lambda lam: float(np.mean(1.0 - lam / hi <= q_star)), lo, hi, target_width, rising=True
    )
    lam_star = tuple((hi * (1.0 - q_star)).tolist())
    return BisectionResult(low, high, evals, trials, base_seed, lam_star)


def estimate_qc(
    lam: float,
    side: float = 50.0,
    radius: float = 1.0,
    trials: int = 100,
    base_seed: int = 0,
    bracket: tuple[float, float] = (0.0, 1.0),
    target_width: float = 0.02,
    constants: CriticalConstants = DEFAULT_CONSTANTS,
) -> BisectionResult:
    """Bisect the independent-failure probability at which crossing drops to 1/2.

    Each trial builds one graph and crosses at q iff q <= its q*.
    """
    if lam <= constants.lambda_c:
        raise SubcriticalDensityError(
            f"lambda={lam} is not above the critical density {constants.lambda_c}"
        )
    lo, hi = bracket
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bracket {bracket} is not an interval inside [0, 1]")
    if not target_width > 0:
        raise ValueError(f"target_width must be positive, got {target_width}")
    q_star = _trial_critical_qs(_estimator_config(lam, side, radius, trials, base_seed))
    low, high, evals = _bisect(
        lambda q: float(np.mean(q <= q_star)), lo, hi, target_width, rising=False
    )
    return BisectionResult(low, high, evals, trials, base_seed, tuple(q_star.tolist()))


@dataclass(frozen=True)
class CascadeTrialRecord:
    trial_seed: int
    feasible: bool
    seed_node: int | None
    largest_vulnerable_fraction: float
    failed_count: int
    failed_fraction: float
    rounds: int
    largest_failed_fraction: float
    seed_in_largest_failed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def run_cascade_trial(
    config: ExperimentConfig, trial_seed: int, graph: SpatialGraph | None = None
) -> CascadeTrialRecord:
    """One cascade instance: build the trial graph (unless given), sample
    thresholds, pick a seed node per the seeding policy, run the cascade,
    report spread metrics.

    With adjacent seeding the seed is drawn from the nodes outside the largest
    vulnerable component that have a neighbor inside it (falling back to a node
    of the component when no such node exists); if there are no vulnerable
    nodes at all, the trial is recorded as infeasible rather than failed.
    """
    if config.distribution is None:
        raise ValueError("cascade trials need a threshold distribution")
    if graph is None:
        graph = _trial_graph(config, 0, trial_seed)
    n = len(graph)
    if n == 0:
        return CascadeTrialRecord(trial_seed, False, None, 0.0, 0, 0.0, 0, 0.0, False)

    psi = config.distribution.sample(n, substream(trial_seed, STREAM_THRESHOLDS))
    labeling = components(graph, classify(graph, psi).vulnerable)
    largest_vuln_fraction = labeling.largest_size / n

    gen = generator_from_seed(substream(trial_seed, STREAM_SEED_NODE))
    if config.seeding == "random-node":
        seed_node = int(gen.integers(n))
    else:
        if labeling.largest_size == 0:
            return CascadeTrialRecord(trial_seed, False, None, 0.0, 0, 0.0, 0, 0.0, False)
        in_comp = labeling.labels == labeling.largest_id
        candidates = np.flatnonzero((_neighbor_counts(graph, in_comp) > 0) & ~in_comp)
        if candidates.size == 0:
            candidates = np.flatnonzero(in_comp)
        seed_node = int(candidates[gen.integers(len(candidates))])

    state = run_cascade(graph, psi, seed_node)
    failed_labeling = components(graph, state.failed)
    largest_failed_fraction = failed_labeling.largest_size / n
    seed_in_largest = bool(
        failed_labeling.largest_size > 0
        and failed_labeling.labels[seed_node] == failed_labeling.largest_id
    )
    return CascadeTrialRecord(
        trial_seed=trial_seed,
        feasible=True,
        seed_node=seed_node,
        largest_vulnerable_fraction=largest_vuln_fraction,
        failed_count=state.failed_count,
        failed_fraction=state.failed_count / n,
        rounds=len(state.rounds),
        largest_failed_fraction=largest_failed_fraction,
        seed_in_largest_failed=seed_in_largest,
    )


def run_cascade_trials(config: ExperimentConfig) -> tuple[CascadeTrialRecord, ...]:
    if config.kind != "cascade-trial":
        raise ValueError(f"expected a cascade-trial config, got kind {config.kind!r}")
    return tuple(_over_trials(config, 0, partial(run_cascade_trial, config)))
