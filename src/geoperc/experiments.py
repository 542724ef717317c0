"""Monte Carlo harness: parameter sweeps, critical-point estimation, cascade trials.

``READS`` names the fields each config kind reads, and every other field must
keep its default. Every trial draws its seed as substream(base_seed,
lam_index * trials + trial), so per-trial seeds are pairwise distinct within
a sweep and results are bit-reproducible. One trial loop places the points of
each (lambda, trial), a Poisson process at lambda, or n uniform points when a
cascade trial gives n; a sweep builds one graph from them, and a failure sweep
applies its rules to it with the same failure uniforms, an exact coupling.
A rule at least as harsh as another on the trial graph (q(k) no smaller at
every degree k up to its maximum) keeps a subset of the other's survivors,
and both proxies can only lose hits as the survivors shrink. So a hit at a
rule is a hit at every milder one and a miss is a miss at every harsher one;
the rules are labeled midpoint-first in order of mean q, and a rule these
implications already decide is never failed or labeled. A chain of R nested
rules labels ceil(log2(R + 1)) alive sets per trial, with exactly the
results of labeling every rule; a percolation sweep is the one-rule case.
A batch of trials is split across the CPUs of the process's affinity mask,
at most one worker per _MIN_TRIALS_PER_WORKER trials: trial t runs in worker
t mod w, the caller being worker 0 and each other worker a forked child that
pipes back its per-trial results, never a graph. Every trial depends only on
its seed and the results are merged in (lambda, trial) order, so the output
does not depend on the worker count; a batch under 16 trials forks nothing.
Each per-trial draw comes from its own substream of the trial seed. The CLI's
``generate``, ``fail`` and ``cascade --seed T`` replay trial T through the
functions the trials call: ``place_points``, ``fail_nodes``, ``draw_thresholds``
and ``draw_seed_node``.
The crossing proxy is one event, a left-right crossing of the whole region
(``graph.crosses``). A cascade trial labels its vulnerable nodes and nothing
else: its failed set is one connected cluster that holds the seed.

The critical-point estimators build one graph per trial and reduce it to one
critical value (Newman & Ziff, PRL 85, 4104 (2000)). Independent failure keeps
node i iff u_i >= q for one shared uniform u_i, so a trial crosses at q iff
q <= q*, its largest crossing q, which ``graph.crossing_level`` finds in one
shrinking binary search over the u_i. For the critical density, failure with
q = 1 - lam/lam_max thins a lam_max Poisson graph to a lam one, giving
lam* = lam_max (1 - q*). Each bisection evaluation is then the empirical CDF
of the per-trial values: common random numbers, no graph built.

The search only needs the nodes that survive near q*, so an estimator trial
draws its uniforms before it builds anything, and builds the graph of the
nodes with u_i >= t0 first, t0 = 1 - _SURVIVOR_DENSITY / (lam radius**2).
This is exact: the graph induced on a node subset of a geometric graph is the
geometric graph of that subset, and the crossing strips depend only on the
coordinates, so for every t >= t0 the survivors {u_i >= t} form the same
graph in both. A crossing level found on the survivor graph is therefore the
whole graph's q*; when its survivors do not cross, q* < t0 and the trial
builds its whole graph. Independent failure thins a density-lam Poisson graph
to density lam (1 - t), and the critical density scales as radius**-2, so the
survivor graph has density _SURVIVOR_DENSITY / radius**2 with
_SURVIVOR_DENSITY = 1.25 LAMBDA_C, above every per-trial survivor density at
q* seen on side-50 boxes (see the constant). It holds 62% of the placed nodes
at lam 2.87 and 90% at lam_max 2.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

import numpy as np

from .cascade import ThresholdDistribution, classify, run_cascade
from .failures import FailureOutcome, FailureRule, apply_failures, failure_uniforms
from .geometry import OPEN_BOX, PointSet, Region, generate_poisson, generate_uniform
from .graph import SpatialGraph, _neighbor_counts, build_graph, components, crosses, crossing_level
from .seeding import (
    STREAM_FAILURES,
    STREAM_PLACEMENT,
    STREAM_SEED_NODE,
    STREAM_THRESHOLDS,
    check_seed,
    derive_seed,
    generator_from_seed,
    substream,
)
from .theory import LAMBDA_C, SubcriticalDensityError

PROXIES = ("crossing", "giant-fraction")
SEEDINGS = ("random-node", "adjacent-to-largest-vulnerable-component")
COUNT_MODES = ("poisson", "fixed")
# The giant-fraction proxy: the largest component holds this share of the nodes.
GIANT_FRACTION = 0.1

# The fields each kind reads; every other field must keep its default.
_COMMON_FIELDS = ("kind", "width", "height", "boundary", "radius", "trials", "base_seed")
READS = {
    "percolation-sweep": _COMMON_FIELDS + ("lambdas", "proxy"),
    "failure-sweep": _COMMON_FIELDS + ("lambdas", "proxy", "rules"),
    "cascade-trial": _COMMON_FIELDS + ("lambdas", "distribution", "seeding", "count_mode", "n"),
}


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
    count_mode: str = "poisson"
    n: int | None = None
    region: Region = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in READS:
            raise ValueError(f"kind must be one of {tuple(READS)}, got {self.kind!r}")
        numbers = {"width": self.width, "height": self.height, "radius": self.radius}
        numbers.update((f"lambdas[{i}]", lam) for i, lam in enumerate(self.lambdas))
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        for i, lam in enumerate(self.lambdas):
            if lam < 0:
                raise ValueError(f"lambdas[{i}] must be non-negative, got {lam}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "region", Region(self.width, self.height, self.boundary))
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        check_seed(self.base_seed, "base_seed")
        if self.proxy not in PROXIES:
            raise ValueError(f"proxy must be one of {PROXIES}, got {self.proxy!r}")
        if self.seeding not in SEEDINGS:
            raise ValueError(f"seeding must be one of {SEEDINGS}, got {self.seeding!r}")
        if self.count_mode not in COUNT_MODES:
            raise ValueError(f"count_mode must be one of {COUNT_MODES}, got {self.count_mode!r}")
        if self.n is not None and self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.kind != "cascade-trial" and not self.lambdas:
            raise ValueError(f"{self.kind} needs a non-empty lambda grid")
        if self.kind == "failure-sweep" and not self.rules:
            raise ValueError("failure-sweep needs a non-empty rule grid")
        if self.kind == "cascade-trial":
            if self.distribution is None:
                raise ValueError("cascade-trial needs a threshold distribution")
            if len(self.lambdas) + (self.n is not None) != 1:
                raise ValueError("cascade-trial takes one lambda or an n, got lambdas="
                                 f"{list(self.lambdas)} and n={self.n}")
        reads = READS[self.kind]
        for f in fields(self):
            if f.init and f.name not in reads and getattr(self, f.name) not in (f.default, (), []):
                raise ValueError(f"{f.name} is not read by kind {self.kind!r}")
        if (self.count_mode == "fixed") != (self.n is not None):
            raise ValueError("count_mode is 'fixed' exactly when n is given, got count_mode "
                             f"{self.count_mode!r} with n={self.n}")
        if "proxy" in reads and self.proxy == "crossing" and self.boundary != OPEN_BOX:
            raise ValueError(f"proxy 'crossing' needs boundary 'open-box', got {self.boundary!r}")


@dataclass(frozen=True)
class PointResult:
    params: dict
    estimate: float
    stderr: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[PointResult, ...]


def place_points(trial_seed: int, region: Region, n: int | None, lam: float) -> PointSet:
    """A trial's points, from its placement substream: n uniform points, or a
    Poisson process of intensity lam when n is None."""
    placement_seed = substream(trial_seed, STREAM_PLACEMENT)
    if n is not None:
        return generate_uniform(n, region, placement_seed)
    return generate_poisson(lam, region, placement_seed)


def fail_nodes(trial_seed: int, graph: SpatialGraph, rule: FailureRule) -> FailureOutcome:
    """A trial's failures under rule, from its failure substream; every rule
    of a trial reads the same uniforms."""
    return apply_failures(graph, rule, substream(trial_seed, STREAM_FAILURES))


def draw_thresholds(trial_seed: int, distribution: ThresholdDistribution, n: int) -> np.ndarray:
    """A trial's n cascade thresholds, from its threshold substream."""
    return distribution.sample(n, substream(trial_seed, STREAM_THRESHOLDS))


def draw_seed_node(trial_seed: int, count: int) -> int:
    """A trial's cascade seed, an index below count, from its seed-node substream."""
    return int(generator_from_seed(substream(trial_seed, STREAM_SEED_NODE)).integers(count))


def _trial_points(config: ExperimentConfig, lam_index: int, trial_seed: int) -> PointSet:
    lam = config.lambdas[lam_index] if config.lambdas else 0.0
    return place_points(trial_seed, config.region, config.n, lam)


def trial_seeds(config: ExperimentConfig, lam_index: int) -> list[int]:
    return [
        derive_seed(config.base_seed, lam_index, t, config.trials) for t in range(config.trials)
    ]


# Fewest trials per worker process; a batch under twice this runs serial.
_MIN_TRIALS_PER_WORKER = 8


def _worker_count(trials: int) -> int:
    """Processes a batch of trials runs on: one per CPU the process may use,
    at most one per _MIN_TRIALS_PER_WORKER trials, and one where the platform
    reports no affinity mask or the process runs other threads, since a fork
    there can deadlock on a lock another thread held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), trials // _MIN_TRIALS_PER_WORKER))


def _run_child(run_share, worker: int, write_fd: int, inherited: tuple[int, ...]) -> None:
    """Body of a forked worker: close the pipe ends it inherited, pickle its
    share, or the exception it raised, to write_fd, and end the process, with
    status 0 only after a share was written, never returning to the caller."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload, ok = run_share(worker), True
        except BaseException as exc:
            payload, ok = exc, False
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0 if ok else 1
    finally:
        os._exit(status)


def _collect(pid: int, read_fd: int) -> list:
    """A forked worker's share, read to the end of its pipe, after which the
    worker is reaped; the exception it raised is raised here."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return pickle.loads(data)
    if data:
        raise pickle.loads(data)
    raise RuntimeError(f"trial worker {pid} exited with status {status} without a result")


def _over_trials(config: ExperimentConfig, lam_index: int, evaluate) -> list:
    """evaluate(seed, points) per trial at one lambda index, in trial order, on
    the trial's placed points; one trial's points alive at a time per process.
    Trial t runs in worker t mod w of _worker_count's w: worker 0 is this
    process, each other one a forked child that pipes back its list of results."""
    seeds = trial_seeds(config, lam_index)
    workers = _worker_count(len(seeds))

    def run_share(worker: int) -> list:
        return [evaluate(seed, _trial_points(config, lam_index, seed))
                for seed in seeds[worker::workers]]

    if workers == 1:
        return run_share(0)
    children: dict[int, int] = {}  # pid -> read end of its pipe, until collected
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(run_share, worker, write_fd, (read_fd, *children.values()))
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children[pid] = read_fd
        shares = [run_share(0)]
        for pid in list(children):
            shares.append(_collect(pid, children.pop(pid)))
    finally:
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(seeds)
    for worker, share in enumerate(shares):
        results[worker::workers] = share
    return results


def _proxy_indicator(config: ExperimentConfig, graph: SpatialGraph, alive: np.ndarray) -> float:
    if len(graph) == 0:
        return 0.0
    if config.proxy == "crossing":
        return 1.0 if crosses(graph, alive) else 0.0
    threshold = GIANT_FRACTION * len(graph)
    if np.count_nonzero(alive) < threshold:
        return 0.0  # no component holds more nodes than are alive
    labeling = components(graph, alive)
    return 1.0 if labeling.largest_size >= threshold else 0.0


def _midpoint_first(count: int) -> list[int]:
    """0 .. count - 1 level by level: the middle, then the middle of each
    half, and so on. Over a chain of nested rules with the decided ones
    skipped, this is a binary search."""
    order, spans = [], [(0, count)]
    for lo, hi in spans:  # spans grows as it is read: a breadth-first walk
        if lo < hi:
            mid = (lo + hi) // 2
            order.append(mid)
            spans += ((lo, mid), (mid + 1, hi))
    return order


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Per grid point (lambda-major, then rule): `trials` instances, aggregated
    to a Bernoulli estimate with its binomial standard error. All rules at one
    lambda share its trial graphs and failure uniforms, so each trial labels
    only the rules whose indicator the harsher-than implications leave open
    (see the module docstring); every indicator equals its own labeling's."""
    if config.kind not in ("percolation-sweep", "failure-sweep"):
        raise ValueError(f"run_sweep does not handle kind {config.kind!r}")
    rules = config.rules or (None,)  # a percolation sweep has no rules
    visits = _midpoint_first(len(rules))

    def indicators(seed: int, points: PointSet) -> np.ndarray:
        graph = build_graph(points, config.radius)
        ks = np.arange(graph.degrees.max(initial=0) + 1)
        q = np.array([np.zeros(len(ks)) if rule is None else rule.probabilities(ks)
                      for rule in rules])
        hits = np.full(len(rules), np.nan)
        # sorting by mean q extends the harsher-than order, so the visits
        # bisect a chain; the order sets the cost, never a result
        for r in np.argsort(q.mean(axis=1), kind="stable")[visits]:
            if not np.isnan(hits[r]):
                continue
            rule = rules[r]
            alive = (np.ones(len(graph), dtype=bool) if rule is None
                     else fail_nodes(seed, graph, rule).alive)
            hit = _proxy_indicator(config, graph, alive)
            # a hit holds at every milder rule, a miss at every harsher one
            implied = (q <= q[r]).all(axis=1) if hit else (q >= q[r]).all(axis=1)
            hits[implied & np.isnan(hits)] = hit
        return hits

    results = []
    for lam_index, lam in enumerate(config.lambdas):
        hits = np.sum(_over_trials(config, lam_index, indicators), axis=0)
        for rule, rule_hits in zip(rules, hits):
            params = {"lambda": lam} if rule is None else {"lambda": lam, "rule": rule.to_text()}
            est = float(rule_hits) / config.trials
            stderr = float(np.sqrt(est * (1.0 - est) / config.trials))
            results.append(PointResult(params, est, stderr))
    return SweepResult(tuple(results))


MEDIAN_CI_LEVEL = 0.95

# Width at which both estimators stop bisecting, in the units of the estimate
# (radius**-2 for estimate_lambda_c, as its bracket).
BRACKET_WIDTH = 0.02


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
            "trials": len(self.critical_values),
            "base_seed": self.base_seed,
            "critical_values": [_finite_or_none(v) for v in self.critical_values],
            "median": _finite_or_none(self.median),
            "median_ci": {
                "level": MEDIAN_CI_LEVEL,
                "low": _finite_or_none(ci_low),
                "high": _finite_or_none(ci_high),
            },
        }


# Survivor density, in units of radius**-2, of the graph each estimator trial
# searches first. On side-50 boxes the largest per-trial survivor density at
# q* is 1.661 (300 qc trials at lambda 2.87, base seeds 11, 5 and 7) and the
# largest lambda* 1.761 (200 lambda-c trials at base seed 2024, 1000 at 5),
# both below 1.25 LAMBDA_C = 1.794, so no trial there builds its whole graph.
_SURVIVOR_DENSITY = 1.25 * LAMBDA_C

# estimate_lambda_c's bracket, in units of radius**-2. On the sides of at least
# 50 radii that _estimator_trials enforces, the largest per-trial lambda* r**2
# seen is 1.761 (see _SURVIVOR_DENSITY); a trial that crosses only above the
# upper end has lambda* = +inf, which the empirical CDF handles.
_LAMBDA_C_BRACKET = (1.0, 2.0)


def _trial_critical_qs(config: ExperimentConfig) -> np.ndarray:
    """q* of the trial graph at config.lambdas[0] per trial, in trial order,
    -inf when the intact graph does not cross. IndependentFailure(q) keeps
    node i iff u_i >= q for the trial's failure uniforms u, so q* is the
    crossing level of u on the whole graph; it is searched on the survivors
    at floor t0 first and on the whole graph only when those miss or t0 <= 0."""
    radius = config.radius
    density = config.lambdas[0] * radius * radius
    floors = (-math.inf,)
    if density > _SURVIVOR_DENSITY:
        floors = (1.0 - _SURVIVOR_DENSITY / density, -math.inf)

    def critical_q(seed: int, points: PointSet) -> float:
        u = failure_uniforms(substream(seed, STREAM_FAILURES), len(points))
        for floor in floors:
            kept = (u >= floor).nonzero()[0]
            graph = build_graph(PointSet(points.coordinates[kept], points.region), radius)
            level = crossing_level(graph, u[kept])
            if level is not None:
                return level
        return -math.inf

    return np.array(_over_trials(config, 0, critical_q))


def _estimator_trials(lam: float, side: float, radius: float, trials: int,
                      base_seed: int) -> np.ndarray:
    """q* per trial of one Poisson graph at density lam on a side x side open
    box, whose side must be at least 50 radii."""
    if not side >= 50.0 * radius:
        raise ValueError(f"region side {side} must be at least 50 radii ({50.0 * radius})")
    return _trial_critical_qs(ExperimentConfig(
        kind="percolation-sweep", width=side, height=side, radius=radius, lambdas=(lam,),
        trials=trials, base_seed=base_seed,
    ))


def _bisect(values: np.ndarray, lo: float, hi: float, target_width: float, rising: bool,
            base_seed: int) -> BisectionResult:
    """Bisect to where the fraction of per-trial critical values <= x (rising)
    or >= x (falling) crosses 1/2; it must rise (or fall) across [lo, hi].
    Records every (x, fraction) evaluated, in order, and stops early when lo
    and hi are adjacent floats, where no midpoint is left."""
    evals = []

    def evaluate(x: float) -> float:
        evals.append((x, float(np.mean(values <= x if rising else x <= values))))
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
    return BisectionResult(lo, hi, tuple(evals), base_seed, tuple(values.tolist()))


def estimate_lambda_c(
    side: float = 50.0,
    radius: float = 1.0,
    trials: int = 200,
    base_seed: int = 0,
) -> BisectionResult:
    """Bisect the density at which the left-right crossing probability is 1/2.

    Each trial builds one graph at lam_max = 2/radius**2. Independent failure
    with q = 1 - lam/lam_max thins it to exactly a density-lam Poisson graph,
    so the trial crosses at lam iff lam >= lam* = lam_max (1 - q*). The region
    side must be at least 50 radii; the returned interval has width at most
    BRACKET_WIDTH / radius**2, in the bracket's units, and brackets the
    empirical transition point.
    """
    # _estimator_trials names a radius that is not positive
    lo, hi = (end / radius / radius if radius > 0 else end for end in _LAMBDA_C_BRACKET)
    if not (lo > 0 and hi < math.inf):
        raise ValueError(f"radius {radius} puts the density bracket {_LAMBDA_C_BRACKET} / "
                         f"radius**2 outside the float range, at ({lo}, {hi})")
    q_star = _estimator_trials(hi, side, radius, trials, base_seed)
    return _bisect(hi * (1.0 - q_star), lo, hi, BRACKET_WIDTH / radius / radius, True, base_seed)


def estimate_qc(
    lam: float,
    side: float = 50.0,
    radius: float = 1.0,
    trials: int = 100,
    base_seed: int = 0,
) -> BisectionResult:
    """Bisect the independent-failure probability in [0, 1] at which crossing
    drops to 1/2.

    Each trial builds one graph and crosses at q iff q <= its q*. The density
    must be supercritical, lam radius**2 > LAMBDA_C, and the region side at
    least 50 radii.
    """
    if radius > 0 and not lam * radius * radius > LAMBDA_C:
        raise SubcriticalDensityError(
            f"lambda={lam} is not above the critical density {LAMBDA_C / radius / radius}"
        )
    q_star = _estimator_trials(lam, side, radius, trials, base_seed)
    return _bisect(q_star, 0.0, 1.0, BRACKET_WIDTH, False, base_seed)


@dataclass(frozen=True)
class CascadeTrialRecord:
    """One cascade trial. Thresholds are positive, so the failed nodes form one
    connected component, which contains seed_node (see geoperc.cascade)."""

    trial_seed: int
    feasible: bool
    seed_node: int | None
    largest_vulnerable_fraction: float
    failed_count: int
    failed_fraction: float
    rounds: int

    def to_dict(self) -> dict:
        return asdict(self)


def run_cascade_trial(
    config: ExperimentConfig, trial_seed: int, graph: SpatialGraph
) -> CascadeTrialRecord:
    """One cascade instance on the trial graph: sample thresholds, pick a seed
    node per the seeding policy, run the cascade, report spread metrics.

    With adjacent seeding the seed is drawn from the nodes outside the largest
    vulnerable component that have a neighbor inside it (falling back to a node
    of the component when no such node exists); if there are no vulnerable
    nodes at all, the trial is recorded as infeasible rather than failed.
    """
    n = len(graph)
    infeasible = CascadeTrialRecord(trial_seed, False, None, 0.0, 0, 0.0, 0)
    if n == 0:
        return infeasible

    psi = draw_thresholds(trial_seed, config.distribution, n)
    labeling = components(graph, classify(graph, psi).vulnerable)

    if config.seeding == "random-node":
        seed_node = draw_seed_node(trial_seed, n)
    else:
        if labeling.largest_size == 0:
            return infeasible
        in_comp = labeling.labels == labeling.largest_id
        candidates = np.flatnonzero((_neighbor_counts(graph, in_comp) > 0) & ~in_comp)
        if candidates.size == 0:
            candidates = np.flatnonzero(in_comp)
        seed_node = int(candidates[draw_seed_node(trial_seed, len(candidates))])

    state = run_cascade(graph, psi, seed_node)
    return CascadeTrialRecord(
        trial_seed=trial_seed,
        feasible=True,
        seed_node=seed_node,
        largest_vulnerable_fraction=labeling.largest_size / n,
        failed_count=state.failed_count,
        failed_fraction=state.failed_count / n,
        rounds=len(state.rounds),
    )


def run_cascade_trials(config: ExperimentConfig) -> tuple[CascadeTrialRecord, ...]:
    if config.kind != "cascade-trial":
        raise ValueError(f"expected a cascade-trial config, got kind {config.kind!r}")
    return tuple(_over_trials(config, 0, lambda seed, points: run_cascade_trial(
        config, seed, build_graph(points, config.radius))))
