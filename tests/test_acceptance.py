"""Acceptance gate: every criterion at its locked tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time

import numpy as np
import pytest

from geoperc.cascade import ThresholdDistribution, classify, isolated_reliable_count_check
from geoperc.experiments import (
    ExperimentConfig,
    estimate_lambda_c,
    estimate_qc,
    run_cascade_trials,
    run_sweep,
)
from geoperc.failures import (
    DegreeFunctionFailure,
    IndependentFailure,
    ThresholdAttack,
    apply_failures,
    degree_margin_rule,
)
from geoperc.geometry import Region, generate_uniform
from geoperc.graph import build_graph, components
from geoperc.seeding import STREAM_FAILURES, STREAM_PLACEMENT, derive_seed, substream
from geoperc.theory import (
    circuit_count_bound,
    count_circuits_of_length,
    critical_phi,
    no_cascade_condition,
    no_infinite_component_nondecreasing,
    no_infinite_component_nonincreasing,
    reliable_probabilities,
)

from conftest import bfs_component_sizes, brute_force_edges
from test_cascade import async_cascade_oracle
from test_theory import mc_oracle_collar, mc_oracle_nondecreasing

UNIFORM = ThresholdDistribution.uniform()
HEAVY_LOW = ThresholdDistribution(((0.0, 0.1, 7.5), (0.1, 1.0, 5 / 18)))
NEAR_ONE = ThresholdDistribution(((0.0, 0.999, 1 / 999), (0.999, 1.0, 999.0)))


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_lambda_c_bracket():
    t0 = time.time()
    result = estimate_lambda_c(side=50.0, radius=1.0, trials=200, base_seed=2024)
    elapsed = time.time() - t0
    assert result.high - result.low <= 0.02
    assert result.low <= 1.50 and result.high >= 1.38, (result.low, result.high)
    assert elapsed < 300.0
    report(1, f"lambda_c in [{result.low:.4f}, {result.high:.4f}] "
              f"overlaps [1.38, 1.50] ({elapsed:.0f}s)")


def test_criterion_2_qc_validation():
    high = estimate_qc(2.87, trials=100, base_seed=11)
    assert 0.45 <= high.midpoint <= 0.55, high.midpoint
    low = estimate_qc(1.6, trials=100, base_seed=12)
    assert 0.05 <= low.midpoint <= 0.16, low.midpoint
    report(2, f"q_c(2.87) = {high.midpoint:.3f} in [0.45, 0.55]; "
              f"q_c(1.6) = {low.midpoint:.3f} in [0.05, 0.16]")


def test_criterion_3_degree_dependent_failures():
    region = Region(25.0, 25.0)
    margin_ok = attack_ok = 0
    trials = 100
    for t in range(trials):
        seed = derive_seed(42, 0, t, trials)
        pts = generate_uniform(1600, region, substream(seed, STREAM_PLACEMENT))
        g = build_graph(pts, 1.0)
        rule = degree_margin_rule(float(g.degrees.mean()), int(g.degrees.max()))
        out = apply_failures(g, rule, substream(seed, STREAM_FAILURES))
        operational = int(out.alive.sum())
        if operational and components(g, out.alive).largest_size >= 0.5 * operational:
            margin_ok += 1
        out_b = apply_failures(g, ThresholdAttack(4), substream(seed, STREAM_FAILURES))
        if components(g, out_b.alive).largest_size <= 0.10 * 1600:
            attack_ok += 1
    assert margin_ok >= 80, margin_ok
    assert attack_ok >= 80, attack_ok
    report(3, f"margin rule kept a spanning component in {margin_ok}/100 trials; "
              f"attack phi=4 left only fragments in {attack_ok}/100 trials")


def test_criterion_4_cascade_reproductions():
    quiet = run_cascade_trials(
        ExperimentConfig(
            kind="cascade-trial", width=15.0, height=15.0, n=1600, count_mode="fixed",
            distribution=NEAR_ONE, seeding="random-node", trials=100, base_seed=7,
        )
    )
    contained = sum(rec.failed_count <= 7 for rec in quiet)
    assert contained >= 95, contained
    spreading = run_cascade_trials(
        ExperimentConfig(
            kind="cascade-trial", width=15.0, height=15.0, n=1600, count_mode="fixed",
            distribution=HEAVY_LOW, seeding="adjacent-to-largest-vulnerable-component",
            trials=100, base_seed=9,
        )
    )
    spread = sum(rec.feasible and rec.failed_fraction >= 0.5 for rec in spreading)
    assert spread >= 80, spread
    report(4, f"near-one thresholds contained the failure (<=7 nodes) in {contained}/100; "
              f"heavy-low thresholds cascaded past half the network in {spread}/100")


def test_criterion_5_series_match_monte_carlo_oracles():
    checks = 0
    for lam, rule, seed in (
        (2.56, ThresholdAttack(4), 101),
        (1.7, IndependentFailure(0.3), 102),
        (3.2, DegreeFunctionFailure((0.0, 0.1, 0.3, 0.8), 0.95), 103),
    ):
        lhs = no_infinite_component_nondecreasing(lam, rule).lhs
        assert abs(lhs - mc_oracle_nondecreasing(lam, rule, seed)) < 1e-3
        checks += 1
    for lam, rule, seed in (
        (1.0, IndependentFailure(0.5), 104),
        (2.0, DegreeFunctionFailure((0.9, 0.7, 0.5, 0.3), 0.1), 105),
        (0.7, IndependentFailure(0.2), 106),
    ):
        lhs = no_infinite_component_nonincreasing(lam, rule).lhs
        assert abs(lhs - mc_oracle_collar(lam, rule.probabilities, seed)) < 1e-3
        checks += 1
    for lam, dist, seed in (
        (2.0, UNIFORM, 107),
        (1.5, HEAVY_LOW, 108),
        (1600 / 225, NEAR_ONE, 109),
    ):
        lhs = no_cascade_condition(lam, dist).lhs
        oracle = mc_oracle_collar(lam, lambda j: reliable_probabilities(dist, j), seed)
        assert abs(lhs - oracle) < 1e-3
        checks += 1
    # limit identities
    assert no_infinite_component_nondecreasing(2.0, IndependentFailure(1.0)).lhs == \
        pytest.approx(1.0, abs=1e-12)
    assert no_infinite_component_nondecreasing(2.0, IndependentFailure(0.0)).lhs == \
        pytest.approx(math.exp(-1.0), abs=1e-15)
    assert no_infinite_component_nonincreasing(2.0, IndependentFailure(1.0)).lhs == 0.0
    assert no_infinite_component_nonincreasing(2.0, IndependentFailure(0.0)).lhs == \
        pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    report(5, f"{checks} series evaluations within 1e-3 of their 10^6-sample oracles; "
              "limit identities exact")


def test_criterion_6_circuit_enumeration():
    counts = {}
    for m in range(2, 6):
        counts[2 * m] = count_circuits_of_length(2 * m)
        assert counts[2 * m] <= circuit_count_bound(m)
    assert counts[4] == 1
    assert all(count_circuits_of_length(L) == 0 for L in (5, 7, 9, 11))
    report(6, f"gamma = {counts} all within the (4/27)(m-1)3^(2m) bound; "
              "odd lengths impossible")


def test_criterion_7_property_suites():
    # brute-force adjacency and component equivalence at n = 500
    pts = generate_uniform(500, Region(14.0, 14.0), seed=500)
    g = build_graph(pts, 1.0)
    assert {tuple(e) for e in g.edges.tolist()} == brute_force_edges(pts, 1.0)
    rng = np.random.default_rng(0)
    alive = rng.random(500) < 0.8
    lab = components(g, alive)
    assert sorted(lab.sizes.tolist()) == bfs_component_sizes(g, alive)

    # monotone failure coupling under shared seeds
    for seed in range(10):
        mild = apply_failures(g, IndependentFailure(0.2), seed).alive
        harsh = apply_failures(g, IndependentFailure(0.6), seed).alive
        assert not (harsh & ~mild).any()

    # cascade schedule confluence against the asynchronous oracle (n <= 100)
    for seed in range(20):
        pts_s = generate_uniform(100, Region(7.0, 7.0), seed=seed)
        gs = build_graph(pts_s, 1.0)
        psi = HEAVY_LOW.sample(len(gs), seed + 1000)
        from geoperc.cascade import run_cascade

        sync = run_cascade(gs, psi, seed_node=seed % 100).failed
        assert np.array_equal(sync, async_cascade_oracle(gs, psi, seed % 100))

    # isolated-reliable neighbor bound on 1000 random instances
    worst = 0
    for s in range(1000):
        pts_r = generate_uniform(80, Region(5.0, 5.0), seed=s)
        gr = build_graph(pts_r, 1.0)
        dist = (UNIFORM, HEAVY_LOW, NEAR_ONE)[s % 3]
        psi = dist.sample(len(gr), s + 5000)
        worst = max(worst, isolated_reliable_count_check(gr, psi))
    assert worst <= 6

    # determinism: bit-identical reruns
    cfg = ExperimentConfig(
        kind="percolation-sweep", width=20.0, height=20.0, lambdas=(1.3, 2.2),
        trials=20, base_seed=77,
    )
    assert run_sweep(cfg) == run_sweep(cfg)
    a = generate_uniform(400, Region(10.0, 10.0), seed=4)
    b = generate_uniform(400, Region(10.0, 10.0), seed=4)
    assert np.array_equal(a.coordinates, b.coordinates)

    report(7, f"adjacency/component oracles, coupling, confluence, "
              f"isolated-reliable bound (max {worst} <= 6 over 1000 instances), determinism")


def test_criterion_8_critical_phi_curve():
    values = [critical_phi(float(lam)) for lam in range(1, 61)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    # partial-sum oracle at lambda = 10
    bound = math.exp(5.0) / 27 + 1
    term, total = 1.0, 1.0
    sums = [total]
    for k in range(1, 200):
        term *= 5.0 / k
        total += term
        sums.append(total)
    oracle = max(j for j, s in enumerate(sums) if s < bound) - 1
    assert oracle == 0
    assert critical_phi(10.0) == 0
    report(8, f"critical phi non-decreasing over lambda = 1..60 "
              f"(from {values[0]} to {values[-1]}); phi'(10) = 0 matches the oracle")
