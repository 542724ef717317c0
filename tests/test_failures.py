import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoperc.failures import (
    DegreeFunctionFailure,
    IndependentFailure,
    ThresholdAttack,
    apply_failures,
    degree_margin_rule,
    failure_uniforms,
    parse_rule,
)
from geoperc.geometry import Region, TORUS, generate_poisson, generate_uniform
from geoperc.graph import build_graph, crosses, crossing_level
from geoperc.theory import critical_phi


def test_rule_validation():
    with pytest.raises(ValueError):
        IndependentFailure(1.5)
    with pytest.raises(ValueError):
        DegreeFunctionFailure((), 0.0)
    with pytest.raises(ValueError):
        DegreeFunctionFailure((0.2, -0.1), 0.0)
    with pytest.raises(ValueError):
        ThresholdAttack(-1)


def test_parse_rule_forms():
    assert parse_rule("indep:0.3") == IndependentFailure(0.3)
    assert parse_rule("attack:4") == ThresholdAttack(4)
    rule = parse_rule("table:0,0,0.1,0.2;tail=1.0")
    assert rule == DegreeFunctionFailure((0.0, 0.0, 0.1, 0.2), 1.0)
    assert parse_rule(rule.to_text()) == rule
    for bad in ("indep", "weird:1", "table:0,x", "indep:2.0"):
        with pytest.raises(ValueError):
            parse_rule(bad)
    with pytest.raises(ValueError, match="unknown table option 'foo'"):
        parse_rule("table:0.1;foo=1")


def test_attack_equals_degree_table():
    attack = ThresholdAttack(3)
    table = DegreeFunctionFailure((0.0,) * 4, 1.0)
    ks = np.arange(0, 12)
    assert np.array_equal(attack.probabilities(ks), table.probabilities(ks))


def test_independent_equals_constant_table():
    indep = IndependentFailure(0.4)
    table = DegreeFunctionFailure((0.4,), 0.4)
    ks = np.arange(0, 30)
    assert np.array_equal(indep.probabilities(ks), table.probabilities(ks))


def test_monotonicity_flags():
    assert IndependentFailure(0.2).is_nondecreasing()
    assert IndependentFailure(0.2).is_nonincreasing()
    assert ThresholdAttack(2).is_nondecreasing()
    assert not ThresholdAttack(2).is_nonincreasing()
    up = DegreeFunctionFailure((0.0, 0.1, 0.5), 0.9)
    assert up.is_nondecreasing() and not up.is_nonincreasing()
    down = DegreeFunctionFailure((0.9, 0.5, 0.1), 0.0)
    assert down.is_nonincreasing() and not down.is_nondecreasing()
    bumpy = DegreeFunctionFailure((0.1, 0.5, 0.2), 0.2)
    assert not bumpy.is_nondecreasing() and not bumpy.is_nonincreasing()


_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # few levels, so ties and monotone tables occur


@settings(max_examples=200)
@given(st.one_of(
    st.builds(DegreeFunctionFailure, st.lists(_LEVELS, min_size=1, max_size=6).map(tuple), _LEVELS),
    st.builds(IndependentFailure, _LEVELS),
    st.builds(ThresholdAttack, st.integers(0, 6)),
))
def test_monotonicity_flags_match_brute_force(rule):
    # q is constant past the table (or past phi + 1), so K + 3 degrees see every step
    top = len(rule.table) if isinstance(rule, DegreeFunctionFailure) else getattr(rule, "phi", 0)
    q = rule.probabilities(range(top + 3))
    assert rule.is_nondecreasing() == bool((np.diff(q) >= 0).all())
    assert rule.is_nonincreasing() == bool((np.diff(q) <= 0).all())


def test_attack_flags_stay_cheap_at_any_threshold():
    rule = ThresholdAttack(10**30)
    assert rule.is_nondecreasing() and not rule.is_nonincreasing()


@pytest.fixture(scope="module")
def box_graph():
    pts = generate_uniform(2000, Region(25.0, 25.0), seed=31)
    return build_graph(pts, 1.0)


def test_zero_rate_keeps_everyone(box_graph):
    outcome = apply_failures(box_graph, IndependentFailure(0.0), seed=2)
    assert outcome.alive.all()


def test_survivors_are_the_uniforms_at_or_above_q(box_graph):
    rule = DegreeFunctionFailure((0.0, 0.1, 0.3, 0.5), 0.7)
    u = failure_uniforms(6, len(box_graph))
    outcome = apply_failures(box_graph, rule, seed=6)
    assert np.array_equal(outcome.alive, u >= rule.probabilities(box_graph.degrees))
    assert np.array_equal(failure_uniforms(6, 10), u[:10])  # u_i depends on (seed, i) only


def test_attack_kills_every_high_degree_node(box_graph):
    outcome = apply_failures(box_graph, ThresholdAttack(4), seed=3)
    high = box_graph.degrees > 4
    assert not outcome.alive[high].any()
    assert outcome.alive[~high].all()
    # deterministic: independent of the seed
    other = apply_failures(box_graph, ThresholdAttack(4), seed=12345)
    assert np.array_equal(outcome.alive, other.alive)


def test_independent_rate_binomial_moments():
    pts = generate_uniform(10_000, Region(80.0, 80.0), seed=4)
    g = build_graph(pts, 1.0)
    outcome = apply_failures(g, IndependentFailure(0.3), seed=9)
    alive_fraction = outcome.alive.mean()
    sigma = np.sqrt(0.3 * 0.7 / 10_000)
    assert abs(alive_fraction - 0.7) < 3 * sigma


def test_failure_depends_only_on_original_degree(box_graph):
    # changing q at one degree value only flips nodes of that degree
    base = DegreeFunctionFailure((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0)
    tweaked = DegreeFunctionFailure((0.0, 0.0, 0.0, 0.0, 1.0, 0.0), 0.0)
    a = apply_failures(box_graph, base, seed=7).alive
    b = apply_failures(box_graph, tweaked, seed=7).alive
    changed = np.flatnonzero(a != b)
    assert (box_graph.degrees[changed] == 4).all()
    assert not b[box_graph.degrees == 4].any()


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32),
    qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    bumps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_monotone_coupling(box_graph, seed, qs, bumps):
    k = max(len(qs), len(bumps))
    qs = (qs * k)[:k]
    bumps = (bumps * k)[:k]
    low = DegreeFunctionFailure(tuple(qs), qs[-1])
    high = DegreeFunctionFailure(
        tuple(min(1.0, q + b) for q, b in zip(qs, bumps)), min(1.0, qs[-1] + bumps[-1])
    )
    alive_low = apply_failures(box_graph, low, seed).alive
    alive_high = apply_failures(box_graph, high, seed).alive
    # every survivor of the harsher rule survives the milder one
    assert not (alive_high & ~alive_low).any()


def thinning_check(graph, q, seed):
    """Survivor density after independent thinning; should be (1-q) * lambda."""
    outcome = apply_failures(graph, IndependentFailure(q), seed)
    return float(outcome.alive.sum()) / graph.points.region.area


def test_thinning_extremes(box_graph):
    assert thinning_check(box_graph, 1.0, seed=5) == 0.0
    full = thinning_check(box_graph, 0.0, seed=5)
    assert full == pytest.approx(2000 / 625)


def test_thinning_density_and_survivor_degree():
    region = Region(25.0, 25.0, TORUS)
    densities, survivor_degrees = [], []
    for s in range(100):
        pts = generate_poisson(2.56, region, seed=s)
        g = build_graph(pts, 1.0)
        out = apply_failures(g, IndependentFailure(0.5), seed=s + 1000)
        densities.append(out.alive.sum() / region.area)
        e = g.edges
        both = out.alive[e[:, 0]] & out.alive[e[:, 1]]
        n_alive = out.alive.sum()
        if n_alive:
            survivor_degrees.append(2.0 * both.sum() / n_alive)
    densities = np.array(densities)
    se = densities.std(ddof=1) / 10
    assert abs(densities.mean() - 1.28) < 3 * se
    # thinned-Poisson closed form: survivors have mean degree (1-q) * lambda * pi
    survivor_degrees = np.array(survivor_degrees)
    se_deg = survivor_degrees.std(ddof=1) / np.sqrt(len(survivor_degrees))
    assert abs(survivor_degrees.mean() - 1.28 * np.pi) < 3 * se_deg


def test_degree_margin_rule_shape():
    rule = degree_margin_rule(8.0, 12)
    q0, q3 = rule.probabilities([0, 3])
    assert q0 == 0.0
    assert rule.is_nondecreasing()
    margin = 1.0 - 1.435 * np.pi / 8.0
    assert q3 == pytest.approx(max(0.0, margin - 1 / 3))
    assert rule.tail == pytest.approx(margin)
    with pytest.raises(ValueError):
        degree_margin_rule(0.0, 5)


@pytest.mark.parametrize("lam", [3.0, 5.0, 10.0, 20.0, 40.0])
def test_smallest_crossing_attack_threshold_exceeds_critical_phi(lam):
    # ThresholdAttack(phi) keeps exactly the nodes with -degree >= -phi, so
    # phi* = -crossing_level(graph, -degrees) is the smallest attack threshold
    # whose survivors still cross. The paper's attack result: no threshold at
    # or below critical_phi(lam) leaves a percolating network.
    side = 25.0
    for seed in range(10):
        graph = build_graph(generate_poisson(lam, Region(side, side), seed), 1.0)
        level = crossing_level(graph, -graph.degrees)
        assert level is not None, seed
        phi_star = int(-level)
        assert phi_star > critical_phi(lam), (seed, phi_star)
        for phi, expected in ((phi_star, True), (phi_star - 1, False)):
            alive = apply_failures(graph, ThresholdAttack(phi), seed).alive
            assert crosses(graph, alive) is expected, (seed, phi)
