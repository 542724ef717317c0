import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoperc.cascade import (
    ThresholdDistribution,
    classify,
    distribution_to_text,
    isolated_reliable,
    isolated_reliable_count_check,
    parse_distribution,
    run_cascade,
)
from geoperc.geometry import PointSet, Region, generate_uniform
from geoperc.graph import build_graph, components
from geoperc.theory import reliable_probabilities

from conftest import bfs_component_sizes, neighbor_lists

UNIFORM = ThresholdDistribution.uniform()
HEAVY_LOW = ThresholdDistribution(((0.0, 0.1, 7.5), (0.1, 1.0, 5 / 18)))
NEAR_ONE = ThresholdDistribution(((0.0, 0.999, 1 / 999), (0.999, 1.0, 999.0)))


def _graph_from_coords(coords, side=10.0, radius=1.0):
    region = Region(side, side)
    pts = PointSet(np.asarray(coords, dtype=float), region)
    return build_graph(pts, radius)


def async_cascade_oracle(graph, thresholds, seed_node):
    """One eligible node fails per step (lowest index first)."""
    n = len(graph)
    nbrs = neighbor_lists(graph)
    failed = np.zeros(n, dtype=bool)
    failed[seed_node] = True
    while True:
        progressed = False
        for i in range(n):
            if failed[i] or graph.degrees[i] == 0:
                continue
            frac = failed[nbrs[i]].sum() / graph.degrees[i]
            if frac >= thresholds[i]:
                failed[i] = True
                progressed = True
                break
        if not progressed:
            return failed


class TestThresholdDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdDistribution(())
        with pytest.raises(ValueError):
            ThresholdDistribution(((0.2, 1.0, 1.25),))  # does not start at 0
        with pytest.raises(ValueError):
            ThresholdDistribution(((0.0, 0.5, 1.0),))  # does not end at 1
        with pytest.raises(ValueError):
            ThresholdDistribution(((0.0, 0.5, 1.0), (0.6, 1.0, 1.25)))  # gap
        with pytest.raises(ValueError):
            ThresholdDistribution(((0.0, 1.0, 0.9),))  # mass != 1
        with pytest.raises(ValueError, match=re.escape("piece 1 has empty interval (0.5, 0.5]")):
            ThresholdDistribution(((0.0, 0.5, 1.0), (0.5, 0.5, 1.0), (0.5, 1.0, 1.0)))
        with pytest.raises(ValueError, match="piece 0 has negative density -1.0"):
            ThresholdDistribution(((0.0, 0.5, -1.0), (0.5, 1.0, 3.0)))  # mass 1

    def test_cdf_values(self):
        assert UNIFORM.cdf(0.5) == pytest.approx(0.5)
        assert UNIFORM.cdf(-1.0) == 0.0
        assert UNIFORM.cdf(0.0) == 0.0
        assert UNIFORM.cdf(1.0) == 1.0
        assert UNIFORM.cdf(2.0) == 1.0
        assert HEAVY_LOW.cdf(0.1) == pytest.approx(0.75, abs=1e-12)
        assert NEAR_ONE.cdf(0.999) == pytest.approx(0.001, abs=1e-12)
        xs = np.array([0.05, 0.1, 0.55])
        np.testing.assert_allclose(
            HEAVY_LOW.cdf(xs), [0.375, 0.75, 0.75 + 0.45 * 5 / 18], atol=1e-12
        )

    def test_parse_round_trip(self):
        text = distribution_to_text(HEAVY_LOW)
        assert parse_distribution(text).pieces == HEAVY_LOW.pieces
        parsed = parse_distribution("pieces:0,0.1,7.5;0.1,1,0.2777777777777778")
        assert parsed.cdf(0.1) == pytest.approx(0.75)
        for bad in ("0,1,1", "pieces:0,1", "pieces:0,0.5,2;0.5,1,x"):
            with pytest.raises(ValueError):
                parse_distribution(bad)

    def test_sampling_matches_cdf(self):
        psi = UNIFORM.sample(10_000, seed=3)
        assert ((psi > 0) & (psi < 1)).all()
        sigma = math.sqrt(0.25 / 10_000)
        assert abs((psi <= 0.5).mean() - 0.5) < 3 * sigma
        psi = HEAVY_LOW.sample(10_000, seed=4)
        sigma = math.sqrt(0.75 * 0.25 / 10_000)
        assert abs((psi <= 0.1).mean() - 0.75) < 3 * sigma

    def test_sampling_deterministic(self):
        a = NEAR_ONE.sample(500, seed=11)
        b = NEAR_ONE.sample(500, seed=11)
        assert np.array_equal(a, b)


class TestClassProbabilities:
    def test_vulnerable_fraction_is_cdf_at_inverse_degree(self):
        # a degree-k node is vulnerable with probability F(1/k)
        assert UNIFORM.cdf(1 / 3) == pytest.approx(1 / 3)
        assert HEAVY_LOW.cdf(1 / 10) == pytest.approx(0.75, abs=1e-12)
        # hand integration of the near-one density: F(0.5) = 0.5 / 999
        assert NEAR_ONE.cdf(1 / 2) == pytest.approx(0.5 / 999, rel=1e-12)

    def test_reliable_probability(self):
        assert reliable_probabilities(UNIFORM, 0) == 1.0
        assert reliable_probabilities(UNIFORM, 4) == pytest.approx(0.25)
        assert reliable_probabilities(HEAVY_LOW, 1) == 1.0
        assert reliable_probabilities(NEAR_ONE, 1) == 1.0
        with pytest.raises(ValueError, match="non-negative"):
            reliable_probabilities(UNIFORM, -1)
        with pytest.raises(ValueError, match="non-negative"):
            reliable_probabilities(UNIFORM, [3, 0, -2])


class TestClassify:
    def test_hand_labels(self):
        # path of four nodes: degrees 1, 2, 2, 1
        g = _graph_from_coords([[1.0, 1.0], [1.9, 1.0], [2.8, 1.0], [3.7, 1.0]])
        psi = np.array([0.9, 0.25, 0.75, 0.1])
        cls = classify(g, psi)
        assert cls.vulnerable.tolist() == [True, True, False, True]
        assert cls.reliable.tolist() == [True, False, True, True]
        # node 0's only neighbor is unreliable; nodes 2 and 3 touch a reliable node
        assert isolated_reliable(g, psi).tolist() == [True, False, False, False]

    def test_degree_three_quarter_threshold_vulnerable(self):
        # hub with three satellites: 0.25 <= 1/3 makes the hub vulnerable
        coords = [[3.0, 3.0], [3.9, 3.0], [2.1, 3.0], [3.0, 3.9]]
        g = _graph_from_coords(coords)
        assert g.degrees[0] == 3
        cls = classify(g, np.array([0.25, 0.9, 0.9, 0.9]))
        assert cls.vulnerable[0]
        assert not cls.reliable[0]

    def test_threshold_vector_length_checked(self):
        g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0]])
        message = re.escape("threshold vector shape (3,) does not match node count 2")
        with pytest.raises(ValueError, match=message):
            classify(g, np.full(3, 0.5))
        with pytest.raises(ValueError, match=message):
            run_cascade(g, np.full(3, 0.5), seed_node=0)

    def test_degree_zero_reliable(self):
        g = _graph_from_coords([[1.0, 1.0], [5.0, 5.0]])
        cls = classify(g, np.array([0.01, 0.99]))
        assert cls.reliable.all()
        assert not cls.vulnerable.any()

    def test_empirical_frequencies_match_rho_sigma(self):
        pts = generate_uniform(12_000, Region(70.0, 70.0), seed=21)
        g = build_graph(pts, 1.0)
        psi = UNIFORM.sample(len(g), 22)
        cls = classify(g, psi)
        for k in (3, 4, 5, 6):
            at_k = g.degrees == k
            count = int(at_k.sum())
            rho = UNIFORM.cdf(1 / k)
            sigma_k = reliable_probabilities(UNIFORM, k)
            se_v = math.sqrt(rho * (1 - rho) / count)
            se_r = math.sqrt(sigma_k * (1 - sigma_k) / count)
            assert abs(cls.vulnerable[at_k].mean() - rho) < 3 * se_v
            assert abs(cls.reliable[at_k].mean() - sigma_k) < 3 * se_r


class TestRunCascade:
    def test_path_rounds(self):
        g = _graph_from_coords([[1.0, 1.0], [1.9, 1.0], [2.8, 1.0]])
        state = run_cascade(g, np.array([0.9, 0.4, 0.4]), seed_node=0)
        assert [r.tolist() for r in state.rounds] == [[0], [1], [2]]
        assert state.failed.all()

    def test_isolated_seed(self):
        g = _graph_from_coords([[1.0, 1.0], [5.0, 5.0]])
        state = run_cascade(g, np.array([0.5, 0.5]), seed_node=0)
        assert [r.tolist() for r in state.rounds] == [[0]]
        assert state.failed_count == 1

    def test_star_rounds(self):
        # five leaves at 72 degrees, radius 0.9: pairwise distance 1.058 > 1
        coords = [[3.0, 3.0]] + [
            [3.0 + 0.9 * math.cos(a), 3.0 + 0.9 * math.sin(a)]
            for a in np.linspace(0.0, 2 * math.pi, 6)[:-1]
        ]
        g = _graph_from_coords(coords)
        assert g.degrees.tolist() == [5, 1, 1, 1, 1, 1]
        state = run_cascade(g, np.full(6, 0.99), seed_node=0)
        assert [r.tolist() for r in state.rounds] == [[0], [1, 2, 3, 4, 5]]

    def test_seed_validation(self):
        g = _graph_from_coords([[1.0, 1.0]])
        with pytest.raises(ValueError):
            run_cascade(g, np.array([0.5]), seed_node=5)
        with pytest.raises(ValueError):
            run_cascade(g, np.array([0.5, 0.5]), seed_node=0)
        for psi in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"thresholds\[0\]"):
                run_cascade(g, np.array([psi]), seed_node=0)

    def test_round_replay_reproduces_final_mask(self):
        pts = generate_uniform(300, Region(12.0, 12.0), seed=40)
        g = build_graph(pts, 1.0)
        psi = HEAVY_LOW.sample(len(g), 41)
        state = run_cascade(g, psi, seed_node=7)
        nbrs = neighbor_lists(g)
        failed = np.zeros(len(g), dtype=bool)
        for t, round_nodes in enumerate(state.rounds):
            for i in round_nodes.tolist():
                if t == 0:
                    assert i == 7
                    continue
                frac = failed[nbrs[i]].sum() / g.degrees[i]
                assert frac >= psi[i]
            failed[round_nodes] = True
        assert np.array_equal(failed, state.failed)
        # no operational node should have a triggering fraction left
        for i in np.flatnonzero(~state.failed).tolist():
            if g.degrees[i]:
                assert failed[nbrs[i]].sum() / g.degrees[i] < psi[i]

    def test_vulnerable_neighbor_fails_next_round(self):
        pts = generate_uniform(250, Region(10.0, 10.0), seed=50)
        g = build_graph(pts, 1.0)
        psi = HEAVY_LOW.sample(len(g), 51)
        state = run_cascade(g, psi, seed_node=0)
        vulnerable = classify(g, psi).vulnerable
        nbrs = neighbor_lists(g)
        failed_so_far = np.zeros(len(g), dtype=bool)
        for t, round_nodes in enumerate(state.rounds):
            failed_so_far[round_nodes] = True
            if t + 1 < len(state.rounds):
                next_round = set(state.rounds[t + 1].tolist())
            else:
                next_round = set()
            for i in np.flatnonzero(vulnerable & ~failed_so_far).tolist():
                if failed_so_far[nbrs[i]].any():
                    assert i in next_round

    def test_adjacent_reliable_pair_survives(self):
        pts = generate_uniform(300, Region(11.0, 11.0), seed=60)
        g = build_graph(pts, 1.0)
        psi = UNIFORM.sample(len(g), 61)
        state = run_cascade(g, psi, seed_node=3)
        reliable = classify(g, psi).reliable
        for u, v in g.edges.tolist():
            if reliable[u] and reliable[v] and 3 not in (u, v):
                assert not state.failed[u] and not state.failed[v]

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32), node=st.integers(0, 79), drop=st.floats(0.01, 0.99))
    def test_lowering_one_threshold_grows_failure(self, seed, node, drop):
        pts = generate_uniform(80, Region(6.0, 6.0), seed=seed)
        g = build_graph(pts, 1.0)
        psi = UNIFORM.sample(len(g), seed + 1)
        lowered = psi.copy()
        lowered[node] = psi[node] * drop
        base = run_cascade(g, psi, seed_node=0).failed
        more = run_cascade(g, lowered, seed_node=0).failed
        assert (base <= more).all()

    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 2**32),
        seed_node=st.integers(0, 99),
        dist=st.sampled_from([HEAVY_LOW, UNIFORM]),
    )
    def test_rounds_match_synchronous_oracle(self, seed, seed_node, dist):
        pts = generate_uniform(100, Region(7.0, 7.0), seed=seed)
        g = build_graph(pts, 1.0)
        nbrs = neighbor_lists(g)
        psi = dist.sample(len(g), seed + 3)
        state = run_cascade(g, psi, seed_node)
        failed = np.zeros(len(g), dtype=bool)
        failed[seed_node] = True
        expected = [[seed_node]]
        while True:
            # every operational node triggered by the failures through the last round
            nxt = [i for i in range(len(g)) if not failed[i] and nbrs[i]
                   and failed[nbrs[i]].sum() / len(nbrs[i]) >= psi[i]]
            if not nxt:
                break
            failed[nxt] = True
            expected.append(nxt)
        assert [r.tolist() for r in state.rounds] == expected
        assert np.array_equal(state.failed, failed)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32), seed_node=st.integers(0, 99))
    def test_schedule_confluence(self, seed, seed_node):
        pts = generate_uniform(100, Region(7.0, 7.0), seed=seed)
        g = build_graph(pts, 1.0)
        psi = HEAVY_LOW.sample(len(g), seed + 7)
        sync = run_cascade(g, psi, seed_node).failed
        assert np.array_equal(sync, async_cascade_oracle(g, psi, seed_node))
        # thresholds are positive, so the failed set is one component holding the seed
        assert sync[seed_node]
        assert bfs_component_sizes(g, sync) == [int(sync.sum())]

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32),
        seed_node=st.integers(0, 179),
        dist=st.sampled_from([HEAVY_LOW, NEAR_ONE, UNIFORM]),  # spreading, contained, uniform
    )
    def test_failed_set_between_percolation_bounds(self, seed, seed_node, dist):
        # One failed neighbor triggers a vulnerable node, so the failed set holds
        # every vulnerable component that holds or touches the seed. A reliable
        # node fails only after all its neighbors, so it passes no cascade on:
        # the failed set lies in the seed's component among the unreliable nodes
        # and the seed, together with the reliable nodes all of whose neighbors
        # lie in that component.
        g = build_graph(generate_uniform(180, Region(5.0, 5.0), seed=seed), 1.0)
        nbrs = neighbor_lists(g)
        psi = dist.sample(len(g), seed + 11)
        failed = run_cascade(g, psi, seed_node).failed
        cls = classify(g, psi)

        labels = components(g, cls.vulnerable).labels
        touched = labels[[seed_node, *nbrs[seed_node]]]
        lower = cls.vulnerable & np.isin(labels, touched[touched >= 0])
        lower[seed_node] = True

        unreliable = ~cls.reliable
        unreliable[seed_node] = True
        labels = components(g, unreliable).labels
        upper = labels == labels[seed_node]
        enclosed = np.array([bool(nb) and upper[nb].all() for nb in nbrs])
        upper |= cls.reliable & enclosed

        assert (lower <= failed).all() and (failed <= upper).all()
        exposed = np.array([failed[nb].any() for nb in nbrs])
        assert not (cls.vulnerable & ~failed & exposed).any()


class TestVulnerableComponents:
    def test_no_vulnerable_nodes(self):
        g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0], [1.25, 1.4]])
        lab = components(g, classify(g, np.full(3, 0.9)).vulnerable)
        assert lab.largest_size == 0

    def test_all_vulnerable_equals_plain_labeling(self):
        pts = generate_uniform(200, Region(9.0, 9.0), seed=70)
        g = build_graph(pts, 1.0)
        psi = np.full(200, 1e-9)
        lab = components(g, classify(g, psi).vulnerable)
        plain = components(g, g.degrees >= 1)
        assert np.array_equal(lab.sizes, plain.sizes)


class TestIsolatedReliable:
    def test_no_reliable_nodes(self):
        g = _graph_from_coords([[1.0, 1.0], [1.5, 1.0], [1.25, 1.4]])
        assert isolated_reliable_count_check(g, np.full(3, 1e-9)) == 0

    def test_hand_built_five_sector_configuration(self):
        # five satellites at radius 0.95, angles 72 degrees apart: adjacent to
        # the hub (0.95 <= 1) but not to each other (chord 1.117 > 1); six such
        # satellites cannot exist, since six angular gaps cannot all exceed 60
        # degrees
        coords = [[3.0, 3.0]] + [
            [3.0 + 0.95 * math.cos(a), 3.0 + 0.95 * math.sin(a)]
            for a in np.linspace(0.0, 2 * math.pi, 6)[:-1]
        ]
        g = _graph_from_coords(coords)
        # oracle check of the geometry before relying on it
        c = np.asarray(coords)
        d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
        sat = slice(1, 6)
        assert (d[0, sat] <= 1.0).all()
        off_diag = d[sat, sat][~np.eye(5, dtype=bool)]
        assert (off_diag > 1.0).all()
        # hub unreliable (psi <= 4/5), satellites reliable by degree 1
        psi = np.array([0.5, 0.9, 0.9, 0.9, 0.9, 0.9])
        iso = isolated_reliable(g, psi)
        assert iso[1:].all()
        assert not iso[0]
        assert isolated_reliable_count_check(g, psi) == 5

    def test_bound_on_random_instances(self):
        for s in range(200):
            pts = generate_uniform(80, Region(5.0, 5.0), seed=s)
            g = build_graph(pts, 1.0)
            dist = (UNIFORM, HEAVY_LOW, NEAR_ONE)[s % 3]
            psi = dist.sample(len(g), s + 999)
            assert isolated_reliable_count_check(g, psi) <= 6
