import ast
import math
import pathlib

import numpy as np
import pytest

from geoperc import theory
from geoperc.cascade import ThresholdDistribution
from geoperc.failures import DegreeFunctionFailure, IndependentFailure, ThresholdAttack
from geoperc.theory import (
    COLLAR_AREA,
    LAMBDA_C,
    SubcriticalDensityError,
    block_count_cap,
    circuit_count_bound,
    count_circuits_of_length,
    critical_phi,
    critical_q,
    enumerate_circuits,
    no_cascade_condition,
    no_infinite_component_nondecreasing,
    no_infinite_component_nonincreasing,
    reliable_probabilities,
    vulnerable_percolation_check,
)

UNIFORM = ThresholdDistribution.uniform()
HEAVY_LOW = ThresholdDistribution(((0.0, 0.1, 7.5), (0.1, 1.0, 5 / 18)))
NEAR_ONE = ThresholdDistribution(((0.0, 0.999, 1 / 999), (0.999, 1.0, 999.0)))

ORACLE_SAMPLES = 10**6


def mc_oracle_nondecreasing(lam, rule, seed):
    """Monte Carlo estimate of E[q(N-1)^N ; N>=1] + P(N=0), N ~ Poisson(lam/2)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    N = gen.poisson(lam / 2.0, ORACLE_SAMPLES)
    q = rule.probabilities(np.arange(int(N.max()) + 1))
    return float(np.where(N == 0, 1.0, q[np.maximum(N, 1) - 1] ** N).mean())


def mc_oracle_collar(lam, factor, seed):
    """Monte Carlo estimate of E[(1 - f(M+K-1)^K) ; K>=1]."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    K = gen.poisson(lam / 2.0, ORACLE_SAMPLES)
    M = gen.poisson(lam * COLLAR_AREA, ORACLE_SAMPLES)
    f = factor(M + np.maximum(K, 1) - 1)
    return float(np.where(K >= 1, 1.0 - f**K, 0.0).mean())


class TestCriticalQ:
    def test_double_critical_density(self):
        assert critical_q(2 * LAMBDA_C) == pytest.approx(0.5)

    def test_critical_density_literal_written_once(self):
        """LAMBDA_C is the one owner of the critical density: no other float
        literal of its value appears in the package."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "geoperc"
        sites = [(path.name, node.lineno)
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and type(node.value) is float
                 and node.value == 1.435]
        assert len(sites) == 1, sites

    def test_boundary_is_zero(self):
        assert critical_q(1.435) == pytest.approx(0.0)

    def test_double_density_value(self):
        assert critical_q(2.87) == pytest.approx(0.5)

    def test_subcritical_rejected(self):
        with pytest.raises(SubcriticalDensityError):
            critical_q(1.0)

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError, match="density must be positive, got nan"):
            critical_q(math.nan)

    def test_strictly_increasing(self):
        lams = np.linspace(1.5, 12.0, 40)
        qs = [critical_q(l) for l in lams]
        assert all(a < b for a, b in zip(qs, qs[1:]))


class TestNondecreasingCondition:
    def test_all_fail_gives_one(self):
        res = no_infinite_component_nondecreasing(2.0, IndependentFailure(1.0))
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.holds

    def test_none_fail_gives_poisson_void(self):
        res = no_infinite_component_nondecreasing(2.0, IndependentFailure(0.0))
        assert res.lhs == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert res.holds == (math.exp(-1.0) > 26 / 27)

    def test_attack_rule_matches_partial_sum_and_oracle(self):
        rule = ThresholdAttack(4)
        res = no_infinite_component_nondecreasing(2.56, rule)
        # independent evaluation: e^{-1.28} plus the Poisson(1.28) mass at k >= 6
        term = math.exp(-1.28)
        partial = [term]
        for k in range(1, 80):
            term *= 1.28 / k
            partial.append(term)
        direct = partial[0] + sum(partial[6:])
        assert res.lhs == pytest.approx(direct, abs=1e-10)
        assert res.lhs == pytest.approx(mc_oracle_nondecreasing(2.56, rule, seed=5), abs=1e-3)

    @pytest.mark.parametrize(
        "lam,rule,seed",
        [
            (1.7, IndependentFailure(0.3), 6),
            (3.2, DegreeFunctionFailure((0.0, 0.1, 0.3, 0.8), 0.95), 7),
            (0.9, DegreeFunctionFailure((0.2, 0.2, 0.6), 0.6), 8),
        ],
    )
    def test_oracle_agreement(self, lam, rule, seed):
        res = no_infinite_component_nondecreasing(lam, rule)
        assert res.lhs == pytest.approx(mc_oracle_nondecreasing(lam, rule, seed), abs=1e-3)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            no_infinite_component_nondecreasing(2.0, DegreeFunctionFailure((0.5, 0.1), 0.1))
        with pytest.raises(ValueError):
            no_infinite_component_nondecreasing(0.0, IndependentFailure(0.5))

    def test_monotone_in_rule(self):
        low = DegreeFunctionFailure((0.1, 0.2, 0.3), 0.5)
        high = DegreeFunctionFailure((0.2, 0.3, 0.4), 0.7)
        a = no_infinite_component_nondecreasing(2.0, low).lhs
        b = no_infinite_component_nondecreasing(2.0, high).lhs
        assert a <= b

    def test_bounds(self):
        for lam in (0.5, 2.0, 6.0):
            for rule in (IndependentFailure(0.3), ThresholdAttack(2)):
                lhs = no_infinite_component_nondecreasing(lam, rule).lhs
                assert math.exp(-lam / 2) - 1e-12 <= lhs <= 1.0 + 1e-12


class TestNonincreasingCondition:
    def test_all_fail_gives_zero(self):
        res = no_infinite_component_nonincreasing(2.0, IndependentFailure(1.0))
        assert res.lhs == 0.0
        assert res.holds

    def test_none_fail_gives_occupancy_mass(self):
        res = no_infinite_component_nonincreasing(2.0, IndependentFailure(0.0))
        assert res.lhs == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize(
        "lam,rule,seed",
        [
            (1.0, IndependentFailure(0.5), 9),
            (2.0, DegreeFunctionFailure((0.9, 0.7, 0.5, 0.3), 0.1), 10),
            (0.7, IndependentFailure(0.2), 11),
        ],
    )
    def test_oracle_agreement(self, lam, rule, seed):
        res = no_infinite_component_nonincreasing(lam, rule)
        assert res.lhs == pytest.approx(mc_oracle_collar(lam, rule.probabilities, seed), abs=1e-3)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            no_infinite_component_nonincreasing(2.0, ThresholdAttack(3))

    def test_antitone_in_rule(self):
        low = DegreeFunctionFailure((0.5, 0.4, 0.3), 0.1)
        high = DegreeFunctionFailure((0.9, 0.8, 0.7), 0.5)
        a = no_infinite_component_nonincreasing(2.0, low).lhs
        b = no_infinite_component_nonincreasing(2.0, high).lhs
        assert b <= a

    def test_bounds(self):
        for lam in (0.5, 2.0, 6.0):
            lhs = no_infinite_component_nonincreasing(lam, IndependentFailure(0.4)).lhs
            assert -1e-12 <= lhs <= 1.0 - math.exp(-lam / 2) + 1e-12


class TestNoCascadeCondition:
    def test_mass_above_all_ratios_gives_zero(self):
        # thresholds concentrated near 1: sigma_k is essentially 1 for all k
        res = no_cascade_condition(2.0, NEAR_ONE)
        assert res.lhs < 0.01
        assert res.holds

    @pytest.mark.parametrize(
        "lam,dist,seed",
        [
            (2.0, UNIFORM, 12),
            (1.5, HEAVY_LOW, 13),
            (1600 / 225, NEAR_ONE, 14),
        ],
    )
    def test_oracle_agreement(self, lam, dist, seed):
        res = no_cascade_condition(lam, dist)
        oracle = mc_oracle_collar(lam, lambda j: reliable_probabilities(dist, j), seed)
        assert res.lhs == pytest.approx(oracle, abs=1e-3)

    def test_near_one_profile_holds_at_dense_network(self):
        res = no_cascade_condition(1600 / 225, NEAR_ONE)
        assert res.holds

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError, match="density must be positive, got nan"):
            no_cascade_condition(math.nan, UNIFORM)

    def test_uniform_sigma_is_reciprocal(self):
        np.testing.assert_allclose(
            reliable_probabilities(UNIFORM, np.array([0, 1, 2, 4, 10])),
            [1.0, 1.0, 0.5, 0.25, 0.1],
        )


SERIES_EVALUATORS = (
    lambda: no_infinite_component_nondecreasing(3.0, IndependentFailure(0.99)).lhs,
    lambda: no_infinite_component_nonincreasing(3.0, IndependentFailure(0.35)).lhs,
    lambda: no_cascade_condition(3.0, HEAVY_LOW).lhs,
)


class TestSeriesTolerance:
    def test_tolerance_halving_self_consistency(self, monkeypatch):
        # the series truncated at TAIL_MASS is within TAIL_MASS of one with a
        # 1000x smaller tail, and differs from it, so the truncation is real
        tail = theory.TAIL_MASS
        truncated = [evaluate() for evaluate in SERIES_EVALUATORS]
        monkeypatch.setattr(theory, "TAIL_MASS", tail / 1000)
        refined = [evaluate() for evaluate in SERIES_EVALUATORS]
        for a, b in zip(truncated, refined):
            assert 0 < abs(a - b) < tail

    def test_tolerance_below_float_resolution_stops(self, monkeypatch):
        # a series whose tail mass never drops below TAIL_MASS ends at the term cap
        monkeypatch.setattr(theory, "_MAX_TERMS", 3)
        for evaluate in SERIES_EVALUATORS:
            with pytest.raises(ValueError, match=r"did not reach tail mass \S+ in 3 terms"):
                evaluate()


class TestVulnerablePercolationCheck:
    def test_point_mass_near_zero_always_passes(self):
        spike = ThresholdDistribution(((0.0, 1e-6, 1e6), (1e-6, 1.0, 0.0)))
        res = vulnerable_percolation_check(mu=8.0, mu1=5.0, dist=spike, k0=50)
        assert res.holds

    def test_uniform_example(self):
        res = vulnerable_percolation_check(mu=25.0, mu1=5.0, dist=UNIFORM, k0=10)
        assert res.lhs == pytest.approx(0.1)
        assert not res.holds  # 0.1 < 0.2

    def test_heavy_low_example(self):
        res = vulnerable_percolation_check(mu=10.0, mu1=5.0, dist=HEAVY_LOW, k0=10)
        assert res.lhs == pytest.approx(0.75, abs=1e-12)
        assert res.holds  # 0.75 >= 0.5

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            vulnerable_percolation_check(mu=5.0, mu1=8.0, dist=UNIFORM, k0=10)
        with pytest.raises(ValueError):
            vulnerable_percolation_check(mu=8.0, mu1=2.0, dist=UNIFORM, k0=10)
        with pytest.raises(ValueError):
            vulnerable_percolation_check(mu=8.0, mu1=5.0, dist=UNIFORM, k0=0)


class TestBlockCountCap:
    def test_substitutions(self):
        assert block_count_cap(1.0, 6.0) == pytest.approx(110.0)
        assert block_count_cap(2.0, 8.0) == pytest.approx(336.0)

    def test_linear_in_density(self):
        assert block_count_cap(2.6, 7.0) == pytest.approx(2 * block_count_cap(1.3, 7.0))

    def test_small_edge_rejected(self):
        with pytest.raises(ValueError):
            block_count_cap(1.0, 4.0)

    def test_nan_density_rejected(self):
        with pytest.raises(ValueError, match="density must be positive, got nan"):
            block_count_cap(math.nan, 6.0)


class TestCriticalPhi:
    def test_at_least_minus_one(self):
        for lam in (0.2, 1.0, 5.0, 30.0):
            assert critical_phi(lam) >= -1

    def test_lambda_ten(self):
        assert critical_phi(10.0) == 0

    def test_partial_sum_oracle(self):
        # independent check: scan partial sums directly for several densities
        for lam in (3.0, 10.0, 25.0, 44.5):
            bound = math.exp(lam / 2) / 27 + 1
            term, total = 1.0, 1.0
            sums = [total]
            for k in range(1, 400):
                term *= (lam / 2) / k
                total += term
                sums.append(total)
            best = max(j for j, s in enumerate(sums) if s < bound) - 1
            assert critical_phi(lam) == best

    def test_monotone_over_density_grid(self):
        values = [critical_phi(float(lam)) for lam in range(1, 61)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cutoff_where_exp_overflows(self):
        # exp(lambda / 2) overflows past lambda = 2 ln(float max) = 1419.57
        assert critical_phi(1410.0) == 656
        assert critical_phi(1419.0) == 660
        with pytest.raises(ValueError, match="lambda=1420"):
            critical_phi(1420.0)

    def test_tiny_density_unbounded(self):
        assert critical_phi(0.05) == math.inf

    def test_invalid_density(self):
        for lam in (0.0, math.nan):
            with pytest.raises(ValueError, match="density must be positive"):
                critical_phi(lam)


class TestCircuits:
    def test_bound_values(self):
        assert circuit_count_bound(2) == 12
        assert circuit_count_bound(3) == 216
        with pytest.raises(ValueError):
            circuit_count_bound(1)

    def test_unit_square_is_unique_shortest(self):
        assert enumerate_circuits(2) == 1

    def test_counts_within_bounds(self):
        for m in range(2, 6):
            assert enumerate_circuits(m) <= circuit_count_bound(m)

    def test_known_small_counts(self):
        # census by polyomino shape: circuits of perimeter 2m containing a
        # fixed cell = sum over hole-free shapes of (placements covering it)
        assert count_circuits_of_length(6) == 4  # dominoes: 2 orientations x 2 cells
        assert count_circuits_of_length(8) == 22  # trominoes 18 + square 4
        # tetrominoes (non-square) 72 + P-pentomino 40 + 2x3 rectangle 12
        assert count_circuits_of_length(10) == 124

    def test_odd_lengths_impossible(self):
        assert count_circuits_of_length(5) == 0
        assert count_circuits_of_length(7) == 0
        assert count_circuits_of_length(9) == 0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            enumerate_circuits(1)
        with pytest.raises(ValueError):
            enumerate_circuits(7)
