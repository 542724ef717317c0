"""Resilience analysis of random geometric graphs.

Point processes and geometric graphs, degree-dependent failure models,
threshold cascades, closed-form percolation conditions, and a reproducible
Monte Carlo experiment harness.
"""

__version__ = "0.1.0"

from .cascade import (
    CascadeState,
    NodeClassification,
    ThresholdDistribution,
    classify,
    isolated_reliable_count_check,
    parse_distribution,
    run_cascade,
    vulnerable_probability,
)
from .failures import (
    DegreeFunctionFailure,
    FailureOutcome,
    FailureRule,
    IndependentFailure,
    ThresholdAttack,
    apply_failures,
    degree_margin_rule,
    parse_rule,
)
from .geometry import OPEN_BOX, TORUS, PointSet, Region, generate_poisson, generate_uniform
from .graph import ComponentLabeling, SpatialGraph, build_graph, components, crosses
from .theory import (
    COLLAR_AREA,
    LAMBDA_C,
    MU_C,
    ConditionResult,
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
