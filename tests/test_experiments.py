import dataclasses
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import geoperc.io
from geoperc import cascade as cascade_module
from geoperc import experiments
from geoperc import graph as graph_module
from geoperc.cascade import ThresholdDistribution
from geoperc.failures import (
    DegreeFunctionFailure,
    IndependentFailure,
    ThresholdAttack,
    apply_failures,
    parse_rule,
)
from geoperc.experiments import (
    BisectionResult,
    ExperimentConfig,
    _bisect,
    _median_ci_rank,
    _trial_critical_qs,
    estimate_lambda_c,
    estimate_qc,
    run_cascade_trials,
    run_sweep,
    trial_seeds,
)
from geoperc.geometry import Region, generate_poisson, generate_uniform
from geoperc.graph import build_graph, crosses
from geoperc.io import SchemaError, config_from_dict, config_to_dict, load_json
from geoperc.seeding import STREAM_FAILURES, STREAM_PLACEMENT, derive_seed, substream
from geoperc.theory import SubcriticalDensityError

from conftest import per_rule_sweep, trial_graph, whole_graph_critical_q

HEAVY_LOW = ThresholdDistribution(((0.0, 0.1, 7.5), (0.1, 1.0, 5 / 18)))
ABOVE_HALF = ThresholdDistribution(((0.0, 0.5, 0.0), (0.5, 1.0, 2.0)))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="percolation-sweep", width=10, height=10, lambdas=())
    with pytest.raises(ValueError):
        ExperimentConfig(kind="failure-sweep", width=10, height=10, lambdas=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="percolation-sweep", width=10, height=10, lambdas=(1.0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="cascade-trial", width=10, height=10, lambdas=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="mystery", width=10, height=10)
    with pytest.raises(ValueError, match="kind must be one of"):
        ExperimentConfig(kind="lambda-c-estimate", width=10, height=10)
    for name in ("proxy", "seeding", "count_mode"):
        with pytest.raises(ValueError, match=f"{name} must be one of .*, got 'bogus'"):
            ExperimentConfig(kind="percolation-sweep", width=10, height=10, lambdas=(1.0,),
                             **{name: "bogus"})


def test_base_seed_outside_64_bits_rejected_by_name():
    # masking to 64 bits would alias -1 to 2**64 - 1 and 2**64 to 0
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^base_seed must be in \[0, 2\*\*64\), got {bad}$"):
            ExperimentConfig(kind="percolation-sweep", width=10, height=10, lambdas=(1.0,),
                             base_seed=bad)
        with pytest.raises(ValueError, match="base_seed"):
            estimate_qc(2.87, trials=4, base_seed=bad)
        with pytest.raises(ValueError, match="base_seed"):
            config_from_dict({"kind": "percolation-sweep", "region": {"width": 10, "height": 10},
                              "lambdas": [1.0], "base_seed": bad})
    for good in (0, 2**64 - 1):
        assert estimate_qc(2.87, trials=4, base_seed=good).base_seed == good


def test_config_round_trip():
    cfg = ExperimentConfig(
        kind="failure-sweep",
        width=20.0,
        height=20.0,
        lambdas=(1.5, 2.0),
        rules=(IndependentFailure(0.25),),
        trials=5,
        base_seed=77,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg
    cfg2 = config_from_dict(
        {
            "kind": "cascade-trial",
            "region": {"width": 15, "height": 15},
            "trials": 3,
            "n": 100,
            "count_mode": "fixed",
            "distribution": "pieces:0,1,1",
        }
    )
    assert cfg2.n == 100
    assert cfg2.distribution is not None
    assert config_from_dict(config_to_dict(cfg2)) == cfg2
    examples = sorted((pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.json"))
    assert len(examples) == 2
    for cfg3 in (
        ExperimentConfig(kind="percolation-sweep", width=12.0, height=9.0, boundary="torus",
                         radius=1.5, lambdas=(0.5, 3.0), trials=3, base_seed=4,
                         proxy="giant-fraction"),
        ExperimentConfig(kind="cascade-trial", width=15.0, height=15.0, lambdas=(7.0,),
                         distribution=HEAVY_LOW, seeding="adjacent-to-largest-vulnerable-component"),
        *(config_from_dict(load_json(str(path))) for path in examples),
    ):
        assert config_from_dict(config_to_dict(cfg3)) == cfg3
    with pytest.raises(ValueError):
        config_from_dict({"kind": "failure-sweep", "region": {"width": 10, "height": 10}})
    with pytest.raises(SchemaError, match="experiment config must be a JSON object"):
        config_from_dict([1, 2, 3])


def test_config_rejects_n_outside_fixed_count_mode():
    # n sets the point count only in fixed mode; a Poisson config would drop it
    with pytest.raises(ValueError, match="count_mode is 'fixed' exactly when n is given, got "
                                         "count_mode 'poisson' with n=1600"):
        ExperimentConfig(kind="cascade-trial", width=15.0, height=15.0, n=1600,
                         distribution=HEAVY_LOW)
    with pytest.raises(ValueError, match="n is not read by kind 'percolation-sweep'"):
        ExperimentConfig(kind="percolation-sweep", width=15.0, height=15.0, lambdas=(2.0,), n=400)
    with pytest.raises(ValueError, match=r"takes one lambda or an n, got lambdas=\[\] and n=None"):
        ExperimentConfig(kind="cascade-trial", width=15.0, height=15.0, count_mode="fixed",
                         distribution=HEAVY_LOW)


# Per kind, the fields a minimal config document gives beyond kind and region,
# and the same fields as ExperimentConfig arguments.
_MINIMAL_CONFIGS = {
    "percolation-sweep": ({"lambdas": [2.0]}, {"lambdas": (2.0,)}),
    "failure-sweep": ({"lambdas": [2.0], "rules": ["indep:0.3"]},
                      {"lambdas": (2.0,), "rules": (IndependentFailure(0.3),)}),
    "cascade-trial": ({"n": 100, "count_mode": "fixed", "distribution": "pieces:0,1,1"},
                      {"n": 100, "count_mode": "fixed",
                       "distribution": ThresholdDistribution(((0.0, 1.0, 1.0),))}),
}


@pytest.mark.parametrize("kind", tuple(experiments.READS))
def test_config_defaults_live_only_in_the_dataclass(kind):
    given, arguments = _MINIMAL_CONFIGS[kind]
    passed = []

    class Recording(ExperimentConfig):
        def __new__(cls, **kwargs):
            passed.append(set(kwargs))
            return super().__new__(cls)

    doc = {"kind": kind, "region": {"width": 15, "height": 15}, **given}
    expected = ExperimentConfig(kind=kind, width=15.0, height=15.0, **arguments)
    assert config_from_dict(doc) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geoperc.io, "ExperimentConfig", Recording)
        config_from_dict(doc)
    assert passed == [{"kind", "width", "height", *given}]


def test_every_config_field_is_read_by_some_kind():
    # a field that no kind reads could only ever hold its default
    read = {name for names in experiments.READS.values() for name in names}
    assert {f.name for f in dataclasses.fields(ExperimentConfig) if f.init} <= read


def test_config_from_dict_rejects_unknown_keys():
    doc = config_to_dict(ExperimentConfig(kind="percolation-sweep", width=15.0, height=15.0,
                                          lambdas=(2.0,)))
    with pytest.raises(SchemaError, match=r"unknown config key\(s\) \['trails'\]"):
        config_from_dict({**doc, "trails": 3})
    with pytest.raises(SchemaError, match=r"unknown region key\(s\) \['widht'\]"):
        config_from_dict({**doc, "region": {**doc["region"], "widht": 3}})


def test_single_trial_estimate_is_binary():
    cfg = ExperimentConfig(
        kind="percolation-sweep", width=12.0, height=12.0, lambdas=(2.5,), trials=1, base_seed=3
    )
    res = run_sweep(cfg)
    assert res.points[0].estimate in (0.0, 1.0)
    assert res.points[0].stderr == 0.0


def test_phase_extremes_and_proxy_agreement():
    for lam, lo, hi in ((0.5, 0.0, 0.15), (3.0, 0.85, 1.0)):
        for proxy in ("crossing", "giant-fraction"):
            cfg = ExperimentConfig(
                kind="percolation-sweep",
                width=50.0,
                height=50.0,
                lambdas=(lam,),
                trials=30,
                base_seed=8,
                proxy=proxy,
            )
            est = run_sweep(cfg).points[0].estimate
            assert lo <= est <= hi, (lam, proxy, est)


def test_sweep_reproducible_bit_for_bit():
    cfg = ExperimentConfig(
        kind="failure-sweep",
        width=20.0,
        height=20.0,
        lambdas=(2.0, 2.56),
        rules=(IndependentFailure(0.2),),
        trials=10,
        base_seed=123,
    )
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b


def test_trial_seeds_distinct_within_sweep():
    cfg = ExperimentConfig(
        kind="percolation-sweep", width=10, height=10, lambdas=(1.0, 2.0, 3.0), trials=50,
        base_seed=9,
    )
    seeds = [s for p in range(3) for s in trial_seeds(cfg, p)]
    assert len(set(seeds)) == len(seeds)


def test_failure_sweep_monotone_in_rule():
    rules = tuple(IndependentFailure(q) for q in (0.1, 0.35, 0.6))
    cfg = ExperimentConfig(
        kind="failure-sweep",
        width=25.0,
        height=25.0,
        lambdas=(2.56,),
        rules=rules,
        trials=60,
        base_seed=21,
    )
    # the rules share each trial's graph and failure uniforms, so a larger q
    # keeps a subset of the survivors and can only lose crossings
    pts = run_sweep(cfg).points
    for a, b in zip(pts, pts[1:]):
        assert b.estimate <= a.estimate


def test_percolation_sweep_monotone_in_density():
    cfg = ExperimentConfig(
        kind="percolation-sweep",
        width=30.0,
        height=30.0,
        lambdas=(1.0, 1.4, 1.8, 2.4),
        trials=40,
        base_seed=13,
    )
    pts = run_sweep(cfg).points
    for a, b in zip(pts, pts[1:]):
        slack = 3 * np.sqrt(a.stderr**2 + b.stderr**2)
        assert b.estimate >= a.estimate - slack


def test_estimators_deterministic():
    a = estimate_qc(2.0, trials=15, base_seed=3)
    b = estimate_qc(2.0, trials=15, base_seed=3)
    assert a == b


# Exact per-trial critical values at the gate configs. Any change to a random
# stream, the edge order or the crossing search shows here as a changed float,
# not as a drift inside the gates' tolerances.
GOLDEN_QC_Q_STAR = (0.45865547146325225, 0.48961114696415997, 0.49670847856442457,
                    0.48298102736811066, 0.45637948056182087)
GOLDEN_LAMBDA_C_STAR = (1.3111664517007409, 1.4070011295990663, 1.5461477285096752,
                        1.4189253751013247, 1.3648133645855174)


def test_estimator_trials_match_golden_values():
    assert estimate_qc(2.87, trials=5, base_seed=11).critical_values == GOLDEN_QC_Q_STAR
    assert estimate_lambda_c(trials=5, base_seed=2024).critical_values == GOLDEN_LAMBDA_C_STAR


# Exact estimates of a 2-lambda x 6-rule failure sweep per proxy: a nested
# indep chain, an attack and a table, lambda-major. Any change to a random
# stream or to which rules a labeled one implies shows here as a changed float.
GOLDEN_SWEEP_RULES = ("indep:0.1", "indep:0.3", "indep:0.5", "indep:0.7",
                      "attack:7", "table:0.0,0.1,0.2,0.4;tail=0.6")
GOLDEN_SWEEP_ESTIMATES = {
    "crossing": (1.0, 0.55, 0.0, 0.0, 0.4, 0.0, 1.0, 1.0, 1.0, 0.05, 0.0, 0.5),
    "giant-fraction": (1.0, 1.0, 0.4, 0.0, 1.0, 0.15, 1.0, 1.0, 1.0, 0.35, 0.0, 0.9),
}


@pytest.mark.parametrize("proxy", experiments.PROXIES)
def test_failure_sweep_matches_golden_values(proxy):
    cfg = ExperimentConfig(kind="failure-sweep", width=16.0, height=16.0, lambdas=(2.0, 3.5),
                           rules=tuple(parse_rule(t) for t in GOLDEN_SWEEP_RULES), trials=20,
                           base_seed=27, proxy=proxy)
    estimates = tuple(p.estimate for p in run_sweep(cfg).points)
    assert estimates == GOLDEN_SWEEP_ESTIMATES[proxy]


def test_failure_with_zero_rate_matches_unfailed():
    base = dict(width=25.0, height=25.0, lambdas=(1.4, 1.6), trials=25, base_seed=5)
    plain = run_sweep(ExperimentConfig(kind="percolation-sweep", **base))
    rules = (IndependentFailure(0.0), IndependentFailure(0.3))
    noop = run_sweep(ExperimentConfig(kind="failure-sweep", rules=rules, **base))
    for i, lam in enumerate(base["lambdas"]):
        point = noop.points[i * len(rules)]
        assert point.params == {"lambda": lam, "rule": "indep:0.0"}
        assert point.estimate == plain.points[i].estimate


def _coupled_failure_config(proxy: str) -> ExperimentConfig:
    return ExperimentConfig(
        kind="failure-sweep",
        width=15.0,
        height=15.0,
        lambdas=(2.0, 3.0),
        rules=(IndependentFailure(0.2), DegreeFunctionFailure((0.0, 0.1, 0.3), 0.5),
               ThresholdAttack(5)),
        trials=6,
        base_seed=19,
        proxy=proxy,
    )


def test_failure_sweep_builds_one_graph_per_lambda_trial(monkeypatch):
    built = []

    def counting_build_graph(*args, **kwargs):
        built.append(1)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_graph", counting_build_graph)
    cfg = _coupled_failure_config("crossing")
    assert len(run_sweep(cfg).points) == 6
    assert len(built) == 2 * cfg.trials


@pytest.mark.parametrize("proxy", ["crossing", "giant-fraction"])
def test_failure_sweep_replays_from_lambda_trial_seeds(proxy):
    # every point is the mean of direct replays of its rule on the trial
    # graphs of its lambda, all rules reading the same failure uniforms
    cfg = _coupled_failure_config(proxy)
    points = run_sweep(cfg).points
    assert [(p.params, p.estimate) for p in points] == per_rule_sweep(cfg)
    assert all(type(p.estimate) is float and type(p.stderr) is float for p in points)


_RULES = st.one_of(
    st.builds(IndependentFailure, st.sampled_from((0.0, 0.2, 0.45, 0.7, 1.0))),
    st.builds(DegreeFunctionFailure,
              st.lists(st.sampled_from((0.0, 0.3, 0.6, 1.0)), min_size=1, max_size=4)
              .map(tuple), st.sampled_from((0.0, 0.3, 1.0))),
    st.builds(ThresholdAttack, st.integers(0, 12)),
)


@given(
    rules=st.lists(_RULES, min_size=1, max_size=6).flatmap(  # 1-8 rules, duplicates
        lambda rules: st.permutations(rules + rules[1:3]).map(tuple)),
    lambdas=st.lists(st.sampled_from((0.0, 1.5, 3.0, 5.0)), min_size=1, max_size=2),
    side=st.sampled_from((4.0, 9.0, 14.0)),
    proxy=st.sampled_from(experiments.PROXIES),
    base_seed=st.integers(0, 2**32),
)
def test_implied_indicators_equal_per_rule_labeling(rules, lambdas, side, proxy, base_seed):
    # a sweep skips the rules a labeled one implies: its estimates must be
    # those of labeling every rule on every trial, for any mix of rule kinds
    cfg = ExperimentConfig(kind="failure-sweep", width=side, height=side,
                           lambdas=tuple(lambdas), rules=rules, trials=4,
                           base_seed=base_seed, proxy=proxy)
    assert [(p.params, p.estimate) for p in run_sweep(cfg).points] == per_rule_sweep(cfg)


def _labelings_per_trial(cfg):
    """run_sweep(cfg) in this process, with the proxy labelings and fail_nodes
    calls of each trial, in trial order."""
    trials = []

    def counting_build_graph(points, radius):
        trials.append(Counter())
        return build_graph(points, radius)

    def counting(name, function):
        def counted(*args):
            trials[-1][name] += 1
            return function(*args)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "build_graph", counting_build_graph)
        for name in ("components", "crosses", "fail_nodes"):
            patch.setattr(experiments, name, counting(name, getattr(experiments, name)))
        patch.setattr(experiments, "_worker_count", lambda trials: 1)  # count every trial here
        result = run_sweep(cfg)
    return result, [(c["components"] + c["crosses"], c["fail_nodes"]) for c in trials]


@pytest.mark.parametrize("proxy", experiments.PROXIES)
def test_nested_rule_chain_labels_a_binary_search(proxy):
    # 14 nested indep rules: ceil(log2(15)) = 4 labelings decide all of them
    rules = tuple(IndependentFailure(q / 20) for q in range(1, 15))
    cfg = ExperimentConfig(kind="failure-sweep", width=30.0, height=30.0, lambdas=(3.0, 5.0),
                           rules=rules, trials=8, base_seed=3, proxy=proxy)
    _, counts = _labelings_per_trial(cfg)
    assert len(counts) == 2 * cfg.trials
    assert all(1 <= labeled <= 4 and failed == labeled for labeled, failed in counts), counts


def test_degree_rules_label_one_alive_set():
    # indep:0.3 is labeled and implies the milder table; the attack keeps
    # too few nodes for a giant component, so it is failed but not labeled
    rules = (IndependentFailure(0.3),
             DegreeFunctionFailure((0.0, 0.0, 0.05, 0.1, 0.15, 0.2), 0.25), ThresholdAttack(4))
    cfg = ExperimentConfig(kind="failure-sweep", width=30.0, height=30.0, lambdas=(5.0,),
                           rules=rules, trials=2, base_seed=42, proxy="giant-fraction")
    result, counts = _labelings_per_trial(cfg)
    assert [p.estimate for p in result.points] == [1.0, 1.0, 0.0]
    assert counts == [(1, 2)] * cfg.trials


@pytest.mark.parametrize("proxy", experiments.PROXIES)
def test_one_rule_sweeps_label_once_per_trial(proxy):
    base = dict(width=12.0, height=12.0, lambdas=(0.0, 2.0), trials=3, base_seed=5, proxy=proxy)
    _, counts = _labelings_per_trial(ExperimentConfig(kind="percolation-sweep", **base))
    assert counts == [(0, 0)] * 3 + [(1, 0)] * 3  # lambda 0 gives empty graphs
    _, counts = _labelings_per_trial(ExperimentConfig(
        kind="failure-sweep", rules=(IndependentFailure(0.2),), **base))
    assert counts == [(0, 1)] * 3 + [(1, 1)] * 3


def test_estimate_lambda_c_validates_inputs():
    with pytest.raises(ValueError):
        estimate_lambda_c(side=20.0)
    for radius, message in ((0.0, r"radius must be positive, got 0\.0$"),
                            (-1.0, r"radius must be positive, got -1\.0$"),
                            (math.nan, r"region side 50\.0 must be at least 50 radii \(nan\)$")):
        with pytest.raises(ValueError, match=message):
            estimate_lambda_c(radius=radius, trials=2, base_seed=1)
    # the bracket (1, 2) / radius**2 leaves the float range: one error naming
    # the radius, not a ZeroDivisionError, OverflowError or Poisson count error
    for side, radius in ((50.0, 1e-200), (1e203, 1e200)):
        with pytest.raises(ValueError, match="^" + re.escape(f"radius {radius} puts the density")):
            estimate_lambda_c(side=side, radius=radius, trials=2, base_seed=1)


@pytest.mark.parametrize(
    "values, lo, hi, rising",
    # every trial crosses only above hi; no trial crosses even intact
    [([2.5, 3.0, math.inf], 1.0, 2.0, True), ([-math.inf] * 3, 0.0, 1.0, False)],
    ids=["rising", "falling"],
)
def test_bisect_rejects_a_bracket_that_does_not_straddle(values, lo, hi, rising):
    with pytest.raises(ValueError, match="initial bracket does not straddle"):
        _bisect(np.array(values), lo, hi, 0.02, rising, 1)


def test_estimate_qc_validates_inputs():
    with pytest.raises(SubcriticalDensityError):
        estimate_qc(1.0)
    # the critical density scales as radius**-2: lambda radius**2 = 1 is subcritical
    with pytest.raises(SubcriticalDensityError, match=r"critical density 5\.74$"):
        estimate_qc(4.0, radius=0.5, trials=2, base_seed=1)
    for side, radius in ((20.0, 1.0), (0.0, 1.0), (50.0, 2.0), (50.0, 1e200)):
        with pytest.raises(ValueError, match=rf"side {side} must be at least 50 radii"):
            estimate_qc(2.87, side=side, radius=radius, trials=2, base_seed=1)
    # extreme radii raise these errors, not an OverflowError or ZeroDivisionError
    with pytest.raises(SubcriticalDensityError, match="critical density inf$"):
        estimate_qc(2.87, radius=1e-200, trials=2, base_seed=1)


def test_estimators_depend_on_lambda_radius_squared_only():
    # twice the side and radius at a quarter of the density places the same
    # Poisson count and doubles every coordinate exactly, so every trial graph
    # and its q* are the same
    assert (estimate_qc(1.0, side=100.0, radius=2.0, trials=30, base_seed=11)
            == estimate_qc(4.0, side=50.0, trials=30, base_seed=11))
    unit = estimate_lambda_c(trials=40, base_seed=11)
    scaled = estimate_lambda_c(side=100.0, radius=2.0, trials=40, base_seed=11)
    assert scaled.critical_values == tuple(v / 4 for v in unit.critical_values)
    assert scaled.evaluations == tuple((x / 4, p) for x, p in unit.evaluations)
    assert (scaled.low, scaled.high) == (unit.low / 4, unit.high / 4)


def test_finite_size_scaling_shrinks_bias():
    # doubling the region side improves the estimate on average over seeds
    errs50, errs100 = [], []
    for seed in (1, 2, 3):
        r50 = estimate_lambda_c(side=50.0, trials=80, base_seed=seed)
        r100 = estimate_lambda_c(side=100.0, trials=80, base_seed=seed)
        errs50.append(abs(r50.midpoint - 1.435))
        errs100.append(abs(r100.midpoint - 1.435))
    assert np.mean(errs100) <= np.mean(errs50)


def _assert_critical_q_matches_crosses(graph, seed):
    q_star = whole_graph_critical_q(graph, seed)
    grid = list(np.linspace(0.0, 1.0, 9))
    if math.isfinite(q_star):
        grid += [q_star, float(np.nextafter(q_star, 1.0))]
    for q in grid:
        alive = apply_failures(graph, IndependentFailure(q), seed).alive
        assert (q <= q_star) == crosses(graph, alive), (q, q_star)
    return q_star


@given(
    side=st.floats(3.0, 12.0),
    lam=st.floats(0.5, 5.0),
    placement=st.integers(0, 2**32),
    seed=st.integers(0, 2**32),
)
def test_critical_q_matches_crosses_oracle(side, lam, placement, seed):
    graph = build_graph(generate_poisson(lam, Region(side, side), placement), 1.0)
    _assert_critical_q_matches_crosses(graph, seed)


def test_critical_q_degenerate_graphs():
    empty = build_graph(generate_uniform(0, Region(5.0, 5.0), seed=1), 1.0)
    assert _assert_critical_q_matches_crosses(empty, 3) == -math.inf
    isolated = build_graph(generate_uniform(40, Region(10.0, 10.0), seed=2), 0.05)
    assert _assert_critical_q_matches_crosses(isolated, 4) == -math.inf


def test_critical_q_labels_each_graph_about_once(monkeypatch):
    # the search shrinks the graph at every step, so all its labelings
    # together see far fewer edges than one full relabeling per step would
    handed = []

    def counting_component_roots(n, u, v):
        handed.append(len(u))
        return component_roots(n, u, v)

    component_roots = graph_module._component_roots
    monkeypatch.setattr(graph_module, "_component_roots", counting_component_roots)
    side = 30.0
    for seed in (1, 2, 3, 4):
        graph = build_graph(generate_poisson(2.87, Region(side, side), seed), 1.0)
        handed.clear()
        q_star = whole_graph_critical_q(graph, seed)
        assert sum(handed) <= 1.5 * graph.edge_count, (seed, sum(handed), graph.edge_count)
        for q, expected in ((q_star, True), (float(np.nextafter(q_star, 1.0)), False)):
            alive = apply_failures(graph, IndependentFailure(q), seed).alive
            assert crosses(graph, alive) is expected


def _builds_per_trial(run):
    """run(), with each trial's placed point count and the point count of
    every graph the trial built, in trial order."""
    trials = []

    def placing_trial_points(*args):
        points = trial_points(*args)
        trials.append((len(points), []))
        return points

    def counting_build_graph(points, radius):
        trials[-1][1].append(len(points))
        return build_graph(points, radius)

    trial_points = experiments._trial_points
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_trial_points", placing_trial_points)
        patch.setattr(experiments, "build_graph", counting_build_graph)
        patch.setattr(experiments, "_worker_count", lambda trials: 1)  # count every trial here
        result = run()
    return result, trials


def test_estimators_build_one_graph_per_trial():
    # one graph per trial, of the survivors only: a return to full builds, or
    # a survivor graph that misses on every trial, fails here
    for run, trials in ((lambda: estimate_qc(2.87, trials=7, base_seed=5), 7),
                        (lambda: estimate_lambda_c(trials=9, base_seed=5), 9)):
        _, builds = _builds_per_trial(run)
        assert sum(len(built) for _, built in builds) == trials
        assert all(built[0] < placed for placed, built in builds), builds


def _estimator_trial_config(lam, side, radius, trials, base_seed) -> ExperimentConfig:
    """An estimator's trial graphs, one Poisson graph at density lam per trial,
    on boxes smaller than the estimators accept."""
    return ExperimentConfig(kind="percolation-sweep", width=side, height=side, radius=radius,
                            lambdas=(lam,), trials=trials, base_seed=base_seed)


def _assert_survivor_search_matches_full_graph(config: ExperimentConfig) -> Counter:
    """Every trial's q* equals the critical q of its whole graph; returns how
    often each branch ran: a survivor hit, a miss and its fallback, or only
    the full build (t0 <= 0)."""
    q_star, trials = _builds_per_trial(lambda: _trial_critical_qs(config))
    floored = config.lambdas[0] * config.radius**2 > experiments._SURVIVOR_DENSITY
    branches = Counter()
    for seed, q, (placed, built) in zip(trial_seeds(config, 0), q_star, trials, strict=True):
        graph = trial_graph(config, 0, seed)
        assert q == whole_graph_critical_q(graph, substream(seed, STREAM_FAILURES)), (seed, q)
        if not floored:
            branch = "full"
            assert built == [placed]
        elif len(built) == 1:
            branch = "hit"
            assert built[0] <= placed and q != -math.inf
        else:
            branch = "miss"
            assert built[0] <= placed and built[1] == placed
        branches[branch] += 1
    return branches


@given(
    side=st.floats(3.0, 12.0),
    lam=st.floats(0.5, 5.0),
    base_seed=st.integers(0, 2**32),
)
def test_survivor_search_matches_full_graph_oracle(side, lam, base_seed):
    config = _estimator_trial_config(lam, side, 1.0, 4, base_seed)
    _assert_survivor_search_matches_full_graph(config)


# (side, lambda, radius): small boxes, where survivors at t0 often miss; a
# floored case at radius 1.2; lambda radius**2 at or below the survivor
# density (t0 <= 0), down to lambda 0, which places no points
BRANCH_CASES = ((3.0, 5.0, 1.0), (4.0, 3.0, 1.0), (12.0, 5.0, 1.0), (8.0, 1.5, 1.2),
                (6.0, 1.2, 1.0), (6.0, 2.0, 0.8), (5.0, 0.0, 1.0))


def test_survivor_search_takes_every_branch():
    branches = Counter()
    for side, lam, radius in BRANCH_CASES:
        config = _estimator_trial_config(lam, side, radius, 20, 1)
        branches += _assert_survivor_search_matches_full_graph(config)
    assert branches["hit"] and branches["miss"] and branches["full"], branches


def test_evaluations_monotone_in_parameter():
    for result, rising in (
        (estimate_qc(2.87, trials=30, base_seed=11), False),
        (estimate_lambda_c(trials=30, base_seed=2024), True),
    ):
        curve = [p for _, p in sorted(result.evaluations)]
        assert curve == sorted(curve, reverse=not rising)


def test_estimators_replay_trials_from_their_seeds():
    # every evaluation equals the mean of direct crossings of each trial's
    # graph, rebuilt from derive_seed(base_seed, 0, t, trials)
    side = 50.0
    for result, lam_graph, to_q in (
        (estimate_qc(2.87, trials=8, base_seed=11), 2.87, lambda q: q),
        (estimate_lambda_c(trials=8, base_seed=2024), 2.0, lambda lam: 1.0 - lam / 2.0),
    ):
        hits = np.zeros(len(result.evaluations))
        trials = len(result.critical_values)
        for t in range(trials):
            seed = derive_seed(result.base_seed, 0, t, trials)
            pts = generate_poisson(lam_graph, Region(side, side), substream(seed, STREAM_PLACEMENT))
            graph = build_graph(pts, 1.0)
            for i, (x, _) in enumerate(result.evaluations):
                rule = IndependentFailure(to_q(x))
                alive = apply_failures(graph, rule, substream(seed, STREAM_FAILURES)).alive
                hits[i] += crosses(graph, alive)
        assert [p for _, p in result.evaluations] == list(hits / trials)


def test_bisection_stops_at_float_resolution(monkeypatch):
    # a width below float spacing ends with adjacent floats around the one
    # per-trial value where the crossing fraction drops below 1/2
    monkeypatch.setattr(experiments, "BRACKET_WIDTH", 1e-300)
    tight = estimate_qc(2.87, trials=5, base_seed=11)
    assert np.nextafter(tight.low, 1.0) == tight.high
    assert tight.low == tight.median


def test_median_ci_rank_matches_binomial_tail():
    for n in range(1, 80):
        tail = [sum(math.comb(n, i) for i in range(j + 1)) for j in range(n)]
        ok = [j for j in range(n) if 40 * tail[j] <= 2**n]
        assert _median_ci_rank(n) == (max(ok) if ok else None), n


def test_bisection_result_median_and_interval():
    values = (0.3, -math.inf, 0.1, 0.5, 0.2, 0.4, 0.6)
    result = BisectionResult(0.25, 0.3, (), 0, values)
    assert result.median == 0.3
    assert result.median_ci == (-math.inf, 0.6)
    doc = result.to_dict()
    assert doc["critical_values"] == [0.3, None, 0.1, 0.5, 0.2, 0.4, 0.6]
    assert doc["trials"] == 7
    assert doc["median_ci"] == {"level": 0.95, "low": None, "high": 0.6}
    few = BisectionResult(0.25, 0.3, (), 0, values[:5])
    assert few.median_ci == (-math.inf, math.inf)


def test_cascade_trial_all_isolated_nodes():
    cfg = ExperimentConfig(
        kind="cascade-trial",
        width=40.0,
        height=40.0,
        n=30,
        count_mode="fixed",
        radius=0.01,
        distribution=HEAVY_LOW,
        trials=1,
        base_seed=2,
    )
    [rec] = run_cascade_trials(cfg)
    assert rec.feasible
    assert rec.failed_count == 1
    assert rec.failed_fraction == pytest.approx(1 / 30)
    assert rec.rounds == 1


def test_cascade_trial_infeasible_policy_recorded():
    # complete graph (radius spans the region): degrees 49, and the threshold
    # distribution has no mass at or below 1/2, so no node is vulnerable
    cfg = ExperimentConfig(
        kind="cascade-trial",
        width=3.0,
        height=3.0,
        n=50,
        count_mode="fixed",
        radius=5.0,
        distribution=ABOVE_HALF,
        seeding="adjacent-to-largest-vulnerable-component",
        trials=4,
        base_seed=17,
    )
    records = run_cascade_trials(cfg)
    assert all(not r.feasible for r in records)
    assert all(r.seed_node is None for r in records)


def test_cascade_trials_deterministic():
    cfg = ExperimentConfig(
        kind="cascade-trial",
        width=15.0,
        height=15.0,
        n=400,
        count_mode="fixed",
        distribution=HEAVY_LOW,
        seeding="adjacent-to-largest-vulnerable-component",
        trials=5,
        base_seed=31,
    )
    assert run_cascade_trials(cfg) == run_cascade_trials(cfg)


def test_cascade_trials_label_once_per_trial(monkeypatch):
    # the failed set is connected, so a trial labels only its vulnerable nodes;
    # the cascade module counts neighbors once per round and never for classify
    labeled, counted = [], []

    def counting_components(graph, alive):
        labeled.append(len(graph))
        return components(graph, alive)

    def counting_neighbor_counts(graph, mask):
        counted.append(len(graph))
        return neighbor_counts(graph, mask)

    components = experiments.components
    neighbor_counts = cascade_module._neighbor_counts
    monkeypatch.setattr(experiments, "components", counting_components)
    monkeypatch.setattr(cascade_module, "_neighbor_counts", counting_neighbor_counts)
    for seeding in experiments.SEEDINGS:
        labeled.clear()
        counted.clear()
        records = run_cascade_trials(ExperimentConfig(
            kind="cascade-trial", width=15.0, height=15.0, n=400, count_mode="fixed",
            distribution=HEAVY_LOW, seeding=seeding, trials=6, base_seed=41,
        ))
        assert all(rec.feasible for rec in records)
        assert len(labeled) == len(records), (seeding, len(labeled))
        assert len(counted) == sum(rec.rounds for rec in records), (seeding, len(counted))
