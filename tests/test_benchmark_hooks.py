"""The benchmark (perfbench/) calls geoperc entry points by name and reads
fields of their results: the traced run replaces attributes and counts result
fields, and the workloads pass keyword arguments and check outputs. A rename, a
removed parameter or a deleted field would break only the benchmark run. These
tests load the tracer and the workloads as they are and exercise them."""

import importlib.util
from pathlib import Path

from geoperc import experiments
from geoperc.cascade import ThresholdDistribution
from geoperc.failures import IndependentFailure

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_trace_targets_resolve():
    for name, owner, attr in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_traced_run_counts_result_fields():
    sweep = experiments.ExperimentConfig(
        kind="failure-sweep", width=6.0, height=6.0, lambdas=(3.0,),
        rules=(IndependentFailure(0.3),), trials=2, proxy="giant-fraction",
    )
    cascade = experiments.ExperimentConfig(
        kind="cascade-trial", width=6.0, height=6.0, n=100, count_mode="fixed",
        distribution=ThresholdDistribution.uniform(), trials=2,
    )
    with tracer.Tracer().installed() as t:
        experiments.run_sweep(sweep)
        experiments.run_cascade_trials(cascade)
    _, calls = t.self_times()
    # the counters read build_graph(...).edge_count, apply_failures(...).alive
    # and run_cascade(...).rounds
    assert calls["graph.build_graph"] == 4
    assert calls["failures.apply_failures"] == 2
    assert calls["cascade.run_cascade"] == 2
    assert t.counts["graph.edges"] > 0
    assert t.counts["failures.nodes"] > 0
    assert t.counts["cascade.rounds"] >= 2


def test_workloads_pass_their_checks_at_tiny_size():
    for name, (task, warm, check) in workloads.WORKLOADS.items():
        p = workloads.SIZES["tiny"][name]
        seeds = workloads.seeds_for(name, None)
        warm(p, seeds)
        assert check(task(p, seeds), p) == [], name
