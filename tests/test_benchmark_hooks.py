"""The traced benchmark run (perfbench/tracer.py) replaces geoperc attributes by
name and reads fields of their results; a rename or a deleted field would break
only that run. These tests load the tracer as it is and exercise its hooks."""

import importlib.util
from pathlib import Path

from geoperc import experiments
from geoperc.cascade import ThresholdDistribution
from geoperc.failures import IndependentFailure

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


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
