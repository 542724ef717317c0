"""Span tracing around geoperc's public layer functions, for the traced run only.

`Tracer.installed()` replaces each function in TARGETS at the place its
callers look it up (for example ``geoperc.experiments.build_graph``, which the
trial loop calls) with a wrapper that records a span, and restores the
originals on exit. Spans stay in memory as (name, start, end, parent, trial)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

import numpy as np
from geoperc import cascade, experiments, theory

# (span name, owner, attribute). The span name is <layer>.<function>, with the
# layer named after the module; geoperc.seeding counts inside experiments.
TARGETS = (
    ("geometry.generate_uniform", experiments, "generate_uniform"),
    ("geometry.generate_poisson", experiments, "generate_poisson"),
    ("graph.build_graph", experiments, "build_graph"),
    ("graph.crosses", experiments, "crosses"),
    ("graph.components", experiments, "components"),
    ("failures.apply_failures", experiments, "apply_failures"),
    ("cascade.sample", cascade.ThresholdDistribution, "sample"),
    ("cascade.classify", experiments, "classify"),
    ("cascade.run_cascade", experiments, "run_cascade"),
    ("theory.critical_q", theory, "critical_q"),
    ("theory.critical_phi", theory, "critical_phi"),
    ("theory.no_infinite_component_nondecreasing", theory, "no_infinite_component_nondecreasing"),
    ("theory.no_cascade_condition", theory, "no_cascade_condition"),
    ("experiments.estimate_lambda_c", experiments, "estimate_lambda_c"),
    ("experiments.estimate_qc", experiments, "estimate_qc"),
    ("experiments.run_sweep", experiments, "run_sweep"),
    ("experiments.run_cascade_trials", experiments, "run_cascade_trials"),
    ("experiments.run_cascade_trial", experiments, "run_cascade_trial"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# Point placement is the first step of every Monte Carlo trial, so each
# placement call opens a new trial id, and spans of the per-trial layers carry
# it until the next. Spans of experiments and theory carry -1: the estimators
# span many trials and the series evaluators belong to none.
_TRIAL_OPENERS = {"geometry.generate_uniform", "geometry.generate_poisson"}
_PER_TRIAL_LAYERS = ("geometry.", "graph.", "failures.", "cascade.")


def _count_points(counts, args, result):
    counts["geometry.points"] += len(result)


def _count_edges(counts, args, result):
    counts["graph.edges"] += result.edge_count


def _count_alive(counts, args, result):
    counts["graph.components.alive_nodes"] += int(np.count_nonzero(args[1]))


def _count_failures(counts, args, result):
    counts["failures.alive"] += int(np.count_nonzero(result.alive))
    counts["failures.nodes"] += len(result.alive)


def _count_rounds(counts, args, result):
    counts["cascade.rounds"] += len(result.rounds)


_COUNTERS = {
    "geometry.generate_uniform": _count_points,
    "geometry.generate_poisson": _count_points,
    "graph.build_graph": _count_edges,
    "graph.components": _count_alive,
    "failures.apply_failures": _count_failures,
    "cascade.run_cascade": _count_rounds,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trial = -1

    def _wrap(self, name, fn):
        opens_trial = name in _TRIAL_OPENERS
        per_trial = name.startswith(_PER_TRIAL_LAYERS)
        count = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if opens_trial:
                self._trial += 1
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trial if per_trial else -1)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TARGETS]
        try:
            for (name, _, _), (owner, attr, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and call count per span name.

        Work is single-threaded, so a span's children never overlap and its
        self time is its duration minus the sum of its children's durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                ) + "\n")


def layer_metrics(tracer: Tracer, tasks: int, traced_wall: float, overhead: float) -> dict:
    """Per-task layer metrics from the spans and counts of `tasks` traced tasks.

    traced_wall is the summed wall time of the traced tasks; experiments.self_s
    is that wall time minus every span of the other layers. overhead is the
    traced task time over the untraced one, minus 1.
    """
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = self_s[name] / tasks
        out[f"{name}.calls"] = calls[name] / tasks
    build_s = self_s["graph.build_graph"]
    lower_layers = sum(v for k, v in self_s.items() if not k.startswith("experiments."))
    out.update({
        "geometry.points": counts["geometry.points"] / tasks,
        "graph.edges": counts["graph.edges"] / tasks,
        "graph.build_graph.edges_per_s": counts["graph.edges"] / build_s if build_s else 0.0,
        "graph.components.alive_nodes": counts["graph.components.alive_nodes"] / tasks,
        # no failure draws (lambda-c) leaves every node alive
        "failures.alive_frac": (counts["failures.alive"] / counts["failures.nodes"]
                                if counts["failures.nodes"] else 1.0),
        "cascade.rounds": counts["cascade.rounds"] / tasks,
        "experiments.graphs_per_run": calls["graph.build_graph"] / tasks,
        "experiments.self_s": (traced_wall - lower_layers) / tasks,
        "trace.overhead_frac": overhead,
    })
    return out


PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "geometry.points": "count",
    "graph.edges": "count",
    "graph.build_graph.edges_per_s": "1/s",
    "graph.components.alive_nodes": "count",
    "failures.alive_frac": "fraction",
    "cascade.rounds": "count",
    "experiments.graphs_per_run": "count",
    "experiments.self_s": "s",
    "trace.overhead_frac": "fraction",
}
