"""The four benchmark workloads: task, warm-up and output checks for each.

A task calls only public geoperc entry points, through module attributes
(``experiments.estimate_qc``, ``theory.critical_q``), so the traced run can
wrap them where they are looked up. Imported only inside a worker process,
after ``src/`` is on the path.
"""

from __future__ import annotations

import math

from geoperc import experiments, theory
from geoperc.cascade import ThresholdDistribution
from geoperc.failures import DegreeFunctionFailure, IndependentFailure, ThresholdAttack

# Profiles of scripts/cascade_demo.py.
SPREADING = ThresholdDistribution(((0.0, 0.1, 7.5), (0.1, 1.0, 5 / 18)))
CONTAINED = ThresholdDistribution(((0.0, 0.999, 1 / 999), (0.999, 1.0, 999.0)))

DEGREE_RULES = (
    IndependentFailure(0.3),
    DegreeFunctionFailure((0.0, 0.0, 0.05, 0.1, 0.15, 0.2), 0.25),
    ThresholdAttack(4),
)
# Giant-component indicator each rule must give at lambda = 5 on every trial:
# the first two leave a survivor density far above lambda_c, the attack kills
# nearly every node (mean degree 5 pi).
DEGREE_EXPECTED_GIANT = (1.0, 1.0, 0.0)

# Closed-form values at the seed commit; the series evaluators are
# deterministic, so any drift beyond 1e-9 is a change in their output.
THEORY_TOLERANCE = 1e-9
SEED_THEORY = {
    "no_infinite_component_nondecreasing(5, indep:0.3)": 0.1737739434504451,
    "no_infinite_component_nondecreasing(5, table)": 0.08213259088211099,
    "no_infinite_component_nondecreasing(5, attack:4)": 0.12410603681879306,
    "critical_q(5)": 0.713,
    "critical_phi(5)": -1.0,
    "no_cascade_condition(1600/225, spreading)": 0.9707455093277961,
    "no_cascade_condition(1600/225, contained)": 0.0034739437885861037,
}

# Default seeds are the acceptance-gate seeds (tests/test_acceptance.py).
GATE_SEEDS = {
    "lambda-c": {"base": 2024},
    "qc": {"base": 11},
    "cascade": {"spreading": 9, "contained": 7},
    "degree-failure": {"base": 42},
}

# Per-size parameters. "full" is the benchmark; "tiny" exists for the smoke
# test and keeps the same checks at sizes chosen so they hold at gate seeds.
SIZES = {
    "full": {
        "lambda-c": {"side": 50.0, "radius": 1.0, "trials": 200},
        "qc": {"lam": 2.87, "side": 50.0, "trials": 100},
        "cascade": {"n": 1600, "side": 15.0, "trials": 100},
        "degree-failure": {"lam": 5.0, "side": 150.0, "trials": 1},
    },
    "tiny": {
        "lambda-c": {"side": 50.0, "radius": 1.0, "trials": 20},
        "qc": {"lam": 2.87, "side": 50.0, "trials": 10},
        "cascade": {"n": 1600, "side": 15.0, "trials": 20},
        "degree-failure": {"lam": 5.0, "side": 30.0, "trials": 1},
    },
}


def seeds_for(workload: str, seed: int | None) -> dict:
    """The base seeds of a workload: the gate seeds, or `seed` for every one."""
    gate = GATE_SEEDS[workload]
    return dict(gate) if seed is None else {key: seed for key in gate}


def _cascade_config(p: dict, distribution, seeding: str, base_seed: int, trials: int):
    return experiments.ExperimentConfig(
        kind="cascade-trial", width=p["side"], height=p["side"], n=p["n"],
        count_mode="fixed", distribution=distribution, seeding=seeding,
        trials=trials, base_seed=base_seed,
    )


def _degree_config(p: dict, side: float, trials: int, base_seed: int):
    return experiments.ExperimentConfig(
        kind="failure-sweep", width=side, height=side, lambdas=(p["lam"],),
        rules=DEGREE_RULES, trials=trials, base_seed=base_seed, proxy="giant-fraction",
    )


# --- tasks: one timed operation each ----------------------------------------

def task_lambda_c(p, seeds):
    return experiments.estimate_lambda_c(
        side=p["side"], radius=p["radius"], trials=p["trials"], base_seed=seeds["base"]
    )


def task_qc(p, seeds):
    return experiments.estimate_qc(
        p["lam"], side=p["side"], trials=p["trials"], base_seed=seeds["base"]
    )


def task_cascade(p, seeds):
    lam = p["n"] / (p["side"] * p["side"])
    spreading = experiments.run_cascade_trials(_cascade_config(
        p, SPREADING, "adjacent-to-largest-vulnerable-component",
        seeds["spreading"], p["trials"],
    ))
    contained = experiments.run_cascade_trials(_cascade_config(
        p, CONTAINED, "random-node", seeds["contained"], p["trials"],
    ))
    return {
        "spreading": spreading,
        "contained": contained,
        "theory": {
            "no_cascade_condition(1600/225, spreading)":
                theory.no_cascade_condition(lam, SPREADING).lhs,
            "no_cascade_condition(1600/225, contained)":
                theory.no_cascade_condition(lam, CONTAINED).lhs,
        },
    }


def task_degree_failure(p, seeds):
    sweep = experiments.run_sweep(_degree_config(p, p["side"], p["trials"], seeds["base"]))
    lam = p["lam"]
    values = {
        f"no_infinite_component_nondecreasing(5, {name})":
            theory.no_infinite_component_nondecreasing(lam, rule).lhs
        for name, rule in zip(("indep:0.3", "table", "attack:4"), DEGREE_RULES)
    }
    values["critical_q(5)"] = theory.critical_q(lam)
    values["critical_phi(5)"] = float(theory.critical_phi(lam))
    return {"estimates": tuple(pt.estimate for pt in sweep.points), "theory": values}


# --- warm-ups: the same entry points and layers at a few graphs --------------

def warm_lambda_c(p, seeds):
    experiments.run_sweep(experiments.ExperimentConfig(
        kind="percolation-sweep", width=p["side"], height=p["side"], radius=p["radius"],
        lambdas=(1.44,), trials=4, base_seed=seeds["base"],
    ))


def warm_qc(p, seeds):
    experiments.run_sweep(experiments.ExperimentConfig(
        kind="failure-sweep", width=p["side"], height=p["side"], lambdas=(p["lam"],),
        rules=(IndependentFailure(0.5),), trials=4, base_seed=seeds["base"],
    ))


def warm_cascade(p, seeds):
    experiments.run_cascade_trials(_cascade_config(
        p, SPREADING, "adjacent-to-largest-vulnerable-component", seeds["spreading"], 2,
    ))
    experiments.run_cascade_trials(_cascade_config(p, CONTAINED, "random-node", seeds["contained"], 2))


def warm_degree_failure(p, seeds):
    experiments.run_sweep(_degree_config(p, 20.0, 1, seeds["base"]))
    theory.no_infinite_component_nondecreasing(p["lam"], DEGREE_RULES[0])


# --- output checks at the acceptance-gate tolerances -------------------------
# Each returns a list of failure messages; empty means the output is correct.

def _theory_failures(values: dict) -> list[str]:
    out = []
    for name, value in values.items():
        want = SEED_THEORY[name]
        if not (math.isfinite(value) and abs(value - want) <= THEORY_TOLERANCE):
            out.append(f"{name} = {value!r}, seed value {want!r}")
    return out


def check_lambda_c(result, p) -> list[str]:
    out = []
    if not result.high - result.low <= 0.02:
        out.append(f"bracket [{result.low}, {result.high}] wider than 0.02")
    if not (result.low <= 1.50 and result.high >= 1.38):
        out.append(f"bracket [{result.low}, {result.high}] misses [1.38, 1.50]")
    return out


def check_qc(result, p) -> list[str]:
    if 0.45 <= result.midpoint <= 0.55:
        return []
    return [f"q_c midpoint {result.midpoint} outside [0.45, 0.55]"]


def check_cascade(result, p) -> list[str]:
    out = []
    trials = p["trials"]
    spread = sum(r.feasible and r.failed_fraction >= 0.5 for r in result["spreading"])
    if spread < 0.80 * trials:
        out.append(f"spreading: {spread}/{trials} trials failed half the network, need 80%")
    contained = sum(r.failed_count <= 7 for r in result["contained"])
    if contained < 0.95 * trials:
        out.append(f"contained: {contained}/{trials} trials failed <= 7 nodes, need 95%")
    return out + _theory_failures(result["theory"])


def check_degree_failure(result, p) -> list[str]:
    out = []
    for rule, got, want in zip(DEGREE_RULES, result["estimates"], DEGREE_EXPECTED_GIANT):
        if got != want:
            out.append(f"{rule.to_text()}: giant indicator {got}, expected {want}")
    return out + _theory_failures(result["theory"])


WORKLOADS = {
    "lambda-c": (task_lambda_c, warm_lambda_c, check_lambda_c),
    "qc": (task_qc, warm_qc, check_qc),
    "cascade": (task_cascade, warm_cascade, check_cascade),
    "degree-failure": (task_degree_failure, warm_degree_failure, check_degree_failure),
}
