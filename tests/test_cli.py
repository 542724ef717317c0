import argparse
import ast
import csv
import dataclasses
import io
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

import geoperc
from geoperc.cli import _emit, build_parser, main
from geoperc.cascade import distribution_to_text
from geoperc.experiments import (
    BisectionResult,
    CascadeTrialRecord,
    ExperimentConfig,
    run_cascade_trials,
)
from geoperc.failures import apply_failures, parse_rule
from geoperc.io import (
    SchemaError,
    config_from_dict,
    dump_json,
    graph_from_dict,
    load_graph,
    save_graph,
    to_csv,
)
from geoperc.geometry import Region, generate_uniform
from geoperc.graph import build_graph
from geoperc.seeding import STREAM_FAILURES, substream

from conftest import trial_graph
from test_acceptance import HEAVY_LOW, NEAR_ONE

REPO = pathlib.Path(__file__).resolve().parent.parent

# giant_threshold is no longer a config field: io's unknown-key check names it.
GIANT_THRESHOLD_UNKNOWN = (
    "unknown config key(s) ['giant_threshold']; expected a subset of ['kind', 'radius', "
    "'lambdas', 'rules', 'distribution', 'seeding', 'trials', 'base_seed', 'proxy', "
    "'count_mode', 'n', 'region']"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critical_q_output(capsys):
    code, out, _ = run_cli(capsys, "theory", "critical-q", "--lambda", "2.87")
    assert code == 0
    doc = json.loads(out)
    assert doc["q_c"] == pytest.approx(0.5)
    assert doc["version"] == geoperc.__version__


def test_non_finite_output_is_an_error_not_nan_json(capsys):
    code, out, err = run_cli(capsys, "theory", "critical-q", "--lambda", "nan")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# At least one case per float option of every leaf subcommand.
NON_FINITE_FLAG_CASES = [
    ("--side", ["estimate", "lambda-c", "--side", "inf", "--trials", "2"]),
    ("--radius", ["estimate", "lambda-c", "--radius", "nan", "--trials", "2"]),
    ("--width", ["generate", "--n", "5", "--width", "nan", "--height", "5", "--seed", "1"]),
    # -inf is named as non-finite, not as non-positive
    ("--radius", ["estimate", "lambda-c", "--radius=-inf", "--trials", "2"]),
    ("--width", ["generate", "--n", "5", "--width=-inf", "--height", "5", "--seed", "1"]),
    ("--lambda", ["estimate", "qc", "--lambda", "nan", "--trials", "2"]),
    ("--lambda", ["theory", "critical-q", "--lambda", "1e400"]),
    ("--width", ["generate", "--lambda", "1", "--width", "nan", "--height", "5", "--seed", "1"]),
    ("--d", ["theory", "block-cap", "--lambda", "2", "--d", "nan"]),
    ("--width", ["generate", "--n", "5", "--width", "inf", "--height", "5", "--seed", "1"]),
    ("--height", ["generate", "--n", "5", "--width", "5", "--height", "nan", "--seed", "1"]),
    ("--lambda", ["generate", "--lambda", "nan", "--width", "5", "--height", "5",
                  "--seed", "1"]),
    ("--radius", ["generate", "--n", "5", "--width", "5", "--height", "5",
                  "--radius", "inf", "--seed", "1"]),
    ("--lambda", ["theory", "cascade-condition", "--lambda", "nan", "--dist", "pieces:0,1,1"]),
    ("--lambda", ["theory", "critical-phi", "--lambda", "nan"]),
    ("--lambda", ["theory", "failure-condition", "--lambda", "inf", "--rule", "attack:4"]),
    ("--lambda", ["theory", "failure-condition", "--lambda", "nan", "--rule", "indep:0.1"]),
    ("--lambda", ["theory", "cascade-condition", "--lambda", "inf", "--dist", "pieces:0,1,1"]),
    ("--lambda", ["theory", "block-cap", "--lambda", "nan", "--d", "5"]),
    ("--side", ["estimate", "qc", "--lambda", "2.87", "--side", "nan", "--trials", "2"]),
    ("--radius", ["estimate", "qc", "--lambda", "2.87", "--radius", "inf", "--trials", "2"]),
]


@pytest.mark.parametrize("flag, argv", NON_FINITE_FLAG_CASES)
def test_non_finite_flag_rejected_by_name(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be a finite number"), err


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) of every leaf subcommand under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_every_float_flag_has_a_non_finite_case():
    covered = set()
    for flag, argv in NON_FINITE_FLAG_CASES:
        first_flag = next(i for i, arg in enumerate(argv) if arg.startswith("--"))
        covered.add((tuple(argv[:first_flag]), flag))
    floats = {(path, action.option_strings[0])
              for path, leaf in _leaf_parsers(build_parser())
              for action in leaf._actions if action.type is float}
    assert floats <= covered, floats - covered


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_censored_trials_emit_null(capsys):
    result = BisectionResult(1.4, 1.41, ((1.0, 0.0), (2.0, 1.0)), 3, 0, (1.45, math.inf, 1.38))
    _emit(result.to_dict(), None)
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["critical_values"] == [1.45, None, 1.38]
    assert doc["median"] == 1.45
    assert doc["median_ci"] == {"level": 0.95, "low": None, "high": None}


def test_save_graph_rejects_nan_meta(tmp_path):
    g = build_graph(generate_uniform(10, Region(5.0, 5.0), seed=1), 1.0)
    path = tmp_path / "nan.json"
    with pytest.raises(ValueError):
        save_graph(g, str(path), meta={"lambda": float("nan")})
    assert not path.exists()


def test_sweep_rejects_estimator_kind_up_front(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"kind": "lambda-c-estimate", "region": {"width": 15, "height": 15}}, fh)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert "kind must be one of" in err


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("width", math.inf, "width"),
        ("height", math.nan, "height"),
        ("radius", math.nan, "radius"),
        ("lambdas", [1.0, math.nan], "lambdas[1]"),
        ("lambdas", [1.0, -math.inf], "lambdas[1]"),  # non-finite before negative
        ("lambdas", ["x"], "lambdas[0]"),
        pytest.param("radius", 10**400, "radius", id="radius-int-past-float-range"),
    ],
)
def test_sweep_config_non_finite_field_rejected_by_name(tmp_path, capsys, field, value, name):
    config = {"kind": "percolation-sweep", "region": {"width": 15, "height": 15},
              "lambdas": [1.0], "trials": 2}
    if field in ("width", "height"):
        config["region"][field] = value
    else:
        config[field] = value
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)  # writes NaN / Infinity, which json.load accepts
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} must be a finite number"), err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("region", [5, 5], "region must be an object"),
        ("lambdas", 5, "lambdas must be a list"),
        ("rules", "indep:0.3", "rules must be a list"),
        ("rules", [5], "rules[0] must be a string"),
        ("distribution", 5, "distribution must be a string"),
        ("radius", "1.0", "radius must be a finite number"),
    ],
)
def test_sweep_config_wrong_json_type_rejected_by_name(tmp_path, capsys, field, value, message):
    config = {"kind": "percolation-sweep", "region": {"width": 15, "height": 15},
              "lambdas": [1.0], "trials": 2, field: value}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}, got "), err


@pytest.mark.parametrize(
    "field, value",
    [("trials", "1e400"), ("trials", "NaN"), ("trials", "2.5"), ("base_seed", "-Infinity"),
     ("n", "NaN"), ("trials", "true")],
)
def test_sweep_config_bad_integer_field_rejected_by_name(tmp_path, capsys, field, value):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write('{"kind": "percolation-sweep", "region": {"width": 15, "height": 15}, '
                 f'"lambdas": [1.0], "{field}": {value}}}')
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be an integer"), err


@pytest.mark.parametrize(
    "extra, message",
    [({"n": 400}, "n is not read by kind 'percolation-sweep'"),
     ({"trails": 3}, "unknown config key(s) ['trails']"),
     ({"region": {"width": 15, "height": 15, "boundry": "torus"}},
      "unknown region key(s) ['boundry']"),
     ({"rules": ["indep:0.9"]}, "rules is not read by kind 'percolation-sweep'"),
     ({"distribution": "pieces:0,1,1"},
      "distribution is not read by kind 'percolation-sweep'"),
     ({"kind": "failure-sweep", "rules": ["indep:0.3"], "distribution": "pieces:0,1,1"},
      "distribution is not read by kind 'failure-sweep'"),
     ({"seeding": "adjacent-to-largest-vulnerable-component"},
      "seeding is not read by kind 'percolation-sweep'"),
     ({"kind": "failure-sweep", "rules": ["indep:0.3"],
       "seeding": "adjacent-to-largest-vulnerable-component"},
      "seeding is not read by kind 'failure-sweep'"),
     ({"kind": "cascade-trial", "distribution": "pieces:0,1,1", "proxy": "giant-fraction"},
      "proxy is not read by kind 'cascade-trial'"),
     ({"kind": "cascade-trial", "distribution": "pieces:0,1,1", "giant_threshold": 0.5},
      GIANT_THRESHOLD_UNKNOWN),
     ({"giant_threshold": 0.5}, GIANT_THRESHOLD_UNKNOWN),
     ({"giant_threshold": math.nan}, GIANT_THRESHOLD_UNKNOWN),
     ({"giant_threshold": True}, GIANT_THRESHOLD_UNKNOWN),
     ({"count_mode": "fixed"}, "count_mode is not read by kind 'percolation-sweep'"),
     ({"kind": "cascade-trial", "distribution": "pieces:0,1,1", "count_mode": "fixed"},
      "count_mode is 'fixed' exactly when n is given, got count_mode 'fixed' with n=None"),
     ({"region": {"width": 15, "height": 15, "boundary": "torus"}},
      "proxy 'crossing' needs boundary 'open-box', got 'torus'")],
    ids=["n-with-poisson-count", "unknown-key", "unknown-region-key", "rules-on-percolation",
         "distribution-on-percolation", "distribution-on-failure-sweep",
         "seeding-on-percolation", "seeding-on-failure-sweep",
         "proxy-on-cascade-trial", "giant-threshold-on-cascade-trial",
         "giant-threshold-with-crossing", "giant-threshold-non-finite",
         "giant-threshold-wrong-type", "fixed-count-sweep", "fixed-count-without-n",
         "crossing-on-torus"],
)
def test_sweep_config_ignored_field_rejected_by_name(tmp_path, capsys, extra, message):
    config = {"kind": "percolation-sweep", "region": {"width": 15, "height": 15},
              "lambdas": [1.0], "trials": 2, **extra}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "change, message",
    [({"lambdas": [3.0, 3.0, -1.0]}, "lambdas[2] must be non-negative, got -1.0"),
     ({"region": {"height": 15}}, "width must be a finite number, got None"),
     ({"region": {"width": 15}}, "height must be a finite number, got None"),
     ({"giant_threshold": -5}, GIANT_THRESHOLD_UNKNOWN),
     ({"giant_threshold": 0}, GIANT_THRESHOLD_UNKNOWN),
     ({"giant_threshold": 7, "lambdas": [3.0]}, GIANT_THRESHOLD_UNKNOWN),
     ({"kind": "cascade-trial", "distribution": "pieces:0,1,1", "lambdas": [2.0, 7.0]},
      "cascade-trial takes one lambda or an n, got lambdas=[2.0, 7.0] and n=None"),
     ({"count_mode": "fixed", "n": 300, "lambdas": [0.5, 3.0]},
      "count_mode is not read by kind 'percolation-sweep'"),
     ({"radius": -1}, "radius must be positive, got -1.0"),
     ({"radius": 0}, "radius must be positive, got 0.0"),
     ({"kind": "cascade-trial", "distribution": "pieces:0,1,1", "lambdas": [],
       "count_mode": "fixed", "n": -5}, "n must be non-negative, got -5")],
    ids=["negative-lambda", "missing-width", "missing-height", "giant-threshold-negative",
         "giant-threshold-zero", "giant-threshold-above-one", "cascade-trial-two-lambdas",
         "n-beside-lambdas", "radius-negative", "radius-zero", "n-negative"],
)
def test_sweep_config_bad_value_rejected_by_name(tmp_path, capsys, change, message):
    config = {"kind": "percolation-sweep", "region": {"width": 15, "height": 15},
              "lambdas": [1.0], "trials": 2, "proxy": "giant-fraction", **change}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "dist, piece",
    [("pieces:0,0.5,nan;0.5,1,2", 0), ("pieces:0,1,nan", 0), ("pieces:0,0.5,1;0.5,inf,1", 1)],
)
def test_non_finite_distribution_rejected_by_piece(tmp_path, capsys, dist, piece):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "generate", "--n", "50", "--width", "8", "--height", "8",
            "--seed", "3", "--out", path)
    for argv in (
        ("cascade", "--graph", path, "--dist", dist, "--seed", "9"),
        ("theory", "cascade-condition", "--lambda", "2", "--dist", dist),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: piece {piece} has a non-finite"), err


def test_critical_phi_output(capsys):
    code, out, _ = run_cli(capsys, "theory", "critical-phi", "--lambda", "10")
    assert code == 0
    assert json.loads(out)["phi"] == 0


def test_critical_phi_past_exp_overflow_rejected_by_name(capsys):
    code, out, err = run_cli(capsys, "theory", "critical-phi", "--lambda", "1420")
    assert code == 1
    assert out == ""
    assert err.startswith("error: lambda=1420.0 is too large"), err
    code, out, _ = run_cli(capsys, "theory", "critical-phi", "--lambda", "1419")
    assert code == 0
    assert json.loads(out)["phi"] == 660


def test_failure_condition_output(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "failure-condition", "--lambda", "2.56", "--rule", "attack:4"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"condition", "lhs", "threshold", "holds"}
    assert doc["condition"] == "no-infinite-component-nondecreasing"


def test_cascade_condition_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "theory", "cascade-condition", "--lambda", str(1600 / 225),
        "--dist", "pieces:0,0.999,0.001001001001001001;0.999,1,999",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["lhs"] < 1 / 27


def test_circuit_bound_too_large_m_rejected_by_name(capsys):
    code, out, err = run_cli(capsys, "theory", "circuit-bound", "--m", "5000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --m must be at most"), err
    code, out, _ = run_cli(capsys, "theory", "circuit-bound", "--m", "4000")
    assert code == 0
    assert json.loads(out)["bound"] == 4 * 3999 * 3**7997


def test_block_cap_overflow_names_lambda_and_d(capsys):
    code, out, err = run_cli(capsys, "theory", "block-cap", "--lambda", "1e300", "--d", "1e300")
    assert code == 1
    assert out == ""
    assert err.startswith("error: block cap for lambda=1e+300 and d=1e+300"), err
    assert "is not finite" in err


@pytest.mark.parametrize("lam", ["1000", "120.6", "118.7"])
def test_cascade_condition_large_lambda_rejected_up_front(capsys, lam):
    # lambda * COLLAR_AREA is 5970, 720 and 708.64: exp(-mean) is 0 or
    # subnormal (below 2.2e-308 past a mean of 708.40)
    code, out, err = run_cli(
        capsys, "theory", "cascade-condition", "--lambda", lam, "--dist", "pieces:0,1,1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: Poisson mean"), err
    assert "from lambda is too large for float evaluation" in err


def test_cascade_condition_largest_normal_poisson_mean_evaluates(capsys):
    # lambda * COLLAR_AREA is 708.04: exp(-mean) is still a normal float
    code, out, _ = run_cli(
        capsys, "theory", "cascade-condition", "--lambda", "118.6", "--dist", "pieces:0,1,1"
    )
    assert code == 0
    assert json.loads(out)["lhs"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv, pattern",
    [
        (["--n", "-5"], r"error: --n must be non-negative, got -5$"),
        (["--lambda", "-1"], r"error: --lambda must be non-negative, got -1\.0$"),
        # about 2.25e17 points: numpy refuses the 3 EiB array before touching memory
        (["--lambda", "1e15"], r"error: out of memory: cannot place \d{18} points: "),
        # past numpy's size limit: refused with a ValueError, not a MemoryError
        (["--n", "1000000000000000000"],
         r"error: out of memory: cannot place 1000000000000000000 points: "),
    ],
)
def test_generate_bad_point_count_is_one_error_line(capsys, argv, pattern):
    code, out, err = run_cli(capsys, "generate", *argv, "--width", "15", "--height", "15",
                             "--seed", "1")
    assert code == 1
    assert out == ""
    assert re.match(pattern, err.rstrip("\n")), err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--lambda", "1e18", "--width", "5", "--height", "5", "--seed", "1"],
         "lambda 1e+18 times area 25.0 gives 2.5e+19 expected points"),
        (["sweep", "--config", "CONFIG"], "lambda 1e+308 times area 225.0 gives inf expected points"),
        (["estimate", "qc", "--lambda", "1e300", "--seed", "1"],
         "lambda 1e+300 times area 2500.0 gives "),
    ],
)
def test_extreme_poisson_intensity_is_one_error_line(tmp_path, capsys, argv, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "percolation-sweep", "region": {"width": 15, "height": 15},
                                  "lambdas": [1e308], "trials": 2}))
    code, out, err = run_cli(capsys, *(str(config) if a == "CONFIG" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + message), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("argv", [["generate", "--n", "5", "--width", "5", "--height", "5"],
                                  ["estimate", "qc", "--lambda", "2.87", "--trials", "2"]])
def test_seed_outside_64_bits_is_one_error_line(capsys, argv, seed):
    # masking to 64 bits would run another seed's stream and record this one
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 1
    assert out == ""
    assert err == f"error: --seed must be in [0, 2**64), got {seed}\n", err


@pytest.mark.parametrize("flag", ["--bracket-low", "--bracket-high"])
def test_estimate_lambda_c_bracket_flags_are_unrecognized(capsys, flag):
    # the bracket follows the radius, so it is no longer an input
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "lambda-c", flag, "1.5", "--seed", "1", "--trials", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag} 1.5\n" in captured.err


@pytest.mark.parametrize(
    "radius, side, message",
    [("0", "50", "radius must be positive, got 0.0"),
     ("-1", "50", "radius must be positive, got -1.0"),
     # the bracket (1, 2) / radius**2 would be (inf, inf) and (0, 0)
     ("1e-200", "50", "radius 1e-200 puts the density bracket (1.0, 2.0) / radius**2 "
                      "outside the float range, at (inf, inf)"),
     ("1e200", "1e203", "radius 1e+200 puts the density bracket (1.0, 2.0) / radius**2 "
                        "outside the float range, at (0.0, 0.0)")],
    ids=["zero", "negative", "tiny", "huge"],
)
def test_estimate_lambda_c_extreme_radius_is_one_error_line(capsys, radius, side, message):
    code, out, err = run_cli(capsys, "estimate", "lambda-c", "--radius", radius, "--side", side,
                             "--seed", "1", "--trials", "2")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n", err


@pytest.mark.parametrize("argv", [["lambda-c"], ["qc", "--lambda", "2.87"]])
def test_estimate_width_flag_is_unrecognized(capsys, argv):
    # both estimators stop bisecting at the fixed experiments.BRACKET_WIDTH
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *argv, "--width", "0.01", "--seed", "1", "--trials", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --width 0.01\n" in captured.err


@pytest.mark.parametrize("argv", [["lambda-c"], ["qc", "--lambda", "2.87"]])
def test_estimate_side_below_50_radii_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, "estimate", *argv, "--side", "0", "--trials", "2",
                             "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: region side 0.0 must be at least 50 radii (50.0)\n", err


def test_generate_then_fail_attack(tmp_path, capsys):
    graph_path = str(tmp_path / "g.json")
    code, out, _ = run_cli(
        capsys, "generate", "--n", "400", "--width", "25", "--height", "25",
        "--seed", "7", "--out", graph_path,
    )
    assert code == 0
    graph = load_graph(graph_path)
    code, out, _ = run_cli(capsys, "fail", "--graph", graph_path, "--rule", "attack:4", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    alive = np.asarray(doc["alive"], dtype=bool)
    assert not alive[graph.degrees > 4].any()
    assert alive[graph.degrees <= 4].all()
    assert doc["seed"] == 5


def test_graph_round_trip(tmp_path):
    pts = generate_uniform(120, Region(10.0, 10.0), seed=4)
    g = build_graph(pts, 1.0)
    path = str(tmp_path / "roundtrip.json")
    save_graph(g, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.points.coordinates, pts.coordinates)
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.points.region == pts.region


def test_load_rejects_point_outside_region(tmp_path):
    path = str(tmp_path / "bad.json")
    for bad in ([9.0, 1.0], [math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]):
        doc = {
            "region": {"width": 5.0, "height": 5.0, "boundary": "open-box"},
            "radius": 1.0,
            "points": [[1.0, 1.0], bad],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)  # writes NaN / Infinity, which json.load accepts
        with pytest.raises(SchemaError, match=r"points\[1\]"):
            load_graph(path)


def test_load_missing_boundary_defaults_with_warning():
    doc = {"region": {"width": 5.0, "height": 5.0}, "radius": 1.0, "points": [[1.0, 1.0]]}
    with pytest.warns(UserWarning, match="open-box"):
        g = graph_from_dict(doc)
    assert g.points.region.boundary == "open-box"


def test_schema_violations_name_the_field():
    for doc, field in (
        ({}, "region"),
        ({"region": {"width": 5.0}}, "region.height"),
        ({"region": {"width": 5.0, "height": 5.0}, "radius": -1.0, "points": []}, "radius"),
        ({"region": {"width": 5.0, "height": 5.0}, "radius": 1.0}, "points"),
        (
            {"region": {"width": 5.0, "height": 5.0}, "radius": 1.0, "points": [[1.0]]},
            "points[0]",
        ),
        # JSON true and false are not numbers
        ({"region": {"width": True, "height": 5.0}, "radius": 1.0, "points": []}, "region.width"),
        ({"region": {"width": 5.0, "height": False}, "radius": 1.0, "points": []},
         "region.height"),
        ({"region": {"width": 5.0, "height": 5.0}, "radius": True, "points": []}, "radius"),
        (
            {"region": {"width": 5.0, "height": 5.0}, "radius": 1.0,
             "points": [[1.0, 1.0], [True, False]]},
            "points[1]",
        ),
    ):
        with pytest.raises(SchemaError) as err:
            graph_from_dict(doc)
        assert field in str(err.value)


def test_malformed_json_file_clean_error(tmp_path, capsys):
    path = str(tmp_path / "garbage.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    code, _, err = run_cli(capsys, "fail", "--graph", path, "--rule", "indep:0.1", "--seed", "1")
    assert code == 1
    assert "error" in err


def test_missing_file_clean_error(capsys):
    code, _, err = run_cli(
        capsys, "fail", "--graph", "/nonexistent/g.json", "--rule", "indep:0.1", "--seed", "1"
    )
    assert code == 1
    assert "error" in err


# Valid arguments of each theory subcommand, so that only the added flag can fail.
_THEORY_ARGS = {
    "critical-q": ["--lambda", "2"],
    "critical-phi": ["--lambda", "2"],
    "failure-condition": ["--lambda", "2", "--rule", "attack:4"],
    "cascade-condition": ["--lambda", "2", "--dist", "pieces:0,1,1"],
    "block-cap": ["--lambda", "2", "--d", "1"],
    "circuit-bound": ["--m", "4"],
}


@pytest.mark.parametrize(
    "sub, flag",
    [("critical-q", "--frobnicate")]
    + [(sub, "--tolerance -1") for sub in _THEORY_ARGS]
    + [(sub, "--lambda-c 99") for sub in _THEORY_ARGS],
)
def test_unknown_flag_rejected(capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main(["theory", sub, *_THEORY_ARGS[sub], *flag.split()])
    assert exc.value.code != 0
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_invalid_rule_text_clean_error(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "generate", "--n", "10", "--width", "5", "--height", "5",
            "--seed", "1", "--out", path)
    code, _, err = run_cli(capsys, "fail", "--graph", path, "--rule", "bogus:1", "--seed", "1")
    assert code == 1
    assert "bogus" in err


def test_cascade_command(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run_cli(capsys, "generate", "--n", "300", "--width", "12", "--height", "12",
            "--seed", "3", "--out", path)
    code, out, _ = run_cli(
        capsys, "cascade", "--graph", path, "--dist", "pieces:0,0.1,7.5;0.1,1,0.2777777777777778",
        "--seed", "9", "--seed-node", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"][0] == [5]
    failed = np.asarray(doc["failed"], dtype=bool)
    assert failed.sum() == sum(len(r) for r in doc["rounds"])


def test_cli_commands_replay_a_harness_trial(tmp_path, capsys):
    """generate, fail and cascade --seed T draw from the substreams of trial seed T,
    so they reproduce trial T of an experiment."""
    config = ExperimentConfig(kind="cascade-trial", width=12.0, height=12.0, n=300,
                              count_mode="fixed", distribution=HEAVY_LOW, trials=4, base_seed=5)
    path = str(tmp_path / "g.json")
    rule = "indep:0.4"
    for record in run_cascade_trials(config):
        seed = str(record.trial_seed)
        run_cli(capsys, "generate", "--n", "300", "--width", "12", "--height", "12",
                "--seed", seed, "--out", path)
        graph = trial_graph(config, 0, record.trial_seed)
        assert np.array_equal(load_graph(path).edges, graph.edges)
        code, out, _ = run_cli(capsys, "cascade", "--graph", path,
                               "--dist", distribution_to_text(HEAVY_LOW), "--seed", seed)
        doc = json.loads(out)
        assert code == 0
        assert (doc["seed_node"], sum(doc["failed"]), len(doc["rounds"])) == (
            record.seed_node, record.failed_count, record.rounds)
        code, out, _ = run_cli(capsys, "fail", "--graph", path, "--rule", rule, "--seed", seed)
        failures_seed = substream(record.trial_seed, STREAM_FAILURES)
        assert json.loads(out)["alive"] == apply_failures(
            graph, parse_rule(rule), failures_seed).alive.tolist()


def test_sweep_csv_json_consistency(tmp_path, capsys):
    config = {
        "kind": "percolation-sweep",
        "region": {"width": 15, "height": 15},
        "lambdas": [1.0, 2.5],
        "trials": 8,
        "base_seed": 99,
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out_json, _ = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 0
    points = json.loads(out_json)["points"]
    code, out_csv, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(points) == 2
    for row, point in zip(rows, points):
        assert float(row["lambda"]) == point["lambda"]
        assert float(row["estimate"]) == point["estimate"]
        assert float(row["stderr"]) == point["stderr"]
        assert int(row["trials"]) == point["trials"]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_failure_sweep_command(tmp_path, capsys):
    rules = ["indep:0.2", "table:0.0,0.1;tail=0.4", "attack:5"]
    config = {
        "kind": "failure-sweep",
        "region": {"width": 15, "height": 15},
        "lambdas": [2.0, 3.0],
        "rules": rules,
        "trials": 5,
        "base_seed": 8,
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out_json, _ = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 0
    points = _strict_json(out_json)["points"]
    code, out_csv, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    order = [(lam, rule) for lam in config["lambdas"] for rule in rules]
    assert [(p["lambda"], p["rule"]) for p in points] == order
    assert [(float(r["lambda"]), r["rule"]) for r in rows] == order
    for row, point in zip(rows, points):
        assert type(point["estimate"]) is float and math.isfinite(point["estimate"])
        assert 0.0 <= point["estimate"] <= 1.0
        assert float(row["estimate"]) == point["estimate"]
        assert float(row["stderr"]) == point["stderr"]
        assert int(row["trials"]) == point["trials"] == 5


def test_sweep_cascade_records(tmp_path, capsys):
    config = {
        "kind": "cascade-trial",
        "region": {"width": 15, "height": 15},
        "n": 200,
        "count_mode": "fixed",
        "distribution": "pieces:0,0.1,7.5;0.1,1,0.2777777777777778",
        "trials": 3,
        "base_seed": 4,
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg_path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    assert doc["params"]["effective_config"]["trials"] == 3


_CASCADE_CONFIG = {
    "kind": "cascade-trial",
    "region": {"width": 15, "height": 15},
    "n": 200,
    "count_mode": "fixed",
    "distribution": "pieces:0,0.1,7.5;0.1,1,0.2777777777777778",
    "trials": 4,
    "base_seed": 4,
}


def test_cascade_csv_rows_are_the_json_records(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(_CASCADE_CONFIG, fh)
    _, out_json, _ = run_cli(capsys, "sweep", "--config", cfg_path)
    records = _strict_json(out_json)["records"]
    _, out_csv, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--format", "csv")
    assert out_csv == to_csv(records)
    reader = csv.DictReader(io.StringIO(out_csv))
    assert reader.fieldnames == [f.name for f in dataclasses.fields(CascadeTrialRecord)]
    rows = list(reader)
    assert len(rows) == len(records) == 4
    for row, record in zip(rows, records):
        assert row == {key: str(value) for key, value in record.items()}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_bytes_equal_stdout(tmp_path, capsys, fmt):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(_CASCADE_CONFIG, fh)
    doc = _strict_json(run_cli(capsys, "sweep", "--config", cfg_path)[1])
    expected = dump_json(doc, indent=2) if fmt == "json" else to_csv(doc["records"])
    _, stdout, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--format", fmt)
    out_path = tmp_path / f"out.{fmt}"
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--format", fmt,
                           "--out", str(out_path))
    assert (code, out) == (0, "")
    assert out_path.read_bytes() == stdout.encode() == expected.encode()


def test_json_is_read_and_written_only_in_io():
    """Strict JSON cannot be bypassed: only geoperc/io.py touches the json module's
    readers and writers, and it has one writer."""
    uses = []
    for path in sorted((REPO / "src" / "geoperc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and node.attr in ("dump", "dumps", "load", "loads")):
                uses.append((path.name, f"json.{node.attr}", node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                uses.append((path.name, "from json import", node.lineno))
    assert [use for use in uses if use[0] != "io.py"] == []
    assert [name for _, name, _ in uses].count("json.dumps") == 1


def test_stream_layout_is_named_only_in_experiments_and_seeding():
    """Which substream feeds which per-trial draw is decided once: no other
    module names a STREAM_* constant, so the replay commands cannot drift from
    the harness."""
    uses = []
    for path in sorted((REPO / "src" / "geoperc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            if any(name and name.startswith("STREAM_") for name in names):
                uses.append((path.name, node.lineno))
    assert {name for name, _ in uses} == {"experiments.py", "seeding.py"}, uses


def test_entropy_seed_echoed(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    code, out, err = run_cli(capsys, "generate", "--n", "5", "--width", "5",
                             "--height", "5", "--out", path)
    assert code == 0
    assert "seed drawn from entropy" in err
    assert json.loads(out)["seed"] is not None


def test_output_metadata_complete(capsys):
    _, out, _ = run_cli(capsys, "theory", "critical-q", "--lambda", "2.87")
    doc = json.loads(out)
    for key in ("version", "command", "params", "seed"):
        assert key in doc


@pytest.mark.parametrize(
    "name, expected",
    [
        ("cascade-spreading", ExperimentConfig(
            kind="cascade-trial", width=15.0, height=15.0, n=1600, count_mode="fixed",
            distribution=HEAVY_LOW, seeding="adjacent-to-largest-vulnerable-component",
            trials=100, base_seed=9,
        )),
        ("cascade-contained", ExperimentConfig(
            kind="cascade-trial", width=15.0, height=15.0, n=1600, count_mode="fixed",
            distribution=NEAR_ONE, seeding="random-node", trials=100, base_seed=7,
        )),
    ],
)
def test_example_config_is_the_criterion_4_config(name, expected):
    doc = json.loads((REPO / "examples" / f"{name}.json").read_text())
    assert config_from_dict(doc) == expected


def _readme_commands(heading: str) -> list[list[str]]:
    """argv of every geoperc command in the first sh block under a README heading."""
    text = (REPO / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    # the critical-phi loop variable stands for one density
    return [shlex.split(line.replace("$lam", "1"), comments=True)[1:]
            for line in block.splitlines() if line.strip().startswith("geoperc ")]


def test_readme_experiment_commands_parse():
    commands = _readme_commands("Experiments")
    assert {tuple(argv[:2]) for argv in commands} == {
        ("estimate", "lambda-c"), ("sweep", "--config"), ("theory", "critical-phi")}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):
            assert (REPO / args.config).is_file(), args.config
    # the CLI block parses too, and shows every leaf subcommand at least once
    cli_commands = _readme_commands("CLI")
    for argv in cli_commands:
        parser.parse_args(argv)
    leaves = [path for path, _ in _leaf_parsers(parser)]
    shown = {tuple(argv[:len(path)]) for argv in cli_commands for path in leaves}
    assert [path for path in leaves if path not in shown] == []
