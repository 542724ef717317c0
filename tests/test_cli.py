import csv
import io
import json
import math

import numpy as np
import pytest

import geoperc
from geoperc.cli import _emit, main
from geoperc.experiments import BisectionResult
from geoperc.io import SchemaError, graph_from_dict, load_graph, save_graph
from geoperc.geometry import Region, generate_uniform
from geoperc.graph import build_graph


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


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--side", ["estimate", "lambda-c", "--side", "inf", "--trials", "2"]),
        ("--radius", ["estimate", "lambda-c", "--radius", "nan", "--trials", "2"]),
        ("--width", ["estimate", "lambda-c", "--width", "nan", "--trials", "2"]),
        ("--bracket-low", ["estimate", "lambda-c", "--bracket-low", "nan", "--trials", "2"]),
        ("--bracket-high", ["estimate", "lambda-c", "--bracket-high", "inf", "--trials", "2"]),
        ("--lambda", ["estimate", "qc", "--lambda", "nan", "--trials", "2"]),
        ("--lambda", ["theory", "critical-q", "--lambda", "1e400"]),
        ("--lambda-c", ["theory", "critical-q", "--lambda", "2", "--lambda-c", "nan"]),
        ("--d", ["theory", "block-cap", "--lambda", "2", "--d", "nan"]),
        ("--width", ["generate", "--n", "5", "--width", "inf", "--height", "5", "--seed", "1"]),
        ("--height", ["generate", "--n", "5", "--width", "5", "--height", "nan", "--seed", "1"]),
        ("--lambda", ["generate", "--lambda", "nan", "--width", "5", "--height", "5",
                      "--seed", "1"]),
        ("--radius", ["generate", "--n", "5", "--width", "5", "--height", "5",
                      "--radius", "inf", "--seed", "1"]),
    ],
)
def test_non_finite_flag_rejected_by_name(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be a finite number"), err


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
        ("giant_threshold", math.nan, "giant_threshold"),
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
        ("giant_threshold", True, "giant_threshold must be a finite number"),
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


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theory", "critical-q", "--lambda", "2.0", "--frobnicate"])
    assert exc.value.code != 0


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
