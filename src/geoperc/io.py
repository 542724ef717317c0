"""Stable file formats: graph JSON, experiment configs, result tables.

Every document passes through this module: ``dump_json`` is the one JSON
writer and rejects NaN and infinities, ``write_text`` the one output path (a
file, or stdout), ``load_json`` the one reader. Both input documents, graph
files and experiment configs, are read field by field through one set of
readers (``_typed``, ``_number``, ``_integer_field``, ``_reject_unknown_keys``),
so a violation raises ``SchemaError`` naming the field. Graph files store only
region, radius, and points; adjacency is recomputed on load so files stay O(n)
and can never go stale. ``to_csv`` writes the same flat records a JSON
document carries, its header their keys, with floats at full round-trip
precision, so the CSV and JSON forms of a result hold identical numbers.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
import warnings
from dataclasses import fields

from .cascade import distribution_to_text, parse_distribution
from .experiments import ExperimentConfig
from .failures import parse_rule
from .geometry import OPEN_BOX, PointSet, Region
from .graph import SpatialGraph, build_graph

# The region object of both formats: a Region's fields, which the config carries flat.
_REGION_KEYS = ("width", "height", "boundary")


class SchemaError(ValueError):
    """A document violated the expected schema; the message names the field."""


def _typed(value, name: str, types, what: str):
    """value if it has one of the JSON types; otherwise an error naming the field."""
    if not isinstance(value, types):
        raise SchemaError(f"{name} must be {what}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float; an integer past the float range becomes inf,
    which the caller's finiteness check then rejects by name. JSON true and
    false are not numbers, though Python's bool is an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _integer_field(doc: dict, name: str, default: int | None) -> int | None:
    """doc[name] as an int; NaN, infinities and non-integral values fail by name."""
    value = doc.get(name, default)
    if value is None or isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SchemaError(f"{name} must be an integer, got {value!r}")


def _reject_unknown_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise SchemaError(f"unknown {where} key(s) {unknown}; expected a subset of {list(known)}")


def graph_to_dict(graph: SpatialGraph, meta: dict | None = None) -> dict:
    region = graph.points.region
    doc = {
        "region": {key: getattr(region, key) for key in _REGION_KEYS},
        "radius": graph.radius,
        "points": graph.points.coordinates.tolist(),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def graph_from_dict(doc: dict) -> SpatialGraph:
    _typed(doc, "graph document", dict, "a JSON object")
    region_doc = _typed(doc.get("region"), "region", dict, "an object")
    width = _number(region_doc.get("width"), "region.width")
    height = _number(region_doc.get("height"), "region.height")
    radius = _number(doc.get("radius"), "radius")
    points = []
    for i, p in enumerate(_typed(doc.get("points"), "points", list, "a list")):
        if not (isinstance(p, list) and len(p) == 2):
            raise SchemaError(f"points[{i}] must be an [x, y] pair of numbers, got {p!r}")
        points.append([_number(c, f"points[{i}]") for c in p])
    try:
        region = Region(width, height, region_doc.get("boundary", OPEN_BOX))
        graph = build_graph(PointSet(points, region), radius)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if "boundary" not in region_doc:
        warnings.warn("'region.boundary' missing; defaulting to open-box")
    return graph


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "region": {key: getattr(config, key) for key in _REGION_KEYS},
        "radius": config.radius,
        "lambdas": list(config.lambdas),
        "rules": [r.to_text() for r in config.rules],
        "distribution": None
        if config.distribution is None
        else distribution_to_text(config.distribution),
        "seeding": config.seeding,
        "trials": config.trials,
        "base_seed": config.base_seed,
        "proxy": config.proxy,
        "giant_threshold": config.giant_threshold,
        "count_mode": config.count_mode,
        "n": config.n,
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    _typed(doc, "experiment config", dict, "a JSON object")
    # the keys config_to_dict writes: the fields, with the region's sides nested under "region"
    known = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _REGION_KEYS)
    _reject_unknown_keys(doc, known, "config")
    region = _typed(doc.get("region", {}), "region", dict, "an object")
    _reject_unknown_keys(region, _REGION_KEYS, "region")
    lambdas = _typed(doc.get("lambdas", []), "lambdas", list, "a list")
    rules = _typed(doc.get("rules", []), "rules", list, "a list")
    dist = doc.get("distribution")
    return ExperimentConfig(
        kind=doc.get("kind", ""),
        width=_number(region.get("width"), "width"),
        height=_number(region.get("height"), "height"),
        boundary=region.get("boundary", OPEN_BOX),
        radius=_number(doc.get("radius", 1.0), "radius"),
        lambdas=tuple(_number(v, f"lambdas[{i}]") for i, v in enumerate(lambdas)),
        rules=tuple(parse_rule(_typed(t, f"rules[{i}]", str, "a string"))
                    for i, t in enumerate(rules)),
        distribution=None if dist is None
        else parse_distribution(_typed(dist, "distribution", str, "a string")),
        seeding=doc.get("seeding", "random-node"),
        trials=_integer_field(doc, "trials", 100),
        base_seed=_integer_field(doc, "base_seed", 0),
        proxy=doc.get("proxy", "crossing"),
        giant_threshold=_number(doc.get("giant_threshold", 0.1), "giant_threshold"),
        count_mode=doc.get("count_mode", "poisson"),
        n=_integer_field(doc, "n", None),
    )


def dump_json(doc, indent: int | None = None) -> str:
    """doc as strict JSON text plus a newline; NaN or an infinity raises ValueError."""
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def save_graph(graph: SpatialGraph, path: str | None, meta: dict | None = None) -> None:
    write_text(dump_json(graph_to_dict(graph, meta)), path)


def load_graph(path: str) -> SpatialGraph:
    return graph_from_dict(load_json(path))


def to_csv(records: list[dict]) -> str:
    """Non-empty flat records as CSV: the header is the first record's keys, a row each
    record's values."""
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(records[0])
    writer.writerows([str(v) for v in record.values()] for record in records)
    return buf.getvalue()
