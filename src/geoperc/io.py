"""Stable file formats: graph JSON, experiment configs, result tables.

Every document passes through this module: ``dump_json`` is the one JSON
writer and rejects NaN and infinities, ``write_text`` the one output path (a
file, or stdout), ``load_json`` the one reader. Both input documents, graph
files and experiment configs, are read field by field through one set of
readers (``_typed``, ``_number``, ``_integer``, ``_reject_unknown_keys``),
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
from dataclasses import MISSING, fields

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


def _integer(value, name: str) -> int | None:
    """A JSON integer (or null) as an int; NaN, infinities and non-integral values fail by name."""
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


def _tuple_of(read):
    def read_list(value, name: str) -> tuple:
        items = _typed(value, name, list, "a list")
        return tuple(read(item, f"{name}[{i}]") for i, item in enumerate(items))
    return read_list


def _distribution(value, name: str):
    return None if value is None else parse_distribution(_typed(value, name, str, "a string"))


def _as_is(value, name: str | None = None):
    return value


# Per config field: its reader from JSON and its writer to JSON; any other field is
# stored as is, and ExperimentConfig checks it.
_FIELD_READERS = {
    "width": _number, "height": _number, "radius": _number, "giant_threshold": _number,
    "trials": _integer, "base_seed": _integer, "n": _integer,
    "lambdas": _tuple_of(_number),
    "rules": _tuple_of(lambda text, name: parse_rule(_typed(text, name, str, "a string"))),
    "distribution": _distribution,
}
_FIELD_WRITERS = {
    "lambdas": list,
    "rules": lambda rules: [r.to_text() for r in rules],
    "distribution": lambda dist: None if dist is None else distribution_to_text(dist),
}


def config_to_dict(config: ExperimentConfig) -> dict:
    """kind, the region's sides nested under "region", then the other fields in order."""
    doc = {f.name: _FIELD_WRITERS.get(f.name, _as_is)(getattr(config, f.name))
           for f in fields(config) if f.init}
    region = {key: doc.pop(key) for key in _REGION_KEYS}
    return {"kind": doc.pop("kind"), "region": region, **doc}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The fields a document gives, and the required ones: ExperimentConfig holds the defaults."""
    _typed(doc, "experiment config", dict, "a JSON object")
    # the keys config_to_dict writes: the fields, with the region's sides nested under "region"
    known = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _REGION_KEYS)
    _reject_unknown_keys(doc, known, "config")
    region = _typed(doc.get("region", {}), "region", dict, "an object")
    _reject_unknown_keys(region, _REGION_KEYS, "region")
    given = {**doc, **region}
    return ExperimentConfig(**{
        f.name: _FIELD_READERS.get(f.name, _as_is)(given.get(f.name), f.name)
        for f in fields(ExperimentConfig) if f.init and (f.name in given or f.default is MISSING)
    })


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
