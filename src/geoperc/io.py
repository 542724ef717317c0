"""Stable file formats: graph JSON, experiment configs, result tables.

Every document passes through this module: ``dump_json`` is the one JSON
writer and rejects NaN and infinities, ``write_text`` the one output path (a
file, or stdout), ``load_json`` the one reader. Graph files store only region,
radius, and points; adjacency is recomputed on load so files stay O(n) and can
never go stale. ``to_csv`` writes the same flat records a JSON document
carries, its header their keys, with floats at full round-trip precision, so
the CSV and JSON forms of a result hold identical numbers.
"""

from __future__ import annotations

import csv
import io as _io
import json
import sys
import warnings

from .geometry import OPEN_BOX, PointSet, Region, _BOUNDARIES
from .graph import SpatialGraph, build_graph


class SchemaError(ValueError):
    """A document violated the expected schema; the message names the field."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_number(value) -> bool:
    """JSON true and false are not numbers, though Python's bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def graph_to_dict(graph: SpatialGraph, meta: dict | None = None) -> dict:
    region = graph.points.region
    doc = {
        "region": {
            "width": region.width,
            "height": region.height,
            "boundary": region.boundary,
        },
        "radius": graph.radius,
        "points": graph.points.coordinates.tolist(),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def graph_from_dict(doc: dict) -> SpatialGraph:
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    _require("region" in doc, "missing field 'region'")
    region_doc = doc["region"]
    _require(isinstance(region_doc, dict), "'region' must be an object")
    for key in ("width", "height"):
        _require(key in region_doc, f"missing field 'region.{key}'")
        _require(_is_number(region_doc[key]), f"'region.{key}' must be a number")
    _require("radius" in doc, "missing field 'radius'")
    _require(_is_number(doc["radius"]) and doc["radius"] > 0,
             "'radius' must be a positive number")
    _require("points" in doc, "missing field 'points'")
    pts = doc["points"]
    _require(isinstance(pts, list), "'points' must be a list")
    for i, p in enumerate(pts):
        _require(
            isinstance(p, list) and len(p) == 2
            and all(_is_number(c) for c in p),
            f"'points[{i}]' must be an [x, y] pair of numbers",
        )
    if "boundary" not in region_doc:
        warnings.warn("'region.boundary' missing; defaulting to open-box")
        boundary = OPEN_BOX
    else:
        boundary = region_doc["boundary"]
        _require(boundary in _BOUNDARIES, f"'region.boundary' must be one of {_BOUNDARIES}")
    try:
        region = Region(float(region_doc["width"]), float(region_doc["height"]), boundary)
        point_set = PointSet(pts, region, len(pts) / region.area)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return build_graph(point_set, float(doc["radius"]))


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
