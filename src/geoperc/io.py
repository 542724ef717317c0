"""Stable file formats: graph JSON, experiment configs, result tables.

Graph files store only region, radius, and points; adjacency is recomputed on
load so files stay O(n) and can never go stale. All numeric output uses full
round-trip precision (repr), so CSV and JSON emissions carry identical numbers.
"""

from __future__ import annotations

import csv
import io as _io
import json
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


def save_graph(graph: SpatialGraph, path: str, meta: dict | None = None) -> None:
    text = json.dumps(graph_to_dict(graph, meta), allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_graph(path: str) -> SpatialGraph:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return graph_from_dict(doc)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def sweep_rows(points) -> tuple[list[str], list[list]]:
    """Header and rows for a sweep result table: parameters, estimate, stderr, trials."""
    param_keys: list[str] = []
    for p in points:
        for key in p.params:
            if key not in param_keys:
                param_keys.append(key)
    header = param_keys + ["estimate", "stderr", "trials"]
    rows = [
        [p.params.get(k, "") for k in param_keys] + [p.estimate, p.stderr, p.trials]
        for p in points
    ]
    return header, rows


def cascade_rows(records) -> tuple[list[str], list[list]]:
    header = [
        "trial_seed", "feasible", "seed_node", "largest_vulnerable_fraction",
        "failed_count", "failed_fraction", "rounds", "largest_failed_fraction",
        "seed_in_largest_failed",
    ]
    rows = [[d[k] for k in header] for d in (r.to_dict() for r in records)]
    return header, rows


def to_csv(header: list[str], rows: list[list]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()
