"""Rectangular regions and planar point processes."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .seeding import generator_from_seed

OPEN_BOX = "open-box"
TORUS = "torus"
_BOUNDARIES = (OPEN_BOX, TORUS)


@dataclass(frozen=True)
class Region:
    """Rectangular domain, either a plain box or a torus (wrap-around metric)."""

    width: float
    height: float
    boundary: str = OPEN_BOX

    def __post_init__(self):
        if not (0 < self.width < np.inf and 0 < self.height < np.inf):
            raise ValueError(
                f"region dimensions must be positive and finite, got {self.width} x {self.height}"
            )
        # floats, so that width / radius overflows to inf without a numpy warning
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class PointSet:
    """Immutable planar points inside a region."""

    coordinates: np.ndarray
    region: Region

    def __post_init__(self):
        # private copy: the set is immutable and must not alias caller data
        coords = np.array(self.coordinates, dtype=np.float64).reshape(-1, 2)
        object.__setattr__(self, "coordinates", coords)
        if len(coords):
            x, y = coords[:, 0], coords[:, 1]
            # written so that a NaN coordinate counts as outside
            inside = (x >= 0) & (x <= self.region.width) & (y >= 0) & (y <= self.region.height)
            if not inside.all():
                i = int(np.argmin(inside))
                raise ValueError(
                    f"points[{i}] = ({coords[i, 0]}, {coords[i, 1]}) lies outside the region"
                )
        coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.coordinates)


def _place(count: int, region: Region, gen: np.random.Generator) -> PointSet:
    """count points i.i.d. uniform over the region, drawn from gen."""
    try:
        unit = gen.random((count, 2))
    except (MemoryError, ValueError) as exc:
        # numpy refuses a size past its address space with a ValueError
        raise MemoryError(f"cannot place {count} points: {exc}") from exc
    return PointSet(unit * np.array([region.width, region.height]), region)


def generate_uniform(n: int, region: Region, seed: int) -> PointSet:
    """n points placed i.i.d. uniformly over the region; deterministic given seed."""
    if n < 0:
        raise ValueError(f"point count must be non-negative, got {n}")
    return _place(n, region, generator_from_seed(seed))


def _text(value) -> str:
    """str(value), or its order of magnitude for an int with more digits than
    Python converts to text."""
    try:
        return str(value)
    except ValueError:
        return f"about {'-' if value < 0 else ''}1e{math.log10(abs(value)):.0f}"


def generate_poisson(lam: float, region: Region, seed: int) -> PointSet:
    """Poisson(lam * area) point count, then uniform placement; deterministic given seed."""
    if not lam >= 0:
        raise ValueError(f"lambda must be non-negative, got {_text(lam)}")
    if lam == 0:
        mean = float(lam)  # 0 times an area that overflowed to inf would be nan
    else:
        # an int or a product past the float range is inf, without numpy's warning
        mean = float(lam) * region.area if lam <= sys.float_info.max else np.inf
    gen = generator_from_seed(seed)
    try:
        # numpy refuses a mean past about 9.2e18, inf included
        count = int(gen.poisson(mean))
    except ValueError:
        raise ValueError(
            f"lambda {_text(lam)} times area {region.area} gives {mean} expected points,"
            " more than a Poisson point count can hold"
        ) from None
    return _place(count, region, gen)
