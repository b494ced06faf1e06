"""Primitive value types: points and tangent slopes.

The canonical domain is the unit triangle with vertices (0,0), (1,0), (0,1);
general triangles are reduced to it by an affine map.  Points are plain
(x, y) named tuples.  A slope is its tangent direction (a, b), so a vertical
slope is (0, 1) -- never an infinity encoded as a huge float.  A caller's
point or slope is checked once, by :func:`as_point` or :func:`as_slope`.
The vertices are named by the strings the reports print: ``origin``,
``right`` and ``top``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import CoincidentPoints, NotInterior


class Point(NamedTuple):
    x: float
    y: float


class Slope(NamedTuple):
    """Tangent direction (a, b): (1, r) for a finite slope r, (0, 1) for vertical.

    ``value`` is b / a, or None for vertical.  (a, b) is not normalized (a direction
    given as two numbers is kept as given), so compare slopes by their ``value``.
    """

    a: float
    b: float

    @staticmethod
    def finite(r: float) -> "Slope":
        try:
            r = float(r)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("finite slope required, got an integer too large for a float") from None
        if not math.isfinite(r):
            raise ValueError("finite slope required; use Slope.vertical()")
        return tuple.__new__(Slope, (1.0, r))

    @staticmethod
    def vertical() -> "Slope":
        return tuple.__new__(Slope, (0.0, 1.0))

    @property
    def value(self) -> Optional[float]:
        a, b = self
        return None if a == 0.0 else b / a


_BYTES = (bytes, bytearray, memoryview)


def as_point(obj) -> Point:
    """Coerce exactly two numbers into a finite-coordinate Point (without a ``Point.__new__`` frame).

    ``math.isfinite`` reads each coordinate as a number before ``float()``
    does, so numbers and numpy scalars pass, while strings, which ``float()``
    would parse, and bytes, bytearray and memoryview objects (subclasses too), which unpack to ints,
    raise ValueError.
    """
    try:
        if isinstance(obj, _BYTES):
            raise TypeError
        x, y = obj
        finite = math.isfinite(x) and math.isfinite(y)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("point coordinates must be finite, got an integer too large for a float") from None
    except TypeError:  # not two numbers
        raise ValueError(f"point coordinates must be numbers, got {obj!r}") from None
    if not finite:
        raise ValueError(f"point coordinates must be finite, got {(x, y)}")
    return tuple.__new__(Point, (float(x), float(y)))


def as_slope(obj) -> Slope:
    """Coerce a direction (a, b) into a Slope: what :func:`as_point` refuses, and (0, 0), raise ValueError."""
    try:
        a, b = as_point(obj)
    except ValueError:
        a = b = 0.0
    if a == b == 0.0:
        raise ValueError(f"a slope is a direction of two finite numbers, not both zero, got {obj!r}")
    return tuple.__new__(Slope, (a, b))


def require_interior(*points: Point) -> None:
    """Strict membership in the open unit triangle 0<x, 0<y, x+y<1."""
    for x, y in points:
        if not (0.0 < x and 0.0 < y and x + y < 1.0):
            raise NotInterior(f"point {(x, y)} is not interior to the triangle")


# Two points closer than this, relative to their coordinate size, coincide.
_COINCIDENT_BAND = 1e-14


def coincide(p1: Point, p2: Point) -> bool:
    """Whether two points lie within the relative band of each other."""
    (x1, y1), (x2, y2) = p1, p2
    scale = max(abs(x1), abs(y1), abs(x2), abs(y2), 1e-300)
    return max(abs(x1 - x2), abs(y1 - y2)) <= _COINCIDENT_BAND * scale


def require_distinct(p1: Point, p2: Point) -> None:
    if coincide(p1, p2):
        raise CoincidentPoints(f"points {tuple(p1)} and {tuple(p2)} coincide")
