"""The unique inscribed ellipse tangent at prescribed points on two sides.

The contact points of an inscribed ellipse determine its parameters
directly: the horizontal side carries t, the vertical side carries w, and a
hypotenuse contact (x3, y3) combines with either known value through the
inversions

    w = t (1 - x3) / (x3 (1 - 2t) + t),      given t,
    t = w (1 - y3) / (y3 + w - 2 y3 w),      given w,

whose denominators are positive throughout the open square.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import NotOnSide, OutOfDomain, SameSide, VertexPoint
from .geom import Point, as_point
from .kernel import EllipseParam

_UNIT_VERTICES = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))
# Boundary points within this distance of a vertex are rejected.
_VERTEX_EXCLUSION = 1e-8
# Absolute band on a side's linear form for membership in that side.
_SIDE_MEMBERSHIP = 1e-10


class Side(Enum):
    BOTTOM = "bottom"          # y = 0, 0 < x < 1
    LEFT = "left"              # x = 0, 0 < y < 1
    HYPOTENUSE = "hypotenuse"  # x + y = 1, 0 < x < 1


class SidePoint(NamedTuple):
    side: Side
    point: Point


def side_point(p: Point) -> SidePoint:
    """Classify a boundary point onto its open side.

    Raises :class:`VertexPoint` within ``_VERTEX_EXCLUSION`` of a vertex
    and :class:`NotOnSide` when no side's linear form vanishes within
    ``_SIDE_MEMBERSHIP`` (absolute) or the point falls off the segment.
    """
    p = as_point(p)
    for v in _UNIT_VERTICES:
        if math.hypot(p.x - v.x, p.y - v.y) <= _VERTEX_EXCLUSION:
            raise VertexPoint(f"{tuple(p)} coincides with triangle vertex {tuple(v)}")
    forms = (
        (Side.BOTTOM, p.y),
        (Side.LEFT, p.x),
        (Side.HYPOTENUSE, p.x + p.y - 1.0),
    )
    on = [side for side, value in forms if abs(value) < _SIDE_MEMBERSHIP]
    if len(on) != 1:
        raise NotOnSide(f"{tuple(p)} does not lie on exactly one open side")
    side = on[0]
    along = p.y if side is Side.LEFT else p.x
    if not (0.0 < along < 1.0):
        raise NotOnSide(f"{tuple(p)} lies outside its side segment")
    return SidePoint(side, p)


def param_from_tangencies(s1: SidePoint, s2: SidePoint) -> EllipseParam:
    """The unique (w, t) whose contact points include both given side points."""
    if s1.side is s2.side:
        raise SameSide(f"both tangency points lie on the {s1.side.value} side")
    by_side = {s1.side: s1.point, s2.side: s2.point}

    if Side.BOTTOM in by_side and Side.LEFT in by_side:
        return _checked(by_side[Side.LEFT].y, by_side[Side.BOTTOM].x)

    if Side.BOTTOM in by_side:
        t = by_side[Side.BOTTOM].x
        x3 = by_side[Side.HYPOTENUSE].x
        w = t * (1.0 - x3) / (x3 * (1.0 - 2.0 * t) + t)
        return _checked(w, t)

    w = by_side[Side.LEFT].y
    y3 = by_side[Side.HYPOTENUSE].y
    t = w * (1.0 - y3) / (y3 + w - 2.0 * y3 * w)
    return _checked(w, t)


def _checked(w: float, t: float) -> EllipseParam:
    if not (0.0 < w < 1.0 and 0.0 < t < 1.0):
        raise OutOfDomain(f"inconsistent tangency points: (w, t) = {(w, t)}")
    return EllipseParam(w, t)
