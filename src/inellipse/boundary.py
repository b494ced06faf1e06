"""The unique inscribed ellipse tangent at prescribed points on two sides.

The contacts t on the horizontal side, w on the vertical side and (x3, y3)
on the hypotenuse of the ellipse with perspector (P^2, Q^2, R^2) satisfy
P^2 : Q^2 = t : 1 - t, P^2 : R^2 = w : 1 - w and R^2 : Q^2 = x3 : y3, so any
two fix the perspector as products of these, with nothing to cancel or divide
(x3 and y3 both: 1 - x3 would lose y3's bits next to the right vertex).

Checks: the bands of :func:`side_point`, on a point ``world`` coerced before mapping it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .affine import UNIT_TRIANGLE
from .errors import NotOnSide, SameSide, VertexPoint
from .geom import Point

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
    x, y = p
    for vx, vy in UNIT_TRIANGLE:
        if math.hypot(x - vx, y - vy) <= _VERTEX_EXCLUSION:
            raise VertexPoint(f"{tuple(p)} coincides with triangle vertex {(vx, vy)}")
    # Two side forms within the band would put p within 3e-10 of a vertex: one holds at most.
    if abs(y) < _SIDE_MEMBERSHIP:
        side, along = Side.BOTTOM, x
    elif abs(x) < _SIDE_MEMBERSHIP:
        side, along = Side.LEFT, y
    elif abs(x + y - 1.0) < _SIDE_MEMBERSHIP:
        side, along = Side.HYPOTENUSE, x
    else:
        raise NotOnSide(f"{tuple(p)} does not lie on exactly one open side")
    if not (0.0 < along < 1.0):
        raise NotOnSide(f"{tuple(p)} lies outside its side segment")
    return tuple.__new__(SidePoint, (side, p))


def param_from_tangencies(s1: SidePoint, s2: SidePoint) -> tuple[float, float, float]:
    """The perspector (P^2, Q^2, R^2) of the unique ellipse whose contacts include both side points."""
    if s1.side is s2.side:
        raise SameSide(f"both tangency points lie on the {s1.side.value} side")
    # Order the pair bottom, left, hypotenuse.
    if s1.side is Side.HYPOTENUSE or s2.side is Side.BOTTOM:
        s1, s2 = s2, s1
    (side1, q1), (side2, q2) = s1, s2
    if side1 is Side.BOTTOM and side2 is Side.LEFT:
        t, w = q1.x, q2.y
        return w * t, w * (1.0 - t), (1.0 - w) * t
    if side1 is Side.BOTTOM and side2 is Side.HYPOTENUSE:
        t, (x3, y3) = q1.x, q2
        return t * y3, (1.0 - t) * y3, (1.0 - t) * x3
    if side1 is Side.LEFT and side2 is Side.HYPOTENUSE:
        w, (x3, y3) = q1.y, q2
        return w * x3, (1.0 - w) * y3, (1.0 - w) * x3
    raise TypeError(f"side points must carry a Side, got {side1!r} and {side2!r}")
