"""The unique inscribed ellipse tangent at prescribed points on two sides.

The contacts t on the horizontal side, w on the vertical side and (x3, y3)
on the hypotenuse of the ellipse with perspector (P^2, Q^2, R^2) satisfy
P^2 : Q^2 = t : 1 - t, P^2 : R^2 = w : 1 - w and R^2 : Q^2 = x3 : y3, so any
two fix the perspector as products of these, with nothing to cancel or divide
(x3 and y3 both: 1 - x3 would lose y3's bits next to the right vertex).

A side point is ``(k, b)``: its contact index k (0 bottom, 1 left, 2
hypotenuse, as :func:`~inellipse.kernel.unit_geometry` orders the contacts)
and its barycentrics b on the origin, right and top vertices, 0 at the
opposite vertex 2 - k.  One product rule serves any two sides in either order.

Checks: the bands of :func:`side_point`, on a point ``world`` coerced before mapping it.
"""

from __future__ import annotations

import math

from .affine import UNIT_TRIANGLE
from .errors import NotOnSide, SameSide, VertexPoint
from .geom import Point

# Boundary points within this distance of a vertex are rejected.
_VERTEX_EXCLUSION = 1e-8
# Absolute band on a side's linear form for membership in that side.
_SIDE_MEMBERSHIP = 1e-10
_SIDE_NAMES = ("bottom", "left", "hypotenuse")  # y = 0, x = 0, x + y = 1, by contact index


def side_point(p: Point) -> tuple[int, tuple[float, float, float]]:
    """The contact index k and the barycentrics b of a boundary point on its open side.

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
        along, side = x, (0, (1.0 - x, x, 0.0))
    elif abs(x) < _SIDE_MEMBERSHIP:
        along, side = y, (1, (1.0 - y, 0.0, y))
    elif abs(x + y - 1.0) < _SIDE_MEMBERSHIP:
        along, side = x, (2, (0.0, x, y))
    else:
        raise NotOnSide(f"{tuple(p)} does not lie on exactly one open side")
    if not (0.0 < along < 1.0):
        raise NotOnSide(f"{tuple(p)} lies outside its side segment")
    return side


def param_from_tangencies(s1, s2) -> tuple[float, float, float]:
    """The perspector (P^2, Q^2, R^2) of the unique ellipse whose contacts include both side points.

    With i1, i2 the vertices opposite the two sides and m the third vertex,
    P[m] = b1[i2] b2[i1], P[i2] = b1[m] b2[i1] and P[i1] = b2[m] b1[i2].
    """
    (k1, b1), (k2, b2) = s1, s2
    if k1 == k2:
        raise SameSide(f"both tangency points lie on the {_SIDE_NAMES[k1]} side")
    i1, i2 = 2 - k1, 2 - k2
    m = 3 - i1 - i2
    perspector = {m: b1[i2] * b2[i1], i2: b1[m] * b2[i1], i1: b2[m] * b1[i2]}
    return perspector[0], perspector[1], perspector[2]
