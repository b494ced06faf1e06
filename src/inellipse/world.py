"""Solvers on arbitrary triangles: enter the unit triangle once and come back.

A caller point enters once, as its :func:`~inellipse.affine.barycentrics`
(alpha, beta, gamma), its unit image being (beta, gamma).  A slope goes through
no map: :mod:`~inellipse.point_slope` solves it with the triangle and point as
given, and returns its unit-frame direction for the residuals.  One transport,
``_to_world``, carries every family's unit solutions back: each contact and the
center as the vertex combination a + x (b - a) + y (c - a), with no inverted map,
to within a few ulps of the coordinate scale.  The (w, t) are affine invariants,
reported unchanged, and the conic is written from them on ``map_to_unit``'s rows.

Built once per solution: the unit (w, t), contacts and center, by one
:func:`~inellipse.kernel.unit_geometry` call on its perspector (a kept two-point
(w, t) enters as (wt, w(1 - t), (1 - w)t) and is reported itself, its residuals
computed at it), and the world conic, by one :func:`~inellipse.conic.inscribed`.
This module alone builds answer records, unit-triangle answers included.  The
unit steps return the report's case string, and each tangency point's contact
index k, its residual being its distance to ``contacts[k]``.

Checks, once per query and all here, each error naming the caller's values:
the triangle (a :class:`~inellipse.affine.Triangle` unless given), ``as_point``
and ``as_slope``, then the domains on the barycentrics (interior, distinct,
:func:`_side_point`'s bands; an overflowed one fails them) and the pair bands'
``ambiguous:<n>`` case.  The unit steps trust these; the point-slope step tests
the slope exclusion, on the caller's values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import boundary, point_slope, two_points
from .affine import UNIT_TRIANGLE, AffineMap, Triangle, barycentrics, map_to_unit
from .conic import ConicCoeffs, inscribed
from .errors import AmbiguousClassification, CoincidentPoints, NotInterior, NotOnSide, VertexPoint
from .geom import Point, Slope, as_point, as_slope, coincide
from .kernel import EllipseParam, unit_geometry

_VERTEX_EXCLUSION = 1e-8  # a tangency point this close to a vertex is refused
_SIDE_MEMBERSHIP = 1e-10  # absolute band on a side's linear form for membership in that side


class WorldSolution(NamedTuple):
    param: EllipseParam
    conic: ConicCoeffs                     # world coordinates
    tangent_points: tuple[Point, Point, Point]
    center: Point
    # Unit frame: backward errors of the defining equations for the two-point
    # and point-slope families, contact distances for tangency.
    residuals: tuple[float, ...]


class SolveReport(NamedTuple):
    case: str
    solutions: tuple[WorldSolution, ...]


def _to_world(tri, fwd, unit_solutions) -> tuple[WorldSolution, ...]:
    # Per ((param, contacts, center), residuals): the conic and the contacts (t, 0) and (0, w) from param,
    # and each unit point (x, y) lands on a + x (b - a) + y (c - a), left to right as tests/helpers.py::unit_to_world,
    # less the legs' zero terms (a +-0.0 term changes only a -0.0 sum, and none here is -0.0).
    # The points written out and the records built by tuple.__new__, without NamedTuple
    # __new__ frames, save 0.5-0.8 and 0.6 us per solution (CPython 3.11).
    (ax, ay), (bx, by), (cx, cy) = tri
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    out = []
    for (param, (_, _, (x3, y3)), (x4, y4)), residuals in unit_solutions:
        w, t = param
        out.append(tuple.__new__(WorldSolution, (
            param,
            inscribed(param, fwd),
            (
                tuple.__new__(Point, (ax + t * ux, ay + t * uy)),
                tuple.__new__(Point, (ax + w * vx, ay + w * vy)),
                tuple.__new__(Point, (ax + x3 * ux + y3 * vx, ay + x3 * uy + y3 * vy)),
            ),
            tuple.__new__(Point, (ax + x4 * ux + y4 * vx, ay + x4 * uy + y4 * vy)),
            residuals,
        )))
    return tuple(out)


def _frame(tri) -> tuple[Triangle, AffineMap]:
    tri = tri if isinstance(tri, Triangle) else Triangle(*tri)
    return tri, map_to_unit(tri)


def _interior(p, bary) -> tuple[float, float]:
    """p's unit image (x, y), its barycentrics ``bary`` all positive, with the fl(x + y) < 1 radicands need."""
    a, x, y = bary
    if not (a > 0.0 and 0.0 < x and 0.0 < y and x + y < 1.0):
        raise NotInterior(f"point {tuple(p)} is not interior to the triangle")
    return x, y


def _side_point(tri, q, bary) -> tuple[int, tuple[float, float, float]]:
    """``(k, b)``: q's open side's contact index (0 bottom, 1 left, 2 hypotenuse), b its ``bary``, 0 opposite."""
    a, x, y = bary
    for vertex, (vx, vy) in zip(tri, UNIT_TRIANGLE):
        if math.hypot(x - vx, y - vy) <= _VERTEX_EXCLUSION:
            raise VertexPoint(f"{tuple(q)} coincides with triangle vertex {tuple(vertex)}")
    # Two side forms within the band would put q within 3e-10 of a vertex: one holds at most.
    if abs(y) < _SIDE_MEMBERSHIP:
        along, side = x, (0, (a, x, 0.0))
    elif abs(x) < _SIDE_MEMBERSHIP:
        along, side = y, (1, (a, 0.0, y))
    elif abs(x + y - 1.0) < _SIDE_MEMBERSHIP:
        along, side = x, (2, (0.0, x, y))
    else:
        raise NotOnSide(f"{tuple(q)} does not lie on exactly one open side")
    if not (0.0 < along < 1.0):
        raise NotOnSide(f"{tuple(q)} lies outside its side segment")
    return side


def solve_two_points(tri: Triangle, p1: Point, p2: Point) -> SolveReport:
    """Every inscribed ellipse of ``tri`` through the two world points."""
    tri, fwd = _frame(tri)
    p1, p2 = as_point(p1), as_point(p2)
    b1, b2 = barycentrics(tri, p1, p2)
    u1, u2 = _interior(p1, b1), _interior(p2, b2)
    if coincide(u1, u2):
        raise CoincidentPoints(f"points {tuple(p1)} and {tuple(p2)} coincide")
    case, kept = two_points.solve_two_points_unit(u1, u2)
    if kept is None:
        raise AmbiguousClassification(f"points {tuple(p1)}, {tuple(p2)} sit on {case[-1]} vertex lines at once")
    # Each kept (w, t) is reported with its residuals; its perspector writes the third contact and the center.
    unit = [((q, *unit_geometry((q.w * q.t, q.w * (1.0 - q.t), (1.0 - q.w) * q.t))[1:]), r) for q, r in kept]
    return tuple.__new__(SolveReport, (case, _to_world(tri, fwd, unit)))


def solve_point_slope(tri: Triangle, p: Point, slope: Slope) -> SolveReport:
    """The unique inscribed ellipse through a world point with a world slope, or an empty report
    cased ``no_solution:<vertex>`` when the slope aims at a vertex (a origin, b right, c top)."""
    tri, fwd = _frame(tri)
    p, slope = as_point(p), as_slope(slope)
    (bary,) = barycentrics(tri, p)
    u = _interior(p, bary)
    case, perspector, u_slope = point_slope.solve_point_slope_unit(tri, p, bary, slope)
    if perspector is None:
        return tuple.__new__(SolveReport, (case, ()))
    geometry = unit_geometry(perspector)
    residuals = point_slope.residual_system13(u, u_slope, geometry[0])
    return tuple.__new__(SolveReport, (case, _to_world(tri, fwd, ((geometry, residuals),))))


def solve_tangency(tri: Triangle, q1: Point, q2: Point) -> SolveReport:
    """The unique inscribed ellipse tangent to ``tri`` at two boundary points."""
    tri, fwd = _frame(tri)
    q1, q2 = as_point(q1), as_point(q2)
    b1, b2 = barycentrics(tri, q1, q2)
    s1, s2 = _side_point(tri, q1, b1), _side_point(tri, q2, b2)
    _, contacts, _ = geometry = unit_geometry(boundary.param_from_tangencies(s1, s2))
    (x1, y1), (x2, y2) = contacts[s1[0]], contacts[s2[0]]
    residuals = (max(abs(x1 - b1[1]), abs(y1 - b1[2])), max(abs(x2 - b2[1]), abs(y2 - b2[2])))
    return tuple.__new__(SolveReport, ("boundary_unique", _to_world(tri, fwd, ((geometry, residuals),))))
