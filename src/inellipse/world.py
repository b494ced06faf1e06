"""Solvers on arbitrary triangles: conjugate to the unit triangle and back.

Each query family maps its data through the triangle's unit map ``fwd`` and
solves there.  One transport, ``_to_world``, carries every family's unit
solutions back: the conic as its pull-back along ``fwd``, and each contact
point and the center as the vertex combination a + x (b - a) + y (c - a) of
the triangle itself, with no inverted map, so a thin or pixel-scale triangle
carries them to within a few ulps of the coordinate scale.  The (w, t)
parameters are affine invariants of the solution (contact abscissae on the
unit triangle), so they are reported unchanged.

Built once per solution: the unit (w, t), conic, contacts and center, by one
:func:`~inellipse.kernel.unit_geometry` call on its perspector (a kept
two-point (w, t) enters as (wt, w(1 - t), (1 - w)t)), and the world conic, by
one ``pull_back``.  This module alone builds answer records; unit-triangle
answers are its answers on ``UNIT_TRIANGLE``, whose map is the identity.
The unit steps return the report's vocabulary: the case string, passed on as
is, and each tangency point's contact index k, its residual being its
distance to ``contacts[k]``.

Checks, once per query, on the caller's values: the triangle (built as a
:class:`~inellipse.affine.Triangle` unless it is one), ``as_point`` on each
point and ``as_slope`` on the slope.  The unit steps trust these and test
only their domains, on the mapped values (interior, distinct, exclusion,
side and vertex bands), so a point mapped beyond the float range is not
interior, or not on a side; their errors are raised again naming the
caller's points and vertices.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import boundary, point_slope, two_points
from .affine import UNIT_TRIANGLE, AffineMap, Triangle, apply_point, apply_slope, map_to_unit
from .conic import ConicCoeffs, pull_back
from .errors import AmbiguousClassification, CoincidentPoints, NotInterior, NotOnSide, VertexPoint
from .geom import Point, Slope, as_point, as_slope
from .kernel import EllipseParam, unit_geometry


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
    # Per (unit_geometry(perspector), residuals): one pull_back, and each unit point (x, y)
    # lands on a + x (b - a) + y (c - a), left to right as tests/helpers.py::unit_to_world,
    # less the legs' zero terms (a +-0.0 term changes only a -0.0 sum, and none here is -0.0).
    # The points written out and the records built by tuple.__new__, without NamedTuple
    # __new__ frames, save 0.5-0.8 and 0.6 us per solution (CPython 3.11).
    (ax, ay), (bx, by), (cx, cy) = tri
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    out = []
    for (param, unit_conic, ((t, _), (_, w), (x3, y3)), (x4, y4)), residuals in unit_solutions:
        out.append(tuple.__new__(WorldSolution, (
            param,
            pull_back(unit_conic, fwd),
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


def _unit_step(step, tri, points, units, *args):
    """``step(*units, *args)``, the units being the images of the caller's points; a domain
    error it raises is raised again naming the caller's points and vertices instead."""
    try:
        return step(*units, *args)
    except (NotInterior, CoincidentPoints, NotOnSide, VertexPoint, AmbiguousClassification) as err:
        callers = {}  # a unit value's repr -> the caller values it stands for, in message order
        for unit, caller in zip((*units, *UNIT_TRIANGLE), (*points, *tri)):
            callers.setdefault(str(tuple(unit)), []).append(str(tuple(caller)))
        raise type(err)(re.sub(r"\([^()]*\)", lambda m: (callers.get(m[0]) or [m[0]]).pop(0), str(err))) from None


def solve_two_points(tri: Triangle, p1: Point, p2: Point) -> SolveReport:
    """Every inscribed ellipse of ``tri`` through the two world points."""
    tri, fwd = _frame(tri)
    p1, p2 = as_point(p1), as_point(p2)
    units = apply_point(fwd, p1), apply_point(fwd, p2)
    case, kept = _unit_step(two_points.solve_two_points_unit, tri, (p1, p2), units)
    unit = [(unit_geometry((w * t, w * (1.0 - t), (1.0 - w) * t)), residuals) for (w, t), residuals in kept]
    return tuple.__new__(SolveReport, (case, _to_world(tri, fwd, unit)))


def solve_point_slope(tri: Triangle, p: Point, slope: Slope) -> SolveReport:
    """The unique inscribed ellipse through a world point with a world slope.

    Slopes aiming at a vertex yield an empty report with a
    ``no_solution:<vertex>`` case tag; vertices are named by their images in
    the unit triangle (a -> origin, b -> right, c -> top).
    """
    tri, fwd = _frame(tri)
    p = as_point(p)
    u = apply_point(fwd, p)
    u_slope = apply_slope(fwd, as_slope(slope))
    case, perspector = _unit_step(point_slope.solve_point_slope_unit, tri, (p,), (u,), u_slope)
    if perspector is None:
        return tuple.__new__(SolveReport, (case, ()))
    geometry = unit_geometry(perspector)
    residuals = point_slope.residual_system13(u, u_slope, geometry[0])
    return tuple.__new__(SolveReport, (case, _to_world(tri, fwd, ((geometry, residuals),))))


def solve_tangency(tri: Triangle, q1: Point, q2: Point) -> SolveReport:
    """The unique inscribed ellipse tangent to ``tri`` at two boundary points."""
    tri, fwd = _frame(tri)
    q1, q2 = as_point(q1), as_point(q2)
    u1, u2 = apply_point(fwd, q1), apply_point(fwd, q2)
    s1 = _unit_step(boundary.side_point, tri, (q1,), (u1,))
    s2 = _unit_step(boundary.side_point, tri, (q2,), (u2,))
    _, _, contacts, _ = geometry = unit_geometry(boundary.param_from_tangencies(s1, s2))
    (x1, y1), (x2, y2) = contacts[s1[0]], contacts[s2[0]]
    residuals = (max(abs(x1 - u1.x), abs(y1 - u1.y)), max(abs(x2 - u2.x), abs(y2 - u2.y)))
    return tuple.__new__(SolveReport, ("boundary_unique", _to_world(tri, fwd, ((geometry, residuals),))))
