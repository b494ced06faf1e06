"""Solvers on arbitrary triangles: conjugate to the unit triangle and back.

Each query family maps its data through the triangle's unit map ``fwd`` and
solves there.  Conics travel back as the pull-back along ``fwd``.  Contact
points and centers need no inverted map: a unit point (x, y) is the vertex
combination a + x (b - a) + y (c - a) of the triangle itself, with (x, y) from
:func:`~inellipse.kernel.tangency_points` and
:func:`~inellipse.kernel.inscribed_center`, so a thin or pixel-scale triangle
carries them to within a few ulps of the coordinate scale.  The two-point
solver hands over the unit conics and contacts it has built.  The (w, t)
parameters themselves are affine invariants of the solution (contact
abscissae on the unit triangle), so they are reported unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

from . import boundary, point_slope, two_points
from .affine import Triangle, apply_point, apply_slope, map_to_unit
from .conic import ConicCoeffs, pull_back
from .geom import Point, Slope, as_point
from .kernel import EllipseParam, inscribed_center, inscribed_conic, tangency_points


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


def _to_world(param, unit_conic, tangency, tri, fwd, residuals) -> WorldSolution:
    # Each unit point (x, y) lands on a + x (b - a) + y (c - a), summed left
    # to right: the same expression as tests/test_world.py::unit_to_world.
    # Written out per point: a loop over the four took 0.5-0.8 us more per
    # solution (CPython 3.11).
    (ax, ay), (bx, by), (cx, cy) = tri
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    (x1, y1), (x2, y2), (x3, y3) = tangency
    x4, y4 = inscribed_center(param)
    return WorldSolution(
        param=param,
        conic=pull_back(unit_conic, fwd),
        tangent_points=(
            Point(ax + x1 * ux + y1 * vx, ay + x1 * uy + y1 * vy),
            Point(ax + x2 * ux + y2 * vx, ay + x2 * uy + y2 * vy),
            Point(ax + x3 * ux + y3 * vx, ay + x3 * uy + y3 * vy),
        ),
        center=Point(ax + x4 * ux + y4 * vx, ay + x4 * uy + y4 * vy),
        residuals=tuple(residuals),
    )


def solve_two_points(tri: Triangle, p1: Point, p2: Point) -> SolveReport:
    """Every inscribed ellipse of ``tri`` through the two world points."""
    fwd = map_to_unit(tri)
    u1, u2 = apply_point(fwd, as_point(p1)), apply_point(fwd, as_point(p2))
    case, sols = two_points.solve_two_points_unit(u1, u2)
    return SolveReport(
        case=str(case),
        solutions=tuple(_to_world(s.param, s.conic, s.tangency, tri, fwd, s.residuals) for s in sols),
    )


def solve_point_slope(tri: Triangle, p: Point, slope: Slope) -> SolveReport:
    """The unique inscribed ellipse through a world point with a world slope.

    Slopes aiming at a vertex yield an empty report with a
    ``no_solution:<vertex>`` case tag; vertices are named by their images in
    the unit triangle (a -> origin, b -> right, c -> top).
    """
    fwd = map_to_unit(tri)
    u, u_slope = apply_point(fwd, as_point(p)), apply_slope(fwd, slope)
    outcome = point_slope.solve_point_slope_unit(u, u_slope)
    if isinstance(outcome, point_slope.NoSolution):
        return SolveReport(case=f"no_solution:{outcome.vertex.value}", solutions=())
    residuals = point_slope.residual_system13(u, u_slope, outcome)
    conic, tps = inscribed_conic(outcome), tangency_points(outcome)
    return SolveReport(case="unique", solutions=(_to_world(outcome, conic, tps, tri, fwd, residuals),))


def solve_tangency(tri: Triangle, q1: Point, q2: Point) -> SolveReport:
    """The unique inscribed ellipse tangent to ``tri`` at two boundary points."""
    fwd = map_to_unit(tri)
    s1 = boundary.side_point(apply_point(fwd, as_point(q1)))
    s2 = boundary.side_point(apply_point(fwd, as_point(q2)))
    param = boundary.param_from_tangencies(s1, s2)
    tps = tangency_points(param)
    produced = {
        boundary.Side.BOTTOM: tps.t1,
        boundary.Side.LEFT: tps.t2,
        boundary.Side.HYPOTENUSE: tps.t3,
    }
    residuals = tuple(
        max(abs(produced[s.side].x - s.point.x), abs(produced[s.side].y - s.point.y))
        for s in (s1, s2)
    )
    solution = _to_world(param, inscribed_conic(param), tps, tri, fwd, residuals)
    return SolveReport(case="boundary_unique", solutions=(solution,))
