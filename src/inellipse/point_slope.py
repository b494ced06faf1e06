"""The unique inscribed ellipse through a point with a prescribed tangent slope.

For an interior point (x0, y0) and a finite slope r not aiming at a triangle
vertex, the unique parameters are

    w = (1 - x0 - y0)(r x0 - y0)^2 / q_w(r),
    t = (1 - x0 - y0)(r x0 - y0)^2 / q_t(r),

where q_w and q_t are positive-definite quadratics in r.  A vertical tangent
has its own closed form (the r -> infinity limit).  When r does aim at a
vertex no inscribed ellipse attains it, and the solver reports that as an
ordinary outcome, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import equations
from .geom import Point, Slope, Vertex, as_point, require_interior
from .kernel import EllipseParam

# |r - vertex slope| below this fraction of (1 + |r|) means the slope aims at
# that vertex, and no inscribed ellipse attains it.
_SLOPE_EXCLUSION = 1e-9


@dataclass(frozen=True)
class NoSolution:
    """The slope aims from the point at this triangle vertex."""

    vertex: Vertex


def vertex_slopes(p: Point) -> tuple[Slope, Slope, Slope]:
    """Slopes of the lines from p toward (0,0), (1,0), (0,1).

    All three are finite for interior p (0 < x < 1 keeps every denominator
    away from zero).
    """
    p = as_point(p)
    require_interior(p)
    x, y = p
    return (
        Slope.finite(y / x),
        Slope.finite(y / (x - 1.0)),
        Slope.finite((y - 1.0) / x),
    )


def solve_point_slope_unit(p: Point, slope: Slope) -> Union[EllipseParam, NoSolution]:
    """Closed-form parameters, or :class:`NoSolution` on an excluded slope."""
    p = as_point(p)
    require_interior(p)
    x, y = p
    if slope.is_vertical:
        w = (1.0 - x - y) / (1.0 - x)
        t = x * (1.0 - x - y) / (1.0 - x * (1.0 + y))
        return EllipseParam(w, t)
    r = slope.value
    for vertex, vs in zip((Vertex.ORIGIN, Vertex.RIGHT, Vertex.TOP), vertex_slopes(p)):
        if abs(r - vs.value) < _SLOPE_EXCLUSION * (1.0 + abs(r)):
            return NoSolution(vertex)
    qw = (x * x - x * x * x) * r * r + 2.0 * y * x * x * r + y - y * y - x * y * y
    qt = (x - x * x * y - x * x) * r * r + 2.0 * x * y * y * r + y * y - y * y * y
    shared = (1.0 - x - y) * (r * x - y) ** 2
    return EllipseParam(shared / qw, shared / qt)


def residual_system13(p: Point, slope: Slope, param: EllipseParam) -> tuple[float, float]:
    """Backward errors of the through-point and slope conditions.

    Each residual divides by the largest monomial magnitude of its equation
    (:func:`inellipse.equations.backward_error`), so the values are
    scale-free and safe against internal cancellation.
    """
    x, y = as_point(p)
    w, t = param
    if slope.is_vertical:
        tangent = equations.vertical(x, y, w, t)
    else:
        tangent = equations.slope(x, y, slope.value, w, t)
    return (
        equations.backward_error(equations.through_point(x, y, w, t)),
        equations.backward_error(tangent),
    )
