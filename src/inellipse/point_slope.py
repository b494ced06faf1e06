"""The unique inscribed ellipse through a point with a prescribed tangent direction.

A slope travels as its direction (a, b): (1, r) for a finite slope r and
(0, 1) for a vertical one (:attr:`inellipse.geom.Slope.direction`).  For an
interior point (x, y), each vertex v of the unit triangle gives the linear
form

    L_v = a (v_y - y) - b (v_x - x),

which vanishes exactly when (a, b) aims from (x, y) at v.  With the sums

    S = (1 - x - y) L_origin^2,    Y = y L_top^2,    X = x L_right^2,

the unique parameters are w = S / (S + Y) and t = S / (S + X), so that
1 - w = Y / (S + Y) and 1 - t = X / (S + X).  Every term is non-negative, so
nothing cancels as the direction nears a vertex, and one formula serves
finite and vertical slopes alike.  When (a, b) aims at a vertex no inscribed
ellipse attains it, and the solver reports that as an ordinary outcome, not
an error.

Checks: ``as_point`` and the interior test in each public function but
:func:`residual_system13`, which trusts its point, and the exclusion bands
before any parameter is built; the (w, t) domain is checked by
:func:`~inellipse.kernel.unit_geometry` when ``world`` builds the geometry.
Built once per query: the parameters, by ``tuple.__new__`` after those
checks, and each residual, from one evaluation of its equation without the
partials (:mod:`inellipse.equations`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from . import equations
from .geom import Point, Slope, Vertex, as_point, require_interior
from .kernel import EllipseParam

# |L_v| below this fraction of (|a| + |b|) |v_x - x| means the direction aims
# at vertex v, and no inscribed ellipse attains it.  For (1, r) that is
# |r - vertex slope| < _SLOPE_EXCLUSION (1 + |r|); it never holds for (0, 1).
_SLOPE_EXCLUSION = 1e-9


class NoSolution(NamedTuple):
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
    return (Slope.finite(y / x), Slope.finite(-y / (1.0 - x)), Slope.finite((1.0 - y) / -x))


def solve_point_slope_unit(p: Point, slope: Slope) -> Union[EllipseParam, NoSolution]:
    """Closed-form parameters, or :class:`NoSolution` on an excluded slope."""
    p = as_point(p)
    require_interior(p)
    x, y = p
    a, b = slope.direction
    band = _SLOPE_EXCLUSION * (abs(a) + abs(b))
    # L_v and its band at v = origin, right, top, in that order (|v_x - x| = x, 1 - x, x).
    l_origin = b * x - a * y
    if abs(l_origin) < band * x:
        return NoSolution(Vertex.ORIGIN)
    l_right = -a * y - b * (1.0 - x)
    if abs(l_right) < band * (1.0 - x):
        return NoSolution(Vertex.RIGHT)
    l_top = a * (1.0 - y) + b * x
    if abs(l_top) < band * x:
        return NoSolution(Vertex.TOP)
    inside = 1.0 - x - y
    return tuple.__new__(EllipseParam, (_share(inside, l_origin, y, l_top), _share(inside, l_origin, x, l_right)))


def _share(weight: float, form: float, other_weight: float, other_form: float) -> float:
    """weight form^2 / (weight form^2 + other_weight other_form^2).

    The forms are first scaled by one power of two, which is exact, so that
    two tiny forms (a point next to a side) cannot both square to zero.
    """
    e = -math.frexp(max(abs(form), abs(other_form)))[1]
    form, other_form = math.ldexp(form, e), math.ldexp(other_form, e)
    s = weight * form * form
    return s / (s + other_weight * other_form * other_form)


def residual_system13(p: Point, slope: Slope, param: EllipseParam) -> tuple[float, float]:
    """Backward errors of the through-point and tangent conditions.

    Each residual divides by the largest term magnitude of its equation
    (:func:`inellipse.equations.backward_error`), so the values are
    scale-free and safe against internal cancellation.  The equations are
    evaluated without their partials.  ``p`` is not checked.
    """
    (x, y), (w, t), (a, b) = p, param, slope.direction
    return (
        equations.backward_error(equations.through_point(x, y, w, t, jacobian=False)),
        equations.backward_error(equations.tangent(x, y, a, b, w, t, jacobian=False)),
    )
