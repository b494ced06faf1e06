"""The unique inscribed ellipse through a point with a prescribed tangent direction.

A slope is its direction (a, b) (:class:`inellipse.geom.Slope`): (1, r) for a
finite slope r, (0, 1) for a vertical one.  The query is solved on the caller's
triangle, point and direction; no slope goes through a map.  For an interior
point p, each vertex V of the triangle gives the linear form

    L_V = a (V_y - p_y) - b (V_x - p_x),

which vanishes exactly when (a, b) aims from p at V.  An affine map scales all
three forms by one factor, so with p's barycentrics (alpha, beta, gamma) the
ellipse's perspector is (S, X, Y) = (alpha L_A^2, beta L_B^2, gamma L_C^2)
(Yiu, *Introduction to the Geometry of the Triangle*, inconics): w = S / (S + Y),
t = S / (S + X), 1 - w = Y / (S + Y) and 1 - t = X / (S + X).  Every term is
non-negative, so nothing cancels as the direction nears a vertex, and one
formula serves finite and vertical slopes alike.  When (a, b) aims at a vertex
no inscribed ellipse attains it, and :func:`solve_point_slope_unit` returns
that as the report's case ``no_solution:<vertex>``, not as an error; otherwise
the case is ``unique`` with the perspector.  Either way it also returns
(L_C - L_A, L_A - L_B), the unit map's image of (a, b) up to scale, for the
residuals and the oracle.

Checks: each vertex's exclusion band, on a point whose barycentrics, its
weights, ``world`` computed and tested interior.  Each residual is one
evaluation of its equation without the partials (:mod:`inellipse.equations`).
"""

from __future__ import annotations

import math

from . import equations
from .geom import Point, Slope
from .kernel import EllipseParam

# (a, b) aims at vertex V when |L_V| <= _SLOPE_EXCLUSION (|a (V_y - p_y)| + |b (V_x - p_x)|),
# a bound on the forward error of the caller's values; no inscribed ellipse attains it.  For
# (1, r) and a vertex in the world slope v from p that is |r - v| <= _SLOPE_EXCLUSION (|r| + |v|),
# and a vertical (a, b) is excluded only by a vertex straight above or below p.
_SLOPE_EXCLUSION = 1e-9


def solve_point_slope_unit(tri, p: Point, bary, slope: Slope):
    """``(case, perspector, direction)`` for the interior point ``p`` of ``tri`` with barycentrics
    ``bary``: ``("unique", (S, X, Y), ...)``, or ``("no_solution:<vertex>", None, ...)`` on an excluded slope."""
    # (a, b) times the power of two putting max(|a|, |b|) in [1/2, 1): a subnormal keeps its bits, no form overflows.
    (px, py), (a, b) = p, slope
    e = -math.frexp(max(abs(a), abs(b)))[1]
    a, b = math.ldexp(a, e), math.ldexp(b, e)
    (ax, ay), (bx, by), (cx, cy) = tri
    direction = (a * (cy - ay) - b * (cx - ax), a * (ay - by) - b * (ax - bx))  # (L_C - L_A, L_A - L_B)
    terms = []
    for (vx, vy), weight, vertex in zip(tri, bary, ("origin", "right", "top")):
        along, across = a * (vy - py), b * (vx - px)
        form = along - across
        if abs(form) <= _SLOPE_EXCLUSION * (abs(along) + abs(across)):
            return f"no_solution:{vertex}", None, direction
        terms.append(_term(weight, form))
    return "unique", _perspector(*terms), direction


def _term(weight: float, form: float) -> tuple[float, int]:
    """weight form^2 as m 2^e, m in [1/8, 1): the float product's bits where that is normal, never underflowing."""
    mw, ew = math.frexp(weight)
    mf, ef = math.frexp(form)
    return mw * mf * mf, ew + 2 * ef


def _perspector(s, x, y) -> tuple[float, float, float]:
    """The terms (m, e), each m 2^e, as floats scaled by the one power of two putting the largest in [1/2, 4)."""
    top = max(s[1], x[1], y[1]) - 2
    return math.ldexp(s[0], s[1] - top), math.ldexp(x[0], x[1] - top), math.ldexp(y[0], y[1] - top)


def residual_system13(p: Point, slope: Slope, param: EllipseParam) -> tuple[float, float]:
    """Backward errors of the through-point and tangent conditions, each over the largest
    term magnitude of its equation (:func:`inellipse.equations.backward_error`): scale-free."""
    (x, y), (w, t), (a, b) = p, param, slope
    return (
        equations.backward_error(equations.through_point(x, y, w, t, jacobian=False)),
        equations.backward_error(equations.tangent(x, y, a, b, w, t, jacobian=False)),
    )
