"""The unique inscribed ellipse through a point with a prescribed tangent direction.

A slope is its direction (a, b) (:class:`inellipse.geom.Slope`): (1, r) for
a finite slope r, (0, 1) for a vertical one, and any multiple of it once
carried to the unit triangle.  For an interior point (x, y), each vertex v of
the unit triangle gives the linear form

    L_v = a (v_y - y) - b (v_x - x),

which vanishes exactly when (a, b) aims from (x, y) at v.  With the sums

    S = (1 - x - y) L_origin^2,    Y = y L_top^2,    X = x L_right^2,

the ellipse's perspector is (S, X, Y): w = S / (S + Y), t = S / (S + X),
1 - w = Y / (S + Y) and 1 - t = X / (S + X).  Every term is non-negative, so
nothing cancels as the direction nears a vertex, and one formula serves
finite and vertical slopes alike.  When (a, b) aims at a vertex no inscribed
ellipse attains it, and :func:`solve_point_slope_unit` returns that as the
report's case ``no_solution:<vertex>``, not as an error; otherwise the case
is ``unique`` with the perspector.

Checks: each vertex's exclusion band before its term is built, on a point
whose barycentrics, its weights, ``world`` computed and tested interior.  Each residual is one
evaluation of its equation without the partials (:mod:`inellipse.equations`).
"""

from __future__ import annotations

import math

from . import equations
from .affine import UNIT_TRIANGLE
from .geom import Point, Slope
from .kernel import EllipseParam

# |L_v| below this fraction of (|a| + |b|) |v_x - x| means the direction aims
# at vertex v, and no inscribed ellipse attains it.  For (1, r) that is
# |r - vertex slope| < _SLOPE_EXCLUSION (1 + |r|); it never holds for (0, 1).
_SLOPE_EXCLUSION = 1e-9


def solve_point_slope_unit(bary, slope: Slope) -> tuple[str, tuple[float, float, float] | None]:
    """``("unique", (S, X, Y))``, or ``("no_solution:<vertex>", None)`` on an excluded slope,
    for the interior point with barycentrics ``bary`` = (alpha, beta, gamma), at (beta, gamma)."""
    _, x, y = bary
    a, b = slope
    band = _SLOPE_EXCLUSION * (abs(a) + abs(b))
    terms = []
    for (vx, vy), weight, vertex in zip(UNIT_TRIANGLE, bary, ("origin", "right", "top")):
        form = a * (vy - y) - b * (vx - x)
        if abs(form) < band * abs(vx - x):
            return f"no_solution:{vertex}", None
        terms.append(_term(weight, form))
    return "unique", _perspector(*terms)


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
