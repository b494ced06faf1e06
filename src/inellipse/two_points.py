"""All inscribed ellipses through two interior points of the unit triangle.

A pair of interior points admits four inscribed ellipses through both, or two
when the points are collinear with a vertex.  Their contacts t are the roots
of R and S (:mod:`inellipse.kernel`); at each, the sign of L(t) D picks which
of p1's two closed-form w-roots p2 shares, and only that one is computed;
both are where the sign is lost (zero, or a double root of R on j = 0).  The
backward error of :func:`inellipse.equations.through_point` at each point,
evaluated once per candidate and once after each Newton step, stops the
polish, gates the candidate and is reported with its solution.

Checks: none on the points, which ``world`` tested interior and distinct
(:func:`classify_pair`'s ``ambiguous:<n>`` case it refuses too); the (w, t)
domain by the square margin of :func:`kept_params`.  Built once per query: p1's quadratic and each kept
solution's parameters, in :func:`kept_params`, which builds no other record;
the case is the string the report prints.
"""

from __future__ import annotations

import math

from .equations import backward_error, through_point
from .errors import SolutionCountMismatch
from .geom import Point
from .kernel import EllipseParam, QuadraticPoly, pair_invariants, poly_q, poly_R, poly_S, solve_quadratic

# Relative bands under which a vertex-line determinant, or the pair invariant
# j, counts as zero.
_CLASSIFY_BAND = 1e-10
_J_ZERO_BAND = 1e-10
# Strict open-square margin applied to accepted parameters; it also rejects
# the spurious root each vertex line plants in R S, whose w or t sits on the
# square's edge.
_SQUARE_MARGIN = 1e-9
_SQUARE_TOP = 1.0 - _SQUARE_MARGIN
_DEDUPE = 1e-10
_POLISH_ITERS = 4  # Newton steps at most on each candidate (w, t)
_CONVERGED = 1e-15  # both backward errors under this stop the polish
# Backward-error gate at both points.  Polished solutions sit below 1e-15 and
# rejected candidates above 1e-3 (tests/test_two_points.py pins the gap), so
# any gate in between keeps the same solutions.
_GATE = 1e-9


def classify_pair(p1: Point, p2: Point) -> str:
    """The case of an interior pair: ``ambiguous:<n>`` on n > 1 vertex lines at once, else
    ``vertex_line:<vertex>`` (origin, right or top), else ``generic_j_zero`` on the j = 0
    branch, else ``generic_4``."""
    d_origin, d_right, d_top, j, _, _ = pair_invariants(p1, p2)
    (x1, y1), (x2, y2) = p1, p2
    # Each vertex-line determinant against its band, scaled by its two products.
    origin = abs(d_origin) < _CLASSIFY_BAND * max(abs(x2 * y1), abs(x1 * y2))
    right = abs(d_right) < _CLASSIFY_BAND * max(abs((1 - x2) * y1), abs((1 - x1) * y2))
    top = abs(d_top) < _CLASSIFY_BAND * max(abs(x2 * (1 - y1)), abs(x1 * (1 - y2)))
    if origin + right + top > 1:
        return f"ambiguous:{origin + right + top}"
    if origin or right or top:
        return "vertex_line:origin" if origin else "vertex_line:right" if right else "vertex_line:top"
    j_scale = max(abs(x2 * (1 - x2 - y2) * y1 * y1), abs(x1 * (1 - x1 - y1) * y2 * y2))
    return "generic_j_zero" if abs(j) < _J_ZERO_BAND * j_scale else "generic_4"


def _newton_polish(p1: Point, p2: Point, w: float, t: float, r1: float, r2: float):
    """Newton steps from a candidate (w, t) whose backward errors r1, r2 are
    not both at round-off; returns (w, t, r1, r2), the errors at that (w, t).

    Each step builds the Jacobian, then evaluates the new point without it.
    Candidates start in the quadratic-convergence basin: capped, undamped steps suffice.
    """
    (x1, y1), (x2, y2) = p1, p2
    for _ in range(_POLISH_ITERS):
        (f1, a, b, _), (f2, c, d, _) = through_point(x1, y1, w, t), through_point(x2, y2, w, t)
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            break
        dw = -(d * f1 - b * f2) / det
        dt = -(a * f2 - c * f1) / det
        if abs(dw) > 0.1 or abs(dt) > 0.1:
            break
        w, t = w + dw, t + dt
        r1 = backward_error(through_point(x1, y1, w, t, jacobian=False))
        r2 = backward_error(through_point(x2, y2, w, t, jacobian=False))
        if r1 < _CONVERGED and r2 < _CONVERGED:
            break
    return w, t, r1, r2


def _candidate_params(p1: Point, p2: Point, q1: QuadraticPoly):
    d_origin, _, _, _, a1, a2 = pair_invariants(p1, p2)
    (x1, y1), (_, y2) = p1, p2
    out = []
    # At a root of R (or S), 2 sqrt(t(1-t)) D = +-L(t) with D = y2 a1 -+ y1 a2: p2 shares
    # p1's near w-root when L D > 0, its far one when L D < 0, both at a double root or L D = 0.
    for poly, d in ((poly_R(p1, p2), y2 * a1 - y1 * a2), (poly_S(p1, p2), y2 * a1 + y1 * a2)):
        for t, multiplicity in solve_quadratic(poly):
            if not 0.0 < t < 1.0:
                continue
            k = x1 * (1.0 - 2.0 * t) + t + 2.0 * a1 * math.sqrt(t * (1.0 - t))
            side = (d_origin * (1.0 - 2.0 * t) + t * (y1 - y2)) * d
            if multiplicity == 2 or side >= 0.0:
                out.append((t * y1 / k, t))  # near
            if multiplicity == 2 or not side > 0.0:
                out.append((t * y1 * k / q1(t), t))  # far
    return out


def kept_params(p1: Point, p2: Point, case: str) -> list[tuple[EllipseParam, tuple[float, float]]]:
    """Every inscribed ellipse through a classified pair, as (param, residuals) sorted by (t, w).

    The points arrive checked by ``world``, ``case`` from :func:`classify_pair`.
    A candidate of R and S is polished unless its first backward errors
    are both under ``_CONVERGED``, then kept inside the square margin with
    both under ``_GATE``, unless within ``_DEDUPE`` of one kept before.  A
    count other than the case's, 2 for ``vertex_line:*`` and 4 otherwise, raises
    :class:`SolutionCountMismatch`.
    """
    (x1, y1), (x2, y2) = p1, p2
    raw = _candidate_params(p1, p2, poly_q(p1))
    expected = 2 if case.startswith("vertex_line") else 4
    kept = []  # (t, w, residuals)
    for w, t in raw:
        r1 = backward_error(through_point(x1, y1, w, t, jacobian=False))
        r2 = backward_error(through_point(x2, y2, w, t, jacobian=False))
        if not (r1 < _CONVERGED and r2 < _CONVERGED):
            w, t, r1, r2 = _newton_polish(p1, p2, w, t, r1, r2)
        inside = _SQUARE_MARGIN < w < _SQUARE_TOP and _SQUARE_MARGIN < t < _SQUARE_TOP
        if not inside or r1 >= _GATE or r2 >= _GATE:
            continue
        for kt, kw, _ in kept:
            if abs(w - kw) < _DEDUPE and abs(t - kt) < _DEDUPE:
                break
        else:
            kept.append((t, w, (r1, r2)))
    if len(kept) != expected:
        raise SolutionCountMismatch(
            f"expected {expected} inscribed ellipses, kept {len(kept)}: "
            f"{[(round(t, 6), round(w, 6)) for t, w, _ in kept]}"
        )
    kept.sort()
    return [(tuple.__new__(EllipseParam, (w, t)), residuals) for t, w, residuals in kept]


def solve_two_points_unit(p1: Point, p2: Point) -> tuple[str, list[tuple[EllipseParam, tuple]] | None]:
    """``(case, kept_params(p1, p2, case))``, the four inscribed ellipses through both points (two
    in the vertex-line cases) as (param, residuals), or ``(case, None)`` for an ``ambiguous:<n>`` pair."""
    case = classify_pair(p1, p2)
    return case, None if case.startswith("ambiguous") else kept_params(p1, p2, case)
