"""All inscribed ellipses through two interior points of the unit triangle.

A pair of interior points admits exactly four inscribed ellipses through
both, except when the points are collinear with a triangle vertex, in which
case exactly two.  The contact parameters t of the solutions are roots of
the concave-down quadratics R and S from :mod:`inellipse.kernel`.  At each
root the partner w is one of the two roots of p1's through-point quadratic
in w, both in closed forms that do not cancel; the factorizations
R, S = 4t(1-t) D^2 - L(t)^2 give the sign of L(t) D that says which one p2
shares.  Where the sign is lost (a double root of R, on the branch j = 0)
both are kept and the residual gate keeps the ones that pass through p2.
One residual per point, the backward error of
:func:`inellipse.equations.through_point`, stops the Newton polish, gates
each candidate and is reported with each solution.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .conic import ConicCoeffs
from .equations import backward_error, through_point
from .errors import AmbiguousClassification, SolutionCountMismatch
from .geom import Point, Vertex, as_point, require_interior
from .kernel import (
    EllipseParam,
    QuadraticPoly,
    TangencyTriple,
    inscribed_conic,
    pair_invariants,
    poly_q,
    poly_R,
    poly_S,
    solve_quadratic_clamped,
    tangency_points,
)

# Relative bands under which a vertex-line determinant, or the pair invariant
# j, counts as zero.
_CLASSIFY_BAND = 1e-10
_J_ZERO_BAND = 1e-10
# Discriminants below (band * coefficient scale)^2 are clamped to a double root.
_DOUBLE_ROOT_BAND = 1e-8
# Strict open-square margin applied to accepted parameters; it also rejects
# the spurious root each vertex line plants in R S, whose w or t sits on the
# square's edge.
_SQUARE_MARGIN = 1e-9
_DEDUPE = 1e-10
_POLISH_ITERS = 4  # Newton steps on each candidate (w, t)
# Backward-error gate at both points.  Polished solutions sit below 1e-15 and
# rejected candidates above 1e-3 (tests/test_two_points.py pins the gap), so
# any gate in between keeps the same solutions.
_GATE = 1e-9


class PairKind(Enum):
    GENERIC = "generic"
    GENERIC_J_ZERO = "generic_j_zero"
    VERTEX_LINE = "vertex_line"


class PairCase(NamedTuple):
    kind: PairKind
    vertex: Optional[Vertex] = None

    def __str__(self) -> str:
        if self.kind is PairKind.VERTEX_LINE:
            return f"vertex_line:{self.vertex.value}"
        return "generic_4" if self.kind is PairKind.GENERIC else "generic_j_zero"


class TwoPointSolution(NamedTuple):
    param: EllipseParam
    conic: ConicCoeffs
    tangency: TangencyTriple
    residuals: tuple[float, float]


def classify_pair(p1: Point, p2: Point) -> PairCase:
    """Vertex-line / degenerate / generic classification of an interior pair."""
    p1, p2 = as_point(p1), as_point(p2)
    inv = pair_invariants(p1, p2)
    x1, y1 = p1
    x2, y2 = p2
    checks = (
        (Vertex.ORIGIN, inv.d_origin, max(abs(x2 * y1), abs(x1 * y2))),
        (Vertex.RIGHT, inv.d_vertex10, max(abs((1 - x2) * y1), abs((1 - x1) * y2))),
        (Vertex.TOP, inv.d_vertex01, max(abs(x2 * (1 - y1)), abs(x1 * (1 - y2)))),
    )
    vanished = [v for v, det, scale in checks if abs(det) < _CLASSIFY_BAND * scale]
    if len(vanished) > 1:
        raise AmbiguousClassification(
            f"points {tuple(p1)}, {tuple(p2)} sit on {len(vanished)} vertex lines at once"
        )
    if vanished:
        return PairCase(PairKind.VERTEX_LINE, vanished[0])
    j_scale = max(
        abs(x2 * (1 - x2 - y2) * y1 * y1), abs(x1 * (1 - x1 - y1) * y2 * y2)
    )
    if abs(inv.j) < _J_ZERO_BAND * j_scale:
        return PairCase(PairKind.GENERIC_J_ZERO)
    return PairCase(PairKind.GENERIC)


def residual_system3(p1: Point, p2: Point, param: EllipseParam) -> tuple[float, float]:
    """Backward errors of the two through-point conditions."""
    require_interior(p1, p2)
    return tuple(backward_error(through_point(*p, *param)) for p in (p1, p2))


def _newton_polish(p1: Point, p2: Point, w: float, t: float):
    """A few Newton steps on the through-point system; returns (w, t, residuals).

    ``residuals`` are the backward errors of the last evaluation, which is at
    the returned (w, t).  Candidates arrive within the quadratic-convergence
    basin, so undamped steps with a step-size cap are enough to pin residuals
    at round-off.
    """
    for step in range(_POLISH_ITERS + 1):
        eq1, eq2 = through_point(*p1, w, t), through_point(*p2, w, t)
        residuals = (backward_error(eq1), backward_error(eq2))
        if max(residuals) < 1e-15 or step == _POLISH_ITERS:
            break
        (f1, a, b, _), (f2, c, d, _) = eq1, eq2
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            break
        dw = -(d * f1 - b * f2) / det
        dt = -(a * f2 - c * f1) / det
        if max(abs(dw), abs(dt)) > 0.1:
            break
        w, t = w + dw, t + dt
    return w, t, residuals


def _candidate_params(p1: Point, p2: Point, q1: QuadraticPoly, case: PairCase):
    inv = pair_invariants(p1, p2)
    x1, y1 = p1
    y2 = p2.y
    out = []
    # At a root of R (or S), 2 sqrt(t(1-t)) D = +-L(t) with D = y2 a1 -+ y1 a2:
    # p2 shares p1's near w-root when L D > 0 and its far one when L D < 0.
    for poly, d in (
        (poly_R(p1, p2), y2 * inv.a1 - y1 * inv.a2),
        (poly_S(p1, p2), y2 * inv.a1 + y1 * inv.a2),
    ):
        for t, multiplicity in solve_quadratic_clamped(poly, _DOUBLE_ROOT_BAND):
            if not 0.0 < t < 1.0:
                continue
            k = x1 * (1.0 - 2.0 * t) + t + 2.0 * inv.a1 * math.sqrt(t * (1.0 - t))
            near, far = t * y1 / k, t * y1 * k / q1(t)
            side = (inv.d_origin * (1.0 - 2.0 * t) + t * (y1 - y2)) * d
            if multiplicity == 2 or side == 0.0:
                out += [(near, t), (far, t)]
            else:
                out.append((near, t) if side > 0.0 else (far, t))
    return out, 4 if case.vertex is None else 2


def _assemble(p1, p2, raw_params, expected):
    kept: list[tuple[float, float, tuple[float, float]]] = []  # (t, w, residuals)
    for w, t in raw_params:
        w, t, residuals = _newton_polish(p1, p2, w, t)
        inside = _SQUARE_MARGIN < w < 1.0 - _SQUARE_MARGIN and _SQUARE_MARGIN < t < 1.0 - _SQUARE_MARGIN
        if not inside or max(residuals) >= _GATE:
            continue
        if any(max(abs(w - kw), abs(t - kt)) < _DEDUPE for kt, kw, _ in kept):
            continue
        kept.append((t, w, residuals))
    if len(kept) != expected:
        raise SolutionCountMismatch(
            f"expected {expected} inscribed ellipses, kept {len(kept)}: "
            f"{[(round(t, 6), round(w, 6)) for t, w, _ in kept]}"
        )
    kept.sort()
    solutions = []
    for t, w, residuals in kept:
        param = EllipseParam(w, t)
        solutions.append(TwoPointSolution(param, inscribed_conic(param), tangency_points(param), residuals))
    return solutions


def solve_two_points_unit(p1: Point, p2: Point) -> tuple[PairCase, list[TwoPointSolution]]:
    """Classify the pair and return every inscribed ellipse through both points.

    Four solutions in the generic cases, two in the vertex-line cases; all
    returned parameters sit strictly inside the open unit square, have a
    through-point backward error below ``_GATE`` at both points (reported as
    ``residuals``), and arrive sorted by (t, w).
    """
    p1, p2 = as_point(p1), as_point(p2)
    case = classify_pair(p1, p2)
    raw, expected = _candidate_params(p1, p2, poly_q(p1), case)
    return case, _assemble(p1, p2, raw, expected)
