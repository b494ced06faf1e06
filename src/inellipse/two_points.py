"""All inscribed ellipses through two interior points of the unit triangle.

A pair of interior points admits exactly four inscribed ellipses through
both, except when the points are collinear with a triangle vertex, in which
case exactly two.  The contact parameters t of the solutions are roots of
the concave-down quadratics R and S from :mod:`inellipse.kernel`; each root
maps to its partner w through w = (t/2) B(t)/C(t).  On the degenerate branch
where the pair invariant j vanishes, R acquires a double root t0 and the two
missing solutions come from the through-point quadratic in w at t0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .conic import ConicCoeffs
from .equations import backward_error, through_point
from .errors import AmbiguousClassification, SolutionCountMismatch
from .geom import Point, Vertex, as_point, require_distinct
from .kernel import (
    EllipseParam,
    QuadraticPoly,
    TangencyTriple,
    _through_residual,
    _w_coeffs,
    eval_system_residual,
    inscribed_conic,
    pair_invariants,
    poly_B,
    poly_C,
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
# Candidate roots closer than this to a known spurious contact parameter are
# discarded before any division by C(t).
_SPURIOUS_BAND = 1e-6
# The ratio B/C loses roughly 1e-16 * scale^2 / disc relative accuracy near a
# double root; switch the w-candidate source well above the clamping gate.
_RATIO_SAFE_BAND = 1e-6
# Strict open-square margin applied to accepted parameters.
_SQUARE_MARGIN = 1e-9
_DEDUPE = 1e-10
_POLISH_ITERS = 4  # Newton steps on each candidate (w, t)


class PairKind(Enum):
    GENERIC = "generic"
    GENERIC_J_ZERO = "generic_j_zero"
    VERTEX_LINE = "vertex_line"


@dataclass(frozen=True)
class PairCase:
    kind: PairKind
    vertex: Optional[Vertex] = None

    def __str__(self) -> str:
        if self.kind is PairKind.VERTEX_LINE:
            return f"vertex_line:{self.vertex.value}"
        return "generic_4" if self.kind is PairKind.GENERIC else "generic_j_zero"


@dataclass(frozen=True)
class TwoPointSolution:
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
    """Term-normalized residuals of the two through-point conditions."""
    return (eval_system_residual(p1, param), eval_system_residual(p2, param))


def _newton_polish(p1: Point, p2: Point, w: float, t: float):
    """A few Newton steps on the raw through-point system; returns (w, t).

    Candidates arrive within the quadratic-convergence basin, so undamped
    steps with a step-size cap are enough to pin residuals at round-off.
    """
    for _ in range(_POLISH_ITERS):
        eq1, eq2 = through_point(*p1, w, t), through_point(*p2, w, t)
        if max(backward_error(eq1), backward_error(eq2)) < 1e-15:
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
    return w, t


def _candidate_params(p1: Point, p2: Point, q1: QuadraticPoly, q2: QuadraticPoly, case: PairCase):
    inv = pair_invariants(p1, p2)
    r_poly = poly_R(p1, p2)
    s_poly = poly_S(p1, p2)
    j_zero = case.kind is PairKind.GENERIC_J_ZERO
    # Reorder a j_zero pair so the origin determinant is positive; this pins
    # the shared contact parameter t0 inside (0,1) and keeps the w-quadratic
    # stable.
    if j_zero and inv.d_origin < 0.0:
        p1, p2, q1, q2 = p2, p1, q2, q1
        inv = pair_invariants(p1, p2)
        s_poly = poly_S(p1, p2)
    if j_zero and inv.t0 is None:
        raise SolutionCountMismatch(
            "degenerate pair lost its shared contact parameter; tolerance bands disagree"
        )
    b_poly, c_poly = poly_B(p1, p2), poly_C(p1, p2)
    if case.vertex is not None:
        # Each vertex line plants one known spurious root of R(t) S(t): the
        # parameter that would force w onto the square boundary.
        spurious = {Vertex.ORIGIN: 0.0, Vertex.RIGHT: 1.0, Vertex.TOP: p1.x / (1.0 - p1.y)}[case.vertex]

    out = []
    # On the j_zero branch R has the double root t0, which the w-quadratic
    # at t0 covers below.
    for poly in (s_poly,) if j_zero else (r_poly, s_poly):
        # Near a double root the ratio B/C approaches 0/0 and loses all
        # accuracy; the through-point quadratic in w at each root stays exact
        # (both its roots are tried, the residual gate and the dedupe pass
        # sort out the pairing).
        near_double = poly.discriminant < (_RATIO_SAFE_BAND * poly.scale) ** 2
        for t, _ in solve_quadratic_clamped(poly, _DOUBLE_ROOT_BAND):
            if case.vertex is not None and abs(t - spurious) < _SPURIOUS_BAND:
                continue
            if near_double:
                out += _w_roots(p1, q1, t)
            else:
                cv = c_poly(t)
                if cv != 0.0:
                    out.append((0.5 * t * b_poly(t) / cv, t))
    if j_zero:
        out += _w_roots(p1, q1, inv.t0)
    return out, 4 if case.vertex is None else 2


def _w_roots(p: Point, q: QuadraticPoly, t: float) -> list[tuple[float, float]]:
    """Both (w, t) candidates from the through-point quadratic in w at t."""
    g = QuadraticPoly(*_w_coeffs(p, q, t))
    return [(w, t) for w, _ in solve_quadratic_clamped(g, _DOUBLE_ROOT_BAND)]


def _assemble(p1, p2, q1, q2, raw_params, expected, tol):
    kept: list[tuple[EllipseParam, tuple[float, float]]] = []
    for w, t in raw_params:
        if not (math.isfinite(w) and math.isfinite(t)):
            continue
        w, t = _newton_polish(p1, p2, w, t)
        if not (
            _SQUARE_MARGIN < w < 1.0 - _SQUARE_MARGIN
            and _SQUARE_MARGIN < t < 1.0 - _SQUARE_MARGIN
        ):
            continue
        param = EllipseParam(w, t)
        # residual_system3 from the points' quadratics q1, q2.
        residuals = (_through_residual(p1, q1, param), _through_residual(p2, q2, param))
        if max(residuals) >= tol:
            continue
        if any(
            max(abs(param.w - k.w), abs(param.t - k.t)) < _DEDUPE for k, _ in kept
        ):
            continue
        kept.append((param, residuals))
    if len(kept) != expected:
        raise SolutionCountMismatch(
            f"expected {expected} inscribed ellipses, kept {len(kept)}: "
            f"{[(round(k.t, 6), round(k.w, 6)) for k, _ in kept]}"
        )
    kept.sort(key=lambda kr: (kr[0].t, kr[0].w))
    return [
        TwoPointSolution(
            param=k,
            conic=inscribed_conic(k),
            tangency=tangency_points(k),
            residuals=residuals,
        )
        for k, residuals in kept
    ]


def solve_two_points_unit(
    p1: Point, p2: Point, tol: float = 1e-9
) -> tuple[PairCase, list[TwoPointSolution]]:
    """Classify the pair and return every inscribed ellipse through both points.

    Four solutions in the generic cases, two in the vertex-line cases; all
    returned parameters sit strictly inside the open unit square, pass the
    through-point residual gate ``tol`` for both points, and arrive sorted by
    (t, w).  ``tol`` must be finite and positive: a NaN would pass every
    candidate through the gate.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    p1, p2 = as_point(p1), as_point(p2)
    # Built once per solve; poly_q also checks that p1, then p2, is interior.
    q1, q2 = poly_q(p1), poly_q(p2)
    require_distinct(p1, p2)
    case = classify_pair(p1, p2)
    raw, expected = _candidate_params(p1, p2, q1, q2, case)
    return case, _assemble(p1, p2, q1, q2, raw, expected, tol)
