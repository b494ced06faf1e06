"""The (w, t) parametrization of inscribed ellipses and its polynomial machinery.

Every ellipse inscribed in the unit triangle is, for exactly one pair
(w, t) in the open unit square,

    w^2 x^2 + t^2 y^2 - 2wt(2wt - 2w - 2t + 1) xy - 2w^2 t x - 2t^2 w y + t^2 w^2 = 0,

tangent to the horizontal side at (t, 0), to the vertical side at (0, w),
and to the hypotenuse at a third point determined by (w, t).  Substituting a
fixed interior point into this family and collecting powers of w yields a
quadratic in w whose coefficients are polynomials in t; the two-point solver
works entirely with those polynomials, built here.

Every family's answer -- (w, t), conic, contacts, center -- is written once,
as plain tuples, by :func:`unit_geometry` from the ellipse's perspector
(Brianchon point) (P^2 : Q^2 : R^2), under the one edge rule for (w, t);
:mod:`inellipse.world` builds the answer records from them.

Polynomial conventions: dense coefficient records, highest degree first in
the field names (c2, c1, c0), evaluated by Horner.  Points arrive checked:
``world`` tests them interior and distinct before the solvers reach here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import OutOfDomain, ZeroPolynomial
from .geom import Point

# Discriminants below (band * coefficient scale)^2 are clamped to a double root.
_DOUBLE_ROOT_BAND = 1e-8


class EllipseParam(NamedTuple):
    """Contact abscissae: t on the horizontal side, w on the vertical side."""

    w: float
    t: float


class QuadraticPoly(NamedTuple):
    """c2*t^2 + c1*t + c0."""

    c2: float
    c1: float
    c0: float

    def __call__(self, t: float) -> float:
        c2, c1, c0 = self
        return (c2 * t + c1) * t + c0


class PairInvariants(NamedTuple):
    """Classification data for a pair of interior points.

    d_origin, d_vertex10, d_vertex01 are the determinants that vanish exactly
    when the two points are collinear with the vertex (0,0), (1,0), (0,1)
    respectively.  j vanishes exactly when y1/y2 equals a1/a2, the branch on
    which R acquires a double root.  a1, a2 are sqrt(x (1 - x - y)) of each
    point, the square roots in the factorizations of :func:`poly_q`,
    :func:`poly_R` and :func:`poly_S`.
    """

    d_origin: float
    d_vertex10: float
    d_vertex01: float
    j: float
    a1: float
    a2: float


_BELOW_ONE = math.nextafter(1.0, 0.0)


def unit_geometry(perspector):
    """``(param, conic, contacts, center)`` of the inscribed ellipse with perspector
    (P^2, Q^2, R^2), three non-negative floats in any common scale: each a ratio of
    sums of them (the center interior to the medial triangle), but the conic, whose
    :class:`~inellipse.conic.ConicCoeffs` are written from (w, t).  The one edge rule
    reports a w or t rounded to 1.0 as ``_BELOW_ONE``, the float nearest it inside,
    and raises :class:`OutOfDomain` on zero or NaN, an underflowed answer.
    """
    p2, q2, r2 = perspector
    w, t = p2 / (p2 + r2), p2 / (p2 + q2)
    if not (w > 0.0 and t > 0.0):
        raise OutOfDomain(f"(w, t) = {(w, t)} underflowed to zero")
    w, t = w if w < 1.0 else _BELOW_ONE, t if t < 1.0 else _BELOW_ONE
    hyp = q2 + r2
    den_center = 2.0 * (p2 + q2 + r2)
    return (
        tuple.__new__(EllipseParam, (w, t)),
        (
            w * w,
            t * t,
            -w * t * (2.0 * w * t - 2.0 * w - 2.0 * t + 1.0),
            -2.0 * w * w * t,
            -2.0 * t * t * w,
            t * t * w * w,
        ),
        ((t, 0.0), (0.0, w), (r2 / hyp, q2 / hyp)),
        ((p2 + r2) / den_center, (p2 + q2) / den_center),
    )


def poly_q(p: Point) -> QuadraticPoly:
    """(x - t)^2 + 4xy t(1-t) as a polynomial in t; strictly positive for interior p.

    Its discriminant is 16 x^2 y (x + y - 1) < 0 inside the triangle, so the
    quadratic has no real roots and keeps the sign of its value at 0 (x^2 > 0).
    With u = x(1-2t) + t and a = sqrt(x(1-x-y)) it factors as
    q = u^2 - 4a^2 t(1-t) = (u - 2a s)(u + 2a s), s = sqrt(t(1-t)), so the two
    roots of the through-point quadratic in w are t y/(u + 2a s) and
    t y (u + 2a s)/q, neither of which cancels.
    """
    x, y = p
    return tuple.__new__(QuadraticPoly, (1.0 - 4.0 * x * y, -2.0 * x * (1.0 - 2.0 * y), x * x))


def pair_invariants(p1: Point, p2: Point) -> PairInvariants:
    x1, y1 = p1
    x2, y2 = p2
    d_origin = x2 * y1 - x1 * y2
    d_vertex10 = (1.0 - x2) * y1 - (1.0 - x1) * y2
    d_vertex01 = x2 * (1.0 - y1) - x1 * (1.0 - y2)
    j = x2 * (1.0 - x2 - y2) * y1 * y1 - x1 * (1.0 - x1 - y1) * y2 * y2
    # world checked fl(x + y) < 1, which puts fl(1 - x) within 2^-54 of
    # 1 - x, above y: no radicand is negative.
    a1 = math.sqrt(x1 * (1.0 - x1 - y1))
    a2 = math.sqrt(x2 * (1.0 - x2 - y2))
    return tuple.__new__(PairInvariants, (d_origin, d_vertex10, d_vertex01, j, a1, a2))


def _rs_pieces(p1: Point, p2: Point):
    x1, y1 = p1
    x2, y2 = p2
    yy = y1 * y2
    # m feeds the leading coefficient, n the linear one; both are negative for
    # interior pairs, which makes the quadratics concave down.
    m = x1 * y2 + x2 * y1 + 2.0 * x1 * x2 - x2 - x1
    n = 2.0 * x1 * y2 + 2.0 * x2 * y1 + 4.0 * x1 * x2 - x1 - x2
    inv = pair_invariants(p1, p2)
    aa = inv.a1 * inv.a2
    lead = 4.0 * yy * m - (y2 - y1) ** 2
    lin = x2 * y1 * y1 + x1 * y2 * y2 - yy * n
    const = -(inv.d_origin ** 2)
    return yy, aa, lead, lin, const


def poly_R(p1: Point, p2: Point) -> QuadraticPoly:
    """Concave-down quadratic whose roots in (0,1) are contact parameters t.

    R and its sibling S factor the two-point system: the sought t values are
    exactly the roots of R(t) S(t) in the open interval (spurious roots on the
    vertex-line branches excepted).  R carries the +8 y1 y2 a1 a2 coupling.
    With L(t) = d_origin (1-2t) + t (y1 - y2) it factors as

        R(t) = 4t(1-t) (y2 a1 - y1 a2)^2 - L(t)^2,

    so at a root 2 sqrt(t(1-t)) (y2 a1 - y1 a2) = +-L(t); the sign says which
    through-point root of p1 is shared with p2.  On the branch j = 0 the
    coupling term vanishes and R = -L^2 has the double root L(t0) = 0.
    """
    yy, aa, lead, lin, const = _rs_pieces(p1, p2)
    return tuple.__new__(QuadraticPoly, (lead + 8.0 * yy * aa, 2.0 * (lin - 4.0 * yy * aa), const))


def poly_S(p1: Point, p2: Point) -> QuadraticPoly:
    """Sibling of :func:`poly_R` with the opposite coupling sign.

    S(t) - R(t) = 16 a1 a2 y1 y2 t(1-t), so R and S never share a root inside
    (0,1); both equal -d_origin^2 at t=0 and -d_vertex10^2 at t=1.  With L as
    in :func:`poly_R`, S(t) = 4t(1-t) (y2 a1 + y1 a2)^2 - L(t)^2.
    """
    yy, aa, lead, lin, const = _rs_pieces(p1, p2)
    return tuple.__new__(QuadraticPoly, (lead - 8.0 * yy * aa, 2.0 * (lin + 4.0 * yy * aa), const))


def solve_quadratic(q: QuadraticPoly) -> list[tuple[float, int]]:
    """Real roots as (root, multiplicity), ascending; numerically stable.

    A negligible c2 leaves a linear solve.  A discriminant under
    (``_DOUBLE_ROOT_BAND`` * scale)^2 counts as a double root: the vertex with
    multiplicity 2 when it is not positive, else vertex +- sqrt(disc)/(2|c2|).
    Above the band the larger-magnitude root is -(c1 + sign(c1) sqrt(disc))/(2 c2)
    and the other c0 / (c2 * r1), avoiding cancellation.
    """
    c2, c1, c0 = q
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients vanish")
    if abs(c2) <= 2.2e-16 * max(abs(c1), abs(c0)):
        if c1 == 0.0:
            return []  # constant, nonzero
        return [(-c0 / c1, 1)]
    disc = c1 * c1 - 4.0 * c2 * c0
    vertex = -c1 / (2.0 * c2)
    if disc <= 0.0:
        return [(vertex, 2)]
    if disc < (_DOUBLE_ROOT_BAND * scale) ** 2:
        half = 0.5 * math.sqrt(disc) / abs(c2)
        return [(vertex - half, 1), (vertex + half, 1)]
    s = math.sqrt(disc)
    u = -(c1 + math.copysign(s, c1)) / 2.0 if c1 != 0.0 else s / 2.0
    r1 = u / c2
    r2 = c0 / u if u != 0.0 else vertex
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return [(lo, 1), (hi, 1)]
