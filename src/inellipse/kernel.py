"""The (w, t) parametrization of inscribed ellipses and its polynomial machinery.

Every ellipse inscribed in the unit triangle is, for exactly one pair
(w, t) in the open unit square,

    w^2 x^2 + t^2 y^2 - 2wt(2wt - 2w - 2t + 1) xy - 2w^2 t x - 2t^2 w y + t^2 w^2 = 0,

tangent to the horizontal side at (t, 0), to the vertical side at (0, w),
and to the hypotenuse at a third point determined by (w, t).  Substituting a
fixed interior point into this family and collecting powers of w yields a
quadratic in w whose coefficients are polynomials in t; the two-point solver
works entirely with those polynomials, built here.

Polynomial conventions: dense coefficient records, highest degree first in
the field names (c2, c1, c0), evaluated by Horner.  Public functions validate
their points through :func:`poly_q` or :func:`pair_invariants`; the private
helpers that take a point with its ``poly_q`` expect it validated already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .conic import ConicCoeffs
from .errors import OutOfDomain, ZeroPolynomial
from .geom import Point, require_distinct, require_interior

# Radicands of the interior-point square roots are clamped at zero when they
# round slightly negative near the boundary.
_RADICAND_CLAMP = 1e-14


class EllipseParam(NamedTuple):
    """Contact abscissae: t on the horizontal side, w on the vertical side."""

    w: float
    t: float


class TangencyTriple(NamedTuple):
    t1: Point  # on the horizontal side y = 0
    t2: Point  # on the vertical side x = 0
    t3: Point  # on the hypotenuse x + y = 1


@dataclass(frozen=True)
class QuadraticPoly:
    """c2*t^2 + c1*t + c0."""

    c2: float
    c1: float
    c0: float

    def __call__(self, t: float) -> float:
        return (self.c2 * t + self.c1) * t + self.c0

    @property
    def discriminant(self) -> float:
        return self.c1 * self.c1 - 4.0 * self.c2 * self.c0

    @property
    def vertex(self) -> float:
        """Stationary point -c1/(2 c2); the double root when the discriminant is 0."""
        return -self.c1 / (2.0 * self.c2)

    @property
    def scale(self) -> float:
        return max(abs(self.c2), abs(self.c1), abs(self.c0))


@dataclass(frozen=True)
class PairInvariants:
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


def _check_param(w: float, t: float) -> None:
    if not (0.0 < w < 1.0 and 0.0 < t < 1.0):
        raise OutOfDomain(f"(w, t) = {(w, t)} outside the open unit square")


def inscribed_conic(param: EllipseParam) -> ConicCoeffs:
    """Coefficients (half-cross convention) of the inscribed ellipse for (w, t)."""
    w, t = param
    _check_param(w, t)
    return ConicCoeffs(
        w * w,
        t * t,
        -w * t * (2.0 * w * t - 2.0 * w - 2.0 * t + 1.0),
        -2.0 * w * w * t,
        -2.0 * t * t * w,
        t * t * w * w,
    )


def tangency_points(param: EllipseParam) -> TangencyTriple:
    """Contact points on the horizontal side, vertical side, hypotenuse."""
    w, t = param
    _check_param(w, t)
    den = t + (1.0 - 2.0 * t) * w  # = t(1-w) + w(1-t) > 0 on the open square
    return TangencyTriple(
        Point(t, 0.0),
        Point(0.0, w),
        Point(t * (1.0 - w) / den, w * (1.0 - t) / den),
    )


def inscribed_center(param: EllipseParam) -> Point:
    """Center (t, w)/(2(w + (1-w)t)); always interior to the medial triangle."""
    w, t = param
    _check_param(w, t)
    den = 2.0 * (w + (1.0 - w) * t)
    return Point(t / den, w / den)


def poly_q(p: Point) -> QuadraticPoly:
    """(x - t)^2 + 4xy t(1-t) as a polynomial in t; strictly positive for interior p.

    Its discriminant is 16 x^2 y (x + y - 1) < 0 inside the triangle, so the
    quadratic has no real roots and keeps the sign of its value at 0 (x^2 > 0).
    With u = x(1-2t) + t and a = sqrt(x(1-x-y)) it factors as
    q = u^2 - 4a^2 t(1-t) = (u - 2a s)(u + 2a s), s = sqrt(t(1-t)), so the two
    roots of the through-point quadratic in w are t y/(u + 2a s) and
    t y (u + 2a s)/q, neither of which cancels.
    """
    require_interior(p)
    x, y = p
    return QuadraticPoly(1.0 - 4.0 * x * y, -2.0 * x * (1.0 - 2.0 * y), x * x)


def w_quadratic_at(p: Point, t: float) -> QuadraticPoly:
    """The quadratic in w obtained by fixing the point p and the contact t.

    An inscribed ellipse with parameters (w, t) passes through p iff w is a
    root of this quadratic.
    """
    return QuadraticPoly(*_w_coeffs(p, poly_q(p), t))


def _w_coeffs(p: Point, q: QuadraticPoly, t: float) -> tuple[float, float, float]:
    x, y = p
    return q(t), 2.0 * t * y * ((2.0 * x - 1.0) * t - x), t * t * y * y


def pair_invariants(p1: Point, p2: Point) -> PairInvariants:
    require_interior(p1, p2)
    require_distinct(p1, p2)
    x1, y1 = p1
    x2, y2 = p2
    d_origin = x2 * y1 - x1 * y2
    d_vertex10 = (1.0 - x2) * y1 - (1.0 - x1) * y2
    d_vertex01 = x2 * (1.0 - y1) - x1 * (1.0 - y2)
    j = x2 * (1.0 - x2 - y2) * y1 * y1 - x1 * (1.0 - x1 - y1) * y2 * y2
    a1 = math.sqrt(_clamped_radicand(x1 * (1.0 - x1 - y1)))
    a2 = math.sqrt(_clamped_radicand(x2 * (1.0 - x2 - y2)))
    return PairInvariants(d_origin, d_vertex10, d_vertex01, j, a1, a2)


def _clamped_radicand(v: float) -> float:
    if v < 0.0:
        if v > -_RADICAND_CLAMP:
            return 0.0
        raise ValueError(f"negative radicand {v} for an interior point")
    return v


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
    return QuadraticPoly(lead + 8.0 * yy * aa, 2.0 * (lin - 4.0 * yy * aa), const)


def poly_S(p1: Point, p2: Point) -> QuadraticPoly:
    """Sibling of :func:`poly_R` with the opposite coupling sign.

    S(t) - R(t) = 16 a1 a2 y1 y2 t(1-t), so R and S never share a root inside
    (0,1); both equal -d_origin^2 at t=0 and -d_vertex10^2 at t=1.  With L as
    in :func:`poly_R`, S(t) = 4t(1-t) (y2 a1 + y1 a2)^2 - L(t)^2.
    """
    yy, aa, lead, lin, const = _rs_pieces(p1, p2)
    return QuadraticPoly(lead - 8.0 * yy * aa, 2.0 * (lin + 4.0 * yy * aa), const)


def solve_quadratic(q: QuadraticPoly) -> list[tuple[float, int]]:
    """Real roots as (root, multiplicity), ascending; numerically stable.

    The larger-magnitude root is computed as -(c1 + sign(c1) sqrt(disc))/(2 c2)
    and the other as c0 / (c2 * r1), avoiding cancellation.  Degenerates to a
    linear solve when c2 is negligible against the other coefficients.
    """
    c2, c1, c0 = q.c2, q.c1, q.c0
    scale = q.scale
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients vanish")
    if abs(c2) <= 2.2e-16 * max(abs(c1), abs(c0)):
        if c1 == 0.0:
            return []  # constant, nonzero
        return [(-c0 / c1, 1)]
    disc = q.discriminant
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [(q.vertex, 2)]
    s = math.sqrt(disc)
    u = -(c1 + math.copysign(s, c1)) / 2.0 if c1 != 0.0 else s / 2.0
    r1 = u / c2
    r2 = c0 / u if u != 0.0 else q.vertex
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return [(lo, 1), (hi, 1)]


def solve_quadratic_clamped(q: QuadraticPoly, band: float) -> list[tuple[float, int]]:
    """Roots with a near-zero discriminant clamped through the parabola vertex.

    When disc < (band*scale)^2 the quadratic is treated as (numerically) at a
    double root: roots are vertex +- sqrt(max(disc, 0))/(2|c2|), collapsing to
    a single multiplicity-2 root when disc rounds non-positive.  Otherwise
    defers to :func:`solve_quadratic`.
    """
    gate = (band * q.scale) ** 2
    disc = q.discriminant
    if disc >= gate:
        return solve_quadratic(q)
    if abs(q.c2) <= 2.2e-16 * max(abs(q.c1), abs(q.c0)):
        return solve_quadratic(q)
    if disc <= 0.0:
        return [(q.vertex, 2)]
    half = 0.5 * math.sqrt(disc) / abs(q.c2)
    v = q.vertex
    return [(v - half, 1), (v + half, 1)]


def eval_system_residual(p: Point, param: EllipseParam) -> float:
    """Term-normalized residual of the through-point condition at one point."""
    return _through_residual(p, poly_q(p), param)


def _through_residual(p: Point, q: QuadraticPoly, param: EllipseParam) -> float:
    w, t = param
    c2, c1, c0 = _w_coeffs(p, q, t)
    terms = (c2 * w * w, c1 * w, c0)
    return abs(sum(terms)) / max(abs(terms[0]), abs(terms[1]), abs(terms[2]), 1e-300)

