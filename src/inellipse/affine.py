"""Affine maps between an arbitrary triangle and the unit triangle.

Every solver works on the unit triangle; this module supplies the conjugation:
``map_to_unit`` sends the user's triangle onto it, points and slopes travel
through ``apply_point`` / ``apply_slope``, and conic transport lives in
:mod:`inellipse.conic`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateTriangle, SingularMap
from .geom import Point, Slope, as_point

_COLLINEAR_BAND = 1e-12
_SINGULAR_BAND = 1e-14


class _Vertices(NamedTuple):
    a: Point
    b: Point
    c: Point


class Triangle(_Vertices):
    """Three non-collinear vertices, in user order, validated on every path that
    builds one: the constructor, ``_make`` (so ``_replace``), pickle and copy."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        tri = super().__new__(cls, as_point(a), as_point(b), as_point(c))
        # Twice the area over the longest squared edge: the relative height, free of scale.
        (ax, ay), (bx, by), (cx, cy) = tri
        longest2 = max(
            (bx - ax) ** 2 + (by - ay) ** 2, (cx - ax) ** 2 + (cy - ay) ** 2, (cx - bx) ** 2 + (cy - by) ** 2
        )
        if abs(tri.signed_area2()) <= _COLLINEAR_BAND * longest2:
            raise DegenerateTriangle(f"collinear vertices {tri.a}, {tri.b}, {tri.c}")
        return tri

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def signed_area2(self) -> float:
        """Twice the signed area."""
        ax, ay = self.a
        return (self.b.x - ax) * (self.c.y - ay) - (self.c.x - ax) * (self.b.y - ay)

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)


UNIT_TRIANGLE = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))


class AffineMap(NamedTuple):
    """p -> (m11*x + m12*y + tx, m21*x + m22*y + ty)."""

    m11: float
    m12: float
    m21: float
    m22: float
    tx: float = 0.0
    ty: float = 0.0

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def _require_invertible(self) -> float:
        d = self.det()
        scale = max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22), 1e-300)
        if abs(d) <= _SINGULAR_BAND * scale * scale:
            raise SingularMap(f"linear part of {self} is singular")
        return d


def apply_point(m: AffineMap, p: Point) -> Point:
    return Point(m.m11 * p.x + m.m12 * p.y + m.tx, m.m21 * p.x + m.m22 * p.y + m.ty)


def invert(m: AffineMap) -> AffineMap:
    d = m._require_invertible()
    i11, i12 = m.m22 / d, -m.m12 / d
    i21, i22 = -m.m21 / d, m.m11 / d
    return AffineMap(i11, i12, i21, i22, -(i11 * m.tx + i12 * m.ty), -(i21 * m.tx + i22 * m.ty))


def apply_slope(m: AffineMap, s: Slope) -> Slope:
    """Transport a tangent direction through the linear part.

    The slope's :attr:`~inellipse.geom.Slope.direction` (a, b) maps to
    (dx, dy), which yields dy/dx, or vertical when dx vanishes.
    """
    m._require_invertible()
    a, b = s.direction
    dx = m.m11 * a + m.m12 * b
    dy = m.m21 * a + m.m22 * b
    scale = max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22)) * max(abs(a), abs(b))
    if abs(dx) <= 1e-14 * scale:
        return Slope.vertical()
    return Slope.finite(dy / dx)


def map_to_unit(tri: Triangle) -> AffineMap:
    """The unique affine map sending a->(0,0), b->(1,0), c->(0,1)."""
    ux, uy = tri.b.x - tri.a.x, tri.b.y - tri.a.y
    vx, vy = tri.c.x - tri.a.x, tri.c.y - tri.a.y
    d = ux * vy - vx * uy
    # Triangle.__new__ already guards |d|; recompute the inverse of the
    # column matrix [u v] directly.
    m11, m12 = vy / d, -vx / d
    m21, m22 = -uy / d, ux / d
    return AffineMap(
        m11, m12, m21, m22,
        -(m11 * tri.a.x + m12 * tri.a.y),
        -(m21 * tri.a.x + m22 * tri.a.y),
    )
