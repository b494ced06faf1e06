"""Affine maps between an arbitrary triangle and the unit triangle.

This module holds the validated :class:`Triangle` and the way into the unit
frame: a point as its :func:`barycentrics`, which no translation term rounds at
the vertices' scale.  No slope goes through a map: the point-slope query is
solved on the caller's values (:mod:`inellipse.point_slope`).  No map is
inverted, and no conic carried, either: results return as vertex combinations
(:mod:`inellipse.world`), and conics are written on ``map_to_unit``'s rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateTriangle
from .geom import Point, as_point

_COLLINEAR_BAND = 1e-12


class _Vertices(NamedTuple):
    a: Point
    b: Point
    c: Point


class Triangle(_Vertices):
    """Three non-collinear vertices, in user order, validated on every path that
    builds one: the constructor, ``_make`` (so ``_replace``), pickle and copy.  Each
    vertex passes ``as_point`` (``ValueError`` unless finite), a squared edge length
    beyond the float range raises ``ValueError``, twice the area within
    ``_COLLINEAR_BAND`` of the longest squared edge raises :class:`DegenerateTriangle`,
    and a ``ValueError`` is raised when the squared 1-norm of a column of
    :func:`map_to_unit`'s linear part, which bounds the world conics' coefficients,
    is beyond the float range."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        a, b, c = as_point(a), as_point(b), as_point(c)
        (ax, ay), (bx, by), (cx, cy) = a, b, c
        ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
        # Twice the signed area over the longest squared edge: the relative height, free of scale.
        # Products, not ** 2, which raises OverflowError where a product turns infinite.
        longest2 = max(ux * ux + uy * uy, vx * vx + vy * vy, wx * wx + wy * wy)
        if not math.isfinite(longest2):
            raise ValueError(f"vertices {a}, {b}, {c} lie too far apart: the squared edge lengths overflow a float")
        # A tiny triangle is tested at k = 2**600 times its size (exact), where nothing underflows.
        k = 1.0
        if longest2 < 2.0 ** -600:
            k = 2.0 ** 600
            ux, uy, vx, vy, wx, wy = ux * k, uy * k, vx * k, vy * k, wx * k, wy * k
            longest2 = max(ux * ux + uy * uy, vx * vx + vy * vy, wx * wx + wy * wy)
        area2 = ux * vy - vx * uy
        if abs(area2) <= _COLLINEAR_BAND * longest2:
            raise DegenerateTriangle(f"collinear vertices {a}, {b}, {c}")
        # map_to_unit's columns are (vy, -uy) / area2 and (-vx, ux) / area2.  A world conic's quadratic
        # part (w beta + t gamma)^2 - 4k beta gamma is positive definite, so A, B and |C| are below the
        # larger squared 1-norm of a column (a convex form peaks at a vertex of the 1-norm ball): that
        # square bounds them, while a thin triangle's squared edges can be normal floats.
        scale = k * max(abs(uy) + abs(vy), abs(ux) + abs(vx)) / abs(area2)
        if not math.isfinite(scale * scale):
            raise ValueError(
                f"vertices {a}, {b}, {c} span too small an area: the squared scale of the map to the"
                " unit triangle overflows a float"
            )
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


def apply_point(m: AffineMap, p: Point) -> Point:
    """The map's image of a point (the queries enter by :func:`barycentrics` instead)."""
    (m11, m12, m21, m22, tx, ty), (x, y) = m, p
    return tuple.__new__(Point, (m11 * x + m12 * y + tx, m21 * x + m22 * y + ty))


def barycentrics(tri: Triangle, *points) -> list[tuple[float, float, float]]:
    """(alpha, beta, gamma) of each point: the cross product of edge bc, ca or ab with p minus
    the edge's nearer endpoint (1-norm), over twice the signed area, computed once.  A point's
    unit image is (beta, gamma), on ``UNIT_TRIANGLE`` the point itself, bit for bit."""
    (ax, ay), (bx, by), (cx, cy) = tri
    abx, aby, bcx, bcy, cax, cay = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    area2 = cax * aby - abx * cay
    if abs(area2) < 2.0 ** -600:
        # A tiny triangle, at 2**300 times its size (exact, same ratios): no cross product underflows.
        k = 2.0 ** 300
        return barycentrics(tuple((x * k, y * k) for x, y in tri), *((x * k, y * k) for x, y in points))
    out = []
    for x, y in points:
        dax, day, dbx, dby, dcx, dcy = x - ax, y - ay, x - bx, y - by, x - cx, y - cy
        na, nb, nc = abs(dax) + abs(day), abs(dbx) + abs(dby), abs(dcx) + abs(dcy)
        out.append((
            (bcx * dby - bcy * dbx if nb <= nc else bcx * dcy - bcy * dcx) / area2,
            (cax * dcy - cay * dcx if nc <= na else cax * day - cay * dax) / area2,
            (abx * day - aby * dax if na <= nb else abx * dby - aby * dbx) / area2,
        ))
    return out


def map_to_unit(tri: Triangle) -> AffineMap:
    """The unique affine map sending a->(0,0), b->(1,0), c->(0,1)."""
    (ax, ay), (bx, by), (cx, cy) = tri
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    d = ux * vy - vx * uy
    # Triangle.__new__ already guards |d|; recompute the inverse of the
    # column matrix [u v] directly.
    m11, m12 = vy / d, -vx / d
    m21, m22 = -uy / d, ux / d
    return tuple.__new__(AffineMap, (m11, m12, m21, m22, -(m11 * ax + m12 * ay), -(m21 * ax + m22 * ay)))
