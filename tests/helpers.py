"""Shared random generators for the property tests.

All sampling is seeded by the caller, so every test run is reproducible.
"""

import math

import numpy as np

from inellipse.affine import Triangle
from inellipse.geom import Point, Vertex
from inellipse.two_points import PairKind, classify_pair

VERTEX_POINTS = {Vertex.ORIGIN: Point(0.0, 0.0), Vertex.RIGHT: Point(1.0, 0.0), Vertex.TOP: Point(0.0, 1.0)}


def random_interior(rng: np.random.Generator, margin: float = 0.02) -> Point:
    """Uniform point in the unit triangle, kept ``margin`` away from the boundary."""
    while True:
        a, b = rng.random(2)
        if a + b > 1.0:
            a, b = 1.0 - a, 1.0 - b
        if a >= margin and b >= margin and a + b <= 1.0 - margin:
            return Point(a, b)


def random_param(rng: np.random.Generator, margin: float = 0.01):
    w = margin + (1.0 - 2.0 * margin) * rng.random()
    t = margin + (1.0 - 2.0 * margin) * rng.random()
    return w, t


def random_generic_pair(rng: np.random.Generator) -> tuple[Point, Point]:
    while True:
        p1, p2 = random_interior(rng), random_interior(rng)
        if max(abs(p1.x - p2.x), abs(p1.y - p2.y)) < 1e-3:
            continue
        if classify_pair(p1, p2).kind is PairKind.GENERIC:
            return p1, p2


def random_vertex_pair(rng: np.random.Generator, vertex: Vertex) -> tuple[Point, Point]:
    """Two interior points exactly collinear with the given triangle vertex."""
    v = VERTEX_POINTS[vertex]
    while True:
        p1 = random_interior(rng, margin=0.05)
        s = 0.4 + 0.5 * rng.random()  # stay strictly between vertex and p1
        p2 = Point(v.x + s * (p1.x - v.x), v.y + s * (p1.y - v.y))
        if (
            p2.x > 0.02 and p2.y > 0.02 and p2.x + p2.y < 0.98
            and max(abs(p1.x - p2.x), abs(p1.y - p2.y)) > 1e-3
        ):
            return p1, p2


def j_zero_pair(rng: np.random.Generator) -> tuple[Point, Point]:
    """Two interior points exactly on the degenerate (double-root) branch.

    Solves the branch condition as a quadratic in y2 for a random p1 and x2;
    the positive root keeps the construction inside the triangle for most
    draws, and off-triangle draws are rejected.
    """
    while True:
        p1 = random_interior(rng, margin=0.08)
        x2 = 0.08 + 0.8 * rng.random()
        x1, y1 = p1
        a = x1 * (1.0 - x1 - y1)
        b = x2 * y1 * y1
        c = -x2 * (1.0 - x2) * y1 * y1
        y2 = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        p2 = Point(x2, y2)
        if not (0.02 < y2 and x2 + y2 < 0.98):
            continue
        if max(abs(p1.x - p2.x), abs(p1.y - p2.y)) < 1e-3:
            continue
        if classify_pair(p1, p2).kind is PairKind.GENERIC_J_ZERO:
            return p1, p2


def random_triangle(rng: np.random.Generator) -> Triangle:
    """Vertices in a box, rejected until the triangle is decently conditioned."""
    while True:
        coords = rng.uniform(-3.0, 3.0, size=(3, 2))
        tri_pts = [Point(*c) for c in coords]
        edges = [
            np.hypot(tri_pts[i].x - tri_pts[(i + 1) % 3].x,
                     tri_pts[i].y - tri_pts[(i + 1) % 3].y)
            for i in range(3)
        ]
        area2 = abs(
            (tri_pts[1].x - tri_pts[0].x) * (tri_pts[2].y - tri_pts[0].y)
            - (tri_pts[2].x - tri_pts[0].x) * (tri_pts[1].y - tri_pts[0].y)
        )
        if area2 >= 2.0 and min(edges) >= 1.0 and max(edges) <= 10.0:
            return Triangle(*tri_pts)


def interior_in_triangle(rng: np.random.Generator, tri: Triangle) -> Point:
    """Uniform point inside a world triangle, clear of the boundary."""
    u = random_interior(rng, margin=0.03)
    a, b, c = tri.vertices
    return Point(
        a.x + u.x * (b.x - a.x) + u.y * (c.x - a.x),
        a.y + u.x * (b.y - a.y) + u.y * (c.y - a.y),
    )


def point_slope_reference(p: Point, r: float) -> tuple[float, float]:
    """(w, t) for the finite slope r at p, as S/(S+Y) and S/(S+X) in 50-digit mpmath."""
    import mpmath as mp

    with mp.workdps(50):
        x, y, r = mp.mpf(p.x), mp.mpf(p.y), mp.mpf(r)
        s = (1 - x - y) * (r * x - y) ** 2
        return float(s / (s + y * (r * x - y + 1) ** 2)), float(s / (s + x * (r * x - r - y) ** 2))


def two_point_reference(p1: Point, p2: Point, w: float, t: float) -> tuple[float, float]:
    """(w, t) through p1 and p2, refined by 50-digit mpmath Newton from the float (w, t).

    The through-point equations are written here from the inscribed conic
    w^2 x^2 + t^2 y^2 - 2wt(2wt - 2w - 2t + 1) xy - 2w^2 t x - 2t^2 w y + t^2 w^2,
    not taken from the package.
    """
    import mpmath as mp

    def conic(x, y, w, t):
        return (
            w * w * x * x + t * t * y * y - 2 * w * t * (2 * w * t - 2 * w - 2 * t + 1) * x * y
            - 2 * w * w * t * x - 2 * t * t * w * y + t * t * w * w
        )

    with mp.workdps(50):
        (x1, y1), (x2, y2) = [(mp.mpf(p.x), mp.mpf(p.y)) for p in (p1, p2)]
        root = mp.findroot(
            lambda w, t: [conic(x1, y1, w, t), conic(x2, y2, w, t)], (mp.mpf(w), mp.mpf(t))
        )
        return float(root[0]), float(root[1])
