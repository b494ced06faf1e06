"""Shared random generators and test-side references for the property tests.

All sampling is seeded by the caller, so every test run is reproducible.  The
references (a conic's terms, gradient and centre, equality up to scale, the
w-quadratic, the vertex slopes, the unit-to-world map, a numpy map inverse and
the 60-digit perspector answers) are written here in their smallest form,
apart from the package; the residuals reuse the full forms of
:mod:`inellipse.equations`, which ``tests/test_equations.py`` derives
symbolically, and the world answer of a unit solution is rebuilt from the
kernel's unit geometry one step at a time.  The shims ``geometry_at``,
``unit_point_slope`` and ``unit_tangency`` reach the kernel's geometry of a
(w, t), and the unit point-slope and tangency answers, through the package's
own entry points; ``side_point`` reaches the world query's side test.
"""

import math

import numpy as np

from inellipse import world
from inellipse.affine import UNIT_TRIANGLE, AffineMap, Triangle, barycentrics, map_to_unit
from inellipse.conic import pull_back
from inellipse.equations import backward_error, tangent, through_point
from inellipse.geom import Point, Slope
from inellipse.kernel import unit_geometry
from inellipse.two_points import classify_pair
from inellipse.world import WorldSolution, solve_point_slope, solve_tangency

VERTEX_POINTS = {"origin": Point(0.0, 0.0), "right": Point(1.0, 0.0), "top": Point(0.0, 1.0)}


def vertex_id(name: str) -> str:
    """The test id of a vertex-parametrized case: ``Vertex.ORIGIN`` for ``origin``."""
    return f"Vertex.{name.upper()}"


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
        if classify_pair(p1, p2) == "generic_4":
            return p1, p2


def random_vertex_pair(rng: np.random.Generator, vertex: str) -> tuple[Point, Point]:
    """Two interior points exactly collinear with the triangle vertex named ``vertex``."""
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
        if classify_pair(p1, p2) == "generic_j_zero":
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


def vertex_slopes(p: Point) -> tuple[Slope, Slope, Slope]:
    """Slopes of the lines from an interior p toward (0,0), (1,0), (0,1); 0 < x < 1 keeps all three finite."""
    x, y = p
    return (Slope.finite(y / x), Slope.finite(-y / (1.0 - x)), Slope.finite((1.0 - y) / -x))


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


def perspector_reference(tri: Triangle, family: str, *query) -> list[tuple[float, float]]:
    """Every answer's (w, t) to a world query on ``tri``, sorted by (t, w), from its perspector.

    Written in 60-digit mpmath on the exact float inputs, in world barycentrics
    (alpha, beta, gamma) from orientation determinants, apart from the package: an
    inscribed ellipse with perspector (P^2, Q^2, R^2) has w = P^2/(P^2 + R^2) and
    t = P^2/(P^2 + Q^2), and touches the sides at (Q^2 : P^2 : 0), (R^2 : 0 : P^2)
    and (0 : R^2 : Q^2).  ``family`` and ``query`` are ``"two_points", p1, p2`` (each
    (P, Q, R) of one sign that is a cross product of (sqrt alpha, sqrt beta, sqrt gamma)
    at p1 and at p2 with one sign flipped in each), ``"point_slope", p, (a, b)`` (the
    perspector (alpha L_A^2, beta L_B^2, gamma L_C^2) with L_V = a (V_y - p_y) - b (V_x - p_x))
    or ``"tangency", q1, q2`` (each contact fixes the ratio of two components).
    """
    import mpmath as mp

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])

    with mp.workdps(60):
        a, b, c = vertices = [[mp.mpf(v) for v in q] for q in tri]
        # The query's points: both, or the point-slope query's one point.
        points = [[mp.mpf(v) for v in q] for q in (query if family != "point_slope" else query[:1])]
        area = orient(a, b, c)
        bary = [[orient(p, b, c) / area, orient(a, p, c) / area, orient(a, b, p) / area] for p in points]
        if family == "two_points":
            lines = [
                [[-mp.sqrt(v) if i == k else mp.sqrt(v) for i, v in enumerate(abc)] for k in range(3)] for abc in bary
            ]
            perspectors = []
            for l1 in lines[0]:
                for l2 in lines[1]:
                    pqr = [l1[1] * l2[2] - l1[2] * l2[1], l1[2] * l2[0] - l1[0] * l2[2], l1[0] * l2[1] - l1[1] * l2[0]]
                    if all(v > 0 for v in pqr) or all(v < 0 for v in pqr):
                        perspectors.append([v * v for v in pqr])
        elif family == "point_slope":
            (px, py), (sa, sb) = points[0], [mp.mpf(v) for v in query[1]]
            forms = [sa * (vy - py) - sb * (vx - px) for vx, vy in vertices]
            perspectors = [[weight * form ** 2 for weight, form in zip(bary[0], forms)]]
        else:
            # Side AB (gamma = 0) fixes P^2 : Q^2 = beta : alpha, AC (beta = 0) P^2 : R^2 = gamma : alpha,
            # and BC (alpha = 0) R^2 : Q^2 = beta : gamma; two sides fix the perspector up to scale.
            ratios = {}
            for al, be, ga in bary:
                side = min(range(3), key=lambda i: abs((al, be, ga)[i]))
                ratios[side] = {2: (be, al), 1: (ga, al), 0: (be, ga)}[side]
            if 0 not in ratios:
                (pq, qq), (pr, rr) = ratios[2], ratios[1]
                perspectors = [[pq * pr, qq * pr, rr * pq]]
            elif 1 not in ratios:
                (pq, qq), (rq, qr) = ratios[2], ratios[0]
                perspectors = [[pq * qr, qq * qr, rq * qq]]
            else:
                (pr, rr), (rq, qr) = ratios[1], ratios[0]
                perspectors = [[pr * rq, rr * qr, rr * rq]]
        params = [(float(p2 / (p2 + r2)), float(p2 / (p2 + q2))) for p2, q2, r2 in perspectors]
    return sorted(params, key=lambda wt: (wt[1], wt[0]))


def conic_terms(conic, p) -> tuple[float, ...]:
    """The six terms of Q(p) = A x^2 + B y^2 + 2C xy + D x + E y + F, whose c field holds C."""
    a, b, c, d, e, f = conic
    x, y = p
    return (a * x * x, b * y * y, 2.0 * c * x * y, d * x, e * y, f)


def term_residual(conic, p) -> float:
    """|Q(p)| over the largest of its six terms: 0 on the curve, free of scale."""
    terms = conic_terms(conic, p)
    return abs(sum(terms)) / max(abs(v) for v in terms)


def conic_gradient(conic, p) -> tuple[float, float]:
    """(Q_x, Q_y) at p; the tangent to the curve through p runs along (Q_y, -Q_x)."""
    a, b, c, d, e, _ = conic
    x, y = p
    return 2.0 * a * x + 2.0 * c * y + d, 2.0 * b * y + 2.0 * c * x + e


def conic_centre(conic) -> tuple[float, float]:
    """The stationary point of Q: the solution of [2a 2c; 2c 2b] (x, y) = (-d, -e)."""
    a, b, c, d, e, _ = conic
    det2 = 2.0 * (a * b - c * c)
    return (c * e - b * d) / det2, (c * d - a * e) / det2


def same_conic(c1, c2, rtol: float = 1e-9) -> bool:
    """Equality up to scale, after dividing each by its largest-magnitude coefficient."""
    n1, n2 = ([v / max(c, key=abs) for v in c] for c in (c1, c2))
    return all(math.isclose(u, v, rel_tol=rtol, abs_tol=rtol) for u, v in zip(n1, n2))


def discriminant(q) -> float:
    """c1^2 - 4 c2 c0 of a quadratic (c2, c1, c0)."""
    c2, c1, c0 = q
    return c1 * c1 - 4.0 * c2 * c0


def stationary_point(q) -> float:
    """-c1 / (2 c2) of a quadratic (c2, c1, c0); its double root when the discriminant is 0."""
    c2, c1, _ = q
    return -c1 / (2.0 * c2)


def coefficient_scale(q) -> float:
    """The largest coefficient magnitude of a quadratic (c2, c1, c0)."""
    return max(abs(c) for c in q)


def w_quadratic(p: Point, t: float) -> tuple[float, float, float]:
    """(c2, c1, c0) with Q(p) = c2 w^2 + c1 w + c0 for the inscribed ellipse (w, t), p and t fixed.

    Collected from the inscribed conic
    w^2 x^2 + t^2 y^2 - 2wt(2wt - 2w - 2t + 1) xy - 2w^2 t x - 2t^2 w y + t^2 w^2.
    """
    x, y = p
    return (x - t) ** 2 + 4.0 * x * y * t * (1.0 - t), 2.0 * t * y * ((2.0 * x - 1.0) * t - x), t * t * y * y


def pair_residuals(p1: Point, p2: Point, param) -> tuple[float, float]:
    """Backward errors of the through-point equation at p1 and at p2."""
    return tuple(backward_error(through_point(*p, *param)) for p in (p1, p2))


def slope_residuals(p: Point, slope, param) -> tuple[float, float]:
    """Backward errors of the through-point and tangent equations, from their full forms."""
    (x, y), (a, b) = p, slope
    return backward_error(through_point(x, y, *param)), backward_error(tangent(x, y, a, b, *param))


def param_perspector(w: float, t: float) -> tuple[float, float, float]:
    """The perspector (P^2, Q^2, R^2) = (w t, w (1 - t), (1 - w) t) of the inscribed ellipse (w, t)."""
    return w * t, w * (1.0 - t), (1.0 - w) * t


def geometry_at(w: float, t: float):
    """``(conic, contacts, centre)`` of the kernel's unit geometry for the ellipse (w, t), written
    from its perspector: the (w, t) the kernel writes them from lies within a few ulps of the input."""
    return unit_geometry(param_perspector(w, t))[1:]


def unit_point_slope(p: Point, slope: Slope):
    """The unit-triangle point-slope answer through the world query: its ``EllipseParam``, or
    its case ``no_solution:<vertex>`` naming the vertex the slope aims at."""
    report = solve_point_slope(UNIT_TRIANGLE, p, slope)
    if not report.solutions:
        return report.case
    return report.solutions[0].param


def unit_image(tri: Triangle, p) -> Point:
    """(beta, gamma) of p's barycentrics on ``tri``: the unit point a world query solves at."""
    return Point(*barycentrics(tri, p)[0][1:])


def side_point(q, tri: Triangle = UNIT_TRIANGLE):
    """``(k, b)`` of a tangency point, the contact index and side barycentrics that the world
    query builds from q's barycentrics on ``tri`` after its side checks."""
    return world._side_point(tri, q, barycentrics(tri, q)[0])


def unit_tangency(q1, q2):
    """The ``EllipseParam`` of the unit-triangle tangency answer through the world query."""
    return solve_tangency(UNIT_TRIANGLE, q1, q2).solutions[0].param


def reference_world_solution(tri: Triangle, perspector, residuals) -> WorldSolution:
    """The world answer for a unit solution: the kernel's unit geometry for ``perspector``,
    the conic's pull-back along ``map_to_unit(tri)``, and the contacts and centre
    through :func:`unit_to_world`."""
    param, conic, contacts, center = unit_geometry(perspector)
    return WorldSolution(
        param,
        pull_back(conic, map_to_unit(tri)),
        tuple(Point(*unit_to_world(tri, c)) for c in contacts),
        Point(*unit_to_world(tri, center)),
        residuals,
    )


def unit_to_world(tri: Triangle, u) -> tuple[float, float]:
    """a + u.x (b - a) + u.y (c - a), written out apart from the package's maps."""
    a, b, c = tri.vertices
    return (
        a.x + u[0] * (b.x - a.x) + u[1] * (c.x - a.x),
        a.y + u[0] * (b.y - a.y) + u[1] * (c.y - a.y),
    )


def world_direction(tri: Triangle, s) -> Slope:
    """The world direction a (b - a) + b (c - a) of ``tri`` that the unit direction s = (a, b) stands for."""
    (a, b), ((ax, ay), (bx, by), (cx, cy)) = s, tri
    return Slope(a * (bx - ax) + b * (cx - ax), a * (by - ay) + b * (cy - ay))


def inverse_map(m: AffineMap) -> AffineMap:
    """The inverse affine map, from numpy's inverse of the homogeneous 3x3 matrix."""
    (i11, i12, tx), (i21, i22, ty), _ = np.linalg.inv([[m.m11, m.m12, m.tx], [m.m21, m.m22, m.ty], [0.0, 0.0, 1.0]])
    return AffineMap(float(i11), float(i12), float(i21), float(i22), float(tx), float(ty))
