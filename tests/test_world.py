"""World layer: transport of conics and centers from the unit triangle."""

import importlib.util
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from inellipse import world
from inellipse.affine import Triangle, UNIT_TRIANGLE, barycentrics
from inellipse.boundary import param_from_tangencies
from inellipse.errors import (
    AmbiguousClassification,
    CoincidentPoints,
    DegenerateTriangle,
    GeometryError,
    NotInterior,
    NotOnSide,
    VertexPoint,
)
from inellipse.conic import is_real_ellipse
from inellipse.geom import Point, Slope
from inellipse.kernel import unit_geometry
from inellipse.point_slope import residual_system13, solve_point_slope_unit
from inellipse.two_points import solve_two_points_unit
from inellipse.world import WorldSolution

from helpers import (
    j_zero_pair,
    pair_residuals,
    param_perspector,
    perspector_reference,
    point_slope_reference,
    random_generic_pair,
    random_interior,
    random_triangle,
    random_vertex_pair,
    reference_world_solution,
    side_point,
    slope_residuals,
    term_residual,
    unit_image,
    unit_to_world,
    VERTEX_POINTS,
    world_direction,
)

# Apex height 1e-6 over a unit base: the world conics of this triangle have a
# quadratic part whose determinant is ~1e-24 of its squared scale.
THIN = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1e-6))


def test_thin_triangle_two_points_solve_and_carry_exact_centers():
    rng = np.random.default_rng(4003)
    for _ in range(400):
        u1, u2 = random_interior(rng), random_interior(rng)
        if max(abs(u1.x - u2.x), abs(u1.y - u2.y)) < 1e-3:
            continue
        p1, p2 = (Point(*unit_to_world(THIN, u)) for u in (u1, u2))
        report = world.solve_two_points(THIN, p1, p2)
        assert len(report.solutions) in (2, 4)
        for sol in report.solutions:
            assert term_residual(sol.conic, p1) < 1e-9
            assert term_residual(sol.conic, p2) < 1e-9
            w, t = sol.param
            den = 2.0 * (w + (1.0 - w) * t)
            expected = unit_to_world(THIN, (t / den, w / den))
            assert sol.center == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "tri",
    [UNIT_TRIANGLE, Triangle(Point(1.0, 2.0), Point(7.0, 1.0), Point(3.0, 6.5)), THIN],
    ids=["unit", "box", "thin"],
)
def test_inscribed_conic_near_the_corner_is_solved(tri):
    # A slope 1e-6 (relative) off the slope towards the origin yields
    # (w, t) ~ 1e-13: an ellipse tucked into the corner, which exists and has
    # a unique center (test_every_inscribed_conic_has_a_unique_center).
    pytest.importorskip("mpmath")
    u = Point(0.3, 0.2)
    r = (2.0 / 3.0) * (1.0 + 1e-6)
    report = world.solve_point_slope(tri, Point(*unit_to_world(tri, u)), world_direction(tri, Slope.finite(r)))
    assert report.case == "unique"
    (sol,) = report.solutions
    assert is_real_ellipse(sol.conic)
    assert max(sol.residuals) < 1e-12
    for got, ref in zip(sol.param, point_slope_reference(u, r)):
        assert abs(got - ref) < 1e-9 * ref


def test_every_inscribed_conic_has_a_unique_center():
    # AB - C^2 > 0 on the whole open square, so world needs no centre check.  A, B
    # and C are polynomials of degree at most 2 in each of w and t, so AB - C^2 and
    # the factored form below, of degree at most 4 in each, are the same polynomial
    # once they agree on a 5 x 5 grid.  On the dyadic grid k/8 every perspector
    # component, sum and coefficient is exact, so the kernel's conic is compared
    # in exact rationals.
    grid = [Fraction(k, 8) for k in range(1, 8)]
    for w in grid:
        for t in grid:
            param, (a, b, c, _, _, _), _, _ = unit_geometry(param_perspector(float(w), float(t)))
            assert param == (w, t)
            det = Fraction(a) * Fraction(b) - Fraction(c) ** 2
            assert det == 4 * w**2 * t**2 * (1 - w) * (1 - t) * (w + t - w * t) > 0


def pixel_triangle(rng) -> Triangle:
    """Vertices uniform in [0, 1000]^2, redrawn while the area is under a pixel."""
    while True:
        a, b, c = (Point(*rng.uniform(0.0, 1000.0, size=2)) for _ in range(3))
        if abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)) >= 2.0:
            return Triangle(a, b, c)


SIDE_PAIRS = ((0, 1), (0, 2), (1, 2))


def side_point_of(tri: Triangle, side: int, s: float) -> Point:
    """The point s of the way along side ``side``, which runs from vertex side to side + 1."""
    a, b = tri[side], tri[(side + 1) % 3]
    return Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))


def transport_queries(family, rng, make_triangle):
    """(triangle, world report, the reference world solutions) per query.

    The references start from a separate unit solve of the query's unit image, (beta, gamma)
    of its barycentrics: its perspectors, freshly computed residuals, then
    :func:`reference_world_solution`.
    """
    if family == "two_points":
        pairs = [random_generic_pair(rng) for _ in range(4)] + [j_zero_pair(rng) for _ in range(4)]
        pairs += [random_vertex_pair(rng, v) for v in VERTEX_POINTS]
        for u1, u2 in pairs:
            tri = make_triangle()
            p1, p2 = Point(*unit_to_world(tri, u1)), Point(*unit_to_world(tri, u2))
            v1, v2 = unit_image(tri, p1), unit_image(tri, p2)
            params = [q for q, _ in solve_two_points_unit(v1, v2)[1]]
            unit = [(param_perspector(*q), pair_residuals(v1, v2, q)) for q in params]
            yield tri, world.solve_two_points(tri, p1, p2), unit
    elif family == "point_slope":
        for i in range(8):
            tri = make_triangle()
            u = random_interior(rng)
            s = Slope.vertical() if i % 4 == 0 else Slope.finite(np.tan(np.pi * (rng.random() - 0.5)))
            p, slope = Point(*unit_to_world(tri, u)), world_direction(tri, s)
            bary = barycentrics(tri, p)[0]
            v = Point(*bary[1:])
            _, q, v_slope = solve_point_slope_unit(tri, p, bary, slope)
            param = unit_geometry(q)[0]
            yield tri, world.solve_point_slope(tri, p, slope), [(q, slope_residuals(v, v_slope, param))]
    else:
        for i in range(9):
            tri = make_triangle()
            q1, q2 = (side_point_of(tri, side, 0.15 + 0.7 * rng.random()) for side in SIDE_PAIRS[i % 3])
            u1, u2 = unit_image(tri, q1), unit_image(tri, q2)
            s1, s2 = side_point(q1, tri), side_point(q2, tri)
            q = param_from_tangencies(s1, s2)
            contacts = unit_geometry(q)[2]
            residuals = tuple(
                max(abs(contacts[k][0] - u.x), abs(contacts[k][1] - u.y)) for (k, _), u in ((s1, u1), (s2, u2))
            )
            yield tri, world.solve_tangency(tri, q1, q2), [(q, residuals)]


@pytest.mark.parametrize("kind", ["unit", "box", "pixel"])
@pytest.mark.parametrize("family", ["two_points", "point_slope", "tangency"])
def test_solutions_equal_a_fresh_transport(family, kind):
    # One _to_world serves every family.  Every float of each world solution --
    # param, conic, contacts, centre and residuals -- must equal, by ==, the
    # reference built from a separate unit solve: the kernel's unit geometry for
    # its perspector, its conic's pull-back and unit_to_world.
    rng = np.random.default_rng({"unit": 4101, "box": 4102, "pixel": 4103}[kind])
    make_triangle = {
        "unit": lambda: UNIT_TRIANGLE,
        "box": lambda: random_triangle(rng),
        "pixel": lambda: pixel_triangle(rng),
    }[kind]
    cases = set()
    for tri, report, unit in transport_queries(family, rng, make_triangle):
        cases.add(report.case.split(":")[0])
        expected = tuple(reference_world_solution(tri, q, residuals) for q, residuals in unit)
        assert len(report.solutions) == len(expected) > 0
        for got, want in zip(report.solutions, expected):
            assert type(got) is WorldSolution
            assert got == want, (got, want)
    assert cases == {
        "two_points": {"generic_4", "generic_j_zero", "vertex_line"},
        "point_slope": {"unique"},
        "tangency": {"boundary_unique"},
    }[family]


@pytest.mark.parametrize("kind", ["unit", "box", "pixel"])
def test_two_point_and_point_slope_answers_match_the_perspector_reference(kind):
    # The 60-digit perspector reference works in world barycentrics, apart from the
    # unit map and the R/S route: every generic pair's four (w, t) agree with it to
    # 1e-10 (relative), and every point-slope (w, t) to within the kind's bound in ulp,
    # the worst case of these draws (the box one a slope near the origin's direction,
    # whose L_A cancels).  Through the unit map, the forms were up to 34 ulp off on box
    # and 69 on pixel triangles here.
    rng = np.random.default_rng({"unit": 4301, "box": 4302, "pixel": 4303}[kind])
    make_triangle = {
        "unit": lambda: UNIT_TRIANGLE,
        "box": lambda: random_triangle(rng),
        "pixel": lambda: pixel_triangle(rng),
    }[kind]
    slope_ulps = {"unit": 3, "box": 36, "pixel": 10}[kind]
    for _ in range(20):
        tri = make_triangle()
        p1, p2 = (Point(*unit_to_world(tri, u)) for u in random_generic_pair(rng))
        p = Point(*unit_to_world(tri, random_interior(rng)))
        slope = Slope.finite(np.tan(np.pi * (rng.random() - 0.5)))
        answers = (
            ([s.param for s in world.solve_two_points(tri, p1, p2).solutions], ("two_points", p1, p2)),
            ([s.param for s in world.solve_point_slope(tri, p, slope).solutions], ("point_slope", p, slope)),
        )
        for got, query in answers:
            want = perspector_reference(tri, *query)
            assert len(got) == len(want) == (4 if query[0] == "two_points" else 1)
            for param, ref in zip(sorted(got, key=lambda wt: (wt[1], wt[0])), want):
                for g, r in zip(param, ref):
                    if query[0] == "two_points":
                        assert abs(g - r) <= 1e-10 * r, (query, param, ref)
                    else:
                        assert abs(g - r) <= slope_ulps * math.ulp(r), (query, param, ref)


def kernel_perspectors(tri: Triangle, family: str, *query) -> list:
    """The perspectors a world query hands the kernel, from its unit steps rerun on the inputs' barycentrics."""
    if family == "two_points":
        return [param_perspector(*q) for q, _ in solve_two_points_unit(*(unit_image(tri, p) for p in query))[1]]
    if family == "point_slope":
        return [solve_point_slope_unit(tri, query[0], barycentrics(tri, query[0])[0], query[1])[1]]
    return [param_from_tangencies(*(side_point(q, tri) for q in query))]


@pytest.mark.parametrize("kind", ["unit", "box", "pixel"])
def test_near_vertex_contacts_meet_the_prescribed_points(kind):
    # Two tangency points on different sides, each 2e-8 to 1e-3 of its side (log-uniform)
    # from either end; the legs' vertex exclusion is 1e-8.  Each answer's contact on a
    # prescribed point's side is that point, to 1e-12 of the coordinate scale (the contacts
    # once missed by up to 1.6e-8, written from a rounded (w, t)), and on every fourth
    # draw (w, t) is within the kind's bound of the 60-digit perspector reference: the
    # worst case of these draws, where the side coordinates come from the point's own
    # barycentrics (through the unit map, 1.4e8 ulp on box and 7.2e9 on pixel triangles).
    rng = np.random.default_rng(5)
    make_triangle = {
        "unit": lambda: UNIT_TRIANGLE,
        "box": lambda: random_triangle(rng),
        "pixel": lambda: pixel_triangle(rng),
    }[kind]
    worst = 0.0
    for i in range(2000):
        tri = make_triangle()
        scale = max(abs(v) for p in tri for v in p)
        sides = SIDE_PAIRS[i % 3]
        offsets = 10.0 ** rng.uniform(math.log10(2e-8), -3.0, size=2)
        qs = [side_point_of(tri, side, s if rng.random() < 0.5 else 1.0 - s) for side, s in zip(sides, offsets)]
        (sol,) = world.solve_tangency(tri, *qs).solutions
        for side, q in zip(sides, qs):
            contact = sol.tangent_points[(0, 2, 1)[side]]  # sides AB, BC, CA carry contacts 0, 2, 1
            worst = max(worst, max(abs(contact.x - q.x), abs(contact.y - q.y)) / scale)
        if i % 4 == 0:
            (ref,) = perspector_reference(tri, "tangency", *qs)
            for got, want in zip(sol.param, ref):
                assert abs(got - want) <= {"unit": 4, "box": 4, "pixel": 72}[kind] * math.ulp(want), (qs, sol.param, ref)
    assert worst <= 1e-12


def exact_vertex_combination(tri: Triangle, u) -> tuple[Fraction, Fraction]:
    """a + x (b - a) + y (c - a) in exact rationals, for the float unit point u = (x, y)."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(p.x), Fraction(p.y)) for p in tri)
    x, y = Fraction(u[0]), Fraction(u[1])
    return ax + x * (bx - ax) + y * (cx - ax), ay + x * (by - ay) + y * (cy - ay)


@pytest.mark.parametrize("kind", ["box", "pixel", "thin"])
def test_contacts_and_centers_match_the_exact_vertex_combination(kind):
    # Every world contact and centre sits within 2e-15 of the coordinate scale
    # from the exact image of the unit point the kernel returned.
    rng = np.random.default_rng({"box": 4201, "pixel": 4202, "thin": 4203}[kind])
    make_triangle = {
        "box": lambda: random_triangle(rng),
        "pixel": lambda: pixel_triangle(rng),
        "thin": lambda: THIN,
    }[kind]
    worst, checked = 0.0, 0
    for i in range(200):
        tri = make_triangle()
        scale = max(abs(v) for p in tri for v in p)
        p1, p2 = (Point(*unit_to_world(tri, u)) for u in random_generic_pair(rng))
        p, q = (Point(*unit_to_world(tri, random_interior(rng))) for _ in range(2))
        q1, q2 = (side_point_of(tri, side, 0.15 + 0.7 * rng.random()) for side in SIDE_PAIRS[i % 3])
        queries = (
            ("two_points", p1, p2),
            ("point_slope", p, Slope.finite((q.y - p.y) / (q.x - p.x))),
            ("tangency", q1, q2),
        )
        for family, *query in queries:
            report = getattr(world, f"solve_{family}")(tri, *query)
            for sol, perspector in zip(report.solutions, kernel_perspectors(tri, family, *query), strict=True):
                _, _, contacts, center = unit_geometry(perspector)
                units = (*contacts, center)
                for got, u in zip((*sol.tangent_points, sol.center), units):
                    exact = exact_vertex_combination(tri, u)
                    worst = max(worst, max(float(abs(Fraction(g) - e)) for g, e in zip(got, exact)) / scale)
                    checked += 1
    assert checked == 200 * (4 + 1 + 1) * 4  # every query solved, generic pairs to 4 ellipses
    assert worst <= 2e-15


def load_workload_gen():
    """The benchmark's seeded query generators, bench/workload_gen.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workload_gen.py"
    spec = importlib.util.spec_from_file_location("workload_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(solve):
    """``repr`` of what ``solve()`` returns, or the type and message of the error it raises."""
    try:
        return repr(solve())
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"


def unit_two_points(p1, p2):
    # Each kept (w, t) reaches the kernel as its perspector, which writes the reported (w, t).
    case, kept = solve_two_points_unit(p1, p2)
    return case, [(unit_geometry(param_perspector(*q))[0], r) for q, r in kept]


def unit_point_slope(p, slope):
    # The kernel writes the answer's (w, t) from the unit step's perspector.
    case, perspector, direction = solve_point_slope_unit(UNIT_TRIANGLE, p, barycentrics(UNIT_TRIANGLE, p)[0], slope)
    if perspector is None:
        return case, []
    param = unit_geometry(perspector)[0]
    return case, [(param, residual_system13(p, direction, param))]


def world_answer(report, residuals=True):
    return report.case, [(s.param, s.residuals) if residuals else s.param for s in report.solutions]


@pytest.mark.parametrize("family", ["two_points", "point_slope", "tangency"])
def test_unit_solvers_agree_with_the_world_path_on_the_unit_triangle(family):
    # The unit solvers return parameters; the answers come from world, whose map of
    # UNIT_TRIANGLE is the identity.  On the benchmark's seeded unit-triangle queries,
    # every class of each family, the world answer carries the unit solver's params
    # and residuals (params only, for tangency), repr for repr, or raises the same error.
    gen = load_workload_gen()
    rng = random.Random({"two_points": 5, "point_slope": 6, "tangency": 7}[family])
    classes = {
        "two_points": ("generic", "j_zero", "vertex_line", "near_vertex_line"),
        "point_slope": ("finite", "vertical", "excluded", "near_excluded"),
        "tangency": ("any",),
    }[family]
    make = {"two_points": gen.pair_query, "point_slope": gen.slope_query, "tangency": gen.tangency_query}[family]
    for i in range(1200):
        q = make(rng, classes[i % len(classes)], "unit", i // len(classes), rng.random())
        if family == "two_points":
            p1, p2 = Point(*q["p1"]), Point(*q["p2"])
            unit = outcome(lambda: unit_two_points(p1, p2))
            answer = outcome(lambda: world_answer(world.solve_two_points(UNIT_TRIANGLE, p1, p2)))
        elif family == "point_slope":
            p = Point(*q["p"])
            slope = Slope.vertical() if q["slope"] == "vertical" else Slope.finite(q["slope"])
            unit = outcome(lambda: unit_point_slope(p, slope))
            answer = outcome(lambda: world_answer(world.solve_point_slope(UNIT_TRIANGLE, p, slope)))
        else:
            q1, q2 = Point(*q["p1"]), Point(*q["p2"])
            unit = outcome(
                lambda: ("boundary_unique", [unit_geometry(param_from_tangencies(side_point(q1), side_point(q2)))[0]])
            )
            answer = outcome(lambda: world_answer(world.solve_tangency(UNIT_TRIANGLE, q1, q2), residuals=False))
        assert answer == unit


# The world queries check the caller's values, and their domains on the barycentrics, once.
TINY = Triangle(Point(0.0, 0.0), Point(1e-3, 0.0), Point(0.0, 1e-3))
QUERIES = {
    "two_points": lambda tri, p: world.solve_two_points(tri, p, Point(2e-4, 3e-4)),
    "point_slope": lambda tri, p: world.solve_point_slope(tri, p, Slope.finite(1.0)),
    "tangency": lambda tri, p: world.solve_tangency(tri, p, Point(5e-4, 0.0)),
}


@pytest.mark.parametrize(
    "family, error", [("two_points", NotInterior), ("point_slope", NotInterior), ("tangency", NotOnSide)]
)
def test_a_finite_point_whose_unit_image_overflows_is_refused_by_its_domain(family, error):
    # (1e308, 1e308) is finite; only its image under TINY's unit map is not.
    with pytest.raises(error):
        QUERIES[family](TINY, Point(1e308, 1e308))


@pytest.mark.parametrize(
    "query, error, message",
    [
        (QUERIES["two_points"], NotInterior, "point (1e+308, 1e+308) is not interior to the triangle"),
        (QUERIES["point_slope"], NotInterior, "point (1e+308, 1e+308) is not interior to the triangle"),
        (QUERIES["tangency"], NotOnSide, "(1e+308, 1e+308) does not lie on exactly one open side"),
        (lambda tri, p: world.solve_two_points(tri, Point(2e-4, 3e-4), Point(2e-4, 3e-4)), CoincidentPoints,
         "points (0.0002, 0.0003) and (0.0002, 0.0003) coincide"),
        (lambda tri, p: world.solve_tangency(tri, Point(5e-4, 0.0), Point(2e-3, 0.0)), NotOnSide,
         "(0.002, 0.0) lies outside its side segment"),
        (lambda tri, p: world.solve_tangency(tri, Point(5e-4, 0.0), Point(1e-3, 0.0)), VertexPoint,
         "(0.001, 0.0) coincides with triangle vertex (0.001, 0.0)"),
        (lambda tri, p: world.solve_two_points(tri, Point(2.5e-4, 2.5e-4), Point(2.5e-4 + 1e-15, 2.5e-4 + 1e-15)),
         AmbiguousClassification,
         "points (0.00025, 0.00025), (0.000250000000001, 0.000250000000001) sit on 3 vertex lines at once"),
    ],
    ids=["two_points", "point_slope", "tangency", "coincident", "off_segment", "vertex", "ambiguous"],
)
def test_a_domain_error_names_the_callers_values(query, error, message):
    # The domain tests see the unit images (beta, gamma), here about (inf, inf), (0.2, 0.3),
    # (2.0, 0.0), (1.0, 0.0) and (0.25, 0.25); the error names the points and vertices as
    # passed, and no message is rewritten on the way.
    with pytest.raises(error) as raised:
        query(TINY, Point(1e308, 1e308))
    assert str(raised.value) == message


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 1.0)], ids=["zero", "nan", "inf"])
def test_a_slope_that_is_no_direction_raises_value_error(a, b):
    # The slope is checked before the point's domain: an exterior point raises the same error.
    for p in (Point(0.3, 0.3), Point(0.9, 0.9)):
        with pytest.raises(ValueError, match="direction of two finite numbers, not both zero"):
            world.solve_point_slope(UNIT_TRIANGLE, p, Slope(a, b))


@pytest.mark.parametrize(
    "slope",
    [b"ab", bytearray(b"ab"), memoryview(b"ab"), type("Bytes", (bytes,), {})(b"ab"), "ab", 0.5, (1.0, 2.0, 3.0)],
    ids=["bytes", "bytearray", "memoryview", "bytes_subclass", "string", "float", "three"],
)
def test_a_slope_that_as_point_refuses_raises_value_error(slope):
    # Bytes unpack into their byte values: b"ab" would read as the direction (97, 98).
    with pytest.raises(ValueError, match="direction of two finite numbers, not both zero"):
        world.solve_point_slope(UNIT_TRIANGLE, Point(0.25, 0.125), slope)


def test_a_slope_of_two_numbers_is_its_float_direction():
    assert world.solve_point_slope(UNIT_TRIANGLE, Point(0.5, 0.25), (1, 2)) == world.solve_point_slope(
        UNIT_TRIANGLE, Point(0.5, 0.25), Slope.finite(2.0)
    )


@pytest.mark.parametrize("family", sorted(QUERIES))
def test_a_raw_triangle_is_checked_as_a_triangle(family):
    query = QUERIES[family]
    with pytest.raises(DegenerateTriangle):
        query(((0, 0), (1, 0), (2, 0)), Point(0.3, 0.0))
    # The error names the vertex as the caller wrote it.
    with pytest.raises(ValueError, match=r"got \(0, nan\)"):
        query(((0, 0), (1, 0), (0, math.nan)), Point(0.3, 0.0))
    p = Point(0.0, 3e-4) if family == "tangency" else Point(3e-4, 1e-4)
    assert query(((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3)), p) == query(TINY, p)


@pytest.mark.parametrize(
    "vertices, slope, case",
    [
        ([[0, 0], [4, 0], [2, 3]], Slope.vertical(), "no_solution:top"),
        ([[0, 0], [4, 1], [1, 3]], Slope.finite(0.0), "no_solution:right"),
    ],
    ids=["vertical_at_top", "flat_at_right"],
)
def test_a_slope_aimed_exactly_at_a_vertex_has_no_solution(vertices, slope, case):
    # From p = (2, 1) the slope aims exactly at the vertex: L_V and both of its terms are 0
    # in the caller's frame, so the band's <= excludes it (a strict < would solve it).
    assert world.solve_point_slope(vertices, Point(2.0, 1.0), slope) == (case, ())


def test_a_slope_off_a_vertex_straight_above_is_solved():
    # The direction (1, 1e300) misses the top vertex (2, 3) above p = (2, 1): L_top is its
    # term a (3 - 1), tiny but nonzero, and its other term b (2 - 2) is 0, so it is all of
    # the band's measure and far outside the band.  The unique ellipse is returned, tucked
    # against the edge (through the unit map, the query was excluded as aiming at the top).
    (sol,) = world.solve_point_slope([[0, 0], [4, 0], [2, 3]], Point(2.0, 1.0), Slope.finite(1e300)).solutions
    assert all(0.0 < v < 1.0 for v in sol.param)


def test_a_pixel_triangle_slope_5e8_off_a_vertex_direction_is_solved():
    # The benchmark's slope_tangency seed 0, block 14 query: its world slope is 5.5e-8 of
    # its terms off the top vertex's direction, outside the band 1e-9 (|r| + |v|), so one
    # ellipse exists.  The band, applied to the slope's unit image, read it as excluded.
    tri = [[360.2177792456809, 434.03787348731015], [69.38492244175765, 208.69957399172023],
           [105.33015846044313, 248.17898447136577]]
    p = Point(113.18865002393092, 245.06799618789418)
    report = world.solve_point_slope(tri, p, Slope.finite(-0.39587596628387595))
    assert report.case == "unique"
    (sol,) = report.solutions
    assert all(0.0 < v < 1.0 for v in sol.param)
    assert term_residual(sol.conic, p) < 1e-9
