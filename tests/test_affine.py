"""Affine conjugation: maps, the caller-frame slope, and invariance of the solvers."""

import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from inellipse.affine import (
    _COLLINEAR_BAND,
    AffineMap,
    Triangle,
    UNIT_TRIANGLE,
    apply_point,
    barycentrics,
    map_to_unit,
)
from inellipse.conic import ConicCoeffs, pull_back
from inellipse.errors import DegenerateTriangle
from inellipse.geom import Point, Slope, as_point
from inellipse.kernel import (
    EllipseParam,
    PairInvariants,
    QuadraticPoly,
    pair_invariants,
    poly_q,
    poly_R,
    poly_S,
)
from inellipse.oracle import verify_inscribed
from inellipse.two_points import solve_two_points_unit
from inellipse.world import SolveReport, WorldSolution, solve_point_slope, solve_two_points

from helpers import (
    conic_gradient,
    geometry_at,
    interior_in_triangle,
    inverse_map,
    random_generic_pair,
    random_param,
    random_triangle,
    same_conic,
    unit_point_slope,
    unit_tangency,
    unit_to_world,
)


def _angle(s: Slope) -> float:
    return math.pi / 2 if s.value is None else math.atan(s.value)


def slopes_close(a: Slope, b: Slope, tol=1e-8) -> bool:
    d = abs(_angle(a) - _angle(b)) % math.pi
    return min(d, math.pi - d) < tol


class TestMapToUnit:
    def test_unit_triangle_gives_identity(self):
        m = map_to_unit(UNIT_TRIANGLE)
        assert (m.m11, m.m12, m.m21, m.m22, m.tx, m.ty) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def test_doubled_triangle(self):
        m = map_to_unit(Triangle(Point(0, 0), Point(2, 0), Point(0, 2)))
        assert (m.m11, m.m12, m.m21, m.m22) == (0.5, 0.0, 0.0, 0.5)

    def test_general_triangle_sends_vertices(self):
        tri = Triangle(Point(1, 1), Point(4, 2), Point(2, 5))
        m = map_to_unit(tri)
        assert apply_point(m, tri.a) == pytest.approx((0.0, 0.0), abs=1e-14)
        assert apply_point(m, tri.b) == pytest.approx((1.0, 0.0), abs=1e-14)
        assert apply_point(m, tri.c) == pytest.approx((0.0, 1.0), abs=1e-14)

    def test_degenerate_triangle(self):
        with pytest.raises(DegenerateTriangle):
            Triangle(Point(0, 0), Point(1, 1), Point(2, 2))

    @pytest.mark.parametrize(
        "vertices",
        [((s, s), (s + 1.0, s), (s, s + 1.0)) for s in (1e6, 1e7, 8e7)]
        + [((0.0, 0.0), (1.0, 0.0), (0.5, 1e-6))],
        ids=["unit+1e6", "unit+1e7", "unit+8e7", "thin"],
    )
    def test_far_or_thin_triangle_is_not_collinear(self, vertices):
        tri = Triangle(*(Point(*v) for v in vertices))
        m = map_to_unit(tri)
        assert apply_point(m, tri.a) == pytest.approx((0.0, 0.0), abs=1e-9)
        assert apply_point(m, tri.b) == pytest.approx((1.0, 0.0), abs=1e-9)
        assert apply_point(m, tri.c) == pytest.approx((0.0, 1.0), abs=1e-9)


class TestTriangleInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_non_finite_vertex_raises_value_error(self, index, bad):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        vertices[index][index % 2] = bad
        with pytest.raises(ValueError, match="finite") as info:
            Triangle(*vertices)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "call", [lambda: as_point((10**400, 0.1)), lambda: Slope.finite(10**400)], ids=["as_point", "slope"]
    )
    def test_integer_beyond_the_float_range_raises_value_error(self, call):
        with pytest.raises(ValueError, match="too large for a float") as info:
            call()
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "vertices",
        [[[1e200, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1e300, 1e300], [-1e300, 1e300]]],
        ids=["far_vertex", "far_apart"],
    )
    def test_squared_edges_beyond_the_float_range_raise_value_error(self, vertices):
        with pytest.raises(ValueError, match="overflow") as info:
            Triangle(*vertices)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "vertices",
        [
            [[0.0, 0.0], [1e-160, 0.0], [0.0, 1e-160]],
            [[0.0, 0.0], [1e-156, 0.0], [0.0, 1e-156]],
            # Its longest squared edge, 1e-290, is a normal float.
            [[0.0, 0.0], [1e-145, 0.0], [3e-146, 1e-156]],
        ]
        # Twice the area and the longest squared edge underflow to 0.0 here: the
        # triangle is tested at a larger size, so it is not called collinear.
        + [[[0.0, 0.0], [s, 0.0], [0.0, s]] for s in (1e-162, 1e-170, 1e-200, 1e-300)],
        ids=["scaled_1e-160", "scaled_1e-156", "thin", "scaled_1e-162", "scaled_1e-170", "scaled_1e-200", "scaled_1e-300"],
    )
    def test_map_scale_beyond_the_float_range_raises_value_error(self, vertices):
        with pytest.raises(ValueError, match="squared scale of the map to the unit triangle") as info:
            Triangle(*vertices)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "vertices",
        [[[0.0, 0.0], [1e-200, 0.0], [2e-200, 0.0]], [[0.0, 0.0]] * 3, [[0.5, 0.25]] * 3, [[1e-300, 2e-300]] * 3],
        ids=["tiny_collinear", "equal_at_origin", "equal", "equal_tiny"],
    )
    def test_tiny_or_equal_collinear_vertices_raise_degenerate_triangle(self, vertices):
        with pytest.raises(DegenerateTriangle, match="collinear"):
            Triangle(*vertices)

    @pytest.mark.parametrize(
        "coords, match",
        [
            ([1.0, 2.0, 3.0], "values to unpack"),
            ([1.0], "values to unpack"),
            ([], "values to unpack"),
            ("10", "must be numbers"),
            ({"1": 0, "2": 0}, "must be numbers"),
            (["0.25", "0.125"], "must be numbers"),
            ([0.25, "0.125"], "must be numbers"),
            ([b"1", b"0"], "must be numbers"),
            ([None, 0.5], "must be numbers"),
            # Bytes unpack into their byte values: b"10" would read as (49, 48).
            (b"10", "must be numbers"),
            (bytearray(b"10"), "must be numbers"),
            (memoryview(b"10"), "must be numbers"),
            (type("Bytes", (bytes,), {})(b"10"), "must be numbers"),
        ],
        ids=[
            "three", "one", "none", "string", "string_keys", "strings", "one_string", "bytes", "none_coordinate",
            "bytes_object", "bytearray", "memoryview", "bytes_subclass",
        ],
    )
    def test_other_than_two_coordinates_raise_value_error(self, coords, match):
        with pytest.raises(ValueError, match=match):
            as_point(coords)
        with pytest.raises(ValueError, match=match):
            Triangle(coords, [1.0, 0.0], [0.0, 1.0])

    def test_string_points_raise_value_error_on_the_two_point_query(self):
        with pytest.raises(ValueError, match="must be numbers"):
            solve_two_points(UNIT_TRIANGLE, ["0.25", "0.125"], (0.5, 1 / 6))

    @pytest.mark.parametrize(
        "coords",
        [(1, 2), (True, 0), (np.float64(0.5), np.float32(0.25)), (np.int64(3), 4), (Fraction(1, 3), Decimal("0.5"))],
        ids=["ints", "bool", "numpy_floats", "numpy_int", "fraction_decimal"],
    )
    def test_numbers_and_numpy_scalars_pass(self, coords):
        p = as_point(coords)
        assert type(p) is Point and type(p.x) is float and type(p.y) is float
        assert p == tuple(float(v) for v in coords)

    @pytest.mark.parametrize(
        "vertices",
        [[[0.0, 0.0], [1e-154, 0.0], [0.0, 1e-154]], [[0.0, 0.0], [1e-140, 0.0], [3e-141, 1e-150]]],
        ids=["scaled_1e-154", "thin"],
    )
    def test_tiny_triangle_inside_the_map_bound_solves(self, vertices):
        # 25 seeded interior pairs: 100 world conics, each finite and certified.
        tri = Triangle(*vertices)
        (ax, ay), (bx, by), (cx, cy) = tri
        rng = random.Random(7)
        conics = []
        for _ in range(25):
            pair = []
            while len(pair) < 2:
                x, y = rng.random(), rng.random()
                if x + y < 1.0:
                    pair.append((ax + x * (bx - ax) + y * (cx - ax), ay + x * (by - ay) + y * (cy - ay)))
            conics += [s.conic for s in solve_two_points(tri, *pair).solutions]
        assert len(conics) == 100
        assert all(math.isfinite(v) for conic in conics for v in conic)
        assert all(verify_inscribed(conic, tri).passed for conic in conics)

    def test_world_conics_stay_finite_up_to_the_map_bound(self):
        # Random triangles scaled so that the larger column 1-norm of the unit map
        # sits just below (accepted) or just above (refused) the square root of
        # the largest float.  Under the bound, every world conic is finite.
        rng = random.Random(11)
        root_max = math.sqrt(sys.float_info.max)
        accepted = refused = 0
        while accepted < 150:
            (ax, ay), (bx, by), (cx, cy) = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
            area2 = ux * vy - vx * uy
            if abs(area2) < 0.05:
                continue
            norm = max(abs(uy) + abs(vy), abs(ux) + abs(vx)) / abs(area2)
            inside = rng.random() < 0.75
            k = norm / (root_max * (rng.uniform(0.5, 0.999) if inside else rng.uniform(1.001, 2.0)))
            vertices = [(ax * k, ay * k), (bx * k, by * k), (cx * k, cy * k)]
            if not inside:
                with pytest.raises(ValueError, match="squared scale"):
                    Triangle(*vertices)
                refused += 1
                continue
            tri = Triangle(*vertices)
            pair = []
            while len(pair) < 2:
                x, y = rng.random(), rng.random()
                if x + y < 1.0:
                    pair.append(((ax + x * ux + y * vx) * k, (ay + x * uy + y * vy) * k))
            report = solve_two_points(tri, *pair)
            assert all(math.isfinite(v) for s in report.solutions for v in s.conic)
            accepted += 1
        assert refused > 20

    @pytest.mark.parametrize("kind", ["box", "pixel"])
    def test_near_collinear_verdict_follows_the_exact_relative_height(self, kind):
        # The apex sits at relative height 0.95 or 1.05 band off the base line;
        # the verdict must match twice the exact area over the exact longest
        # squared edge of the float vertices.
        rng = np.random.default_rng(101 if kind == "box" else 102)
        lo, hi, min_edge = (-3.0, 3.0, 1.0) if kind == "box" else (0.0, 1000.0, 100.0)
        band = Fraction(_COLLINEAR_BAND)
        verdicts = []
        while len(verdicts) < 400:
            a, b = rng.uniform(lo, hi, size=2), rng.uniform(lo, hi, size=2)
            ux, uy = b - a
            if math.hypot(ux, uy) < min_edge:
                continue
            s = rng.uniform(0.2, 0.8)
            k = _COLLINEAR_BAND * rng.choice([0.95, 1.05]) * rng.choice([-1.0, 1.0])
            c = (float(a[0] + s * ux - k * uy), float(a[1] + s * uy + k * ux))
            (ax, ay), (bx, by), (cx, cy) = (tuple(map(Fraction, v)) for v in (a, b, c))
            area2 = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
            longest2 = max((bx - ax) ** 2 + (by - ay) ** 2, (cx - ax) ** 2 + (cy - ay) ** 2,
                           (cx - bx) ** 2 + (cy - by) ** 2)
            height = abs(area2) / longest2 / band
            assert abs(height - 1) > Fraction(1, 100)
            accepted = height > 1
            if accepted:
                assert Triangle(a, b, c).c == Point(*c)
            else:
                with pytest.raises(DegenerateTriangle):
                    Triangle(a, b, c)
            verdicts.append(accepted)
        assert 150 < sum(verdicts) < 250


class TestPointMaps:
    def test_identity_and_scale(self):
        ident = AffineMap(1.0, 0.0, 0.0, 1.0)
        assert apply_point(ident, Point(0.3, 0.4)) == (0.3, 0.4)
        half = AffineMap(0.5, 0.0, 0.0, 0.5)
        assert apply_point(half, Point(1.0, 1.0)) == (0.5, 0.5)


def exact_barycentrics(tri: Triangle, p) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) of p on tri in exact rationals, from orientation determinants."""
    a, b, c = (tuple(map(Fraction, v)) for v in tri)
    q = tuple(map(Fraction, p))

    def orient(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (w[0] - u[0]) * (v[1] - u[1])

    k = orient(a, b, c)
    return orient(q, b, c) / k, orient(a, q, c) / k, orient(a, b, q) / k


class TestBarycentrics:
    def test_unit_triangle_image_is_the_point_bit_for_bit(self):
        rng = random.Random(3)
        for _ in range(2000):
            p = Point(rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-300, 0), rng.uniform(-2.0, 2.0))
            alpha, beta, gamma = barycentrics(UNIT_TRIANGLE, p)[0]
            assert (beta, gamma) == p and alpha == pytest.approx(1.0 - p.x - p.y, abs=1e-15)

    def test_one_area_serves_every_point(self):
        tri = Triangle(Point(1.0, 2.0), Point(7.0, 1.0), Point(3.0, 6.5))
        points = [Point(3.0, 3.0), Point(4.0, 3.2), Point(5.0, 3.75)]
        assert barycentrics(tri, *points) == [barycentrics(tri, p)[0] for p in points]
        assert barycentrics(tri) == []

    def test_a_point_near_a_vertex_keeps_its_small_coordinates(self):
        # A point 1e-12 to 1e-2 of the way from a vertex into the triangle: each coordinate,
        # the two small ones included, is within 1e-12 (relative) of its exact value, which
        # the unit map's image misses by up to 4e-2 (its translation rounds at the vertices'
        # scale).
        rng = np.random.default_rng(11)
        for i in range(1000):
            tri = random_triangle(rng)
            q = interior_in_triangle(rng, tri)
            v, s = tri[i % 3], 10.0 ** rng.uniform(-12.0, -2.0)
            p = Point(v.x + s * (q.x - v.x), v.y + s * (q.y - v.y))
            for got, want in zip(barycentrics(tri, p)[0], exact_barycentrics(tri, p)):
                assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want), (tri, p)

    @pytest.mark.parametrize(
        "vertices",
        [[[0.0, 0.0], [1e-154, 0.0], [0.0, 1e-154]], [[0.0, 0.0], [1e-140, 0.0], [3e-141, 1e-150]]],
        ids=["scaled_1e-154", "thin"],
    )
    def test_a_tiny_triangle_keeps_the_near_vertex_bits(self, vertices):
        # On scaled_1e-154 twice the area is 1e-308, so an edge's cross product with a point
        # 1e-16 to 1e-2 of the way from a vertex would be subnormal or 0 at the triangle's own
        # scale; thin is as small, not as square.  Each coordinate must be within 1e-12
        # (relative) of its exact value.
        tri = Triangle(*vertices)
        rng = np.random.default_rng(17)
        for i in range(300):
            q = interior_in_triangle(rng, tri)
            v, s = tri[i % 3], 10.0 ** rng.uniform(-16.0, -2.0)
            p = Point(v.x + s * (q.x - v.x), v.y + s * (q.y - v.y))
            for got, want in zip(barycentrics(tri, p)[0], exact_barycentrics(tri, p)):
                assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want), (tri, p)


BOX = Triangle((1.0, 2.0), (7.0, 1.0), (3.0, 6.5))


class TestSlopeTransport:
    # No slope goes through a map: a world query's answer is the unit answer of its
    # point's and slope's unit images, and its conic attains the world slope.
    def test_x_stretch_halves_slope(self):
        # This triangle's unit map is (x, y) -> (2x, y).
        squeezed = Triangle((0.0, 0.0), (0.5, 0.0), (0.0, 1.0))
        got = solve_point_slope(squeezed, Point(0.15, 0.2), Slope.finite(3.0)).solutions[0].param
        assert tuple(got) == pytest.approx(tuple(unit_point_slope(Point(0.3, 0.2), Slope.finite(1.5))), rel=1e-14)

    def test_rotation_sends_flat_to_vertical(self):
        # This triangle's unit map is the quarter turn (x, y) -> (-y, x).
        turned = Triangle((0.0, 0.0), (0.0, -1.0), (1.0, 0.0))
        got = solve_point_slope(turned, Point(0.2, -0.3), Slope.finite(0.0)).solutions[0].param
        assert tuple(got) == pytest.approx(tuple(unit_point_slope(Point(0.3, 0.2), Slope.vertical())), rel=1e-14)

    @pytest.mark.parametrize("r", [1.5e308, -1.5e308, 1e300])
    def test_steep_slope_through_an_expanding_map_stays_finite(self, r):
        # 2 r overflows for the larger r: (a, b) is scaled below 1 first, so every form
        # stays finite and the answer is that of a nearly vertical slope.
        half = Triangle((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))
        for tri, p in ((half, Point(0.1, 0.15)), (BOX, Point(3.5, 3.0))):
            got = solve_point_slope(tri, p, Slope.finite(r)).solutions[0].param
            want = solve_point_slope(tri, p, Slope.vertical()).solutions[0].param
            assert tuple(got) == pytest.approx(tuple(want), rel=1e-12)

    @pytest.mark.parametrize("tiny", [5e-324, 1e-320, 1e-310])
    def test_subnormal_direction_keeps_its_bits(self, tiny):
        # (a, b) is scaled to max(|a|, |b|) in [1/2, 1) before any form: a subnormal
        # direction answers as its normal multiple would, and 2^-1074 as (1, 1) does.
        for tri, p in ((UNIT_TRIANGLE, Point(0.3, 0.2)), (BOX, Point(3.0, 3.0))):
            got = solve_point_slope(tri, p, Slope(tiny, tiny)).solutions[0].param
            want = solve_point_slope(tri, p, Slope(1.0, 1.0)).solutions[0].param
            if tiny == 5e-324:
                assert got == want
            for g, v in zip(got, want):
                assert abs(g - v) <= 4 * math.ulp(v)

    def test_covariance_with_conic_transport(self):
        # The world conic of a world point-slope answer has the world slope at the point.
        rng = np.random.default_rng(82)
        for _ in range(40):
            tri = random_triangle(rng)
            p = interior_in_triangle(rng, tri)
            r = math.tan(math.pi * (rng.random() - 0.5))
            (sol,) = solve_point_slope(tri, p, Slope.finite(r)).solutions
            qx, qy = conic_gradient(sol.conic, p)
            assert slopes_close(Slope(-qy, qx), Slope.finite(r))


class TestSolverInvariance:
    def test_transported_family_is_inscribed(self):
        rng = np.random.default_rng(84)
        for _ in range(25):
            tri = random_triangle(rng)
            world_conic = pull_back(geometry_at(*random_param(rng))[0], map_to_unit(tri))
            assert verify_inscribed(world_conic, tri).passed

    def test_world_count_matches_unit_count(self):
        rng = np.random.default_rng(86)
        from inellipse.two_points import solve_two_points_unit

        for _ in range(10):
            tri = random_triangle(rng)
            u1, u2 = random_generic_pair(rng)
            w1, w2 = unit_to_world(tri, u1), unit_to_world(tri, u2)
            report = solve_two_points(tri, w1, w2)
            _, unit_sols = solve_two_points_unit(u1, u2)
            assert len(report.solutions) == len(unit_sols) == 4

    def test_world_tangency_reproduces_prescribed_contacts(self):
        from inellipse.world import solve_tangency

        rng = np.random.default_rng(87)
        for _ in range(10):
            tri = random_triangle(rng)
            a, b, c = tri.vertices
            u, v = 0.15 + 0.7 * rng.random(2)
            q1 = Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
            q2 = Point(b.x + v * (c.x - b.x), b.y + v * (c.y - b.y))
            report = solve_tangency(tri, q1, q2)
            assert report.case == "boundary_unique"
            sol = report.solutions[0]
            assert verify_inscribed(sol.conic, tri).passed
            produced = sol.tangent_points
            for q in (q1, q2):
                assert min(math.dist(q, p) for p in produced) < 1e-9

    def test_vertex_relabeling_preserves_conics(self):
        rng = np.random.default_rng(88)
        tri = random_triangle(rng)
        p1 = interior_in_triangle(rng, tri)
        p2 = interior_in_triangle(rng, tri)
        base = solve_two_points(tri, p1, p2)
        relabeled = Triangle(tri.b, tri.c, tri.a)
        other = solve_two_points(relabeled, p1, p2)
        assert len(base.solutions) == len(other.solutions)
        for sol in base.solutions:
            assert any(
                same_conic(sol.conic, cand.conic, rtol=1e-7)
                for cand in other.solutions
            )


def _records():
    """One instance of each result and value record, built by the code that returns it."""
    p1, p2 = Point(0.25, 0.125), Point(0.5, 0.1667)
    report = solve_two_points(UNIT_TRIANGLE, p1, p2)
    certificate = verify_inscribed(report.solutions[0].conic)
    return {
        "PairInvariants": pair_invariants(p1, p2),
        "QuadraticPoly": poly_q(p1),
        "AffineMap": map_to_unit(Triangle(Point(1, 1), Point(4, 2), Point(2, 5))),
        "Triangle": UNIT_TRIANGLE,
        "WorldSolution": report.solutions[0],
        "SolveReport": report,
        "SideReport": certificate.sides[0],
        "VerificationReport": certificate,
    }


RECORDS = _records()


class TestRecords:
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: Triangle._make([(0, 0), (1, 0), c]),
            lambda c: UNIT_TRIANGLE._replace(c=c),
        ],
        ids=["make", "replace"],
    )
    def test_make_and_replace_refuse_a_collinear_triangle(self, build):
        assert build([0, 2]).c == Point(0.0, 2.0)
        with pytest.raises(DegenerateTriangle):
            build([2, 0])

    def test_make_and_replace_coerce_vertices_to_points(self):
        built = (
            Triangle._make([[0, 0], [1, 0], [0, 1]]),
            UNIT_TRIANGLE._replace(c=[0, 1]),
        )
        for tri in built:
            assert tri == UNIT_TRIANGLE
            assert all(type(v) is Point and type(v.x) is float for v in tri.vertices)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_pickle_and_deepcopy_round_trip(self, name):
        record = RECORDS[name]
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_are_frozen(self, name):
        record = RECORDS[name]
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def _query_path_records():
    """Each record a query builds without its NamedTuple constructor, with the type it must be."""
    p1, p2 = Point(0.25, 0.125), Point(0.5, 0.1667)
    fwd = map_to_unit(Triangle(Point(1, 1), Point(4, 2), Point(2, 5)))
    _, ((solution_param, _), *_) = solve_two_points_unit(p1, p2)
    report = solve_two_points(UNIT_TRIANGLE, p1, p2)
    # A world answer's tangency points t1, t2, t3, on the images of the horizontal
    # side, the vertical side and the hypotenuse.
    t1, t2, t3 = report.solutions[0].tangent_points
    return {
        "pull_back": (pull_back(geometry_at(0.3, 0.6)[0], fwd), ConicCoeffs),
        "tangency_points.t1": (t1, Point),
        "tangency_points.t2": (t2, Point),
        "tangency_points.t3": (t3, Point),
        "pair_invariants": (pair_invariants(p1, p2), PairInvariants),
        "poly_q": (poly_q(p1), QuadraticPoly),
        "poly_R": (poly_R(p1, p2), QuadraticPoly),
        "poly_S": (poly_S(p1, p2), QuadraticPoly),
        "solution.param": (solution_param, EllipseParam),
        # The parameters of the unit point-slope and tangency answers, through world.
        "solve_point_slope_unit": (unit_point_slope(p1, Slope.finite(-0.7)), EllipseParam),
        "param_from_tangencies": (unit_tangency(Point(0.5, 0.0), Point(0.0, 0.5)), EllipseParam),
        "as_point": (as_point([1, 2]), Point),
        "map_to_unit": (fwd, AffineMap),
        "apply_point": (apply_point(fwd, Point(2, 2)), Point),
        "Slope.finite": (Slope.finite(0.5), Slope),
        "Slope.vertical": (Slope.vertical(), Slope),
        "SolveReport": (report, SolveReport),
        "WorldSolution": (report.solutions[0], WorldSolution),
        "WorldSolution.center": (report.solutions[0].center, Point),
    }


QUERY_PATH_RECORDS = _query_path_records()


class TestQueryPathRecords:
    @pytest.mark.parametrize("name", sorted(QUERY_PATH_RECORDS))
    def test_is_the_record_its_constructor_builds(self, name):
        record, cls = QUERY_PATH_RECORDS[name]
        assert type(record) is cls
        assert cls(*record) == record
        assert cls(**record._asdict()) == record

    @pytest.mark.parametrize("name", sorted(QUERY_PATH_RECORDS))
    def test_field_names_and_replace(self, name):
        record, cls = QUERY_PATH_RECORDS[name]
        assert record._fields == cls._fields
        assert tuple(getattr(record, f) for f in cls._fields) == tuple(record)
        last = cls._fields[-1]
        changed = record._replace(**{last: None})
        assert type(changed) is cls
        assert getattr(changed, last) is None
        assert changed[:-1] == record[:-1]
