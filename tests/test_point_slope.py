"""Point with prescribed tangent slope: unique solution or certified absence."""

import math

import numpy as np
import pytest

from inellipse import point_slope, world
from inellipse.affine import UNIT_TRIANGLE
from inellipse.errors import NotInterior
from inellipse.geom import Point, Slope
from inellipse.kernel import EllipseParam
from inellipse.point_slope import residual_system13

from helpers import (
    conic_gradient,
    geometry_at,
    point_slope_reference,
    random_interior,
    unit_point_slope,
    vertex_id,
    vertex_slopes,
    VERTEX_POINTS,
)


class TestClosedForm:
    def test_finite_slope_regression(self):
        param = unit_point_slope(Point(0.5, 0.25), Slope.finite(2.0))
        assert param.w == pytest.approx(9 / 58, abs=1e-12)
        assert param.t == pytest.approx(9 / 59, abs=1e-12)

    def test_vertical_regression(self):
        param = unit_point_slope(Point(1 / 3, 1 / 3), Slope.vertical())
        assert param.w == pytest.approx(0.5, abs=1e-12)
        assert param.t == pytest.approx(0.2, abs=1e-12)

    def test_slope_aiming_at_origin(self):
        out = unit_point_slope(Point(0.5, 0.25), Slope.finite(0.5))
        assert out == "no_solution:origin"

    def test_slope_aiming_at_right_vertex(self):
        out = unit_point_slope(Point(0.5, 0.25), Slope.finite(-0.5))
        assert out == "no_solution:right"

    def test_slope_aiming_at_top_vertex(self):
        out = unit_point_slope(Point(0.5, 0.25), Slope.finite(-1.5))
        assert out == "no_solution:top"

    def test_band_around_excluded_slope(self):
        out = unit_point_slope(Point(0.5, 0.25), Slope.finite(0.5 + 1e-11))
        assert out == "no_solution:origin"

    @pytest.mark.parametrize("vertex", list(VERTEX_POINTS), ids=vertex_id)
    def test_band_edges_for_every_vertex(self, vertex):
        # The band is |r - v| <= 1e-9 (|r| + |v|) about the vertex slope v, about
        # 2e-9 |v| wide: half of it is excluded, twice it is solved.
        rng = np.random.default_rng(48)
        for _ in range(200):
            p = random_interior(rng)
            vs = dict(zip(VERTEX_POINTS, vertex_slopes(p)))[vertex].value
            band = 1e-9 * 2.0 * abs(vs)
            for sign in (1.0, -1.0):
                near = unit_point_slope(p, Slope.finite(vs + sign * 0.5 * band))
                assert near == f"no_solution:{vertex}"
                far = unit_point_slope(p, Slope.finite(vs + sign * 2.0 * band))
                assert isinstance(far, EllipseParam)

    def test_vertical_is_never_excluded(self):
        rng = np.random.default_rng(49)
        edges = [Point(1e-12, 0.5), Point(1.0 - 1e-9, 5e-10), Point(0.5, 0.5 - 1e-12)]
        for p in edges + [random_interior(rng, margin=0.0) for _ in range(500)]:
            assert isinstance(unit_point_slope(p, Slope.vertical()), EllipseParam)

    @pytest.mark.parametrize("p", [Point(1e-300, 0.5), Point(1e-300, 1e-300)])
    def test_vertical_next_to_the_left_side(self, p):
        # Along (0, 1) both vertex forms of w equal x, and x^2 underflows
        # unless the forms are scaled first.
        param = unit_point_slope(p, Slope.vertical())
        assert param.w == pytest.approx((1.0 - p.x - p.y) / (1.0 - p.x), rel=1e-15)
        # t = S / (S + X) = (1 - x - y) x / ((1 - x - y) x + (1 - x)^2), about 1e-300: a
        # normal float, which the sums must not underflow to 0.
        inside = 1.0 - p.x - p.y
        assert 0.0 < param.t < 1.0
        assert param.t == pytest.approx(inside * p.x / (inside * p.x + (1.0 - p.x) ** 2), rel=1e-15)

    def test_interior_required(self, monkeypatch):
        # world tests the point on its barycentrics; the unit step never sees it.
        reached = []
        monkeypatch.setattr(point_slope, "solve_point_slope_unit", lambda *args: reached.append(args))
        with pytest.raises(NotInterior):
            world.solve_point_slope(UNIT_TRIANGLE, Point(0.7, 0.5), Slope.finite(1.0))
        assert reached == []


class TestVertexSlopes:
    def test_example_values(self):
        s = vertex_slopes(Point(0.5, 0.25))
        assert [v.value for v in s] == pytest.approx([0.5, -0.5, -1.5])

    def test_symmetric_point(self):
        s = vertex_slopes(Point(1 / 3, 1 / 3))
        assert [v.value for v in s] == pytest.approx([1.0, -0.5, -2.0])

    def test_every_vertex_slope_is_excluded(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            p = random_interior(rng)
            for vertex, vs in zip(VERTEX_POINTS, vertex_slopes(p)):
                report = world.solve_point_slope(UNIT_TRIANGLE, p, vs)
                assert report == (f"no_solution:{vertex}", ())


class TestRationals:
    def test_positivity(self):
        # w = S/(S + Y) and t = S/(S + X) with S, X, Y > 0 off the vertex
        # slopes, so every slope that does not aim at a vertex gives positive
        # w and t.
        rng = np.random.default_rng(52)
        for _ in range(1000):
            p = random_interior(rng)
            r = 3.0 * rng.standard_cauchy()
            out = unit_point_slope(p, Slope.finite(r))
            if isinstance(out, str):  # no_solution:<vertex>
                continue
            assert out.w > 0.0
            assert out.t > 0.0

    def test_special_slope_needs_no_branch(self):
        # At the slope where the elimination degenerates, the closed form
        # still lands on t = x/(1 - y).
        rng = np.random.default_rng(54)
        for _ in range(50):
            p = random_interior(rng)
            x, y = p
            r0 = y * (2.0 * x + y - 1.0) / (x * (2.0 * x + y - 2.0))
            param = unit_point_slope(p, Slope.finite(r0))
            assert isinstance(param, EllipseParam)
            assert param.t == pytest.approx(p.x / (1.0 - p.y), rel=1e-9)
            assert max(residual_system13(p, Slope.finite(r0), param)) < 1e-10


class TestSolutionQuality:
    def test_system_residuals(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            p = random_interior(rng)
            r = math.tan(math.pi * (rng.random() - 0.5) * 0.98)
            out = unit_point_slope(p, Slope.finite(r))
            if isinstance(out, str):  # no_solution:<vertex>
                continue
            assert max(residual_system13(p, Slope.finite(r), out)) < 1e-10

    def test_vertical_residuals(self):
        rng = np.random.default_rng(58)
        for _ in range(100):
            p = random_interior(rng)
            out = unit_point_slope(p, Slope.vertical())
            assert max(residual_system13(p, Slope.vertical(), out)) < 1e-10

    def test_conic_attains_requested_slope(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            p = random_interior(rng)
            r = 2.0 * rng.standard_normal()
            out = unit_point_slope(p, Slope.finite(r))
            if isinstance(out, str):  # no_solution:<vertex>
                continue
            qx, qy = conic_gradient(geometry_at(*out)[0], p)
            assert -qx / qy == pytest.approx(r, rel=1e-8, abs=1e-8)

    def test_vertical_conic_tangent(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            p = random_interior(rng)
            out = unit_point_slope(p, Slope.vertical())
            qx, qy = conic_gradient(geometry_at(*out)[0], p)
            assert abs(qy) <= 1e-12 * abs(qx)

    def test_finite_formula_approaches_vertical_limit(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            p = random_interior(rng)
            limit = unit_point_slope(p, Slope.vertical())
            for r in (1e8, -1e8):
                param = unit_point_slope(p, Slope.finite(r))
                assert param.w == pytest.approx(limit.w, abs=1e-6)
                assert param.t == pytest.approx(limit.t, abs=1e-6)

    def test_params_inside_open_square(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            p = random_interior(rng)
            r = 3.0 * rng.standard_cauchy()
            out = unit_point_slope(p, Slope.finite(r))
            if isinstance(out, str):  # no_solution:<vertex>
                continue
            assert 0.0 < out.w < 1.0
            assert 0.0 < out.t < 1.0


class TestAccuracy:
    @pytest.mark.parametrize("vertex", ["right", "top"], ids=vertex_id)
    @pytest.mark.parametrize("offset", [1e-6, 1e-8])
    def test_near_a_vertex_slope_within_8_ulp(self, vertex, offset):
        # The quadratics in r that the sum forms replaced cancel here; they
        # were up to 36 ulp off on these draws.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(68)
        checked = 0
        for _ in range(1000):
            p = random_interior(rng)
            vs = dict(zip(VERTEX_POINTS, vertex_slopes(p)))[vertex].value
            r = vs * (1.0 + offset)
            out = unit_point_slope(p, Slope.finite(r))
            if isinstance(out, str):  # no_solution:<vertex>
                continue  # never: |vs| 1e-8 is outside the band 1e-9 (|r| + |vs|)
            if not (0.0 < out.w < 1.0 and 0.0 < out.t < 1.0):
                continue  # the true 1 - w or 1 - t is below half an ulp of 1
            checked += 1
            for got, ref in zip(out, point_slope_reference(p, r)):
                assert abs(got - ref) <= 8 * math.ulp(ref), (p, r)
        assert checked >= 200


class TestNearVertexSlopeInsideTheSquare:
    def test_world_answers_1e8_off_a_vertex_slope(self):
        # TestAccuracy's draws 1e-8 off the right and the top vertex slope, every one
        # of them outside the band |r - v| <= 1e-9 (|r| + |v|), so every one is solved.
        # On most, the true 1 - w or 1 - t is below half an ulp of 1, so it rounds to
        # 1.0; the answer is still the unique ellipse, reported with that parameter
        # as the float below 1, and no draw raises.
        solvable = at_edge = 0
        for vertex in ("right", "top"):
            rng = np.random.default_rng(68)
            for _ in range(1000):
                p = random_interior(rng)
                vs = dict(zip(VERTEX_POINTS, vertex_slopes(p)))[vertex].value
                report = world.solve_point_slope(UNIT_TRIANGLE, p, Slope.finite(vs * (1.0 + 1e-8)))
                if report.case != "unique":
                    continue
                solvable += 1
                (w, t) = report.solutions[0].param
                assert 0.0 < w < 1.0 and 0.0 < t < 1.0
                at_edge += max(w, t) == math.nextafter(1.0, 0.0)
        assert solvable == 2000
        assert at_edge > 1000
