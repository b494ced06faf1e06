"""Prescribed tangency points on two sides determine the ellipse uniquely."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from inellipse import world
from inellipse.affine import UNIT_TRIANGLE
from inellipse.boundary import param_from_tangencies
from inellipse.errors import NotOnSide, SameSide, VertexPoint
from inellipse.geom import Point
from inellipse.kernel import EllipseParam
from inellipse.oracle import verify_inscribed

from helpers import geometry_at, random_param, side_point, unit_tangency


class TestSidePoint:
    def test_classification(self):
        # The contact index (0 bottom, 1 left, 2 hypotenuse) and the barycentrics on the side.
        assert side_point(Point(0.3, 0.0)) == (0, (1.0 - 0.3, 0.3, 0.0))
        assert side_point(Point(0.0, 0.7)) == (1, (1.0 - 0.7, 0.0, 0.7))
        assert side_point(Point(0.25, 0.75)) == (2, (0.0, 0.25, 0.75))

    def test_not_on_side(self):
        with pytest.raises(NotOnSide):
            side_point(Point(0.3, 0.3))
        with pytest.raises(NotOnSide):
            side_point(Point(1.5, 0.0))

    def test_vertices_rejected(self):
        for v in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            with pytest.raises(VertexPoint):
                side_point(Point(*v))
        with pytest.raises(VertexPoint):
            side_point(Point(1e-9, 0.0))


class TestParamFromTangencies:
    def test_bottom_plus_hypotenuse_regression(self):
        param = unit_tangency(Point(2 / 3, 0.0), Point(0.25, 0.75))
        assert param.w == pytest.approx(6 / 7, abs=1e-12)
        assert param.t == pytest.approx(2 / 3, abs=1e-12)

    def test_bottom_plus_left_midpoints(self):
        param = unit_tangency(Point(0.5, 0.0), Point(0.0, 0.5))
        assert param == pytest.approx((0.5, 0.5))

    def test_left_plus_hypotenuse(self):
        param = unit_tangency(Point(0.0, 0.5), Point(0.5, 0.5))
        assert param.w == pytest.approx(0.5, abs=1e-12)
        assert param.t == pytest.approx(0.5, abs=1e-12)

    def test_same_side_rejected(self):
        with pytest.raises(SameSide):
            param_from_tangencies(
                side_point(Point(0.3, 0.0)), side_point(Point(0.6, 0.0))
            )

    def test_round_trip_all_side_pairs(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            param = EllipseParam(*random_param(rng))
            _, contacts, _ = geometry_at(*param)
            for ka, kb in itertools.combinations(range(3), 2):
                assert (side_point(Point(*contacts[ka]))[0], side_point(Point(*contacts[kb]))[0]) == (ka, kb)
                back = unit_tangency(Point(*contacts[ka]), Point(*contacts[kb]))
                assert abs(back.w - param.w) < 1e-12
                assert abs(back.t - param.t) < 1e-12

    def test_either_order_gives_the_same_param(self):
        rng = np.random.default_rng(74)
        for _ in range(50):
            _, contacts, _ = geometry_at(*random_param(rng))
            points = [Point(*c) for c in contacts]
            for q1, q2 in itertools.combinations(points, 2):
                assert unit_tangency(q1, q2) == unit_tangency(q2, q1)

    def test_reproduces_inputs_and_touches_third_side(self):
        rng = np.random.default_rng(72)
        for _ in range(25):
            _, contacts, _ = geometry_at(*random_param(rng))
            (sol,) = world.solve_tangency(UNIT_TRIANGLE, Point(*contacts[0]), Point(*contacts[2])).solutions
            conic, got = sol.conic, sol.tangent_points
            for (ax, ay), (bx, by) in zip(got, contacts):
                assert max(abs(ax - bx), abs(ay - by)) < 1e-12
            assert verify_inscribed(conic).passed

    def test_contacts_next_to_the_right_vertex_stay_inside_the_square(self):
        # (t, 0) and (x3, 1 - x3) each about 1e-8 from a vertex: the exact 1 - w is
        # about 1e-16, so w = t (1 - x3) / (x3 (1 - 2t) + t) rounds to 1.0 on about
        # one draw in seven.  Both points pass side_point, so the answer is unique:
        # w is reported as the float nearest its exact value inside (0, 1).
        rng = random.Random(1)
        below = math.nextafter(1.0, 0.0)
        nudged = 0
        for _ in range(2000):
            t = 1.0 - 1e-8 * (1.0 + rng.random() / 2.0)
            x3 = 7.0711e-9 * (1.0 + rng.random() / 2.0)
            report = world.solve_tangency(UNIT_TRIANGLE, Point(t, 0.0), Point(x3, 1.0 - x3))
            (sol,) = report.solutions
            w, got_t = sol.param
            assert report.case == "boundary_unique" and got_t == t
            assert 0.0 < w < 1.0
            ft, fx = Fraction(t), Fraction(x3)
            exact = ft * (1 - fx) / (fx * (1 - 2 * ft) + ft)
            assert exact < 1 and abs(Fraction(w) - exact) <= 2 * Fraction(math.ulp(below))
            nudged += w == below
        assert nudged > 100
