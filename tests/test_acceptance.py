"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import inellipse as ie
from inellipse.conic import normalize_conic
from inellipse.geom import Point, Slope
from inellipse.kernel import EllipseParam, pair_invariants, poly_q, poly_R, poly_S

from helpers import (
    coefficient_scale,
    discriminant,
    geometry_at,
    random_generic_pair,
    random_interior,
    random_param,
    random_triangle,
    random_vertex_pair,
    same_conic,
    stationary_point,
    term_residual,
    unit_to_world,
    vertex_slopes,
    VERTEX_POINTS,
)

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))
EX2 = (Point(1 / 8, -0.25 + 1 / math.sqrt(2)), Point(0.25, 0.5))
EX_TOP = (Point(1 / 3, 0.2), Point(0.25, 0.4))
UNIT = ie.UNIT_TRIANGLE


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {label}: FAIL")
        raise
    print(f"[acceptance] {number:02d} {label}: PASS")


def match_sorted_tw(solutions, expected, tol=0.01):
    got = sorted((sol.param.t, sol.param.w) for sol in solutions)
    assert len(got) == len(expected)
    for (t, w), (te, we) in zip(got, sorted(expected)):
        assert abs(t - te) < tol
        assert abs(w - we) < tol


def test_01_generic_two_point_regression():
    with criterion(1, "generic two-point example"):
        inv = pair_invariants(*EX1)
        assert abs(inv.j - (-1 / 576)) < 1e-15
        solve_start = time.perf_counter()
        case, sols = ie.solve_two_points(UNIT, *EX1)
        elapsed = time.perf_counter() - solve_start
        assert case == "generic_4"
        assert len(sols) == 4
        match_sorted_tw(sols, [(0.43, 0.74), (0.13, 0.03), (0.008, 0.003), (0.94, 0.22)])
        for sol in sols:
            assert max(sol.residuals) < 1e-10
        assert elapsed < 0.050


def test_02_degenerate_branch_regression():
    with criterion(2, "shared-contact (double-root) example"):
        t0 = math.sqrt(2) / 4
        case, sols = ie.solve_two_points(UNIT, *EX2)
        assert case == "generic_j_zero"
        assert len(sols) == 4
        match_sorted_tw(sols, [(0.35, 0.27), (0.35, 0.94), (0.01, 0.03), (0.96, 0.58)])
        shared = [sol.param for sol in sols if abs(sol.param.t - t0) < 1e-9]
        assert len(shared) == 2


def test_03_vertex_line_regression():
    with criterion(3, "vertex-line example"):
        case, sols = ie.solve_two_points(UNIT, *EX_TOP)
        assert case == "vertex_line:top"
        r = poly_R(*EX_TOP)
        assert abs(stationary_point(r) - 5 / 12) < 1e-12
        assert len(sols) == 2
        match_sorted_tw(sols, [(0.04, 0.04), (0.93, 0.43)])


def test_04_point_slope_regression():
    with criterion(4, "point-slope example"):
        report = ie.solve_point_slope(UNIT, Point(0.5, 0.25), Slope.finite(2.0))
        assert report.case == "unique"
        sol = report.solutions[0]
        assert abs(sol.param.w - 9 / 58) < 1e-12
        assert abs(sol.param.t - 9 / 59) < 1e-12
        printed = normalize_conic(
            ie.ConicCoeffs(281961.0, 272484.0, -119718.0, -86022.0, -84564.0, 6561.0)
        )
        got = normalize_conic(sol.conic)
        for u, v in zip(got, printed):
            assert u == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_05_vertical_tangent_regression():
    with criterion(5, "vertical-tangent example"):
        report = ie.solve_point_slope(UNIT, Point(1 / 3, 1 / 3), Slope.vertical())
        sol = report.solutions[0]
        assert abs(sol.param.w - 0.5) < 1e-12
        assert abs(sol.param.t - 0.2) < 1e-12
        assert same_conic(sol.conic, ie.ConicCoeffs(25.0, 4.0, 2.0, -10.0, -4.0, 1.0))


def test_06_excluded_slope_nonexistence():
    with criterion(6, "excluded slopes have no solution"):
        rng = np.random.default_rng(100)
        for _ in range(100):
            p = random_interior(rng)
            for vertex, vs in zip(VERTEX_POINTS, vertex_slopes(p)):
                report = ie.solve_point_slope(UNIT, p, vs)
                assert report == (f"no_solution:{vertex}", ())
                assert ie.brute_force_point_slope(p, vs) == []


def test_07_boundary_regression_and_round_trip():
    with criterion(7, "boundary tangency"):
        (sol,) = ie.solve_tangency(UNIT, Point(2 / 3, 0.0), Point(0.25, 0.75)).solutions
        assert abs(sol.param.w - 6 / 7) < 1e-12
        assert abs(sol.param.t - 2 / 3) < 1e-12
        assert same_conic(sol.conic, ie.ConicCoeffs(324.0, 196.0, 228.0, -432.0, -336.0, 144.0))
        rng = np.random.default_rng(102)
        for _ in range(100):
            target = EllipseParam(*random_param(rng))
            _, contacts, _ = geometry_at(*target)
            # Bottom, left and hypotenuse contacts, each pair of sides in turn.
            for qa, qb in itertools.combinations(contacts, 2):
                case, (back_sol,) = ie.solve_tangency(UNIT, Point(*qa), Point(*qb))
                back = back_sol.param
                assert case == "boundary_unique"
                assert abs(back.w - target.w) < 1e-12
                assert abs(back.t - target.t) < 1e-12


def test_08_affine_counting_property():
    with criterion(8, "solution counts on arbitrary triangles"):
        rng = np.random.default_rng(104)
        for _ in range(50):
            tri = random_triangle(rng)
            for _ in range(20):
                u1, u2 = random_generic_pair(rng)
                w1, w2 = unit_to_world(tri, u1), unit_to_world(tri, u2)
                report = ie.solve_two_points(tri, w1, w2)
                assert len(report.solutions) == 4
                for sol in report.solutions:
                    assert term_residual(sol.conic, w1) < 1e-9
                    assert term_residual(sol.conic, w2) < 1e-9
                    assert ie.verify_inscribed(sol.conic, tri).passed
        for i in range(50):
            tri = random_triangle(rng)
            u1, u2 = random_vertex_pair(rng, list(VERTEX_POINTS)[i % 3])
            report = ie.solve_two_points(tri, unit_to_world(tri, u1), unit_to_world(tri, u2))
            assert len(report.solutions) == 2


def test_09_identity_suite():
    with criterion(9, "polynomial identity suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(106)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            inv = pair_invariants(p1, p2)
            r, s = poly_R(p1, p2), poly_S(p1, p2)

            # separation: R - S = -16 a1 a2 y1 y2 t (1 - t), coefficientwise
            k = 16.0 * inv.a1 * inv.a2 * p1.y * p2.y
            assert r.c2 - s.c2 == pytest.approx(k, rel=1e-9)
            assert r.c1 - s.c1 == pytest.approx(-k, rel=1e-9)
            assert r.c0 == s.c0

            # endpoints (absolute floor at coefficient scale: evaluation at
            # the interval ends cancels against the full coefficients)
            assert r(0.0) == pytest.approx(-inv.d_origin ** 2, rel=1e-9, abs=1e-9 * coefficient_scale(r))
            assert s(0.0) == pytest.approx(-inv.d_origin ** 2, rel=1e-9, abs=1e-9 * coefficient_scale(s))
            assert r(1.0) == pytest.approx(-inv.d_vertex10 ** 2, rel=1e-9, abs=1e-9 * coefficient_scale(r))
            assert s(1.0) == pytest.approx(-inv.d_vertex10 ** 2, rel=1e-9, abs=1e-9 * coefficient_scale(s))

            # discriminant signs
            assert discriminant(s) > 0.0
            assert discriminant(r) > -1e-9 * coefficient_scale(r) ** 2

            # q positivity
            q1, q2 = poly_q(p1), poly_q(p2)
            for t in rng.random(2):
                assert q1(t) > 0.0 and q2(t) > 0.0

            # the factorizations R, S = 4t(1-t) D^2 - L^2 and
            # q1 = u^2 - 4 a1^2 t(1-t); both sides of R and S vanish at the
            # roots, so normalize by the term magnitudes
            (x1, y1), y2 = p1, p2.y
            for t in rng.random(2):
                st = 4.0 * t * (1.0 - t)
                lin = inv.d_origin * (1.0 - 2.0 * t) + t * (y1 - y2)
                for poly, d in ((r, y2 * inv.a1 - y1 * inv.a2), (s, y2 * inv.a1 + y1 * inv.a2)):
                    scale = max(abs(poly.c2) * t * t, abs(poly.c1) * t, abs(poly.c0), st * d * d, lin * lin)
                    assert abs(poly(t) - (st * d * d - lin * lin)) < 1e-9 * scale
                u = x1 * (1.0 - 2.0 * t) + t
                assert q1(t) == pytest.approx(u * u - inv.a1 ** 2 * st, rel=1e-9)
        assert time.perf_counter() - start < 5.0


def test_10_oracle_concordance():
    with criterion(10, "oracle concordance"):
        start = time.perf_counter()
        rng = np.random.default_rng(108)
        for _ in range(20):
            p1, p2 = random_generic_pair(rng)
            closed = sorted((sol.param.t, sol.param.w) for sol in ie.solve_two_points(UNIT, p1, p2).solutions)
            basins = [(t, w) for w, t in ie.brute_force_two_points(p1, p2, 256)]
            assert len(basins) == len(closed) == 4
            for (t1, w1), (t2, w2) in zip(closed, basins):
                assert abs(t1 - t2) < 1e-6
                assert abs(w1 - w2) < 1e-6
        for _ in range(20):
            p = random_interior(rng)
            r = 3.0 * rng.standard_cauchy()
            report = ie.solve_point_slope(UNIT, p, Slope.finite(r))
            basins = ie.brute_force_point_slope(p, Slope.finite(r), 256)
            if report.case.startswith("no_solution:"):
                assert basins == [] and report.solutions == ()
                continue
            assert len(basins) == 1
            (out,) = (sol.param for sol in report.solutions)
            assert abs(basins[0][0] - out.w) < 1e-6
            assert abs(basins[0][1] - out.t) < 1e-6
        assert time.perf_counter() - start < 60.0
