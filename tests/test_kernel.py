"""Parametrization, pair invariants, and the polynomial identity suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from inellipse import kernel
from inellipse.conic import ConicCoeffs, conic_center, conic_close, evaluate
from inellipse.equations import through_point
from inellipse.errors import NotInterior, OutOfDomain, ZeroPolynomial
from inellipse.geom import Point
from inellipse.kernel import (
    EllipseParam,
    QuadraticPoly,
    eval_system_residual,
    inscribed_center,
    inscribed_conic,
    pair_invariants,
    poly_q,
    poly_R,
    poly_S,
    solve_quadratic,
    tangency_points,
    w_quadratic_at,
)

from helpers import j_zero_pair, random_generic_pair, random_interior, random_param

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))


class TestInscribedConic:
    def test_midpoint_instance(self):
        conic = inscribed_conic(EllipseParam(0.5, 0.5))
        assert conic_close(conic, ConicCoeffs(4.0, 4.0, 2.0, -4.0, -4.0, 1.0))

    def test_printed_boundary_instance(self):
        conic = inscribed_conic(EllipseParam(6 / 7, 2 / 3))
        assert conic_close(conic, ConicCoeffs(324.0, 196.0, 228.0, -432.0, -336.0, 144.0))

    def test_printed_vertical_instance(self):
        conic = inscribed_conic(EllipseParam(0.5, 0.2))
        assert conic_close(conic, ConicCoeffs(25.0, 4.0, 2.0, -10.0, -4.0, 1.0))

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            inscribed_conic(EllipseParam(0.0, 0.5))
        with pytest.raises(OutOfDomain):
            inscribed_conic(EllipseParam(0.5, 1.0))


class TestTangency:
    def test_midpoints(self):
        tps = tangency_points(EllipseParam(0.5, 0.5))
        assert tps.t1 == pytest.approx((0.5, 0.0))
        assert tps.t2 == pytest.approx((0.0, 0.5))
        assert tps.t3 == pytest.approx((0.5, 0.5))

    def test_printed_boundary_contacts(self):
        tps = tangency_points(EllipseParam(6 / 7, 2 / 3))
        assert tps.t1 == pytest.approx((2 / 3, 0.0), abs=1e-15)
        assert tps.t3 == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_vertical_side_contact(self):
        assert tangency_points(EllipseParam(0.5, 0.2)).t2 == pytest.approx((0.0, 0.5))

    def test_contacts_lie_on_conic_and_sides(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            param = EllipseParam(*random_param(rng))
            conic = inscribed_conic(param)
            scale = max(abs(v) for v in conic)
            t1, t2, t3 = tangency_points(param)
            for p in (t1, t2, t3):
                assert abs(evaluate(conic, p)) < 1e-12 * scale
            assert t1.y == 0.0 and 0.0 < t1.x < 1.0
            assert t2.x == 0.0 and 0.0 < t2.y < 1.0
            assert t3.x + t3.y == pytest.approx(1.0, abs=1e-12)


class TestInscribedCenter:
    def test_centroid(self):
        assert inscribed_center(EllipseParam(0.5, 0.5)) == pytest.approx((1 / 3, 1 / 3))

    def test_closed_form_value(self):
        assert inscribed_center(EllipseParam(6 / 7, 2 / 3)) == pytest.approx((0.35, 0.45), abs=1e-15)

    def test_agrees_with_conic_center(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            param = EllipseParam(*random_param(rng))
            a = inscribed_center(param)
            b = conic_center(inscribed_conic(param))
            assert max(abs(a.x - b.x), abs(a.y - b.y)) < 1e-12

    def test_center_in_medial_triangle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = inscribed_center(EllipseParam(*random_param(rng)))
            assert 0.0 < c.x < 0.5
            assert 0.5 - c.x < c.y < 0.5


class TestPairInvariants:
    def test_generic_example(self):
        inv = pair_invariants(*EX1)
        assert inv.j == pytest.approx(-1 / 576, abs=1e-15)
        assert inv.d_origin == pytest.approx(1 / 48, abs=1e-15)

    def test_degenerate_branch_example(self):
        p1 = Point(1 / 8, -0.25 + 1 / math.sqrt(2))
        p2 = Point(0.25, 0.5)
        inv = pair_invariants(p1, p2)
        assert abs(inv.j) < 1e-15
        assert poly_R(p1, p2).vertex == pytest.approx(math.sqrt(2) / 4, abs=1e-12)

    def test_top_vertex_example(self):
        inv = pair_invariants(Point(1 / 3, 0.2), Point(0.25, 0.4))
        assert abs(inv.d_vertex01) < 1e-15

    def test_j_zero_iff_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p1, p2 = j_zero_pair(rng)
            inv = pair_invariants(p1, p2)
            assert p1.y / p2.y == pytest.approx(inv.a1 / inv.a2, rel=1e-9)

    def test_interior_and_distinct_enforced(self):
        with pytest.raises(NotInterior):
            pair_invariants(Point(0.5, 0.5), Point(0.25, 0.25))
        from inellipse.errors import CoincidentPoints

        with pytest.raises(CoincidentPoints):
            pair_invariants(Point(0.25, 0.25), Point(0.25, 0.25))


class TestPolyQ:
    def test_endpoint_values(self):
        q = poly_q(Point(0.25, 0.125))
        assert q(0.0) == pytest.approx(1 / 16)
        assert q(1.0) == pytest.approx(9 / 16)

    def test_discriminant(self):
        # 16 x^2 y (x + y - 1) evaluated independently.
        x, y = 0.25, 0.125
        q = poly_q(Point(x, y))
        assert q.discriminant == pytest.approx(16 * x * x * y * (x + y - 1), rel=1e-14)
        assert q.discriminant == pytest.approx(-5 / 64, rel=1e-14)

    def test_positive_on_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            q = poly_q(random_interior(rng))
            for t in rng.random(100):
                assert q(t) > 0.0


class TestPolyRS:
    def test_generic_example_roots(self):
        p1, p2 = EX1
        r_roots = [r for r, _ in solve_quadratic(poly_R(p1, p2))]
        s_roots = [r for r, _ in solve_quadratic(poly_S(p1, p2))]
        exact_r = sorted(
            3 / 8 - math.sqrt(60) / 80 + s * (math.sqrt(10) / 20 - math.sqrt(6) / 8)
            for s in (1, -1)
        )
        exact_s = sorted(
            3 / 8 + math.sqrt(60) / 80 + s * (math.sqrt(10) / 20 + math.sqrt(6) / 8)
            for s in (1, -1)
        )
        assert r_roots == pytest.approx(exact_r, abs=1e-12)
        assert s_roots == pytest.approx(exact_s, abs=1e-12)

    def test_degenerate_example_double_root(self):
        p1 = Point(1 / 8, -0.25 + 1 / math.sqrt(2))
        p2 = Point(0.25, 0.5)
        r = poly_R(p1, p2)
        # (1/128)(2 sqrt(2) - 3)(4t - sqrt(2))^2, concave down with a double root.
        lead = (2 * math.sqrt(2) - 3) / 128 * 16
        assert r.c2 == pytest.approx(lead, rel=1e-9)
        assert r.vertex == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
        s_roots = [x for x, _ in solve_quadratic(poly_S(p1, p2))]
        assert s_roots[0] == pytest.approx(0.01, abs=0.005)
        assert s_roots[1] == pytest.approx(0.96, abs=0.005)

    def test_concave_down(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            assert poly_R(p1, p2).c2 < 0.0
            assert poly_S(p1, p2).c2 < 0.0

    def test_separation_identity(self):
        # R(t) - S(t) must be -16 a1 a2 y1 y2 t(1-t), coefficient by coefficient.
        rng = np.random.default_rng(14)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            inv = pair_invariants(p1, p2)
            k = 16.0 * inv.a1 * inv.a2 * p1.y * p2.y
            r, s = poly_R(p1, p2), poly_S(p1, p2)
            assert r.c2 - s.c2 == pytest.approx(k, rel=1e-12)
            assert r.c1 - s.c1 == pytest.approx(-k, rel=1e-12)
            assert r.c0 == s.c0

    def test_endpoint_identities(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            inv = pair_invariants(p1, p2)
            for poly in (poly_R(p1, p2), poly_S(p1, p2)):
                # Evaluation at the endpoints cancels against the coefficient
                # scale; keep an absolute floor at that scale.
                floor = 1e-12 * poly.scale
                assert poly(0.0) == pytest.approx(-inv.d_origin ** 2, rel=1e-12, abs=floor)
                assert poly(1.0) == pytest.approx(-inv.d_vertex10 ** 2, rel=1e-12, abs=floor)

    def test_discriminant_signs(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            r, s = poly_R(p1, p2), poly_S(p1, p2)
            assert s.discriminant > 0.0
            assert r.discriminant > -1e-12 * r.scale ** 2

    def test_discriminant_vanishes_on_degenerate_branch(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            p1, p2 = j_zero_pair(rng)
            r = poly_R(p1, p2)
            assert abs(r.discriminant) < 1e-10 * r.scale ** 2

    def test_factorizations(self, monkeypatch):
        # R, S = 4t(1-t) D^2 - L^2 with L = d_origin (1-2t) + t (y1 - y2) and
        # D = y2 a1 -+ y1 a2, and q = u^2 - 4a^2 t(1-t) with u = x(1-2t) + t:
        # the kernel's own coefficients, built from symbols.
        sp = pytest.importorskip("sympy")
        x1, y1, x2, y2, t = sp.symbols("x1 y1 x2 y2 t", positive=True)
        a1, a2 = sp.sqrt(x1 * (1 - x1 - y1)), sp.sqrt(x2 * (1 - x2 - y2))
        d_origin = x2 * y1 - x1 * y2
        monkeypatch.setattr(kernel, "require_interior", lambda *points: None)
        monkeypatch.setattr(
            kernel, "pair_invariants",
            lambda p1, p2: SimpleNamespace(a1=a1, a2=a2, d_origin=d_origin),
        )
        p1, p2 = Point(x1, y1), Point(x2, y2)
        lin = d_origin * (1 - 2 * t) + t * (y1 - y2)
        for build, d in ((kernel.poly_R, y2 * a1 - y1 * a2), (kernel.poly_S, y2 * a1 + y1 * a2)):
            assert sp.expand(build(p1, p2)(t) - (4 * t * (1 - t) * d ** 2 - lin ** 2)) == 0
        u = x1 * (1 - 2 * t) + t
        assert sp.expand(kernel.poly_q(p1)(t) - (u * u - 4 * a1 ** 2 * t * (1 - t))) == 0

    def test_through_point_roots_in_closed_form(self, monkeypatch):
        # With k = u + 2a sqrt(t(1-t)), both t y/k and t y k/q solve the
        # through-point equation in w.
        sp = pytest.importorskip("sympy")
        x, y, t = sp.symbols("x y t", positive=True)
        monkeypatch.setattr(kernel, "require_interior", lambda *points: None)
        q = kernel.poly_q(Point(x, y))(t)
        k = x * (1 - 2 * t) + t + 2 * sp.sqrt(x * (1 - x - y)) * sp.sqrt(t * (1 - t))
        for w, den in ((t * y / k, k), (t * y * k / q, q)):
            value, _, _, _ = through_point(x, y, w, t)
            assert sp.expand(sp.cancel(value * den ** 2)) == 0


class TestWQuadratic:
    def test_roots_solve_through_point_condition(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            p = random_interior(rng)
            t = 0.05 + 0.9 * rng.random()
            for w, _ in solve_quadratic(w_quadratic_at(p, t)):
                if 0.0 < w < 1.0:
                    conic = inscribed_conic(EllipseParam(w, t))
                    scale = max(abs(v) for v in conic)
                    assert abs(evaluate(conic, p)) < 1e-12 * scale

    def test_residual_is_term_normalized(self):
        # |c2 w^2 + c1 w + c0| over the largest of the three terms, with the
        # coefficients expanded here rather than taken from the package.
        rng = np.random.default_rng(25)
        for _ in range(200):
            x, y = random_interior(rng)
            w, t = random_param(rng)
            terms = (
                ((x - t) ** 2 + 4.0 * x * y * t * (1.0 - t)) * w * w,
                2.0 * t * y * ((2.0 * x - 1.0) * t - x) * w,
                t * t * y * y,
            )
            expected = abs(sum(terms)) / max(abs(v) for v in terms)
            assert eval_system_residual(Point(x, y), EllipseParam(w, t)) == pytest.approx(expected, rel=1e-9)


class TestSolveQuadratic:
    def test_double_root(self):
        assert solve_quadratic(QuadraticPoly(1.0, -2.0, 1.0)) == [(1.0, 2)]

    def test_no_real_roots(self):
        assert solve_quadratic(QuadraticPoly(1.0, 0.0, 1.0)) == []

    def test_generic_example_coefficients(self):
        p1, p2 = EX1
        roots = [r for r, _ in solve_quadratic(poly_R(p1, p2))]
        assert roots[0] == pytest.approx(0.13, abs=0.005)
        assert roots[1] == pytest.approx(0.43, abs=0.005)

    def test_cancellation_stability(self):
        # Tiny leading coefficient: the naive formula would lose the small root.
        roots = solve_quadratic(QuadraticPoly(1e-12, -1.0, 1.0))
        assert roots[0][0] == pytest.approx(1.0, rel=1e-9)
        assert roots[1][0] == pytest.approx(1e12, rel=1e-9)

    def test_degenerate_linear(self):
        assert solve_quadratic(QuadraticPoly(0.0, 2.0, -1.0)) == [(0.5, 1)]

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            solve_quadratic(QuadraticPoly(0.0, 0.0, 0.0))
