"""Parametrization, pair invariants, and the polynomial identity suite."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from inellipse import kernel
from inellipse.conic import ConicCoeffs
from inellipse.equations import backward_error, through_point
from inellipse.errors import OutOfDomain, ZeroPolynomial
from inellipse.geom import Point
from inellipse.kernel import (
    EllipseParam,
    QuadraticPoly,
    pair_invariants,
    poly_q,
    poly_R,
    poly_S,
    solve_quadratic,
    unit_geometry,
)

from helpers import (
    coefficient_scale,
    conic_centre,
    conic_terms,
    discriminant,
    geometry_at,
    j_zero_pair,
    random_generic_pair,
    random_interior,
    random_param,
    random_vertex_pair,
    same_conic,
    stationary_point,
    w_quadratic,
    VERTEX_POINTS,
)

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))


class TestInscribedConic:
    def test_midpoint_instance(self):
        conic, _, _ = geometry_at(0.5, 0.5)
        assert same_conic(conic, ConicCoeffs(4.0, 4.0, 2.0, -4.0, -4.0, 1.0))

    def test_printed_boundary_instance(self):
        conic, _, _ = geometry_at(6 / 7, 2 / 3)
        assert same_conic(conic, ConicCoeffs(324.0, 196.0, 228.0, -432.0, -336.0, 144.0))

    def test_printed_vertical_instance(self):
        conic, _, _ = geometry_at(0.5, 0.2)
        assert same_conic(conic, ConicCoeffs(25.0, 4.0, 2.0, -10.0, -4.0, 1.0))

    def test_out_of_domain(self):
        # unit_geometry holds the one edge rule: an underflowed (zero) or NaN parameter
        # raises, and one rounded to 1.0 becomes the nearest float inside.
        with pytest.raises(OutOfDomain):
            unit_geometry((0.0, 0.5, 0.5))  # w = 0
        with pytest.raises(OutOfDomain):
            unit_geometry((0.5, math.nan, 0.5))  # t = NaN
        below = math.nextafter(1.0, 0.0)
        assert unit_geometry((1.0, 1e-300, 1.0))[0] == (0.5, below)
        assert unit_geometry((1.0, 3.0, 1e-300))[0] == (below, 0.25)
        param = unit_geometry((0.125, 0.375, 0.125))[0]  # the perspector of (0.5, 0.25)
        assert type(param) is EllipseParam and param == (0.5, 0.25)


class TestTangency:
    def test_midpoints(self):
        t1, t2, t3 = geometry_at(0.5, 0.5)[1]
        assert t1 == pytest.approx((0.5, 0.0))
        assert t2 == pytest.approx((0.0, 0.5))
        assert t3 == pytest.approx((0.5, 0.5))

    def test_printed_boundary_contacts(self):
        t1, _, t3 = geometry_at(6 / 7, 2 / 3)[1]
        assert t1 == pytest.approx((2 / 3, 0.0), abs=1e-15)
        assert t3 == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_vertical_side_contact(self):
        assert geometry_at(0.5, 0.2)[1][1] == pytest.approx((0.0, 0.5))

    def test_contacts_lie_on_conic_and_sides(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            conic, (t1, t2, t3), _ = geometry_at(*random_param(rng))
            scale = max(abs(v) for v in conic)
            for p in (t1, t2, t3):
                assert abs(sum(conic_terms(conic, p))) < 1e-12 * scale
            assert t1[1] == 0.0 and 0.0 < t1[0] < 1.0
            assert t2[0] == 0.0 and 0.0 < t2[1] < 1.0
            assert t3[0] + t3[1] == pytest.approx(1.0, abs=1e-12)


class TestInscribedCenter:
    def test_centroid(self):
        assert geometry_at(0.5, 0.5)[2] == pytest.approx((1 / 3, 1 / 3))

    def test_closed_form_value(self):
        assert geometry_at(6 / 7, 2 / 3)[2] == pytest.approx((0.35, 0.45), abs=1e-15)

    def test_agrees_with_conic_center(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            conic, _, (x, y) = geometry_at(*random_param(rng))
            bx, by = conic_centre(conic)
            assert max(abs(x - bx), abs(y - by)) < 1e-12

    def test_center_in_medial_triangle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = geometry_at(*random_param(rng))[2]
            assert 0.0 < x < 0.5
            assert 0.5 - x < y < 0.5


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
        assert stationary_point(poly_R(p1, p2)) == pytest.approx(math.sqrt(2) / 4, abs=1e-12)

    def test_top_vertex_example(self):
        inv = pair_invariants(Point(1 / 3, 0.2), Point(0.25, 0.4))
        assert abs(inv.d_vertex01) < 1e-15

    def test_j_zero_iff_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p1, p2 = j_zero_pair(rng)
            inv = pair_invariants(p1, p2)
            assert p1.y / p2.y == pytest.approx(inv.a1 / inv.a2, rel=1e-9)


class TestPolyQ:
    def test_endpoint_values(self):
        q = poly_q(Point(0.25, 0.125))
        assert q(0.0) == pytest.approx(1 / 16)
        assert q(1.0) == pytest.approx(9 / 16)

    def test_discriminant(self):
        # 16 x^2 y (x + y - 1) evaluated independently.
        x, y = 0.25, 0.125
        q = poly_q(Point(x, y))
        assert discriminant(q) == pytest.approx(16 * x * x * y * (x + y - 1), rel=1e-14)
        assert discriminant(q) == pytest.approx(-5 / 64, rel=1e-14)

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
        assert stationary_point(r) == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
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
                floor = 1e-12 * coefficient_scale(poly)
                assert poly(0.0) == pytest.approx(-inv.d_origin ** 2, rel=1e-12, abs=floor)
                assert poly(1.0) == pytest.approx(-inv.d_vertex10 ** 2, rel=1e-12, abs=floor)

    def test_discriminant_signs(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            p1, p2 = random_generic_pair(rng)
            r, s = poly_R(p1, p2), poly_S(p1, p2)
            assert discriminant(s) > 0.0
            assert discriminant(r) > -1e-12 * coefficient_scale(r) ** 2

    def test_discriminant_vanishes_on_degenerate_branch(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            p1, p2 = j_zero_pair(rng)
            r = poly_R(p1, p2)
            assert abs(discriminant(r)) < 1e-10 * coefficient_scale(r) ** 2

    def test_factorizations(self, monkeypatch):
        # R, S = 4t(1-t) D^2 - L^2 with L = d_origin (1-2t) + t (y1 - y2) and
        # D = y2 a1 -+ y1 a2, and q = u^2 - 4a^2 t(1-t) with u = x(1-2t) + t:
        # the kernel's own coefficients, built from symbols.
        sp = pytest.importorskip("sympy")
        x1, y1, x2, y2, t = sp.symbols("x1 y1 x2 y2 t", positive=True)
        a1, a2 = sp.sqrt(x1 * (1 - x1 - y1)), sp.sqrt(x2 * (1 - x2 - y2))
        d_origin = x2 * y1 - x1 * y2
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

    def test_through_point_roots_in_closed_form(self):
        # With k = u + 2a sqrt(t(1-t)), both t y/k and t y k/q solve the
        # through-point equation in w.
        sp = pytest.importorskip("sympy")
        x, y, t = sp.symbols("x y t", positive=True)
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
            for w, _ in solve_quadratic(QuadraticPoly(*w_quadratic(p, t))):
                if 0.0 < w < 1.0:
                    conic = geometry_at(w, t)[0]
                    scale = max(abs(v) for v in conic)
                    assert abs(sum(conic_terms(conic, p))) < 1e-12 * scale

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
            assert backward_error(through_point(x, y, w, t)) == pytest.approx(expected, rel=1e-9)


class TestSolveQuadratic:
    def test_double_root(self):
        assert solve_quadratic(QuadraticPoly(1.0, -2.0, 1.0)) == [(1.0, 2)]

    def test_negative_discriminant_clamps_to_vertex_double_root(self):
        assert solve_quadratic(QuadraticPoly(1.0, -2.0, 2.0)) == [(1.0, 2)]

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


# The two solvers the merged solve_quadratic replaced, as they stood: the
# general stable solver and the banded one the two-point path called with
# band 1e-8.  The merged solver must give the same floats.
def _reference_solve_quadratic(q):
    c2, c1, c0 = q
    scale = coefficient_scale(q)
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients vanish")
    if abs(c2) <= 2.2e-16 * max(abs(c1), abs(c0)):
        if c1 == 0.0:
            return []
        return [(-c0 / c1, 1)]
    disc = discriminant(q)
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [(stationary_point(q), 2)]
    s = math.sqrt(disc)
    u = -(c1 + math.copysign(s, c1)) / 2.0 if c1 != 0.0 else s / 2.0
    r1 = u / c2
    r2 = c0 / u if u != 0.0 else stationary_point(q)
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return [(lo, 1), (hi, 1)]


def _reference_solve(q, band=1e-8):
    gate = (band * coefficient_scale(q)) ** 2
    disc = discriminant(q)
    if disc >= gate:
        return _reference_solve_quadratic(q)
    if abs(q.c2) <= 2.2e-16 * max(abs(q.c1), abs(q.c0)):
        return _reference_solve_quadratic(q)
    if disc <= 0.0:
        return [(stationary_point(q), 2)]
    half = 0.5 * math.sqrt(disc) / abs(q.c2)
    v = stationary_point(q)
    return [(v - half, 1), (v + half, 1)]


def _outcome(solve, q):
    try:
        return solve(q)
    except ZeroPolynomial:
        return ZeroPolynomial


def _near_vertex_line_pair(rng, vertex):
    # Off the line by 1e-9 .. 1e-4: p2.y moves for the origin and right
    # vertices, p2.x for the top one.
    p1, p2 = random_vertex_pair(rng, vertex)
    eps = 10.0 ** rng.uniform(-9.0, -4.0) * rng.choice((-1.0, 1.0))
    if vertex == "top":
        return p1, Point(p2.x + eps, p2.y)
    return p1, Point(p2.x, p2.y + eps)


class TestMergedSolverMatchesReference:
    def test_r_and_s_of_seeded_pairs(self):
        rng = np.random.default_rng(151)
        draws = [lambda: random_generic_pair(rng)] * 400 + [lambda: j_zero_pair(rng)] * 400
        for v in VERTEX_POINTS:
            draws += [lambda v=v: random_vertex_pair(rng, v)] * 200
            draws += [lambda v=v: _near_vertex_line_pair(rng, v)] * 200
        clamped = 0
        for draw in draws:
            p1, p2 = draw()
            for poly in (poly_R(p1, p2), poly_S(p1, p2)):
                roots = solve_quadratic(poly)
                assert roots == _reference_solve(poly), (p1, p2, poly)
                clamped += discriminant(poly) < (1e-8 * coefficient_scale(poly)) ** 2
        assert len(draws) == 2000
        assert clamped > 0  # the j_zero pairs reach the band

    GATE = (1e-8 * 1.0) ** 2  # scale 1 for every gate case below

    HAND = {
        "disc_exactly_zero": (QuadraticPoly(1.0, -2.0, 1.0), [(1.0, 2)]),
        "negative_inside_band": (QuadraticPoly(1.0, -1e-9, 3e-19), [(5e-10, 2)]),
        "negative_beyond_band": (QuadraticPoly(1.0, -2.0, 2.0), [(1.0, 2)]),
        # c2 = -1, c1 = 0: disc = 4 c0 exactly, so c0 = gate/4 puts it on the gate.
        "positive_under_gate": (QuadraticPoly(-1.0, 0.0, math.nextafter(GATE / 4, 0.0)), None),
        "positive_at_gate": (QuadraticPoly(-1.0, 0.0, GATE / 4), None),
        "negligible_c2": (QuadraticPoly(1e-20, 2.0, -1.0), [(0.5, 1)]),
        "negligible_c2_inside_band": (QuadraticPoly(1e-20, 2.0**-30, 1.0), [(-(2.0**30), 1)]),
        # (1e-8 * 2e-200)^2 underflows to 0, and so does c1^2 - 4 c2 c0.
        "gate_underflow_zero_disc": (QuadraticPoly(1e-200, -2e-200, 1e-200), [(1.0, 2)]),
        "all_zero": (QuadraticPoly(0.0, 0.0, 0.0), ZeroPolynomial),
    }

    @pytest.mark.parametrize("name", sorted(HAND))
    def test_hand_cases(self, name):
        q, expected = self.HAND[name]
        got, ref = (_outcome(solve, q) for solve in (solve_quadratic, _reference_solve))
        assert got == ref
        if expected is not None:
            assert got == expected

    def test_gate_cases_sit_where_named(self):
        under, at = self.HAND["positive_under_gate"][0], self.HAND["positive_at_gate"][0]
        assert 0.0 < discriminant(under) < self.GATE == discriminant(at)
        # Under the gate the roots come from the vertex, at it from the stable branch.
        half = 0.5 * math.sqrt(discriminant(under))
        assert solve_quadratic(under) == [(-half, 1), (half, 1)]
        assert [m for _, m in solve_quadratic(at)] == [1, 1]
        q = self.HAND["gate_underflow_zero_disc"][0]
        assert (1e-8 * coefficient_scale(q)) ** 2 == 0.0 and discriminant(q) == 0.0
