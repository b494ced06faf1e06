"""Two interior points: classification, counts, and solution quality."""

import collections
import math

import numpy as np
import pytest

from inellipse.conic import evaluate, membership_residual
from inellipse.errors import AmbiguousClassification, CoincidentPoints, NotInterior, SolutionCountMismatch
from inellipse.geom import Point, Vertex
from inellipse.kernel import EllipseParam, pair_invariants, poly_R, w_quadratic_at
from inellipse.oracle import brute_force_two_points, verify_inscribed
from inellipse.two_points import (
    PairKind,
    classify_pair,
    residual_system3,
    solve_two_points_unit,
)

from helpers import j_zero_pair, random_generic_pair, random_interior, random_vertex_pair

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))
EX2 = (Point(1 / 8, -0.25 + 1 / math.sqrt(2)), Point(0.25, 0.5))
EX_TOP = (Point(1 / 3, 0.2), Point(0.25, 0.4))


def sorted_tw(solutions):
    return [(s.param.t, s.param.w) for s in solutions]


class TestClassify:
    def test_generic(self):
        assert classify_pair(*EX1).kind is PairKind.GENERIC

    def test_top_vertex_line(self):
        case = classify_pair(*EX_TOP)
        assert case.kind is PairKind.VERTEX_LINE
        assert case.vertex is Vertex.TOP

    def test_origin_vertex_line(self):
        case = classify_pair(Point(0.25, 0.125), Point(0.5, 0.25))
        assert case.kind is PairKind.VERTEX_LINE
        assert case.vertex is Vertex.ORIGIN

    def test_degenerate_branch(self):
        assert classify_pair(*EX2).kind is PairKind.GENERIC_J_ZERO

    def test_ambiguous_when_points_nearly_coincide(self):
        # 1e-11 apart, the pair sits within the classification band of all
        # three vertex lines at once.
        with pytest.raises(AmbiguousClassification):
            classify_pair(Point(0.3, 0.2), Point(0.30000000001, 0.2))


class TestGenericExample:
    def test_four_solutions_match_published_values(self):
        case, sols = solve_two_points_unit(*EX1)
        assert case.kind is PairKind.GENERIC
        expected = [(0.008, 0.003), (0.13, 0.03), (0.43, 0.74), (0.94, 0.22)]
        got = sorted_tw(sols)
        for (t, w), (te, we) in zip(got, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)

    def test_residuals_small_at_solutions(self):
        _, sols = solve_two_points_unit(*EX1)
        for s in sols:
            assert max(s.residuals) < 1e-10

    def test_residual_bounded_away_at_non_solution(self):
        r = residual_system3(*EX1, EllipseParam(0.5, 0.5))
        assert min(r) > 0.05

    def test_residual_swap_symmetry(self):
        param = solve_two_points_unit(*EX1)[1][0].param
        r12 = residual_system3(EX1[0], EX1[1], param)
        r21 = residual_system3(EX1[1], EX1[0], param)
        assert r12 == (r21[1], r21[0])


class TestDegenerateBranchExample:
    def test_four_solutions_with_shared_contact(self):
        case, sols = solve_two_points_unit(*EX2)
        assert case.kind is PairKind.GENERIC_J_ZERO
        expected = [(0.01, 0.03), (0.35, 0.27), (0.35, 0.94), (0.96, 0.58)]
        got = sorted_tw(sols)
        for (t, w), (te, we) in zip(got, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)
        t0 = math.sqrt(2) / 4
        shared = [t for t, _ in got if abs(t - t0) < 1e-9]
        assert len(shared) == 2

    def test_proportional_quadratics_at_shared_contact(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            p1, p2 = j_zero_pair(rng)
            if pair_invariants(p1, p2).d_origin < 0.0:
                p1, p2 = p2, p1
            t0 = pair_invariants(p1, p2).t0
            g1 = w_quadratic_at(p1, t0)
            g2 = w_quadratic_at(p2, t0)
            k = (p2.y / p1.y) ** 2
            for u, v in zip((g1.c2, g1.c1, g1.c0), (g2.c2, g2.c1, g2.c0)):
                assert v == pytest.approx(k * u, rel=1e-9)

    def test_pairs_just_off_the_branch_solve_through_the_w_quadratic(self):
        # 1e-8 off the branch the pair is generic, but R sits so close to a
        # double root that w comes from the through-point quadratic, not B/C.
        rng = np.random.default_rng(31)
        for _ in range(20):
            p1, p2 = j_zero_pair(rng)
            p2 = Point(p2.x, p2.y * (1.0 + 1e-8))
            assert classify_pair(p1, p2).kind is PairKind.GENERIC
            r = poly_R(p1, p2)
            assert r.discriminant < (1e-6 * r.scale) ** 2
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == 4
            for s in sols:
                assert membership_residual(s.conic, p1) < 1e-9
                assert membership_residual(s.conic, p2) < 1e-9


    @pytest.mark.xfail(
        strict=True, raises=SolutionCountMismatch,
        reason="just off the j_zero branch the R discriminant clears the ratio band "
        "while B/C is still near its 0/0, and a solution is lost (ROADMAP 4(a))",
    )
    def test_pairs_near_the_branch_keep_four_solutions(self):
        # 17 of these 1,000 solves keep 3 solutions.
        rng = np.random.default_rng(5)
        pairs = [j_zero_pair(rng) for _ in range(250)]
        for eps in (1e-10, 1e-9, 1e-8, 1e-7):
            for p1, p2 in pairs:
                _, sols = solve_two_points_unit(p1, Point(p2.x, p2.y * (1.0 + eps)))
                assert len(sols) == 4


class TestVertexLineExample:
    def test_two_solutions(self):
        case, sols = solve_two_points_unit(*EX_TOP)
        assert case.kind is PairKind.VERTEX_LINE and case.vertex is Vertex.TOP
        got = sorted_tw(sols)
        expected = [(0.04, 0.04), (0.93, 0.43)]
        for (t, w), (te, we) in zip(got, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)

    def test_counts_for_all_three_vertices(self):
        rng = np.random.default_rng(32)
        for vertex in Vertex:
            for _ in range(10):
                p1, p2 = random_vertex_pair(rng, vertex)
                case, sols = solve_two_points_unit(p1, p2)
                assert case.kind is PairKind.VERTEX_LINE
                assert case.vertex is vertex
                assert len(sols) == 2


class TestCountsAndQuality:
    def test_generic_pairs_have_four_solutions(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            p1, p2 = random_generic_pair(rng)
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == 4

    def test_vertex_pairs_have_two_solutions(self):
        rng = np.random.default_rng(36)
        for i in range(50):
            vertex = list(Vertex)[i % 3]
            p1, p2 = random_vertex_pair(rng, vertex)
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == 2

    def test_membership_and_inscription(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            p1, p2 = random_generic_pair(rng)
            _, sols = solve_two_points_unit(p1, p2)
            for s in sols:
                assert membership_residual(s.conic, p1) < 1e-9
                assert membership_residual(s.conic, p2) < 1e-9
                assert verify_inscribed(s.conic).passed

    def test_params_strictly_inside_square(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            p1, p2 = random_generic_pair(rng)
            _, sols = solve_two_points_unit(p1, p2)
            for s in sols:
                assert 0.0 < s.param.w < 1.0
                assert 0.0 < s.param.t < 1.0

    def test_swap_symmetry_of_solution_set(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p1, p2 = random_generic_pair(rng)
            a = sorted_tw(solve_two_points_unit(p1, p2)[1])
            b = sorted_tw(solve_two_points_unit(p2, p1)[1])
            for (t1, w1), (t2, w2) in zip(a, b):
                assert abs(t1 - t2) < 1e-9
                assert abs(w1 - w2) < 1e-9

    def test_ratio_polynomials_are_built_once_per_solve(self, monkeypatch):
        from inellipse import two_points

        calls = collections.Counter()
        for name in ("poly_B", "poly_C"):
            def counted(*args, _name=name, _fn=getattr(two_points, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(two_points, name, counted)
        rng = np.random.default_rng(46)
        p1, p2 = j_zero_pair(rng)
        # Both orders of the j_zero pair, so one of them takes the swap.
        for pair in (random_generic_pair(rng), (p1, p2), (p2, p1), random_vertex_pair(rng, Vertex.TOP)):
            calls.clear()
            _, sols = solve_two_points_unit(*pair)
            assert dict(calls) == {"poly_B": 1, "poly_C": 1}
            for s in sols:
                assert s.residuals == residual_system3(*pair, s.param)

    def test_world_solve_builds_each_quadratic_and_conic_once(self, monkeypatch):
        from inellipse import kernel, two_points, world
        from inellipse.affine import UNIT_TRIANGLE

        names = ("poly_q", "eval_system_residual", "w_quadratic_at", "inscribed_conic", "tangency_points")
        calls = collections.Counter()
        for name in names:
            fn = getattr(kernel, name)

            def counted(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            # Every binding, so calls from inside kernel count too.
            for module in (kernel, two_points, world):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(47)
        p1, p2 = j_zero_pair(rng)
        # Both orders of the j_zero pair, so one of them takes the swap.
        pairs = [random_generic_pair(rng), (p1, p2), (p2, p1), random_vertex_pair(rng, Vertex.RIGHT)]
        cases = []
        for pair in pairs:
            calls.clear()
            report = world.solve_two_points(UNIT_TRIANGLE, *pair)
            cases.append(report.case)
            n = len(report.solutions)
            # Two from the pair's own quadratics, two inside each of poly_B and poly_C.
            assert calls["poly_q"] <= 6
            assert calls["eval_system_residual"] == 0
            assert calls["w_quadratic_at"] == 0
            assert calls["inscribed_conic"] == n
            assert calls["tangency_points"] == n
        assert cases == ["generic_4", "generic_j_zero", "generic_j_zero", "vertex_line:right"]

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            p1, p2 = random_generic_pair(rng)
            closed = sorted_tw(solve_two_points_unit(p1, p2)[1])
            basins = [(t, w) for w, t in brute_force_two_points(p1, p2)]
            assert len(basins) == len(closed)
            for (t1, w1), (t2, w2) in zip(closed, basins):
                assert abs(t1 - t2) < 1e-6
                assert abs(w1 - w2) < 1e-6


def assert_matches_oracle(p1, p2, sols):
    closed = sorted_tw(sols)
    basins = [(t, w) for w, t in brute_force_two_points(p1, p2)]
    assert len(basins) == len(closed)
    for (t1, w1), (t2, w2) in zip(closed, basins):
        assert abs(t1 - t2) < 1e-6
        assert abs(w1 - w2) < 1e-6


def collision_pair(rng, kind):
    """Two interior points sharing x, y, or 1 - x - y, at least 1e-3 apart."""
    while True:
        p1 = random_interior(rng)
        u = 0.02 + 0.96 * rng.random()
        if kind == "x":
            p2 = Point(p1.x, u * (1.0 - p1.x))
        elif kind == "y":
            p2 = Point(u * (1.0 - p1.y), p1.y)
        else:
            s = p1.x + p1.y
            p2 = Point(u * s, s - u * s)
        if min(p2) > 0.02 and max(abs(p1.x - p2.x), abs(p1.y - p2.y)) > 1e-3:
            return p1, p2


class TestCoordinateCollisions:
    """Pairs sharing an x, y or 1 - x - y coordinate are solved directly."""

    def test_equal_x(self):
        p1, p2 = Point(0.3, 0.2), Point(0.3, 0.5)
        case, sols = solve_two_points_unit(p1, p2)
        assert case.kind is PairKind.GENERIC
        assert len(sols) == 4
        for s in sols:
            assert max(s.residuals) < 1e-10
            assert membership_residual(s.conic, p1) < 1e-9
            assert membership_residual(s.conic, p2) < 1e-9

    def test_equal_y(self):
        p1, p2 = Point(0.2, 0.3), Point(0.55, 0.3)
        case, sols = solve_two_points_unit(p1, p2)
        assert len(sols) == 4
        assert_matches_oracle(p1, p2, sols)

    def test_equal_third_coordinate(self):
        p1, p2 = Point(0.2, 0.5), Point(0.45, 0.25)
        case, sols = solve_two_points_unit(p1, p2)
        assert case.kind is PairKind.GENERIC
        assert len(sols) == 4
        assert_matches_oracle(p1, p2, sols)

    @pytest.mark.parametrize("kind", ["x", "y", "third"])
    def test_seeded_collisions_match_oracle(self, kind):
        rng = np.random.default_rng({"x": 50, "y": 51, "third": 52}[kind])
        for _ in range(20):
            p1, p2 = collision_pair(rng, kind)
            case, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == (2 if case.kind is PairKind.VERTEX_LINE else 4)
            assert_matches_oracle(p1, p2, sols)

    def test_equal_x_collinear_with_vertex(self):
        # The vertical line x = 1/2 does not pass through a vertex, but a
        # y-collision with an origin line does exercise both branches at once.
        p1 = Point(0.2, 0.1)
        p2 = Point(0.4, 0.2)  # collinear with the origin
        case, sols = solve_two_points_unit(p1, p2)
        assert case.vertex is Vertex.ORIGIN
        assert len(sols) == 2


class TestErrors:
    def test_not_interior(self):
        with pytest.raises(NotInterior):
            solve_two_points_unit(Point(0.6, 0.6), Point(0.25, 0.25))

    def test_coincident(self):
        with pytest.raises(CoincidentPoints):
            solve_two_points_unit(Point(0.25, 0.25), Point(0.25, 0.25))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_gate_must_be_finite_and_positive(self, tol):
        # A NaN gate would let every candidate through (max(r) >= nan is false).
        with pytest.raises(ValueError, match="tol"):
            solve_two_points_unit(*EX1, tol=tol)

    def test_unresolvable_near_degenerate_pair_is_reported(self):
        # A pair 1e-6 off a vertex line classifies as generic, but two of its
        # four solutions sit ~1e-12 from the square boundary, beyond double
        # precision: the solver must report the count failure, not fake it.
        p1 = Point(0.3, 0.15)
        p2 = Point(0.6, 0.3 + 1e-6)  # almost collinear with the origin
        with pytest.raises(SolutionCountMismatch):
            solve_two_points_unit(p1, p2)
