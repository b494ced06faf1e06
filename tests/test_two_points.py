"""Two interior points: classification, counts, and solution quality."""

import collections
import math

import numpy as np
import pytest

from inellipse import two_points, world
from inellipse.affine import UNIT_TRIANGLE, Triangle
from inellipse.errors import AmbiguousClassification, CoincidentPoints, NotInterior, SolutionCountMismatch
from inellipse.geom import Point
from inellipse.kernel import EllipseParam, pair_invariants, poly_q, poly_R
from inellipse.oracle import brute_force_two_points, verify_inscribed
from inellipse.two_points import classify_pair, solve_two_points_unit

from helpers import (
    coefficient_scale,
    discriminant,
    geometry_at,
    j_zero_pair,
    pair_residuals,
    random_generic_pair,
    random_interior,
    random_vertex_pair,
    stationary_point,
    term_residual,
    two_point_reference,
    unit_to_world,
    vertex_id,
    w_quadratic,
    VERTEX_POINTS,
)

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))
EX2 = (Point(1 / 8, -0.25 + 1 / math.sqrt(2)), Point(0.25, 0.5))
EX_TOP = (Point(1 / 3, 0.2), Point(0.25, 0.4))


def sorted_tw(solutions):
    return [(param.t, param.w) for param, _ in solutions]


def unit_case(p1, p2) -> str:
    """The case the world query reports for a pair in the unit triangle."""
    return world.solve_two_points(UNIT_TRIANGLE, p1, p2).case


class TestClassify:
    def test_generic(self):
        assert unit_case(*EX1) == "generic_4"

    def test_top_vertex_line(self):
        assert unit_case(*EX_TOP) == "vertex_line:top"

    def test_origin_vertex_line(self):
        assert unit_case(Point(0.25, 0.125), Point(0.5, 0.25)) == "vertex_line:origin"

    def test_degenerate_branch(self):
        assert unit_case(*EX2) == "generic_j_zero"

    # A pair on each vertex line.  Moving p2 off it shifts the determinant by
    # -x1 (origin) or -(1 - x1) (right) per unit of p2.y, or by 1 - y1 (top)
    # per unit of p2.x.
    ON_LINE = {
        "origin": (Point(0.3, 0.2), Point(0.45, 0.3)),
        "right": (Point(0.3, 0.2), Point(0.65, 0.1)),
        "top": (Point(0.2, 0.3), Point(0.12, 0.58)),
    }

    @staticmethod
    def det_and_scale(vertex, p1, p2):
        """The vertex-line determinant and the scale its band is relative to."""
        inv = pair_invariants(p1, p2)
        (x1, y1), (x2, y2) = p1, p2
        if vertex == "origin":
            return inv.d_origin, max(abs(x2 * y1), abs(x1 * y2))
        if vertex == "right":
            return inv.d_vertex10, max(abs((1 - x2) * y1), abs((1 - x1) * y2))
        return inv.d_vertex01, max(abs(x2 * (1 - y1)), abs(x1 * (1 - y2)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("vertex", list(VERTEX_POINTS), ids=vertex_id)
    def test_vertex_line_band_edges(self, vertex, factor, sign):
        p1, (x2, y2) = self.ON_LINE[vertex]
        _, scale = self.det_and_scale(vertex, p1, Point(x2, y2))
        target = sign * factor * two_points._CLASSIFY_BAND * scale
        if vertex == "top":
            p2 = Point(x2 + target / (1 - p1.y), y2)
        else:
            p2 = Point(x2, y2 - target / (p1.x if vertex == "origin" else 1 - p1.x))
        det, scale = self.det_and_scale(vertex, p1, p2)
        assert det / (two_points._CLASSIFY_BAND * scale) == pytest.approx(sign * factor, rel=0.05)
        for pair in ((p1, p2), (p2, p1)):
            case = classify_pair(*pair)
            if factor < 1.0:
                assert case == f"vertex_line:{vertex}"
            else:
                assert case == "generic_4"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_j_zero_band_edges(self, factor, sign):
        # (0.3, 0.2) and (0.5, 0.2) sit on j = 0; j changes by -(x2 y1^2 + 2 x1 (1 - x1 - y1) y2)
        # per unit of p2.y.
        p1, (x2, y2) = Point(0.3, 0.2), Point(0.5, 0.2)
        j_scale = max(x2 * (1 - x2 - y2) * p1.y ** 2, p1.x * (1 - p1.x - p1.y) * y2 ** 2)
        rate = -(x2 * p1.y ** 2 + 2 * p1.x * (1 - p1.x - p1.y) * y2)
        p2 = Point(x2, y2 + sign * factor * two_points._J_ZERO_BAND * j_scale / rate)
        ratio = pair_invariants(p1, p2).j / (two_points._J_ZERO_BAND * j_scale)
        assert ratio == pytest.approx(sign * factor, rel=0.05)
        expected = "generic_j_zero" if factor < 1.0 else "generic_4"
        assert classify_pair(p1, p2) == expected

    def test_ambiguous_when_points_nearly_coincide(self):
        # 1e-11 apart, the pair sits within the classification band of all
        # three vertex lines at once: the unit step returns it unsolved, and
        # the world query refuses it.
        p1, p2 = Point(0.3, 0.2), Point(0.30000000001, 0.2)
        assert classify_pair(p1, p2) == "ambiguous:3"
        assert solve_two_points_unit(p1, p2) == ("ambiguous:3", None)
        with pytest.raises(AmbiguousClassification, match="sit on 3 vertex lines at once"):
            world.solve_two_points(UNIT_TRIANGLE, p1, p2)


class TestGenericExample:
    def test_four_solutions_match_published_values(self):
        _, sols = solve_two_points_unit(*EX1)
        assert unit_case(*EX1) == "generic_4"
        expected = [(0.008, 0.003), (0.13, 0.03), (0.43, 0.74), (0.94, 0.22)]
        got = sorted_tw(sols)
        for (t, w), (te, we) in zip(got, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)

    def test_residuals_small_at_solutions(self):
        _, sols = solve_two_points_unit(*EX1)
        for _, residuals in sols:
            assert max(residuals) < 1e-10

    def test_residual_bounded_away_at_non_solution(self):
        r = pair_residuals(*EX1, EllipseParam(0.5, 0.5))
        assert min(r) > 0.05

    def test_residual_swap_symmetry(self):
        (param, _), *_ = solve_two_points_unit(*EX1)[1]
        r12 = pair_residuals(EX1[0], EX1[1], param)
        r21 = pair_residuals(EX1[1], EX1[0], param)
        assert r12 == (r21[1], r21[0])


class TestDegenerateBranchExample:
    def test_four_solutions_with_shared_contact(self):
        _, sols = solve_two_points_unit(*EX2)
        assert unit_case(*EX2) == "generic_j_zero"
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
            t0 = stationary_point(poly_R(p1, p2))
            k = (p2.y / p1.y) ** 2
            for u, v in zip(w_quadratic(p1, t0), w_quadratic(p2, t0)):
                assert v == pytest.approx(k * u, rel=1e-9)

    def test_pairs_just_off_the_branch_solve_through_the_w_quadratic(self):
        # 1e-8 off the branch the pair is generic, but R sits close to a
        # double root: its D = y2 a1 - y1 a2 is nearly 0, and the sign of
        # L(t) D still picks each root's partner among the w-quadratic's roots.
        rng = np.random.default_rng(31)
        for _ in range(20):
            p1, p2 = j_zero_pair(rng)
            p2 = Point(p2.x, p2.y * (1.0 + 1e-8))
            assert unit_case(p1, p2) == "generic_4"
            r = poly_R(p1, p2)
            assert discriminant(r) < (1e-6 * coefficient_scale(r)) ** 2
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == 4
            for param, _ in sols:
                conic, _, _ = geometry_at(*param)
                assert term_residual(conic, p1) < 1e-9
                assert term_residual(conic, p2) < 1e-9

    def test_pairs_near_the_branch_keep_four_solutions(self):
        rng = np.random.default_rng(5)
        pairs = [j_zero_pair(rng) for _ in range(250)]
        for eps in (1e-10, 1e-9, 1e-8, 1e-7):
            for p1, p2 in pairs:
                _, sols = solve_two_points_unit(p1, Point(p2.x, p2.y * (1.0 + eps)))
                assert len(sols) == 4

    def test_sweep_across_the_branch_keeps_four_solutions(self):
        # From on the branch to 1e-6 off it on either side, in both point
        # orders; no band switches the partner's formula anywhere on the way.
        rng = np.random.default_rng(9)
        pairs = [j_zero_pair(rng) for _ in range(500)]
        epsilons = [0.0] + [10.0 ** k for k in range(-14, -5)] + [-1e-9, -1e-7]
        lost = []
        for eps in epsilons:
            for p1, p2 in pairs:
                p2 = Point(p2.x, p2.y * (1.0 + eps))
                for pair in ((p1, p2), (p2, p1)):
                    try:
                        _, sols = solve_two_points_unit(*pair)
                    except SolutionCountMismatch:
                        sols = ()
                    if len(sols) != 4:
                        lost.append((eps, pair))
        assert lost == []


class TestVertexLineExample:
    def test_two_solutions(self):
        _, sols = solve_two_points_unit(*EX_TOP)
        assert unit_case(*EX_TOP) == "vertex_line:top"
        got = sorted_tw(sols)
        expected = [(0.04, 0.04), (0.93, 0.43)]
        for (t, w), (te, we) in zip(got, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)

    def test_counts_for_all_three_vertices(self):
        rng = np.random.default_rng(32)
        for vertex in VERTEX_POINTS:
            for _ in range(10):
                p1, p2 = random_vertex_pair(rng, vertex)
                report = world.solve_two_points(UNIT_TRIANGLE, p1, p2)
                assert report.case == f"vertex_line:{vertex}"
                assert len(report.solutions) == 2


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
            vertex = list(VERTEX_POINTS)[i % 3]
            p1, p2 = random_vertex_pair(rng, vertex)
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == 2

    def test_membership_and_inscription(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            p1, p2 = random_generic_pair(rng)
            _, sols = solve_two_points_unit(p1, p2)
            for param, _ in sols:
                conic, _, _ = geometry_at(*param)
                assert term_residual(conic, p1) < 1e-9
                assert term_residual(conic, p2) < 1e-9
                assert verify_inscribed(conic).passed

    def test_params_strictly_inside_square(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            p1, p2 = random_generic_pair(rng)
            _, sols = solve_two_points_unit(p1, p2)
            for param, _ in sols:
                assert 0.0 < param.w < 1.0
                assert 0.0 < param.t < 1.0

    def test_swap_symmetry_of_solution_set(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p1, p2 = random_generic_pair(rng)
            a = sorted_tw(solve_two_points_unit(p1, p2)[1])
            b = sorted_tw(solve_two_points_unit(p2, p1)[1])
            for (t1, w1), (t2, w2) in zip(a, b):
                assert abs(t1 - t2) < 1e-9
                assert abs(w1 - w2) < 1e-9

    def test_solution_residuals_match_residual_system3(self):
        rng = np.random.default_rng(46)
        p1, p2 = j_zero_pair(rng)
        for pair in (random_generic_pair(rng), (p1, p2), (p2, p1), random_vertex_pair(rng, "top")):
            _, sols = solve_two_points_unit(*pair)
            for param, residuals in sols:
                assert residuals == pair_residuals(*pair, param)

    def test_sign_rule_picks_the_partner_at_every_root(self):
        # Before any polish, each root of R and S in (0, 1) of a generic pair
        # yields one candidate, and it already passes through p2.
        rng = np.random.default_rng(48)
        for _ in range(500):
            p1, p2 = random_generic_pair(rng)
            raw = two_points._candidate_params(p1, p2, poly_q(p1))
            assert classify_pair(p1, p2) == "generic_4" and len(raw) == 4
            for w, t in raw:
                assert pair_residuals(p1, p2, EllipseParam(w, t))[1] < 1e-9

    def test_gate_sits_in_a_wide_gap(self):
        # The residual gate is one constant: every polished candidate inside
        # the square margin is either at round-off or orders of magnitude off,
        # so any gate between the two keeps the same solutions.
        rng = np.random.default_rng(70)
        draws = [random_generic_pair, j_zero_pair] + [
            lambda rng, v=v: random_vertex_pair(rng, v) for v in VERTEX_POINTS
        ]
        margin = two_points._SQUARE_MARGIN
        kept, rejected = [], []
        for i in range(1500):
            p1, p2 = draws[i % len(draws)](rng)
            raw = two_points._candidate_params(p1, p2, poly_q(p1))
            for w, t in raw:
                # As kept_params: the first evaluation, then the polish unless both are converged.
                r1, r2 = pair_residuals(p1, p2, (w, t))
                if not (r1 < two_points._CONVERGED and r2 < two_points._CONVERGED):
                    w, t, r1, r2 = two_points._newton_polish(p1, p2, w, t, r1, r2)
                if margin < w < 1.0 - margin and margin < t < 1.0 - margin:
                    r = max(r1, r2)
                    (kept if r < two_points._GATE else rejected).append(r)
        assert kept and rejected
        assert max(kept) < 1e-14
        assert min(rejected) > 1e-3

    def test_each_candidate_is_evaluated_once(self, monkeypatch):
        # Each candidate's two backward errors are evaluated once, by the
        # Jacobian-free form, before any polish; a Newton step builds both
        # Jacobians and then evaluates both errors at its new point.  So per
        # query: 2 Jacobian-free calls per candidate plus 2 per step, 2
        # full-form calls per step only, and a polish only where a step runs.
        calls = collections.Counter()
        through_point, candidate_params, newton_polish = (
            two_points.through_point, two_points._candidate_params, two_points._newton_polish
        )

        def counted_through_point(*args, jacobian=True):
            calls["jacobian" if jacobian else "free"] += 1
            return through_point(*args, jacobian=jacobian)

        def counted_candidates(*args):
            raw = candidate_params(*args)
            calls["candidates"] += len(raw)
            return raw

        def counted_polish(*args):
            calls["polish"] += 1
            return newton_polish(*args)

        monkeypatch.setattr(two_points, "through_point", counted_through_point)
        monkeypatch.setattr(two_points, "_candidate_params", counted_candidates)
        monkeypatch.setattr(two_points, "_newton_polish", counted_polish)
        rng = np.random.default_rng(71)
        tri = Triangle((1.0, 2.0), (7.0, 1.0), (3.0, 6.5))
        steps = 0
        for _ in range(40):
            p1, p2 = (unit_to_world(tri, p) for p in random_generic_pair(rng))
            calls.clear()
            assert len(world.solve_two_points(tri, p1, p2).solutions) == 4
            assert calls["candidates"] == 4
            assert calls["jacobian"] % 2 == 0
            assert calls["free"] == 2 * calls["candidates"] + calls["jacobian"]
            assert calls["polish"] <= calls["jacobian"] // 2
            steps += calls["jacobian"] // 2
        # Most candidates of a generic pair are at round-off before any
        # step, but not all: the polish ran here.
        assert 0 < steps < 40 * 4

    def test_world_solve_builds_each_quadratic_and_conic_once(self, monkeypatch):
        # Per solution of every family: one unit geometry (contacts and center
        # together) and one world conic, written by conic.inscribed.
        # as_point runs once per caller point or slope, in world, and never on a unit image.
        from inellipse import affine, conic, geom, kernel, world
        from inellipse.geom import Slope

        counted = {kernel: ("poly_q", "unit_geometry"), conic: ("inscribed",), geom: ("as_point",)}
        calls = collections.Counter()
        for home, names in counted.items():
            for name in names:
                fn = getattr(home, name)

                def count(*args, _name=name, _fn=fn):
                    calls[_name] += 1
                    return _fn(*args)

                # Every binding, so calls from inside kernel count too.
                for module in (kernel, conic, geom, affine, two_points, world):
                    if getattr(module, name, None) is fn:
                        monkeypatch.setattr(module, name, count)
        rng = np.random.default_rng(47)
        p1, p2 = j_zero_pair(rng)
        pairs = [random_generic_pair(rng), (p1, p2), (p2, p1), random_vertex_pair(rng, "right")]
        queries = [lambda pair=pair: world.solve_two_points(UNIT_TRIANGLE, *pair) for pair in pairs]
        queries += [
            lambda: world.solve_point_slope(UNIT_TRIANGLE, Point(0.3, 0.2), Slope.finite(-0.7)),
            lambda: world.solve_point_slope(UNIT_TRIANGLE, Point(0.3, 0.2), Slope.vertical()),
            lambda: world.solve_tangency(UNIT_TRIANGLE, Point(0.4, 0.0), Point(0.25, 0.75)),
        ]
        cases = []
        for query in queries:
            calls.clear()
            report = query()
            cases.append(report.case)
            n = len(report.solutions)
            # One quadratic, p1's, on the two-point path; the residuals come from the polish.
            assert calls["poly_q"] == (1 if len(cases) <= len(pairs) else 0)
            assert calls["unit_geometry"] == n
            assert calls["inscribed"] == n
            assert calls["as_point"] == 2
        assert cases == [
            "generic_4", "generic_j_zero", "generic_j_zero", "vertex_line:right", "unique", "unique", "boundary_unique",
        ]

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


class TestAccuracy:
    @pytest.mark.parametrize("draw", [random_generic_pair, j_zero_pair])
    def test_solutions_match_a_50_digit_reference(self, draw):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(71)
        for _ in range(100):
            p1, p2 = draw(rng)
            for param, _ in solve_two_points_unit(p1, p2)[1]:
                w, t = two_point_reference(p1, p2, *param)
                assert max(abs(param.w - w), abs(param.t - t)) < 1e-11


class TestCoordinateCollisions:
    """Pairs sharing an x, y or 1 - x - y coordinate are solved directly."""

    def test_equal_x(self):
        p1, p2 = Point(0.3, 0.2), Point(0.3, 0.5)
        _, sols = solve_two_points_unit(p1, p2)
        assert unit_case(p1, p2) == "generic_4"
        assert len(sols) == 4
        for param, residuals in sols:
            conic, _, _ = geometry_at(*param)
            assert max(residuals) < 1e-10
            assert term_residual(conic, p1) < 1e-9
            assert term_residual(conic, p2) < 1e-9

    def test_equal_y(self):
        p1, p2 = Point(0.2, 0.3), Point(0.55, 0.3)
        case, sols = solve_two_points_unit(p1, p2)
        assert len(sols) == 4
        assert_matches_oracle(p1, p2, sols)

    def test_equal_third_coordinate(self):
        p1, p2 = Point(0.2, 0.5), Point(0.45, 0.25)
        _, sols = solve_two_points_unit(p1, p2)
        assert unit_case(p1, p2) == "generic_4"
        assert len(sols) == 4
        assert_matches_oracle(p1, p2, sols)

    @pytest.mark.parametrize("kind", ["x", "y", "third"])
    def test_seeded_collisions_match_oracle(self, kind):
        rng = np.random.default_rng({"x": 50, "y": 51, "third": 52}[kind])
        for _ in range(20):
            p1, p2 = collision_pair(rng, kind)
            _, sols = solve_two_points_unit(p1, p2)
            assert len(sols) == (2 if unit_case(p1, p2).startswith("vertex_line") else 4)
            assert_matches_oracle(p1, p2, sols)

    def test_equal_x_collinear_with_vertex(self):
        # The vertical line x = 1/2 does not pass through a vertex, but a
        # y-collision with an origin line does exercise both branches at once.
        p1 = Point(0.2, 0.1)
        p2 = Point(0.4, 0.2)  # collinear with the origin
        _, sols = solve_two_points_unit(p1, p2)
        assert unit_case(p1, p2) == "vertex_line:origin"
        assert len(sols) == 2


# world tests each pair interior and distinct, on its barycentrics, before either unit step
# sees it: a refused query never reaches ``entry``.
CHECKED_ENTRIES = pytest.mark.parametrize(
    "entry", [classify_pair, solve_two_points_unit], ids=lambda f: f.__name__
)


def refused_before(entry, monkeypatch, pairs, error, match=None):
    reached = []
    monkeypatch.setattr(two_points, entry.__name__, lambda *args: reached.append(args))
    for p1, p2 in pairs:
        with pytest.raises(error, match=match):
            world.solve_two_points(UNIT_TRIANGLE, p1, p2)
    assert reached == []


class TestErrors:
    @CHECKED_ENTRIES
    def test_not_interior(self, entry, monkeypatch):
        # Outside, then on the hypotenuse.
        pairs = ((0.6, 0.6), (0.25, 0.25)), ((0.25, 0.25), (0.5, 0.5))
        refused_before(entry, monkeypatch, pairs, NotInterior)

    @CHECKED_ENTRIES
    def test_coincident(self, entry, monkeypatch):
        refused_before(entry, monkeypatch, [((0.25, 0.25), (0.25, 0.25))], CoincidentPoints)

    @CHECKED_ENTRIES
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, entry, bad, monkeypatch):
        # world coerces each caller point once, before the unit steps, which trust it.
        pairs = ((bad, 0.25), (0.25, 0.125)), ((0.25, 0.125), (0.25, bad))
        refused_before(entry, monkeypatch, pairs, ValueError, match="must be finite")

    def test_unresolvable_near_degenerate_pair_is_reported(self):
        # A pair 1e-6 off a vertex line classifies as generic, but two of its
        # four solutions sit ~1e-12 from the square boundary, beyond double
        # precision: the solver must report the count failure, not fake it.
        p1 = Point(0.3, 0.15)
        p2 = Point(0.6, 0.3 + 1e-6)  # almost collinear with the origin
        with pytest.raises(SolutionCountMismatch):
            solve_two_points_unit(p1, p2)
