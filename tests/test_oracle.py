"""The independent witness: tangency certificates and brute-force basins."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from inellipse.affine import Triangle
from inellipse.conic import ConicCoeffs
from inellipse.errors import DegenerateTriangle, NotAnEllipse
from inellipse.geom import Point, Slope
from inellipse import oracle
from inellipse.kernel import EllipseParam
from inellipse.oracle import brute_force_point_slope, brute_force_two_points, verify_inscribed
from inellipse.point_slope import residual_system13

from helpers import (
    geometry_at,
    pair_residuals,
    random_generic_pair,
    random_interior,
    random_param,
    unit_point_slope,
    vertex_slopes,
)

EX1 = (Point(0.25, 0.125), Point(0.5, 1 / 6))


def axis_aligned_ellipse(cx, cy, rx, ry):
    """((x-cx)/rx)^2 + ((y-cy)/ry)^2 = 1 in implicit form."""
    a, b = 1.0 / (rx * rx), 1.0 / (ry * ry)
    return ConicCoeffs(a, b, 0.0, -2.0 * a * cx, -2.0 * b * cy, a * cx * cx + b * cy * cy - 1.0)


class TestVerifyInscribed:
    def test_raw_vertices_are_checked_as_a_triangle(self):
        conic = geometry_at(0.3, 0.6)[0]
        assert verify_inscribed(conic, ((0, 0), (1, 0), (0, 1))) == verify_inscribed(conic)
        with pytest.raises(DegenerateTriangle):
            verify_inscribed(conic, ((0, 0), (1, 0), (2, 0)))

    def test_midpoint_conic_contacts(self):
        report = verify_inscribed(geometry_at(0.5, 0.5)[0])
        assert report.passed
        # Contact parameter 1/2 along every side.
        expected = [(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
        for side, (ex, ey) in zip(report.sides, expected):
            assert side.contact == pytest.approx((ex, ey), abs=1e-12)

    def test_incircle(self):
        r = (2.0 - math.sqrt(2.0)) / 2.0
        incircle = ConicCoeffs(1.0, 1.0, 0.0, -2.0 * r, -2.0 * r, r * r)
        assert verify_inscribed(incircle).passed

    def test_small_circle_fails_on_hypotenuse(self):
        # Distance from (0.2, 0.2) to the hypotenuse is (1 - 0.4)/sqrt(2),
        # far from the radius 0.1, so that side cannot be tangent.
        circle = axis_aligned_ellipse(0.2, 0.2, 0.1, 0.1)
        report = verify_inscribed(circle)
        assert not report.passed
        assert report.sides[1].residual > 1e-3

    def test_random_inscribed_family_passes(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            conic, _, _ = geometry_at(*random_param(rng))
            assert verify_inscribed(conic).passed

    def test_random_non_inscribed_fail(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            cx, cy = random_interior(rng, margin=0.1)
            rx, ry = 0.02 + 0.2 * rng.random(2)
            report = verify_inscribed(axis_aligned_ellipse(cx, cy, rx, ry))
            assert not report.passed

    def test_rejects_non_ellipse(self):
        with pytest.raises(NotAnEllipse):
            verify_inscribed(ConicCoeffs(1.0, -1.0, 0.0, 0.0, 0.0, 1.0))

    def test_world_triangle(self):
        tri = Triangle(Point(-1.0, 2.0), Point(3.0, 1.0), Point(0.5, 5.0))
        # Incircle of the world triangle, built classically.
        a = math.dist(tri.b, tri.c)
        b = math.dist(tri.a, tri.c)
        c = math.dist(tri.a, tri.b)
        s = a + b + c
        cx = (a * tri.a.x + b * tri.b.x + c * tri.c.x) / s
        cy = (a * tri.a.y + b * tri.b.y + c * tri.c.y) / s
        (ax, ay), (bx, by), (cx_, cy_) = tri
        area2 = abs((bx - ax) * (cy_ - ay) - (cx_ - ax) * (by - ay))
        r = area2 / s
        assert verify_inscribed(axis_aligned_ellipse(cx, cy, r, r), tri).passed


class TestBruteForceTwoPoints:
    def test_published_generic_example(self):
        basins = brute_force_two_points(*EX1)
        expected = [(0.008, 0.003), (0.13, 0.03), (0.43, 0.74), (0.94, 0.22)]
        assert len(basins) == 4
        for (w, t), (te, we) in zip(basins, expected):
            assert t == pytest.approx(te, abs=0.01)
            assert w == pytest.approx(we, abs=0.01)

    def test_vertex_line_example(self):
        basins = brute_force_two_points(Point(1 / 3, 0.2), Point(0.25, 0.4))
        assert len(basins) == 2

    def test_random_generic_pair_has_four(self):
        rng = np.random.default_rng(94)
        p1, p2 = random_generic_pair(rng)
        assert len(brute_force_two_points(p1, p2)) == 4

    def test_honesty_bound(self):
        basins = brute_force_two_points(*EX1)
        for w, t in basins:
            assert max(pair_residuals(*EX1, EllipseParam(w, t))) < 1e-12

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            brute_force_two_points(*EX1, grid_n=32)


@pytest.mark.parametrize("grid_n", [2049, 10**400], ids=["ceiling_plus_one", "beyond_float"])
@pytest.mark.parametrize("family", ["two_points", "point_slope"])
def test_grid_ceiling_is_checked_before_any_grid(monkeypatch, family, grid_n):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracle, "_box_minima", no_grid)
    with pytest.raises(ValueError, match="grid_n must be from 64 to 2048") as info:
        if family == "two_points":
            brute_force_two_points(*EX1, grid_n=grid_n)
        else:
            brute_force_point_slope(EX1[0], Slope.finite(2.0), grid_n=grid_n)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("grid_n", [100.5, "128", None], ids=["float", "string", "none"])
@pytest.mark.parametrize("family", ["two_points", "point_slope"])
def test_a_grid_n_that_is_no_integer_raises_value_error(monkeypatch, family, grid_n):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracle, "_box_minima", no_grid)
    with pytest.raises(ValueError, match="grid_n must be from 64 to 2048") as info:
        if family == "two_points":
            brute_force_two_points(*EX1, grid_n=grid_n)
        else:
            brute_force_point_slope(EX1[0], Slope.finite(2.0), grid_n=grid_n)
    assert type(info.value) is ValueError


def test_a_numpy_integer_grid_n_is_an_integer():
    assert brute_force_two_points(*EX1, grid_n=np.int64(64)) == brute_force_two_points(*EX1, grid_n=64)


@pytest.mark.parametrize(
    "slope",
    [Slope(1.0, math.inf), Slope(math.nan, 1.0), Slope(0.0, 0.0), 0.5, b"ab", bytearray(b"ab")],
    ids=["inf", "nan", "zero", "float", "bytes", "bytearray"],
)
def test_a_slope_that_is_no_direction_raises_value_error(monkeypatch, slope):
    # As in the world query: no empty basin list for a slope that is not a direction.
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracle, "_box_minima", no_grid)
    with pytest.raises(ValueError, match="direction of two finite numbers, not both zero") as info:
        brute_force_point_slope(EX1[0], slope)
    assert type(info.value) is ValueError


class TestBruteForcePointSlope:
    def test_published_finite_example(self):
        basins = brute_force_point_slope(Point(0.5, 0.25), Slope.finite(2.0))
        assert len(basins) == 1
        assert basins[0][0] == pytest.approx(9 / 58, abs=1e-8)
        assert basins[0][1] == pytest.approx(9 / 59, abs=1e-8)

    def test_published_vertical_example(self):
        basins = brute_force_point_slope(Point(1 / 3, 1 / 3), Slope.vertical())
        assert len(basins) == 1
        assert basins[0][0] == pytest.approx(0.5, abs=1e-8)
        assert basins[0][1] == pytest.approx(0.2, abs=1e-8)

    def test_excluded_slope_is_empty(self):
        assert brute_force_point_slope(Point(0.5, 0.25), Slope.finite(0.5)) == []

    def test_honesty_bound(self):
        p, s = Point(0.4, 0.3), Slope.finite(-3.0)
        for w, t in brute_force_point_slope(p, s):
            assert max(residual_system13(p, s, EllipseParam(w, t))) < 1e-12

    def test_slopes_near_each_vertex_slope_have_one_basin(self):
        # 1e-3 (relative) off a vertex slope the solution can sit within 1e-8
        # of a wall of the parameter square, next to the exclusion band.
        rng = np.random.default_rng(141)
        for _ in range(20):
            p = random_interior(rng)
            for vs in vertex_slopes(p):
                slope = Slope.finite(vs.value * (1.0 + rng.choice((-1e-3, 1e-3))))
                basins = brute_force_point_slope(p, slope)
                assert len(basins) == 1, (p, slope)
                w, t = unit_point_slope(p, slope)
                assert basins[0] == pytest.approx((w, t), abs=1e-9)


def one_seed_newton(system, w, t):
    """Damped Newton from one seed on floats: the reference the array pass reproduces."""
    for _ in range(oracle._NEWTON_ITERS):
        eqs = system(w, t)
        if max(oracle._backward_errors(eqs)) < oracle._NEWTON_TARGET:
            return w, t
        (f1, a, b, _), (f2, c, d, _) = eqs
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            return None
        dw = -(d * f1 - b * f2) / det
        dt = -(a * f2 - c * f1) / det
        base = f1 * f1 + f2 * f2
        lam = 1.0
        for _ in range(30):
            (g1, *_), (g2, *_) = system(w + lam * dw, t + lam * dt)
            if g1 * g1 + g2 * g2 < base:
                break
            lam *= 0.5
        else:
            return None
        w, t = w + lam * dw, t + lam * dt
        if not (math.isfinite(w) and math.isfinite(t) and -0.5 < w < 1.5 and -0.5 < t < 1.5):
            return None
    return (w, t) if max(oracle._backward_errors(system(w, t))) < oracle._NEWTON_TARGET else None


@pytest.mark.parametrize(
    "system",
    [
        oracle._two_point_system(*EX1),
        oracle._point_slope_system(Point(0.4, 0.3), Slope.finite(-3.0)),
        oracle._point_slope_system(Point(0.5, 0.25), Slope.finite(0.5 * (1.0 + 1e-6))),
    ],
    ids=["two_points", "point_slope", "near_excluded"],
)
def test_array_newton_matches_the_one_seed_loop(system):
    # Seeds from a box wider than the square also send some iterates out of (-0.5, 1.5)^2.
    seeds_w, seeds_t = np.random.default_rng(143).uniform(-0.45, 1.45, (2, 150))
    expected = [one_seed_newton(system, w, t) for w, t in zip(seeds_w.tolist(), seeds_t.tolist())]
    w, t = oracle._newton(system, seeds_w, seeds_t)
    assert list(zip(w.tolist(), t.tolist())) == [wt for wt in expected if wt is not None]


SOLVER_MODULES = {"two_points", "point_slope", "boundary", "kernel", "world"}


def test_oracle_imports_no_solver_module():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & SOLVER_MODULES
