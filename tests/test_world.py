"""World layer: transport of conics and centers from the unit triangle."""

import numpy as np
import pytest

from inellipse import world
from inellipse.affine import Triangle, UNIT_TRIANGLE, apply_point, apply_slope, invert, map_to_unit
from inellipse.errors import DegenerateConic
from inellipse.geom import Point, Slope

from helpers import random_interior

# Apex height 1e-6 over a unit base: the world conics of this triangle have a
# quadratic part whose determinant is ~1e-24 of its squared scale.
THIN = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1e-6))


def term_residual(conic, p) -> float:
    """|Q(p)| over the largest of its six terms."""
    a, b, c, d, e, f = conic
    x, y = p
    terms = (a * x * x, b * y * y, 2.0 * c * x * y, d * x, e * y, f)
    return abs(sum(terms)) / max(abs(v) for v in terms)


def unit_to_world(tri: Triangle, u) -> tuple[float, float]:
    """a + u.x (b - a) + u.y (c - a), written out apart from the package's maps."""
    a, b, c = tri.vertices
    return (
        a.x + u[0] * (b.x - a.x) + u[1] * (c.x - a.x),
        a.y + u[0] * (b.y - a.y) + u[1] * (c.y - a.y),
    )


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
def test_inscribed_conic_near_the_corner_is_still_refused(tri):
    # A slope 1e-6 (relative) off the slope towards the origin yields
    # (w, t) ~ 1e-13: a conic with no numerically unique center in the unit
    # frame, whatever the world triangle.
    back = invert(map_to_unit(tri))
    u = Point(0.3, 0.2)
    slope = apply_slope(back, Slope.finite((2.0 / 3.0) * (1.0 + 1e-6)))
    with pytest.raises(DegenerateConic):
        world.solve_point_slope(tri, apply_point(back, u), slope)
