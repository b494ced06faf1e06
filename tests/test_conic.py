"""Conic representation: the ellipse test, the world writer, normalization, printed coefficients.

Values, slopes and centres of the package's conics are checked against the
test-side references in ``helpers``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from inellipse.affine import UNIT_TRIANGLE, AffineMap, Triangle, map_to_unit
from inellipse.conic import ConicCoeffs, full_coefficients, inscribed, is_real_ellipse, normalize_conic
from inellipse.geom import Point
from inellipse.kernel import EllipseParam

from helpers import (
    conic_centre,
    conic_gradient,
    conic_terms,
    geometry_at,
    random_param,
    random_triangle,
    world_conic_reference,
)

UNIT_CIRCLE = ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -1.0)
UNIT_ROWS = map_to_unit(UNIT_TRIANGLE)


def exact_det3_sign(conic) -> int:
    """Sign of the homogeneous 3x3 determinant, on the floats as fractions."""
    a, b, c, d, e, f = map(Fraction, conic)
    det = a * b * f + 2 * c * (e / 2) * (d / 2) - a * (e / 2) ** 2 - b * (d / 2) ** 2 - f * c * c
    return (det > 0) - (det < 0)


def random_map(rng) -> AffineMap:
    """A seeded affine map with entries in [-2, 2] and |det| >= 0.1."""
    while True:
        m = AffineMap(*rng.uniform(-2.0, 2.0, size=6))
        if abs(m.m11 * m.m22 - m.m12 * m.m21) >= 0.1:
            return m


class TestEvaluate:
    def test_midpoint_conic_at_contact(self):
        steiner = geometry_at(0.5, 0.5)[0]
        assert abs(sum(conic_terms(steiner, Point(0.5, 0.0)))) < 1e-15

    def test_half_cross_convention(self):
        # The c field stores half the xy coefficient.
        conic = ConicCoeffs(0.0, 0.0, 0.5, 0.0, 0.0, 0.0)
        assert sum(conic_terms(conic, Point(2.0, 3.0))) == pytest.approx(6.0)
        assert full_coefficients(conic)[2] == 1.0


class TestIsRealEllipse:
    def test_unit_circle(self):
        assert is_real_ellipse(UNIT_CIRCLE)

    def test_degenerate_cross(self):
        assert not is_real_ellipse(ConicCoeffs(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))

    def test_imaginary_ellipse(self):
        assert not is_real_ellipse(ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, 1.0))

    def test_sign_flip_invariance(self):
        flipped = ConicCoeffs(*(-v for v in UNIT_CIRCLE))
        assert is_real_ellipse(flipped)

    def test_inscribed_family_always_real(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w, t = random_param(rng)
            assert is_real_ellipse(geometry_at(w, t)[0])

    def test_small_ellipse_far_from_the_origin(self):
        # The inscribed ellipse (w, t) = (1.8e-8, 7.7e-8) carried to a world
        # triangle.  The 3x3 determinant of these floats is about -2.7e-60,
        # while its expanded terms are about 1e-44 and round it to 0.
        conic = ConicCoeffs(
            2.0376585033985034e-15, 2.8397403143611495e-15, -2.4054980495869076e-15,
            -3.6944645757237235e-15, 4.361392145442012e-15, 1.6746022350200012e-15,
        )
        # Raising f by 1.2e-8 (relative) moves the center value, about -2e-23,
        # through 0.
        imaginary = conic._replace(f=conic.f * (1.0 + 1e-7))
        assert exact_det3_sign(conic) < 0 < exact_det3_sign(imaginary)
        assert is_real_ellipse(conic)
        assert not is_real_ellipse(imaginary)

    def test_small_transported_inscribed_ellipses_are_real(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = random_map(rng)
            w, t = 10.0 ** rng.uniform(-9.0, -3.0, size=2)
            assert is_real_ellipse(inscribed((w, t), m))

    def test_non_finite(self):
        assert not is_real_ellipse(UNIT_CIRCLE._replace(f=math.nan))
        assert not is_real_ellipse(UNIT_CIRCLE._replace(a=math.inf))


class TestSlopeAt:
    def test_printed_regression(self):
        conic = ConicCoeffs(281961.0, 272484.0, -119718.0, -86022.0, -84564.0, 6561.0)
        qx, qy = conic_gradient(conic, Point(0.5, 0.25))
        assert -qx / qy == pytest.approx(2.0, abs=1e-12)

    def test_tangency_slopes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            param = EllipseParam(*random_param(rng))
            conic, contacts, _ = geometry_at(*param)
            (qx1, qy1), (qx2, qy2), (qx3, qy3) = (conic_gradient(conic, p) for p in contacts)
            assert -qx1 / qy1 == pytest.approx(0.0, abs=1e-9)
            assert abs(qy2) <= 1e-12 * abs(qx2)  # vertical
            assert -qx3 / qy3 == pytest.approx(-1.0, abs=1e-9)


class TestConicCenter:
    def test_midpoint_conic_centroid(self):
        steiner = geometry_at(0.5, 0.5)[0]
        assert conic_centre(steiner) == pytest.approx((1 / 3, 1 / 3), abs=1e-15)

    def test_against_center_formula(self):
        # Independent route: the closed-form center in terms of (w, t).
        w, t = 6 / 7, 2 / 3
        c = conic_centre(geometry_at(w, t)[0])
        den = 2.0 * (w + (1.0 - w) * t)
        assert c == pytest.approx((t / den, w / den), abs=1e-15)
        assert c == pytest.approx((7 / 20, 9 / 20), abs=1e-15)


class TestTransformConic:
    """The writer on a map's rows is the unit-triangle conic carried by that map."""

    def test_unit_triangle_scale(self):
        # --raw prints this scale: on the unit triangle A = w*w and B = t*t, and C, D and E
        # are the inscribed family's (kernel docstring), bit for bit.
        rng = np.random.default_rng(23)
        for _ in range(200):
            w, t = random_param(rng)
            a, b, c, d, e, f = inscribed((w, t), UNIT_ROWS)
            assert (a, b, c, d, e) == (
                w * w, t * t, -w * t * (2.0 * w * t - 2.0 * w - 2.0 * t + 1.0), -2.0 * w * w * t, -2.0 * t * t * w,
            )
            assert f == pytest.approx(t * t * w * w, rel=1e-15)

    def test_every_form_is_the_same_polynomial(self):
        # Run in 60-digit arithmetic on a triangle's exact rows, the writer agrees with
        # l^2 - 4k beta gamma expanded apart from it, in both of its forms of F(0).
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        forms = set()
        with mp.workdps(60):
            for _ in range(300):
                shift = rng.uniform(-20.0, 20.0, size=2)
                tri = Triangle(*(v + shift for v in random_triangle(rng)))
                param = tuple(mp.mpf(v) for v in random_param(rng))
                (ax, ay), (bx, by), (cx, cy) = ((mp.mpf(v) for v in q) for q in tri)
                area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                rows = (
                    (cy - ay) / area, (ax - cx) / area, (ay - by) / area, (bx - ax) / area,
                    (ay * (cx - ax) - ax * (cy - ay)) / area, (ax * (by - ay) - ay * (bx - ax)) / area,
                )
                got, want = inscribed(param, rows), world_conic_reference(tri, param)
                assert max(abs(u - v) for u, v in zip(got, want)) <= mp.mpf(10) ** -45 * max(abs(v) for v in want)
                (w, t), tx, ty = param, rows[4], rows[5]
                forms.add(tx * ty > 0 and (1 - w) * (1 - t) * tx * ty > (w * tx + t * ty) / 2)
        assert forms == {False, True}

    def test_scale_equivalence_of_action(self):
        # The world conic's value at p is the unit conic's value at the row image of p.
        rng = np.random.default_rng(3)
        m = AffineMap(1.3, -0.4, 0.7, 2.1, 0.5, -1.0)
        for _ in range(20):
            param = random_param(rng)
            p = Point(*rng.uniform(-2, 2, size=2))
            image = Point(m.m11 * p.x + m.m12 * p.y + m.tx, m.m21 * p.x + m.m22 * p.y + m.ty)
            world, unit = conic_terms(inscribed(param, m), p), conic_terms(inscribed(param, UNIT_ROWS), image)
            assert abs(sum(world) - sum(unit)) <= 1e-13 * max(abs(v) for v in (*world, *unit))

    def test_center_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(-2, 2, size=6)
            m = AffineMap(*vals)
            if abs(m.m11 * m.m22 - m.m12 * m.m21) < 0.1:
                continue
            param = random_param(rng)
            x, y = conic_centre(inscribed(param, m))
            moved = Point(m.m11 * x + m.m12 * y + m.tx, m.m21 * x + m.m22 * y + m.ty)
            assert moved == pytest.approx(conic_centre(inscribed(param, UNIT_ROWS)), abs=1e-9)


class TestNormalization:
    def test_largest_entry_becomes_one(self):
        n = normalize_conic(ConicCoeffs(2.0, -8.0, 1.0, 0.0, 0.5, -4.0))
        assert max(n, key=abs) == 1.0
