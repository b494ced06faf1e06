"""Conic representation: the ellipse test, transport, normalization, printed coefficients.

Values, slopes and centres of the package's conics are checked against the
test-side references in ``helpers``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from inellipse.affine import AffineMap, Triangle
from inellipse.conic import ConicCoeffs, full_coefficients, is_real_ellipse, normalize_conic, pull_back
from inellipse.geom import Point
from inellipse.kernel import EllipseParam
from inellipse.oracle import verify_inscribed

from helpers import conic_centre, conic_gradient, conic_terms, geometry_at, inverse_map, random_param, same_conic

UNIT_CIRCLE = ConicCoeffs(1.0, 1.0, 0.0, 0.0, 0.0, -1.0)
# Inscribed-family member for w = t = 1/2 (contact at the side midpoints).
STEINER_RAW = ConicCoeffs(0.25, 0.25, 0.125, -0.25, -0.25, 0.0625)


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
            assert is_real_ellipse(pull_back(geometry_at(w, t)[0], inverse_map(m)))

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
    def test_identity(self):
        out = pull_back(UNIT_CIRCLE, AffineMap(1.0, 0.0, 0.0, 1.0))
        assert same_conic(out, UNIT_CIRCLE)

    def test_axis_scale(self):
        # x -> x / 2: the circle x^2 + y^2 = 1 pulls back to x^2 / 4 + y^2 = 1.
        out = pull_back(UNIT_CIRCLE, AffineMap(0.5, 0.0, 0.0, 1.0))
        assert same_conic(out, ConicCoeffs(1.0, 4.0, 0.0, 0.0, 0.0, -4.0))

    def test_doubled_triangle_tangency(self):
        halve = AffineMap(0.5, 0.0, 0.0, 0.5)
        out = pull_back(STEINER_RAW, halve)
        tri = Triangle(Point(0, 0), Point(2, 0), Point(0, 2))
        report = verify_inscribed(out, tri)
        assert report.passed
        contacts = sorted((round(c.contact.x, 9), round(c.contact.y, 9)) for c in report.sides)
        assert contacts == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_scale_equivalence_of_action(self):
        rng = np.random.default_rng(3)
        m = AffineMap(1.3, -0.4, 0.7, 2.1, 0.5, -1.0)
        ratios = []
        for _ in range(20):
            p = Point(*rng.uniform(-2, 2, size=2))
            num = sum(conic_terms(pull_back(UNIT_CIRCLE, inverse_map(m)), Point(*np.array(
                [m.m11 * p.x + m.m12 * p.y + m.tx, m.m21 * p.x + m.m22 * p.y + m.ty]
            ))))
            den = sum(conic_terms(UNIT_CIRCLE, p))
            ratios.append(num / den)
        assert max(ratios) - min(ratios) < 1e-9 * max(abs(r) for r in ratios)

    def test_matches_the_matrix_congruence(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            conic = ConicCoeffs(*rng.uniform(-2.0, 2.0, size=6))
            m = random_map(rng)
            h = inverse_map(m)
            hm = np.array([[h.m11, h.m12, h.tx], [h.m21, h.m22, h.ty], [0.0, 0.0, 1.0]])
            a, b, c, d, e, f = conic
            q = np.array([[a, c, d / 2.0], [c, b, e / 2.0], [d / 2.0, e / 2.0, f]])
            r = hm.T @ q @ hm
            want = (r[0, 0], r[1, 1], r[0, 1], 2.0 * r[0, 2], 2.0 * r[1, 2], r[2, 2])
            got = pull_back(conic, h)
            scale = max(abs(v) for v in want)
            assert max(abs(u - v) for u, v in zip(got, want)) <= 1e-13 * scale

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            conic = ConicCoeffs(*rng.uniform(-2.0, 2.0, size=6))
            m = random_map(rng)
            back = pull_back(pull_back(conic, inverse_map(m)), m)
            scale = max(abs(v) for v in conic)
            assert max(abs(u - v) for u, v in zip(back, conic)) <= 1e-12 * scale

    def test_center_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(-2, 2, size=6)
            m = AffineMap(*vals)
            if abs(m.m11 * m.m22 - m.m12 * m.m21) < 0.1:
                continue
            x0, y0 = conic_centre(UNIT_CIRCLE)
            moved = pull_back(UNIT_CIRCLE, inverse_map(m))
            expected = Point(m.m11 * x0 + m.m12 * y0 + m.tx, m.m21 * x0 + m.m22 * y0 + m.ty)
            assert conic_centre(moved) == pytest.approx(expected, abs=1e-9)


class TestNormalization:
    def test_largest_entry_becomes_one(self):
        n = normalize_conic(ConicCoeffs(2.0, -8.0, 1.0, 0.0, 0.5, -4.0))
        assert max(n, key=abs) == 1.0
