"""General conics A x^2 + B y^2 + 2C xy + D x + E y + F = 0.

The cross coefficient is stored halved (the ``c`` field holds C, so the
printed xy coefficient is ``2c``); that convention keeps the classification
determinants AB - C^2 and AE^2 + BD^2 + 4FC^2 - 2CDE - 4ABF in their
textbook shape.  Coefficients are scale-equivalent: k*(a..f) with k != 0 is
the same curve, and all comparisons here are up to scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .affine import AffineMap, invert
from .errors import DegenerateConic, SingularPoint
from .geom import Point, Slope

# Vertical-tangent gate: the slope denominator must vanish at this relative
# level while the numerator stays above the second level.
_VERTICAL_DEN = 1e-12
_VERTICAL_NUM = 1e-6
_CENTER_BAND = 1e-12


class ConicCoeffs(NamedTuple):
    a: float
    b: float
    c: float  # half of the xy coefficient
    d: float
    e: float
    f: float


def evaluate(conic: ConicCoeffs, p: Point) -> float:
    a, b, c, d, e, f = conic
    x, y = p
    return a * x * x + b * y * y + 2.0 * c * x * y + d * x + e * y + f


def membership_residual(conic: ConicCoeffs, p: Point) -> float:
    """|Q(p)| normalized by the largest term magnitude (scale-free)."""
    a, b, c, d, e, f = conic
    x, y = p
    terms = (a * x * x, b * y * y, 2.0 * c * x * y, d * x, e * y, f)
    denom = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(denom, 1e-300)


def is_real_ellipse(conic: ConicCoeffs) -> bool:
    """True iff the coefficients describe a real, non-degenerate ellipse."""
    a, b, c, d, e, f = conic
    if a == 0.0:
        return False
    if a < 0.0:
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    if b <= 0.0 or a * b - c * c <= 0.0:
        return False
    return a * e * e + b * d * d + 4.0 * f * c * c - 2.0 * c * d * e - 4.0 * a * b * f > 0.0


def _gradient(conic: ConicCoeffs, p: Point) -> tuple[float, float, float]:
    a, b, c, d, e, _ = conic
    x, y = p
    gx = 2.0 * a * x + 2.0 * c * y + d
    gy = 2.0 * b * y + 2.0 * c * x + e
    scale = (
        abs(2.0 * a * x) + abs(2.0 * c * y) + abs(d)
        + abs(2.0 * b * y) + abs(2.0 * c * x) + abs(e)
    )
    return gx, gy, max(scale, 1e-300)


def slope_at(conic: ConicCoeffs, p: Point) -> Slope:
    """Implicit-derivative slope dy/dx = -Qx/Qy at a point on the curve.

    Returns vertical when Qy vanishes while Qx does not; raises
    :class:`SingularPoint` when both gradient components vanish.
    """
    gx, gy, scale = _gradient(conic, p)
    if abs(gy) < _VERTICAL_DEN * scale:
        if abs(gx) >= _VERTICAL_NUM * scale:
            return Slope.vertical()
        raise SingularPoint(f"gradient vanishes at {tuple(p)}")
    return Slope.finite(-gx / gy)


def conic_center(conic: ConicCoeffs) -> Point:
    """The unique stationary point of the quadratic form."""
    a, b, c, d, e, _ = conic
    det = a * b - c * c
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    if abs(det) <= _CENTER_BAND * scale * scale:
        raise DegenerateConic("quadratic part has no unique center")
    # Solve [2a 2c; 2c 2b] (x, y) = (-d, -e).
    x = (c * e - b * d) / (2.0 * det)
    y = (c * d - a * e) / (2.0 * det)
    return Point(x, y)


def _homogeneous(conic: ConicCoeffs) -> np.ndarray:
    a, b, c, d, e, f = conic
    return np.array(
        [[a, c, d / 2.0], [c, b, e / 2.0], [d / 2.0, e / 2.0, f]], dtype=float
    )


def transform_conic(conic: ConicCoeffs, m: AffineMap) -> ConicCoeffs:
    """Push the conic forward: p lies on the result iff m^-1(p) lies on the input.

    Implemented as a congruence of the homogeneous symmetric matrix by the
    inverse map, so scale equivalence is preserved.
    """
    minv = invert(m)
    h = np.array(
        [
            [minv.m11, minv.m12, minv.tx],
            [minv.m21, minv.m22, minv.ty],
            [0.0, 0.0, 1.0],
        ]
    )
    q = h.T @ _homogeneous(conic) @ h
    return ConicCoeffs(q[0, 0], q[1, 1], q[0, 1], 2.0 * q[0, 2], 2.0 * q[1, 2], q[2, 2])


def normalize_conic(conic: ConicCoeffs) -> ConicCoeffs:
    """Divide by the largest-magnitude coefficient, making that entry +1."""
    pivot = max(conic, key=abs)
    if pivot == 0.0:
        raise DegenerateConic("all coefficients vanish")
    return ConicCoeffs(*(v / pivot for v in conic))


def conic_close(c1: ConicCoeffs, c2: ConicCoeffs, rtol: float = 1e-9) -> bool:
    """Up-to-scale equality after normalizing by the largest coefficient."""
    n1, n2 = normalize_conic(c1), normalize_conic(c2)
    return all(math.isclose(u, v, rel_tol=rtol, abs_tol=rtol) for u, v in zip(n1, n2))


def full_coefficients(conic: ConicCoeffs) -> tuple[float, float, float, float, float, float]:
    """(A, B, 2C, D, E, F) with the printed (full) xy coefficient."""
    a, b, c, d, e, f = conic
    return (a, b, 2.0 * c, d, e, f)

