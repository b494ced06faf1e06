"""General conics A x^2 + B y^2 + 2C xy + D x + E y + F = 0.

The cross coefficient is stored halved (the ``c`` field holds C, so the
printed xy coefficient is ``2c``); that convention keeps the classification
determinants AB - C^2 and AE^2 + BD^2 + 4FC^2 - 2CDE - 4ABF in their
textbook shape.  Coefficients are scale-equivalent: k*(a..f) with k != 0 is
the same curve.  Besides the record, the module holds the exact real-ellipse
test, transport through an affine map, the oracle's normalization and the
CLI's printed coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .affine import AffineMap
from .errors import DegenerateConic


class ConicCoeffs(NamedTuple):
    a: float
    b: float
    c: float  # half of the xy coefficient
    d: float
    e: float
    f: float


def _positive(terms_of, conic: ConicCoeffs) -> bool:
    """Whether sum(terms_of(*conic)) > 0 in exact arithmetic.

    The float sum decides unless it lies within its rounding bound of zero;
    then the terms are summed again on the coefficients as fractions.
    """
    terms = terms_of(*conic)
    total = sum(terms)
    if abs(total) > 1e-14 * sum(abs(v) for v in terms) + 1e-300:
        return total > 0.0
    # Imported here, not at the top: fractions and the decimal module it loads
    # add about 2.5 ms to a cold start, and only a near-zero sum needs them.
    from fractions import Fraction
    return sum(terms_of(*map(Fraction, conic))) > 0


def is_real_ellipse(conic: ConicCoeffs) -> bool:
    """True iff the coefficients describe a real, non-degenerate ellipse.

    The signs of AB - C^2 and of the 3x3 determinant are exact
    (:func:`_positive`): for a small ellipse far from the origin the 3x3
    determinant cancels far below the rounding of its terms, where a float sum
    decides by chance.
    """
    if not all(math.isfinite(v) for v in conic):
        return False
    if conic[0] < 0.0:
        conic = ConicCoeffs(*(-v for v in conic))
    return (
        conic[0] > 0.0
        and conic[1] > 0.0
        and _positive(lambda a, b, c, d, e, f: (a * b, -c * c), conic)
        # -4 times the 3x3 determinant.
        and _positive(
            lambda a, b, c, d, e, f: (a * e * e, b * d * d, 4 * f * c * c, -2 * c * d * e, -4 * a * b * f),
            conic,
        )
    )


def pull_back(conic: ConicCoeffs, h: AffineMap) -> ConicCoeffs:
    """The conic through p iff h(p) lies on the input: Q(h(p)) as a conic in p.

    This is the congruence H^T Q H of the homogeneous symmetric matrix by
    H = [[m11, m12, tx], [m21, m22, ty], [0, 0, 1]], written out in floats in
    the nested order H^T (Q H), which measured more accurate than expanding
    each coefficient into monomials.
    """
    a, b, c, d, e, f = conic
    u1, v1, u2, v2, x0, y0 = h
    # The quadratic part applied to the columns u = (u1, u2) and v = (v1, v2).
    qu1, qu2 = a * u1 + c * u2, c * u1 + b * u2
    qv1, qv2 = a * v1 + c * v2, c * v1 + b * v2
    # Q's gradient at h(0) = (x0, y0).
    gx = 2.0 * (a * x0 + c * y0) + d
    gy = 2.0 * (c * x0 + b * y0) + e
    return tuple.__new__(ConicCoeffs, (
        u1 * qu1 + u2 * qu2,
        v1 * qv1 + v2 * qv2,
        u1 * qv1 + u2 * qv2,
        gx * u1 + gy * u2,
        gx * v1 + gy * v2,
        0.5 * (x0 * (gx + d) + y0 * (gy + e)) + f,
    ))


def normalize_conic(conic: ConicCoeffs) -> ConicCoeffs:
    """Divide by the largest-magnitude coefficient, making that entry +1."""
    pivot = max(conic, key=abs)
    if pivot == 0.0:
        raise DegenerateConic("all coefficients vanish")
    return ConicCoeffs(*(v / pivot for v in conic))


def full_coefficients(conic: ConicCoeffs) -> tuple[float, float, float, float, float, float]:
    """(A, B, 2C, D, E, F) with the printed (full) xy coefficient."""
    a, b, c, d, e, f = conic
    return (a, b, 2.0 * c, d, e, f)

