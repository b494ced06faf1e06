"""General conics A x^2 + B y^2 + 2C xy + D x + E y + F = 0.

The cross coefficient is stored halved (the ``c`` field holds C, so the
printed xy coefficient is ``2c``); that convention keeps the classification
determinants AB - C^2 and AE^2 + BD^2 + 4FC^2 - 2CDE - 4ABF in their
textbook shape.  Coefficients are scale-equivalent: k*(a..f) with k != 0 is
the same curve.  Besides the record, the module holds the exact real-ellipse
test, the one writer of an inscribed ellipse's world conic, the oracle's
normalization and the CLI's printed coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def inscribed(param, rows) -> ConicCoeffs:
    """The world conic of the inscribed ellipse ``param`` = (w, t): F = l^2 - 4k beta gamma, with
    l = wt - w beta - t gamma and k = wt(1 - w)(1 - t), Yiu's inconic of the perspector
    (wt : w(1 - t) : (1 - w)t), on ``rows``, the world-to-barycentric functions
    beta = m11 x + m12 y + tx and gamma = m21 x + m22 y + ty of ``affine.map_to_unit``.

    With l = l1 x + l2 y + l0 and g = w tx + t ty, three coefficients take another form of F,
    each chosen against a 60-digit reference: C's wt - 2k as -wt(2wt - 2w - 2t + 1); D and E
    with 2 l1 l0 as 2 l1 wt - 2 l1 g; and F(0) = l0^2 - 4k tx ty, which cancels far from a small
    ellipse, as (w tx - t ty)^2 + 4wt(w + t - wt) tx ty - 2wt g + (wt)^2 where these terms are
    the smaller (tx ty > 0, 2k tx ty > wt g).  On the unit triangle A to E are w^2, t^2,
    -wt(2wt - 2w - 2t + 1), -2w^2 t and -2wt^2, bit for bit.
    """
    (w, t), (m11, m12, m21, m22, tx, ty) = param, rows
    wt, g = w * t, w * tx + t * ty
    k4 = 4.0 * wt * (1.0 - w) * (1.0 - t)
    l1, l2, l0, kb = -(w * m11 + t * m21), -(w * m12 + t * m22), wt - g, k4 * tx * ty
    if tx * ty > 0.0 and kb > 2.0 * wt * g:
        n0 = w * tx - t * ty
        f = n0 * n0 + 4.0 * wt * (w + t * (1.0 - w)) * tx * ty - 2.0 * wt * g + wt * wt
    else:
        f = l0 * l0 - kb
    return tuple.__new__(ConicCoeffs, (
        l1 * l1 - k4 * m11 * m21,
        l2 * l2 - k4 * m12 * m22,
        w * w * m11 * m12 + t * t * m21 * m22 - wt * (2.0 * wt - 2.0 * w - 2.0 * t + 1.0) * (m11 * m22 + m12 * m21),
        2.0 * l1 * w * t - 2.0 * l1 * g - k4 * (m11 * ty + m21 * tx),
        2.0 * l2 * t * w - 2.0 * l2 * g - k4 * (m12 * ty + m22 * tx),
        f,
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

