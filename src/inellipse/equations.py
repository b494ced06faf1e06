"""The two defining equations of the inscribed family, written once.

With Q(x, y) the unit-triangle inscribed conic of parameters (w, t) (see
:func:`inellipse.conic.inscribed`), the query families rest on

    through_point   Q(x, y) = 0                    the ellipse passes through (x, y),
    tangent         -(a Q_x + b Q_y) / 2 = 0       its tangent there runs along (a, b),

each written as a polynomial in (w, t) for a fixed point (and direction).  A
finite slope r is the direction (1, r) and a vertical tangent is (0, 1)
(:class:`inellipse.geom.Slope`), so one equation serves both.  Every
function returns ``(value, d/dw, d/dt, magnitudes)``, or with
``jacobian=False`` only ``(value, magnitudes)``, the same arithmetic without
the partials, for callers that only test a residual.  ``magnitudes`` is the
triple of the equation's term magnitudes grouped by power of w; the
through-point q(t) = (x - t)^2 + 4xy t(1 - t) sums two terms non-negative on
[0, 1], so its magnitude there is q itself, and the value and magnitudes
share (x - t)^2 and t^2 y^2, computed once.  The largest magnitude
normalizes the value into the componentwise backward error of Oettli &
Prager (Numer. Math. 6, 1964); the triple is returned unreduced so that the
closed-form solvers take ``max`` on floats and the oracle takes
``np.maximum`` on arrays.  The arithmetic works on floats and on ndarrays
alike, and the module imports nothing from the package, so the oracle can
share it without importing a solver.
"""

from __future__ import annotations


def through_point(x, y, w, t, jacobian=True):
    """Q(x, y) = q(t) w^2 + 2ty((2x - 1)t - x) w + t^2 y^2, with q(t) = (x - t)^2 + 4xyt(1 - t)."""
    xy4 = 4.0 * x * y
    square, const = (x - t) * (x - t), t * t * y * y
    q = square + xy4 * t * (1.0 - t)
    lin = 2.0 * t * y * ((2.0 * x - 1.0) * t - x)
    value = q * w * w + lin * w + const
    qmag = square + xy4 * abs(t * (1.0 - t))
    mags = (qmag * w * w, abs(lin) * w, const)
    if not jacobian:
        return value, mags
    dq = 2.0 * (t - x) + xy4 * (1.0 - 2.0 * t)
    dlin = 2.0 * y * (2.0 * (2.0 * x - 1.0) * t - x)
    return value, 2.0 * q * w + lin, dq * w * w + dlin * w + 2.0 * t * y * y, mags


def tangent(x, y, a, b, w, t, jacobian=True):
    """-(a Q_x + b Q_y)/2 at (x, y): the tangent of the ellipse there runs along (a, b)."""
    lead = (2.0 * b * t * t - 2.0 * b * t - a) * x + 2.0 * a * t * (t - 1.0) * y + a * t
    mid = a * (2.0 * t - 1.0) * y + b * (2.0 * t - 1.0) * x - b * t
    value = lead * w * w - t * mid * w - b * y * t * t
    lead_mag = (2.0 * abs(b) * (t * t + t) + abs(a)) * x + 2.0 * abs(a) * (t * t + t) * y + abs(a) * t
    mid_mag = abs(2.0 * t - 1.0) * (abs(a) * y + abs(b) * x) + abs(b) * t
    mags = (lead_mag * w * w, mid_mag * t * w, abs(b) * y * t * t)
    if not jacobian:
        return value, mags
    dlead = (4.0 * b * t - 2.0 * b) * x + a * (4.0 * t - 2.0) * y + a
    dmid = 2.0 * a * y + 2.0 * b * x - b
    return value, 2.0 * lead * w - t * mid, dlead * w * w - (mid + t * dmid) * w - 2.0 * b * y * t, mags


def backward_error(equation) -> float:
    """|value| over the largest monomial magnitude, for one float evaluation of either form."""
    m0, m1, m2 = equation[-1]
    return abs(equation[0]) / max(m0, m1, m2, 1e-300)
