"""The unique inscribed ellipse tangent at prescribed points on two sides.

The contacts t on the horizontal side, w on the vertical side and (x3, y3)
on the hypotenuse of the ellipse with perspector (P^2, Q^2, R^2) satisfy
P^2 : Q^2 = t : 1 - t, P^2 : R^2 = w : 1 - w and R^2 : Q^2 = x3 : y3, so any
two fix the perspector as products of these, with nothing to cancel or divide
(x3 and y3 both: 1 - x3 would lose y3's bits next to the right vertex).

A side point is ``(k, b)``: its contact index k (0 bottom, 1 left, 2
hypotenuse, as :func:`~inellipse.kernel.unit_geometry` orders the contacts)
and its barycentrics b on the origin, right and top vertices, 0 at the
opposite vertex 2 - k.  One product rule serves any two sides in either order.

Checks: that the sides differ; ``world`` tested each point's bands and built
its b from the caller's point's barycentrics, so s and 1 - s come from the world side.
"""

from __future__ import annotations

from .errors import SameSide

_SIDE_NAMES = ("bottom", "left", "hypotenuse")  # y = 0, x = 0, x + y = 1, by contact index


def param_from_tangencies(s1, s2) -> tuple[float, float, float]:
    """The perspector (P^2, Q^2, R^2) of the unique ellipse whose contacts include both side points.

    With i1, i2 the vertices opposite the two sides and m the third vertex,
    P[m] = b1[i2] b2[i1], P[i2] = b1[m] b2[i1] and P[i1] = b2[m] b1[i2].
    """
    (k1, b1), (k2, b2) = s1, s2
    if k1 == k2:
        raise SameSide(f"both tangency points lie on the {_SIDE_NAMES[k1]} side")
    i1, i2 = 2 - k1, 2 - k2
    m = 3 - i1 - i2
    perspector = {m: b1[i2] * b2[i1], i2: b1[m] * b2[i1], i1: b2[m] * b1[i2]}
    return perspector[0], perspector[1], perspector[2]
