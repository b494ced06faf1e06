"""Output checker for benchmark queries, written from first principles.

It never calls the package's own certifier (``oracle.verify_inscribed``), so
a change that breaks the oracle cannot hide a wrong answer.  A conic is the
tuple (a, b, c, d, e, f) of ``a x^2 + b y^2 + 2c xy + d x + e y + f = 0``
in world coordinates, as the program returned it.

For each query it checks the solution count against the generator's class,
that each conic is a real ellipse, passes through the given points (and has
the given slope there), is tangent to every side at a point strictly inside
the side, and, for tangency queries, touches the sides at the given points.
"""

from __future__ import annotations

import math

# The package's documented residual tolerance (``Tolerances.residual``).
CHECK_BOUND = 1e-9
# Two returned conics closer than this (after normalization) count as one.
_DISTINCT = 1e-9


def _normalized(conic):
    pivot = max(conic, key=abs)
    if pivot == 0.0:
        return None
    out = [v / pivot for v in conic]
    if out[0] < 0.0:
        out = [-v for v in out]
    return out


def _real_ellipse(conic) -> bool:
    """Positive-definite quadratic part and a negative value at the center."""
    a, b, c, d, e, f = conic
    det = a * b - c * c
    if not (a > 0.0 and b > 0.0 and det > 0.0):
        return False
    x0 = (c * e - b * d) / (2.0 * det)
    y0 = (c * d - a * e) / (2.0 * det)
    return a * x0 * x0 + b * y0 * y0 + 2.0 * c * x0 * y0 + d * x0 + e * y0 + f < 0.0


def point_residual(conic, p) -> float:
    """|Q(p)| over the largest of its six terms."""
    a, b, c, d, e, f = conic
    x, y = p
    terms = (a * x * x, b * y * y, 2.0 * c * x * y, d * x, e * y, f)
    return abs(math.fsum(terms)) / max(max(abs(t) for t in terms), 1e-300)


def slope_residual(conic, p, slope) -> float:
    """Gradient at p against the tangent direction, over its term magnitudes."""
    a, b, c, d, e, _ = conic
    x, y = p
    dx, dy = (0.0, 1.0) if slope == "vertical" else (1.0, slope)
    gx_terms = (2.0 * a * x, 2.0 * c * y, d)
    gy_terms = (2.0 * b * y, 2.0 * c * x, e)
    value = math.fsum(gx_terms) * dx + math.fsum(gy_terms) * dy
    mag = sum(abs(t) for t in gx_terms) * abs(dx) + sum(abs(t) for t in gy_terms) * abs(dy)
    return abs(value) / max(mag, 1e-300)


def side_contact(conic, p, q):
    """Restrict Q to p + s (q - p); return (double-root s, squared half-chord).

    The restricted quadratic is alpha s^2 + beta s + gamma.  At a tangency it
    has a double root; otherwise its roots sit sqrt(disc) / (2 alpha) either
    side of the vertex, so disc / (4 alpha^2) is the squared half-chord in
    units of the side length.  Returns None when alpha is not positive.
    """
    a, b, c, d, e, f = conic
    px, py = p
    ux, uy = q[0] - px, q[1] - py
    alpha = a * ux * ux + b * uy * uy + 2.0 * c * ux * uy
    if not alpha > 0.0:
        return None
    beta = math.fsum((
        2.0 * a * px * ux, 2.0 * b * py * uy, 2.0 * c * px * uy, 2.0 * c * py * ux, d * ux, e * uy,
    ))
    gamma = math.fsum((a * px * px, b * py * py, 2.0 * c * px * py, d * px, e * py, f))
    disc = beta * beta - 4.0 * alpha * gamma
    return -beta / (2.0 * alpha), abs(disc) / (4.0 * alpha * alpha)


def _side_param(p, q, point) -> float:
    ux, uy = q[0] - p[0], q[1] - p[1]
    return ((point[0] - p[0]) * ux + (point[1] - p[1]) * uy) / (ux * ux + uy * uy)


def _side_of(tri, point) -> int:
    """Index i of the side from vertex i to vertex i+1 nearest to the point."""
    best, best_dist = 0, math.inf
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        ux, uy = q[0] - p[0], q[1] - p[1]
        dist = abs((point[0] - p[0]) * uy - (point[1] - p[1]) * ux) / math.hypot(ux, uy)
        if dist < best_dist:
            best, best_dist = i, dist
    return best


def check(query: dict, case: str, conics) -> str | None:
    """None when the program's answer to ``query`` is right, else the reason.

    ``case`` is the report's case tag and ``conics`` the returned world conics.
    """
    expected = query["expected"]
    if len(conics) != expected:
        return f"count: {len(conics)} != {expected}"
    if expected == 0:
        want = f"no_solution:{query['vertex']}"
        return None if case == want else f"case: {case!r} != {want!r}"

    tri = query["triangle"]
    family = query["family"]
    through = [] if family == "tangency" else [query[k] for k in ("p1", "p2", "p") if k in query]
    normalized = []
    for conic in conics:
        n = _normalized([float(v) for v in conic])
        if n is None or not _real_ellipse(n):
            return "ellipse: not a real ellipse"
        for p in through:
            r = point_residual(n, p)
            if not r < CHECK_BOUND:
                return f"through-point: residual {r:.3g}"
        if family == "point_slope":
            r = slope_residual(n, query["p"], query["slope"])
            if not r < CHECK_BOUND:
                return f"slope: residual {r:.3g}"
        contacts = []
        for i in range(3):
            got = side_contact(n, tri[i], tri[(i + 1) % 3])
            if got is None:
                return f"tangency: side {i} restricted quadratic not positive"
            s, chord2 = got
            if not chord2 < CHECK_BOUND:
                return f"tangency: side {i} residual {chord2:.3g}"
            if not 0.0 < s < 1.0:
                return f"contact: side {i} at s={s!r}, outside the open side"
            contacts.append(s)
        if family == "tangency":
            for key in ("p1", "p2"):
                i = _side_of(tri, query[key])
                want = _side_param(tri[i], tri[(i + 1) % 3], query[key])
                if not abs(contacts[i] - want) < CHECK_BOUND:
                    return f"contact-match: side {i} off by {abs(contacts[i] - want):.3g}"
        for m in normalized:
            if max(abs(u - v) for u, v in zip(m, n)) < _DISTINCT:
                return "duplicate: two returned conics coincide"
        normalized.append(n)
    return None
