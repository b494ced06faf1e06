"""Seeded query generators for the benchmark workloads.

Every input is built from ``random.Random`` seeded with the run's seed and
the block number, with the expected outcome
known by construction, so the checker never has to ask the program what the
right answer is.  Queries are plain dicts of floats in world coordinates;
the program under test receives nothing else.

Points are drawn in the unit triangle and carried to the world triangle by
``p -> a + x (b - a) + y (c - a)``; the world triangle's vertices a, b, c
are the images of (0,0), (1,0), (0,1), which the package names ``origin``,
``right`` and ``top``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

VERTEX_NAMES = ("origin", "right", "top")
UNIT_VERTICES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

# Interior points stay this far (in unit-triangle coordinates) from every side.
POINT_MARGIN = 0.02
# "Clear of a case boundary": generic inputs keep at least this relative
# distance from every vertex line, the j = 0 branch and every vertex direction.
CLEARANCE = 1e-3


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


def _area2(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def _box_triangle(rng: random.Random):
    """Vertices uniform in [-3, 3]^2, rejected until well conditioned.

    Every edge stays within [1, 10] and twice the area at least 2 (the shape
    rule of the package's tests).
    """
    while True:
        pts = [[6.0 * rng.random() - 3.0, 6.0 * rng.random() - 3.0] for _ in range(3)]
        edges = [math.dist(pts[i], pts[(i + 1) % 3]) for i in range(3)]
        if abs(_area2(*pts)) >= 2.0 and min(edges) >= 1.0 and max(edges) <= 10.0:
            return pts


def _pixel_triangle(rng: random.Random):
    """Vertices uniform in [0, 1000]^2; only triangles under half a pixel of area are redrawn.

    Thin triangles and triangles far from the origin relative to their size
    stay in: they are where ROADMAP 4(c) and 4(d) report failures.
    """
    while True:
        pts = [[1000.0 * rng.random(), 1000.0 * rng.random()] for _ in range(3)]
        if abs(_area2(*pts)) >= 1.0:
            return pts


# Every class of every workload holds the three kinds in equal shares.
TRIANGLE_SHARES = {"unit": 1, "box": 1, "pixel": 1}


def make_triangle(rng: random.Random, kind: str):
    if kind == "unit":
        return [list(v) for v in UNIT_VERTICES]
    if kind == "box":
        return _box_triangle(rng)
    if kind == "pixel":
        return _pixel_triangle(rng)
    raise ValueError(f"unknown triangle kind {kind!r}")


def to_world(tri, u):
    (ax, ay), (bx, by), (cx, cy) = tri
    x, y = u
    return [ax + x * (bx - ax) + y * (cx - ax), ay + x * (by - ay) + y * (cy - ay)]


# ---------------------------------------------------------------------------
# Unit-triangle building blocks
# ---------------------------------------------------------------------------


def _interior(rng: random.Random, margin: float = POINT_MARGIN):
    while True:
        x, y = rng.random(), rng.random()
        if x + y > 1.0:
            x, y = 1.0 - x, 1.0 - y
        if x >= margin and y >= margin and x + y <= 1.0 - margin:
            return (x, y)


def _is_interior(p, margin: float = POINT_MARGIN) -> bool:
    return p[0] >= margin and p[1] >= margin and p[0] + p[1] <= 1.0 - margin


def _separated(p1, p2) -> bool:
    return max(abs(p1[0] - p2[0]), abs(p1[1] - p2[1])) >= CLEARANCE


def vertex_line_sines(p1, p2):
    """|sin| of the angle p1-v-p2 at each unit vertex v (0 on a vertex line)."""
    out = []
    for vx, vy in UNIT_VERTICES:
        ux, uy = p1[0] - vx, p1[1] - vy
        wx, wy = p2[0] - vx, p2[1] - vy
        out.append(abs(ux * wy - uy * wx) / (math.hypot(ux, uy) * math.hypot(wx, wy)))
    return out


def j_relative(p1, p2) -> float:
    """Relative size of the pair invariant j that vanishes on the shared-root branch."""
    (x1, y1), (x2, y2) = p1, p2
    u = x2 * (1.0 - x2 - y2) * y1 * y1
    v = x1 * (1.0 - x1 - y1) * y2 * y2
    return abs(u - v) / max(abs(u), abs(v))


def _log_scale(stratum: float, lo_exp: float, hi_exp: float) -> float:
    """10^(lo_exp .. hi_exp) at ``stratum`` in [0, 1)."""
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * stratum)


# ---------------------------------------------------------------------------
# Two-point queries
# ---------------------------------------------------------------------------


def _generic_pair(rng):
    while True:
        p1, p2 = _interior(rng), _interior(rng)
        if (
            _separated(p1, p2)
            and min(vertex_line_sines(p1, p2)) >= CLEARANCE
            and j_relative(p1, p2) >= CLEARANCE
        ):
            return p1, p2, None


def _j_zero_pair(rng):
    """Solve j = 0 as a quadratic in y2 for a random p1 and x2 (positive root)."""
    while True:
        x1, y1 = _interior(rng, margin=0.08)
        x2 = 0.08 + 0.8 * rng.random()
        a = x1 * (1.0 - x1 - y1)
        b = x2 * y1 * y1
        c = -x2 * (1.0 - x2) * y1 * y1
        y2 = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        p1, p2 = (x1, y1), (x2, y2)
        if _is_interior(p2) and _separated(p1, p2) and min(vertex_line_sines(p1, p2)) >= CLEARANCE:
            return p1, p2, None


def _vertex_line_pair(rng, vertex_index: int, stratum: float = 0.0):
    vx, vy = UNIT_VERTICES[vertex_index]
    while True:
        p1 = _interior(rng, margin=0.05)
        s = 0.4 + 0.5 * rng.random()
        p2 = (vx + s * (p1[0] - vx), vy + s * (p1[1] - vy))
        if _is_interior(p2) and _separated(p1, p2):
            return p1, p2, vertex_index


def _near_vertex_line_pair(rng, vertex_index: int, stratum: float):
    """A vertex-line pair with p2 rotated about the vertex by sin(angle) = 10^(-9..-4)."""
    vx, vy = UNIT_VERTICES[vertex_index]
    while True:
        p1, p2, _ = _vertex_line_pair(rng, vertex_index)
        sine = _log_scale(stratum, -9.0, -4.0) * (1.0 if rng.random() < 0.5 else -1.0)
        cosine = math.sqrt(1.0 - sine * sine)
        dx, dy = p2[0] - vx, p2[1] - vy
        q2 = (vx + cosine * dx - sine * dy, vy + sine * dx + cosine * dy)
        if _is_interior(q2):
            return p1, q2, vertex_index


_PAIR_CLASSES = {
    "generic": (lambda rng, i, u: _generic_pair(rng), 4),
    "j_zero": (lambda rng, i, u: _j_zero_pair(rng), 4),
    "vertex_line": (_vertex_line_pair, 2),
    "near_vertex_line": (_near_vertex_line_pair, 4),
}


def pair_query(rng: random.Random, cls: str, tri_kind: str, index: int, stratum: float) -> dict:
    make, expected = _PAIR_CLASSES[cls]
    p1, p2, vertex = make(rng, index % 3, stratum)
    tri = make_triangle(rng, tri_kind)
    q = {
        "family": "two_points",
        "class": cls,
        "tri_kind": tri_kind,
        "triangle": tri,
        "p1": to_world(tri, p1),
        "p2": to_world(tri, p2),
        "expected": expected,
    }
    if vertex is not None:
        q["vertex"] = VERTEX_NAMES[vertex]
    return q


# ---------------------------------------------------------------------------
# Point-slope and tangency queries (built in world coordinates)
# ---------------------------------------------------------------------------


def _vertex_angles(tri, p):
    return [math.atan2(v[1] - p[1], v[0] - p[0]) for v in tri]


def _line_angle_gap(a: float, b: float) -> float:
    """Distance between two undirected line angles, in (0, pi/2]."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


# Interior points tried for a finite or vertical slope before the triangle
# is drawn again.
SLOPE_TRIES = 100


def slope_query(rng: random.Random, cls: str, tri_kind: str, index: int, stratum: float) -> dict:
    tri = make_triangle(rng, tri_kind)
    p = to_world(tri, _interior(rng))
    angles = _vertex_angles(tri, p)
    q = {"family": "point_slope", "class": cls, "tri_kind": tri_kind, "triangle": tri, "p": p}
    if cls in ("finite", "vertical"):
        for _ in range(SLOPE_TRIES):
            angle = math.pi / 2.0 if cls == "vertical" else math.pi * (rng.random() - 0.5)
            if min(_line_angle_gap(angle, a) for a in angles) >= CLEARANCE:
                break
            p = to_world(tri, _interior(rng))
            angles = _vertex_angles(tri, p)
        else:
            # A pixel triangle thin along the slope: from no point tried is
            # the slope clear of every vertex direction, so it holds no query
            # of this class.
            return slope_query(rng, cls, tri_kind, index, stratum)
        q["p"] = p
        q["slope"] = "vertical" if cls == "vertical" else math.tan(angle)
        q["expected"] = 1
    elif cls == "excluded":
        vertex = index % 3
        v = tri[vertex]
        q["slope"] = (v[1] - p[1]) / (v[0] - p[0])
        q["expected"] = 0
        q["vertex"] = VERTEX_NAMES[vertex]
    elif cls == "near_excluded":
        offset = _log_scale(stratum, -8.0, -4.0) * (1.0 if rng.random() < 0.5 else -1.0)
        q["slope"] = math.tan(angles[index % 3] + offset)
        q["expected"] = 1
    else:
        raise ValueError(f"unknown slope class {cls!r}")
    return q


_SIDE_PAIRS = ((0, 1), (0, 2), (1, 2))


def tangency_query(rng: random.Random, cls: str, tri_kind: str, index: int, stratum: float) -> dict:
    """Contact points on two distinct sides; side i runs from vertex i to i+1."""
    tri = make_triangle(rng, tri_kind)
    points = []
    for side in _SIDE_PAIRS[index % 3]:
        s = 0.02 + 0.96 * rng.random()
        a, b = tri[side], tri[(side + 1) % 3]
        points.append([a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])])
    return {
        "family": "tangency",
        "class": cls,
        "tri_kind": tri_kind,
        "triangle": tri,
        "p1": points[0],
        "p2": points[1],
        "expected": 1,
    }


_MAKERS = {"two_points": pair_query, "point_slope": slope_query, "tangency": tangency_query}


# ---------------------------------------------------------------------------
# Query stream
# ---------------------------------------------------------------------------

# Queries per block of the stream.  A run takes as many blocks as it gets
# through, so no query repeats within a run.
BLOCK = 2048


def exact_counts(weights: dict, n: int) -> dict:
    """Split n into integer counts proportional to weights (largest remainder)."""
    total = sum(weights.values())
    raw = {k: v * n / total for k, v in weights.items()}
    counts = {k: int(math.floor(v)) for k, v in raw.items()}
    left = n - sum(counts.values())
    for k in sorted(raw, key=lambda k: (counts[k] - raw[k], k))[:left]:
        counts[k] += 1
    return counts


def build_block(spec: dict, seed: int, block: int) -> list[dict]:
    """Block ``block`` of the workload's query stream for ``seed``: BLOCK queries, shuffled.

    ``spec`` is the workload's entry in ``workloads.json``; class keys are
    ``<family>/<class>``.  Each block holds the exact class shares, each
    class the exact triangle shares, and the near-boundary offsets of a
    class are stratified over their range, so the mix does not drift with
    the number of blocks a run gets through.
    """
    rng = random.Random(f"{seed}/{block}")
    queries = []
    for slot, count in sorted(exact_counts(spec["classes"], BLOCK).items()):
        family, cls = slot.split("/")
        kinds = [k for k, n in sorted(exact_counts(TRIANGLE_SHARES, count).items()) for _ in range(n)]
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            queries.append(_MAKERS[family](rng, cls, kind, i, (i + rng.random()) / count))
    rng.shuffle(queries)
    return queries


def encode(query: dict) -> bytes:
    """The bytes of one query that ``digest`` hashes."""
    return json.dumps(query, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def digest(queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(encode(q))
    return h.hexdigest()
