"""Independent numerical verification of the closed-form solvers.

Two facilities:

* :func:`verify_inscribed` certifies tangency of a conic to a triangle by
  restricting the quadratic form to each side and checking that the
  restricted quadratic has a double root strictly inside the segment.

* :func:`brute_force_two_points` / :func:`brute_force_point_slope` locate all
  solutions of the through-point / through-point-with-slope systems by a
  dense residual grid over the parameter square followed by damped Newton
  refinement of every local basin, all seeds in one array pass.

The defining equations come from :mod:`inellipse.equations`, which the
solvers share; ``tests/test_equations.py`` derives each of them symbolically
from the inscribed conic, so a transcription error there cannot hide behind
the sharing.  The oracle stays independent in method (grid plus Newton, no
closed form) and never imports a closed-form solver module.
Blind spot: no basin within ``_INTERIOR_MARGIN`` (1e-9) of the square's edge
is kept, and near a slope aimed at a vertex the point-slope solution's
distance to the edge falls like the slope's offset squared, so there the
oracle can miss a solution that the closed form finds correctly.
"""

from __future__ import annotations

import logging
import operator
from typing import NamedTuple, Optional

import numpy as np

from . import equations
from .affine import Triangle, UNIT_TRIANGLE
from .conic import ConicCoeffs, is_real_ellipse, normalize_conic
from .errors import NotAnEllipse
from .geom import Point, Slope, as_point, as_slope, require_distinct, require_interior

log = logging.getLogger(__name__)

# Accepted basins must sit at least this far inside the open parameter square.
_INTERIOR_MARGIN = 1e-9
# Honesty gate: a returned parameter pair must satisfy both normalized
# residuals below this bound.
_HONESTY = 1e-12
# Tangency certificate: each side's normalized discriminant must fall below this.
_TANGENCY = 1e-9
_DEDUPE = 1e-8
_NEWTON_ITERS = 50
_NEWTON_TARGET = 1e-13
# Accepted grid sizes; the ceiling bounds memory (brute_force_two_points).
_GRID_MIN, _GRID_MAX = 64, 2048


class SideReport(NamedTuple):
    """Tangency certificate for one triangle side."""

    residual: float          # normalized |discriminant| of the restricted quadratic
    contact: Optional[Point]  # double-root location (None if the side is degenerate)
    inside: bool             # contact strictly between the side's endpoints


class VerificationReport(NamedTuple):
    sides: tuple[SideReport, SideReport, SideReport]
    passed: bool


def verify_inscribed(conic: ConicCoeffs, tri: Triangle = UNIT_TRIANGLE) -> VerificationReport:
    """Check that an ellipse is tangent to all three sides of ``tri`` (any three vertices), from first principles."""
    verts = tri if isinstance(tri, Triangle) else Triangle(*tri)
    if not is_real_ellipse(conic):
        raise NotAnEllipse(f"{conic} is not a real ellipse")
    a, b, c, d, e, f = normalize_conic(conic)
    if a < 0.0:
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f

    reports = []
    for i in range(3):
        px, py = verts[i]
        qx, qy = verts[(i + 1) % 3]
        dx, dy = qx - px, qy - py
        alpha = a * dx * dx + b * dy * dy + 2.0 * c * dx * dy
        beta = (
            2.0 * a * px * dx + 2.0 * b * py * dy
            + 2.0 * c * (px * dy + py * dx) + d * dx + e * dy
        )
        gamma = a * px * px + b * py * py + 2.0 * c * px * py + d * px + e * py + f
        disc = beta * beta - 4.0 * alpha * gamma
        # Normalize by the squared coefficient size of the restricted
        # quadratic: near-endpoint contacts make beta^2 and 4*alpha*gamma both
        # collapse like s*^2, so dividing by them would amplify round-off.
        denom = max((abs(alpha) + abs(beta) + abs(gamma)) ** 2, 1e-300)
        residual = abs(disc) / denom
        if alpha > 0.0:
            s = -beta / (2.0 * alpha)
            contact = Point(px + s * dx, py + s * dy)
            inside = 0.0 < s < 1.0
        else:
            contact, inside = None, False
        reports.append(SideReport(residual, contact, inside))
    passed = all(r.residual < _TANGENCY and r.inside for r in reports)
    return VerificationReport(tuple(reports), passed)


# ---------------------------------------------------------------------------
# The defining systems, from the shared equations.
# ---------------------------------------------------------------------------


def _backward_errors(system):
    """Elementwise |value| over the largest monomial magnitude of each equation, in either form."""
    return tuple(
        np.abs(value) / np.maximum(np.maximum(np.maximum(m0, m1), m2), 1e-300)
        for value, *_, (m0, m1, m2) in system
    )


def _two_point_system(p1, p2):
    def system(w, t, jacobian=True):
        return (
            equations.through_point(p1.x, p1.y, w, t, jacobian),
            equations.through_point(p2.x, p2.y, w, t, jacobian),
        )

    return system


def _point_slope_system(p, slope):
    x, y = p
    a, b = slope

    def system(w, t, jacobian=True):
        return equations.through_point(x, y, w, t, jacobian), equations.tangent(x, y, a, b, w, t, jacobian)

    return system


def _newton(system, w, t):
    """Damped Newton on the raw 2x2 system from every seed at once.

    Returns, in seed order, the (w, t) of the seeds whose backward errors fell
    below ``_NEWTON_TARGET``.  A seed drops out where a one-seed loop would
    give up on it: a zero or non-finite Jacobian determinant, 30 failed
    halvings of the step, or an iterate outside the box (-0.5, 1.5)^2, whose
    comparisons also fail for NaN and infinities.
    """
    w, t = w.copy(), t.copy()
    converged = np.zeros(w.shape, dtype=bool)
    live = np.arange(w.size)
    for it in range(_NEWTON_ITERS + 1):
        eqs = system(w[live], t[live])
        r1, r2 = _backward_errors(eqs)
        done = np.maximum(r1, r2) < _NEWTON_TARGET
        converged[live[done]] = True
        if it == _NEWTON_ITERS:
            break
        (f1, a, b, _), (f2, c, d, _) = eqs
        det = a * d - b * c
        step = ~done & (det != 0.0) & np.isfinite(det)
        live, f1, f2, a, b, c, d, det = (v[step] for v in (live, f1, f2, a, b, c, d, det))
        dw = -(d * f1 - b * f2) / det
        dt = -(a * f2 - c * f1) / det
        base = f1 * f1 + f2 * f2
        lam = np.ones(live.size)
        searching = np.ones(live.size, dtype=bool)
        for _ in range(30):
            k = np.flatnonzero(searching)
            if k.size == 0:
                break
            (g1, _), (g2, _) = system(w[live[k]] + lam[k] * dw[k], t[live[k]] + lam[k] * dt[k], jacobian=False)
            better = g1 * g1 + g2 * g2 < base[k]
            searching[k[better]] = False
            lam[k[~better]] *= 0.5
        live, lam, dw, dt = (v[~searching] for v in (live, lam, dw, dt))
        w_new, t_new = w[live] + lam * dw, t[live] + lam * dt
        w[live], t[live] = w_new, t_new
        live = live[(-0.5 < w_new) & (w_new < 1.5) & (-0.5 < t_new) & (t_new < 1.5)]
    log.debug("%d of %d seeds converged", converged.sum(), w.size)
    return w[converged], t[converged]


_SUBGRID = 24
_STRIP_DEPTH = 16


def _box_minima(system, w_lo, w_hi, t_lo, t_hi, nw, nt):
    """Strict local minima, in the 8-neighborhood sense, of the residual on a
    grid of cell centres over a box.

    Returns the minima's w, t and residual arrays in row-major order, and the
    residual over the whole grid.
    """
    ws = w_lo + (np.arange(nw) + 0.5) * (w_hi - w_lo) / nw
    ts = t_lo + (np.arange(nt) + 0.5) * (t_hi - t_lo) / nt
    # Broadcasting a w column against a t row evaluates the t-only terms once per column.
    r1, r2 = _backward_errors(system(ws[:, None], ts[None, :], jacobian=False))
    g = r1 * r1 + r2 * r2
    padded = np.full((nw + 2, nt + 2), np.inf)
    padded[1:-1, 1:-1] = g
    minimum = np.ones_like(g, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                minimum &= g < padded[1 + di : nw + 1 + di, 1 + dj : nt + 1 + dj]
    i, j = np.nonzero(minimum)
    return ws[i], ts[j], g[i, j], g


def _run_grid(system, grid_n):
    # Before any array: an integer beyond the float range must not reach 1.0 / grid_n.
    n = operator.index(grid_n) if hasattr(grid_n, "__index__") else 0  # a float, a string or None is 0
    if not _GRID_MIN <= n <= _GRID_MAX:
        raise ValueError(f"grid_n must be from {_GRID_MIN} to {_GRID_MAX}, got {grid_n!r}")
    grid_n = n
    # Newton seeds: each coarse basin center, the minima of a fine sub-grid
    # over its 3x3 neighborhood (one coarse cell can straddle several
    # attractors), and the minima of thin high-resolution strips along the
    # four walls, where solutions of near-degenerate inputs hide between the
    # coarse nodes and the square boundary.
    h = 1.0 / grid_n
    coarse_w, coarse_t, coarse_g, g = _box_minima(system, 0.0, 1.0, 0.0, 1.0, grid_n, grid_n)
    threshold = 10.0 * np.median(g)
    seeds = []
    for w0, t0 in zip(coarse_w[coarse_g < threshold], coarse_t[coarse_g < threshold]):
        sub_w, sub_t, _, _ = _box_minima(
            system,
            max(w0 - 1.5 * h, 0.0), min(w0 + 1.5 * h, 1.0),
            max(t0 - 1.5 * h, 0.0), min(t0 + 1.5 * h, 1.0),
            _SUBGRID, _SUBGRID,
        )
        seeds += [([w0], [t0]), (sub_w, sub_t)]
    band = 3.0 * h
    strips = (
        (0.0, 1.0, 0.0, band, 2 * grid_n, _STRIP_DEPTH),
        (0.0, 1.0, 1.0 - band, 1.0, 2 * grid_n, _STRIP_DEPTH),
        (0.0, band, 0.0, 1.0, _STRIP_DEPTH, 2 * grid_n),
        (1.0 - band, 1.0, 0.0, 1.0, _STRIP_DEPTH, 2 * grid_n),
    )
    for box in strips:
        strip_w, strip_t, strip_g, _ = _box_minima(system, *box)
        seeds.append((strip_w[strip_g < threshold], strip_t[strip_g < threshold]))

    ws, ts = _newton(system, *(np.concatenate(column) for column in zip(*seeds)))
    r1, r2 = _backward_errors(system(ws, ts, jacobian=False))
    m = _INTERIOR_MARGIN
    keep = (m < ws) & (ws < 1.0 - m) & (m < ts) & (ts < 1.0 - m) & (np.maximum(r1, r2) <= _HONESTY)
    found = []
    for w, t in zip(ws[keep].tolist(), ts[keep].tolist()):
        if not any(max(abs(w - u), abs(t - v)) < _DEDUPE for u, v in found):
            found.append((w, t))
    found.sort(key=lambda wt: (wt[1], wt[0]))
    return found


def brute_force_two_points(p1: Point, p2: Point, grid_n: int = 256) -> list[tuple[float, float]]:
    """All (w, t) solving the two-point system, found by grid + Newton.

    Returns (w, t) pairs sorted by (t, w); every returned pair has both
    normalized residuals below 1e-12.  ``grid_n`` is an integer from 64 to
    2048: the coarse pass holds about 80 bytes per cell of the grid_n^2 grid at
    once, so the ceiling bounds it near 340 MB; any other value raises ``ValueError``.
    """
    p1, p2 = as_point(p1), as_point(p2)
    require_interior(p1, p2)
    require_distinct(p1, p2)
    return _run_grid(_two_point_system(p1, p2), grid_n)


def brute_force_point_slope(
    p: Point, slope: Slope, grid_n: int = 256
) -> list[tuple[float, float]]:
    """All (w, t) solving the point-with-slope system; one off the excluded
    slopes, none on them.  The slope passes ``as_slope``, as in the world query;
    ``grid_n`` as in :func:`brute_force_two_points`."""
    p, slope = as_point(p), as_slope(slope)
    require_interior(p)
    return _run_grid(_point_slope_system(p, slope), grid_n)
