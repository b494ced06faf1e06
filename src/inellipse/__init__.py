"""Ellipses inscribed in a triangle through prescribed points, slopes, or tangencies.

Three query families on any non-degenerate triangle:

* two interior points  -> four inscribed ellipses through both (two when the
  points are collinear with a vertex);
* an interior point with a prescribed tangent slope -> a unique ellipse, or
  a certified no-solution when the slope aims at a vertex;
* tangency points prescribed on two different sides -> a unique ellipse.

Everything is solved in closed form on the unit triangle and transported by
affine maps; :mod:`inellipse.oracle` provides an independent numerical
witness for all of it.  The closed-form path imports no numpy; the oracle
names below load :mod:`inellipse.oracle` (and numpy) on first use.
"""

from .affine import AffineMap, Triangle, UNIT_TRIANGLE, apply_point, apply_slope, invert, map_to_unit
from .boundary import Side, SidePoint, param_from_tangencies, side_point
from .conic import (
    ConicCoeffs,
    conic_center,
    conic_close,
    evaluate,
    full_coefficients,
    is_real_ellipse,
    membership_residual,
    normalize_conic,
    slope_at,
    transform_conic,
)
from .geom import Point, Slope, Vertex
from .kernel import (
    EllipseParam,
    PairInvariants,
    QuadraticPoly,
    TangencyTriple,
    inscribed_center,
    inscribed_conic,
    pair_invariants,
    poly_B,
    poly_C,
    poly_q,
    poly_R,
    poly_S,
    solve_quadratic,
    tangency_points,
)
from .point_slope import NoSolution, PointSlopeQuery, solve_point_slope_unit, vertex_slopes
from .two_points import (
    PairCase,
    PairKind,
    TwoPointSolution,
    classify_pair,
    residual_system3,
    solve_two_points_unit,
)
from .world import SolveReport, WorldSolution, solve_point_slope, solve_tangency, solve_two_points

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {"VerificationReport", "brute_force_point_slope", "brute_force_two_points", "verify_inscribed"}
)


def __getattr__(name):
    # PEP 562: resolve the oracle names lazily, so importing the package does
    # not import numpy.
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AffineMap",
    "ConicCoeffs",
    "EllipseParam",
    "NoSolution",
    "PairCase",
    "PairInvariants",
    "PairKind",
    "Point",
    "PointSlopeQuery",
    "QuadraticPoly",
    "Side",
    "SidePoint",
    "Slope",
    "SolveReport",
    "TangencyTriple",
    "Triangle",
    "TwoPointSolution",
    "UNIT_TRIANGLE",
    "VerificationReport",
    "Vertex",
    "WorldSolution",
    "apply_point",
    "apply_slope",
    "brute_force_point_slope",
    "brute_force_two_points",
    "classify_pair",
    "conic_center",
    "conic_close",
    "evaluate",
    "full_coefficients",
    "inscribed_center",
    "inscribed_conic",
    "invert",
    "is_real_ellipse",
    "map_to_unit",
    "membership_residual",
    "normalize_conic",
    "pair_invariants",
    "param_from_tangencies",
    "poly_B",
    "poly_C",
    "poly_R",
    "poly_S",
    "poly_q",
    "residual_system3",
    "side_point",
    "slope_at",
    "solve_point_slope",
    "solve_point_slope_unit",
    "solve_quadratic",
    "solve_tangency",
    "solve_two_points",
    "solve_two_points_unit",
    "tangency_points",
    "transform_conic",
    "verify_inscribed",
    "vertex_slopes",
]
