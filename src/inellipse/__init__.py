"""Ellipses inscribed in a triangle through prescribed points, slopes, or tangencies.

Three query families on any non-degenerate triangle:

* two interior points  -> four inscribed ellipses through both (two when the
  points are collinear with a vertex);
* an interior point with a prescribed tangent slope -> a unique ellipse, or
  a certified no-solution when the slope aims at a vertex;
* tangency points prescribed on two different sides -> a unique ellipse.

The package namespace is the query API: the world queries
:func:`solve_two_points`, :func:`solve_point_slope` and
:func:`solve_tangency` with their report types, the triangle, the value
types, and the oracle.  A unit-triangle answer is the world answer on
``UNIT_TRIANGLE``.  The world queries take each point into the unit frame
once, as its barycentrics, check every input there, solve in closed form and
carry the answers back as vertex combinations; the internals stay in their
modules (the unit solvers in :mod:`~inellipse.two_points`,
:mod:`~inellipse.point_slope` and :mod:`~inellipse.boundary`, the polynomials
in :mod:`~inellipse.kernel`, the maps and conics in :mod:`~inellipse.affine`
and :mod:`~inellipse.conic`, the defining equations in :mod:`~inellipse.equations`).  :mod:`inellipse.oracle`
provides an independent numerical witness for all of it.  The closed-form
path imports no numpy; the oracle names load :mod:`inellipse.oracle` (and
numpy) on first use, which ``from inellipse import *`` is.

Every value and result type is an immutable NamedTuple: read its fields by
name or unpack it, and derive a changed copy with ``_replace``.  Equality is
tuple equality, so ``Point(0.5, 0.25) == (0.5, 0.25)``.
A :class:`Slope` is its direction (a, b), kept unnormalized as given:
compare two slopes by their ``.value`` (b / a, or None for vertical).
They are not data classes: the ``replace`` and ``asdict`` helpers do not apply.
"""

from .affine import Triangle, UNIT_TRIANGLE
from .conic import ConicCoeffs
from .geom import Point, Slope
from .kernel import EllipseParam
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
    # World queries and their reports.
    "solve_two_points",
    "solve_point_slope",
    "solve_tangency",
    "SolveReport",
    "WorldSolution",
    "Triangle",
    "UNIT_TRIANGLE",
    # Value types.
    "Point",
    "Slope",
    "EllipseParam",
    "ConicCoeffs",
    # The oracle, loaded on first use.
    *sorted(_ORACLE_NAMES),
]
