"""Exception types shared across the package.

Everything derives from :class:`GeometryError` (a ``ValueError``), so callers
can catch the whole family with one clause while tests pin the exact type.
"""


class GeometryError(ValueError):
    """Base class for every geometric contract violation."""


class OutOfDomain(GeometryError):
    """An answer's w or t underflowed to zero (or is NaN): its true value is below the float range."""


class NotInterior(GeometryError):
    """A query point is not strictly inside the triangle."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide (within tolerance)."""


class DegenerateConic(GeometryError):
    """The conic is degenerate: all of its coefficients vanish."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are collinear within tolerance."""


class SameSide(GeometryError):
    """Two prescribed tangency points lie on the same triangle side."""


class NotOnSide(GeometryError):
    """A prescribed tangency point does not lie on any side of the triangle."""


class VertexPoint(GeometryError):
    """A prescribed tangency point coincides with a triangle vertex."""


class AmbiguousClassification(GeometryError):
    """Two vertex-line determinants vanish at once; input or tolerance is bad."""


class SolutionCountMismatch(GeometryError):
    """The filtered solution count differs from the theoretical count."""


class ZeroPolynomial(GeometryError):
    """All polynomial coefficients vanish; roots are undefined."""


class NotAnEllipse(GeometryError):
    """A conic expected to be a real ellipse fails the ellipse test."""
