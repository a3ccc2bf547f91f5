"""Exception types shared across the package."""


class MahlerLabError(Exception):
    """Base class for all library errors."""


class NotSymmetric(MahlerLabError):
    """Vertex list or sample table is not closed under x -> -x."""


class DegenerateBody(MahlerLabError):
    """Body has empty interior (affinely dependent vertices, zero semi-axis...)."""


class OriginNotInterior(MahlerLabError):
    """The origin is not an interior point of the body."""


class ZeroVector(MahlerLabError):
    """A direction or query vector is (numerically) zero."""


class SingularMap(MahlerLabError):
    """Linear map is not invertible."""


class NotOnBoundary(MahlerLabError):
    """Query point is not on the boundary within tolerance."""


class BadGridSize(MahlerLabError):
    """Requested sphere grid size is outside the supported range."""


class ClassificationUnstable(MahlerLabError):
    """Too many quadrature nodes sit on a piece boundary."""


class NoConvergence(MahlerLabError):
    """An iterative solver exhausted its budget."""


class NotGeneric(MahlerLabError):
    """The planar field vanishes on the winding contour."""


class NoZeroFound(MahlerLabError):
    """Zero search for the normalization field failed (numerical breakdown)."""


class MembershipViolated(MahlerLabError):
    """A test point fell outside its body beyond tolerance."""


class BadParameter(MahlerLabError):
    """Scalar parameter outside its admissible range."""


class CollinearPoints(MahlerLabError):
    """Two points are linearly dependent; no dual vertex exists."""


class NotNormalized(MahlerLabError):
    """Polygon does not satisfy the normalization preconditions."""


class ParseError(MahlerLabError):
    """Body file is malformed."""


class InvalidBody(MahlerLabError):
    """Body file parses but violates a body invariant."""


class IoError(MahlerLabError):
    """Report could not be written."""
