"""Exception types shared across the package."""


class Su11Error(ValueError):
    """Base class for every error raised by this package."""


class DeterminantViolation(Su11Error):
    """Input pair (alpha, beta) does not satisfy |alpha|^2 - |beta|^2 = 1."""


class InvalidParams(Su11Error):
    """Parameters outside the validity domain of an operation."""


class BoundaryConjugacyClass(Su11Error):
    """Character requested on a parabolic (boundary) conjugacy class."""


class UnsupportedClass(Su11Error):
    """Compact angle that is non-finite or outside (0, 2*pi)."""


class SingularAngle(Su11Error):
    """Compact angle at which the requested quantity is singular."""


class InvalidDamping(Su11Error):
    """Abel damping factor outside (0, 1) for a sum, or (0, 1] for a closed form."""
