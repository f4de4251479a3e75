"""Exception types shared across the package, and the rules for counts, indices and numbers."""
import numpy as np


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


def as_count(value, name: str, low: int = 0) -> int:
    """``value`` as a Python int >= low, else InvalidParams naming ``name``.

    The one rule for every count and index argument: an int or a NumPy
    integer, not a bool, and at least ``low``.
    """
    if type(value) is int and value >= low:  # the hot path's case, in one test
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParams(f"{name} must be an int, got {value!r}")
    if value < low:
        raise InvalidParams(f"{name} must be >= {low}, got {value}")
    return int(value)


def as_real(value, name: str, error=InvalidParams) -> float:
    """``value`` as a Python float, else ``error`` naming ``name``.

    The one rule for every real argument: an int, a float, or a NumPy
    integer or float, not a bool.  Each caller passes its own domain error,
    and checks the range itself.
    """
    if type(value) is float:  # the hot path's case, in one test
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_complex(value, name: str) -> complex:
    """``value`` as a Python complex with no -0.0 part, else InvalidParams naming ``name``.

    The one rule for every complex argument: an int, a float, a complex or a
    NumPy number, not a bool or a NumPy timedelta (which NumPy counts as an
    integer).  Adding +0j turns each -0.0 part into +0.0.
    """
    if type(value) is complex:  # the hot path's case, in one test
        return value + 0j
    if isinstance(value, (bool, np.timedelta64)) or not isinstance(
            value, (int, float, complex, np.number)):
        raise InvalidParams(f"{name} must be a number, got {value!r}")
    return complex(value) + 0j


def as_index_array(value, name: str) -> np.ndarray:
    """``value`` as an array of indices, by the rule of ``as_count`` entrywise.

    The dtype must be an integer one, not bool, and every entry >= 0.
    """
    value = np.asarray(value)
    if value.dtype.kind not in "iu":
        raise InvalidParams(f"{name} must be an int, got an array of {value.dtype}")
    if np.any(value < 0):
        raise InvalidParams(f"{name} must be >= 0, got {value.min()}")
    return value
