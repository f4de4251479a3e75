"""Exact lowest-weight labels of the discrete series.

Every selection rule in the orthogonality and tensor-product modules is an
exact equality between half-integer labels, so a :class:`RepLabel` stores
the integer 2*eta and all label arithmetic happens on that integer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams


def _twice(value) -> int:
    """2 * value for an int, float, Fraction, str or RepLabel, exactly."""
    if isinstance(value, bool):
        raise InvalidParams(f"cannot interpret {value!r} as a half-integer")
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, RepLabel):
        return value.two_eta
    if isinstance(value, Fraction):
        doubled = 2 * value
        if doubled.denominator != 1:
            raise InvalidParams(f"{value} is not a half-integer")
        return int(doubled)
    if isinstance(value, float):
        doubled = 2.0 * value
        try:
            if doubled == round(doubled):
                return int(doubled)
        except (ValueError, OverflowError):  # nan / inf
            pass
        raise InvalidParams(f"{value!r} is not an exact half-integer")
    if isinstance(value, str):
        # Parse "2", "3/2" or "1.5" without rounding.
        s = value.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                return _twice(Fraction(int(num), int(den)))
            if any(ch in s for ch in ".eE"):
                return _twice(float(s))
            return 2 * int(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParams(f"cannot parse {value!r} as a half-integer") from exc
    raise InvalidParams(f"cannot interpret {value!r} as a half-integer")


@dataclass(frozen=True, init=False)
class RepLabel:
    """Lowest-weight label eta of a holomorphic discrete-series representation.

    ``RepLabel(eta)`` takes an int, an exact float, a Fraction, a string such
    as ``"3/2"`` or ``"1.5"``, or a RepLabel; ``RepLabel(two_eta=k)`` takes
    the integer 2*eta, by keyword only, so ``RepLabel(3)`` is eta = 3.  Labels
    below 1 are rejected: the weighted disk inner product degenerates there.
    """

    two_eta: int

    def __init__(self, eta=None, *, two_eta=None) -> None:
        if two_eta is None:
            two_eta = _twice(eta)
        elif eta is not None or isinstance(two_eta, bool) or not isinstance(two_eta, int):
            raise InvalidParams(f"two_eta must be an int given alone, got {two_eta!r}")
        object.__setattr__(self, "two_eta", two_eta)
        if two_eta < 2:
            raise InvalidParams(f"representation label must be >= 1, got {self}")

    def __str__(self) -> str:
        if self.two_eta % 2 == 0:
            return str(self.two_eta // 2)
        return f"{self.two_eta}/2"


def as_rep_label(value) -> RepLabel:
    """Coerce a RepLabel, number or string to a RepLabel."""
    return value if isinstance(value, RepLabel) else RepLabel(value)
