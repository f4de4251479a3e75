"""Characters (operator traces) of the discrete-series representations.

For a group element with u = Re(alpha) the closed form is

    chi(g) = (1/2) * (u^2 - 1)^{-1/2} * (u + (u^2 - 1)^{1/2})^{1 - 2 eta},

real for hyperbolic classes (u > 1) and complex for elliptic ones
(u^2 < 1), where the root is taken as +i*sqrt(1 - u^2).  On the compact
subgroup this reduces to

    chi(h(theta)) = exp(i (1 - 2 eta) theta / 2) / (2 i sin(theta/2)).

The operators are never trace class in the absolute sense: the diagonal
series has unit-modulus terms on elliptic classes and terms decaying only
like n^{-1/2} on hyperbolic ones.  The closed forms above are the Abel
limits of the diagonal series, and the summation helpers in this module
expose exactly that regularized semantics (damping factor and term count
always explicit).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryConjugacyClass,
    InvalidDamping,
    InvalidParams,
    SingularAngle,
    UnsupportedClass,
)
from .group import TWO_PI, GroupElement
from .halfint import as_rep_label
from .repmatrix import matrix_element_batch

BOUNDARY_TOL = 1e-9
_SIN_TOL = 1e-12

# The hyperbolic diagonal series converges only conditionally (terms ~ n^{-1/2}).
HYPERBOLIC = "hyperbolic_conditional"
ELLIPTIC = "elliptic_abel"


@dataclass(frozen=True)
class CharacterValue:
    """A character value together with the conjugacy-class regime it came from."""

    value: complex
    regime: str


def character(eta, g: GroupElement) -> CharacterValue:
    """Closed-form character at g, branching on the class of Re(alpha).

    Raises BoundaryConjugacyClass within ``BOUNDARY_TOL`` of (Re alpha)^2 = 1
    (the parabolic classes, where the formula is genuinely singular) and
    UnsupportedClass for Re(alpha) < -1, where the sign of the square root
    is not pinned down by the elliptic-side convention.
    """
    label = as_rep_label(eta)
    u = g.alpha.real
    disc = u * u - 1.0
    if abs(disc) <= BOUNDARY_TOL:
        raise BoundaryConjugacyClass(f"(Re alpha)^2 - 1 = {disc!r} is too close to 0")
    if u < -1.0:
        raise UnsupportedClass("characters with Re(alpha) < -1 are not implemented")
    if disc > 0.0:
        root = math.sqrt(disc)
        value = complex(0.5 / root * (u + root) ** (1 - label.two_eta))
        return CharacterValue(value, HYPERBOLIC)
    root = 1j * math.sqrt(-disc)
    value = 0.5 / root * (u + root) ** (1 - label.two_eta)
    return CharacterValue(value, ELLIPTIC)


def character_cartan(eta, x: float, phi: float, psi: float) -> CharacterValue:
    """Character in chart coordinates; phi and psi enter only through phi + psi."""
    label = as_rep_label(eta)
    if not -1.0 < x <= 1.0:
        raise InvalidParams(f"x must lie in (-1, 1], got {x}")
    big_phi = phi + psi
    delta = math.cos(big_phi) - x
    # delta / (1 + x) equals (Re alpha)^2 - 1, so scale the boundary window by 1 + x.
    if abs(delta) <= BOUNDARY_TOL * (1.0 + x):
        raise BoundaryConjugacyClass(f"cos(phi + psi) - x = {delta!r} is too close to 0")
    half = math.sqrt(2.0) * math.cos(0.5 * big_phi)
    scale = 0.5 * (1.0 + x) ** (0.5 * label.two_eta)
    if delta > 0.0:
        if half < 0.0:
            raise UnsupportedClass("characters with Re(alpha) < -1 are not implemented")
        root = math.sqrt(delta)
        value = complex(scale / root * (half + root) ** (1 - label.two_eta))
        return CharacterValue(value, HYPERBOLIC)
    root = 1j * math.sqrt(-delta)
    value = scale / root * (half + root) ** (1 - label.two_eta)
    return CharacterValue(value, ELLIPTIC)


def _half_sine(theta: float) -> float:
    """sin(theta/2); a non-finite angle names no class and is refused."""
    if not math.isfinite(theta):
        raise UnsupportedClass(f"theta must be finite, got {theta!r}")
    return math.sin(0.5 * theta)


def character_compact(eta, theta: float) -> complex:
    """Character on the compact subgroup, theta in (0, 2*pi) away from 0.

    The square-root convention above fixes the sign on (0, 2*pi); outside
    that window sin(theta/2) changes sign and the same expression would need
    a different branch choice, so other angles are refused.
    """
    label = as_rep_label(eta)
    s = _half_sine(theta)
    if abs(s) < _SIN_TOL:
        raise SingularAngle(f"sin(theta/2) vanishes at theta = {theta!r}")
    if not 0.0 < theta < TWO_PI:
        raise UnsupportedClass(f"theta must lie in (0, 2*pi), got {theta!r}")
    return cmath.exp(0.5j * (1 - label.two_eta) * theta) / (2j * s)


def _diagonal_sum(eta, g: GroupElement, r: float, terms: int) -> complex:
    """sum_{n < terms} r^n U_{nn}(g), the terms added in order, n = 0 first."""
    if terms < 0:
        raise InvalidParams(f"terms must be >= 0, got {terms}")
    if terms == 0:
        return 0j
    n = np.arange(terms)
    return sum((r ** n * matrix_element_batch(eta, n, n, g.alpha, g.beta)).tolist(), 0j)


def trace_partial_sum(eta, g: GroupElement, terms: int) -> complex:
    """Partial sum of the diagonal matrix elements, sum_{n < terms} U_{nn}(g).

    On hyperbolic classes the terms decay only like n^{-1/2}, so these raw
    sums converge conditionally to the closed-form character, with an error
    of order terms^{-1/2} (about 1e-1 at 60 terms); their limit has to be
    extracted from the sequence of partial sums, or reached through
    ``damped_trace_sum``.  On elliptic classes the terms have unit modulus
    and the partial sums do not converge.

    The diagonal comes from one Jacobi recurrence, so the cost is O(terms);
    each term equals ``matrix_element(eta, n, n, g)`` bit for bit and the
    terms are added in order, n = 0 first.
    """
    return _diagonal_sum(eta, g, 1.0, terms)


def abel_trace(eta, theta: float, r: float, terms: int) -> complex:
    """Damped diagonal sum at h(theta): sum_{n < terms} r^n exp(-i (eta + n) theta).

    The elliptic diagonal series has unit-modulus terms, so only this damped
    form converges; as r -> 1 it tends to the compact character.
    """
    label = as_rep_label(eta)
    if not 0.0 < r < 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1), got {r}")
    if abs(_half_sine(theta)) < _SIN_TOL:
        raise SingularAngle(f"sin(theta/2) vanishes at theta = {theta!r}")
    if terms < 0:
        raise InvalidParams(f"terms must be >= 0, got {terms}")
    n = np.arange(terms)
    eta_value = 0.5 * label.two_eta
    return complex(np.sum(r**n * np.exp(-1j * (eta_value + n) * theta)))


def abel_trace_closed_form(eta, theta: float, r: float) -> complex:
    """Geometric closed form exp(-i eta theta) / (1 - r exp(-i theta)) of the damped sum.

    r = 1 gives the Abel limit, which equals the compact character; it is
    singular where sin(theta/2) vanishes.
    """
    label = as_rep_label(eta)
    if not 0.0 < r <= 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1], got {r}")
    if abs(_half_sine(theta)) < _SIN_TOL and r == 1.0:
        raise SingularAngle(f"sin(theta/2) vanishes at theta = {theta!r}")
    eta_value = 0.5 * label.two_eta
    return cmath.exp(-1j * eta_value * theta) / (1.0 - r * cmath.exp(-1j * theta))


def damped_trace_sum(eta, g: GroupElement, r: float, terms: int) -> complex:
    """Damped diagonal sum sum_{n < terms} r^n U_{nn}(g) for arbitrary g.

    This is the Abel-regularized trace; for hyperbolic classes its r -> 1
    limit is the closed-form character.  The raw (r = 1) partial sums
    converge there too, but only at the slow n^{-1/2} rate of Jacobi
    polynomial decay, so a check against the closed form either
    extrapolates this damped sum to r -> 1 or accelerates the sequence of
    raw partial sums (``trace_partial_sum``); it never compares one raw
    partial sum directly.
    """
    if not 0.0 < r < 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1), got {r}")
    return _diagonal_sum(eta, g, r, terms)
