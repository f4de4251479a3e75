"""Characters (operator traces) of the discrete-series representations.

The damped diagonal series of any element g sums in closed form, by the
Jacobi generating function (DLMF 18.12.1):

    sum_{n >= 0} r^n U_{nn}(g) = 1 / (rho ((alpha + r conj(alpha) + rho)/2)^{2 eta - 1}),
    rho^2 = (alpha - r conj(alpha))^2 + 4 r |beta|^2,   0 < r <= 1.

At r = 1, rho = 2 (u^2 - 1)^{1/2} with u = Re(alpha), and this is the
character: real for hyperbolic classes (u^2 > 1), complex for elliptic ones
(u^2 < 1).  On the compact subgroup it reduces to

    chi(h(theta)) = exp(i (1 - 2 eta) theta / 2) / (2 i sin(theta/2)).

The operators are never trace class in the absolute sense: the diagonal
series has unit-modulus terms on elliptic classes and terms decaying only
like n^{-1/2} on hyperbolic ones.  The character is the Abel limit of the
diagonal series, and the summation helpers in this module expose exactly
that regularized semantics (damping factor and term count always explicit).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BoundaryConjugacyClass,
    InvalidDamping,
    SingularAngle,
    UnsupportedClass,
    as_count,
    as_real,
)
from .group import TWO_PI, CartanCoords, GroupElement
from .halfint import RepLabel, as_rep_label
from .repmatrix import matrix_element_batch

BOUNDARY_TOL = 1e-9

# The hyperbolic diagonal series converges only conditionally (terms ~ n^{-1/2}).
HYPERBOLIC = "hyperbolic_conditional"
ELLIPTIC = "elliptic_abel"


@dataclass(frozen=True)
class CharacterValue:
    """A character value together with the conjugacy-class regime it came from."""

    value: complex
    regime: str


def damped_trace_closed_form(eta, g: GroupElement, r: float) -> complex:
    """The damped diagonal series sum_{n >= 0} r^n U_{nn}(g) in closed form, r in (0, 1].

    This is the module's generating function, with rho = alpha R for DLMF's
    R.  The one branch rule is Re(rho conj(alpha)) > 0, R's principal root.
    At r = 1 it is the character, and it raises BoundaryConjugacyClass
    within ``BOUNDARY_TOL`` of (Re alpha)^2 = 1 (the parabolic classes).
    Where a partial product of the power half^(1 - 2 eta) leaves double
    range, the power is taken in log space, so a value below double range
    rounds to 0j.
    """
    label = as_rep_label(eta)
    r = as_real(r, "damping", InvalidDamping)
    if not 0.0 < r <= 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1], got {r}")
    u, v = g.alpha.real, g.alpha.imag
    b2 = g.beta.real * g.beta.real + g.beta.imag * g.beta.imag
    # D = u^2 - 1 = |beta|^2 - v^2, taken from the side that cancels less.
    d = u * u - 1.0 if u * u < b2 + v * v else b2 - v * v
    if r == 1.0 and abs(d) <= BOUNDARY_TOL:
        raise BoundaryConjugacyClass(f"(Re alpha)^2 - 1 = {d!r} is too close to 0")
    gap = 1.0 - r
    rho = cmath.sqrt(complex(4.0 * r * d + gap * gap * (u * u - v * v),
                             2.0 * gap * (1.0 + r) * u * v))
    if rho.real * u + rho.imag * v < 0.0:
        rho = -rho
    half = 0.5 * (complex((1.0 + r) * u, gap * v) + rho)
    power = half ** (1 - label.two_eta)
    if not cmath.isfinite(power):  # a partial product of the power left double range
        return cmath.exp((1 - label.two_eta) * cmath.log(half) - cmath.log(rho)) + 0j
    return power / rho + 0j  # + 0j turns -0.0 parts into +0.0


def character(eta, g: GroupElement) -> CharacterValue:
    """Closed-form character at g: ``damped_trace_closed_form`` at r = 1.

    The root takes the sign of Re(alpha) on hyperbolic classes and of
    Im(alpha) on elliptic ones, because the centre acts by (-1)^{2 eta} and
    h(theta) and h(-theta) are different classes.
    """
    value = damped_trace_closed_form(eta, g, 1.0)
    return CharacterValue(value, HYPERBOLIC if abs(g.alpha.real) > 1.0 else ELLIPTIC)


def character_cartan(eta, c: CartanCoords) -> CharacterValue:
    """Character at the chart point c; phi and psi enter only through phi + psi.

    With h = cos((phi + psi)/2) and s = sech(tau/2), Re(alpha) = h / s and
    D = h^2 - s^2 = s^2 ((Re alpha)^2 - 1), so the closed form reads
    chi = s / (2 root) * (s / (h + root))^{2 eta - 1} with root^2 = D, and the
    root takes the sign rules of ``character``.  The base s / (h + root) has
    modulus at most 1, so the power cannot overflow at any tau.
    """
    label = as_rep_label(eta)
    half = 0.5 * (c.phi + c.psi)
    h = math.cos(half)
    e = math.exp(-0.5 * c.tau)
    s = 2.0 * e / (1.0 + e * e)  # sech(tau/2); cosh(tau/2) would overflow past tau ~ 1420
    d = h * h - s * s
    # D / s^2 is (Re alpha)^2 - 1, so the boundary window scales by s^2.
    if abs(d) <= BOUNDARY_TOL * s * s:
        raise BoundaryConjugacyClass(
            f"cos^2((phi + psi)/2) - sech^2(tau/2) = {d!r} is too close to 0")
    if d > 0.0:
        root = math.copysign(math.sqrt(d), h)  # h has the sign of Re(alpha)
        regime = HYPERBOLIC
    else:
        root = 1j * math.copysign(math.sqrt(-d), math.sin(half))  # sign of Im(alpha)
        regime = ELLIPTIC
    value = s / (2.0 * root) * (s / (h + root)) ** (label.two_eta - 1)
    return CharacterValue(complex(value) + 0j, regime)  # + 0j turns -0.0 parts into +0.0


def half_sine(theta: float) -> float:
    """sin(theta/2) for theta in (0, 2*pi), outside the window ``character`` refuses.

    At h(theta), (Re alpha)^2 - 1 = -sin^2(theta/2): SingularAngle where that
    is within BOUNDARY_TOL of 0, else UnsupportedClass for any other angle.
    These are the angle guards of every compact-character formula.
    """
    theta = as_real(theta, "theta", UnsupportedClass)
    if not math.isfinite(theta):
        raise UnsupportedClass(f"theta must be finite, got {theta!r}")
    s = math.sin(0.5 * theta)
    if s * s <= BOUNDARY_TOL:
        raise SingularAngle(f"sin(theta/2)^2 = {s * s!r} is too close to 0 at theta = {theta!r}")
    if not 0.0 < theta < TWO_PI:
        raise UnsupportedClass(f"theta must lie in (0, 2*pi), got {theta!r}")
    return s


def character_compact(eta, theta: float) -> complex:
    """Character on the compact subgroup, theta in (0, 2*pi) away from 0.

    The square-root convention above fixes the sign on (0, 2*pi); outside
    that window sin(theta/2) changes sign and the same expression would need
    a different branch choice, so other angles are refused.
    """
    label = as_rep_label(eta)
    s = half_sine(theta)
    return cmath.exp(0.5j * (1 - label.two_eta) * theta) / (2j * s)


@lru_cache(maxsize=1, typed=True)
def _diagonal(label: RepLabel, terms: int, g: GroupElement) -> np.ndarray:
    """The read-only diagonal U_{nn}(g), n < terms.

    A label compares by two_eta, and equal elements have the same bits.  The
    sums at several dampings read one diagonal, and one is held at a time.
    """
    n = np.arange(terms)
    diagonal = matrix_element_batch(label, n, n, g.alpha, g.beta)
    diagonal.flags.writeable = False
    return diagonal


def _diagonal_sum(eta, g: GroupElement, r: float, terms: int) -> complex:
    """sum_{n < terms} r^n U_{nn}(g), the terms added left to right, n = 0 first.

    np.cumsum adds one term at a time, left to right, and its last value is
    the sum.
    """
    terms = as_count(terms, "terms")
    if terms == 0:
        return 0j
    diagonal = _diagonal(as_rep_label(eta), terms, g)
    return complex(np.cumsum(r ** np.arange(terms) * diagonal)[-1]) + 0j


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
    terms are added left to right, n = 0 first.  Consecutive calls here and in
    ``damped_trace_sum`` with the same (label, element, terms) reuse one
    diagonal; at most one diagonal is held.  ``terms`` is a count
    (``errors.as_count``).
    """
    return _diagonal_sum(eta, g, 1.0, terms)


def abel_trace(eta, theta: float, r: float, terms: int) -> complex:
    """Damped diagonal sum at h(theta): sum_{n < terms} r^n exp(-i (eta + n) theta).

    The elliptic diagonal series has unit-modulus terms, so only this damped
    form converges; as r -> 1 it tends to the compact character, and it
    takes the angles that ``character_compact`` takes.  The terms form one
    geometric sequence: each is one complex exponential exp(n (log r - i
    theta)), and their sum is multiplied by the lead exp(-i eta theta).
    ``terms`` is a count (``errors.as_count``).
    """
    label = as_rep_label(eta)
    r = as_real(r, "damping", InvalidDamping)
    if not 0.0 < r < 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1), got {r}")
    half_sine(theta)
    theta, terms = float(theta), as_count(terms, "terms")  # a NumPy float32 would round the lead
    lead = cmath.exp(-0.5j * label.two_eta * theta)
    # + 0j turns the -0.0 parts of lead * 0j, at terms = 0, into +0.0.
    return lead * complex(np.sum(np.exp(np.arange(terms) * complex(math.log(r), -theta)))) + 0j


def damped_trace_sum(eta, g: GroupElement, r: float, terms: int) -> complex:
    """Damped diagonal sum sum_{n < terms} r^n U_{nn}(g) for arbitrary g.

    This is the Abel-regularized trace: it tends to ``damped_trace_closed_form``
    as terms grow, and that tends to the character as r -> 1.  The terms
    cancel as tau grows, and nothing flags the digits lost.  At (phi, psi) =
    (0.3, -0.7) and r = 0.99 the sum is within 1e-10 relative of the closed
    form for tau <= 4 (4000 terms), 7.9e-10 off at tau = 8 and 1.2e-2 off at
    tau = 20 (20 000 terms).  Consecutive calls with the same (label, element,
    terms), as at several dampings r, reuse one diagonal and differ only in
    the damping; at most one diagonal is held.  ``terms`` is a count
    (``errors.as_count``).
    """
    r = as_real(r, "damping", InvalidDamping)
    if not 0.0 < r < 1.0:
        raise InvalidDamping(f"damping must lie in (0, 1), got {r}")
    return _diagonal_sum(eta, g, r, terms)
