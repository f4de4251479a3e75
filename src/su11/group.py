"""SU(1,1) group elements, coordinate charts and the invariant measure.

Elements are the 2x2 complex matrices ``[[alpha, beta], [conj(beta),
conj(alpha)]]`` with ``|alpha|^2 - |beta|^2 = 1``, stored by the pair
``(alpha, beta)``.  The hyperbolic-angle chart writes every element as a
phase rotation, a boost and a second phase rotation,

    alpha = cosh(tau/2) * exp(i*(phi + psi)/2),
    beta  = sinh(tau/2) * exp(i*(phi - psi)/2),

with ``tau >= 0``, ``phi in [0, 2*pi)`` and ``psi in [-2*pi, 2*pi)``.  The
invariant (Haar) measure in this chart has density ``sinh(tau) / (8*pi^2)``.

All types are immutable values and all operations are pure functions, so
everything here is safe to share between threads.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DeterminantViolation, InvalidParams, UnsupportedClass, as_real

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Construction-time determinant tolerance.  Scaled by |alpha|^2 so that
# legitimate round-off from the hyperbolic chart at large tau is not rejected.
DET_TOL = 1e-12


@dataclass(frozen=True)
class GroupElement:
    """An SU(1,1) element, represented by the matrix entries (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "alpha", complex(self.alpha))
            object.__setattr__(self, "beta", complex(self.beta))
        except (TypeError, ValueError):
            raise InvalidParams(
                f"alpha and beta must be numbers, got {self.alpha!r} and {self.beta!r}"
            ) from None
        # x * x, not x**2: a float power raises OverflowError, a product gives inf.
        a2 = self.alpha.real * self.alpha.real + self.alpha.imag * self.alpha.imag
        b2 = self.beta.real * self.beta.real + self.beta.imag * self.beta.imag
        if not math.isfinite(a2) or not math.isfinite(b2) or not (
            abs(a2 - b2 - 1.0) <= DET_TOL * max(1.0, a2)
        ):
            raise DeterminantViolation(
                f"|alpha|^2 - |beta|^2 = {a2 - b2!r}, expected 1"
            )

    def det(self) -> float:
        """|alpha|^2 - |beta|^2 (equals 1 up to round-off by construction)."""
        return (self.alpha.real * self.alpha.real + self.alpha.imag * self.alpha.imag) - (
            self.beta.real * self.beta.real + self.beta.imag * self.beta.imag
        )


IDENTITY = GroupElement(1.0, 0.0)


def _wrap_phi(value: float) -> float:
    w = math.fmod(value, TWO_PI)
    if w < 0.0:
        w += TWO_PI
    if w >= TWO_PI:
        w = 0.0
    return w


def _wrap_psi(value: float) -> float:
    w = math.fmod(value + TWO_PI, FOUR_PI)
    if w < 0.0:
        w += FOUR_PI
    return w - TWO_PI


@dataclass(frozen=True)
class CartanCoords:
    """Chart coordinates (tau, phi, psi); angles are normalized on construction."""

    tau: float
    phi: float
    psi: float

    def __post_init__(self) -> None:
        tau = as_real(self.tau, "tau")
        phi, psi = as_real(self.phi, "phi"), as_real(self.psi, "psi")
        if not all(math.isfinite(v) for v in (tau, phi, psi)):
            raise InvalidParams(f"chart coordinates must be finite, got ({tau}, {phi}, {psi})")
        if tau < 0.0:
            raise InvalidParams(f"tau must be >= 0, got {tau}")
        wrapped = _wrap_phi(phi)
        # Shift psi by the same 2*pi turns as phi, so alpha and beta keep their sign.
        turns = round((phi - wrapped) / TWO_PI)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "phi", wrapped)
        object.__setattr__(self, "psi", _wrap_psi(psi - TWO_PI * turns))

    @property
    def x(self) -> float:
        """Radial coordinate x = 1 - 2*tanh^2(tau/2) in (-1, 1], x = 1 at tau = 0."""
        t = math.tanh(0.5 * self.tau)
        return 1.0 - 2.0 * t * t


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk the group acts on."""

    z: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        if abs(self.z) >= 1.0:
            raise InvalidParams(f"disk point must satisfy |z| < 1, got |z| = {abs(self.z)}")


def from_cartan(coords, phi: float | None = None, psi: float | None = None) -> GroupElement:
    """Element of the chart point; accepts CartanCoords or (tau, phi, psi).

    A tau past about 711.17, where |alpha|^2 = cosh^2(tau/2) leaves double
    range, is refused with InvalidParams.  alpha and beta have no -0.0 part.
    """
    if not isinstance(coords, CartanCoords):
        if phi is None or psi is None:
            raise InvalidParams("from_cartan expects CartanCoords or (tau, phi, psi)")
        coords = CartanCoords(coords, phi, psi)
    elif phi is not None or psi is not None:
        raise InvalidParams("phi/psi are only accepted together with a scalar tau")
    half = 0.5 * coords.tau
    try:
        alpha = math.cosh(half) * cmath.exp(0.5j * (coords.phi + coords.psi))
        beta = math.sinh(half) * cmath.exp(0.5j * (coords.phi - coords.psi))
        return GroupElement(alpha + 0j, beta + 0j)  # + 0j turns -0.0 parts into +0.0
    except (OverflowError, DeterminantViolation):
        raise InvalidParams(f"|alpha|^2 leaves double range at tau = {coords.tau}") from None


def to_cartan(g: GroupElement) -> CartanCoords:
    """Invert the chart.

    At tau = 0 the chart is degenerate (only phi + psi is determined); the
    canonical choice here is phi = 0 with psi absorbing the whole phase.
    """
    ab = abs(g.beta)
    if ab == 0.0:
        return CartanCoords(0.0, 0.0, 2.0 * cmath.phase(g.alpha))
    # CartanCoords wraps the raw angles and keeps alpha and beta unchanged.
    arg_a = cmath.phase(g.alpha)
    arg_b = cmath.phase(g.beta)
    return CartanCoords(2.0 * math.asinh(ab), arg_a + arg_b, arg_a - arg_b)


def compact_element(theta: float) -> GroupElement:
    """The maximal-compact-subgroup element h(theta) = diag(e^{i theta/2}, e^{-i theta/2})."""
    theta = as_real(theta, "theta", UnsupportedClass)
    if not math.isfinite(theta):
        raise UnsupportedClass(f"theta must be finite, got {theta!r}")
    return GroupElement(cmath.exp(0.5j * theta), 0.0)


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Matrix product; the result stays in the (alpha, beta) form."""
    alpha = g1.alpha * g2.alpha + g1.beta * g2.beta.conjugate()
    beta = g1.alpha * g2.beta + g1.beta * g2.alpha.conjugate()
    return GroupElement(alpha, beta)


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse, (alpha, beta) -> (conj(alpha), -beta)."""
    return GroupElement(g.alpha.conjugate(), -g.beta)


def haar_density(coords) -> float:
    """Invariant-measure density sinh(tau) / (8*pi^2) in d(tau) d(phi) d(psi).

    ``coords`` is a CartanCoords or tau itself.  Like CartanCoords, it
    refuses a tau that is negative, not finite or not a real number with
    InvalidParams, and also one past about 710.5, where sinh(tau) leaves
    double range; tau = -0.0 gives +0.0.
    """
    tau = coords.tau if isinstance(coords, CartanCoords) else as_real(coords, "tau")
    if not 0.0 <= tau < math.inf:
        raise InvalidParams(f"tau must be finite and >= 0, got {tau}")
    try:
        return math.sinh(tau) / (8.0 * math.pi**2) + 0.0  # + 0.0 turns -0.0 into +0.0
    except OverflowError:
        raise InvalidParams(f"sinh(tau) leaves double range at tau = {tau}") from None


def disk_point(g: GroupElement) -> DiskPoint:
    """Image z = beta / conj(alpha) of the disk origin; |z| = tanh(tau/2)."""
    return DiskPoint(g.beta / g.alpha.conjugate())
