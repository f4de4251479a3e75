"""Tensor products of two discrete-series representations.

The product of two lowest-weight representations decomposes discretely,

    U^{eta1} (x) U^{eta2} = (+)_{n >= 0}  U^{eta1 + eta2 + n},

each summand once.  The certificate is the compact-subgroup character
identity: the product of two characters expands as the geometric series of
characters with labels eta1 + eta2 + n (consecutive terms differ by the
exact factor exp(-i theta)), and the series is certified at the Abel level
because its raw terms all have the same modulus.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from .characters import abel_trace, damped_trace_closed_form, half_sine
from .errors import as_count
from .group import compact_element
from .halfint import RepLabel, as_rep_label


@dataclass(frozen=True)
class DecompositionTerm:
    """One summand of a tensor-product decomposition."""

    eta3: RepLabel
    multiplicity: int


@dataclass(frozen=True)
class Decomposition:
    """Leading part of a decomposition, truncated after ``truncation`` + 1 terms."""

    eta1: RepLabel
    eta2: RepLabel
    terms: tuple
    truncation: int


def multiplicity(eta1, eta2, eta3) -> int:
    """1 when eta3 - eta1 - eta2 is a non-negative integer, else 0; exact."""
    l1, l2, l3 = as_rep_label(eta1), as_rep_label(eta2), as_rep_label(eta3)
    diff = l3.two_eta - l1.two_eta - l2.two_eta
    return 1 if diff >= 0 and diff % 2 == 0 else 0


def decompose(eta1, eta2, n_max: int) -> Decomposition:
    """Terms (eta1 + eta2 + n, 1) for n = 0 ... n_max, ascending.

    ``n_max`` is a count (``errors.as_count``).
    """
    l1, l2 = as_rep_label(eta1), as_rep_label(eta2)
    n_max = as_count(n_max, "n_max")
    base = l1.two_eta + l2.two_eta
    terms = tuple(
        DecompositionTerm(RepLabel(two_eta=base + 2 * n), 1)
        for n in range(n_max + 1)
    )
    return Decomposition(l1, l2, terms, n_max)


def character_product(eta1, eta2, theta: float) -> complex:
    """Closed form -(1 / (4 sin^2(theta/2))) exp(i (1 - eta1 - eta2) theta).

    Same angle domain as ``character_compact``: SingularAngle where
    sin(theta/2) vanishes, UnsupportedClass outside (0, 2*pi).
    """
    l1, l2 = as_rep_label(eta1), as_rep_label(eta2)
    s = half_sine(theta)
    coeff = 0.5 * (2 - l1.two_eta - l2.two_eta)
    return -0.25 / (s * s) * cmath.exp(1j * coeff * theta)


def abel_character_sum(eta1, eta2, theta: float, r: float, n_max: int = 50) -> complex:
    """Damped character series sum_{n = 0}^{n_max} r^n chi^{eta1 + eta2 + n}(h(theta)).

    chi^{eta + n}(h(theta)) = exp(-i (eta + n) theta) / (1 - exp(-i theta)),
    so the series is the damped compact trace ``abel_trace`` of the lowest
    summand, divided by 1 - exp(-i theta).  ``n_max`` is a count
    (``errors.as_count``).
    """
    l1, l2 = as_rep_label(eta1), as_rep_label(eta2)
    n_max = as_count(n_max, "n_max")
    base = RepLabel(two_eta=l1.two_eta + l2.two_eta)
    # abel_trace refuses bad dampings and the angles that character_compact refuses.
    return abel_trace(base, theta, r, n_max + 1) / (1.0 - cmath.exp(-1j * theta))


def abel_character_sum_closed_form(eta1, eta2, theta: float, r: float) -> complex:
    """Geometric closed form chi^{eta1 + eta2}(h(theta)) / (1 - r exp(-i theta)).

    r = 1 gives the Abel limit, which equals ``character_product``.
    """
    l1, l2 = as_rep_label(eta1), as_rep_label(eta2)
    base = RepLabel(two_eta=l1.two_eta + l2.two_eta)
    half_sine(theta)  # the angle guards
    lead = damped_trace_closed_form(base, compact_element(theta), r)
    return lead / (1.0 - cmath.exp(-1j * theta))
