"""Jacobi polynomials, log-Pochhammer ratios and Gauss-Jacobi quadrature.

This is the analytic kernel the representation-theoretic modules sit on:
matrix elements carry a Jacobi polynomial in their radial variable, their
normalization is a square root of factorial/Gamma ratios, and every radial
integral reduces to a polynomial against the weight (1-x)^a (1+x)^b, which
Gauss-Jacobi quadrature evaluates exactly.

Everything here is a pure function; :class:`QuadratureRule` is frozen after
construction, so concurrent use needs no locking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams


def jacobi_sequence(a, b: float, max_degree: int, x):
    """All Jacobi polynomial values P_0 ... P_max_degree at x.

    Runs the classical three-term recurrence once and returns every degree,
    which is what block assembly and quadrature integrands actually consume.
    An array ``a`` runs one lane per exponent (as many exponents at one x,
    or one per point); every lane performs the same floating-point operations
    as a scalar call, so its values agree bit for bit.

    Parameters
    ----------
    a : float or ndarray
        First weight exponent(s), each > -1.
    b : float
        Second weight exponent, > -1.
    max_degree : int
        Highest degree to evaluate.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    list
        ``[P_0(x), ..., P_max_degree(x)]``, scalars or arrays of the shape
        ``a`` and ``x`` broadcast to.
    """
    is_array = isinstance(a, np.ndarray) or isinstance(x, np.ndarray)
    if (np.min(a) if is_array else a) <= -1.0 or b <= -1.0:
        raise InvalidParams(f"Jacobi exponents must exceed -1, got ({a}, {b})")
    if max_degree < 0:
        raise InvalidParams(f"max_degree must be >= 0, got {max_degree}")
    values = [np.ones(np.broadcast_shapes(np.shape(a), np.shape(x))) if is_array else 1.0]
    if max_degree == 0:
        return values
    apb = a + b
    values.append((a + 1.0) + (apb + 2.0) * (x - 1.0) / 2.0)
    for n in range(2, max_degree + 1):
        c1 = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        c2 = 2.0 * n + apb - 1.0
        c3 = (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c4 = a * a - b * b
        c5 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + apb)
        values.append((c2 * (c3 * x + c4) * values[n - 1] - c5 * values[n - 2]) / c1)
    return values


@lru_cache(maxsize=32)
def _log_poch_partials(two_eta: int, size: int) -> np.ndarray:
    """S_j = sum_{k < j} log1p((2*eta - 1) / (k + 1)) for j < size.

    A longer table extends a shorter one bit for bit.  The cache is bounded
    because a table is as long as the largest index asked for.
    """
    k = np.arange(1.0, size)
    partial = np.concatenate(([0.0], np.cumsum(np.log1p((two_eta - 1) / k))))
    partial.setflags(write=False)
    return partial


def log_poch_ratio(two_eta: int, n, m):
    """log of (m! * Gamma(2*eta + n)) / (n! * Gamma(2*eta + m)).

    The half-power of this ratio is the matrix-element prefactor; keeping it
    in log space lets indices run into the hundreds without Gamma overflow.
    ``two_eta`` is the integer 2*eta of a discrete-series label.

    The ratio telescopes to S_n - S_m, S_j = sum_{k < j} log1p((2*eta - 1) / (k + 1)),
    accurate to ulps of those small sums rather than of lgamma values in the
    thousands.  Integer arrays n, m give it elementwise, bit for bit as scalars.
    """
    if np.minimum(n, m).min() < 0:
        raise InvalidParams("indices must be >= 0")
    top = int(np.maximum(n, m).max())
    partial = _log_poch_partials(two_eta, 1 << top.bit_length())
    return partial[n] - partial[m]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating (1-x)^a (1+x)^b * polynomial on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    weight_exponents: tuple


@lru_cache(maxsize=None)
def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of the given order for the weight (1-x)^a (1+x)^b.

    Built the Golub-Welsch way: the monic-recurrence coefficients form a
    symmetric tridiagonal matrix whose eigenvalues are the nodes and whose
    first eigenvector components give the weights.  Exact (up to round-off)
    for polynomials of degree <= 2*order - 1.

    Parameters
    ----------
    order : int
        Number of nodes, >= 1.
    a, b : float
        Weight exponents, each > -1.

    Returns
    -------
    QuadratureRule
    """
    if order < 1:
        raise InvalidParams(f"order must be >= 1, got {order}")
    if a <= -1.0 or b <= -1.0:
        raise InvalidParams(f"weight exponents must exceed -1, got ({a}, {b})")
    apb = a + b
    diag = np.empty(order)
    offsq = np.empty(order)  # squared off-diagonal terms; offsq[0] holds the 0th moment
    diag[0] = (b - a) / (apb + 2.0)
    offsq[0] = 2.0 ** (apb + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(apb + 2.0)
    )
    if order > 1:
        # i = 1 written with the (1 + a + b) factor cancelled, valid for a + b -> -1.
        offsq[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    for i in range(1, order):
        two_i = 2.0 * i + apb
        diag[i] = (b * b - a * a) / (two_i * (two_i + 2.0))
        if i >= 2:
            offsq[i] = (
                4.0 * i * (i + a) * (i + b) * (i + apb)
                / (two_i * two_i * (two_i * two_i - 1.0))
            )
    matrix = np.diag(diag)
    if order > 1:
        off = np.sqrt(offsq[1:])
        matrix += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(matrix)
    weights = offsq[0] * vectors[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights, (a, b))


def quadrature_order_for_degree(degree: int) -> int:
    """Order exact for a polynomial integrand of the given degree, plus guard."""
    return (degree + 2) // 2 + 2
