"""Jacobi polynomials, log-Pochhammer ratios and Gauss-Legendre quadrature.

This is the analytic kernel the representation-theoretic modules sit on:
matrix elements carry a Jacobi polynomial in their radial variable, their
normalization is a square root of factorial/Gamma ratios, and every radial
integral reduces to (1-x)^a (1+x)^b times a polynomial with integers
a, b >= 0.  That whole integrand is a polynomial, so one Gauss-Legendre rule
of the right order evaluates it exactly.

Everything here is a pure function; the cached arrays are read-only, so
concurrent use needs no locking.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, as_count, as_index_array

_TABLE_DEGREE = 100  # a scalar call forms coefficient tables from this degree on
_BOUND = 2.0 ** 53  # the largest |a|, |b| and |x| taken: no coefficient can overflow


def _in_range(v) -> bool:
    """-1 < v <= 2**53, for a float or every entry of an array; never for NaN."""
    if isinstance(v, np.ndarray):
        return bool(np.all((-1.0 < v) & (v <= _BOUND)))
    return -1.0 < v <= _BOUND


def jacobi_sequence(a, b, max_degree: int, x):
    """All Jacobi polynomial values P_0 ... P_max_degree at x.

    Runs the classical three-term recurrence once and returns every degree,
    which is what block assembly and quadrature integrands actually consume.
    An array ``a`` or ``b`` runs one lane per exponent pair, the two
    broadcast together (as many pairs at one x, or one per point, or a
    column of pairs over a row of points); every lane performs the same
    floating-point operations as a scalar call, so its values agree bit for
    bit.  Blocks take a lane per offset ``a``, and a radial integral of two
    labels a lane per ``b``.

    A scalar ``a`` and ``b`` at a scalar ``x`` below degree 100 form each
    step's coefficients inside the loop, on Python floats.  Every other call
    forms them before the loop, as one table with a row per degree and the
    lane axes of an array ``a``, ``b`` or ``x`` last; its fixed twenty or so
    small numpy operations only the longer loops earn back.  Each coefficient
    is the textbook loop's expression, so the values are unchanged to the bit.

    Inputs are bounded by 2**53, which bounds 2*eta - 1 for every label, so
    no coefficient overflows, but the recurrence can.  A call without lanes
    whose last value is not finite is refused with InvalidParams; a step that
    is not finite never becomes finite again, so that one check covers every
    degree.  A lane call runs every lane to ``max_degree``, and a lane that
    overflows holds inf or NaN from there on, without a warning; its caller
    keeps the degrees it needs and checks those.

    Parameters
    ----------
    a : float or ndarray
        First weight exponent(s), each in (-1, 2**53].
    b : float or ndarray
        Second weight exponent(s), each in (-1, 2**53].
    max_degree : int
        Highest degree to evaluate, a count (``errors.as_count``).
    x : float or ndarray
        Evaluation point(s), each with |x| <= 2**53.

    Returns
    -------
    list
        ``[P_0(x), ..., P_max_degree(x)]``, scalars or arrays of the shape
        ``a``, ``b`` and ``x`` broadcast to.
    """
    lanes = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    is_array = lanes or isinstance(x, np.ndarray)
    if not (_in_range(a) and _in_range(b) and _in_range(abs(x))):
        raise InvalidParams(f"need -1 < a, b <= 2**53 and |x| <= 2**53, got ({a}, {b}) at {x}")
    max_degree = as_count(max_degree, "max_degree")
    values = [np.ones(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(x)))
              if is_array else 1.0]
    if max_degree == 0:
        return values
    apb = a + b
    values.append((a + 1.0) + (apb + 2.0) * (x - 1.0) / 2.0)
    if not is_array and max_degree < _TABLE_DEGREE:
        # The textbook loop, on Python floats as the table's rows would be.
        # Its coefficients are the table's expressions below, term for term:
        # an edit to one must be made to the other to keep them bit-identical.
        apb, c4 = float(apb), float(a * a - b * b)
        a, b, x = float(a), float(b), float(x)
        p0, p1 = values
        for n in map(float, range(2, max_degree + 1)):
            two_n = 2.0 * n
            s = two_n + apb
            s_minus_2 = s - 2.0
            p = ((s - 1.0) * (s * s_minus_2 * x + c4) * p1
                 - 2.0 * (n + a - 1.0) * (n + b - 1.0) * s * p0) / (two_n * (n + apb) * s_minus_2)
            p0, p1 = p1, p
            values.append(p)
    else:
        # Rows are degrees 2..max_degree; an array a or b adds its lane axes.
        n = np.arange(2.0, max_degree + 1)
        if lanes:
            n = n.reshape((-1,) + (1,) * max(np.ndim(a), np.ndim(b)))
        two_n = 2.0 * n
        s = two_n + apb
        s_minus_2 = s - 2.0
        c1 = two_n * (n + apb) * s_minus_2
        c2 = s - 1.0
        c3 = s * s_minus_2
        c5 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * s
        if isinstance(x, np.ndarray):
            # The axes of x go between the rows and the lane axes, so x
            # broadcasts as in one row.
            shape = c2.shape[:1] + (1,) * (values[0].ndim + 1 - c2.ndim) + c2.shape[1:]
            c2, c3 = c2.reshape(shape), c3.reshape(shape)
        # c2 (c3 x + c4), in place: the same rounded operations, with no
        # temporary per operation.
        c23 = c3 * x
        c23 += a * a - b * b
        c23 *= c2
        # Scalar rows as Python floats, faster operands than numpy scalars;
        # array rows are stepped in place, so a step allocates only k5 * p0.
        coefficients = iter if lanes else np.ndarray.tolist
        p0, p1 = values
        with np.errstate(over="ignore", invalid="ignore") if is_array else nullcontext():
            for k1, k5, p in zip(coefficients(c1), coefficients(c5),
                                 iter(c23) if is_array else c23.tolist()):
                p *= p1
                p -= k5 * p0
                p /= k1
                p0, p1 = p1, p
                values.append(p)
    last = values[-1]
    if not lanes and not (np.isfinite(last).all() if is_array else math.isfinite(last)):
        raise InvalidParams(f"P_{max_degree}^({a}, {b}) overflows double precision")
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
    if isinstance(n, np.ndarray) or isinstance(m, np.ndarray):
        n, m = as_index_array(n, "n"), as_index_array(m, "m")
        top = int(np.maximum(n, m).max())
    else:
        top = max(as_count(n, "n"), as_count(m, "m"))
    partial = _log_poch_partials(two_eta, 1 << top.bit_length())
    return partial[n] - partial[m]


@lru_cache(maxsize=32, typed=True)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact for degree <= 2*order - 1.

    Built the Golub-Welsch way: the Legendre Jacobi matrix has a zero
    diagonal and off-diagonal k / sqrt(4k^2 - 1); its eigenvalues are the
    nodes and twice the squared first eigenvector components the weights.
    The weight function is 1, so a caller integrating against
    (1-x)^a (1+x)^b puts those factors in its integrand.

    Parameters
    ----------
    order : int
        Number of nodes, a count >= 1 (``errors.as_count``).

    Returns
    -------
    tuple of ndarray
        Read-only ``(nodes, weights)``, nodes ascending.
    """
    order = as_count(order, "order", low=1)
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
