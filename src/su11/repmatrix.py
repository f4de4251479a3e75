"""Matrix elements of the holomorphic discrete-series operators.

In the normalized monomial basis e_n(z) of the weighted Bergman space, the
operator of a group element g has matrix elements

    U_{n n'}(g) = sqrt(n_<! Gamma(2 eta + n_>) / (n_>! Gamma(2 eta + n_<)))
                  * alpha^{-(2 eta + n_>)} * conj(alpha)^{n_<}
                  * gamma^{n_> - n_<} * P_{n_<}^{(n_> - n_<, 2 eta - 1)}(1 - 2|z|^2),

with z = beta / conj(alpha), n_< = min(n, n'), n_> = max(n, n'), and
gamma = -beta when n' >= n, gamma = conj(beta) when n >= n'.  Because
2*eta is a positive integer, every alpha power is an exact integer power
and no branch cuts arise.

One kernel assembles every entry in log space: with d = n_> - n_<, the
modulus is exp(log_poch / 2 - 2 eta log|alpha| + d log|z| + log|P|) and the
phase is d arg(gamma) - (2 eta + 2 n_< + d) arg(alpha).  No power can
overflow before the others balance it, so there is a single regime for
every index and every tau.  The scalar, batch and block forms all call it,
and a block entry equals the scalar matrix_element bit for bit.  Its first
step, the sign, log modulus and phase before the one complex exp, is public
as matrix_element_polar for callers that need only moduli and phases.

The same element in the hyperbolic-angle chart separates into a magnitude
in x = 1 - 2 tanh^2(tau/2) and pure phases in phi and psi:

    U_{n n'} = s * 2^{(n_< - n_>)/2 - eta} * (same sqrt prefactor)
               * (1-x)^{(n_> - n_<)/2} (1+x)^{eta} P_{n_<}^{(n_> - n_<, 2 eta - 1)}(x)
               * exp(-i (eta + n) phi) * exp(-i (eta + n') psi),

with s = (-1)^{n' - n} for n' >= n and s = +1 otherwise.  The phase split is
the one forced by factorizing the operator as rotation * boost * rotation
(rotations act diagonally with phases exp(-i (eta + n) angle)); it is
cross-checked against the algebraic form in the test suite.  The chart form
does not use the kernel: it is the independent reference the algebraic one
is checked against.

Pure functions throughout; MatrixBlock entries are frozen read-only arrays.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams
from .group import CartanCoords, GroupElement, multiply
from .halfint import RepLabel, as_rep_label
from .jacobi import jacobi_sequence, log_poch_ratio


def _z_squared(alpha, beta):
    """|z|^2 = |beta|^2 / |alpha|^2, z = beta / conj(alpha), in real arithmetic.

    The Jacobi argument is x = 1 - 2|z|^2, and P_{n_<} is sensitive to x, so
    x is formed with three roundings rather than through a complex division.
    """
    return ((beta.real * beta.real + beta.imag * beta.imag)
            / (alpha.real * alpha.real + alpha.imag * alpha.imag))


def _polar(two_eta: int, n_less, offset, upper, abs2_alpha, z2, arg_alpha, arg_beta, jac):
    """(sign, log modulus, phase) of U_{n n'} from the element's polar data.

    The element enters as |alpha|^2, |z|^2 and the arguments of alpha and
    beta; the index data as n_<, d = n_> - n_<, the triangle and the Jacobi
    factor P_{n_<}^{(d, 2 eta - 1)}.  All arguments broadcast; ``upper`` marks
    n' >= n, where gamma = -beta.  The sign is 0 for entries with a zero
    Jacobi factor, or with d > 0 at beta = 0, which keeps the identity block
    exact and compact elements diagonal.  A Jacobi factor beyond double range
    is refused rather than turned into inf or NaN entries.  The masks are
    written as arithmetic on booleans, so a scalar entry costs a handful of
    numpy calls.
    """
    if not np.isfinite(jac).all():
        raise InvalidParams("the Jacobi factor overflows double precision at these indices")
    keep = (jac != 0.0) & ((offset == 0) | (z2 != 0.0))
    # Adding the boolean "== 0" turns a zero into 1, so every log is finite.
    log_mag = (
        0.5 * log_poch_ratio(two_eta, n_less + offset, n_less)
        - 0.5 * two_eta * np.log(abs2_alpha)
        + offset * (0.5 * np.log(z2 + (z2 == 0.0)))
        + np.log(np.abs(jac + (jac == 0.0)))
    )
    # arg(-beta) = arg(beta) + pi and arg(conj(beta)) = -arg(beta); phases
    # are taken on the element, never per entry.
    arg_gamma = (2 * upper - 1) * arg_beta + np.pi * upper
    angle = offset * arg_gamma - (two_eta + 2 * n_less + offset) * arg_alpha
    sign = (1.0 * (jac > 0.0) - (jac < 0.0)) * keep
    return sign, log_mag, angle


def _assemble(two_eta: int, n_less, offset, upper, alpha, beta, jac):
    """U_{n n'} as a complex entry: the polar data of (alpha, beta), then one exp."""
    sign, log_mag, angle = _polar(
        two_eta, n_less, offset, upper,
        alpha.real * alpha.real + alpha.imag * alpha.imag, _z_squared(alpha, beta),
        np.arctan2(alpha.imag, alpha.real), np.arctan2(beta.imag, beta.real), jac)
    # Adding +0.0 turns the -0.0 parts that the sign or underflow leave into +0.0.
    return sign * np.exp(log_mag + 1j * angle) + 0.0


def matrix_element(eta, n: int, n_prime: int, g: GroupElement) -> complex:
    """Matrix element U_{n n'}(g) in the algebraic (alpha, beta) form."""
    label = as_rep_label(eta)
    m, d = min(n, n_prime), abs(n_prime - n)
    if m < 0:
        raise InvalidParams("basis indices must be >= 0")
    xarg = 1.0 - 2.0 * _z_squared(g.alpha, g.beta)
    jac = jacobi_sequence(float(d), float(label.two_eta - 1), m, xarg)[-1]
    return complex(_assemble(label.two_eta, m, d, n_prime >= n, g.alpha, g.beta, jac))


def matrix_element_cartan(eta, n: int, n_prime: int, c: CartanCoords) -> complex:
    """Matrix element in the chart form: explicit magnitude times phases."""
    label = as_rep_label(eta)
    te = label.two_eta
    m, big = min(n, n_prime), max(n, n_prime)
    if m < 0:
        raise InvalidParams("basis indices must be >= 0")
    jac = jacobi_sequence(float(big - m), float(te - 1), m, c.x)[-1]
    if not math.isfinite(jac):
        raise InvalidParams("the Jacobi factor overflows double precision at these indices")
    pref = math.exp(0.5 * log_poch_ratio(te, big, m))
    # 1 - x = 2 tanh^2(tau/2) and 1 + x = 2 sech^2(tau/2), taken from tau:
    # 1 + x formed from the rounded x cancels to 0 once tanh(tau/2) rounds to 1.
    t = math.tanh(0.5 * c.tau)
    e = math.exp(-c.tau)
    one_minus_x = 2.0 * t * t
    one_plus_x = 8.0 * e / (1.0 + e) ** 2
    magnitude = (
        2.0 ** (0.5 * (m - big - te))
        * one_minus_x ** (0.5 * (big - m))
        * one_plus_x ** (0.5 * te)
        * pref
        * jac
    )
    sign = -1.0 if (n_prime > n and (n_prime - n) % 2 == 1) else 1.0
    angle = -0.5 * ((te + 2 * n) * c.phi + (te + 2 * n_prime) * c.psi)
    return sign * magnitude * cmath.exp(1j * angle)


def matrix_element_polar(eta, n: int, n_prime: int, abs2_alpha, z2, arg_alpha, arg_beta):
    """U_{n n'} = sign * exp(log_mag + i angle), returned as (sign, log_mag, angle).

    The element enters through its polar data: |alpha|^2, |z|^2 =
    |beta|^2 / |alpha|^2, arg(alpha) and arg(beta), as scalars or parallel
    arrays.  A caller that needs only moduli and phase differences, such as
    Monte Carlo integration over the group, forms no complex number.  This
    is the kernel that matrix_element exponentiates, for one index pair; it
    refuses a Jacobi factor beyond double range with InvalidParams.
    """
    label = as_rep_label(eta)
    m, d = min(n, n_prime), abs(n_prime - n)
    if m < 0:
        raise InvalidParams("basis indices must be >= 0")
    # An overflowing Jacobi factor is refused by the kernel, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        jac = jacobi_sequence(float(d), float(label.two_eta - 1), m, 1.0 - 2.0 * z2)[-1]
    return _polar(label.two_eta, m, d, n_prime >= n, abs2_alpha, z2, arg_alpha, arg_beta, jac)


def matrix_element_batch(eta, n, n_prime, alpha, beta) -> np.ndarray:
    """Algebraic-form U_{n n'} over arrays of index pairs or of elements.

    Either one index pair is evaluated over parallel arrays of (alpha, beta)
    entries of valid elements, or integer arrays n and n' broadcast over a
    single element, as in a truncated block or a diagonal trace.  The Jacobi
    recurrence runs once, with one lane per offset n_> - n_<, and each entry
    over a single element equals matrix_element bit for bit.
    """
    label = as_rep_label(eta)
    n, n_prime = np.asarray(n), np.asarray(n_prime)
    if np.any(n < 0) or np.any(n_prime < 0):
        raise InvalidParams("basis indices must be >= 0")
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    xarg = 1.0 - 2.0 * _z_squared(alpha, beta)
    if xarg.ndim == 0:
        xarg = float(xarg)
    elif n.ndim or n_prime.ndim:
        raise InvalidParams("index arrays need a single group element")
    m = np.minimum(n, n_prime)
    d = np.abs(n_prime - n)
    b = float(label.two_eta - 1)
    # Lanes past an offset's last needed degree may overflow; they are
    # discarded, and the kernel refuses any kept value that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.min(d) == np.max(d):
            jac = np.asarray(jacobi_sequence(float(np.max(d)), b, int(np.max(m)), xarg))[m]
        else:
            lanes = np.arange(np.max(d) + 1.0)
            jac = np.asarray(jacobi_sequence(lanes, b, int(np.max(m)), xarg))[m, d]
    return _assemble(label.two_eta, m, d, n_prime >= n, alpha, beta, jac)


@dataclass(frozen=True, eq=False)
class MatrixBlock:
    """Finite truncation of an operator to the first ``size`` basis vectors."""

    eta: RepLabel
    size: int
    entries: np.ndarray = field(repr=False)
    group_element: GroupElement


def truncated_operator(eta, g: GroupElement, size: int) -> MatrixBlock:
    """Assemble the size x size block of U(g); entries match matrix_element.

    The block is one matrix_element_batch call over every index pair, so
    entries[i, j] reproduces matrix_element(eta, i, j, g) bit for bit.
    """
    label = as_rep_label(eta)
    if size < 1:
        raise InvalidParams(f"size must be >= 1, got {size}")
    rows, cols = np.indices((size, size))
    out = matrix_element_batch(label, rows, cols, g.alpha, g.beta)
    out.setflags(write=False)
    return MatrixBlock(label, size, out, g)


def unitarity_defect(block: MatrixBlock, k: int) -> float:
    """Max-norm of (B^dag B - I) on the leading k x k corner.

    The defect is pure truncation error; for fixed k it decays like
    size^{2(k-1)} |z|^{2 (size - k)} as the block size grows.  The default
    budget (size 60, k 10) keeps it below 1e-8 for |z| <= 0.6.
    """
    if not 1 <= k <= block.size:
        raise InvalidParams(f"k must lie in [1, size], got {k}")
    b = block.entries
    gram = b.conj().T @ b
    corner = gram[:k, :k] - np.eye(k)
    return float(np.max(np.abs(corner)))


def homomorphism_defect(eta, g1: GroupElement, g2: GroupElement,
                        size: int, k: int) -> float:
    """Max-norm on the k x k corner of U(g1 g2) - U(g1) U(g2), truncated."""
    if not 1 <= k <= size:
        raise InvalidParams(f"k must lie in [1, size], got {k}")
    product = truncated_operator(eta, multiply(g1, g2), size).entries
    composed = truncated_operator(eta, g1, size).entries @ truncated_operator(eta, g2, size).entries
    return float(np.max(np.abs((product - composed)[:k, :k])))
