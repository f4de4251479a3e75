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
every index and every tau.  The phase is a row phase times a column phase,

    exp(i P(n)) conj(exp(i Q(n))) * exp(i Q(n')),
    P(n) = -(2 eta + 2 n) arg(alpha),   Q(k) = k (arg(beta) - arg(alpha)),

times (-1)^d on the upper triangle, the pi of arg(-beta) taken exactly.  A
block on open index grids thus takes one complex exp per row and per
column.  On the diagonal Q(n) cancels, so the phase there is exp(i P(n))
alone and no angle of size n |arg(beta)| is rounded.  Every complex product
is np.multiply: numpy's array loop may fuse a multiply-add where its scalar
operator does not, and np.multiply gives a lone entry the array loop's
bits.  The scalar, batch and block forms all call the kernel, and a block
entry equals the scalar matrix_element bit for bit.  matrix_element_polar
shares its sign and log modulus and keeps the phase as one angle, for
callers that need only moduli and phase differences.

The same element in the hyperbolic-angle chart separates into a magnitude
in the chart's radial variables |z| = tanh(tau/2) and 1/|alpha| =
sech(tau/2), and pure phases in phi and psi:

    U_{n n'} = s * (same sqrt prefactor)
               * tanh(tau/2)^{n_> - n_<} sech(tau/2)^{2 eta} P_{n_<}^{(n_> - n_<, 2 eta - 1)}(x)
               * exp(-i (eta + n) phi) * exp(-i (eta + n') psi),

with x = 1 - 2 tanh^2(tau/2), s = (-1)^{n' - n} for n' >= n and s = +1
otherwise.  The phase split is the one forced by factorizing the operator
as rotation * boost * rotation (rotations act diagonally with phases
exp(-i (eta + n) angle)); it is cross-checked against the algebraic form in
the test suite.  The chart form does not use the kernel: it is the
independent reference the algebraic one is checked against.

Pure functions throughout; MatrixBlock entries are frozen read-only arrays.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, as_count, as_index_array
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


def keep_log_modulus(two_eta: int, n_less, offset, log_abs2_alpha, log_z2, z2, jac):
    """(keep, log modulus) of U_{n n'}: the kernel's modulus step.

    The element enters as log|alpha|^2, log|z|^2 (0 where z = 0) and |z|^2;
    the index data as n_<, d = n_> - n_< and the Jacobi factor
    P_{n_<}^{(d, 2 eta - 1)}.  All arguments broadcast.  ``keep`` is False
    for entries with a zero Jacobi factor, or with d > 0 at beta = 0, which
    keeps the identity block exact and compact elements diagonal.  The log
    modulus is 0 where ``keep`` is False, so no exp of it overflows at a
    zero entry, and |U_{n n'}| is keep * exp(log modulus).  The Jacobi
    factor is finite: a recurrence that overflows is refused by
    jacobi_sequence, or, for lanes, by matrix_element_batch.  The modulus
    is formed with augmented operators, in place on arrays and rebinding
    scalars, so a block entry and a scalar entry go through the same ufuncs
    in the same order.  Every form of the kernel takes its modulus here, and
    so does the diagonal Monte Carlo integrand, |U|^2, which needs no sign.
    """
    keep = (jac != 0.0) & ((offset == 0) | (z2 != 0.0))
    log_mag = log_poch_ratio(two_eta, n_less + offset, n_less)
    log_mag *= 0.5
    log_mag -= 0.5 * two_eta * log_abs2_alpha
    log_mag += offset * (0.5 * log_z2)
    # Adding the boolean "== 0" turns a zero into 1, so every log is finite.
    log_mag += np.log(np.abs(jac + (jac == 0.0)))
    log_mag *= keep
    return keep, log_mag


def _sign_log_modulus(two_eta: int, n_less, offset, log_abs2_alpha, log_z2, z2, jac):
    """(sign, log modulus) of U_{n n'}, the sign without the triangle's parity.

    The arguments are those of keep_log_modulus.  The sign is that of the
    Jacobi factor where the entry is kept, and 0 where it is not.
    """
    keep, log_mag = keep_log_modulus(two_eta, n_less, offset, log_abs2_alpha, log_z2, z2, jac)
    return (1.0 * (jac > 0.0) - (jac < 0.0)) * keep, log_mag


def _assemble(two_eta: int, n, n_prime, n_less, offset, alpha, beta, jac):
    """U_{n n'} as a complex entry: a real modulus times a row and a column phase.

    The split is the module's: the row phase exp(i P(n)) conj(exp(i Q(n))),
    the column phase exp(i Q(n')) and the exact sign (-1)^d on the upper
    triangle, with exp(i P(n)) alone on the diagonal.  Index arguments
    broadcast, so open grids give a row and a column of phases, and a
    diagonal trace takes one complex exp per entry.
    """
    abs2_alpha = alpha.real * alpha.real + alpha.imag * alpha.imag
    z2 = _z_squared(alpha, beta)
    arg_alpha = np.arctan2(alpha.imag, alpha.real)
    sign, log_mag = _sign_log_modulus(two_eta, n_less, offset, np.log(abs2_alpha),
                                      np.log(z2 + (z2 == 0.0)), z2, jac)
    modulus = np.exp(log_mag)
    # (-1)^d on the upper triangle: offset & (n' > n) is 1 there for odd d.
    modulus *= sign * (1 - 2 * (offset & (n_prime > n)))
    phase = np.exp(1j * (-(two_eta + 2 * n) * arg_alpha))  # exp(i P(n)), the phase where n' = n
    if np.count_nonzero(offset):
        turn = np.arctan2(beta.imag, beta.real) - arg_alpha
        row = np.multiply(phase, np.conj(np.exp(1j * (n * turn))))
        entry = np.multiply(row, np.exp(1j * (n_prime * turn)))
        if isinstance(offset, np.ndarray):  # index arrays may mix diagonal and off-diagonal entries
            np.copyto(entry, phase, where=offset == 0)
        entry *= modulus
    else:
        entry = np.multiply(phase, modulus)
    entry += 0.0  # turns the -0.0 parts that the sign or underflow leave into +0.0
    return entry


def matrix_element(eta, n: int, n_prime: int, g: GroupElement) -> complex:
    """Matrix element U_{n n'}(g) in the algebraic (alpha, beta) form."""
    label = as_rep_label(eta)
    n, n_prime = as_count(n, "n"), as_count(n_prime, "n_prime")
    m, d = min(n, n_prime), abs(n_prime - n)
    xarg = 1.0 - 2.0 * _z_squared(g.alpha, g.beta)
    jac = jacobi_sequence(float(d), float(label.two_eta - 1), m, xarg)[-1]
    return complex(_assemble(label.two_eta, n, n_prime, m, d, g.alpha, g.beta, jac))


def matrix_element_cartan(eta, n: int, n_prime: int, c: CartanCoords) -> complex:
    """Matrix element in the chart form: explicit magnitude times phases."""
    label = as_rep_label(eta)
    te = label.two_eta
    n, n_prime = as_count(n, "n"), as_count(n_prime, "n_prime")
    m, big = min(n, n_prime), max(n, n_prime)
    jac = jacobi_sequence(float(big - m), float(te - 1), m, c.x)[-1]
    pref = math.exp(0.5 * log_poch_ratio(te, big, m))
    # sech(tau/2) as 2 e^{-tau/2} / (1 + e^{-tau}): it underflows to 0 where cosh overflows.
    e = math.exp(-0.5 * c.tau)
    magnitude = math.tanh(0.5 * c.tau) ** (big - m) * (2.0 * e / (1.0 + e * e)) ** te * pref * jac
    sign = -1.0 if (n_prime > n and (n_prime - n) % 2 == 1) else 1.0
    angle = -0.5 * ((te + 2 * n) * c.phi + (te + 2 * n_prime) * c.psi)
    return sign * magnitude * cmath.exp(1j * angle) + 0j  # + 0j turns -0.0 parts into +0.0


def matrix_element_polar(eta, n: int, n_prime: int, abs2_alpha, z2, arg_alpha, arg_beta):
    """U_{n n'} = sign * exp(log_mag + i angle), returned as (sign, log_mag, angle).

    The element enters through its polar data: |alpha|^2, |z|^2 =
    |beta|^2 / |alpha|^2, arg(alpha) and arg(beta), as scalars or parallel
    arrays.  A caller that needs only moduli and phase differences, such as
    Monte Carlo integration over the group, forms no complex number.  The
    sign and log modulus are the kernel's, with the same code; the phase is
    kept as one angle, d arg(gamma) - (2 eta + 2 n_< + d) arg(alpha), with
    the pi of arg(-beta) in it.  jacobi_sequence refuses a Jacobi factor
    beyond double range with InvalidParams.
    """
    label = as_rep_label(eta)
    n, n_prime = as_count(n, "n"), as_count(n_prime, "n_prime")
    m, d = min(n, n_prime), abs(n_prime - n)
    jac = jacobi_sequence(float(d), float(label.two_eta - 1), m, 1.0 - 2.0 * z2)[-1]
    sign, log_mag = _sign_log_modulus(label.two_eta, m, d, np.log(abs2_alpha),
                                      np.log(z2 + (z2 == 0.0)), z2, jac)
    # arg(-beta) = arg(beta) + pi and arg(conj(beta)) = -arg(beta).
    upper = n_prime >= n
    arg_gamma = (2 * upper - 1) * arg_beta + np.pi * upper
    return sign, log_mag, d * arg_gamma - (label.two_eta + 2 * m + d) * arg_alpha


def matrix_element_batch(eta, n, n_prime, alpha, beta) -> np.ndarray:
    """Algebraic-form U_{n n'} over arrays of index pairs or of elements.

    Either one index pair is evaluated over parallel arrays of (alpha, beta)
    entries of valid elements, or integer arrays n and n' broadcast over a
    single element, as in a truncated block (open grids from np.ogrid, a
    column of n and a row of n') or a diagonal trace.  The Jacobi
    recurrence runs once, with one lane per offset n_> - n_<, and each entry
    over a single element equals matrix_element bit for bit.  Lanes past an
    offset's last needed degree may overflow; they are discarded, and a
    kept Jacobi factor beyond double range is refused with InvalidParams.
    Empty index arrays give an empty complex array of their broadcast shape.
    """
    label = as_rep_label(eta)
    n, n_prime = as_index_array(n, "n"), as_index_array(n_prime, "n_prime")
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    xarg = 1.0 - 2.0 * _z_squared(alpha, beta)
    if xarg.ndim == 0:
        xarg = float(xarg)
    elif n.ndim or n_prime.ndim:
        raise InvalidParams("index arrays need a single group element")
    m = np.minimum(n, n_prime)
    if m.size == 0:  # empty index arrays: no entry, so no recurrence
        return np.empty(m.shape, dtype=complex)
    d = np.abs(n_prime - n)
    b = float(label.two_eta - 1)
    if np.min(d) == np.max(d):
        jac = np.asarray(jacobi_sequence(float(np.max(d)), b, int(np.max(m)), xarg))[m]
    else:
        lanes = np.arange(np.max(d) + 1.0)
        jac = np.asarray(jacobi_sequence(lanes, b, int(np.max(m)), xarg))[m, d]
        if not np.isfinite(jac).all():
            raise InvalidParams("the Jacobi factor overflows double precision at these indices")
    return _assemble(label.two_eta, n, n_prime, m, d, alpha, beta, jac)


@dataclass(frozen=True, eq=False)
class MatrixBlock:
    """Finite truncation of an operator to the first ``size`` basis vectors."""

    eta: RepLabel
    size: int
    entries: np.ndarray = field(repr=False)
    group_element: GroupElement


def truncated_operator(eta, g: GroupElement, size: int) -> MatrixBlock:
    """Assemble the size x size block of U(g); entries match matrix_element.

    The block is one matrix_element_batch call on the open index grids
    np.ogrid[:size, :size], so its phases are one row and one column, and
    entries[i, j] reproduces matrix_element(eta, i, j, g) bit for bit.
    """
    label = as_rep_label(eta)
    size = as_count(size, "size", low=1)
    out = matrix_element_batch(label, *np.ogrid[:size, :size], g.alpha, g.beta)
    out.setflags(write=False)
    return MatrixBlock(label, size, out, g)


def unitarity_defect(block, k: int) -> float:
    """Max-norm of (B^dag B - I) on the leading k x k corner.

    The corner needs only the first k columns of B, so ``block`` is a
    MatrixBlock or an array of a block's leading columns, such as
    matrix_element_batch gives on np.ogrid[:size, :k]; both give the same
    bits.  The defect is pure truncation error; for fixed k it decays like
    size^{2(k-1)} |z|^{2 (size - k)} as the block size grows.  The default
    budget (size 60, k 10) keeps it below 1e-8 for |z| <= 0.6.
    """
    k = as_count(k, "k", low=1)
    entries = block.entries if isinstance(block, MatrixBlock) else np.asarray(block)
    if entries.ndim != 2:
        raise InvalidParams(f"need a MatrixBlock or a 2-D array of columns, got {entries.ndim}-D")
    if k > entries.shape[1]:
        raise InvalidParams(f"k must lie in [1, size], got {k}")
    b = entries[:, :k]
    return float(np.max(np.abs(b.conj().T @ b - np.eye(k))))


def homomorphism_defect(eta, g1: GroupElement, g2: GroupElement,
                        size: int, k: int) -> float:
    """Max-norm on the k x k corner of U(g1 g2) - U(g1) U(g2), truncated.

    Only the entries the corner needs are formed: U(g1 g2) on the k x k grid,
    the first k rows of U(g1) and the first k columns of U(g2).  They equal
    the block entries bit for bit, as every matrix_element_batch entry does.
    """
    size, k = as_count(size, "size", low=1), as_count(k, "k", low=1)
    if k > size:
        raise InvalidParams(f"k must lie in [1, size], got {k}")
    label = as_rep_label(eta)
    g = multiply(g1, g2)
    product = matrix_element_batch(label, *np.ogrid[:k, :k], g.alpha, g.beta)
    rows = matrix_element_batch(label, *np.ogrid[:k, :size], g1.alpha, g1.beta)
    cols = matrix_element_batch(label, *np.ogrid[:size, :k], g2.alpha, g2.beta)
    return float(np.max(np.abs(product - rows @ cols)))
