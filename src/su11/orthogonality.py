"""Orthogonality integrals of matrix elements over the group.

The invariant integral of U^{eta1}_{m m'} times the conjugate of
U^{eta2}_{n n'} equals d_{eta1} * delta_{eta1 eta2} delta_{m n} delta_{m' n'}
with formal dimension d_eta = 2 / (2 eta - 1).  The pipeline here evaluates
the left-hand side in three exact stages:

1.  The two angular integrals are pure phases over full periods, so they are
    never quadratured: they vanish unless eta1 - eta2 = n - m = n' - m'
    exactly (an integer comparison on doubled labels; half-odd differences
    are killed by the 4*pi-period angle).
2.  When the selection passes, the remaining radial integral is a polynomial
    times (1-x)^{m'-m} (1+x)^{eta1+eta2-2}, whose exponents are then
    non-negative integers; the whole integrand is a polynomial of degree
    a + b + m + n, evaluated exactly by a Gauss-Legendre rule of order
    (a + b + m + n) // 2 + 1 or more.  The order is rounded up to a power of
    two, so integrals of nearby degrees share one cached rule.
3.  A seeded Monte Carlo estimate of the raw three-dimensional invariant
    integral provides an independent cross-check that bypasses stage 1.
    Its integrand is taken in polar form: the chart gives |alpha|^2, |z|^2
    and the arguments of alpha and beta directly, the algebraic kernel
    turns them into a sign, a log modulus and a phase per matrix element,
    and the product with the conjugate is one real exp times one cosine.
    On the diagonal the product is |U|^2, which depends on tau alone, so
    only tau is drawn.

Indices with m > m' are mapped to the canonical ordering first; the
magnitude part of a matrix element is symmetric in the index order and the
two parity signs cancel in the product, so the integral is unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, as_count
from .halfint import RepLabel, as_rep_label
from .jacobi import gauss_legendre, jacobi_sequence, log_poch_ratio
from .repmatrix import keep_log_modulus, matrix_element_polar

_MC_CHUNK = 200_000  # points per pairwise sum, and per layout of the stream
_MC_SLICE = 16_384  # points per draw and integrand call, so temporaries stay in cache
_MC_TAU_MAX = 12.0  # boost cutoff of the Monte Carlo box


@dataclass(frozen=True)
class OrthoRequest:
    """Labels and indices of one orthogonality integral; each index a count
    (``errors.as_count``), stored as an int."""

    eta1: RepLabel
    eta2: RepLabel
    m: int
    m_prime: int
    n: int
    n_prime: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta1", as_rep_label(self.eta1))
        object.__setattr__(self, "eta2", as_rep_label(self.eta2))
        for name in ("m", "m_prime", "n", "n_prime"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))


@dataclass(frozen=True)
class OrthoResult:
    """Value of the integral plus the bookkeeping needed to judge it."""

    value: float
    angular_selected: bool
    expected: float
    formal_dimension: Fraction
    order: int  # Gauss-Legendre order of the radial integral; 0 if not selected


def _is_diagonal(req: OrthoRequest) -> bool:
    """(eta1, m, m') = (eta2, n, n'): both factors are one matrix element."""
    return (req.eta1, req.m, req.m_prime) == (req.eta2, req.n, req.n_prime)


def formal_dimension(eta) -> Fraction:
    """Exact formal dimension d_eta = 2 / (2 eta - 1)."""
    label = as_rep_label(eta)
    return Fraction(2, label.two_eta - 1)


def angular_selection(req: OrthoRequest) -> bool:
    """True iff eta1 - eta2 = n - m and eta1 - eta2 = n' - m', exactly."""
    diff = req.eta1.two_eta - req.eta2.two_eta
    return diff == 2 * (req.n - req.m) and diff == 2 * (req.n_prime - req.m_prime)


def radial_integral(req: OrthoRequest) -> float:
    """The surviving 1-D integral, for canonically ordered selected requests.

    Computes integral_{-1}^{1} (1-x)^{m'-m} (1+x)^{eta1+eta2-2}
    P_m^{(m'-m, 2 eta1 - 1)}(x) P_n^{(m'-m, 2 eta2 - 1)}(x) dx.  The selection
    makes both weight exponents non-negative integers, so the integrand is a
    polynomial of degree a + b + m + n, which a Gauss-Legendre rule of order
    need = (a + b + m + n) // 2 + 1 integrates exactly.  The rule used is
    the power of two >= need, exact all the same, so that integrals of
    nearby degrees share one cached rule.  Each request runs one Jacobi
    recurrence: on the diagonal (eta1 = eta2, hence m = n) one sequence
    serves both factors, and across labels one call with a lane per label
    runs to degree max(m, n), with the same bits as two calls.  Raises
    InvalidParams where the Jacobi factors overflow (for example at
    eta = 1, m = a = 300).  Values are cached by the two doubled labels and
    the four indices, up to 1024 of them, and this function and
    ``orthogonality_integral`` read the same entries; refusals are not kept.
    """
    if not angular_selection(req):
        raise InvalidParams("radial_integral requires a request passing angular selection")
    if req.m_prime < req.m or req.n_prime < req.n:
        raise InvalidParams("radial_integral requires m' >= m and n' >= n")
    return _radial_value(req.eta1.two_eta, req.eta2.two_eta,
                         req.m, req.m_prime, req.n, req.n_prime)[0]


@lru_cache(maxsize=1024)
def _radial_value(t1: int, t2: int, m: int, mp: int, n: int, np_: int) -> tuple[float, int]:
    """radial_integral's value and the order of the rule that gave it, for a
    canonical selected request, keyed on its doubled labels and indices.  An
    overflow raises, and lru_cache keeps no exception."""
    a = mp - m
    b = (t1 + t2) // 2 - 2
    need = (a + b + m + n) // 2 + 1
    order = 1 << (need - 1).bit_length()
    x, w = gauss_legendre(order)
    with np.errstate(over="ignore", invalid="ignore"):
        if t1 == t2:  # the diagonal, m = n: one sequence serves both factors
            p1 = p2 = jacobi_sequence(float(a), float(t1 - 1), m, x)[-1]
        else:  # one lane per label, P_m read from the first and P_n from the second
            p = jacobi_sequence(float(a), np.array([[t1 - 1.0], [t2 - 1.0]]), max(m, n), x)
            p1, p2 = p[m][0], p[n][1]
        value = float(np.dot(w * (1.0 - x) ** a * (1.0 + x) ** b, p1 * p2))
    if not math.isfinite(value):
        raise InvalidParams(f"the Jacobi factors of ({m}, {mp}, {n}, {np_}) "
                            "overflow double precision")
    return value, order


def orthogonality_integral(req: OrthoRequest) -> OrthoResult:
    """Full invariant integral: analytic angular deltas times the radial part.

    A request and its transpose (m > m' swapped through the symmetry) share
    one canonical radial integral, and so does ``radial_integral`` called on
    that canonical request: it is computed once and then read from a cache
    that holds up to 1024 radial integrals.
    """
    dim = formal_dimension(req.eta1)
    expected = float(dim) if _is_diagonal(req) else 0.0
    if not angular_selection(req):
        return OrthoResult(0.0, False, expected, dim, 0)
    m, mp, n, np_ = req.m, req.m_prime, req.n, req.n_prime
    if m > mp:
        # Swap both pairs through the min/max symmetry; the parity signs cancel.
        m, mp, n, np_ = mp, m, np_, n
    t1, t2 = req.eta1.two_eta, req.eta2.two_eta
    prefactor = 2.0 ** (2 + m - mp - (t1 + t2) // 2) * math.exp(
        0.5 * (log_poch_ratio(t1, mp, m) + log_poch_ratio(t2, np_, n))
    )
    value, order = _radial_value(t1, t2, m, mp, n, np_)
    return OrthoResult(prefactor * value, True, expected, dim, order)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A seeded Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int


def haar_integrand(req: OrthoRequest, tau, phi, psi):
    """Re(U^{eta1}_{m m'} conj(U^{eta2}_{n n'})) sinh(tau) at chart points.

    The element at (tau, phi, psi) has alpha = cosh(tau/2) e^{i (phi+psi)/2}
    and beta = sinh(tau/2) e^{i (phi-psi)/2}, so its polar data are read off
    the chart without forming either.  With U = s exp(l + i a) for each
    factor, the integrand is s1 s2 exp(l1 + l2) cos(a1 - a2) sinh(tau): one
    real exp and one cosine per point, and no complex array.  A diagonal
    request, (eta1, m, m') = (eta2, n, n'), reads tau only: its integrand is
    |U|^2 sinh(tau) = keep exp(l + l) sinh(tau), with the kernel's keep mask
    and log modulus, since s * s is exactly the mask and the phases cancel.
    It forms no angle and no sign, and ``phi`` and ``psi`` are not read.
    """
    half = 0.5 * tau
    cosh_half = np.cosh(half)
    tanh_half = np.tanh(half)
    abs2_alpha, z2 = cosh_half * cosh_half, tanh_half * tanh_half
    if _is_diagonal(req):
        two_eta, m, d = req.eta1.two_eta, min(req.m, req.m_prime), abs(req.m_prime - req.m)
        jac = jacobi_sequence(float(d), float(two_eta - 1), m, 1.0 - 2.0 * z2)[-1]
        keep, log_mag = keep_log_modulus(two_eta, m, d, np.log(abs2_alpha),
                                         np.log(z2 + (z2 == 0.0)), z2, jac)
        return keep * np.exp(log_mag + log_mag) * np.sinh(tau)
    polar = (abs2_alpha, z2, 0.5 * (phi + psi), 0.5 * (phi - psi))
    s1, l1, a1 = matrix_element_polar(req.eta1, req.m, req.m_prime, *polar)
    s2, l2, a2 = matrix_element_polar(req.eta2, req.n, req.n_prime, *polar)
    return s1 * s2 * np.exp(l1 + l2) * np.cos(a1 - a2) * np.sinh(tau)


def monte_carlo_haar(req: OrthoRequest, samples: int, seed: int) -> MonteCarloEstimate:
    """Monte Carlo estimate of the raw 3-D invariant integral.

    Samples (tau, phi, psi) uniformly on [0, 12] x [0, 2*pi) x [-2*pi, 2*pi)
    and weights by the measure density; the box volume times the density
    leaves an overall factor 12.  Cutting tau at 12 biases the estimate
    low where the integrand decays slowly; the measured relative bias is
    -2.5e-5 at label 1 and (m, m') = (n, n') = (0, 0), -3.5e-3 at (10, 12),
    -4.7e-2 at (40, 47) and -2.2e-1 at (100, 100), but -6.0e-4 at label 3/2
    and (40, 47).  ``verify`` and the benchmark use indices <= 3.  The
    integrand is haar_integrand, in polar form.  ``samples`` is a count
    >= 1 and ``seed`` a count (``errors.as_count``).
    Fixed seed and fixed chunking make the estimate bit-for-bit
    reproducible.  The stream of ``default_rng(seed)`` holds each chunk as
    its ``count`` tau draws, then its ``count`` phi draws, then its ``count``
    psi draws, one 64-bit output per double.  Three generators advanced to
    those offsets draw the chunk slice by slice, and the integrand runs on
    each slice as it is drawn, so no point's value depends on the slice it
    is in and no array but the chunk's values is chunk-sized.  A diagonal
    request, whose integrand reads tau only, builds the tau generator alone:
    the phi and psi runs of the stream are skipped, not consumed, so the
    layout and the estimate are those of a draw of all three.  NumPy does
    not document that default_rng(seed) starts in the state of PCG64(seed)
    or that uniform takes one output per double; the tests check both
    against whole-chunk draws from default_rng(seed).
    """
    samples, seed = as_count(samples, "samples", low=1), as_count(seed, "seed")
    streams = 1 if _is_diagonal(req) else 3  # a diagonal integrand reads tau alone
    phi = psi = 0.0
    total = 0.0
    total_sq = 0.0
    done = 0
    values = np.empty(min(_MC_CHUNK, samples))
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        tau, *angles = (np.random.Generator(np.random.PCG64(seed).advance(3 * done + k * count))
                        for k in range(streams))
        f = values[:count]
        for i in range(0, count, _MC_SLICE):
            n = min(_MC_SLICE, count - i)
            if angles:
                phi = angles[0].uniform(0.0, 2.0 * math.pi, n)
                psi = angles[1].uniform(-2.0 * math.pi, 2.0 * math.pi, n)
            f[i:i + n] = haar_integrand(req, tau.uniform(0.0, _MC_TAU_MAX, n), phi, psi)
        total += float(np.sum(f))
        f *= f  # the same bits as np.sum(f * f), without a second chunk-sized array
        total_sq += float(np.sum(f))
        done += count
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0) / samples
    return MonteCarloEstimate(_MC_TAU_MAX * mean, _MC_TAU_MAX * math.sqrt(variance),
                              samples, seed)
