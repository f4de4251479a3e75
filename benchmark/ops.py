"""Seeded op lists for the three workloads, and the su11 calls each op makes.

An op list is a pure function of the workload and the seed: every draw comes
from ``random.Random`` seeded with a string, so it repeats across Python
versions and platforms.  Each op of a workload has the same make-up (the same
calls with the same sizes); only labels, group elements and indices are
drawn.  A round is the seeded ops followed by one fault op, whose inputs are
fixed and do not depend on the seed: it exercises a known fault of the
program and fails every time until that fault is mended.

Ops call su11 through the ``api`` argument (the ``su11`` package, or the same
package with tracing wrappers installed), never through names bound at
import, so the traced run sees every call.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

LABELS = ("1", "3/2", "2", "5/2", "3")
TWO_PI = 2.0 * math.pi
SEEDED_OPS = 7  # seeded ops per round; the fault op makes it 8

# operators: blocks on both sides of the direct/log-space switch (a block of
# size <= 171 is assembled directly, a larger one in log space).
DIRECT_SIZE = 160
LOG_SIZE = 180
HOM_SIZE = 60
CORNER = 10
CELLS = 12  # checked entries of each block
SCALARS = 256  # scalar matrix_element calls per op
SCALAR_INDEX_MAX = 200
SCALAR_TAU_MAX = 14.0

# series-quadrature
TRACE_TERMS = 200
DAMPINGS = (0.95, 0.97, 0.99)
DAMPED_TERMS = 4000
ABEL_TERMS = 20_000
TENSOR_TERMS = 5000
DIAGONAL_INTEGRALS = 12
CROSS_INTEGRALS = 6
UNSELECTED_INTEGRALS = 4
INDEX_MAX = 55
OFFSET_MAX = 8  # a = |m' - m| of the seeded integrals
MC_SAMPLES = 40_000

# Fault F2: the direct path of matrix_element overflows to inf * 0 = NaN.
F2_SCALARS = (("1", 150, 150, (11.0, 0.3, 0.2)), ("1", 50, 50, (30.0, 0.3, 0.2)))
# Fault F1: Golub-Welsch weights lose relative accuracy at large m' - m.
F1_INTEGRALS = (("1", "1", 22, 59, 22, 59), ("1", "1", 46, 80, 46, 80),
                ("1", "1", 100, 150, 100, 150))


@dataclass(frozen=True)
class Chart:
    """Hyperbolic-angle chart point (tau, phi, psi) of a group element."""

    tau: float
    phi: float
    psi: float


@dataclass(frozen=True)
class OperatorsOp:
    eta: str
    g: Chart
    g2: Chart
    direct_cells: tuple  # (row, column) of checked entries in the direct block
    log_cells: tuple
    scalars: tuple  # (eta, n, n_prime, Chart)
    fault: bool = False


@dataclass(frozen=True)
class SeriesOp:
    eta: str
    hyper: Chart  # a hyperbolic class, Re(alpha) > 1
    theta: float  # compact angle of the abel_trace part
    r: float
    tensor: tuple  # (eta1, eta2, theta, r)
    integrals: tuple  # OrthoRequest arguments
    mc: tuple  # (eta, m, m_prime, seed)
    fault: bool = False


def two_eta(label: str) -> int:
    num, _, den = label.partition("/")
    return int(num) if den else 2 * int(num)


def _chart(rng: random.Random, tau_lo: float, tau_hi: float) -> Chart:
    return Chart(rng.uniform(tau_lo, tau_hi), rng.uniform(0.0, TWO_PI),
                 rng.uniform(-TWO_PI, TWO_PI))


def _scalar(rng: random.Random) -> tuple:
    """A scalar entry whose closed-form factors are all representable doubles.

    |alpha|^-(2 eta + n_>), conj(alpha)^n_< and gamma^(n_> - n_<) stay within
    exp(+-650), and |alpha|^(-2 eta) tanh(tau/2)^(n_> - n_<), the size of the
    entry apart from its Jacobi factor, stays above 1e-200.
    """
    while True:
        eta = rng.choice(LABELS)
        n = rng.randint(0, SCALAR_INDEX_MAX)
        n_prime = rng.randint(0, SCALAR_INDEX_MAX)
        c = _chart(rng, 0.05, SCALAR_TAU_MAX)
        lo, hi = min(n, n_prime), max(n, n_prime)
        log_a = math.log(math.cosh(0.5 * c.tau))
        log_t = -math.log(math.tanh(0.5 * c.tau))
        te = two_eta(eta)
        if (te + hi) * log_a <= 650.0 and te * log_a + (hi - lo) * log_t <= 460.0:
            return (eta, n, n_prime, c)


def _cells(rng: random.Random, lo: int, size: int) -> tuple:
    cells = []
    for _ in range(CELLS):
        i = rng.randrange(lo, size)
        j = min(size - 1, max(0, i + rng.randint(-24, 24)))
        cells.append((i, j) if rng.random() < 0.5 else (j, i))
    return tuple(cells)


def _operators_op(rng: random.Random) -> OperatorsOp:
    return OperatorsOp(
        eta=rng.choice(LABELS),
        g=_chart(rng, 0.2, 1.0),
        g2=_chart(rng, 0.2, 1.0),
        direct_cells=_cells(rng, 0, DIRECT_SIZE),
        log_cells=_cells(rng, DIRECT_SIZE - 20, LOG_SIZE),
        scalars=tuple(_scalar(rng) for _ in range(SCALARS)),
    )


def _hyperbolic(rng: random.Random) -> Chart:
    # Re(alpha) = cosh(tau/2) cos((phi + psi)/2) >= cosh(0.5) cos(0.3) > 1.07.
    tau = rng.uniform(1.0, 4.0)
    phi = rng.uniform(0.0, TWO_PI)
    return Chart(tau, phi, rng.uniform(-0.6, 0.6) - phi)


def _integrals(rng: random.Random) -> tuple:
    out = []
    for _ in range(DIAGONAL_INTEGRALS):
        eta = rng.choice(LABELS)
        m = rng.randint(0, INDEX_MAX)
        mp = m + rng.randint(0, OFFSET_MAX)
        if rng.random() < 0.5:
            m, mp = mp, m
        out.append((eta, eta, m, mp, m, mp))
    pairs = [(a, b) for a in LABELS for b in LABELS
             if two_eta(a) > two_eta(b) and (two_eta(a) - two_eta(b)) % 2 == 0]
    for _ in range(CROSS_INTEGRALS):
        eta1, eta2 = rng.choice(pairs)
        shift = (two_eta(eta1) - two_eta(eta2)) // 2
        m = rng.randint(0, INDEX_MAX)
        mp = m + rng.randint(0, OFFSET_MAX)
        if rng.random() < 0.5:
            m, mp = mp, m
        out.append((eta1, eta2, m, mp, m + shift, mp + shift))
    while len(out) < DIAGONAL_INTEGRALS + CROSS_INTEGRALS + UNSELECTED_INTEGRALS:
        eta1, eta2 = rng.choice(LABELS), rng.choice(LABELS)
        m, mp, n, np_ = (rng.randint(0, INDEX_MAX) for _ in range(4))
        if not angular_selected(eta1, eta2, m, mp, n, np_):
            out.append((eta1, eta2, m, mp, n, np_))
    return tuple(out)


def angular_selected(eta1, eta2, m, mp, n, np_) -> bool:
    """The exact selection rule eta1 - eta2 = n - m = n' - m'."""
    diff = two_eta(eta1) - two_eta(eta2)
    return diff == 2 * (n - m) and diff == 2 * (np_ - mp)


def _series_op(rng: random.Random) -> SeriesOp:
    return SeriesOp(
        eta=rng.choice(LABELS),
        hyper=_hyperbolic(rng),
        theta=rng.uniform(0.3, TWO_PI - 0.3),
        r=rng.uniform(0.99, 0.9995),
        tensor=(rng.choice(LABELS), rng.choice(LABELS),
                rng.uniform(0.3, TWO_PI - 0.3), rng.uniform(0.99, 0.999)),
        integrals=_integrals(rng),
        mc=(rng.choice(LABELS), rng.randint(0, 3), rng.randint(0, 3),
            rng.randrange(2**32)),
    )


def build_round(workload: str, seed: int) -> list:
    """The ops of one round: SEEDED_OPS seeded ops, then the fault op."""
    make = {"operators": _operators_op, "series-quadrature": _series_op}[workload]
    ops = [make(random.Random(f"{workload}:{seed}:{i}")) for i in range(SEEDED_OPS)]
    fixed = make(random.Random(f"{workload}:fault"))
    if workload == "operators":
        scalars = tuple(
            (eta, n, n_prime, Chart(*c)) for eta, n, n_prime, c in F2_SCALARS
        ) + fixed.scalars[len(F2_SCALARS):]
        ops.append(replace(fixed, scalars=scalars, fault=True))
    else:
        integrals = F1_INTEGRALS + fixed.integrals[len(F1_INTEGRALS):]
        ops.append(replace(fixed, integrals=integrals, fault=True))
    return ops


def _element(api, c: Chart):
    return api.from_cartan(c.tau, c.phi, c.psi)


def run_operators(api, op: OperatorsOp) -> list:
    g, g2 = _element(api, op.g), _element(api, op.g2)
    direct = api.truncated_operator(op.eta, g, DIRECT_SIZE)
    logspace = api.truncated_operator(op.eta, g, LOG_SIZE)
    out = [
        api.unitarity_defect(direct, CORNER),
        api.unitarity_defect(logspace, CORNER),
        api.homomorphism_defect(op.eta, g, g2, HOM_SIZE, CORNER),
    ]
    out += [complex(direct.entries[i, j]) for i, j in op.direct_cells]
    out += [complex(logspace.entries[i, j]) for i, j in op.log_cells]
    for eta, n, n_prime, c in op.scalars:
        out.append(complex(api.matrix_element(eta, n, n_prime, _element(api, c))))
    return out


def abel_extrapolate(values) -> complex:
    """Lagrange extrapolation to r = 1 of the damped sums S(r) at DAMPINGS."""
    gaps = [1.0 - r for r in DAMPINGS]
    total = 0j
    for i, (hi, value) in enumerate(zip(gaps, values)):
        coeff = 1.0
        for j, hj in enumerate(gaps):
            if j != i:
                coeff *= hj / (hj - hi)
        total += coeff * value
    return total


def run_series(api, op: SeriesOp) -> list:
    g = _element(api, op.hyper)
    out = [complex(api.trace_partial_sum(op.eta, g, TRACE_TERMS))]
    damped = [complex(api.damped_trace_sum(op.eta, g, r, DAMPED_TERMS)) for r in DAMPINGS]
    out += damped
    out.append(abel_extrapolate(damped))
    out.append(complex(api.character(op.eta, g).value))
    out.append(complex(api.abel_trace(op.eta, op.theta, op.r, ABEL_TERMS)))
    out.append(complex(api.character_compact(op.eta, op.theta)))
    eta1, eta2, theta, r = op.tensor
    out.append(complex(api.abel_character_sum(eta1, eta2, theta, r, TENSOR_TERMS - 1)))
    for args in op.integrals:
        out.append(float(api.orthogonality_integral(api.OrthoRequest(*args)).value))
    eta, m, mp, seed = op.mc
    est = api.monte_carlo_haar(api.OrthoRequest(eta, eta, m, mp, m, mp), MC_SAMPLES, seed)
    out.append((float(est.value), float(est.stderr)))
    return out


RUNNERS = {"operators": run_operators, "series-quadrature": run_series}
