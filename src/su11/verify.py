"""Self-verification suites behind the ``verify`` CLI command.

Each check computes a scalar defect and compares it against a pinned
tolerance; a suite passes when every one of its checks does.  All random
sampling is seeded, so repeated runs with the same flags produce identical
records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .characters import (
    abel_trace,
    abel_trace_closed_form,
    character,
    character_cartan,
    character_compact,
    damped_trace_sum,
)
from .errors import InvalidParams
from .group import from_cartan, inverse, multiply, to_cartan
from .halfint import as_rep_label
from .jacobi import gauss_jacobi, gr_7391, jacobi_sequence, quadrature_order_for_degree
from .orthogonality import (
    OrthoRequest,
    formal_dimension,
    monte_carlo_haar,
    orthogonality_integral,
)
from .repmatrix import (
    homomorphism_defect,
    matrix_element,
    matrix_element_cartan,
    truncated_operator,
    unitarity_defect,
)
from .tensor import (
    abel_character_sum,
    abel_character_sum_closed_form,
    character_product,
    decompose,
    multiplicity,
    verify_expansion_identity,
)

SUITE_NAMES = ("ortho", "unitary", "character", "tensor")

_ETAS_ORTHO = ("1", "3/2", "2", "5/2", "3")
_ETAS_SMALL = ("1", "3/2", "2")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tol: float
    passed: bool
    inputs: dict


def _check(suite: str, name: str, measured: float, tol: float, **inputs) -> CheckResult:
    return CheckResult(suite, name, measured, tol, measured <= tol, inputs)


def _random_element(rng, tau_max: float):
    tau = rng.uniform(0.0, tau_max)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
    return from_cartan(tau, phi, psi)


def run_ortho(max_index: int = 8, samples: int = 200_000, seed: int = 42,
              **_) -> list:
    checks = []

    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(20):
        order = int(rng.integers(1, 13))
        a = float(rng.uniform(-0.9, 6.0))
        b = float(rng.uniform(-0.9, 6.0))
        rule = gauss_jacobi(order, a, b)
        moment = 2.0 ** (a + b + 1.0) * math.exp(
            math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        )
        worst = max(worst, abs(float(np.sum(rule.weights)) - moment) / moment)
    checks.append(_check("ortho", "quadrature_zeroth_moment", worst, 1e-13, draws=20))

    worst = 0.0
    for a, b, m in product(range(7), range(1, 9), range(11)):
        closed = gr_7391(float(a), float(b), m)
        rule = gauss_jacobi(quadrature_order_for_degree(2 * m), float(a), float(b - 1))
        poly = jacobi_sequence(float(a), float(b), m, rule.nodes)[-1]
        direct = float(np.dot(rule.weights, poly * poly))
        worst = max(worst, abs(direct - closed) / abs(closed))
    checks.append(_check("ortho", "diagonal_norm_closed_form", worst, 1e-12,
                         a_max=6, b_max=8, m_max=10))

    worst = 0.0
    for eta in _ETAS_ORTHO:
        target = float(formal_dimension(eta))
        for m, mp in product(range(max_index + 1), repeat=2):
            res = orthogonality_integral(OrthoRequest(eta, eta, m, mp, m, mp))
            worst = max(worst, abs(res.value - target))
    checks.append(_check("ortho", "diagonal_sweep", worst, 1e-10, max_index=max_index))

    worst = 0.0
    labels = [as_rep_label(e) for e in _ETAS_ORTHO]
    for l1, l2 in product(labels, repeat=2):
        if l1 == l2 or (l1.two_eta - l2.two_eta) % 2 != 0:
            continue
        s = (l1.two_eta - l2.two_eta) // 2
        for m, mp in product(range(max_index + 1), repeat=2):
            n, np_ = m + s, mp + s
            if not (0 <= n <= max_index and 0 <= np_ <= max_index):
                continue
            res = orthogonality_integral(OrthoRequest(l1, l2, m, mp, n, np_))
            worst = max(worst, abs(res.value))
    checks.append(_check("ortho", "cross_label_vanishing", worst, 1e-12,
                         max_index=max_index))

    worst = 0.0
    unselected = [
        ("1", "1", 0, 0, 1, 0),
        ("1", "3/2", 0, 0, 0, 0),
        ("2", "1", 0, 0, 0, 0),
        ("1", "1", 0, 1, 0, 2),
        ("3/2", "3/2", 2, 0, 1, 0),
    ]
    for case in unselected:
        res = orthogonality_integral(OrthoRequest(*case))
        worst = max(worst, abs(res.value))
    checks.append(_check("ortho", "unselected_exact_zero", worst, 0.0, cases=len(unselected)))

    if samples > 0:
        worst = 0.0
        spot = [
            ("1", "1", 0, 0, 0, 0),
            ("3/2", "3/2", 1, 1, 1, 1),
            *unselected[:3],
        ]
        for i, case in enumerate(spot):
            req = OrthoRequest(*case)
            expected = orthogonality_integral(req).expected
            est = monte_carlo_haar(req, samples, seed + i)
            worst = max(worst, abs(est.value - expected) / (3.0 * est.stderr))
        checks.append(_check("ortho", "monte_carlo_spot", worst, 1.0,
                             samples=samples, seed=seed, cases=len(spot)))
    return checks


def run_unitary(size: int = 60, k: int = 10, n_random: int = 25, seed: int = 42,
                **_) -> list:
    checks = []
    rng = np.random.default_rng(seed)
    for eta in _ETAS_SMALL:
        worst_u = 0.0
        worst_h = 0.0
        for _ in range(n_random):
            g1 = _random_element(rng, 1.0)
            g2 = _random_element(rng, 1.0)
            worst_u = max(worst_u, unitarity_defect(truncated_operator(eta, g1, size), k))
            worst_h = max(worst_h, homomorphism_defect(eta, g1, g2, size, k))
        checks.append(_check("unitary", f"unitarity_eta_{eta}", worst_u, 1e-8,
                             size=size, k=k, n_random=n_random))
        checks.append(_check("unitary", f"homomorphism_eta_{eta}", worst_h, 1e-8,
                             size=size, k=k, n_random=n_random))

    worst = 0.0
    rng = np.random.default_rng(seed + 1)
    for _ in range(200):
        eta = _ETAS_ORTHO[int(rng.integers(len(_ETAS_ORTHO)))]
        n = int(rng.integers(0, 13))
        np_ = int(rng.integers(0, 13))
        g = _random_element(rng, 4.0)
        direct = matrix_element(eta, n, np_, g)
        chart = matrix_element_cartan(eta, n, np_, to_cartan(g))
        worst = max(worst, abs(direct - chart) / (1.0 + abs(direct)))
    checks.append(_check("unitary", "cross_form_consistency", worst, 1e-11, draws=200))
    return checks


def run_character(seed: int = 42, **_) -> list:
    checks = []
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(100):
        eta = _ETAS_ORTHO[int(rng.integers(len(_ETAS_ORTHO)))]
        g = _random_element(rng, 2.5)
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3 or u < -1.0:
            continue
        c = to_cartan(g)
        lhs = character(eta, g).value
        rhs = character_cartan(eta, c.x, c.phi, c.psi).value
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    checks.append(_check("character", "chart_form_consistency", worst, 1e-11, draws=100))

    # Hyperbolic classes: the damped diagonal series is analytic in r at r = 1,
    # so polynomial extrapolation of S(r) to r -> 1 must land on the closed
    # form.  Raw partial sums only converge like N^(-1/2) here.
    worst = 0.0
    dampings = (0.95, 0.97, 0.99)
    gaps = [1.0 - r for r in dampings]
    coeffs = []
    for i, hi in enumerate(gaps):
        c = 1.0
        for j, hj in enumerate(gaps):
            if j != i:
                c *= hj / (hj - hi)
        coeffs.append(c)
    for eta in _ETAS_SMALL:
        for t in (0.5, 1.0, 2.0):
            g = from_cartan(2.0 * t, 0.0, 0.0)
            closed = character(eta, g).value
            extrapolated = sum(
                c * damped_trace_sum(eta, g, r, 4000)
                for c, r in zip(coeffs, dampings)
            )
            worst = max(worst, abs(extrapolated - closed) / abs(closed))
    checks.append(_check("character", "hyperbolic_abel_limit", worst, 1e-3,
                         dampings=dampings, terms=4000))

    worst = 0.0
    slope_ok = True
    for eta in _ETAS_SMALL:
        for theta in (0.5, 1.0, math.pi, 2.0 * math.pi - 0.5):
            closed = character_compact(eta, theta)
            residuals = [
                abs(abel_trace(eta, theta, r, 20_000) - closed)
                for r in (0.9, 0.99, 0.999)
            ]
            if not (residuals[0] > residuals[1] > residuals[2] > 0.0):
                slope_ok = False
            worst = max(worst, residuals[2] / abs(closed))
    checks.append(_check("character", "elliptic_abel_residual",
                         worst if slope_ok else math.inf, 1e-2, terms=20_000))

    worst = 0.0
    for eta in _ETAS_ORTHO:
        for theta in np.linspace(0.3, 2.0 * math.pi - 0.3, 25):
            closed = character_compact(eta, float(theta))
            worst = max(worst, abs(abel_trace_closed_form(eta, float(theta), 1.0) - closed))
    checks.append(_check("character", "abel_limit_closed_form", worst, 1e-13, grid=25))

    worst = 0.0
    rng = np.random.default_rng(seed + 2)
    for _ in range(50):
        g = _random_element(rng, 2.0)
        h = _random_element(rng, 1.0)
        gc = multiply(multiply(h, g), inverse(h))
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3 or u < -1.0:
            continue
        worst = max(worst, abs(character("3/2", g).value - character("3/2", gc).value))
    checks.append(_check("character", "class_function", worst, 1e-10, draws=50))
    return checks


def run_tensor(seed: int = 42, **_) -> list:
    checks = []

    labels = [as_rep_label(t / 2.0) for t in range(2, 9)]
    mismatches = 0
    for l1, l2 in product(labels, repeat=2):
        dec = decompose(l1, l2, 20)
        present = {term.eta3.two_eta for term in dec.terms}
        top = l1.two_eta + l2.two_eta + 40
        for t3 in range(2, top + 1):
            expected = 1 if (t3 in present) else 0
            if multiplicity(l1, l2, as_rep_label(t3 / 2.0)) != expected:
                mismatches += 1
        if decompose(l2, l1, 20).terms != dec.terms:
            mismatches += 1
    checks.append(_check("tensor", "spectrum_exact", float(mismatches), 0.0,
                         pairs=len(labels) ** 2, n_max=20))

    worst = 0.0
    for l1, l2 in product(labels[:4], repeat=2):
        for theta in (0.7, 2.2, 4.1):
            lhs = character_product(l1, l2, theta)
            rhs = character_compact(l1, theta) * character_compact(l2, theta)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    checks.append(_check("tensor", "product_closed_form", worst, 1e-13, grid=3))

    worst = 0.0
    tuples = [("1", "1", 1.0), ("1", "3/2", 0.5), ("3/2", "2", math.pi),
              ("2", "2", 2.0 * math.pi - 0.5), ("5/2", "1", 2.5)]
    for eta1, eta2, theta in tuples:
        target = character_product(eta1, eta2, theta)
        residuals = []
        for r in (0.9, 0.99, 0.999):
            n_terms = int(math.ceil(30.0 / (1.0 - r)))
            residuals.append(abs(abel_character_sum(eta1, eta2, theta, r, n_terms) - target))
        ok = residuals[0] > residuals[1] > residuals[2] > 0.0
        worst = max(worst, residuals[2] / abs(target) if ok else math.inf)
    checks.append(_check("tensor", "abel_certification", worst, 1e-2, cases=len(tuples)))

    worst = 0.0
    for eta1, eta2, theta in tuples:
        worst = max(worst, abs(abel_character_sum_closed_form(eta1, eta2, theta, 1.0)
                               - character_product(eta1, eta2, theta)))
    checks.append(_check("tensor", "abel_limit_equals_product", worst, 1e-13,
                         cases=len(tuples)))

    worst = 0.0
    for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 100):
        worst = max(worst, verify_expansion_identity(float(theta)))
    checks.append(_check("tensor", "expansion_identity", worst, 1e-13, grid=100))
    return checks


_RUNNERS = {
    "ortho": run_ortho,
    "unitary": run_unitary,
    "character": run_character,
    "tensor": run_tensor,
}


def run_suite(suite: str, **params) -> list:
    """Run one named suite, or all of them in a fixed order."""
    if suite == "all":
        results = []
        for name in SUITE_NAMES:
            results.extend(_RUNNERS[name](**params))
        return results
    if suite not in _RUNNERS:
        raise InvalidParams(f"unknown suite {suite!r}")
    return _RUNNERS[suite](**params)
