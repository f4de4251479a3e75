"""The check registry behind the ``verify`` CLI command and the acceptance tests.

Each check is one function that computes a scalar defect and compares it
against a pinned tolerance.  Its parameters are the grids, draw counts and
seeds that its callers choose differently, and the returned CheckResult
records its inputs.  The ``run_*`` suites call every check with the
``verify`` settings; acceptance criteria 1-4 and 6-9 call the same functions
with their own inputs.  All random sampling is seeded, so repeated runs with
the same flags produce identical records.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .characters import (
    abel_trace,
    character,
    character_cartan,
    character_compact,
    damped_trace_closed_form,
    damped_trace_sum,
)
from .errors import InvalidParams
from .group import compact_element, from_cartan, inverse, multiply, to_cartan
from .halfint import RepLabel, as_rep_label
from .jacobi import gauss_legendre
from .orthogonality import (
    OrthoRequest,
    formal_dimension,
    monte_carlo_haar,
    orthogonality_integral,
    radial_integral,
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
)

SUITE_NAMES = ("ortho", "unitary", "character", "tensor")

_ETAS_ORTHO = ("1", "3/2", "2", "5/2", "3")
_ETAS_SMALL = ("1", "3/2", "2")
_TENSOR_LABELS = tuple(as_rep_label(t / 2.0) for t in range(2, 9))
# Distances 1 - r of the Abel dampings; residuals must fall as r -> 1.
_GAPS = (0.1, 0.01, 0.001)
_TENSOR_CASES = (("1", "1", 1.0), ("1", "3/2", 0.5), ("3/2", "2", math.pi),
                 ("2", "2", 2.0 * math.pi - 0.5), ("5/2", "1", 2.5))

# Integrals the angular selection kills, and the Monte Carlo spot cases.
UNSELECTED = (("1", "1", 0, 0, 1, 0), ("1", "3/2", 0, 0, 0, 0), ("2", "1", 0, 0, 0, 0),
              ("1", "1", 0, 1, 0, 2), ("3/2", "3/2", 2, 0, 1, 0))
_SPOT = (("1", "1", 0, 0, 0, 0), ("3/2", "3/2", 1, 1, 1, 1), *UNSELECTED[:3])


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tol: float
    inputs: dict


def _check(suite: str, name: str, measured: float, tol: float, **inputs) -> CheckResult:
    return CheckResult(suite, name, measured, tol, inputs)


def _random_element(rng, tau_max: float):
    return from_cartan(rng.uniform(0.0, tau_max), rng.uniform(0.0, 2.0 * math.pi),
                       rng.uniform(-2.0 * math.pi, 2.0 * math.pi))


def gr_7391(a: float, b: float, m: int) -> float:
    """Closed form of the diagonal Jacobi norm against the shifted weight.

    Returns the value of

        integral_{-1}^{1} (1-x)^a (1+x)^{b-1} [P_m^{(a, b)}(x)]^2 dx
            = 2^{a+b} / b * Gamma(a+m+1) Gamma(b+m+1) / (m! Gamma(a+b+m+1)),

    valid for a > -1 and b > 0.  This is what the diagonal orthogonality
    integrals collapse to.
    """
    if a <= -1.0:
        raise InvalidParams(f"a must exceed -1, got {a}")
    if b <= 0.0:
        raise InvalidParams(f"b must be positive, got {b}")
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    return math.exp(
        (a + b) * math.log(2.0)
        - math.log(b)
        + math.lgamma(a + m + 1.0)
        + math.lgamma(b + m + 1.0)
        - math.lgamma(m + 1.0)
        - math.lgamma(a + b + m + 1.0)
    )


def verify_expansion_identity(theta: float) -> float:
    """Residual |1/sin(theta/2) - 2i exp(-i theta/2) / (1 - exp(-i theta))|.

    The right-hand side is the Abel limit of the geometric expansion of
    1/sin(theta/2); the two expressions agree identically, so the residual
    is pure round-off.  Angles are refused as by ``character_compact``.
    """
    character_compact("1", theta)  # the angle guards; the value is not needed
    limit = damped_trace_closed_form("1", compact_element(theta), 1.0)
    return abs(1.0 / math.sin(0.5 * theta) - 2j * cmath.exp(0.5j * theta) * limit)


def quadrature_zeroth_moment(seed: int, max_order: int) -> CheckResult:
    """Worst relative error of sum w (1-x)^a (1+x)^b against the Beta integral
    2^{a+b+1} a! b! / (a+b+1)!, for a random order q <= max_order and integers
    a, b >= 0 with a + b <= 2q - 1, the weights the radial integrals use."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(20):
        order = int(rng.integers(1, max_order + 1))
        total = int(rng.integers(0, 2 * order))
        a = int(rng.integers(0, total + 1))
        b = total - a
        x, w = gauss_legendre(order)
        moment = (2.0 ** (total + 1) * math.factorial(a) * math.factorial(b)
                  / math.factorial(total + 1))
        got = float(np.sum(w * (1.0 - x) ** a * (1.0 + x) ** b))
        worst = max(worst, abs(got - moment) / moment)
    return _check("ortho", "quadrature_zeroth_moment", worst, 1e-13, draws=20)


def diagonal_norm_closed_form() -> CheckResult:
    """gr_7391(a, b, m) against radial_integral at 2 eta = b + 1 and m' = m + a."""
    worst = 0.0
    for a, b, m in product(range(7), range(1, 9), range(11)):
        closed = gr_7391(float(a), float(b), m)
        eta = RepLabel(two_eta=b + 1)
        direct = radial_integral(OrthoRequest(eta, eta, m, m + a, m, m + a))
        worst = max(worst, abs(direct - closed) / abs(closed))
    return _check("ortho", "diagonal_norm_closed_form", worst, 1e-12,
                  a_max=6, b_max=8, m_max=10)


def diagonal_sweep(max_index: int) -> CheckResult:
    worst = 0.0
    for eta in _ETAS_ORTHO:
        target = float(formal_dimension(eta))
        for m, mp in product(range(max_index + 1), repeat=2):
            res = orthogonality_integral(OrthoRequest(eta, eta, m, mp, m, mp))
            worst = max(worst, abs(res.value - target))
    return _check("ortho", "diagonal_sweep", worst, 1e-10, max_index=max_index)


def cross_label_vanishing(max_index: int) -> CheckResult:
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
    return _check("ortho", "cross_label_vanishing", worst, 1e-12, max_index=max_index)


def unselected_exact_zero() -> CheckResult:
    """Each case is refused by the angular selection and is exactly 0 (else inf)."""
    worst = 0.0
    for case in UNSELECTED:
        res = orthogonality_integral(OrthoRequest(*case))
        worst = max(worst, math.inf if res.angular_selected else abs(res.value))
    return _check("ortho", "unselected_exact_zero", worst, 0.0, cases=len(UNSELECTED))


def monte_carlo_spot(cases, samples: int, seed: int) -> CheckResult:
    """Worst |Monte Carlo - exact| / (3 stderr) over the cases, case i at seed + i.

    Each estimate is close to normal, so correct code fails one case with
    probability erfc(3 / sqrt 2) and the check with the false-alarm rate
    1 - (1 - erfc(3 / sqrt 2))^cases, which the record carries.
    """
    worst = 0.0
    for i, case in enumerate(cases):
        req = OrthoRequest(*case)
        expected = orthogonality_integral(req).expected
        est = monte_carlo_haar(req, samples, seed + i)
        worst = max(worst, abs(est.value - expected) / (3.0 * est.stderr))
    false_alarm_rate = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** len(cases)
    return _check("ortho", "monte_carlo_spot", worst, 1.0, samples=samples, seed=seed,
                  cases=len(cases), false_alarm_rate=false_alarm_rate)


def block_defects(size: int, k: int, n_random: int, seed: int) -> list:
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
    return checks


def cross_form_consistency(draws: int, seed: int, etas=_ETAS_ORTHO) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        eta = etas[int(rng.integers(len(etas)))]
        n = int(rng.integers(0, 13))
        np_ = int(rng.integers(0, 13))
        g = _random_element(rng, 4.0)
        direct = matrix_element(eta, n, np_, g)
        chart = matrix_element_cartan(eta, n, np_, to_cartan(g))
        worst = max(worst, abs(direct - chart) / (1.0 + abs(direct)))
    return _check("unitary", "cross_form_consistency", worst, 1e-11, draws=draws)


def chart_form_consistency(seed: int) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(100):
        eta = _ETAS_ORTHO[int(rng.integers(len(_ETAS_ORTHO)))]
        g = _random_element(rng, 2.5)
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3:
            continue
        c = to_cartan(g)
        lhs = character(eta, g).value
        rhs = character_cartan(eta, c.x, c.phi, c.psi).value
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return _check("character", "chart_form_consistency", worst, 1e-11, draws=100)


def hyperbolic_abel_limit() -> CheckResult:
    # Hyperbolic classes: the damped diagonal series is analytic in r at r = 1,
    # so polynomial extrapolation of S(r) to r -> 1 must land on the closed
    # form.  Raw partial sums only converge like N^(-1/2) here.
    worst = 0.0
    dampings = (0.95, 0.97, 0.99)
    gaps = [1.0 - r for r in dampings]
    # Lagrange weights that extrapolate S(r) from the three dampings to r = 1.
    coeffs = [math.prod(hj / (hj - hi) for j, hj in enumerate(gaps) if j != i)
              for i, hi in enumerate(gaps)]
    for eta in _ETAS_SMALL:
        for t in (0.5, 1.0, 2.0):
            g = from_cartan(2.0 * t, 0.0, 0.0)
            closed = character(eta, g).value
            extrapolated = sum(
                c * damped_trace_sum(eta, g, r, 4000)
                for c, r in zip(coeffs, dampings)
            )
            worst = max(worst, abs(extrapolated - closed) / abs(closed))
    return _check("character", "hyperbolic_abel_limit", worst, 1e-3,
                  dampings=dampings, terms=4000)


def elliptic_abel_residual() -> CheckResult:
    """Residual at r = 0.999, or inf unless the residuals fall strictly as r -> 1
    and fit a finite positive slope in the gap 1 - r."""
    worst = 0.0
    converging = True
    for eta in _ETAS_SMALL:
        for theta in (0.5, 1.0, math.pi, 2.0 * math.pi - 0.5):
            closed = character_compact(eta, theta)
            residuals = [abs(abel_trace(eta, theta, 1.0 - gap, 20_000) - closed)
                         for gap in _GAPS]
            slope = np.polyfit(_GAPS, residuals, 1)[0]
            converging &= (residuals[0] > residuals[1] > residuals[2] > 0.0
                           and 0.0 < slope < math.inf)
            worst = max(worst, residuals[2] / abs(closed))
    return _check("character", "elliptic_abel_residual",
                  worst if converging else math.inf, 1e-2, terms=20_000)


def abel_limit_closed_form(etas=_ETAS_ORTHO,
                           thetas=np.linspace(0.3, 2.0 * math.pi - 0.3, 25)) -> CheckResult:
    worst = 0.0
    for eta in etas:
        for theta in thetas:
            closed = character_compact(eta, float(theta))
            limit = damped_trace_closed_form(eta, compact_element(float(theta)), 1.0)
            worst = max(worst, abs(limit - closed))
    return _check("character", "abel_limit_closed_form", worst, 1e-13, grid=len(thetas))


def class_function(seed: int) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(50):
        g = _random_element(rng, 2.0)
        h = _random_element(rng, 1.0)
        gc = multiply(multiply(h, g), inverse(h))
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3:
            continue
        worst = max(worst, abs(character("3/2", g).value - character("3/2", gc).value))
    return _check("character", "class_function", worst, 1e-10, draws=50)


def spectrum_exact() -> CheckResult:
    """Mismatches of multiplicity against decompose, and of decompose's symmetry."""
    mismatches = 0
    for l1, l2 in product(_TENSOR_LABELS, repeat=2):
        dec = decompose(l1, l2, 20)
        present = {term.eta3.two_eta for term in dec.terms}
        top = l1.two_eta + l2.two_eta + 40
        for t3 in range(2, top + 1):
            expected = 1 if (t3 in present) else 0
            if multiplicity(l1, l2, as_rep_label(t3 / 2.0)) != expected:
                mismatches += 1
        if decompose(l2, l1, 20).terms != dec.terms:
            mismatches += 1
    return _check("tensor", "spectrum_exact", float(mismatches), 0.0,
                  pairs=len(_TENSOR_LABELS) ** 2, n_max=20)


def product_closed_form() -> CheckResult:
    worst = 0.0
    thetas = (0.7, 2.2, 4.1)
    for l1, l2 in product(_TENSOR_LABELS[:4], repeat=2):
        for theta in thetas:
            lhs = character_product(l1, l2, theta)
            rhs = character_compact(l1, theta) * character_compact(l2, theta)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return _check("tensor", "product_closed_form", worst, 1e-13, grid=len(thetas))


def abel_certification() -> CheckResult:
    """Residual at r = 0.999, or inf unless the residuals fall strictly as r -> 1;
    the series at r = 1 - gap runs ceil(30 / gap) terms."""
    worst = 0.0
    for eta1, eta2, theta in _TENSOR_CASES:
        target = character_product(eta1, eta2, theta)
        residuals = [
            abs(abel_character_sum(eta1, eta2, theta, 1.0 - gap, math.ceil(30.0 / gap)) - target)
            for gap in _GAPS
        ]
        ok = residuals[0] > residuals[1] > residuals[2] > 0.0
        worst = max(worst, residuals[2] / abs(target) if ok else math.inf)
    return _check("tensor", "abel_certification", worst, 1e-2, cases=len(_TENSOR_CASES))


def abel_limit_equals_product() -> CheckResult:
    worst = 0.0
    for eta1, eta2, theta in _TENSOR_CASES:
        worst = max(worst, abs(abel_character_sum_closed_form(eta1, eta2, theta, 1.0)
                               - character_product(eta1, eta2, theta)))
    return _check("tensor", "abel_limit_equals_product", worst, 1e-13,
                  cases=len(_TENSOR_CASES))


def expansion_identity() -> CheckResult:
    worst = 0.0
    for theta in np.linspace(0.1, 2.0 * math.pi - 0.1, 100):
        worst = max(worst, verify_expansion_identity(float(theta)))
    return _check("tensor", "expansion_identity", worst, 1e-13, grid=100)


def run_ortho(max_index: int = 8, samples: int = 200_000, seed: int = 42,
              **_) -> list:
    checks = [quadrature_zeroth_moment(seed, max_order=12), diagonal_norm_closed_form(),
              diagonal_sweep(max_index), cross_label_vanishing(max_index),
              unselected_exact_zero()]
    if samples > 0:
        checks.append(monte_carlo_spot(_SPOT, samples, seed))
    return checks


def run_unitary(size: int = 60, k: int = 10, n_random: int = 25, seed: int = 42,
                **_) -> list:
    return [*block_defects(size, k, n_random, seed), cross_form_consistency(200, seed + 1)]


def run_character(seed: int = 42, **_) -> list:
    return [chart_form_consistency(seed), hyperbolic_abel_limit(),
            elliptic_abel_residual(), abel_limit_closed_form(), class_function(seed + 2)]


def run_tensor(seed: int = 42, **_) -> list:
    return [spectrum_exact(), product_closed_form(), abel_certification(),
            abel_limit_equals_product(), expansion_identity()]


_RUNNERS = dict(zip(SUITE_NAMES, (run_ortho, run_unitary, run_character, run_tensor)))


def run_suite(suite: str, **params) -> list:
    """Run one named suite, or all of them in a fixed order."""
    if suite != "all" and suite not in _RUNNERS:
        raise InvalidParams(f"unknown suite {suite!r}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    return [check for name in names for check in _RUNNERS[name](**params)]
