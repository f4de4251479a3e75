"""References computed apart from su11, and the checks that score outputs.

Every reference is evaluated here with mpmath (40 significant digits) from
the op's inputs, or is exact: matrix elements from their closed form with
``mpmath.jacobi``, diagonal trace sums from the Jacobi three-term recurrence
run in mpmath arithmetic, characters and geometric sums from their closed
forms, and formal dimensions as ``Fraction(2, 2 eta - 1)``.  Nothing here
imports su11.

An expectation scores one output value.  ``digits`` is
``min(16, -log10(relative error))``; a value that fails its check scores 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

import ops

mpmath.mp.dps = 40
PERTURBATION = 1e-8  # relative size of the negative control's perturbation


@dataclass(frozen=True)
class Expect:
    """How to judge one output.

    kind ``rel``: ``|v - ref| <= tol * |ref| + slack``.
    kind ``abs``: ``|v - ref| <= tol * scale``; ``tol == 0`` asks for an exact value.
    kind ``defect``: ``0 <= v <= tol``, for a property defect such as
    ``max|B^dag B - I|``; the defect is itself the relative error.
    kind ``mc``: a Monte Carlo ``(value, stderr)`` within ``tol`` stderr of ``ref``.
    """

    kind: str
    ref: object
    tol: float
    scale: float = 1.0
    slack: float = 0.0


def _digits(err: float) -> float:
    if err == 0.0:
        return 16.0
    return max(0.0, min(16.0, -math.log10(err)))


def score(value, exp: Expect) -> tuple:
    """(passed, digits) of one output value."""
    if exp.kind == "mc":
        value, stderr = value
        if not (math.isfinite(value) and math.isfinite(stderr) and stderr > 0.0):
            return False, 0.0
        ref = float(exp.ref)
        passed = abs(value - ref) <= exp.tol * stderr
        return passed, _digits(abs(value - ref) / abs(ref)) if passed else 0.0
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return False, 0.0
    if exp.kind == "defect":
        return (0.0 <= value <= exp.tol), (_digits(value) if value <= exp.tol else 0.0)
    diff = abs(mpmath.mpmathify(value) - exp.ref)
    if exp.kind == "rel":
        err = float(diff / abs(exp.ref))
        passed = diff <= exp.tol * abs(exp.ref) + exp.slack
    else:
        err = float(diff) / exp.scale
        passed = err <= exp.tol
    return passed, _digits(err) if passed else 0.0


def perturb(value):
    """The negative control's copy of an output: scaled by 1 + 1e-8."""
    if isinstance(value, tuple):
        return tuple(v * (1.0 + PERTURBATION) for v in value)
    return value * (1.0 + PERTURBATION)


# -- closed forms in mpmath -------------------------------------------------

def _alpha_beta(c: ops.Chart):
    half = mpmath.mpf(c.tau) / 2
    phi, psi = mpmath.mpf(c.phi), mpmath.mpf(c.psi)
    alpha = mpmath.cosh(half) * mpmath.expj((phi + psi) / 2)
    beta = mpmath.sinh(half) * mpmath.expj((phi - psi) / 2)
    return alpha, beta


# Rounding error of the radial variable x = 1 - 2|z|^2 in any double-precision
# evaluation: 64 units in the last place of 1.
X_ROUNDING = 2.0 ** -47


def matrix_element(eta: str, n: int, n_prime: int, c: ops.Chart) -> Expect:
    """U_{n n'}(g) from its closed form, with mpmath's own Jacobi polynomial.

    Near a zero of the Jacobi factor no double-precision evaluation is
    accurate to 1e-10 relative, because x itself is rounded.  The
    expectation allows that much on top: ``slack = |dU/dx| * X_ROUNDING``,
    with ``dP_n^{(a,b)}/dx = (n + a + b + 1)/2 * P_{n-1}^{(a+1,b+1)}``.
    """
    te = ops.two_eta(eta)
    alpha, beta = _alpha_beta(c)
    lo, hi = min(n, n_prime), max(n, n_prime)
    a, b = hi - lo, te - 1
    gamma = -beta if n_prime >= n else mpmath.conj(beta)
    z = beta / mpmath.conj(alpha)
    x = 1 - 2 * abs(z) ** 2
    pref = mpmath.sqrt(mpmath.factorial(lo) * mpmath.gamma(te + hi)
                       / (mpmath.factorial(hi) * mpmath.gamma(te + lo)))
    factor = pref * alpha ** (-(te + hi)) * mpmath.conj(alpha) ** lo * gamma ** a
    slope = (lo + a + b + 1) * mpmath.jacobi(lo - 1, a + 1, b + 1, x) / 2 if lo else 0
    return Expect("rel", factor * mpmath.jacobi(lo, a, b, x), 1e-10,
                  slack=float(abs(factor * slope)) * X_ROUNDING)


def _diagonal_jacobi(b: int, degree: int, x) -> list:
    """P_0^{(0,b)}(x) ... P_degree^{(0,b)}(x) by the three-term recurrence in mpmath."""
    values = [mpmath.mpf(1), 1 + (b + 2) * (x - 1) / 2]
    for n in range(2, degree + 1):
        s = 2 * n + b
        values.append(((s - 1) * (s * (s - 2) * x - b * b) * values[n - 1]
                       - 2 * (n - 1) * (n + b - 1) * s * values[n - 2])
                      / (2 * n * (n + b) * (s - 2)))
    values = values[:degree + 1]
    # Guard the recurrence against mpmath's hypergeometric evaluation.
    check = mpmath.jacobi(degree, 0, b, x)
    if abs(values[-1] - check) > mpmath.mpf(10) ** -25 * max(1, abs(check)):
        raise ArithmeticError("diagonal Jacobi recurrence disagrees with mpmath.jacobi")
    return values


def _diagonal_sums(eta: str, c: ops.Chart, terms: int, dampings) -> list:
    """sum_{n < terms} r^n U_nn(g) for each r in ``dampings``."""
    te = ops.two_eta(eta)
    alpha, beta = _alpha_beta(c)
    x = 1 - 2 * abs(beta / mpmath.conj(alpha)) ** 2
    jac = _diagonal_jacobi(te - 1, terms - 1, x)
    phase = mpmath.conj(alpha) / alpha
    lead = alpha ** (-te)
    sums = []
    for r in dampings:
        q = mpmath.mpf(r) * phase
        total, power = mpmath.mpc(0), mpmath.mpc(1)
        for value in jac:
            total += power * value
            power *= q
        sums.append(lead * total)
    return sums


def _hyperbolic_character(eta: str, c: ops.Chart):
    u = mpmath.re(_alpha_beta(c)[0])
    root = mpmath.sqrt(u * u - 1)
    return (u + root) ** (1 - ops.two_eta(eta)) / (2 * root)


def _compact_character(te: int, theta: float):
    theta = mpmath.mpf(theta)
    return mpmath.expj((1 - te) * theta / 2) / (2j * mpmath.sin(theta / 2))


def _geometric(r: float, theta: float, terms: int):
    """sum_{n < terms} (r exp(-i theta))^n."""
    q = mpmath.mpf(r) * mpmath.expj(-mpmath.mpf(theta))
    return (1 - q ** terms) / (1 - q)


def formal_dimension(eta: str) -> Fraction:
    return Fraction(2, ops.two_eta(eta) - 1)


# -- expectations per workload ----------------------------------------------

def expect_operators(op: ops.OperatorsOp) -> list:
    """Defects are properties every representation has; entries use the closed form."""
    exps = [Expect("defect", None, 1e-8) for _ in range(3)]
    g = op.g
    exps += [matrix_element(op.eta, i, j, g) for i, j in op.direct_cells + op.log_cells]
    exps += [matrix_element(eta, n, n_prime, c) for eta, n, n_prime, c in op.scalars]
    return exps


def expect_series(op: ops.SeriesOp) -> list:
    sums = _diagonal_sums(op.eta, op.hyper, ops.TRACE_TERMS, (1.0,))
    damped = _diagonal_sums(op.eta, op.hyper, ops.DAMPED_TERMS, ops.DAMPINGS)
    character = _hyperbolic_character(op.eta, op.hyper)
    te = ops.two_eta(op.eta)
    exps = [Expect("rel", sums[0], 1e-10)]
    exps += [Expect("rel", s, 1e-10) for s in damped]
    # Three dampings reach the Abel limit only to ~1e-4; verify uses 1e-3.
    exps.append(Expect("rel", character, 1e-3))
    exps.append(Expect("rel", character, 1e-10))
    abel = (mpmath.expj(-mpmath.mpf(op.theta) * te / 2)
            * _geometric(op.r, op.theta, ops.ABEL_TERMS))
    exps.append(Expect("rel", abel, 1e-10))
    exps.append(Expect("rel", _compact_character(te, op.theta), 1e-10))
    eta1, eta2, theta, r = op.tensor
    lead = _compact_character(ops.two_eta(eta1) + ops.two_eta(eta2), theta)
    exps.append(Expect("rel", lead * _geometric(r, theta, ops.TENSOR_TERMS), 1e-10))
    for eta1, eta2, m, mp, n, np_ in op.integrals:
        d1, d2 = formal_dimension(eta1), formal_dimension(eta2)
        if (eta1, m, mp) == (eta2, n, np_):
            exps.append(Expect("rel", mpmath.mpf(d1.numerator) / d1.denominator, 1e-10))
        elif ops.angular_selected(eta1, eta2, m, mp, n, np_):
            exps.append(Expect("abs", 0, 1e-10, math.sqrt(d1 * d2)))
        else:
            exps.append(Expect("abs", 0, 0.0, math.sqrt(d1 * d2)))
    d = formal_dimension(op.mc[0])
    exps.append(Expect("mc", d, 5.0))
    return exps


EXPECT = {"operators": expect_operators, "series-quadrature": expect_series}


# -- verify-all ---------------------------------------------------------------

VERIFY_CHECKS = frozenset(
    [("ortho", name) for name in (
        "quadrature_zeroth_moment", "diagonal_norm_closed_form", "diagonal_sweep",
        "cross_label_vanishing", "unselected_exact_zero", "monte_carlo_spot")]
    + [("unitary", f"{kind}_eta_{eta}") for eta in ("1", "3/2", "2")
       for kind in ("unitarity", "homomorphism")]
    + [("unitary", "cross_form_consistency")]
    + [("character", name) for name in (
        "chart_form_consistency", "hyperbolic_abel_limit", "elliptic_abel_residual",
        "abel_limit_closed_form", "class_function")]
    + [("tensor", name) for name in (
        "spectrum_exact", "product_closed_form", "abel_certification",
        "abel_limit_equals_product", "expansion_identity")]
)


def score_verify(records: list, perturbed: bool = False) -> tuple:
    """(passed, digits per record) of one ``su11 verify --suite all`` output.

    Each record's value is the error measure of one check, judged here against
    the record's own tolerance.  A record's digits are ``-log10`` of that
    error.  In the negative control every measured quantity carries a 1e-8
    relative error, which adds 1e-8 to each error measure.
    """
    names = set()
    digits = []
    passed = True
    for rec in records:
        inputs = rec["inputs"]
        names.add((inputs["suite"], inputs["check"]))
        measured = rec["value_re"] + (PERTURBATION if perturbed else 0.0)
        ok = inputs["passed"] is True and 0.0 <= measured <= inputs["tol"]
        passed &= ok
        digits.append(_digits(measured) if ok else 0.0)
    passed &= len(records) == len(VERIFY_CHECKS) and names == VERIFY_CHECKS
    return passed, digits
