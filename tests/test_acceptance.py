"""Acceptance suite.

Each test evaluates one acceptance criterion at its pinned tolerance and
prints a single ``ACCEPTANCE <k>: PASS|FAIL`` line with the measured worst
case and the elapsed time, then asserts.
"""
import cmath
import json
import math
import subprocess
import sys
import time
from itertools import product

import numpy as np

from su11 import (
    OrthoRequest,
    abel_trace,
    abel_trace_closed_form,
    as_rep_label,
    character,
    character_compact,
    character_product,
    abel_character_sum,
    decompose,
    formal_dimension,
    from_cartan,
    gauss_jacobi,
    gr_7391,
    homomorphism_defect,
    jacobi_sequence,
    matrix_element,
    matrix_element_cartan,
    monte_carlo_haar,
    multiplicity,
    orthogonality_integral,
    quadrature_order_for_degree,
    to_cartan,
    trace_partial_sum,
    truncated_operator,
    unitarity_defect,
    RepLabel,
    HalfInteger,
)

ETAS5 = ("1", "3/2", "2", "5/2", "3")
ETAS3 = ("1", "3/2", "2")


def report(capsys, number, label, ok, detail):
    # bypass pytest capture so every criterion line lands in the run log
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label} ({detail})")


def test_criterion_01_orthogonality_diagonal(capsys):
    start = time.perf_counter()
    worst = 0.0
    for eta in ETAS5:
        target = float(formal_dimension(eta))
        for m, mp in product(range(9), repeat=2):
            res = orthogonality_integral(OrthoRequest(eta, eta, m, mp, m, mp))
            worst = max(worst, abs(res.value - target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(capsys, 1, "diagonal integrals equal the formal dimension", ok,
           f"max abs err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_orthogonality_vanishing(capsys):
    start = time.perf_counter()
    labels = [as_rep_label(e) for e in ETAS5]
    worst = 0.0
    for l1, l2 in product(labels, repeat=2):
        if l1 == l2 or (l1.two_eta - l2.two_eta) % 2 != 0:
            continue
        s = (l1.two_eta - l2.two_eta) // 2
        for m, mp in product(range(9), repeat=2):
            n, np_ = m + s, mp + s
            if not (0 <= n <= 8 and 0 <= np_ <= 8):
                continue
            res = orthogonality_integral(OrthoRequest(l1, l2, m, mp, n, np_))
            worst = max(worst, abs(res.value))
    unselected = [
        ("1", "1", 0, 0, 1, 0),
        ("1", "3/2", 0, 0, 0, 0),
        ("2", "1", 0, 0, 0, 0),
        ("1", "1", 0, 1, 0, 2),
        ("3/2", "3/2", 2, 0, 1, 0),
    ]
    exact_zero = True
    worst_sigma = 0.0
    for i, case in enumerate(unselected):
        req = OrthoRequest(*case)
        res = orthogonality_integral(req)
        exact_zero &= (res.value == 0.0 and not res.angular_selected)
        est = monte_carlo_haar(req, 1_000_000, seed=1000 + i)
        worst_sigma = max(worst_sigma, abs(est.value) / (3.0 * est.stderr))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and exact_zero and worst_sigma <= 1.0 and elapsed < 60.0
    report(capsys, 2, "cross-label integrals vanish; Monte Carlo agrees", ok,
           f"max |integral| {worst:.2e}, max |mc|/3sigma {worst_sigma:.2f}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert exact_zero
    assert worst_sigma <= 1.0
    assert elapsed < 60.0


def test_criterion_03_matrix_element_cross_form(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    etas = ("1", "3/2", "2", "5/2", "3", "7/2", "4")
    worst = 0.0
    for _ in range(10_000):
        eta = etas[int(rng.integers(len(etas)))]
        n = int(rng.integers(0, 13))
        np_ = int(rng.integers(0, 13))
        g = from_cartan(rng.uniform(0.0, 4.0), rng.uniform(0.0, 2 * math.pi),
                        rng.uniform(-2 * math.pi, 2 * math.pi))
        direct = matrix_element(eta, n, np_, g)
        chart = matrix_element_cartan(eta, n, np_, to_cartan(g))
        worst = max(worst, abs(direct - chart) / (1.0 + abs(direct)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 5.0
    report(capsys, 3, "algebraic and chart matrix elements agree", ok,
           f"max rel err {worst:.2e} over 10^4 draws, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 5.0


def test_criterion_04_unitarity_and_homomorphism(capsys):
    start = time.perf_counter()
    size, k = 60, 10
    rng = np.random.default_rng(2718)
    worst_u = 0.0
    worst_h = 0.0
    for eta in ETAS3:
        for _ in range(100):
            g1 = from_cartan(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi),
                             rng.uniform(-2 * math.pi, 2 * math.pi))
            g2 = from_cartan(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi),
                             rng.uniform(-2 * math.pi, 2 * math.pi))
            worst_u = max(worst_u, unitarity_defect(truncated_operator(eta, g1, size), k))
            worst_h = max(worst_h, homomorphism_defect(eta, g1, g2, size, k))
    elapsed = time.perf_counter() - start
    ok = worst_u <= 1e-8 and worst_h <= 1e-8 and elapsed < 30.0
    report(capsys, 4, "truncated blocks are unitary and multiplicative", ok,
           f"unitarity {worst_u:.2e}, homomorphism {worst_h:.2e}, {elapsed:.1f}s")
    assert worst_u <= 1e-8
    assert worst_h <= 1e-8
    assert elapsed < 30.0


def _diagonal_partial_sums(eta, g, terms):
    """S_1 .. S_terms, where S_N = sum_{n < N} U_nn(g).

    Each S_N is formed with the builtin ``sum`` over the same terms in the
    same order as ``trace_partial_sum``, so S_terms equals it exactly.
    """
    diagonal = [matrix_element(eta, n, n, g) for n in range(terms)]
    return [sum(diagonal[:k], 0j) for k in range(1, terms + 1)]


def _wynn_limit(partials):
    """Limit of a sequence, estimated by Wynn's epsilon algorithm.

    P. Wynn, Math. Tables Aids Comput. 10 (1956).  Column k + 1 of the table
    is eps_{k+1}^(i) = eps_{k-1}^(i+1) + 1 / (eps_k^(i+1) - eps_k^(i)), with
    eps_{-1} = 0 and eps_0 the sequence; the even columns hold the limit
    estimates, and the last entry of the highest even column is returned.
    Once the table has converged a difference can vanish or overflow, so the
    table stops there and returns the last finite even-column entry: the
    result is never inf or NaN.
    """
    prev = [0j] * (len(partials) + 1)
    col = list(partials)
    best = col[-1]
    for k in range(1, len(partials)):
        diffs = [b - a for a, b in zip(col, col[1:])]
        if any(d == 0 or not cmath.isfinite(d) for d in diffs):
            return best
        prev, col = col, [p + 1.0 / d for p, d in zip(prev[1:], diffs)]
        if k % 2 == 0:
            if not cmath.isfinite(col[-1]):
                return best
            best = col[-1]
    return best


def test_criterion_05_characters_hyperbolic_partial_sums(capsys):
    # The monomial basis does not diagonalize boost classes: the diagonal
    # terms decay only like n^(-1/2), so the raw partial sums S_N converge
    # conditionally, at rate N^(-1/2) (S_60 is still ~1e-1 off).  The sixty
    # partial sums S_1..S_60 nevertheless pin down their limit: Wynn's epsilon
    # algorithm, a regular transform that returns a convergent series' own
    # limit, reads it off them, and that limit must equal the closed form.
    # The negative control feeds the same estimate the eta = 2 terms; it must
    # miss the eta = 3/2 closed form, so agreement cannot come from the
    # estimate alone.
    start = time.perf_counter()
    worst = 0.0
    worst_raw = 0.0
    for eta in ETAS3:
        for t in (0.5, 1.0, 2.0):
            g = from_cartan(2.0 * t, 0.0, 0.0)
            closed = character(eta, g).value
            partials = _diagonal_partial_sums(eta, g, 60)
            assert trace_partial_sum(eta, g, 60) == partials[-1]
            limit = _wynn_limit(partials)
            assert cmath.isfinite(limit)
            worst = max(worst, abs(limit - closed))
            worst_raw = max(worst_raw, abs(partials[-1] - closed))
    miss = math.inf
    for t in (0.5, 1.0, 2.0):
        g = from_cartan(2.0 * t, 0.0, 0.0)
        wrong = _wynn_limit(_diagonal_partial_sums("2", g, 60))
        assert cmath.isfinite(wrong)
        miss = min(miss, abs(wrong - character("3/2", g).value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and miss >= 1e-3 and elapsed < 1.0
    report(capsys, 5, "hyperbolic partial trace sums reach closed form at 60 terms", ok,
           f"max abs err {worst:.2e} from the 60 sums, {worst_raw:.2e} raw S_60; "
           f"control miss {miss:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9, (
        "the limit determined by the 60 diagonal partial sums differs from the "
        "closed-form hyperbolic character"
    )
    assert miss >= 1e-3, (
        "the limit estimate from eta = 2 terms matches the eta = 3/2 character; "
        "the comparison cannot tell labels apart"
    )
    assert elapsed < 1.0


def test_criterion_06_characters_elliptic_abel(capsys):
    start = time.perf_counter()
    gaps = (0.1, 0.01, 0.001)
    worst_resid = 0.0
    worst_limit = 0.0
    slopes_ok = True
    for eta in ETAS3:
        for theta in (0.5, 1.0, math.pi, 2 * math.pi - 0.5):
            target = character_compact(eta, theta)
            residuals = [abs(abel_trace(eta, theta, 1.0 - gap, 20_000) - target)
                         for gap in gaps]
            slope = np.polyfit(gaps, residuals, 1)[0]
            slopes_ok &= math.isfinite(slope) and slope > 0.0
            worst_resid = max(worst_resid, residuals[2] / abs(target))
            worst_limit = max(worst_limit, abs(abel_trace_closed_form(eta, theta, 1.0) - target))
    elapsed = time.perf_counter() - start
    ok = slopes_ok and worst_resid <= 1e-2 and worst_limit <= 1e-13 and elapsed < 1.0
    report(capsys, 6, "elliptic damped traces scale linearly to the closed form", ok,
           f"resid(r=0.999) {worst_resid:.2e} of |chi|, limit err {worst_limit:.2e}, {elapsed:.2f}s")
    assert slopes_ok
    assert worst_resid <= 1e-2
    assert worst_limit <= 1e-13
    assert elapsed < 1.0


def test_criterion_07_expansion_identity(capsys):
    from su11 import verify_expansion_identity

    start = time.perf_counter()
    worst = max(verify_expansion_identity(float(theta))
                for theta in np.linspace(0.1, 2 * math.pi - 0.1, 100))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 0.1
    report(capsys, 7, "geometric expansion of 1/sin holds at the Abel level", ok,
           f"max residual {worst:.2e}, {elapsed:.3f}s")
    assert worst <= 1e-13
    assert elapsed < 0.1


def test_criterion_08_tensor_spectrum_and_certification(capsys):
    start = time.perf_counter()
    labels = [as_rep_label(t / 2.0) for t in range(2, 9)]
    mismatches = 0
    for l1, l2 in product(labels, repeat=2):
        present = {term.eta3.two_eta for term in decompose(l1, l2, 20).terms}
        top = l1.two_eta + l2.two_eta + 40
        for t3 in range(2, top + 1):
            expected = 1 if t3 in present else 0
            if multiplicity(l1, l2, RepLabel(HalfInteger(t3))) != expected:
                mismatches += 1
    worst_resid = 0.0
    decreasing = True
    for eta1, eta2, theta in [("1", "1", 1.0), ("1", "3/2", 0.5),
                              ("3/2", "2", math.pi), ("2", "2", 2 * math.pi - 0.5),
                              ("5/2", "1", 2.5)]:
        target = character_product(eta1, eta2, theta)
        residuals = []
        for gap in (0.1, 0.01, 0.001):
            n_terms = int(math.ceil(30.0 / gap))
            residuals.append(
                abs(abel_character_sum(eta1, eta2, theta, 1.0 - gap, n_terms) - target)
            )
        decreasing &= residuals[0] > residuals[1] > residuals[2]
        worst_resid = max(worst_resid, residuals[2] / abs(target))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and decreasing and worst_resid <= 1e-2 and elapsed < 1.0
    report(capsys, 8, "tensor spectrum exact; character series certified", ok,
           f"mismatches {mismatches}, worst resid {worst_resid:.2e}, {elapsed:.2f}s")
    assert mismatches == 0
    assert decreasing
    assert worst_resid <= 1e-2
    assert elapsed < 1.0


def test_criterion_09_quadrature_kernel(capsys):
    start = time.perf_counter()
    worst_gr = 0.0
    for a in range(7):
        for b in range(1, 9):
            for m in range(11):
                rule = gauss_jacobi(quadrature_order_for_degree(2 * m),
                                    float(a), float(b - 1))
                poly = jacobi_sequence(float(a), float(b), m, rule.nodes)[-1]
                direct = float(np.dot(rule.weights, poly * poly))
                closed = gr_7391(float(a), float(b), m)
                worst_gr = max(worst_gr, abs(direct - closed) / closed)
    rng = np.random.default_rng(99)
    worst_moment = 0.0
    for _ in range(20):
        order = int(rng.integers(1, 14))
        a = float(rng.uniform(-0.9, 6.0))
        b = float(rng.uniform(-0.9, 6.0))
        rule = gauss_jacobi(order, a, b)
        moment = 2.0 ** (a + b + 1.0) * math.exp(
            math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        )
        worst_moment = max(worst_moment, abs(float(np.sum(rule.weights)) - moment) / moment)
    elapsed = time.perf_counter() - start
    ok = worst_gr <= 1e-12 and worst_moment <= 1e-13 and elapsed < 5.0
    report(capsys, 9, "closed-form norms and moments match quadrature", ok,
           f"norm err {worst_gr:.2e}, moment err {worst_moment:.2e}, {elapsed:.2f}s")
    assert worst_gr <= 1e-12
    assert worst_moment <= 1e-13
    assert elapsed < 5.0


def test_criterion_10_cli_verify_deterministic(capsys):
    start = time.perf_counter()
    args = [sys.executable, "-m", "su11", "verify", "--suite", "all",
            "--samples", "100000", "--seed", "7"]
    first = subprocess.run(args, capture_output=True, timeout=110)
    second = subprocess.run(args, capture_output=True, timeout=110)
    elapsed = time.perf_counter() - start
    identical = first.stdout == second.stdout
    records = [json.loads(line) for line in first.stdout.decode().splitlines()]
    ok = (first.returncode == 0 and identical and records and elapsed < 120.0)
    report(capsys, 10, "verify suite exits 0 and is byte-identical across runs", ok,
           f"exit {first.returncode}, {len(records)} checks, {elapsed:.1f}s")
    assert first.returncode == 0
    assert identical
    assert records
    assert elapsed < 120.0
