"""Acceptance suite.

Each test evaluates one acceptance criterion at its pinned tolerance and
prints a single ``ACCEPTANCE <k>: PASS|FAIL`` line with the measured worst
case and the elapsed time, then asserts.  Criteria 1-4 and 6-9 call the
check functions of ``su11.verify`` that ``su11 verify`` runs, passing their
own grids, draw counts and seeds where these differ; the bounds stay written
out here.
"""
import cmath
import json
import math
import subprocess
import sys
import time

from su11 import character, from_cartan, matrix_element, trace_partial_sum
from su11.verify import (
    UNSELECTED, abel_certification, abel_limit_closed_form, block_defects,
    cross_form_consistency, cross_label_vanishing, diagonal_norm_closed_form, diagonal_sweep,
    elliptic_abel_residual, expansion_identity, monte_carlo_spot, quadrature_zeroth_moment,
    spectrum_exact, unselected_exact_zero,
)


def accept(capsys, number, label, detail, **bounds):
    """Print the criterion's ACCEPTANCE line, then assert every named bound."""
    # bypass pytest capture so every criterion line lands in the run log
    with capsys.disabled():
        verdict = "PASS" if all(bounds.values()) else "FAIL"
        print(f"\nACCEPTANCE {number}: {verdict} - {label} ({detail})")
    assert all(bounds.values()), [name for name, held in bounds.items() if not held]


def test_criterion_01_orthogonality_diagonal(capsys):
    start = time.perf_counter()
    worst = diagonal_sweep(max_index=8).measured
    elapsed = time.perf_counter() - start
    accept(capsys, 1, "diagonal integrals equal the formal dimension",
           f"max abs err {worst:.2e}, {elapsed:.2f}s", error=worst <= 1e-10, time=elapsed < 10.0)


def test_criterion_02_orthogonality_vanishing(capsys):
    start = time.perf_counter()
    worst = cross_label_vanishing(max_index=8).measured
    # 0 only if every case is unselected and exactly zero
    not_zero = unselected_exact_zero().measured
    worst_sigma = monte_carlo_spot(UNSELECTED, samples=1_000_000, seed=1000).measured
    elapsed = time.perf_counter() - start
    accept(capsys, 2, "cross-label integrals vanish; Monte Carlo agrees",
           f"max |integral| {worst:.2e}, max |mc|/3sigma {worst_sigma:.2f}, {elapsed:.1f}s",
           integral=worst <= 1e-12, exact_zero=not_zero == 0.0,
           monte_carlo=worst_sigma <= 1.0, time=elapsed < 60.0)


def test_criterion_03_matrix_element_cross_form(capsys):
    start = time.perf_counter()
    etas = ("1", "3/2", "2", "5/2", "3", "7/2", "4")
    worst = cross_form_consistency(draws=10_000, seed=314159, etas=etas).measured
    elapsed = time.perf_counter() - start
    accept(capsys, 3, "algebraic and chart matrix elements agree",
           f"max rel err {worst:.2e} over 10^4 draws, {elapsed:.2f}s",
           error=worst <= 1e-11, time=elapsed < 5.0)


def test_criterion_04_unitarity_and_homomorphism(capsys):
    start = time.perf_counter()
    checks = block_defects(size=60, k=10, n_random=100, seed=2718)
    worst_u = max(c.measured for c in checks if c.name.startswith("unitarity"))
    worst_h = max(c.measured for c in checks if c.name.startswith("homomorphism"))
    elapsed = time.perf_counter() - start
    accept(capsys, 4, "truncated blocks are unitary and multiplicative",
           f"unitarity {worst_u:.2e}, homomorphism {worst_h:.2e}, {elapsed:.1f}s",
           unitarity=worst_u <= 1e-8, homomorphism=worst_h <= 1e-8, time=elapsed < 30.0)


def _diagonal_partial_sums(eta, g, terms):
    """S_1 .. S_terms, where S_N = sum_{n < N} U_nn(g).

    The terms are added one at a time, left to right, n = 0 first, as
    ``trace_partial_sum`` adds them, so S_terms equals it exactly.
    """
    partials, s = [], 0j
    for n in range(terms):
        s += matrix_element(eta, n, n, g)
        partials.append(s)
    return partials


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
    for eta in ("1", "3/2", "2"):
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
    accept(capsys, 5, "hyperbolic partial trace sums reach closed form at 60 terms",
           f"max abs err {worst:.2e} from the 60 sums, {worst_raw:.2e} raw S_60; "
           f"control miss {miss:.2e}, {elapsed:.2f}s",
           # the limit the 60 diagonal partial sums determine is the closed form
           limit_is_closed_form=worst <= 1e-9,
           # the eta = 2 estimate misses the eta = 3/2 character: labels are told apart
           control_misses=miss >= 1e-3,
           time=elapsed < 1.0)


def test_criterion_06_characters_elliptic_abel(capsys):
    start = time.perf_counter()
    # inf unless the residuals fall strictly and fit a positive slope in 1 - r
    worst_resid = elliptic_abel_residual().measured
    worst_limit = abel_limit_closed_form(
        etas=("1", "3/2", "2"), thetas=(0.5, 1.0, math.pi, 2 * math.pi - 0.5)).measured
    elapsed = time.perf_counter() - start
    accept(capsys, 6, "elliptic damped traces scale linearly to the closed form",
           f"resid(r=0.999) {worst_resid:.2e} of |chi|, limit err {worst_limit:.2e}, {elapsed:.2f}s",
           residual=worst_resid <= 1e-2, limit=worst_limit <= 1e-13, time=elapsed < 1.0)


def test_criterion_07_expansion_identity(capsys):
    start = time.perf_counter()
    worst = expansion_identity().measured
    elapsed = time.perf_counter() - start
    accept(capsys, 7, "geometric expansion of 1/sin holds at the Abel level",
           f"max residual {worst:.2e}, {elapsed:.3f}s", residual=worst <= 1e-13, time=elapsed < 0.1)


def test_criterion_08_tensor_spectrum_and_certification(capsys):
    start = time.perf_counter()
    mismatches = spectrum_exact().measured
    # inf unless the residuals fall strictly as r -> 1
    worst_resid = abel_certification().measured
    elapsed = time.perf_counter() - start
    accept(capsys, 8, "tensor spectrum exact; character series certified",
           f"mismatches {mismatches:.0f}, worst resid {worst_resid:.2e}, {elapsed:.2f}s",
           spectrum=mismatches == 0, residual=worst_resid <= 1e-2, time=elapsed < 1.0)


def test_criterion_09_quadrature_kernel(capsys):
    start = time.perf_counter()
    worst_gr = diagonal_norm_closed_form().measured
    worst_moment = quadrature_zeroth_moment(seed=99, max_order=13).measured
    elapsed = time.perf_counter() - start
    accept(capsys, 9, "closed-form norms and moments match quadrature",
           f"norm err {worst_gr:.2e}, moment err {worst_moment:.2e}, {elapsed:.2f}s",
           norm=worst_gr <= 1e-12, moment=worst_moment <= 1e-13, time=elapsed < 5.0)


def test_criterion_10_cli_verify_deterministic(capsys):
    start = time.perf_counter()
    args = [sys.executable, "-m", "su11", "verify", "--suite", "all",
            "--samples", "100000", "--seed", "7"]
    first = subprocess.run(args, capture_output=True, timeout=110)
    second = subprocess.run(args, capture_output=True, timeout=110)
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in first.stdout.decode().splitlines()]
    accept(capsys, 10, "verify suite exits 0 and is byte-identical across runs",
           f"exit {first.returncode}, {len(records)} checks, {elapsed:.1f}s",
           exit_0=first.returncode == 0, identical=first.stdout == second.stdout,
           records=bool(records), time=elapsed < 120.0)
