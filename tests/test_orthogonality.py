"""Orthogonality pipeline: selection rules, radial integrals, Monte Carlo."""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from su11 import (
    InvalidParams,
    OrthoRequest,
    RepLabel,
    angular_selection,
    as_rep_label,
    formal_dimension,
    gauss_legendre,
    jacobi_sequence,
    matrix_element_batch,
    monte_carlo_haar,
    orthogonality_integral,
    radial_integral,
)
from su11 import orthogonality
from su11.orthogonality import haar_integrand
from su11.repmatrix import matrix_element_polar
from su11.verify import UNSELECTED, gr_7391, monte_carlo_spot

ETAS = ["1", "3/2", "2", "5/2", "3"]


def test_formal_dimension_exact():
    assert formal_dimension("1") == Fraction(2)
    assert formal_dimension("3/2") == Fraction(1)
    assert formal_dimension("2") == Fraction(2, 3)
    assert formal_dimension("7/2") == Fraction(1, 3)


def test_angular_selection_rules():
    assert angular_selection(OrthoRequest("1", "1", 0, 0, 0, 0))
    assert angular_selection(OrthoRequest("1", "1", 3, 5, 3, 5))
    assert not angular_selection(OrthoRequest("1", "1", 0, 0, 1, 0))
    assert angular_selection(OrthoRequest("2", "1", 0, 0, 1, 1))
    assert angular_selection(OrthoRequest("2", "1", 2, 4, 3, 5))
    # half-odd label differences can never satisfy an integer index offset
    assert not angular_selection(OrthoRequest("3/2", "1", 0, 0, 0, 0))
    assert not angular_selection(OrthoRequest("3/2", "1", 0, 0, 1, 1))


def test_radial_integral_trivial_case():
    # both polynomials are constant 1 and the weight is flat
    assert radial_integral(OrthoRequest("1", "1", 0, 0, 0, 0)) == pytest.approx(2.0, rel=1e-14)


def test_radial_integral_diagonal_matches_closed_form():
    for eta in ETAS:
        te = as_rep_label(eta).two_eta
        for m, mp in [(0, 0), (1, 3), (2, 2), (4, 7)]:
            got = radial_integral(OrthoRequest(eta, eta, m, mp, m, mp))
            expected = gr_7391(float(mp - m), float(te - 1), m)
            assert got == pytest.approx(expected, rel=1e-12)


def test_radial_integral_cross_label_vanishes():
    for m, mp in [(0, 0), (2, 5), (3, 3)]:
        value = radial_integral(OrthoRequest("2", "1", m, mp, m + 1, mp + 1))
        assert abs(value) <= 1e-12


def test_radial_integral_preconditions():
    with pytest.raises(InvalidParams):
        radial_integral(OrthoRequest("1", "1", 0, 0, 1, 0))
    with pytest.raises(InvalidParams):
        radial_integral(OrthoRequest("1", "1", 2, 0, 2, 0))


def test_pipeline_diagonal_values():
    res = orthogonality_integral(OrthoRequest("1", "1", 0, 0, 0, 0))
    assert res.angular_selected
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.expected == 2.0
    assert res.formal_dimension == Fraction(2)
    res = orthogonality_integral(OrthoRequest("3/2", "3/2", 1, 3, 1, 3))
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_pipeline_sweep_both_orderings():
    for eta in ETAS:
        target = float(formal_dimension(eta))
        for m, mp in product(range(6), repeat=2):
            res = orthogonality_integral(OrthoRequest(eta, eta, m, mp, m, mp))
            assert abs(res.value - target) <= 1e-10


def test_pipeline_off_diagonal_same_label():
    # equal labels admit no selected off-diagonal case: the phase integrals
    # force n = m and n' = m', so any mismatch short-circuits to exact zero
    for case in [("2", "2", 1, 3, 1, 5), ("2", "2", 1, 3, 2, 4)]:
        res = orthogonality_integral(OrthoRequest(*case))
        assert not res.angular_selected
        assert res.value == 0.0
        assert res.expected == 0.0


def test_pipeline_cross_label_vanishing():
    res = orthogonality_integral(OrthoRequest("2", "1", 0, 0, 1, 1))
    assert res.angular_selected
    assert abs(res.value) <= 1e-12
    assert res.expected == 0.0


def test_pipeline_unselected_is_exact_zero():
    for case in [("1", "1", 0, 0, 1, 0), ("1", "3/2", 0, 0, 0, 0),
                 ("3/2", "3/2", 2, 0, 1, 0)]:
        res = orthogonality_integral(OrthoRequest(*case))
        assert res.value == 0.0
        assert not res.angular_selected


def weighted_integral(a, b, degree, f):
    """integral (1-x)^a (1+x)^b f(x) dx for integers a, b >= 0 and a polynomial
    f of the given degree, by a Legendre rule exact for the whole integrand."""
    x, w = gauss_legendre((a + b + degree) // 2 + 1)
    return float(np.dot(w * (1.0 - x) ** a * (1.0 + x) ** b, f(x)))


def test_vanishing_family_from_degree_orthogonality():
    # integral (1-x)^a (1+x)^{b+s-1} P_m^{(a, b+2s)} P_{m+s}^{(a, b)} dx = 0:
    # the lower-degree factor times (1+x)^{s-1} has degree m+s-1 < m+s.
    for s in (1, 2, 3):
        for a in range(0, 6):
            for b in range(1, 7):
                for m in range(0, 7):
                    def f(x):
                        return (jacobi_sequence(float(a), float(b + 2 * s), m, x)[-1]
                                * jacobi_sequence(float(a), float(b), m + s, x)[-1])
                    assert abs(weighted_integral(a, b + s - 1, 2 * m + s, f)) <= 1e-12


def test_monomials_below_degree_integrate_to_zero():
    for a, b, n in [(0, 1, 4), (2, 3, 6), (1, 2, 9)]:
        for r in range(n):
            def f(x):
                return x**r * jacobi_sequence(float(a), float(b), n, x)[-1]
            assert abs(weighted_integral(a, b, n + r, f)) <= 1e-11


def test_radial_quadrature_order_stability():
    # doubling the order leaves the (exactly integrated) value unchanged
    req = OrthoRequest("2", "2", 3, 6, 3, 6)
    base = radial_integral(req)
    x, w = gauss_legendre(2 * ((3 + 2 + 6) // 2 + 1))
    p1 = jacobi_sequence(3.0, 3.0, 3, x)[-1]
    doubled = float(np.dot(w * (1.0 - x) ** 3 * (1.0 + x) ** 2, p1 * p1))
    assert doubled == pytest.approx(base, rel=1e-13)
    # The rule's order is the power of two >= need = (a + b + m + n) // 2 + 1,
    # and its value agrees with the rule of order need up to the round-off of
    # the rules' weights (5.5e-13 at eta = 1, m = 40, a = 0).  Cross-label
    # integrals vanish, so the tolerance is relative to the sum of |terms|.
    cases = [(eta, eta, m, m + a, m, m + a)
             for eta, m, a in product(("1", "5/2"), (0, 3, 40), (0, 5, 60))]
    cases += [(e1, e2, m, m + a, m + k, m + a + k)
              for (e1, e2, k), m, a in product((("2", "1", 1), ("3", "1", 2)), (0, 9), (0, 17))]
    for case in cases:
        req = OrthoRequest(*case)
        t1, t2 = req.eta1.two_eta, req.eta2.two_eta
        a, b = req.m_prime - req.m, (t1 + t2) // 2 - 2
        need = (a + b + req.m + req.n) // 2 + 1
        order = orthogonality_integral(req).order
        assert order & (order - 1) == 0 and need <= order < 2 * need, case
        value = radial_integral(req)

        def terms(rule):
            x, w = rule
            p1 = jacobi_sequence(float(a), float(t1 - 1), req.m, x)[-1]
            p2 = jacobi_sequence(float(a), float(t2 - 1), req.n, x)[-1]
            return w * (1.0 - x) ** a * (1.0 + x) ** b, p1 * p2

        weight, product_ = terms(gauss_legendre(need))
        reference = float(np.dot(weight, product_))
        assert abs(value - reference) <= 1e-12 * float(np.sum(np.abs(weight * product_))), case
        if t1 == t2:
            # One sequence serves both factors: the same bits as two calls.
            assert value == float(np.dot(*terms(gauss_legendre(order)))), case
    assert orthogonality_integral(OrthoRequest("1", "1", 0, 0, 1, 0)).order == 0


def test_large_index_integrals():
    # Indices in the hundreds and offsets m' - m up to 100: the Jacobi factors
    # reach ~1e72 near x = 1, so the rule's weights need relative accuracy.
    for eta in ("1", "3/2", "5/2"):
        target = float(formal_dimension(eta))
        for m, a in product((0, 7, 50, 100, 150), (0, 1, 30, 70, 100)):
            for req in (OrthoRequest(eta, eta, m, m + a, m, m + a),
                        OrthoRequest(eta, eta, m + a, m, m + a, m)):
                value = orthogonality_integral(req).value
                assert abs(value - target) <= 1e-10 * target, (eta, m, a)
    for case in [("5/2", "3/2", 50, 90, 51, 91), ("2", "1", 150, 190, 151, 191),
                 ("3", "1", 120, 100, 122, 102), ("7/2", "3/2", 80, 115, 82, 117),
                 ("3", "2", 0, 40, 1, 41)]:
        res = orthogonality_integral(OrthoRequest(*case))
        assert res.angular_selected and abs(res.value) <= 1e-10, case
    # beyond the domain the Jacobi factors overflow: refused, never NaN
    with pytest.raises(InvalidParams):
        orthogonality_integral(OrthoRequest("1", "1", 300, 600, 300, 600))


def _two_call_radial(t1, t2, m, mp, n):
    """The canonical radial integral from one Jacobi recurrence per label."""
    a, b = mp - m, (t1 + t2) // 2 - 2
    need = (a + b + m + n) // 2 + 1
    x, w = gauss_legendre(1 << (need - 1).bit_length())
    p1 = jacobi_sequence(float(a), float(t1 - 1), m, x)[-1]
    p2 = jacobi_sequence(float(a), float(t2 - 1), n, x)[-1]
    return float(np.dot(w * (1.0 - x) ** a * (1.0 + x) ** b, p1 * p2))


def test_cross_label_radial_integral_equals_two_calls_bit_for_bit():
    # One call with a lane per label gives each label's own sequence.
    labels = range(2, 8)  # 2 eta for eta = 1 ... 7/2
    for t1, t2 in product(labels, labels):
        if t1 == t2 or (t1 - t2) % 2:
            continue
        shift = (t1 - t2) // 2
        for m, a in product((0, 1, 2, 7, 19, 40), (0, 1, 4)):
            n = m + shift
            if n < 0:
                continue
            req = OrthoRequest(RepLabel(two_eta=t1), RepLabel(two_eta=t2), m, m + a, n, n + a)
            assert radial_integral(req).hex() == _two_call_radial(t1, t2, m, m + a, n).hex()


def test_transposed_requests_share_one_radial_integral(clear_su11_caches):
    # (m, m') and (m', m) map to one canonical request, so the second is a hit.
    cache = orthogonality._radial_value
    for case in [("2", "2", 3, 6, 3, 6), ("5/2", "3/2", 1, 4, 2, 5)]:
        req = OrthoRequest(*case)
        e1, e2, m, mp, n, np_ = case
        transposed = OrthoRequest(e1, e2, mp, m, np_, n)
        clear_su11_caches()
        expected = [orthogonality_integral(r).value.hex() for r in (req, transposed)]
        clear_su11_caches()
        radial = radial_integral(req).hex()
        clear_su11_caches()
        got = [orthogonality_integral(r).value.hex() for r in (req, transposed)]
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 1), case
        assert got == expected, case
        assert radial_integral(req).hex() == radial
        assert cache.cache_info().hits == 2
    # A refusal is raised again, not kept.
    clear_su11_caches()
    for _ in range(2):
        with pytest.raises(InvalidParams):
            orthogonality_integral(OrthoRequest("1", "1", 300, 600, 300, 600))
    assert cache.cache_info().currsize == 0


def test_request_refuses_non_integer_indices():
    for index in (1.5, 2.0, True, "1", None):
        with pytest.raises(InvalidParams):
            OrthoRequest("1", "1", index, 1, 1, 1)
        with pytest.raises(InvalidParams):
            OrthoRequest("1", "1", 1, 1, 1, index)
    with pytest.raises(InvalidParams):
        OrthoRequest("1", "1", 1.5, 1.5, 1.5, 1.5)


# ----------------------------------------------------------------------
# Monte Carlo cross-check
# ----------------------------------------------------------------------

def test_monte_carlo_diagonal_within_three_sigma():
    req = OrthoRequest("1", "1", 0, 0, 0, 0)
    est = monte_carlo_haar(req, 1_000_000, seed=123)
    assert abs(est.value - 2.0) <= 3.0 * est.stderr
    assert est.stderr < 0.02


def test_monte_carlo_cross_label_within_three_sigma():
    req = OrthoRequest("2", "1", 0, 0, 1, 1)
    est = monte_carlo_haar(req, 200_000, seed=321)
    assert abs(est.value) <= 3.0 * est.stderr


def test_monte_carlo_deterministic():
    req = OrthoRequest("1", "1", 0, 1, 0, 1)
    a = monte_carlo_haar(req, 100_000, seed=777)
    b = monte_carlo_haar(req, 100_000, seed=777)
    assert a.value == b.value and a.stderr == b.stderr
    c = monte_carlo_haar(req, 100_000, seed=778)
    assert c.value != a.value


def _whole_chunks(req, samples, seed, chunk=200_000):
    """monte_carlo_haar's estimate, drawing each chunk whole from default_rng(seed).

    A chunk of ``count`` points takes ``count`` tau draws, then ``count`` phi
    draws, then ``count`` psi draws, and its integrand is evaluated in one call.
    monte_carlo_haar draws the same values slice by slice from PCG64(seed)
    generators advanced to each run of draws.  That rests on two properties
    of NumPy that it does not document: default_rng(seed) starts in the state
    of PCG64(seed), and Generator.uniform takes one 64-bit output per double.
    The tests below that compare with this reference guard both.
    """
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    remaining = samples
    while remaining > 0:
        count = min(chunk, remaining)
        tau = rng.uniform(0.0, 12.0, count)
        phi = rng.uniform(0.0, 2.0 * math.pi, count)
        psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, count)
        f = haar_integrand(req, tau, phi, psi)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
        remaining -= count
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0) / samples
    return [(12.0 * mean).hex(), (12.0 * math.sqrt(variance)).hex()]


def _hex(est):
    return [est.value.hex(), est.stderr.hex()]


def test_monte_carlo_slices_leave_every_estimate_unchanged():
    # 230 001 samples: a full 200 000-point chunk drawn and evaluated in
    # slices, then a chunk of 30 001 in slices with a ragged last one.  Both
    # estimates equal the loop that draws and evaluates each chunk whole.
    for case in [("3/2", "3/2", 1, 2, 1, 2), ("2", "1", 0, 0, 1, 1)]:
        req = OrthoRequest(*case)
        assert _hex(monte_carlo_haar(req, 230_001, seed=4)) == _whole_chunks(req, 230_001, 4)


@pytest.mark.parametrize("slice_size", [1024, 3000, 5000])
def test_monte_carlo_stream_layout_at_any_slice(monkeypatch, slice_size):
    # Chunks of 5000 points: 12 345 samples make three chunks, the last one
    # short, and the slices of 1024 and 3000 points end ragged in each.
    monkeypatch.setattr(orthogonality, "_MC_CHUNK", 5000)
    monkeypatch.setattr(orthogonality, "_MC_SLICE", slice_size)
    for case in [("1", "1", 0, 0, 0, 0), ("3/2", "1", 1, 2, 0, 1)]:
        req = OrthoRequest(*case)
        for samples in (1, 1023, 5000, 12_345):
            assert _hex(monte_carlo_haar(req, samples, seed=9)) \
                == _whole_chunks(req, samples, 9, chunk=5000)


def test_diagonal_monte_carlo_draws_tau_alone(monkeypatch):
    # A diagonal request draws only tau, skipping the phi and psi runs of
    # the stream; over several chunks its estimates equal the whole-chunk
    # draws of all three coordinates.
    monkeypatch.setattr(orthogonality, "_MC_CHUNK", 300)
    monkeypatch.setattr(orthogonality, "_MC_SLICE", 128)
    for eta, m, mp in product(ETAS, range(4), range(4)):
        req = OrthoRequest(eta, eta, m, mp, m, mp)
        for seed in range(3):
            assert _hex(monte_carlo_haar(req, 700, seed)) \
                == _whole_chunks(req, 700, seed, chunk=300), (eta, m, mp, seed)


def test_diagonal_integrand_equals_polar_route_bit_for_bit():
    # |U|^2 sinh(tau) from the keep mask and the log modulus alone is
    # s * s * exp(l + l) * sinh(tau) of matrix_element_polar: s * s is the
    # mask as 0.0 or 1.0, and the phases cancel.
    rng = np.random.default_rng(26)
    tau = np.concatenate([[0.0, 12.0, 30.0], rng.uniform(0.0, 12.0, 2000)])
    phi = rng.uniform(0.0, 2.0 * math.pi, tau.size)
    psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, tau.size)
    cosh_half, tanh_half = np.cosh(0.5 * tau), np.tanh(0.5 * tau)
    polar = (cosh_half * cosh_half, tanh_half * tanh_half, 0.5 * (phi + psi), 0.5 * (phi - psi))
    for eta, m, mp in product(ETAS, range(4), range(4)):
        s, l, _ = matrix_element_polar(eta, m, mp, *polar)
        got = haar_integrand(OrthoRequest(eta, eta, m, mp, m, mp), tau, phi, psi)
        assert np.array_equal(got, s * s * np.exp(l + l) * np.sinh(tau)), (eta, m, mp)


def test_monte_carlo_spot_estimates_are_pinned():
    # verify's five spot cases at 200 000 samples, seed 42 + i: (value, stderr).
    pinned = [
        (("1", "1", 0, 0, 0, 0), "0x1.00513d9568488p+1", "0x1.b334a48405056p-8"),
        (("3/2", "3/2", 1, 1, 1, 1), "0x1.00cc9e3ca394dp+0", "0x1.f825d4deaf266p-9"),
        (("1", "1", 0, 0, 1, 0), "0x1.6a65bcac972a5p-9", "0x1.5646fb96ed9b4p-8"),
        (("1", "3/2", 0, 0, 0, 0), "-0x1.0c13ed1b3d892p-8", "0x1.189946b12ef40p-8"),
        (("2", "1", 0, 0, 0, 0), "-0x1.14c8aba8020b8p-8", "0x1.c77d159d55cc4p-9"),
    ]
    for i, (case, value, stderr) in enumerate(pinned):
        assert _hex(monte_carlo_haar(OrthoRequest(*case), 200_000, seed=42 + i)) == [value, stderr]


def test_monte_carlo_validation():
    req = OrthoRequest("1", "1", 0, 0, 0, 0)
    # Zero samples, non-int counts or seeds, and negative seeds are refused.
    for samples, seed in [(0, 1), (1.0, 1), (2.5, 1), (True, 1), (10, 1.0), (10, True),
                          (10, -1), (10, "1")]:
        with pytest.raises(InvalidParams):
            monte_carlo_haar(req, samples, seed=seed)


def _complex_route_integrand(req, tau, phi, psi):
    """The integrand as complex entries: (alpha, beta), two batch calls, Re(u1 conj u2)."""
    alpha = np.cosh(0.5 * tau) * np.exp(0.5j * (phi + psi))
    beta = np.sinh(0.5 * tau) * np.exp(0.5j * (phi - psi))
    u1 = matrix_element_batch(req.eta1, req.m, req.m_prime, alpha, beta)
    u2 = matrix_element_batch(req.eta2, req.n, req.n_prime, alpha, beta)
    return (u1 * np.conj(u2)).real * np.sinh(tau)


# Same label, cross label, unselected (both kinds) and m > m'.
POLAR_CASES = [("1", "1", 0, 0, 0, 0), ("5/2", "5/2", 3, 1, 3, 1), ("2", "1", 0, 0, 1, 1),
               ("3", "2", 6, 2, 8, 4), ("1", "1", 0, 0, 1, 0), ("1", "3/2", 0, 0, 0, 0),
               ("1", "1", 0, 3, 0, 2), ("3/2", "3/2", 2, 0, 1, 0)]


@pytest.mark.parametrize("case", POLAR_CASES)
def test_polar_integrand_matches_complex_route(case):
    req = OrthoRequest(*case)
    rng = np.random.default_rng(2024)
    # tau = 0 puts beta (and z^2) at exactly 0; tau = 12 is the box's edge.
    tau = np.concatenate([[0.0, 0.0, 12.0], rng.uniform(0.0, 12.0, 5000)])
    phi = rng.uniform(0.0, 2.0 * math.pi, tau.size)
    psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, tau.size)
    np.testing.assert_allclose(haar_integrand(req, tau, phi, psi),
                               _complex_route_integrand(req, tau, phi, psi),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("case", [POLAR_CASES[1], POLAR_CASES[4]])
def test_monte_carlo_estimate_matches_complex_route(case):
    req = OrthoRequest(*case)
    samples, seed = 50_000, 11
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 12.0, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, samples)
    expected = 12.0 * float(np.sum(_complex_route_integrand(req, tau, phi, psi))) / samples
    assert monte_carlo_haar(req, samples, seed).value == pytest.approx(expected, rel=1e-12)


def test_monte_carlo_spot_records_its_false_alarm_rate():
    one_case = math.erfc(3.0 / math.sqrt(2.0))
    rec = monte_carlo_spot(UNSELECTED, 2000, seed=5)
    assert rec.inputs["cases"] == 5
    assert rec.inputs["false_alarm_rate"] == pytest.approx(1.0 - (1.0 - one_case) ** 5, rel=1e-15)
    assert rec.inputs["false_alarm_rate"] == pytest.approx(0.0134, abs=5e-5)
    assert monte_carlo_spot(UNSELECTED[:1], 2000, seed=5).inputs["false_alarm_rate"] \
        == pytest.approx(one_case, rel=1e-15)
