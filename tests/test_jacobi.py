"""Tests for the Jacobi / quadrature kernel against independent oracles."""
import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from su11 import InvalidParams, gauss_legendre, jacobi_sequence, log_poch_ratio
from su11.jacobi import _TABLE_DEGREE
from su11.verify import gr_7391


# ----------------------------------------------------------------------
# Oracles.  These are independent of the recurrence/quadrature code paths:
# an exact-rational hypergeometric series, exact-rational moments, and
# big-integer factorial ratios.
# ----------------------------------------------------------------------

def jacobi_series_exact(n, a, b, x):
    """P_n^{(a,b)}(x) for integer a, b >= 0 and rational x, as an exact Fraction."""
    x = Fraction(x)
    total = Fraction(0)
    for s in range(n + 1):
        total += (
            math.comb(n + a, n - s)
            * math.comb(n + b, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return total


def jacobi_series_float(n, a, b, x):
    """Series evaluation with Gamma-based binomials, for real exponents."""
    def binom(top, k):
        return math.exp(
            math.lgamma(top + 1) - math.lgamma(k + 1) - math.lgamma(top - k + 1)
        )

    return sum(
        binom(n + a, n - s) * binom(n + b, s) * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
        for s in range(n + 1)
    )


def moment_exact(a, b, k):
    """integral_{-1}^{1} (1-x)^a (1+x)^b x^k dx for integer a, b >= 0, exactly."""
    total = Fraction(0)
    for j in range(k + 1):
        beta = Fraction(
            math.factorial(b + j) * math.factorial(a),
            math.factorial(a + b + j + 1),
        )
        total += math.comb(k, j) * Fraction(2) ** j * Fraction(-1) ** (k - j) * beta
    return Fraction(2) ** (a + b + 1) * total


def poch_ratio_exact(two_eta, n, m):
    """(m! Gamma(2eta+n)) / (n! Gamma(2eta+m)) through big-integer factorials."""
    return Fraction(
        math.factorial(m) * math.factorial(two_eta + n - 1),
        math.factorial(n) * math.factorial(two_eta + m - 1),
    )


# ----------------------------------------------------------------------
# Jacobi polynomial values
# ----------------------------------------------------------------------

def test_degree_zero_is_one():
    for a, b, x in [(0.0, 0.0, 0.3), (2.5, 1.0, -0.9), (0.0, 7.0, 1.0)]:
        assert jacobi_sequence(a, b, 0, x)[-1] == 1.0


def test_degree_one_matches_series():
    for a, b, x in [(0.0, 1.0, 0.25), (3.0, 2.0, -0.5), (1.5, 0.5, 0.75)]:
        expected = jacobi_series_float(1, a, b, x)
        value = jacobi_sequence(a, b, 1, x)[-1]
        assert value == pytest.approx((a + 1) + (a + b + 2) * (x - 1) / 2, rel=1e-14)
        assert value == pytest.approx(expected, rel=1e-12)


def test_endpoint_value_is_binomial():
    for n, a, b in [(3, 0, 1), (7, 2, 5), (12, 4, 3)]:
        assert jacobi_sequence(float(a), float(b), n, 1.0)[-1] == pytest.approx(
            math.comb(n + a, n), rel=1e-13
        )


def test_values_match_exact_rational_series():
    xs = [Fraction(-3, 4), Fraction(0), Fraction(1, 3), Fraction(1)]
    for n, a, b in [(5, 0, 1), (10, 2, 3), (20, 1, 5), (30, 3, 1)]:
        for x in xs:
            exact = jacobi_series_exact(n, a, b, x)
            value = jacobi_sequence(float(a), float(b), n, float(x))[-1]
            assert value == pytest.approx(float(exact), rel=1e-11, abs=1e-13)


def test_values_match_float_series_for_real_exponents():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(0, 9))
        a = float(rng.uniform(-0.9, 4.0))
        b = float(rng.uniform(-0.9, 4.0))
        x = float(rng.uniform(-1.0, 1.0))
        assert jacobi_sequence(a, b, n, x)[-1] == pytest.approx(
            jacobi_series_float(n, a, b, x), rel=1e-9, abs=1e-11
        )


def test_three_term_recurrence_residual():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        a = float(rng.uniform(-0.5, 5.0))
        b = float(rng.uniform(-0.5, 5.0))
        x = float(rng.uniform(-1.0, 1.0))
        seq = jacobi_sequence(a, b, n, x)
        apb = a + b
        c1 = 2 * n * (n + apb) * (2 * n + apb - 2)
        c2 = 2 * n + apb - 1
        c3 = (2 * n + apb) * (2 * n + apb - 2)
        c4 = a * a - b * b
        c5 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + apb)
        residual = c1 * seq[n] - (c2 * (c3 * x + c4) * seq[n - 1] - c5 * seq[n - 2])
        assert abs(residual) <= 1e-12 * c1 * (1.0 + abs(seq[n]))


def test_sequence_accepts_arrays():
    x = np.linspace(-1.0, 1.0, 17)
    seq = jacobi_sequence(1.0, 2.0, 6, x)
    for degree in (0, 3, 6):
        scalar = [jacobi_sequence(1.0, 2.0, degree, float(v))[-1] for v in x]
        np.testing.assert_allclose(seq[degree], scalar, rtol=1e-14, atol=1e-15)
    # One lane per exponent a: each lane is the scalar recurrence, bit for bit.
    lanes = jacobi_sequence(np.arange(9.0), 2.0, 6, 0.37)
    for a in range(9):
        scalar = jacobi_sequence(float(a), 2.0, 6, 0.37)
        assert [float(v[a]) for v in lanes] == scalar


def test_invalid_exponents_rejected():
    with pytest.raises(InvalidParams):
        jacobi_sequence(-1.0, 0.0, 2, 0.0)
    with pytest.raises(InvalidParams):
        jacobi_sequence(0.0, -1.5, 3, 0.0)


def test_non_finite_inputs_rejected():
    lanes, points = np.arange(4.0), np.linspace(-1.0, 1.0, 5)
    for bad in (math.inf, -math.inf, math.nan):
        for a, b, x in [(bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)]:
            with pytest.raises(InvalidParams):
                jacobi_sequence(a, b, 3, x)
        for a, x in [(np.append(lanes, bad), 0.5), (1.0, np.append(points, bad))]:
            with pytest.raises(InvalidParams):
                jacobi_sequence(a, 1.0, 3, x)
    with pytest.raises(InvalidParams):
        jacobi_sequence(1.0, 1.0, 0, math.inf)


def test_bounded_inputs_only():
    # Exponents and points within 2**53 in magnitude: no coefficient can
    # overflow, so an input past the bound is refused, not warned about.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, b, x in [(1e300, 1.0, -0.9), (1.0, 2.0**54, 0.3), (1.0, 1.0, 1e300)]:
            with pytest.raises(InvalidParams):
                jacobi_sequence(a, b, 150, x)
        with pytest.raises(InvalidParams):
            jacobi_sequence(np.array([1.0, 2.0**54]), 1.0, 150, 0.3)
        with pytest.raises(InvalidParams):
            jacobi_sequence(1.0, 1.0, 150, np.array([0.3, -1e300]))
        assert math.isfinite(jacobi_sequence(2.0**53, 2.0**53, 3, -2.0**53)[-1])


def test_overflowing_recurrence_is_refused_for_a_scalar_exponent():
    # P_600^{(700, 1)} near x = 1 is beyond double range.
    x = 1.0 - 2.0 * math.tanh(0.05) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # On both sides of the switch from the per-step loop to the table.
        for a, degree in [(1e6, _TABLE_DEGREE - 1), (700.0, 600)]:
            with pytest.raises(InvalidParams):
                jacobi_sequence(a, 1.0, degree, x)
        with pytest.raises(InvalidParams):
            jacobi_sequence(700.0, 1.0, 600, np.array([x, 0.0]))
        # Lanes run to the top degree whatever they overflow to; the caller
        # keeps the degrees it needs, so nothing is refused or warned about.
        values = np.asarray(jacobi_sequence(np.arange(600.0), 1.0, 599, x))
    assert np.count_nonzero(~np.isfinite(values)) == 17_849
    assert np.isfinite(values[:, 0]).all()


def test_non_integer_degree_rejected():
    for degree in (3.0, 2.5, True, False, "3", None):
        with pytest.raises(InvalidParams):
            jacobi_sequence(1.0, 1.0, degree, 0.5)
    assert jacobi_sequence(1.0, 1.0, np.int64(3), 0.5) == jacobi_sequence(1.0, 1.0, 3, 0.5)


def textbook_jacobi_sequence(a, b, max_degree, x):
    """The recurrence with every coefficient formed inside the per-degree loop.

    Arrays ``a``, ``b`` and ``x`` broadcast together, one lane per entry.
    """
    is_array = any(isinstance(v, np.ndarray) for v in (a, b, x))
    values = [np.ones(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(x)))
              if is_array else 1.0]
    if max_degree == 0:
        return values
    apb = a + b
    values.append((a + 1.0) + (apb + 2.0) * (x - 1.0) / 2.0)
    for n in range(2, max_degree + 1):
        c1 = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        c2 = 2.0 * n + apb - 1.0
        c3 = (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c4 = a * a - b * b
        c5 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + apb)
        values.append((c2 * (c3 * x + c4) * values[n - 1] - c5 * values[n - 2]) / c1)
    return values


def assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, np.ndarray):
            # A lane that overflows turns NaN; block callers discard those lanes.
            assert np.array_equal(g, e, equal_nan=True)
        else:
            assert type(g) is type(e) and g == e


def test_recurrence_matches_textbook_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for i in range(120):
        integer = i % 2 == 0
        b = float(rng.integers(0, 12)) if integer else float(rng.uniform(-0.9, 12.0))
        # Scalar calls to degree 400 at both endpoints and inside.
        a = float(rng.integers(0, 300)) if integer else float(rng.uniform(-0.9, 300.0))
        degree = int(rng.integers(0, 401))
        for x in (1.0, -1.0, float(rng.uniform(-1.0, 1.0))):
            assert_same_bits(jacobi_sequence(a, b, degree, x),
                             textbook_jacobi_sequence(a, b, degree, x))
        # Scalar calls at the lowest degrees and on both sides of the
        # switch from the per-step loop to the tables.
        for degree in (0, 1, 2, _TABLE_DEGREE - 1, _TABLE_DEGREE, _TABLE_DEGREE + 1):
            x = float(rng.uniform(-1.0, 1.0))
            assert_same_bits(jacobi_sequence(a, b, degree, x),
                             textbook_jacobi_sequence(a, b, degree, x))
        # Lane calls, one exponent per lane, as blocks make them.
        size = int(rng.integers(1, 201))
        lanes = np.arange(float(size)) if integer else rng.uniform(-0.9, 40.0, size)
        x = (1.0, -1.0, float(rng.uniform(-1.0, 1.0)))[i % 3]
        assert_same_bits(jacobi_sequence(lanes, b, size - 1, x),
                         textbook_jacobi_sequence(lanes, b, size - 1, x))
    # Point calls, with x in one table of a row per degree: Monte Carlo
    # batches (low degree, many points), quadrature nodes (degree up to
    # the rule's order), and a few thousand to tens of thousands of
    # points at moderate degree.
    for degree, a, b in [(0, 0.0, 1.0), (1, 2.0, 1.0), (3, 1.0, 4.0), (6, 3.0, 2.0)]:
        x = 1.0 - 2.0 * rng.uniform(0.0, 1.0, 40_000) ** 2
        assert_same_bits(jacobi_sequence(a, b, degree, x),
                         textbook_jacobi_sequence(a, b, degree, x))
    for degree, a, b in [(5, 0.0, 1.0), (50, 3.0, 4.0), (150, 100.0, 3.0)]:
        x = np.append(gauss_legendre(degree + 2)[0], [-1.0, 1.0])
        assert_same_bits(jacobi_sequence(a, b, degree, x),
                         textbook_jacobi_sequence(a, b, degree, x))
    for size, degree, a, b in [(5000, 40, 7.0, 2.0), (16_385, 12, 0.5, 3.0)]:
        x = np.append(rng.uniform(-1.0, 1.0, size - 2), [-1.0, 1.0])
        assert_same_bits(jacobi_sequence(a, b, degree, x),
                         textbook_jacobi_sequence(a, b, degree, x))
    # One lane per point: arrays a and x of one shape, and x with more axes.
    lanes = rng.uniform(-0.9, 40.0, 300)
    x = rng.uniform(-1.0, 1.0, 300)
    assert_same_bits(jacobi_sequence(lanes, 2.5, 90, x),
                     textbook_jacobi_sequence(lanes, 2.5, 90, x))
    x = rng.uniform(-1.0, 1.0, (4, 300))
    assert_same_bits(jacobi_sequence(lanes, 2.5, 30, x),
                     textbook_jacobi_sequence(lanes, 2.5, 30, x))


# ----------------------------------------------------------------------
# log_poch_ratio
# ----------------------------------------------------------------------

def test_lanes_over_b_match_textbook_loop_bit_for_bit():
    # A column of b exponents over a row of points, as a radial integral of
    # two labels runs them: every lane equals the textbook loop and its own
    # scalar-b call, on both sides of the scalar path's switch to tables.
    rng = np.random.default_rng(26)
    for degree in (0, 1, 2, 12, 40, _TABLE_DEGREE + 5):
        x = np.append(gauss_legendre(degree // 2 + 2)[0], [-1.0, 1.0])
        a = float(rng.integers(0, 8))
        b = np.array([[1.0], [4.0], [float(rng.uniform(-0.9, 30.0))]])
        got = jacobi_sequence(a, b, degree, x)
        assert_same_bits(got, textbook_jacobi_sequence(a, b, degree, x))
        for lane in range(3):
            assert_same_bits([p[lane] for p in got],
                             jacobi_sequence(a, float(b[lane, 0]), degree, x))
    # b lanes at one x, and a and b lanes paired entry by entry.
    b = rng.uniform(-0.9, 30.0, 50)
    for a, x in [(3.0, 0.3), (rng.uniform(-0.9, 30.0, 50), -0.7)]:
        got = jacobi_sequence(a, b, _TABLE_DEGREE - 1, x)
        assert_same_bits(got, textbook_jacobi_sequence(a, b, _TABLE_DEGREE - 1, x))
        lane_a = np.broadcast_to(a, b.shape)
        assert [p[7] for p in got] == jacobi_sequence(float(lane_a[7]), float(b[7]),
                                                      _TABLE_DEGREE - 1, x)


def test_poch_ratio_trivial_and_frozen():
    assert log_poch_ratio(4, 3, 3) == 0.0
    assert log_poch_ratio(2, 1, 0) == pytest.approx(math.log(2.0), rel=1e-15)
    n, m = np.array([0, 5, 9, 40]), np.array([0, 3, 9, 7])
    assert log_poch_ratio(3, n, m).tolist() == [log_poch_ratio(3, int(a), int(b))
                                                for a, b in zip(n, m)]
    with pytest.raises(InvalidParams):
        log_poch_ratio(2, -1, 3)


def test_poch_ratio_matches_big_integer_oracle():
    for two_eta in (2, 3, 5, 8):
        for n, m in product(range(0, 13), repeat=2):
            if two_eta + max(n, m) > 20:
                continue
            exact = poch_ratio_exact(two_eta, n, m)
            assert math.exp(log_poch_ratio(two_eta, n, m)) == pytest.approx(
                float(exact), rel=1e-13
            )


# ----------------------------------------------------------------------
# Gauss-Legendre quadrature, with the Jacobi weight (1-x)^a (1+x)^b for
# integers a, b >= 0 written into the integrand as the radial integrals do
# ----------------------------------------------------------------------

def jacobi_weight(rule, a, b):
    """Legendre weights times (1-x)^a (1+x)^b at the nodes."""
    x, w = rule
    return w * (1.0 - x) ** a * (1.0 + x) ** b


def test_order_one_legendre_is_midpoint():
    nodes, weights = gauss_legendre(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, rel=1e-15)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_weight_sum_matches_beta_function():
    rng = np.random.default_rng(3)
    for _ in range(20):
        order = int(rng.integers(1, 14))
        total = int(rng.integers(0, 2 * order))
        a = int(rng.integers(0, total + 1))
        expected = moment_exact(a, total - a, 0)
        got = float(np.sum(jacobi_weight(gauss_legendre(order), a, total - a)))
        assert got == pytest.approx(float(expected), rel=1e-13)


def test_legendre_order_five_integrates_x8():
    nodes, weights = gauss_legendre(5)
    assert np.dot(weights, nodes**8) == pytest.approx(2.0 / 9.0, rel=1e-13)


def test_moments_exact_to_design_degree():
    # (1-x)^a (1+x)^b x^k has degree a + b + k; the rule is exact up to 2q - 1
    for a, b in [(0, 0), (1, 2), (3, 1), (2, 5)]:
        for order in (1, 3, 6, 9):
            rule = gauss_legendre(order)
            for k in range(2 * order - a - b):
                exact = float(moment_exact(a, b, k))
                got = float(np.dot(jacobi_weight(rule, a, b), rule[0]**k))
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_polynomial_orthogonality():
    for a, b in [(0, 0), (1, 3)]:
        for n, m in product(range(16), repeat=2):
            if n == m:
                continue
            rule = gauss_legendre((a + b + n + m) // 2 + 1)
            pn = jacobi_sequence(float(a), float(b), n, rule[0])[-1]
            pm = jacobi_sequence(float(a), float(b), m, rule[0])[-1]
            assert abs(float(np.dot(jacobi_weight(rule, a, b), pn * pm))) <= 1e-11


def test_lower_degree_polynomials_integrate_to_zero():
    rng = np.random.default_rng(5)
    for a, b in [(0, 1), (2, 3)]:
        for n in (3, 7, 12):
            rule = gauss_legendre((a + b + 2 * n) // 2 + 1)
            pn = jacobi_sequence(float(a), float(b), n, rule[0])[-1]
            for _ in range(5):
                coeffs = rng.standard_normal(n)  # random polynomial of degree < n
                q = np.polynomial.polynomial.polyval(rule[0], coeffs)
                assert abs(float(np.dot(jacobi_weight(rule, a, b), q * pn))) <= 1e-11


def test_invalid_quadrature_params():
    gauss_legendre(1)  # a cached order-1 rule must not answer for True
    for order in (0, -3, 2.5, 3.0, True):
        with pytest.raises(InvalidParams):
            gauss_legendre(order)


# ----------------------------------------------------------------------
# Closed-form diagonal norm (gr_7391)
# ----------------------------------------------------------------------

def test_gr_7391_frozen_values():
    assert gr_7391(0.0, 1.0, 0) == pytest.approx(2.0, rel=1e-14)
    assert gr_7391(1.0, 1.0, 0) == pytest.approx(2.0, rel=1e-14)


def test_gr_7391_invalid_params():
    with pytest.raises(InvalidParams):
        gr_7391(0.0, 0.0, 1)
    with pytest.raises(InvalidParams):
        gr_7391(-1.5, 1.0, 1)
