"""Character closed forms against trace-summation oracles."""
import cmath
import math
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from su11 import characters
from su11 import (
    BOUNDARY_TOL,
    BoundaryConjugacyClass,
    CartanCoords,
    ELLIPTIC,
    GroupElement,
    HYPERBOLIC,
    IDENTITY,
    InvalidDamping,
    InvalidParams,
    RepLabel,
    SingularAngle,
    UnsupportedClass,
    abel_trace,
    as_rep_label,
    character,
    character_cartan,
    character_compact,
    character_product,
    compact_element,
    damped_trace_closed_form,
    damped_trace_sum,
    from_cartan,
    inverse,
    matrix_element,
    matrix_element_cartan,
    multiply,
    to_cartan,
    trace_partial_sum,
)
from su11.verify import verify_expansion_identity


def random_element(rng, tau_max=2.5):
    return from_cartan(rng.uniform(0.0, tau_max), rng.uniform(0.0, 2 * math.pi),
                       rng.uniform(-2 * math.pi, 2 * math.pi))


# ----------------------------------------------------------------------
# Frozen values and regimes
# ----------------------------------------------------------------------

def test_compact_frozen_values():
    assert character_compact("1", math.pi) == pytest.approx(-0.5, abs=1e-14)
    assert character_compact("3/2", math.pi) == pytest.approx(0.5j, abs=1e-14)


def test_compact_agrees_with_general_form():
    for theta in (0.5, 1.0, math.pi, 5.0):
        for eta in ("1", "3/2", "2"):
            general = character(eta, compact_element(theta))
            assert general.regime == ELLIPTIC
            assert general.value == pytest.approx(character_compact(eta, theta), rel=1e-12)


def test_hyperbolic_frozen_value():
    g = from_cartan(2.0, 0.0, 0.0)  # Re(alpha) = cosh(1)
    result = character("1", g)
    assert result.regime == HYPERBOLIC
    assert result.value == pytest.approx(0.5 * math.exp(-1.0) / math.sinh(1.0), rel=1e-13)


def test_boundary_and_unsupported_classes():
    with pytest.raises(BoundaryConjugacyClass):
        character("1", IDENTITY)
    with pytest.raises(BoundaryConjugacyClass):
        character("1", compact_element(2.0 * math.pi))  # alpha = -1
    neg = from_cartan(2.0, math.pi, math.pi)  # Re(alpha) = -cosh(1)
    # The class of -g for g = from_cartan(2, 0, 0), so the value is
    # (-1)^(2 eta) = -1 times exp(-2) / (2 sinh(1)) at eta = 3/2.
    result = character("3/2", neg)
    assert result.regime == HYPERBOLIC
    assert result.value == pytest.approx(-0.5 * math.exp(-2.0) / math.sinh(1.0), rel=1e-13)


def test_character_at_minus_g_is_the_centre_sign():
    # The docstring's claim: chi(-g) = (-1)^(2 eta) chi(g) exactly, since
    # negating u negates the root and the base and nothing else.
    rng = np.random.default_rng(23)
    for _ in range(100):
        g = random_element(rng, 4.0)
        if g.alpha.real < 1.0 + 1e-3:
            continue
        neg = GroupElement(-g.alpha, -g.beta)
        c = to_cartan(neg)
        for eta in ("1", "3/2", "2", "5/2"):
            expected = (-1) ** as_rep_label(eta).two_eta * character(eta, g).value
            assert character(eta, neg).value == expected
            chart = character_cartan(eta, c).value
            assert chart == pytest.approx(expected, rel=1e-12)


def test_character_at_minus_theta_is_the_conjugate():
    # h(-theta) has Im(alpha) < 0: its damped sums conj(sum r^n e^{-i (eta + n) theta})
    # tend to the conjugate of the character at h(theta).  The bound allows the
    # rounding of the power (u + root)^(1 - 2 eta): 1.9e-15 at eta = 7/2.
    for two_eta in range(2, 8):
        for theta in np.linspace(0.1, 2 * math.pi - 0.1, 50):
            result = character(two_eta / 2, compact_element(-theta))
            expected = character_compact(two_eta / 2, float(theta)).conjugate()
            assert result.regime == ELLIPTIC
            assert abs(result.value - expected) <= 2e-15 * abs(expected)


def test_compact_angle_domain():
    with pytest.raises(SingularAngle):
        character_compact("1", 0.0)
    with pytest.raises(SingularAngle):
        character_compact("1", 2.0 * math.pi)
    with pytest.raises(UnsupportedClass):
        character_compact("1", 2.0 * math.pi + 1.0)
    with pytest.raises(UnsupportedClass):
        character_compact("1", -0.4)
    # The window character refuses at compact_element(theta), where
    # (Re alpha)^2 - 1 = -sin^2(theta/2): both sides of it, at both ends.
    for theta in (1e-5, 2.0 * math.pi - 1e-5):
        with pytest.raises(BoundaryConjugacyClass):
            character("1", compact_element(theta))
        with pytest.raises(SingularAngle):
            character_compact("1", theta)
    for theta in (1e-4, 2.0 * math.pi - 1e-4):
        assert character_compact("1", theta) == pytest.approx(
            character("1", compact_element(theta)).value, rel=1e-9)


# ----------------------------------------------------------------------
# Chart form
# ----------------------------------------------------------------------

def test_chart_form_matches_general():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        g = random_element(rng)
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3:
            continue
        c = to_cartan(g)
        lhs = character("5/2", g)
        rhs = character_cartan("5/2", c)
        assert rhs.regime == lhs.regime
        assert rhs.value == pytest.approx(lhs.value, rel=1e-11, abs=1e-13)
        checked += 1


@pytest.mark.parametrize("tau", [0.5, 2.0, 10.0, 20.0, 30.0, 38.0, 40.0, 60.0])
def test_chart_form_matches_general_at_large_tau(tau):
    # Classes with Re(alpha) in {3, -1.7, 0.5, -0.3}, hyperbolic and elliptic,
    # as far out as x = 1 - 2 tanh^2(tau/2) rounds to -1 (tau >= 38).
    for u in (3.0, -1.7, 0.5, -0.3):
        cosh_half = math.cosh(0.5 * tau)
        if abs(u) >= cosh_half:
            continue
        big_phi = 2.0 * math.acos(u / cosh_half)
        c = CartanCoords(tau, 0.4 * big_phi + 0.1, 0.6 * big_phi - 0.1)
        for eta in ("1", "3/2", "5/2", "7/2"):
            lhs = character(eta, from_cartan(c))
            rhs = character_cartan(eta, c)
            assert rhs.regime == lhs.regime
            assert abs(rhs.value - lhs.value) <= 1e-14 * abs(lhs.value)


def test_chart_references_vanish_at_huge_tau():
    # sech(tau/2) underflows to 0 here; cosh(tau/2) itself would overflow.
    c = CartanCoords(1500.0, 0.3, -0.7)
    for eta in ("1", "3/2", "7/2"):
        assert character_cartan(eta, c).value == 0j
        for n, np_ in [(0, 0), (3, 5), (5, 3)]:
            assert matrix_element_cartan(eta, n, np_, c) == 0j


def test_chart_form_reduces_to_compact_at_x_one():
    theta = 2.2
    value = character_cartan("2", CartanCoords(0.0, theta, 0.0)).value
    assert value == pytest.approx(character_compact("2", theta), rel=1e-12)


def test_chart_form_boundary():
    with pytest.raises(BoundaryConjugacyClass):
        # x = 1 - 2 tanh^2(tau/2) = 0.5 and cos(phi) = 0.5: (Re alpha)^2 = 1.
        character_cartan("1", CartanCoords(2.0 * math.atanh(0.5), math.acos(0.5), 0.0))


def test_class_function_under_conjugation():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 60:
        g = random_element(rng, 2.0)
        u = g.alpha.real
        if abs(u * u - 1.0) < 1e-3:
            continue
        h = random_element(rng, 1.0)
        conjugated = multiply(multiply(h, g), inverse(h))
        assert conjugated.alpha.real == pytest.approx(u, abs=1e-12)
        assert character("2", conjugated).value == pytest.approx(
            character("2", g).value, abs=1e-10
        )
        checked += 1


# ----------------------------------------------------------------------
# Trace summation oracles
# ----------------------------------------------------------------------

def test_partial_sum_empty_and_compact_geometric():
    assert trace_partial_sum("1", IDENTITY, 0) == 0j
    theta = 1.3
    h = compact_element(theta)
    for eta_val, eta in ((1.0, "1"), (1.5, "3/2")):
        for terms in (1, 7, 40):
            got = trace_partial_sum(eta, h, terms)
            q = cmath.exp(-1j * theta)
            expected = cmath.exp(-1j * eta_val * theta) * (1 - q**terms) / (1 - q)
            assert got == pytest.approx(expected, rel=1e-12)


def test_partial_sums_converge_slowly_on_hyperbolic_classes():
    # The monomial basis does not diagonalize boosts, so the raw diagonal
    # sums oscillate toward the closed form only at the n^{-1/2} scale.
    g = from_cartan(2.0, 0.0, 0.0)
    closed = character("1", g).value
    short = abs(trace_partial_sum("1", g, 100) - closed)
    long = abs(trace_partial_sum("1", g, 4000) - closed)
    assert long < short
    assert long < 0.05
    assert long > 1e-6  # nowhere near quadrature precision


def test_damped_trace_extrapolates_to_closed_form():
    # S(r) is analytic at r = 1; quadratic extrapolation of the damped sums
    # in (1 - r) must reproduce the closed-form character.
    dampings = (0.95, 0.97, 0.99)
    gaps = [1.0 - r for r in dampings]
    coeffs = []
    for i, hi in enumerate(gaps):
        c = 1.0
        for j, hj in enumerate(gaps):
            if j != i:
                c *= hj / (hj - hi)
        coeffs.append(c)
    for eta in ("1", "3/2", "2"):
        for t in (0.5, 1.0, 2.0):
            g = from_cartan(2.0 * t, 0.7, -0.3)
            # -g has Re(alpha) < -1: the closed form's sign is checked there too.
            for h in (g, GroupElement(-g.alpha, -g.beta)):
                closed = character(eta, h).value
                extrapolated = sum(
                    c * damped_trace_sum(eta, h, r, 4000) for c, r in zip(coeffs, dampings)
                )
                assert extrapolated == pytest.approx(closed, rel=5e-4)


def mp_damped_diagonal_sum(eta, tau, phi, psi, r, terms, dps=30):
    """sum_{n < terms} r^n U_nn(g) in mpmath.

    U_nn = alpha^(-2 eta) (conj(alpha)/alpha)^n P_n^(0, 2 eta - 1)(x), with
    P_n from its three-term recurrence.
    """
    with mp.workdps(dps):
        te = int(2 * Fraction(eta))
        alpha = mp.cosh(mp.mpf(tau) / 2) * mp.expj((mp.mpf(phi) + psi) / 2)
        x = 1 - 2 * mp.tanh(mp.mpf(tau) / 2) ** 2
        b = te - 1
        prev, cur = mp.mpf(1), 1 + (b + 2) * (x - 1) / 2
        q = r * mp.conj(alpha) / alpha
        total, power = prev, q
        for n in range(1, terms):
            total += power * cur
            power *= q
            m = n + 1
            s = 2 * m + b
            prev, cur = cur, (((s - 1) * (s * (s - 2) * x - b * b) * cur
                               - 2 * (m - 1) * (m + b - 1) * s * prev)
                              / (2 * m * (m + b) * (s - 2)))
        return complex(alpha ** -te * total)


def test_damped_trace_matches_mpmath():
    for eta, tau, phi, psi, r in (("1", 0.5, 0.3, -0.7, 0.5), ("5/2", 4.0, 5.0, -3.0, 0.999),
                                  ("3", 2.0, 0.0, 0.0, 0.95)):
        value = damped_trace_sum(eta, from_cartan(tau, phi, psi), r, 4000)
        assert value == pytest.approx(mp_damped_diagonal_sum(eta, tau, phi, psi, r, 4000),
                                      rel=1e-10)


def test_damped_trace_matches_closed_form():
    # Half phases (phi + psi) / 2 that give Re(alpha) > 1, Re(alpha) < -1, and
    # elliptic classes with Im(alpha) > 0 and Im(alpha) < 0 at every tau here.
    kinds = set()
    for tau in (1.0, 2.5, 4.0):
        for half in (0.1, math.pi - 0.1, 0.5 * math.pi - 0.2, 0.2 - 0.5 * math.pi):
            g = from_cartan(tau, half + 0.7, half - 0.7)
            u, v = g.alpha.real, g.alpha.imag
            kinds.add(("Re+" if u > 0 else "Re-") if abs(u) > 1.0 else ("Im+" if v > 0 else "Im-"))
            for eta in ("1", "3/2", "5/2"):
                for r in (0.5, 0.95, 0.99):
                    closed = damped_trace_closed_form(eta, g, r)
                    summed = damped_trace_sum(eta, g, r, 4000)
                    assert abs(summed - closed) <= 1e-10 * abs(closed)
    assert kinds == {"Re+", "Re-", "Im+", "Im-"}


def test_damped_trace_accurate_at_large_arg_beta():
    # arg(beta) = (phi - psi) / 2 near +-pi: a phase that rounded n |arg(beta)|
    # on the diagonal would lose about two digits of the 4000-term sum here.
    worst = 0.0
    for tau in (1.0, 2.5, 4.0):
        for half in (0.1, -0.2):
            for diff in (2.0 * math.pi - 0.3, 0.3 - 2.0 * math.pi, 3.0):
                g = from_cartan(tau, half + 0.5 * diff, half - 0.5 * diff)
                for eta in ("1", "3/2", "5/2"):
                    for r in (0.95, 0.99):
                        closed = damped_trace_closed_form(eta, g, r)
                        summed = damped_trace_sum(eta, g, r, 4000)
                        worst = max(worst, abs(summed - closed) / abs(closed))
    assert worst <= 2e-11


def mp_generating_function(two_eta, tau, phi, psi, r, dps=40):
    """DLMF 18.12.1 at Jacobi a = 0, summed over n with the diagonal's factors.

    sum_n r^n U_nn = alpha^(-2 eta) 2^b / (R (1 + w + R)^b), with b = 2 eta - 1,
    w = r conj(alpha) / alpha and R = (1 - 2 x w + w^2)^(1/2) the principal root.
    """
    with mp.workdps(dps):
        half_tau = mp.mpf(tau) / 2
        alpha = mp.cosh(half_tau) * mp.expj((mp.mpf(phi) + mp.mpf(psi)) / 2)
        x = 1 - 2 * mp.tanh(half_tau) ** 2
        w = mp.mpf(r) * mp.conj(alpha) / alpha
        root = mp.sqrt(1 - 2 * x * w + w * w)
        b = two_eta - 1
        return complex(alpha ** -two_eta * 2 ** b / (root * (1 + w + root) ** b))


def test_closed_form_matches_mpmath_generating_function():
    rng = np.random.default_rng(31)
    for draw in range(400):
        two_eta = int(rng.integers(2, 8))
        tau, phi, psi = rng.uniform(0, 20), rng.uniform(0, 2 * math.pi), rng.uniform(-6, 6)
        r = (1.0, rng.uniform(1e-3, 1.0), 1.0 - 10 ** rng.uniform(-6, -1))[draw % 3]
        g = from_cartan(tau, phi, psi)
        if r == 1.0 and abs(g.alpha.real ** 2 - 1.0) <= 2 * BOUNDARY_TOL:
            continue
        expected = mp_generating_function(two_eta, tau, phi, psi, r)
        got = damped_trace_closed_form(RepLabel(two_eta=two_eta), g, r)
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_closed_form_beyond_double_range_matches_mpmath():
    # Where a partial product of half ** (1 - 2 eta) overflows, the power is
    # taken in log space: the value rounds to 0j below double range, and to
    # its subnormal above it (3.66e-315 at two_eta = 65, tau = 22.3).
    rng = np.random.default_rng(27)
    draws = [(5, 400.0, 0.3, 0.2, 1.0), (5, 400.0, 0.3, 0.2, 0.9), (65, 22.3, 0.1, 0.2, 1.0)]
    draws += [(int(rng.integers(2, 101)), rng.uniform(20.0, 700.0), rng.uniform(0.0, 2 * math.pi),
               rng.uniform(-6.0, 6.0), (1.0, 0.9)[k % 2]) for k in range(60)]
    subnormals = zeros = 0
    for two_eta, tau, phi, psi, r in draws:
        got = damped_trace_closed_form(RepLabel(two_eta=two_eta), from_cartan(tau, phi, psi), r)
        expected = mp_generating_function(two_eta, tau, phi, psi, r, dps=400)
        assert abs(got - expected) <= 1e-12 * abs(expected) + 2e-323
        if expected == 0.0:
            zeros += 1
            assert _hex(got) == _hex(0j)
        subnormals += 0.0 < abs(expected) < 2.2250738585072014e-308
    assert zeros >= 40 and subnormals >= 1


def test_damped_trace_validation():
    with pytest.raises(InvalidDamping):
        damped_trace_sum("1", IDENTITY, 1.0, 10)
    with pytest.raises(InvalidParams):
        damped_trace_sum("1", IDENTITY, 0.5, -1)
    assert damped_trace_sum("1", IDENTITY, 0.5, 0) == 0j


def _hex(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _diagonal_sums(eta, g, terms, dampings):
    """The undamped and damped sums of g's own scalar diagonal, n = 0 first."""
    diagonal = np.array([matrix_element(eta, n, n, g) for n in range(terms)])
    sums = [sum(diagonal.tolist(), 0j)]
    sums += [sum((r ** np.arange(terms) * diagonal).tolist(), 0j) for r in dampings]
    return [_hex(z) for z in sums]


def test_signed_zero_elements_keep_their_own_diagonal(clear_su11_caches):
    # alpha = -2 + 0j and -2 - 0j compare and hash equal, but their phases
    # are +pi and -pi, so their diagonal terms differ in the sign of the
    # imaginary part: neither element may be given the other's sums.
    root3 = math.sqrt(3.0)
    plus = GroupElement(complex(-2.0, 0.0), root3)
    minus = GroupElement(complex(-2.0, -0.0), root3)
    assert plus == minus and hash(plus) == hash(minus)
    terms, dampings = 60, (0.9, 0.99)
    for eta in ("1", "3/2"):
        expected = {id(g): _diagonal_sums(eta, g, terms, dampings) for g in (plus, minus)}
        assert expected[id(plus)] != expected[id(minus)]
        for order in ((plus, minus), (minus, plus)):
            clear_su11_caches()
            for g in order:
                got = [trace_partial_sum(eta, g, terms)]
                got += [damped_trace_sum(eta, g, r, terms) for r in dampings]
                assert [_hex(z) for z in got] == expected[id(g)]


def test_consecutive_sums_share_one_read_only_diagonal(clear_su11_caches):
    # The benchmark's order: a 200-term partial sum, then three damped sums
    # that read one 4000-term diagonal.  They equal the same sums made each
    # with every cache empty, bit for bit.
    eta, g = "3/2", from_cartan(2.0, 0.3, -0.7)
    calls = [lambda: trace_partial_sum(eta, g, 200)]
    calls += [lambda r=r: damped_trace_sum(eta, g, r, 4000) for r in (0.95, 0.97, 0.99)]
    cleared = []
    for call in calls:
        clear_su11_caches()
        cleared.append(_hex(call()))
    clear_su11_caches()
    assert [_hex(call()) for call in calls] == cleared
    info = characters._diagonal.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 1)
    bits = struct.pack("<4d", g.alpha.real, g.alpha.imag, g.beta.real, g.beta.imag)
    held = characters._diagonal(as_rep_label(eta), 4000, bits)
    assert characters._diagonal.cache_info().hits == 3
    assert held.flags.writeable is False
    with pytest.raises(ValueError):
        held[0] = 0.0


# ----------------------------------------------------------------------
# Abel-regularized elliptic traces
# ----------------------------------------------------------------------

def test_abel_trace_half_damping_closed_form():
    for eta_val, eta in ((1.0, "1"), (2.0, "2")):
        for theta in (0.9, 2.5, 5.1):
            got = abel_trace(eta, theta, 0.5, 200)
            expected = cmath.exp(-1j * eta_val * theta) / (1.0 - 0.5 * cmath.exp(-1j * theta))
            assert got == pytest.approx(expected, rel=1e-12)
            closed = damped_trace_closed_form(eta, compact_element(theta), 0.5)
            assert closed == pytest.approx(expected, rel=1e-14)


def test_abel_trace_matches_a_finite_geometric_sum():
    # sum_{n < N} r^n exp(-i (eta + n) theta) = exp(-i eta theta) (1 - q^N) / (1 - q),
    # q = r exp(-i theta), at 40 digits from the exact binary inputs.
    rng = np.random.default_rng(27)
    for k in range(80):
        two_eta = int(rng.integers(2, 102))
        theta = rng.uniform(0.05, 6.23)
        r = rng.uniform(0.01, 0.9) if k % 2 else rng.uniform(0.99, 0.9999)
        terms = (10, 200, 5000, 20_000)[k % 4]
        with mp.workdps(40):
            q = mp.mpf(r) * mp.expj(-mp.mpf(theta))
            expected = mp.expj(-two_eta * mp.mpf(theta) / 2) * (1 - q ** terms) / (1 - q)
        got = abel_trace(RepLabel(two_eta=two_eta), theta, r, terms)
        assert abs(got - complex(expected)) <= 1e-11 * abs(complex(expected))
    # A NumPy float32 angle is summed at its exact value, as the float it equals.
    angle = np.float32(0.7)
    assert _hex(abel_trace("5/2", angle, 0.9, 200)) == _hex(abel_trace("5/2", float(angle), 0.9, 200))
    # No terms sum to +0j, whatever the sign of the lead's parts.
    for theta in (1.0, 2.0, 4.0, 5.5):
        assert _hex(abel_trace("5/2", theta, 0.5, 0)) == _hex(0j)


def test_abel_residual_linear_in_damping_gap():
    for eta in ("1", "3/2", "2"):
        for theta in (0.5, 1.0, math.pi, 2 * math.pi - 0.5):
            target = character_compact(eta, theta)
            residuals = []
            for r in (0.9, 0.99, 0.999):
                residuals.append(abs(abel_trace(eta, theta, r, 20_000) - target))
            # linear trend: residual / (1 - r) roughly constant
            ratios = [res / gap for res, gap in zip(residuals, (0.1, 0.01, 0.001))]
            assert max(ratios) <= 1.6 * min(ratios)
            assert residuals[2] <= 1e-2 * abs(target)


def test_abel_limit_equals_compact_character():
    for eta in ("1", "3/2", "2", "5/2"):
        for theta in np.linspace(0.2, 2 * math.pi - 0.2, 30):
            lhs = damped_trace_closed_form(eta, compact_element(float(theta)), 1.0)
            rhs = character_compact(eta, float(theta))
            assert abs(lhs - rhs) <= 1e-13


@pytest.mark.parametrize("call, diagonals", [
    (lambda terms: trace_partial_sum("1", IDENTITY, terms), 1),
    (lambda terms: damped_trace_sum("1", IDENTITY, 0.5, terms), 1),
    (lambda terms: abel_trace("1", 1.0, 0.5, terms), 0),
], ids=["trace_partial_sum", "damped_trace_sum", "abel_trace"])
def test_term_count_must_be_an_int(call, diagonals, clear_su11_caches):
    for terms in (10.0, True, np.array(10), np.array([10]), "10", None):
        with pytest.raises(InvalidParams, match="terms must be an int"):
            call(terms)
    with pytest.raises(InvalidParams, match="terms must be >= 0"):
        call(np.int64(-1))
    # A NumPy integer is taken, and shares the cache entry of the plain int.
    clear_su11_caches()
    assert _hex(call(np.int64(10))) == _hex(call(10))
    assert characters._diagonal.cache_info().misses == diagonals


def test_abel_trace_validation():
    with pytest.raises(InvalidDamping):
        abel_trace("1", 1.0, 0.0, 10)
    with pytest.raises(InvalidDamping):
        abel_trace("1", 1.0, 1.0, 10)
    with pytest.raises(SingularAngle):
        abel_trace("1", 0.0, 0.5, 10)
    # The compact characters' window and angles, (0, 2*pi) away from its ends.
    with pytest.raises(SingularAngle):
        abel_trace("1", 1e-5, 0.5, 10)
    for theta in (7.0, -0.5):
        with pytest.raises(UnsupportedClass):
            abel_trace("1", theta, 0.9, 10)
    # The closed form also takes r = 1, the Abel limit, which is singular at
    # alpha = +-1 as character(IDENTITY) is.
    for r in (0.0, 1.5, -0.5):
        with pytest.raises(InvalidDamping):
            damped_trace_closed_form("1", compact_element(1.0), r)
    for theta in (0.0, 2 * math.pi, -2 * math.pi):
        with pytest.raises(BoundaryConjugacyClass):
            damped_trace_closed_form("1", compact_element(theta), 1.0)
    assert damped_trace_closed_form("1", compact_element(0.0), 0.5) == pytest.approx(
        2.0, rel=1e-15)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda theta: character_compact("1", theta),
    lambda theta: character_product("1", "3/2", theta),
    lambda theta: verify_expansion_identity(theta),
    lambda theta: abel_trace("1", theta, 0.5, 10),
], ids=["character_compact", "character_product", "verify_expansion_identity", "abel_trace"])
def test_non_finite_angle_is_refused(call, theta):
    with pytest.raises(UnsupportedClass):
        call(theta)


def test_geometric_phase_identity():
    # 2i e^{-i theta/2} / (1 - e^{-i theta}) equals 1 / sin(theta/2) exactly.
    for theta in np.linspace(0.1, 2 * math.pi - 0.1, 50):
        lhs = 2j * cmath.exp(-0.5j * theta) / (1.0 - cmath.exp(-1j * theta))
        assert abs(lhs - 1.0 / math.sin(0.5 * theta)) <= 1e-13
