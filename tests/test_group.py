"""Group element construction, chart conversions and the invariant measure."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from su11 import (
    IDENTITY,
    CartanCoords,
    DeterminantViolation,
    GroupElement,
    InvalidParams,
    RepLabel,
    UnsupportedClass,
    as_rep_label,
    compact_element,
    disk_point,
    from_cartan,
    haar_density,
    inverse,
    multiply,
    to_cartan,
)

TWO_PI = 2.0 * math.pi


def angle_diff(a, b, period):
    """Distance between two angles modulo the given period."""
    d = math.fmod(a - b, period)
    if d > period / 2:
        d -= period
    if d < -period / 2:
        d += period
    return abs(d)


def random_coords(rng, tau_max=5.0):
    return CartanCoords(
        rng.uniform(1e-6, tau_max),
        rng.uniform(0.0, TWO_PI),
        rng.uniform(-TWO_PI, TWO_PI),
    )


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def test_identity_and_hyperbolic_pair_are_valid():
    assert GroupElement(1.0, 0.0).alpha == 1.0
    g = GroupElement(math.cosh(0.35), math.sinh(0.35))
    assert g.det() == pytest.approx(1.0, abs=1e-14)


def test_determinant_violation():
    with pytest.raises(DeterminantViolation):
        GroupElement(1.0, 1.0)
    with pytest.raises(DeterminantViolation):
        GroupElement(1.0 + 1e-6, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DeterminantViolation):
            GroupElement(bad, 0.0)


def test_rep_label_rejects_non_lattice_values():
    # A positional argument is eta itself; 2*eta goes only by keyword.
    assert RepLabel(3) == as_rep_label("3") == as_rep_label(3.0)
    assert RepLabel(3).two_eta == 6
    for value in ("3/2", " 3/2 ", "1.5", 1.5, Fraction(3, 2), RepLabel(two_eta=3)):
        assert as_rep_label(value) == RepLabel(value) == RepLabel(two_eta=3)
    assert [str(as_rep_label(v)) for v in ("2", "3/2", "1.5", Fraction(5, 2), 4)] == [
        "2", "3/2", "3/2", "5/2", "4"]
    assert [str(as_rep_label(v)) for v in ("1.5e0", "2.")] == ["3/2", "2"]
    # Decimal strings parse exactly: these would round onto the lattice as floats.
    for bad in (True, 0.4, 2.25, Fraction(1, 3), float("nan"), float("inf"),
                "x", "1/0", "1/2", 0, "1.50000000000000001", "2.0000000000000001", "1e400"):
        with pytest.raises(InvalidParams):
            as_rep_label(bad)
    for bad in (1, 2.0, True):
        with pytest.raises(InvalidParams):
            RepLabel(two_eta=bad)
    with pytest.raises(InvalidParams):
        RepLabel("3/2", two_eta=3)
    # Parsed strings are cached: True (== 1, with the same hash) is still
    # refused once "1" and 1 are parsed, and a refused string is refused again.
    assert as_rep_label("1") == as_rep_label(1) == RepLabel(1)
    for bad in (True, "1/2", "1/2"):
        with pytest.raises(InvalidParams):
            as_rep_label(bad)
    # Above 2*eta = 2**53, 1 - 2*eta is not exact in a double: refused either way.
    assert RepLabel(two_eta=2**53).two_eta == as_rep_label(str(2**52)).two_eta == 2**53
    for make in (lambda: RepLabel(two_eta=2**53 + 1), lambda: RepLabel(2**52 + 1),
                 lambda: as_rep_label(f"{2**53 + 1}/2"), lambda: as_rep_label("1e30")):
        with pytest.raises(InvalidParams):
            make()


def test_cartan_ranges_normalized():
    c = CartanCoords(1.0, 2.0 * TWO_PI + 0.5, 3.0 * TWO_PI + 1.0)
    assert c.phi == pytest.approx(0.5)
    assert -TWO_PI <= c.psi < TWO_PI
    with pytest.raises(InvalidParams):
        CartanCoords(-0.1, 0.0, 0.0)


@pytest.mark.parametrize("coords", [
    (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0),
    (1.0, -math.inf, 0.0), (1.0, 0.0, math.nan), (1.0, 0.0, math.inf),
])
def test_cartan_rejects_non_finite_coordinates(coords):
    with pytest.raises(InvalidParams):
        CartanCoords(*coords)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_compact_element_refuses_non_finite_angle(theta):
    # Refused as every compact-angle function refuses it, not as a determinant.
    with pytest.raises(UnsupportedClass, match="theta must be finite"):
        compact_element(theta)


# ----------------------------------------------------------------------
# Chart conversions
# ----------------------------------------------------------------------

def test_from_cartan_identity_and_compact():
    g = from_cartan(0.0, 0.0, 0.0)
    assert g.alpha == 1.0 and g.beta == 0.0
    theta = 1.3
    h = from_cartan(CartanCoords(0.0, theta, 0.0))
    assert h.alpha == pytest.approx(cmath.exp(0.5j * theta), abs=1e-15)
    assert h.beta == 0.0


def test_to_cartan_identity_and_degenerate_canonicalization():
    c = to_cartan(IDENTITY)
    assert (c.tau, c.phi, c.psi) == (0.0, 0.0, 0.0)
    # tau = 0 leaves only phi + psi meaningful; the whole phase goes to psi.
    c = to_cartan(GroupElement(cmath.exp(0.25j * math.pi), 0.0))
    assert c.tau == 0.0
    assert c.phi == 0.0
    assert c.psi == pytest.approx(math.pi / 2, abs=1e-15)


def test_round_trip_fixed_point():
    c = to_cartan(from_cartan(0.8, 1.1, -0.3))
    assert c.tau == pytest.approx(0.8, abs=1e-12)
    assert c.phi == pytest.approx(1.1, abs=1e-12)
    assert c.psi == pytest.approx(-0.3, abs=1e-12)


def test_round_trip_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        c = random_coords(rng)
        back = to_cartan(from_cartan(c))
        assert abs(back.tau - c.tau) <= 1e-10
        assert angle_diff(back.phi, c.phi, TWO_PI) <= 1e-10
        assert angle_diff(back.psi, c.psi, 2.0 * TWO_PI) <= 1e-10


def test_determinant_close_to_one_across_chart():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = from_cartan(random_coords(rng))
        assert abs(g.det() - 1.0) <= 1e-14 * max(1.0, abs(g.alpha) ** 2)


def test_large_tau_still_constructible():
    g = from_cartan(25.0, 0.3, -0.7)
    assert math.isfinite(abs(g.alpha))


def test_chart_edges_are_refused_by_name_and_have_no_negative_zero():
    # |alpha|^2 = cosh^2(tau/2) leaves double range past tau ~ 711.17, and
    # cosh itself past tau ~ 1420; a product of entries that overflows is a
    # determinant violation, not a bare OverflowError.
    assert math.isfinite(abs(from_cartan(711.16, 0.3, 0.2).alpha))
    for tau in (711.18, 712.0, 1500.0):
        with pytest.raises(InvalidParams, match="at tau = "):
            from_cartan(tau, 0.0, 0.0)
    with pytest.raises(DeterminantViolation):
        GroupElement(1e200, 0.0)
    g = from_cartan(0.0, -11.02, 1400.0)
    assert g.beta == 0.0 and not np.signbit([g.beta.real, g.beta.imag]).any()


# ----------------------------------------------------------------------
# Group operations
# ----------------------------------------------------------------------

def test_multiply_identity_and_inverse():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = from_cartan(random_coords(rng))
        gi = multiply(g, IDENTITY)
        assert gi.alpha == g.alpha and gi.beta == g.beta
        e = multiply(g, inverse(g))
        assert abs(e.alpha - 1.0) <= 1e-12
        assert abs(e.beta) <= 1e-12


def test_inverse_formula_and_compact_subgroup():
    g = from_cartan(1.2, 0.4, -2.0)
    gi = inverse(g)
    assert gi.alpha == g.alpha.conjugate()
    assert gi.beta == -g.beta
    h = multiply(compact_element(0.7), compact_element(1.9))
    expected = compact_element(2.6)
    assert abs(h.alpha - expected.alpha) <= 1e-15
    assert h.beta == 0.0
    hi = inverse(compact_element(0.7))
    assert abs(hi.alpha - compact_element(-0.7).alpha) <= 1e-15


def test_multiply_associative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g1, g2, g3 = (from_cartan(random_coords(rng)) for _ in range(3))
        left = multiply(multiply(g1, g2), g3)
        right = multiply(g1, multiply(g2, g3))
        assert abs(left.alpha - right.alpha) <= 1e-12 * max(1.0, abs(left.alpha))
        assert abs(left.beta - right.beta) <= 1e-12 * max(1.0, abs(left.alpha))


# ----------------------------------------------------------------------
# Invariant measure
# ----------------------------------------------------------------------

def test_haar_density_values():
    assert haar_density(CartanCoords(0.0, 0.0, 0.0)) == 0.0
    assert haar_density(1.0) == pytest.approx(math.sinh(1.0) / (8 * math.pi**2), rel=1e-15)


@pytest.mark.parametrize("tau", [-0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf, 711.0, 1e4])
def test_haar_density_keeps_its_domain(tau):
    # tau = -0.0 is the origin, with density +0.0; a negative or non-finite
    # tau, or one where sinh(tau) leaves double range, is refused.
    if tau == 0.0:
        density = haar_density(tau)
        assert density == 0.0 and math.copysign(1.0, density) == 1.0
    else:
        with pytest.raises(InvalidParams, match="tau"):
            haar_density(tau)


def test_haar_volume_of_boost_ball():
    # Integrating the density over [0, T] x [0, 2pi) x [-2pi, 2pi) must give
    # cosh(T) - 1; the radial integral is done with an independent
    # Gauss-Legendre rule.
    nodes, weights = np.polynomial.legendre.leggauss(40)
    for T in (0.5, 2.0, 5.0):
        tau = 0.5 * T * (nodes + 1.0)
        radial = 0.5 * T * float(np.dot(weights, np.sinh(tau)))
        volume = radial * TWO_PI * 2.0 * TWO_PI / (8 * math.pi**2)
        assert volume == pytest.approx(math.cosh(T) - 1.0, rel=1e-12)


# ----------------------------------------------------------------------
# Disk point
# ----------------------------------------------------------------------

def test_disk_point_identity_and_boost():
    assert disk_point(IDENTITY).z == 0.0
    tau = 1.7
    z = disk_point(from_cartan(tau, 0.0, 0.0)).z
    assert z.real == pytest.approx(math.tanh(tau / 2), rel=1e-14)
    assert z.imag == pytest.approx(0.0, abs=1e-15)


def test_x_coordinate_consistency():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = random_coords(rng)
        z = disk_point(from_cartan(c)).z
        assert c.x == pytest.approx(1.0 - 2.0 * abs(z) ** 2, abs=1e-13)
        assert -1.0 <= c.x <= 1.0
