"""Property tests: chart round trips and exact label parsing."""
import cmath
import math

from hypothesis import given
from hypothesis import strategies as st

from su11 import (CartanCoords, GroupElement, RepLabel, as_rep_label, from_cartan,
                  matrix_element, matrix_element_cartan, to_cartan)

TWO_PI = 2.0 * math.pi

finite = dict(allow_nan=False, allow_infinity=False)
taus = st.floats(0.0, 10.0, **finite)
phases = st.floats(-TWO_PI, TWO_PI, **finite)
angles = st.floats(-20.0, 20.0, **finite)
labels = st.integers(2, 2 * 10**6).map(lambda k: RepLabel(two_eta=k))


@given(taus, phases, phases)
def test_chart_round_trip_preserves_alpha_beta(tau, arg_a, arg_b):
    g = GroupElement(math.cosh(0.5 * tau) * cmath.exp(1j * arg_a),
                     math.sinh(0.5 * tau) * cmath.exp(1j * arg_b))
    back = from_cartan(to_cartan(g))
    assert abs(back.alpha - g.alpha) <= 1e-12 * abs(g.alpha)
    assert abs(back.beta - g.beta) <= 1e-12 * abs(g.alpha)


@given(taus, angles, angles, st.integers(0, 12), st.integers(0, 12))
def test_chart_point_keeps_its_element_at_any_angle(tau, phi, psi, n, n_prime):
    # Normalizing (phi, psi) into their windows must not move the element,
    # and the chart-form matrix element there must be that element's.
    alpha = math.cosh(0.5 * tau) * cmath.exp(0.5j * (phi + psi))
    beta = math.sinh(0.5 * tau) * cmath.exp(0.5j * (phi - psi))
    c = CartanCoords(tau, phi, psi)
    g = from_cartan(c)
    assert abs(g.alpha - alpha) <= 1e-12 * abs(alpha)
    assert abs(g.beta - beta) <= 1e-12 * abs(alpha)
    direct = matrix_element("3/2", n, n_prime, g)
    chart = matrix_element_cartan("3/2", n, n_prime, c)
    assert abs(chart - direct) <= 1e-11 * (1.0 + abs(direct))


@given(labels)
def test_rep_label_parses_its_own_string(label):
    assert as_rep_label(str(label)) == label
