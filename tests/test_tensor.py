"""Tensor-product spectrum and character-level certification."""
import cmath
import math
from itertools import product

import numpy as np
import pytest

from su11 import (
    InvalidDamping,
    RepLabel,
    SingularAngle,
    UnsupportedClass,
    abel_character_sum,
    abel_character_sum_closed_form,
    as_rep_label,
    character_compact,
    character_product,
    decompose,
    multiplicity,
)
from su11.verify import verify_expansion_identity

LABELS = [as_rep_label(t / 2.0) for t in range(2, 9)]  # 1 ... 4 in half steps


def test_decompose_frozen_spectrum():
    terms = decompose("1", "1", 3).terms
    assert [(str(t.eta3), t.multiplicity) for t in terms] == [
        ("2", 1), ("3", 1), ("4", 1), ("5", 1)
    ]
    assert str(decompose("1", "3/2", 5).terms[0].eta3) == "5/2"
    assert len(decompose("2", "2", 0).terms) == 1


def test_decompose_structure():
    for l1, l2 in product(LABELS, repeat=2):
        dec = decompose(l1, l2, 12)
        twices = [term.eta3.two_eta for term in dec.terms]
        assert twices[0] == l1.two_eta + l2.two_eta
        assert all(b - a == 2 for a, b in zip(twices, twices[1:]))
        assert all(term.multiplicity == 1 for term in dec.terms)
        assert decompose(l2, l1, 12).terms == dec.terms


def test_multiplicity_exact_rules():
    assert multiplicity("1", "1", "2") == 1
    assert multiplicity("1", "1", "3/2") == 0
    assert multiplicity("3/2", "3/2", "5") == 1
    assert multiplicity("2", "3/2", "3") == 0   # below the lowest weight
    assert multiplicity("2", "3/2", "7/2") == 1
    assert multiplicity("2", "3/2", "4") == 0   # half-odd offset


def test_no_term_below_lowest_weight():
    for l1, l2 in product(LABELS, repeat=2):
        for term in decompose(l1, l2, 8).terms:
            assert term.eta3.two_eta >= l1.two_eta + l2.two_eta


def test_character_product_matches_two_factors():
    for eta1, eta2 in product(("1", "3/2", "2", "5/2"), repeat=2):
        for theta in (0.4, 1.7, math.pi, 5.5):
            closed = character_product(eta1, eta2, theta)
            factors = character_compact(eta1, theta) * character_compact(eta2, theta)
            assert closed == pytest.approx(factors, rel=1e-13)


def test_character_product_frozen_value():
    assert character_product("1", "1", math.pi) == pytest.approx(0.25, abs=1e-14)


def test_character_product_singular():
    with pytest.raises(SingularAngle):
        character_product("1", "1", 0.0)


def test_angle_window_errors_agree():
    # The sin(theta/2) test comes first; outside (0, 2*pi) every compact
    # character formula refuses the angle the same way.
    checks = (
        lambda theta: character_compact("1", theta),
        lambda theta: character_product("1", "1", theta),
        lambda theta: abel_character_sum("1", "1", theta, 0.5, 10),
    )
    for f in checks:
        for theta in (-0.4, 2 * math.pi + 1):
            with pytest.raises(UnsupportedClass):
                f(theta)
        with pytest.raises(SingularAngle):
            f(0.0)


def test_abel_sum_is_ladder_of_compact_characters():
    # The sum is abel_trace of the lowest summand over 1 - exp(-i theta);
    # it must agree with the ladder added term by term.
    for eta1, eta2, theta, r in (("1", "1", 1.0, 0.9), ("3/2", "2", math.pi, 0.99),
                                 ("5/2", "1", 2 * math.pi - 0.5, 0.5)):
        base = as_rep_label(eta1).two_eta + as_rep_label(eta2).two_eta
        ladder = sum(r ** n * character_compact(RepLabel(two_eta=base + 2 * n), theta)
                     for n in range(301))
        value = abel_character_sum(eta1, eta2, theta, r, 300)
        assert abs(value - ladder) <= 1e-12 * abs(ladder)


def test_consecutive_character_ratio_is_phase():
    theta = 1.9
    for base in ("2", "5/2"):
        lead = as_rep_label(base)
        for n in range(5):
            top = RepLabel(two_eta=lead.two_eta + 2 * (n + 1))
            bottom = RepLabel(two_eta=lead.two_eta + 2 * n)
            ratio = character_compact(top, theta) / character_compact(bottom, theta)
            assert ratio == pytest.approx(cmath.exp(-1j * theta), rel=1e-13)


def test_abel_sum_half_damping_closed_form():
    for eta1, eta2, theta in [("1", "1", 1.1), ("3/2", "2", 2.9)]:
        got = abel_character_sum(eta1, eta2, theta, 0.5, 200)
        expected = character_compact(
            RepLabel(two_eta=as_rep_label(eta1).two_eta + as_rep_label(eta2).two_eta),
            theta,
        ) / (1.0 - 0.5 * cmath.exp(-1j * theta))
        assert got == pytest.approx(expected, rel=1e-12)
        assert abel_character_sum_closed_form(eta1, eta2, theta, 0.5) == pytest.approx(
            expected, rel=1e-14
        )


def test_abel_sum_residual_scales_linearly():
    for eta1, eta2, theta in [("1", "1", 1.0), ("1", "3/2", 0.5),
                              ("3/2", "2", math.pi), ("2", "2", 2 * math.pi - 0.5),
                              ("5/2", "1", 2.5)]:
        target = character_product(eta1, eta2, theta)
        residuals = []
        for r, gap in ((0.9, 0.1), (0.99, 0.01), (0.999, 0.001)):
            n_terms = int(math.ceil(30.0 / gap))
            res = abs(abel_character_sum(eta1, eta2, theta, r, n_terms) - target)
            residuals.append(res / gap)
        assert max(residuals) <= 1.6 * min(residuals)
        assert residuals[-1] * 0.001 <= 1e-2 * abs(target)


def test_abel_limit_equals_product_everywhere():
    for eta1, eta2 in product(("1", "3/2", "2"), repeat=2):
        for theta in np.linspace(0.5, 2 * math.pi - 0.5, 20):
            lhs = abel_character_sum_closed_form(eta1, eta2, float(theta), 1.0)
            rhs = character_product(eta1, eta2, float(theta))
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_abel_sum_validation():
    with pytest.raises(InvalidDamping):
        abel_character_sum("1", "1", 1.0, 1.0, 10)
    with pytest.raises(SingularAngle):
        abel_character_sum("1", "1", 0.0, 0.5, 10)
    # The closed form also takes r = 1, the Abel limit, with the same angle guards.
    with pytest.raises(InvalidDamping):
        abel_character_sum_closed_form("1", "1", 1.0, 1.5)
    with pytest.raises(SingularAngle):
        abel_character_sum_closed_form("1", "1", 0.0, 1.0)
    with pytest.raises(UnsupportedClass):
        abel_character_sum_closed_form("1", "1", -0.4, 1.0)


def test_expansion_identity_frozen_and_grid():
    assert verify_expansion_identity(math.pi) <= 1e-15
    for theta in np.linspace(0.1, 2 * math.pi - 0.1, 100):
        assert verify_expansion_identity(float(theta)) <= 1e-13
    assert verify_expansion_identity(0.1) <= 1e-12
    with pytest.raises(SingularAngle):
        verify_expansion_identity(0.0)
