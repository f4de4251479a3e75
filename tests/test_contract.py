"""The contract at the edges of the domain: a Su11Error, or a clean result.

Each call below takes every combination of edge values in its
arguments, the others held valid.  It must either raise a Su11Error, or
return a result whose every float part is finite and none is -0.0: no NaN,
no infinity, no -0j and no builtin exception.  The typical values 0.3 and
2.0 let the edges meet valid inputs, as a damping or an angle.
"""
import itertools
import math

import numpy as np
import pytest

from su11 import (
    CartanCoords,
    CharacterValue,
    DiskPoint,
    GroupElement,
    InvalidDamping,
    InvalidParams,
    MatrixBlock,
    RepLabel,
    Su11Error,
    UnsupportedClass,
    abel_character_sum,
    abel_trace,
    character,
    character_compact,
    compact_element,
    damped_trace_closed_form,
    disk_point,
    from_cartan,
    haar_density,
    inverse,
    matrix_element,
    multiply,
    to_cartan,
    truncated_operator,
)

EDGES = (0.0, -0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf, 700.0, 1400.0,
         True, np.True_, "1", "x", None)
VALUES = EDGES + (0.3, 2.0)

# A label so large that an off-diagonal prefactor leaves double range within
# a 60 x 60 block; at beta = 0 those entries are exactly 0.
HUGE = RepLabel(two_eta=2**52 - 1)

CALLS = {
    "character": lambda tau, phi, psi: character("5/2", from_cartan(tau, phi, psi)),
    "damped_trace_closed_form":
        lambda tau, phi, r: damped_trace_closed_form("5/2", from_cartan(tau, phi, 0.2), r),
    "abel_trace": lambda theta, r: abel_trace("5/2", theta, r, 50),
    "abel_character_sum": lambda theta, r: abel_character_sum("1", "3/2", theta, r, 50),
    "matrix_element": lambda theta: (matrix_element("5000", 320, 0, compact_element(theta)),
                                     matrix_element(HUGE, 59, 0, compact_element(theta))),
    "truncated_operator": lambda theta: truncated_operator(HUGE, compact_element(theta), 60),
    "from_cartan": lambda tau, phi, psi: from_cartan(tau, phi, psi),
    "GroupElement": lambda alpha, beta: GroupElement(alpha, beta),
    "inverse": lambda tau, phi, psi: inverse(from_cartan(tau, phi, psi)),
    "multiply": lambda tau, phi, psi: multiply(from_cartan(tau, phi, psi),
                                               inverse(from_cartan(tau, psi, phi))),
    "to_cartan": lambda tau, phi, psi: to_cartan(from_cartan(tau, phi, psi)),
    "CartanCoords": lambda tau, phi, psi: CartanCoords(tau, phi, psi),
    "DiskPoint": lambda z: DiskPoint(z),
    "disk_point": lambda tau, phi, psi: disk_point(from_cartan(tau, phi, psi)),
    "haar_density": lambda tau: haar_density(tau),
    "compact_element": lambda theta: compact_element(theta),
}


def _float_parts(result) -> np.ndarray:
    """Every float part of a result, as one real array."""
    if isinstance(result, tuple):
        return np.concatenate([_float_parts(item) for item in result])
    if isinstance(result, CharacterValue):
        result = result.value
    elif isinstance(result, GroupElement):
        result = (result.alpha, result.beta)
    elif isinstance(result, CartanCoords):
        result = (result.tau, result.phi, result.psi)
    elif isinstance(result, DiskPoint):
        result = result.z
    elif isinstance(result, MatrixBlock):
        result = result.entries
    parts = np.asarray(result, dtype=complex).ravel()
    return np.concatenate([parts.real, parts.imag])


def _breaks_contract(call, args) -> bool:
    try:
        parts = _float_parts(call(*args))
    except Su11Error:
        return False
    return not np.isfinite(parts).all() or bool(np.any((parts == 0.0) & np.signbit(parts)))


@pytest.mark.parametrize("name", CALLS)
def test_edge_values_give_an_error_or_a_clean_result(name):
    call = CALLS[name]
    broken = [args for args in itertools.product(VALUES, repeat=call.__code__.co_argcount)
              if _breaks_contract(call, args)]
    assert broken == []


@pytest.mark.parametrize("call, name, good", [
    (lambda x: GroupElement(x, 0.0), "alpha", 1),
    (lambda x: GroupElement(1.0, x), "beta", 0),
    (lambda x: DiskPoint(x), "z", 0),
], ids=["GroupElement:alpha", "GroupElement:beta", "DiskPoint"])
def test_a_complex_argument_must_be_a_number(call, name, good):
    # A bool or a string would be taken as a number, None would escape as TypeError.
    for bad in (True, False, np.True_, np.timedelta64(1, "s"), "1", "x", None):
        with pytest.raises(InvalidParams, match=f"^{name} must be a number"):
            call(bad)
    # Ints, floats, complex numbers and NumPy numbers are numbers.
    for kind in (int, float, complex, np.int64, np.float32, np.complex64):
        call(kind(good))


@pytest.mark.parametrize("call, error", [
    (lambda x: haar_density(x), InvalidParams),
    (lambda x: CartanCoords(x, 0.3, 0.2), InvalidParams),
    (lambda x: from_cartan(x, 0.3, 0.2), InvalidParams),
    (lambda x: compact_element(x), UnsupportedClass),
    (lambda x: character_compact("1", x), UnsupportedClass),
    (lambda x: abel_trace("1", x, 0.5, 3), UnsupportedClass),
    (lambda x: abel_trace("1", 1.0, x, 3), InvalidDamping),
    (lambda x: damped_trace_closed_form("1", compact_element(1.0), x), InvalidDamping),
], ids=["haar_density", "CartanCoords", "from_cartan", "compact_element",
        "character_compact", "abel_trace:theta", "abel_trace:r", "damped_trace_closed_form"])
def test_a_real_argument_must_be_a_real_number(call, error):
    # True would be taken as 1, a string or None would escape as a builtin error.
    for bad in (True, False, "1", "x", None, 1j, np.bool_(True)):
        with pytest.raises(error, match="must be a real number"):
            call(bad)
    # NumPy floats are real numbers.
    for good in (0.5, np.float64(0.5), np.float32(0.5)):
        call(good)
