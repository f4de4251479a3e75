"""The public surface: ``su11.__all__``, the import rule between modules and
the one rule for count and index arguments."""
import ast
from pathlib import Path

import numpy as np
import pytest

import su11
from su11 import (
    InvalidParams,
    MatrixBlock,
    OrthoRequest,
    RepLabel,
    abel_character_sum,
    abel_trace,
    characters,
    damped_trace_sum,
    decompose,
    from_cartan,
    gauss_legendre,
    homomorphism_defect,
    jacobi,
    jacobi_sequence,
    log_poch_ratio,
    matrix_element,
    matrix_element_batch,
    matrix_element_cartan,
    monte_carlo_haar,
    orthogonality,
    to_cartan,
    trace_partial_sum,
    truncated_operator,
    unitarity_defect,
)
from su11.repmatrix import matrix_element_polar


def test_all_names_resolve_and_appear_once():
    names = su11.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(su11, name), name


def test_no_module_imports_a_private_name_from_another():
    # Each module keeps its helpers to itself; the others reach it only
    # through public names.
    offenders = []
    for path in sorted(Path(su11.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "su11"
            ):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_every_cache_is_bounded(su11_caches):
    # A bound caps the memory a cache keeps, and a functools cache in a
    # module namespace is one the benchmark harness can find and clear.
    assert characters._diagonal in su11_caches
    assert characters._compact_diagonal in su11_caches
    assert orthogonality._radial_value in su11_caches
    assert jacobi.gauss_legendre in su11_caches
    for cache in su11_caches:
        assert cache.cache_info().maxsize is not None, cache


_G = from_cartan(0.7, 0.3, -0.4)
_BLOCK = truncated_operator("3/2", _G, 5)
_REQ = OrthoRequest("1", "1", 0, 0, 0, 0)
_POLAR = (abs(_G.alpha) ** 2, abs(_G.beta / _G.alpha) ** 2, 0.3, -0.4)

# Every public count or index argument: "function:argument" -> a call
# that passes its value there, all other arguments held valid.
_COUNT_ARGUMENTS = {
    "matrix_element:n": lambda v: matrix_element("3/2", v, 2, _G),
    "matrix_element:n_prime": lambda v: matrix_element("3/2", 2, v, _G),
    "matrix_element_cartan:n": lambda v: matrix_element_cartan("3/2", v, 2, to_cartan(_G)),
    "matrix_element_cartan:n_prime": lambda v: matrix_element_cartan("3/2", 2, v, to_cartan(_G)),
    "matrix_element_polar:n": lambda v: matrix_element_polar("3/2", v, 2, *_POLAR),
    "matrix_element_polar:n_prime": lambda v: matrix_element_polar("3/2", 2, v, *_POLAR),
    "matrix_element_batch:n": lambda v: matrix_element_batch("3/2", v, 2, [_G.alpha], [_G.beta]),
    "matrix_element_batch:n_prime":
        lambda v: matrix_element_batch("3/2", 2, v, [_G.alpha], [_G.beta]),
    "truncated_operator:size": lambda v: truncated_operator("3/2", _G, v),
    "unitarity_defect:k": lambda v: unitarity_defect(_BLOCK, v),
    "homomorphism_defect:size": lambda v: homomorphism_defect("3/2", _G, _G, v, 2),
    "homomorphism_defect:k": lambda v: homomorphism_defect("3/2", _G, _G, 5, v),
    "trace_partial_sum:terms": lambda v: trace_partial_sum("3/2", _G, v),
    "damped_trace_sum:terms": lambda v: damped_trace_sum("3/2", _G, 0.5, v),
    "abel_trace:terms": lambda v: abel_trace("3/2", 1.0, 0.5, v),
    "decompose:n_max": lambda v: decompose("1", "3/2", v),
    "abel_character_sum:n_max": lambda v: abel_character_sum("1", "3/2", 1.3, 0.9, v),
    "OrthoRequest:m": lambda v: OrthoRequest("1", "1", v, 3, v, 3),
    "OrthoRequest:m_prime": lambda v: OrthoRequest("1", "1", 3, v, 3, v),
    "OrthoRequest:n": lambda v: OrthoRequest("1", "1", 3, 3, v, 3),
    "OrthoRequest:n_prime": lambda v: OrthoRequest("1", "1", 3, 3, 3, v),
    "monte_carlo_haar:samples": lambda v: monte_carlo_haar(_REQ, v, 0),
    "monte_carlo_haar:seed": lambda v: monte_carlo_haar(_REQ, 3, v),
    "jacobi_sequence:max_degree": lambda v: jacobi_sequence(1.0, 2.0, v, 0.3),
    "gauss_legendre:order": lambda v: gauss_legendre(v),
    "log_poch_ratio:n": lambda v: log_poch_ratio(3, v, 1),
    "log_poch_ratio:m": lambda v: log_poch_ratio(3, 1, v),
}


def _bits(result):
    """A result in a form that == compares exactly: arrays as their bytes."""
    if isinstance(result, MatrixBlock):
        result = (result.size, result.entries)
    if isinstance(result, (tuple, list)):
        return [_bits(part) for part in result]
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, OrthoRequest):
        assert all(type(index) is int for index in vars(result).values()
                   if not isinstance(index, RepLabel))
    return result


@pytest.mark.parametrize("key", _COUNT_ARGUMENTS)
def test_every_count_argument_takes_one_rule(key):
    # An int or a NumPy integer, not a bool, at least the argument's floor;
    # anything else is InvalidParams naming the argument, never IndexError
    # or TypeError, and never a value computed from a bool or a float.
    call, name = _COUNT_ARGUMENTS[key], key.split(":")[1]
    for bad in (True, 2.5, "3", -1):
        with pytest.raises(InvalidParams, match=rf"^{name} must be "):
            call(bad)
    assert _bits(call(np.int64(3))) == _bits(call(3))


def test_index_arrays_need_an_integer_dtype():
    for bad in (np.arange(3.0), np.array([True, False, True])):
        with pytest.raises(InvalidParams, match="^n must be an int"):
            matrix_element_batch("1", bad, np.arange(3), _G.alpha, _G.beta)
        with pytest.raises(InvalidParams, match="^n_prime must be an int"):
            matrix_element_batch("1", np.arange(3), bad, _G.alpha, _G.beta)
        with pytest.raises(InvalidParams, match="^n must be an int"):
            log_poch_ratio(3, bad, np.arange(3))
    with pytest.raises(InvalidParams, match="^n_prime must be >= 0, got -2"):
        matrix_element_batch("1", np.arange(3), np.array([0, -2, 1]), _G.alpha, _G.beta)
