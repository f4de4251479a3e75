"""The public surface: ``su11.__all__`` and the import rule between modules."""
import ast
from pathlib import Path

import su11
from su11 import characters, jacobi, orthogonality


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
