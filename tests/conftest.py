"""Fixtures shared by the test modules."""
import sys

import pytest

import su11.cli  # noqa: F401  (cli and verify are not imported by the package)


@pytest.fixture
def su11_caches() -> list:
    """Every functools cache held in the namespace of an su11 module."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key == "su11" or key.startswith("su11."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
    return list(found.values())


@pytest.fixture
def clear_su11_caches(su11_caches):
    """A function that empties every su11 cache."""
    def clear():
        for cache in su11_caches:
            cache.cache_clear()
    return clear
