"""The suite runner: worker processes, record order and errors."""
import pytest

from su11 import InvalidParams
from su11.verify import SUITE_NAMES, run_character, run_ortho, run_suite, run_tensor, run_unitary

SMALL = {"samples": 2000, "size": 20, "max_index": 3, "seed": 5}


def test_all_equals_the_single_suites_in_order():
    pooled = run_suite("all", **SMALL)
    singles = [check for name in SUITE_NAMES for check in run_suite(name, **SMALL)]
    in_process = [check for runner in (run_ortho, run_unitary, run_character, run_tensor)
                  for check in runner(**SMALL)]
    assert pooled == singles == in_process


def test_worker_error_is_raised_by_run_suite():
    with pytest.raises(InvalidParams, match="size must be >= 1, got 0") as info:
        run_suite("all", **{**SMALL, "size": 0})
    # A worker's exception carries the worker's traceback as its cause.
    assert "truncated_operator" in str(info.value.__cause__)


def test_unknown_suite_is_refused():
    with pytest.raises(InvalidParams, match="unknown suite"):
        run_suite("bogus")
