"""The suite runner: worker processes, record order and errors."""
import pytest

from su11 import InvalidParams, verify
from su11.verify import SUITE_NAMES, run_character, run_ortho, run_suite, run_tensor, run_unitary

SMALL = {"samples": 2000, "size": 20, "max_index": 3, "seed": 5}
RUNNERS = dict(zip(SUITE_NAMES, (run_ortho, run_unitary, run_character, run_tensor)))


def test_all_equals_the_single_suites_in_order():
    # Pool tasks finish in any order; the records come back in registry order.
    for params in (SMALL, {**SMALL, "seed": 1}):
        in_process = {name: RUNNERS[name](**params) for name in SUITE_NAMES}
        for name in SUITE_NAMES:
            assert run_suite(name, **params) == in_process[name], name
        assert run_suite("all", **params) == [
            check for name in SUITE_NAMES for check in in_process[name]]


def test_every_check_runs_in_exactly_one_pool_task():
    keys = [(suite, task) for suite in SUITE_NAMES for task in verify._TASKS[suite]]
    names = [check.name for key in keys for check in verify._run_task(*key, SMALL)]
    assert len(names) == len(set(names))


def test_worker_error_is_raised_by_run_suite():
    with pytest.raises(InvalidParams, match="size must be >= 1, got 0") as info:
        run_suite("all", **{**SMALL, "size": 0})
    # A worker's exception carries the worker's traceback as its cause.
    assert "homomorphism_defect" in str(info.value.__cause__)


def test_unknown_suite_is_refused():
    with pytest.raises(InvalidParams, match="unknown suite"):
        run_suite("bogus")
