"""Shared fixtures."""

from weakref import WeakKeyDictionary

import pytest

from funalg import evaluator


def _tier(threshold):
    """Run the module with compile threshold `threshold` and a tier table
    of its own, for naive and memoized roots alike."""
    saved = evaluator._COMPILE_STEPS, evaluator._HOT
    evaluator._COMPILE_STEPS, evaluator._HOT = threshold, WeakKeyDictionary()
    try:
        yield
    finally:
        evaluator._COMPILE_STEPS, evaluator._HOT = saved


@pytest.fixture(scope="module")
def every_root_compiled():
    """Every unlogged run of the module, naive or memoized, goes through
    its root's compiled plan for that mode, made on the root's first run
    in it."""
    yield from _tier(0)


@pytest.fixture(scope="module")
def every_run_on_the_loop():
    """Every run of the module stays on evaluate's loop."""
    yield from _tier(float("inf"))
