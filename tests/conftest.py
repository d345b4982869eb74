"""Shared fixtures."""

from contextlib import contextmanager
from weakref import WeakKeyDictionary

import pytest

from funalg import evaluator


@contextmanager
def _tier(threshold):
    """Run with compile threshold `threshold` and a tier table of its own,
    for naive and memoized roots alike."""
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
    with _tier(0):
        yield


@pytest.fixture(scope="module")
def every_run_on_the_loop():
    """Every run of the module stays on evaluate's loop."""
    with _tier(float("inf")):
        yield
