"""Shared fixtures."""

from weakref import WeakKeyDictionary

import pytest

from funalg import evaluator


@pytest.fixture(scope="module")
def every_root_compiled():
    """Every memoized run of the module goes through its root's compiled
    plan, made on the root's first run, in a tier table of its own."""
    saved = evaluator._COMPILE_STEPS, evaluator._HOT
    evaluator._COMPILE_STEPS, evaluator._HOT = 0, WeakKeyDictionary()
    try:
        yield
    finally:
        evaluator._COMPILE_STEPS, evaluator._HOT = saved
