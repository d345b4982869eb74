"""Shared fixtures."""

from contextlib import contextmanager
from weakref import WeakKeyDictionary

import pytest

from funalg import evaluator


@contextmanager
def _tier(run):
    """Compile a root on its `run`-th unlogged run in a mode, with a tier
    table of its own, for naive and memoized roots alike."""
    saved = evaluator._COMPILE_RUN, evaluator._HOT
    evaluator._COMPILE_RUN, evaluator._HOT = run, WeakKeyDictionary()
    try:
        yield
    finally:
        evaluator._COMPILE_RUN, evaluator._HOT = saved


@pytest.fixture(scope="module")
def every_root_compiled():
    """Every unlogged run of the module, naive or memoized, goes through
    its root's compiled plan for that mode, made on the root's first run
    in it."""
    with _tier(1):
        yield


@pytest.fixture(scope="module")
def every_run_on_the_loop():
    """Every run of the module stays on evaluate's loop."""
    with _tier(float("inf")):
        yield
