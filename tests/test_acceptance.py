"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The criteria themselves live in funalg.acceptance; they are run once per
session and the results shared across the per-criterion tests below.
"""

import hashlib
import random

import pytest

from funalg.acceptance import (CRITERIA, _random_derivation, check_13_cli,
                               run_all)
from funalg.derivation import CLASSES, d_print


@pytest.fixture(scope="session")
def results():
    return run_all()


def _report(n, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n:2d} {status} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.mark.parametrize("idx", range(len(CRITERIA)),
                         ids=[name for name, _ in CRITERIA])
def test_criterion(results, idx):
    n, name, ok, detail = results[idx]
    _report(n, name, ok, detail)


def test_criterion_13_cli(results):
    ok, detail = check_13_cli(results)
    _report(13, "cli", ok, detail)


def _drawn_corpora():
    """The derivations criteria 10 and 11 draw, in their order: criterion
    10 admits all of its first 200 candidates."""
    rng = random.Random(10)
    for _ in range(200):
        cls = CLASSES[rng.choice(["DA", "SA", "TA"])]
        yield _random_derivation(rng, cls, rng.randint(1, 4))
    rng = random.Random(11)
    for cname in ("DA", "SA", "TA", "PRA", "DEA"):
        for _ in range(100):
            yield _random_derivation(rng, CLASSES[cname], rng.randint(0, 4),
                                     evalsafe=False)


def test_random_derivations_keep_their_draws():
    text = "\n".join(d_print(d) for d in _drawn_corpora())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2a5eec2aa3be92602cf9927d6838c5f014642257c6466eecffee5461f69d7654")
