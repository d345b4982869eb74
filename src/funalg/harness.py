"""Characterization harness: 0-/1-mode predicate runs and scaling reports.

A derivation d names a predicate in one of two input conventions:
Zero mode decides the set { x | d(x) = 1 with oracle emptyset }, One mode
decides { X | d(||X||) = 1 with oracle X } for finite sets X.  The harness
runs predicates in either mode and measures step-count scaling over input
sizes.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from .codec import FinSet, nat
from .compiler import (HD, ONE, PRED, TL, VarCtx, Z_, compile_formula, dd,
                       lt_d, not_d)
from .compiler import FBoundedEx
from .clausal import OracleMem, Rel, Succ, TAdd, Var
from .derivation import ADD, Derivation, E, I, P, S, bpr, comp, mu, snr
from .evaluator import Budget, BudgetExceeded, Meter, eval_memo


class PredicateError(ValueError):
    """A run produced a value other than 0 or 1."""


class CharMode(enum.Enum):
    ZERO = "zero"
    ONE = "one"


def char_run(d: Derivation, mode: CharMode, inp,
             budget: Budget | None = None) -> tuple[bool, Meter]:
    """Run predicate d on an input in the given characterization mode.

    Zero mode: inp is a number x; evaluates d(x) with the empty oracle.
    One mode: inp is a FinSet X; evaluates d(||X||) with oracle X.
    """
    meter = Meter()
    if mode is CharMode.ZERO:  # evaluate checks that inp is a natural
        v = eval_memo(d, inp, budget=budget, meter=meter)
    elif mode is CharMode.ONE:
        if not isinstance(inp, FinSet):
            raise TypeError("One mode takes a FinSet")
        v = eval_memo(d, inp.size(), oracle=inp, budget=budget, meter=meter)
    else:
        raise TypeError(f"unknown mode {mode!r}")
    if v not in (0, 1):
        raise PredicateError(f"predicate returned {v}, not 0/1")
    return v == 1, meter


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple[tuple[int, int, int], ...]  # (input_size, steps, peak_bits)
    fitted_exponent: float
    truncated: bool = False

    def to_csv(self) -> str:
        lines = ["size,steps,peak_bits"]
        lines += [f"{s},{st},{pb}" for (s, st, pb) in self.rows]
        lines.append(f"# fitted_exponent={self.fitted_exponent:.4f}")
        return "\n".join(lines) + "\n"


def _fit_exponent(rows) -> float:
    """Log-log least-squares slope of steps against input size."""
    pts = [(math.log(max(s, 1)), math.log(max(st, 1))) for s, st, _ in rows]
    n = len(pts)
    if n < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    var = sum((x - mx) ** 2 for x, _ in pts)
    if var == 0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in pts)
    return cov / var


def _random_finset(rng: random.Random, size: int) -> FinSet:
    """A random finite set with ||X|| = size (largest element size-1)."""
    if size <= 0:
        return FinSet(())
    below = [e for e in range(size - 1) if rng.random() < 0.5]
    return FinSet(tuple(below) + (size - 1,))


def scaling_study(d: Derivation, mode: CharMode, sizes,
                  trials_per_size: int = 3, seed: int = 0,
                  budget: Budget | None = None) -> ScalingReport:
    """Measure memoized step counts of predicate d across input sizes.

    Deterministic for a fixed seed.  A budget overrun stops measurement
    and flags the report as truncated; so does a One-mode size above the
    bit budget, before its set is built, as the set's code would be wider
    than the budget.  Any other error propagates.  A size or a
    trials_per_size that is not a natural number raises TypeError or
    ValueError.
    """
    rng = random.Random(seed)
    rows: list[tuple[int, int, int]] = []
    truncated = False
    trials = range(nat(trials_per_size, "trials_per_size"))
    max_bits = (budget or Budget()).max_bits
    for size in sorted(nat(s, "size") for s in sizes):
        if mode is CharMode.ONE and size > max_bits:
            truncated = True
            break
        for _ in trials:
            if mode is CharMode.ZERO:
                inp = rng.randint(max(size // 2, 1), size) if size > 0 else 0
            else:
                inp = _random_finset(rng, size)
            try:
                _, meter = char_run(d, mode, inp, budget=budget)
            except BudgetExceeded:
                truncated = True
                break
            rows.append((size, meter.steps, meter.peak_bits))
        if truncated:
            break
    return ScalingReport(tuple(rows), _fit_exponent(rows), truncated)


# --- example predicate library ------------------------------------------------


def parity_predicate() -> Derivation:
    """1 iff x is even: the compiled formula (exists y < S(x)) y + y = x."""
    f = FBoundedEx("y", Succ(Var("x")),
                   Rel(TAdd(Var("y"), Var("y")), "=", Var("x")))
    return compile_formula(f, VarCtx.of("x"), {})


def membership_predicate() -> Derivation:
    """1 iff some y < x lies in the oracle (nonemptiness scan).

    In One mode the argument is ||X||, which exceeds every element of X,
    so the scan decides whether X is nonempty.
    """
    f = FBoundedEx("y", Var("x"), OracleMem(Var("y")))
    return compile_formula(f, VarCtx.of("x"), {})


def constant_predicate() -> Derivation:
    """The constantly-true predicate."""
    return ONE


def doubling_clamp_predicate() -> Derivation:
    """1 iff iterated doubling stays within twice the input.

    Bounded primitive recursion computes 2^x clamped to 0 once it
    exceeds 2x; the predicate tests the clamped value for nonzero.
    """
    fw = comp(HD, TL)  # value component of a recursion tuple <w, fw, p>
    dbl = bpr(ONE, comp(ADD, P(fw, fw)))
    run = comp(dbl, P(I, comp(ADD, P(I, I))))
    return lt_d(Z_, run)


def snr_zero_predicate() -> Derivation:
    """A degenerate special nested recursion; constantly 0.

    The step function returns (0, v-1) for v > 0 and (1, 0) at v = 0, so
    evaluation walks v down to zero and answers 0.
    """
    g = dd(HD, P(comp(S, Z_), Z_), P(Z_, comp(PRED, HD)))
    return comp(snr(g, Z_), P(I, I))


def exhaustive_search_predicate() -> Derivation:
    """A deliberately superpolynomial predicate; constantly 1.

    Scans all y < 2^x for a condition that never holds, so the step count
    grows exponentially with x.
    """
    never = lt_d(comp(S, HD), HD)
    witness = comp(mu(never), P(E, I))
    return not_d(lt_d(witness, E))


PREDICATES = {
    "parity": parity_predicate,
    "membership": membership_predicate,
    "constant": constant_predicate,
    "doubling_clamp": doubling_clamp_predicate,
    "snr_zero": snr_zero_predicate,
    "exhaustive_search": exhaustive_search_predicate,
}
