"""The compiled tier against the loop on every benchmark workload.

One pass of each workload of bench/workloads.py at seed 1 runs with
funalg.evaluator.evaluate wrapped, so the calls the harness makes are
collected too.  Each unlogged call then runs in its own mode on the loop
and compiled at threshold 0, from a fresh meter and from meters at
peak_bits 40 and 100,000: the value, or the BudgetExceeded kind, and all
four meter fields must agree.  A change to funalg.specialize cites this
check.  The workloads are imported, not changed.
"""

import sys
from pathlib import Path

from conftest import _tier
from funalg import evaluator, specialize
from funalg.evaluator import BudgetExceeded, Meter

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1
# the unlogged evaluate calls of one pass of each workload at SEED
CALLS = {"pr_stack": 89, "snr_nested": 47, "compile_grid": 882,
         "syntax_dag": 168}
PEAKS = (0, 40, 100_000)


def _workload_calls():
    """{workload: [(d, x, oracle, budget, memo)]}: the calls of one pass
    of each, after its set-up and build."""
    calls: dict[str, list] = {}
    evaluate = evaluator.evaluate

    def collect(d, x, oracle=None, budget=None, meter=None, memo=False,
                expansion_log=None):
        if expansion_log is None:
            into.append((d, x, oracle, budget, memo))
        return evaluate(d, x, oracle, budget, meter, memo, expansion_log)

    evaluator.evaluate = collect
    try:
        for name, workload in workloads.WORKLOADS.items():
            into = []
            tr = tracing.Tracer()
            w = workload(SEED, tr)
            w.build(tr)
            into = calls[name] = []
            for _, case in w.cases():
                try:
                    case(tr, workloads.Counts())
                except Exception:  # a failed case still made its calls
                    pass
    finally:
        evaluator.evaluate = evaluate
    return calls


def _outcomes(calls):
    """Each call's value or BudgetExceeded kind and its meter, from each
    starting peak."""
    out = []
    for d, x, oracle, budget, memo in calls:
        for peak in PEAKS:
            m = Meter(peak_bits=peak)
            try:
                got = evaluator.evaluate(d, x, oracle, budget, m, memo)
            except BudgetExceeded as e:
                got = e.kind
            out.append((got, m))
    return out


def test_every_workload_call_gives_the_loop_outcome_compiled():
    calls = _workload_calls()
    assert {name: len(c) for name, c in calls.items()} == CALLS
    every = [c for name in CALLS for c in calls[name]]
    with _tier(float("inf")):
        want = _outcomes(every)
    with _tier(0):
        got = _outcomes(every)
        plans = sum(evaluator._HOT[d][memo].__class__ is specialize.Plan
                    for d, _, _, _, memo in every if d in evaluator._HOT)
    assert plans > len(every) // 2
    wrong = [(every[i // len(PEAKS)][:2], PEAKS[i % len(PEAKS)], w, g)
             for i, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not wrong, wrong[:5]
