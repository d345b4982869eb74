"""The compiled tier of memoized evaluation (funalg.specialize).

The comparisons of test_evaluator.py with the generator-per-node oracle
run here a second time, with every memoized root compiled on its first
run: random DAGs over every class, reductions, wide PR stacks, and step
and bit budgets, with meters passed in.
"""

import gc
import importlib
import sys
import tracemalloc
import weakref
from weakref import WeakKeyDictionary

import pytest

from funalg import evaluator, specialize
from funalg.codec import pair
from funalg.corpus import corpus_def
from funalg.derivation import I, MUL, P, S, comp, mu
from funalg.evaluator import Budget, BudgetExceeded, Meter, eval_memo
from funalg.reduction import reduce_recursive_to_pr
from test_evaluator import (  # noqa: F401  (collected again here)
    test_bits_budget_binds_a_meter_already_past_it,
    test_matches_generator_evaluator,
    test_matches_generator_evaluator_at_width_limit,
    test_matches_generator_evaluator_on_reductions,
    test_matches_generator_evaluator_on_wide_arguments,
    test_matches_generator_evaluator_on_wide_pr_stacks,
    test_memo_hits_counted, test_naive_memo_agree,
    test_step_budget_raises)

pytestmark = pytest.mark.usefixtures("every_root_compiled")
# the compile threshold outside this module's fixture
_THRESHOLD = evaluator._COMPILE_STEPS


def _on_the_loop(d, x, meter=None, **kw):
    """eval_memo's value and meter on the loop alone."""
    saved = evaluator._COMPILE_STEPS, evaluator._HOT
    evaluator._COMPILE_STEPS = float("inf")
    evaluator._HOT = WeakKeyDictionary()
    try:
        m = Meter() if meter is None else meter
        return eval_memo(d, x, meter=m, **kw), m
    finally:
        evaluator._COMPILE_STEPS, evaluator._HOT = saved


def _compiled(d, x, meter=None, **kw):
    """eval_memo's value and meter, run through d's plan."""
    m = Meter() if meter is None else meter
    try:
        return eval_memo(d, x, meter=m, **kw), m
    finally:
        assert evaluator._HOT[d].__class__ is specialize.Plan


def test_a_root_compiles_after_one_run_charges_the_threshold(monkeypatch):
    monkeypatch.setattr(evaluator, "_COMPILE_STEPS", _THRESHOLD)
    monkeypatch.setattr(evaluator, "_HOT", WeakKeyDictionary())
    made = []
    monkeypatch.setattr(evaluator, "_make_plan",
                        lambda d: made.append(d) or specialize.make_plan(d))
    d = reduce_recursive_to_pr(corpus_def("L")).result
    # runs at growing arguments stay on the loop up to and including the
    # first that charges the threshold, though the first three together
    # charge more than it
    for p in (0, 0, 0, 1, 2):
        x = pair(3, p)
        want = _on_the_loop(d, x)
        assert eval_memo(d, x) == want[0] and not made
        if want[1].steps >= _THRESHOLD:
            break
    assert p == 2 and 3 * 299 > _THRESHOLD
    assert evaluator._HOT[d] == [want[1].steps]
    assert _compiled(d, x) == want and made == [d]


def test_a_cold_root_is_never_compiled(monkeypatch):
    monkeypatch.setattr(evaluator, "_COMPILE_STEPS", _THRESHOLD)
    monkeypatch.setattr(evaluator, "_HOT", WeakKeyDictionary())
    monkeypatch.setattr(evaluator, "_make_plan", None)  # calling it fails
    d = comp(S, P(I, comp(MUL, P(I, I))))
    m = Meter()
    for x in range(3000):
        eval_memo(d, x, meter=m)
    # each run charges 9 steps, all of them together far more than the
    # threshold
    assert evaluator._HOT[d] == [9] and m.steps == 27_000 > _THRESHOLD


def test_naive_and_logged_runs_stay_on_the_loop():
    d = comp(S, P(I, I))
    evaluator.eval_naive(d, 3)
    evaluator.evaluate(d, 3, memo=True, expansion_log=[])
    assert d not in evaluator._HOT


def test_a_budget_event_reruns_the_call_on_the_loop():
    d = reduce_recursive_to_pr(corpus_def("nested")).result
    full = _on_the_loop(d, 8)[1]
    for budget in (Budget(full.steps - 1, 10**6),
                   Budget(10**6, full.peak_bits - 1)):
        for meter0 in (Meter(), Meter(7, 3, 2, 50)):
            outcomes = []
            for run in (_on_the_loop, _compiled):
                m = Meter(**vars(meter0))
                with pytest.raises(BudgetExceeded) as e:
                    run(d, 8, meter=m, budget=budget)
                assert e.value.meter is m
                outcomes.append((e.value.kind, m))
            assert outcomes[0] == outcomes[1]


def test_a_busy_plan_leaves_the_run_to_the_loop():
    d = reduce_recursive_to_pr(corpus_def("addp")).result
    want = _compiled(d, pair(9, 4))
    plan = evaluator._HOT[d]
    with plan.lock:
        assert _compiled(d, pair(9, 4)) == want


def test_deep_comp_chain_gives_the_loop_meter():
    # 100,000 owned comp nodes, far over the plan cap: planned without
    # recursion, then left to the loop
    d = I
    for _ in range(100_000):
        d = comp(S, d)
    want = _on_the_loop(d, 7)
    m = Meter()
    assert eval_memo(d, 7, meter=m) == want[0] == 100_007
    assert m == want[1] and evaluator._HOT[d] == ()


@pytest.mark.parametrize("n, kind", [(2500, "owned"), (700, "shared")])
def test_deep_chains_run_on_the_driver(n, kind):
    # an owned chain cut into functions of FN_NODES nodes, frames deeper
    # than the host's recursion limit; or a chain of memoized nodes, each
    # called twice at one argument; either holds more generated functions
    # in a row than DIRECT_HEIGHT
    d = I
    for _ in range(n):
        d = comp(S, d) if kind == "owned" else comp(d, d)
    want = _on_the_loop(d, 7)
    assert _compiled(d, 7) == want
    assert evaluator._HOT[d].generator
    assert kind == "shared" or want[1].max_depth > sys.getrecursionlimit()


def test_a_plan_dies_with_its_root():
    d = comp(mu(comp(S, MUL)), P(S, comp(S, P(I, I))))
    _compiled(d, 40)
    plan = weakref.ref(evaluator._HOT[d])
    del d
    gc.collect()
    assert plan() is None


def test_a_fresh_import_plans_older_nodes_alike(monkeypatch):
    # the benchmark's set-up imports funalg afresh while the nodes it
    # built before live on, so their ops are another module's members
    d = reduce_recursive_to_pr(corpus_def("nested")).result
    want = specialize.make_plan(d)
    for name in [m for m in sys.modules
                 if m == "funalg" or m.startswith("funalg.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("funalg.specialize")
    assert fresh is not specialize
    got = fresh.make_plan(d)
    assert ((got.nodes, got.functions, got.source_bytes)
            == (want.nodes, want.functions, want.source_bytes))


def test_compiling_the_corpus_pr_reductions_stays_small():
    # each plan is compiled one function at a time; the six retain about
    # 490 KB and peak at about 1.5 MB
    roots = [reduce_recursive_to_pr(corpus_def(n)).result
             for n in ("L", "last", "sumlist", "cat", "addp", "nested")]
    gc.collect()
    tracemalloc.start()
    try:
        plans = [specialize.make_plan(d) for d in roots]
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(p is not None for p in plans)
    assert retained < 1_000_000 and peak < 2_500_000
