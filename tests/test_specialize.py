"""The compiled tier of naive and memoized evaluation (funalg.specialize).

The comparisons of test_evaluator.py with the generator-per-node oracle
run here a second time, with every root compiled on its first unlogged
run in each mode: random DAGs over every class, reductions, wide PR
stacks, naive replays and their record bound, and step and bit budgets,
with meters passed in.
"""

import ast
import gc
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from functools import lru_cache
from pathlib import Path
from weakref import WeakKeyDictionary

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _tier
import funalg
from funalg import evaluator, specialize
from funalg.codec import list_encode, pair
from funalg.corpus import corpus_def, corpus_defs
from funalg.compiler import HD, TL, Z_, compile_explicit, dd, lt_d
from funalg.derivation import (ADD, I, MUL, ORACLE, P, PolyBound, S, comp,
                               fold, mu, pr)
from funalg.evaluator import (Budget, BudgetExceeded, Meter, eval_memo,
                              eval_naive, evaluate)
from funalg.harness import exhaustive_search_predicate
from funalg.reduction import (BoundViolation, ReductionError,
                              reduce_bounded_nested_to_snr,
                              reduce_recursive_to_pr)
from test_evaluator import counting_isqrt
from test_evaluator import (  # noqa: F401  (collected again here)
    test_bits_budget_binds_a_meter_already_past_it,
    test_long_naive_runs_match_generator_evaluator,
    test_matches_generator_evaluator,
    test_matches_generator_evaluator_at_width_limit,
    test_matches_generator_evaluator_on_reductions,
    test_matches_generator_evaluator_on_wide_arguments,
    test_matches_generator_evaluator_on_wide_pr_stacks,
    test_memo_hits_counted, test_naive_memo_agree,
    test_naive_records_stay_bounded,
    test_replay_deeper_than_its_record_raises_max_depth,
    test_replay_matches_generator_evaluator_past_the_record_cap,
    test_replay_matches_generator_evaluator_under_bit_budgets,
    test_replay_matches_generator_evaluator_under_step_budgets,
    test_replay_matches_generator_evaluator_when_records_are_dropped,
    test_step_budget_raises)

pytestmark = pytest.mark.usefixtures("every_root_compiled")
# the run that compiles a root outside this module's fixture
_COMPILE_RUN = evaluator._COMPILE_RUN
# f(<v, p>) = p + v: 19 v + 2 steps memoized, 22 v - 1 naive for v > 0
_ADD = pr(I, comp(S, comp(HD, TL)))
# 9 steps a run in either mode, far under the 2^7 steps that once made a
# root hot
_SHORT = comp(S, P(I, comp(MUL, P(I, I))))


def _on_the_loop(d, x, meter=None, memo=True, **kw):
    """evaluate's value and meter on the loop alone."""
    m = Meter() if meter is None else meter
    with _tier(float("inf")):
        return evaluate(d, x, meter=m, memo=memo, **kw), m


def _compiled(d, x, meter=None, memo=True, **kw):
    """evaluate's value and meter, run through d's plan for the mode."""
    m = Meter() if meter is None else meter
    try:
        return evaluate(d, x, meter=m, memo=memo, **kw), m
    finally:
        plan = evaluator._HOT[d][memo]
        assert plan.__class__ is specialize.Plan and plan.memo == memo


def _second_run_tier(monkeypatch):
    """The module's own trigger and a fresh tier table; gives the list of
    (root, mode) that _make_plan is called with."""
    monkeypatch.setattr(evaluator, "_COMPILE_RUN", _COMPILE_RUN)
    monkeypatch.setattr(evaluator, "_HOT", WeakKeyDictionary())
    made = []
    monkeypatch.setattr(evaluator, "_make_plan", lambda d, memo: made.append(
        (d, memo)) or specialize.make_plan(d, memo))
    return made


def _compiles_on_its_second_run(monkeypatch, memo):
    """_ADD's first unlogged run in the mode stays on the loop and counts
    in that mode's cell alone; its second compiles it, once, and that run
    and the next give the loop's outcome."""
    made = _second_run_tier(monkeypatch)
    want = _on_the_loop(_ADD, pair(3, 0), memo=memo)
    got = Meter()
    assert (evaluate(_ADD, pair(3, 0), meter=got, memo=memo), got) == want
    assert want[0] == 3 and not made
    assert evaluator._HOT[_ADD] == ([0, 1] if memo else [1, 0])
    for v in (5, 6):
        want = _on_the_loop(_ADD, pair(v, 0), memo=memo)
        assert _compiled(_ADD, pair(v, 0), memo=memo) == want
        assert made == [(_ADD, memo)]
    assert evaluator._HOT[_ADD][not memo] == 0


def test_a_root_compiles_on_its_second_run(monkeypatch):
    _compiles_on_its_second_run(monkeypatch, True)


def test_a_naive_root_compiles_on_its_second_run(monkeypatch):
    _compiles_on_its_second_run(monkeypatch, False)


def test_a_root_run_once_is_never_compiled(monkeypatch):
    monkeypatch.setattr(evaluator, "_COMPILE_RUN", _COMPILE_RUN)
    monkeypatch.setattr(evaluator, "_HOT", WeakKeyDictionary())
    monkeypatch.setattr(evaluator, "_make_plan", None)  # calling it fails
    m = Meter()
    assert (eval_memo(_SHORT, 7, meter=m), m) == _on_the_loop(_SHORT, 7)
    assert evaluator._HOT[_SHORT] == [0, 1]
    eval_naive(_SHORT, 7)
    assert evaluator._HOT[_SHORT] == [1, 1]


@pytest.mark.parametrize("memo", [False, True], ids=["naive", "memo"])
def test_a_root_of_short_runs_compiles_from_its_second_run(monkeypatch,
                                                           memo):
    # every run charges 9 steps; each compiled run, from a fresh meter or
    # one passed in at peak 40 or 100,000, leaves the loop's meter
    made = _second_run_tier(monkeypatch)
    for i, x in enumerate((7, 0, 2**45 + 3, 5)):
        for meter0 in (Meter(), Meter(7, 40, 2, 50), Meter(7, 100_000, 2, 5)):
            want = _on_the_loop(_SHORT, x, Meter(**vars(meter0)), memo)
            assert want[1].steps - meter0.steps == 9
            if i == 0 and meter0 == Meter():  # the first run, on the loop
                m = Meter()
                assert (evaluate(_SHORT, x, meter=m, memo=memo), m) == want
                assert not made
                continue
            assert _compiled(_SHORT, x, Meter(**vars(meter0)), memo) == want
    assert made == [(_SHORT, memo)]


def test_logged_runs_stay_on_the_loop_in_either_mode():
    d = comp(S, P(I, I))
    for memo in (False, True):
        evaluate(d, 3, memo=memo, expansion_log=[])
    assert d not in evaluator._HOT


def _budget_events_give_the_loop_outcome(d, x, memo):
    """Step and bit budgets just under a full run's give the loop's kind
    and meter, with meters passed in."""
    full = _on_the_loop(d, x, memo=memo)[1]
    for kind, budget in (("steps", Budget(full.steps - 1, 10**6)),
                         ("bits", Budget(10**6, full.peak_bits - 1))):
        for meter0 in (Meter(), Meter(7, 3, 2, 50)):
            outcomes = []
            for run in (_on_the_loop, _compiled):
                m = Meter(**vars(meter0))
                with pytest.raises(BudgetExceeded) as e:
                    run(d, x, meter=m, memo=memo, budget=budget)
                assert e.value.meter is m and e.value.kind == kind
                outcomes.append(m)
            assert outcomes[0] == outcomes[1]


def test_a_budget_event_reruns_the_call_on_the_loop():
    d = reduce_recursive_to_pr(corpus_def("nested")).result
    _budget_events_give_the_loop_outcome(d, 8, True)


def test_a_naive_budget_event_reruns_the_call_on_the_loop():
    # L at 5 replays calls: 4,073 steps naive
    d = reduce_recursive_to_pr(corpus_def("L")).result
    _budget_events_give_the_loop_outcome(d, 5, False)


def test_compiled_naive_records_stay_bounded(monkeypatch):
    # exhaustive search at 12, 86,033 steps, makes more distinct calls of
    # its plan's functions than the lowered cap; the run allocates about
    # 112 KB, and 476 KB with the cap lifted
    monkeypatch.setattr(evaluator, "_RECORDS", 1024)
    monkeypatch.setattr(evaluator, "_RECORD_BITS", 1 << 18)
    d = exhaustive_search_predicate()
    want = _on_the_loop(d, 12, memo=False)
    _compiled(d, 9, memo=False)  # the compile, outside the traced run
    tracemalloc.start()
    try:
        got = _compiled(d, 12, memo=False)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and allocated < 2**18


def test_a_naive_plan_unpairs_the_pairs_it_built_by_lookup(monkeypatch):
    # a plan compiled afresh, with the counting isqrt; without the pairs
    # table the run calls it 567 times
    monkeypatch.setattr(evaluator, "_HOT", WeakKeyDictionary())
    calls = counting_isqrt(specialize, monkeypatch)
    d = reduce_recursive_to_pr(corpus_def("L")).result
    assert _compiled(d, list_encode(range(1, 12)), memo=False)[0] == 11
    assert len(calls) <= 100


class _Raised(Exception):
    """An oracle's own failure."""


class _Watch:
    """An empty oracle that notes, each time it is read, how many entries
    the tables of the plan of d in the mode hold, and raises if told to."""

    def __init__(self, d, memo, raises):
        self.d, self.memo, self.raises = d, memo, raises
        self.held = []

    def __contains__(self, z):
        plan = evaluator._HOT[self.d][self.memo]
        self.held.append(sum(map(len, plan.tables)))
        if self.raises:
            raise _Raised
        return False


@pytest.mark.parametrize("memo", [False, True], ids=["naive", "memo"])
def test_no_state_outlives_a_run(memo):
    # L's run fills the tables before the oracle is read at the root's
    # argument; the bits budget binds on a pair L builds, past the argument
    d = P(reduce_recursive_to_pr(corpus_def("L")).result, ORACLE)
    x, y = list_encode(range(1, 5)), list_encode(range(1, 4))
    full = _on_the_loop(d, x, memo=memo)[1]
    assert full.peak_bits > x.bit_length()
    for budget, event in ((Budget(), None),
                          (Budget(full.steps - 1, 10**6), BudgetExceeded),
                          (Budget(10**6, full.peak_bits - 1), BudgetExceeded),
                          (Budget(), _Raised)):
        watch, m = _Watch(d, memo, event is _Raised), Meter()
        if event is None:
            _compiled(d, x, m, memo, oracle=watch)
            assert m == full
        else:
            with pytest.raises(event):
                _compiled(d, x, m, memo, oracle=watch, budget=budget)
        if event is _Raised:  # an outside exception leaves the meter
            assert m == Meter()
        if event is not BudgetExceeded:
            assert watch.held[0] > 0
        plan = evaluator._HOT[d][memo]
        assert plan.tables[0] is plan.ns["pairs"]
        assert not any(plan.tables) and plan.ns["oracle"] is None
        assert _compiled(d, y, memo=memo) == _on_the_loop(d, y, memo=memo)


_COLD = """
import sys
from funalg import I, MUL, P, S, comp, eval_memo, eval_naive
d = comp(S, P(I, comp(MUL, P(I, I))))
for x in range(300):  # 300 distinct roots, each run once in each mode
    d = comp(S, d)
    eval_memo(d, x)
    eval_naive(d, x)
print("funalg.specialize" in sys.modules)
eval_memo(d, 0)  # the last root's second memoized run
print("funalg.specialize" in sys.modules)
"""


def test_a_process_with_only_cold_roots_never_imports_the_compiler():
    # the evaluator imports funalg.specialize at the first compile; the
    # root run twice at the end shows the probe sees that import
    src = str(Path(funalg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _COLD], env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True, timeout=60).stdout
    assert out == "False\nTrue\n"


def test_a_busy_plan_leaves_the_run_to_the_loop():
    d = reduce_recursive_to_pr(corpus_def("addp")).result
    want = _compiled(d, pair(9, 4))
    plan = evaluator._HOT[d][True]
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
    assert m == want[1] and evaluator._HOT[d][True] == ()


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
    assert evaluator._HOT[d][True].generator
    assert kind == "shared" or want[1].max_depth > sys.getrecursionlimit()


def test_a_plan_dies_with_its_root():
    d = comp(mu(comp(S, MUL)), P(S, comp(S, P(I, I))))
    _compiled(d, 40)
    plan = weakref.ref(evaluator._HOT[d][True])
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
    # 330 KB and peak at about 0.72 MB
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


# --- lazy pairs and reuse -------------------------------------------------


def _sources(d, memo=True):
    """The generated source of each function of d's plan for the mode."""
    sources = []

    def keep(src, name, mode):
        sources.append(src)
        return compile(src, name, mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specialize, "compile", keep, raising=False)
        assert specialize.make_plan(d, memo) is not None
    return sources


@lru_cache(maxsize=None)
def _corpus_roots():
    """(name, root) for every corpus plan: the compiled explicit
    definitions with a compound root and every PR and SNR reduction."""
    defs = corpus_defs()
    env, roots = {}, []
    for cd in defs:
        if cd.kind == "explicit":
            env[cd.name] = d = compile_explicit(cd, env)
            roots.append((cd.name, d))
    for cd in defs:
        if cd.kind == "explicit":
            continue
        roots.append((f"pr:{cd.name}",
                      reduce_recursive_to_pr(cd, env).result))
        try:
            roots.append((f"snr:{cd.name}", reduce_bounded_nested_to_snr(
                cd, PolyBound("var"), env)))
        except (BoundViolation, ReductionError):
            pass  # cat passes the bound n; prdemo calls a def
    return tuple((name, d) for name, d in roots if d.children)


def _outcome(run, d, x, memo, budget, meter0):
    """run's value, or its BudgetExceeded kind, and the meter it leaves."""
    m = Meter(**vars(meter0))
    try:
        got = run(d, x, meter=m, memo=memo, budget=budget)[0]
    except BudgetExceeded as e:
        assert e.meter is m
        got = e.kind
    return got, m


def _same_outcome(d, x, memo, budget, meter0=None):
    """The loop's outcome, which a compiled run gives too; where the loop
    returns, the plan itself does, with no budget event."""
    meter0 = meter0 or Meter()
    want = _outcome(_on_the_loop, d, x, memo, budget, meter0)
    assert _outcome(_compiled, d, x, memo, budget, meter0) == want
    if want[0].__class__ is int:
        m = Meter(**vars(meter0))
        val = evaluator._HOT[d][memo].run(
            x, frozenset(), budget.max_steps, budget.max_bits, m)
        assert (val, m) == want
    return want


# Roots whose widest value is a pair that no generated code reads (D and
# LT read its parts), each with that pair's value at x.
_TAGS = {
    "HD": (HD, lambda x: pair(0, x)),
    "TL": (TL, lambda x: pair(1, x)),
    "dd": (dd(I, S, comp(S, S)), lambda x: pair(x, pair(x + 1, x + 2))),
    "lt_d": (lt_d(I, S), lambda x: pair(x, x + 1)),
}


@pytest.mark.parametrize("name", sorted(_TAGS))
def test_a_dead_pair_is_width_checked_by_its_sum(name):
    d, widest = _TAGS[name]
    for memo in (False, True):
        assert any("pairwide(" in src for src in _sources(d, memo))
    for x in (0, 5, 1000, 2**64 + 3, 2**130):
        w = widest(x).bit_length()
        loop = _on_the_loop(d, x, memo=False)[1]
        assert loop.peak_bits == w
        for bits in (w - 1, w, w + 1):
            for meter0 in (Meter(), Meter(4, max(w - 3, 0), 1, 3),
                           Meter(4, w + 3, 1, 3)):
                for memo in (False, True):
                    _same_outcome(d, x, memo, Budget(10**6, bits), meter0)


def test_pr_nested_at_its_widest_gives_the_loop_outcome():
    # PR nested at 8 peaks at 18,692 bits
    d = reduce_recursive_to_pr(corpus_def("nested")).result
    w = _on_the_loop(d, 8)[1].peak_bits
    assert w == 18_692
    for bits in (w - 1, w, w + 1):
        for meter0 in (Meter(), Meter(4, w - 3, 1, 3), Meter(4, w + 3, 1, 3)):
            _same_outcome(d, 8, True, Budget(2**22, bits), meter0)


@given(st.sampled_from(sorted(_TAGS)),
       st.one_of(st.integers(0, 300), st.integers(0, 2**200)),
       st.integers(-2, 2), st.integers(-3, 3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_dead_pairs_near_the_width_limit(name, x, dbits, dpeak, memo):
    d, widest = _TAGS[name]
    w = widest(x).bit_length()
    _same_outcome(d, x, memo, Budget(10**6, max(w + dbits, 0)),
                  Meter(peak_bits=max(w + dpeak, 0)))


@pytest.mark.parametrize("shared", [HD, Z_], ids=["small_comp", "mu"])
def test_a_repeated_call_on_one_path_is_a_memo_hit(shared):
    # the second call of `shared` at the root's argument reuses the first
    # one's value and counts a hit, as on the loop
    d = comp(ADD, P(shared, shared))
    for x in (0, 7, pair(3, 4)):
        want = _same_outcome(d, x, True, Budget())
        assert want[1].memo_hits == 1
    lookups = re.findall(r"(T\d+)\.get\(a\)", "".join(_sources(d)))
    assert lookups and len(lookups) == len(set(lookups))


def test_a_small_shared_node_is_a_function_only_in_a_memoized_plan():
    # HD is a comp node of 8 nodes that the root calls twice: a memoized
    # plan makes it a function with a table, a naive one writes its body
    # into the root
    d = comp(ADD, P(HD, HD))
    order = []
    fold(d, lambda n: n.children, lambda n, _: order.append(n))
    fn = f"def f{order.index(HD)}("
    assert any(src.startswith(fn) for src in _sources(d, True))
    assert not any(src.startswith(fn) for src in _sources(d, False))


def test_memoized_corpus_plans_stay_small():
    # each shared node is one function, so its memo lookup and store are
    # written once, not at each call site: 263,566 bytes in all (646,100
    # when small shared nodes were written out at each call site)
    plans = [specialize.make_plan(d, True) for _, d in _corpus_roots()]
    assert len(plans) == 31
    assert sum(p.source_bytes for p in plans) < 350_000


@pytest.mark.parametrize("memo", [False, True], ids=["naive", "memo"])
def test_every_corpus_plan_runs_at_zero_and_at_a_pair(memo):
    # at 0 every `if x:` suite is skipped, so a name that one of them
    # defined and a later line read would be unbound
    for name, d in _corpus_roots():
        for x in (0, pair(1, 2)):
            _same_outcome(d, x, memo, Budget(100_000, 10**6))


_BUILD = re.compile(r"\s*(v\d+) = \(\(s := ")


def _pair_reads(src, z):
    """The lines of src that read z other than to build, store or width
    check it."""
    own = (f"{z} = ((s := ", f"pairs[{z}] = ", f"if {z} >= lim:",
           f"widen({z})")
    return [ln for ln in src.splitlines()
            if re.search(rf"\b{z}\b", ln) and not ln.strip().startswith(own)]


def test_every_built_pair_is_read_and_every_read_name_is_bound():
    for name, d in _corpus_roots():
        for memo in (False, True):
            for src in _sources(d, memo):
                for z in _BUILD.findall(src):
                    assert _pair_reads(src, z), (name, memo, z)
                names = [n for n in ast.walk(ast.parse(src))
                         if isinstance(n, ast.Name)]
                bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
                read = {n.id for n in names if isinstance(n.ctx, ast.Load)
                        and re.fullmatch(r"v\d+", n.id)}
                assert read <= bound, (name, memo, read - bound)
