"""Metered big-step evaluation of derivations."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracle_evaluator
from funalg import evaluator
from funalg.clausal import parse_cl
from funalg.codec import FinSet, list_encode, pair
from funalg.compiler import HD, ONE, TL
from funalg.corpus import CORPUS_TEXT
from funalg.derivation import (ADD, ARITY, CLASSES, D, Derivation, E, I, LT,
                               Op, P, PolyBound, S, SMASH, bpr, comp, d_parse,
                               d_print, mu, pr, snr)
from funalg.evaluator import (Budget, BudgetExceeded, Meter, eval_memo,
                              eval_naive, evaluate, meter_line)
from funalg.harness import exhaustive_search_predicate
from funalg.reduction import (reduce_bounded_nested_to_snr,
                              reduce_recursive_to_pr)


def test_successor_chain_meter():
    m = Meter()
    assert eval_naive(d_parse("(comp S S)"), 5, meter=m) == 7
    assert m.steps == 3
    assert meter_line(7, m).startswith("7\t3\t")
    assert len(meter_line(7, m).split("\t")) == 5


def test_basic_leaves():
    assert eval_naive(S, 4) == 5
    assert eval_naive(I, 9) == 9
    assert eval_naive(d_parse("add"), pair(3, 4)) == 7
    assert eval_naive(d_parse("add"), 0) == 0
    assert eval_naive(d_parse("mul"), pair(3, 4)) == 12
    assert eval_naive(d_parse("lt"), pair(3, 4)) == 1
    assert eval_naive(d_parse("lt"), pair(4, 3)) == 0
    assert eval_naive(E, 3) == 8
    assert eval_naive(SMASH, 3) == 16  # 2^(bitlen(3)^2) = 2^4


def test_case_analysis_d():
    for v in range(4):
        assert eval_naive(D, pair(v, pair(8, 9))) == (8 if v == 0 else 9)
    assert eval_naive(D, 0) == 0
    assert eval_naive(D, pair(1, 0)) == 0


def test_oracle_leaf():
    X = FinSet((1, 3))
    d = d_parse("X")
    assert eval_naive(d, 3, oracle=X) == 1
    assert eval_naive(d, 2, oracle=X) == 0
    assert eval_naive(d, 2) == 0  # default empty oracle


def test_pairing_node():
    assert eval_naive(P(S, I), 4) == pair(5, 4)


def test_mu_is_least_witness():
    X = FinSet((2, 5))
    # least z < 10 with z in X; the search argument is pair(z, p)
    d = mu(comp(d_parse("X"), _head_of_pair()))
    assert eval_naive(d, pair(10, 0), oracle=X) == 2
    assert eval_naive(d, pair(2, 0), oracle=X) == 2  # miss returns the bound
    assert eval_naive(d, 0, oracle=X) == 0


def _head_of_pair():
    from funalg.compiler import HD
    return HD


def test_mu_zero_and_miss():
    never = comp(d_parse("lt"), P(S, I))  # z+1 < z is false: head vs whole
    assert eval_naive(mu(never), 0) == 0


def test_pr_matches_reference():
    # f(0, p) = p; f(w+1, p) = f(w, p) + something from the tuple
    from funalg.compiler import HD, TL
    h = comp(S, comp(HD, TL))  # S(f(w,p))
    f = pr(I, h)
    for v in range(6):
        for p in range(6):
            assert eval_naive(f, pair(v, p)) == p + v
    assert eval_naive(f, 0) == 0


def test_bpr_clamps():
    from funalg.compiler import HD, ONE, TL
    fw = comp(HD, TL)
    dbl = bpr(ONE, comp(d_parse("add"), P(fw, fw)))
    # with parameter p: 2^v clamped to 0 once above p
    assert eval_naive(dbl, pair(3, 100)) == 8
    assert eval_naive(dbl, pair(4, 10)) == 0
    # once clamped, doubling zero stays zero
    assert eval_naive(dbl, pair(6, 10)) == 0


def test_snr_walks_down():
    from funalg.compiler import HD, PRED, Z_, dd
    from funalg.derivation import snr
    g = dd(HD, P(comp(S, Z_), Z_), P(Z_, comp(PRED, HD)))
    f = snr(g, Z_)
    for v in range(8):
        assert eval_naive(f, pair(v, v)) == 0
    assert eval_naive(f, 0) == 0


def test_snr_final_answer_requires_bound():
    from funalg.compiler import ONE, Z_
    # g always yields tag 1 with z = 5: answer 5 only when 5 <= p
    g = P(ONE, comp(S, comp(S, comp(S, comp(S, comp(S, Z_))))))
    f = snr(g, Z_)
    assert eval_naive(f, pair(3, 9)) == 5
    assert eval_naive(f, pair(3, 2)) == 0


def test_naive_memo_agree():
    import random
    from funalg.derivation import ARITY
    rng = random.Random(7)
    from funalg.derivation import CLASSES
    cls = CLASSES["TA"]
    order = [op for op in Op if op in cls.allowed]

    def rand_d(depth):
        leaves = [op for op in order if ARITY[op] == 0]
        if depth == 0:
            return Derivation(rng.choice(leaves))
        op = rng.choice(order)
        return Derivation(op, tuple(rand_d(depth - 1)
                                    for _ in range(ARITY[op])))

    budget = Budget(200_000, 10**6)
    checked = 0
    while checked < 60:
        d = rand_d(rng.randint(0, 3))
        x = rng.randint(0, 200)
        try:
            a = eval_naive(d, x, budget=budget)
        except BudgetExceeded:
            continue
        assert eval_memo(d, x, budget=budget) == a
        checked += 1


def test_step_budget_raises():
    heavy = mu(comp(d_parse("lt"), P(S, _head_of_pair())))
    with pytest.raises(BudgetExceeded) as e:
        eval_naive(mu(_never()), pair(10**6, 0), budget=Budget(1000, 10**6))
    assert e.value.kind == "steps"


def _never():
    from funalg.compiler import HD
    return comp(d_parse("lt"), P(S, HD))  # z+1 < z: never true


def test_bits_budget_raises():
    with pytest.raises(BudgetExceeded) as e:
        eval_naive(comp(E, E), 30, budget=Budget(10**6, 5000))
    assert e.value.kind == "bits"


def test_meter_tracks_depth_and_bits():
    m = Meter()
    eval_naive(comp(S, comp(S, comp(S, S))), 0, meter=m)
    assert m.max_depth >= 4
    m2 = Meter()
    eval_naive(E, 100, meter=m2)
    assert m2.peak_bits == 101


def test_memo_hits_counted():
    from funalg.compiler import HD
    shared = comp(S, comp(S, S))
    d = comp(d_parse("add"), P(shared, shared))
    m = Meter()
    eval_memo(d, 5, meter=m)
    assert m.memo_hits >= 1
    m2 = Meter()
    eval_naive(d, 5, meter=m2)
    assert m2.memo_hits == 0
    assert m2.steps > m.steps


def test_expansion_log_records_recursions():
    from funalg.compiler import HD, TL
    f = pr(I, comp(S, comp(HD, TL)))
    log = []
    evaluate(f, pair(4, 1), expansion_log=log)
    args = [a for node, a in log if node.op is Op.PR]
    assert args == [pair(w, 1) for w in range(4)]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_determinism(x):
    d = comp(S, P(I, S))
    assert eval_naive(d, x) == eval_naive(d, x)


# --- argument and width checks ------------------------------------------


@pytest.mark.parametrize("d", [S, E, comp(S, S), mu(I), pr(I, I), snr(I, I)])
@pytest.mark.parametrize("ev", [eval_naive, eval_memo])
def test_negative_argument_rejected(d, ev):
    m = Meter()
    with pytest.raises(ValueError):
        ev(d, -5, meter=m)
    assert m == Meter()


def test_non_derivation_or_non_int_rejected():
    with pytest.raises(TypeError):
        eval_memo(lambda: S, 3)
    with pytest.raises(TypeError):
        eval_naive(S, 2.5)


def test_exponential_tower_exceeds_bits_not_memory():
    d = comp(E, comp(E, comp(E, comp(E, comp(E, S)))))
    m = Meter()
    with pytest.raises(BudgetExceeded) as e:
        eval_naive(d, 3, meter=m)  # E(2^65536) would be 2^65536 + 1 wide
    assert e.value.kind == "bits" and e.value.meter is m
    assert m.peak_bits == 2**65536 + 1


@pytest.mark.parametrize("d, x, width", [
    (E, 10**9, 10**9 + 1),
    (SMASH, 2**2000, 2001**2 + 1),
    (comp(S, E), 10**9, 10**9 + 1),
], ids=["E", "smash", "inner E"])
def test_wide_result_raises_before_computing(d, x, width):
    m = Meter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as e:
            eval_naive(d, x, meter=m)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.kind == "bits" and m.peak_bits == width
    assert allocated < 10**6  # 1 << x is never built


def test_op_codes_group_compound_operators():
    # the evaluator tells compound nodes, the nodes whose argument it reads
    # as <v, p>, and recursion nodes each by one compare of their code
    assert sorted(op.code for op in Op) == list(range(len(Op)))
    for op in Op:
        assert (op.code >= evaluator._P) == (ARITY[op] > 0)
        assert (op.code >= evaluator._MU) == (
            op in (Op.MU, Op.PR, Op.BPR, Op.SNR))
        assert (op.code >= evaluator._PR) == (op in (Op.PR, Op.BPR, Op.SNR))


# --- differential test against the generator evaluator ------------------


def _outcome(ev, d, x, oracle, budget, memo, meter0, logged):
    """Value or budget kind, the meter at return or raise, and the log."""
    meter = dataclasses.replace(meter0)
    log = [] if logged else None
    try:
        out = ev(d, x, oracle=oracle, budget=budget, meter=meter, memo=memo,
                 expansion_log=log)
    except BudgetExceeded as e:
        assert e.meter is meter
        out = ("BudgetExceeded", e.kind)
    return out, meter, log and [(id(n), a) for n, a in log]


def _assert_same(d, x, oracle=None, budget=None, memo=False, meter0=Meter(),
                 logged=True):
    args = (d, x, oracle, budget, memo, meter0, logged)
    assert _outcome(evaluate, *args) == _outcome(oracle_evaluator.evaluate,
                                                 *args)


@st.composite
def _dags(draw, allowed):
    """A random derivation over the operators, its nodes shared at random.

    A child is often the newest node and both children of a binary node
    are often one node, so memoized runs see memo hits.
    """
    ops = sorted(allowed, key=lambda op: op.code)
    pool = draw(st.permutations([Derivation(op) for op in ops
                                 if ARITY[op] == 0]))
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from([op for op in ops if ARITY[op]]))
        index = st.just(len(pool) - 1) | st.integers(0, len(pool) - 1)
        kids = [pool[draw(index)] for _ in range(ARITY[op])]
        if len(kids) == 2 and draw(st.booleans()):
            kids[1] = kids[0]
        pool.append(Derivation(op, tuple(kids)))
    return pool[-1]


_ARGS = st.one_of(st.integers(0, 64),
                  st.builds(pair, st.integers(0, 12), st.integers(0, 300)),
                  st.integers(0, 2**80))
# 600 to 5,000 bits, alone, in either side of a pair and inside D's pair
_WIDE = st.integers(2**599, 2**5000)
_WIDE_ARGS = st.one_of(
    _WIDE, st.builds(pair, st.integers(0, 12), _WIDE),
    st.builds(pair, _WIDE, st.integers(0, 300)),
    st.builds(pair, st.integers(0, 2), st.builds(pair, _WIDE, _WIDE)))
_ORACLES = st.none() | st.lists(st.integers(0, 40)).map(
    lambda xs: FinSet.of(*xs))
_METERS = st.builds(Meter, st.integers(0, 20), st.integers(0, 24),
                    st.integers(0, 3), st.integers(0, 4))


@pytest.mark.parametrize("allowed", [c.allowed for c in CLASSES.values()]
                         + [frozenset(Op)],
                         ids=[*CLASSES, "all"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_matches_generator_evaluator(allowed, data):
    d = data.draw(_dags(allowed))
    # the oracle builds 1 << x before checking its width: keep x small
    bits = st.integers(1, 20 if Op.E in allowed else 200)
    _assert_same(d, data.draw(_ARGS), data.draw(_ORACLES),
                 Budget(data.draw(st.integers(1, 1500)), data.draw(bits)),
                 data.draw(st.booleans()), data.draw(_METERS),
                 data.draw(st.booleans()))


@pytest.mark.parametrize("allowed", [CLASSES[c].allowed
                                     for c in ("DA", "SA", "TA", "PRA")]
                         + [frozenset(Op) - {Op.E, Op.SMASH}],
                         ids=["DA", "SA", "TA", "PRA", "all but E, smash"])
@pytest.mark.parametrize("memo", [False, True], ids=["naive", "memo"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_matches_generator_evaluator_on_wide_arguments(allowed, memo, data):
    # the oracle computes E and smash before checking their width
    d = data.draw(_dags(allowed))
    _assert_same(d, data.draw(_WIDE_ARGS), data.draw(_ORACLES),
                 Budget(data.draw(st.integers(1, 1500)),
                        data.draw(st.integers(600, 12_000))),
                 memo, data.draw(_METERS), data.draw(st.booleans()))


@given(_dags(frozenset(Op)))
@settings(max_examples=200, deadline=None)
def test_print_parse_returns_the_interned_node(d):
    assert d_parse(d_print(d)) is d


@pytest.mark.parametrize("d, x, bits", [
    (S, 31, 5), (E, 4, 4), (SMASH, 3, 4), (comp(S, I), 31, 5),
    (comp(E, I), 4, 4), (P(I, I), 7, 5), (mu(I), pair(3, 9), 6),
], ids=["S", "E", "smash", "inner S", "inner E", "P", "mu"])
def test_matches_generator_evaluator_at_width_limit(d, x, bits):
    # a value one bit wider than the budget, at the root and below it
    for memo in (False, True):
        _assert_same(d, x, budget=Budget(100, bits), memo=memo)


def test_matches_generator_evaluator_on_reductions():
    defs = {c.name: c for c in parse_cl(CORPUS_TEXT)}
    snr_l = reduce_bounded_nested_to_snr(defs["L"], PolyBound("var"))
    pr_l = reduce_recursive_to_pr(defs["L"]).result
    for x in (0, 5, 17, 40):
        _assert_same(snr_l, x, memo=True)
    for x in (0, 1):  # naive SNR evaluation is exponential in x
        _assert_same(snr_l, x)
    for logged in (True, False):  # unlogged naive runs replay calls
        _assert_same(snr_l, 5, budget=Budget(100_000, 10**6), logged=logged)
        for memo in (False, True):
            _assert_same(pr_l, list_encode([1]), memo=memo, logged=logged)
            _assert_same(pr_l, list_encode([2, 1]), memo=memo,
                         budget=Budget(20_000, 300), logged=logged)


def test_matches_generator_evaluator_on_wide_pr_stacks():
    # the stack codes of PR nested reach 18,692 bits at x = 8
    defs = {c.name: c for c in parse_cl(CORPUS_TEXT)}
    pr_nested = reduce_recursive_to_pr(defs["nested"]).result
    for x in range(9):
        _assert_same(pr_nested, x, budget=Budget(2**22, 2**15), memo=True)


# --- naive replay of recorded calls --------------------------------------

# mu scans x values at <x, x>; each tower level calls the one below twice
# at one argument, so naive runs past their first steps replay calls
_SCAN = comp(mu(comp(LT, P(S, HD))), P(I, I))


def _tower(n):
    d = _SCAN
    for _ in range(n):
        d = P(d, d)
    return d


def _deep_scan(k):
    """_SCAN below k successors, so its calls sit k frames deeper."""
    d = _SCAN
    for _ in range(k):
        d = comp(S, d)
    return d


def test_replay_matches_generator_evaluator_under_step_budgets():
    d = _tower(4)
    m = Meter()
    evaluate(d, 20, meter=m)
    assert m.steps == 3887
    for steps in [*range(1, m.steps + 2, 17), m.steps - 1, m.steps]:
        for meter0 in (Meter(), Meter(100, 3, 2, 30)):
            _assert_same(d, 20, budget=Budget(steps, 10**6), meter0=meter0,
                         logged=False)


def test_replay_matches_generator_evaluator_under_bit_budgets():
    # f(w + 1, p) = f(w, p) + f(w, p) reads f(w, p) twice at one argument
    fw = comp(HD, TL)
    dbl = pr(ONE, comp(ADD, P(fw, fw)))
    for bits in range(1, 110):
        for meter0 in (Meter(), Meter(100, 3, 2, 30)):
            _assert_same(dbl, pair(100, 0), budget=Budget(10**6, bits),
                         meter0=meter0, logged=False)


def test_replay_deeper_than_its_record_raises_max_depth():
    # the tower records _SCAN at 20 at depth 6; deep replays it at depth 8
    d = P(P(_tower(3), _SCAN), _deep_scan(6))
    scan, m = Meter(), Meter()
    evaluate(_SCAN, 20, meter=scan)
    evaluate(d, 20, meter=m)
    assert m.max_depth == 7 + scan.max_depth
    for meter0 in (Meter(), Meter(7, 1, 0, 12), Meter(7, 1, 0, 40)):
        _assert_same(d, 20, meter0=meter0, logged=False)


def test_replay_matches_generator_evaluator_armed_at_any_step(monkeypatch):
    # arming at each of the first 40 steps, which fall on leaves and on
    # compound calls alike; each run replays calls, some deeper than their
    # records; step budgets cut the 461-step run, after replays start, at
    # a step that moves with the arming step
    d = P(P(_tower(2), _SCAN), _deep_scan(6))
    for arm in range(1, 41):
        monkeypatch.setattr(evaluator, "_ARM_STEPS", arm)
        for meter0 in (Meter(), Meter(100, 3, 2, 10)):
            for steps in (*range(arm + 300, 461, 11), 461):
                _assert_same(d, 6, meter0=meter0, logged=False,
                             budget=Budget(meter0.steps + steps, 10**6))


@pytest.mark.parametrize("records", [1, 3, 50])
def test_replay_matches_generator_evaluator_when_records_are_dropped(
        records, monkeypatch):
    monkeypatch.setattr(evaluator, "_RECORDS", records)
    for x in (5, 20):
        _assert_same(_tower(4), x, logged=False)
        _assert_same(_tower(4), x, budget=Budget(1000, 10**6), logged=False)


def test_replay_matches_generator_evaluator_past_the_record_cap():
    # 344,081 steps; its distinct calls outnumber evaluator._RECORDS
    es = exhaustive_search_predicate()
    _assert_same(es, 14, meter0=Meter(5, 2, 1, 3), logged=False)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_long_naive_runs_match_generator_evaluator(data):
    # unlogged naive runs with budgets past the first steps, so they replay
    d = data.draw(_dags(frozenset(Op) - {Op.E, Op.SMASH}))
    _assert_same(d, data.draw(_ARGS), data.draw(_ORACLES),
                 Budget(data.draw(st.integers(300, 20_000)),
                        data.draw(st.integers(1, 200))),
                 False, data.draw(_METERS), False)


@pytest.mark.parametrize("d, x", [
    (exhaustive_search_predicate(), 40),  # narrow calls, all distinct
    (bpr(I, comp(I, I)), pair(10**4, 2**1024)),  # 4,098 bits wide
], ids=["many calls", "wide calls"])
def test_naive_records_stay_bounded(d, x, monkeypatch):
    # caps lowered so the runs stay short under tracemalloc; they allocate
    # 137 KB and 42 KB, and with the cap that binds lifted 395 KB and 630 KB
    monkeypatch.setattr(evaluator, "_RECORDS", 1024)
    monkeypatch.setattr(evaluator, "_RECORD_BITS", 1 << 18)
    m = Meter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as e:
            eval_naive(d, x, budget=Budget(20_000, 10**6), meter=m)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.kind == "steps" and m.steps == 20_001
    assert allocated < 2**18
