"""Reductions of recursive clausal definitions to PR and SNR."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from funalg.clausal import (check_recursive_restrictions, eval_clausal,
                            parse_cl, print_cl)
from funalg.codec import list_encode, pair, unpair
from funalg.compiler import HD, TL, compile_explicit
from funalg.corpus import corpus_def, corpus_defs
from funalg.derivation import (CLASSES, PolyBound, TA, comp, d_print,
                               validate)
from funalg.evaluator import (Budget, BudgetExceeded, Meter, eval_memo,
                              eval_naive)
from funalg.reduction import (BoundViolation, ReductionError, _build_app1,
                              _snr_state, _stepper, build_dispatcher,
                              pair_depth_d,
                              reduce_bounded_nested_to_snr,
                              reduce_recursive_to_pr, sub_d)

BIG = Budget(10**9, 10**6)
X_BOUND = PolyBound("var")


def test_dispatcher_shape_for_list_length():
    h, J = build_dispatcher(corpus_def("L"))
    assert J == 1
    # zero clause, base clause, one push clause, one resume clause
    assert len(h.clauses) == 4
    # dispatcher results are tagged pairs
    text = print_cl(h)
    assert "(0, " in text and "(S(0), " in text


def test_dispatcher_runs_as_clausal_program():
    h, J = build_dispatcher(corpus_def("L"))
    # base case: x = 0 yields final tag with value 0
    assert eval_clausal([h], h.name, pair(0, 0)) == pair(1, 0)
    # a cons cell with no computed values requests the tail
    x = list_encode([7, 8])
    tailx = list_encode([8])
    assert eval_clausal([h], h.name, pair(x, 0)) == pair(0, tailx)
    # with the tail's value supplied, the final answer is its successor
    assert eval_clausal([h], h.name,
                        pair(x, pair(1, 0))) == pair(1, 2)


def _corpus_env():
    env = {}
    for d in corpus_defs():
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
    return env


def test_pr_reduction_in_pra_class():
    # one self-call per clause: the chain walk, with no stack stepper
    env = _corpus_env()
    for d in corpus_defs():
        if d.kind == "recursive" and d.name != "nested":
            art = reduce_recursive_to_pr(d, env)
            assert validate(art.result, CLASSES["PRA"]), d.name
            assert art.J == 1 and art.f1_def is None, d.name
            assert art.mu_desc.startswith("depth n = "), d.name


def test_pr_reduction_list_length():
    art = reduce_recursive_to_pr(corpus_def("L"), {})
    defs = corpus_defs()
    for lst in ([], [0], [5], [1, 2], [5, 5], [0, 1, 2], [5, 5, 5]):
        x = list_encode(lst)
        assert eval_memo(art.result, x, budget=BIG) == len(lst)
        assert eval_clausal(defs, "L", x) == len(lst)


def test_pr_reduction_nested():
    art = reduce_recursive_to_pr(corpus_def("nested"), {})
    assert art.J == 2
    for x in range(7):
        assert eval_memo(art.result, x, budget=BIG) == 0


def test_pr_reduction_with_parameters():
    art = reduce_recursive_to_pr(corpus_def("addp"), {})
    for v in range(5):
        for p in range(5):
            assert eval_memo(art.result, pair(v, p), budget=BIG) == v + p


def test_pr_reduction_rejects_explicit():
    with pytest.raises(ReductionError):
        reduce_recursive_to_pr(corpus_def("double"), {})


def test_snr_reduction_in_ta_class():
    d = reduce_bounded_nested_to_snr(corpus_def("L"), X_BOUND)
    assert validate(d, TA)


def test_snr_reduction_values():
    defs = corpus_defs()
    d = reduce_bounded_nested_to_snr(corpus_def("L"), X_BOUND)
    for x in range(40):
        assert eval_memo(d, x, budget=BIG) == eval_clausal(defs, "L", x)


def test_snr_reduction_nested():
    d = reduce_bounded_nested_to_snr(corpus_def("nested"), X_BOUND)
    for x in range(20):
        assert eval_memo(d, x, budget=BIG) == 0


def test_snr_reduction_rejects_violated_bound():
    # sumlist exceeds the bound x on some list codes... use a constant
    # bound that the length function already violates
    small = PolyBound("const", 0)
    with pytest.raises(BoundViolation):
        reduce_bounded_nested_to_snr(corpus_def("L"), small)


def test_snr_reduction_names_a_helper_it_cannot_interpret():
    with pytest.raises(ReductionError, match=(
            "cannot check the bound of prdemo: undefined function 'id'")):
        reduce_bounded_nested_to_snr(corpus_def("prdemo"), X_BOUND)


def test_memoized_snr_keeps_expansions_linear():
    from funalg.derivation import Op
    from funalg.evaluator import evaluate
    from funalg.codec import head
    d = reduce_bounded_nested_to_snr(corpus_def("L"), X_BOUND)
    log = []
    evaluate(d, 33, budget=BIG, memo=True, expansion_log=log)
    per_node = {}
    for node, arg in log:
        if node.op is Op.SNR:
            per_node.setdefault(id(node), set()).add(head(arg))
    for heads in per_node.values():
        assert len(heads) <= max(heads) + 1


# --- pair descent: recursion depth bounds the PR iteration count -----------

_HAND = parse_cl("""
def sp {
  sp(0) = 0;
  w = 0 -> sp(S(w)) = 0;
  w = (a, b) -> sp(S(w)) = sp(b);
}
def ps {
  ps(0) = 0;
  a = 0 -> ps((a, b)) = b;
  a = S(u) -> ps((a, b)) = S(ps(u));
}
def sd { sd(0) = 0; sd(S(w)) = S(sd(w)); }
def mixed {
  mixed(0) = 0;
  v = 0 -> mixed((v, w)) = mixed(w);
  v = S(u) -> mixed((v, w)) = mixed((u, w));
}
def leaves { leaves(0) = S(0); leaves((a, b)) = leaves(a) + leaves(b); }
""")


@pytest.mark.parametrize("name,want", [
    ("L", True), ("last", True), ("sumlist", True), ("cat", False),
    ("nested", False), ("addp", False), ("prdemo", False),
    # a successor split then a pair split, and the other way round
    ("sp", True), ("ps", True),
    # successor splits only; a built pair in one clause
    ("sd", False), ("mixed", False),
    ("leaves", True)])
def test_pair_descent_detection(name, want):
    d = next((d for d in corpus_defs() + _HAND if d.name == name))
    assert check_recursive_restrictions(d).pair_descent is want


# a successor split makes the descent chain up to x calls deep; the walk
# follows it with no stack, so x runs well past the stack machine's 12
@pytest.mark.parametrize("name,xs", [("sp", 150), ("ps", 150), ("sd", 40)])
def test_hand_defs_iterate_by_their_descent(name, xs):
    d = next(d for d in _HAND if d.name == name)
    art = reduce_recursive_to_pr(d, {})
    assert art.mu_desc.startswith("depth n = ")
    for x in range(xs):
        assert (eval_memo(art.result, x, budget=BIG)
                == eval_clausal([d], name, x)), x


def test_successor_descent_cost_guard():
    # the stack machine ran out of 10^6 bits at 14: its stack doubled in
    # width per frame.  A sub_d scan in each fold step took 3,298,311
    # steps here; the depth scan re-running walk still costs O(n^2).
    d = next(d for d in _HAND if d.name == "sd")
    art = reduce_recursive_to_pr(d, {})
    m = Meter()
    assert eval_memo(art.result, 400, budget=BIG, meter=m) == 400
    assert m.steps <= 220_000 and m.peak_bits <= 160


def test_chain_walk_with_parameter_cost_guard():
    # a sub_d scan in each fold step took 3,326,277 steps here
    art = reduce_recursive_to_pr(corpus_def("addp"), {})
    m = Meter()
    assert eval_memo(art.result, pair(400, 0), budget=BIG, meter=m) == 400
    assert m.steps <= 240_000 and m.peak_bits <= 491


def test_modified_subtraction_is_exact():
    d = sub_d(HD, TL)
    for a in range(200):
        for b in range(200):
            assert eval_naive(d, pair(a, b)) == max(a - b, 0), (a, b)


@given(st.integers(0, 10**40 - 1), st.integers(0, 10**40 - 1))
def test_modified_subtraction_is_exact_on_large_numbers(a, b):
    d = sub_d(HD, TL)
    assert eval_naive(d, pair(a, b)) == max(a - b, 0)
    assert eval_naive(d, pair(b, a)) == max(b - a, 0)


def _k(x):
    """The least k with x < 2^(2^k)."""
    k = 0
    while x >= 1 << (1 << k):
        k += 1
    return k


def test_pair_depth_derivation_values():
    d = pair_depth_d()
    xs = [*range(2000)]
    for k in range(1, 7):
        t = 1 << (1 << k)
        xs += [t - 1, t, t + 1]
    for x in xs:
        assert eval_memo(d, x) == _k(x) + 3, x


def test_pair_depth_bounds_the_worst_recursion_depth():
    # W[z]: the most calls a pair-descent recursion from z can nest, the
    # call at z included.  A self-call argument is a pair component of
    # some v with 0 < v <= z, so W[z] = 1 + the largest W of a component of
    # any such v.
    n = 200_000
    W = [1] * n
    best = 1
    for z in range(1, n):
        a, b = unpair(z)
        best = max(best, W[a], W[b])
        W[z] = 1 + best
    assert all(_k(z) + 3 >= W[z] for z in range(n))
    assert W[11] == _k(11) + 3  # L at [0, 0, 0, 0]: the bound is reached


@pytest.mark.parametrize("name", ["L", "last", "sumlist"])
def test_pair_descent_reductions_match_clausal(name):
    art = reduce_recursive_to_pr(corpus_def(name), {})
    assert art.mu_desc.startswith("depth n = ")
    assert validate(art.result, CLASSES["PRA"])
    defs = corpus_defs()
    for x in range(3000):
        assert eval_memo(art.result, x) == eval_clausal(defs, name, x), x


_PAIR_DESCENT = {n: reduce_recursive_to_pr(corpus_def(n), {}).result
                 for n in ("L", "last", "sumlist")}


@given(st.lists(st.integers(0, 9), max_size=6),
       st.sampled_from(sorted(_PAIR_DESCENT)))
@settings(max_examples=25, deadline=None)
def test_pair_descent_reductions_on_list_codes(xs, name):
    x = list_encode(xs)
    assert (eval_memo(_PAIR_DESCENT[name], x, budget=BIG)
            == eval_clausal(corpus_defs(), name, x))


def test_pair_descent_with_two_calls_per_clause():
    d = next(d for d in _HAND if d.name == "leaves")
    art = reduce_recursive_to_pr(d, {})
    assert art.J == 2 and art.mu_desc.startswith(
        "2^n moves, n = the least k < D(x)+2 ")
    assert validate(art.result, CLASSES["PRA"])
    for x in [*range(150), 1000, 4000, pair(pair(9, 9), pair(2, 7))]:
        assert (eval_memo(art.result, x, budget=BIG)
                == eval_clausal([d], d.name, x)), x


# sha256 of d_print of the PR reductions, recorded when PRED and sub_d
# became closed forms read off the pairing: nested's dispatcher splits a
# successor by PRED, and the chain walks of cat, addp and prdemo fold
# back by sub_d.  nested's was recorded again when its stack machine
# took a hand-built stepper and a scan for the first terminal stack.  All
# four were recorded again when compile_explicit began to emit one
# D-dispatch per split of the refinement tree: each reduction holds its
# compiled dispatcher h, and prdemo the compiled id it calls as well.
_RESULT_DIGESTS = {
    "cat":
        "065bb30e8ac8998c2a250f562c7fd5a34d4406a3aed33e4b3621f238ab163317",
    "nested":
        "d3ff8734dd9632c3895f02ab8914c21267798ede3b6bc907a7a0e1a0bf87cc77",
    "addp":
        "90faded2354bfddb6055135f68d527e23018e8832ea5dcd7fe1f7e3f42674469",
    "prdemo":
        "b4987c5ef40f2479d8489c4ddc10d17b369467a411e0ee3a3bd2c3a961051920",
}


def test_reductions_without_pair_descent_are_unchanged():
    env, got = {}, {}
    for d in corpus_defs():
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
        elif d.name in _RESULT_DIGESTS:
            text = d_print(reduce_recursive_to_pr(d, env).result)
            got[d.name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == _RESULT_DIGESTS


def test_list_length_steps_follow_depth_not_value():
    # acceptance criterion 7's inputs; the count linear in the value took
    # 19,318,560 steps here, the stack machine run D(x) + 3 times 904,458
    art = reduce_recursive_to_pr(corpus_def("L"), {})
    total = peak = 0
    for n in range(4):
        for tup in itertools.product(range(6), repeat=n):
            m = Meter()
            assert eval_memo(art.result, list_encode(tup), budget=BIG,
                             meter=m) == n
            total += m.steps
            peak = max(peak, m.peak_bits)
    assert total < 1_500_000
    assert total <= 400_000 and peak <= 600


# one benchmark case's budget
_CASE_BUDGET = Budget(2**20, 2**15)


@pytest.mark.parametrize("x", [
    # cat on first lists of 3, 6 and 8 elements: the stack machine took
    # more than 2*10^6 steps on the first
    pair(list_encode([1, 2, 3]), list_encode([4])),
    pair(list_encode([0] * 6), 0),
    pair(list_encode([0] * 8), list_encode([1]))],
    ids=["cat3", "cat6", "cat8"])
def test_cat_reduction_on_long_first_lists(x):
    art = reduce_recursive_to_pr(corpus_def("cat"), {})
    assert (eval_memo(art.result, x, budget=_CASE_BUDGET)
            == eval_clausal(corpus_defs(), "cat", x))


def test_addp_reduction_on_deep_inputs():
    # the stack machine peaked at 749,914 bits at pair(12, 1)
    art = reduce_recursive_to_pr(corpus_def("addp"), {})
    for v in (12, 40):
        x = pair(v, 1)
        assert (eval_memo(art.result, x, budget=_CASE_BUDGET)
                == eval_clausal(corpus_defs(), "addp", x) == v + 1)


def test_prdemo_reduction_matches_clausal():
    env, defs = _corpus_env(), corpus_defs()
    art = reduce_recursive_to_pr(corpus_def("prdemo"), env)
    for v in range(8):
        for p in range(5):
            x = pair(v, p)
            assert (eval_memo(art.result, x, budget=_CASE_BUDGET)
                    == eval_clausal(defs, "prdemo", x)), (v, p)


def _full_pair_tree(depth: int) -> int:
    t = 0
    for _ in range(depth):
        t = pair(t, t)
    return t


def test_two_call_stack_machine_runs_out_of_bits_not_values():
    # J >= 2 keeps the stack machine, whose width about doubles per frame:
    # the documented limit is BudgetExceeded("bits"), never a wrong value
    d = next(d for d in _HAND if d.name == "leaves")
    art = reduce_recursive_to_pr(d, {})
    assert art.J == 2 and art.f1_def is not None
    assert eval_memo(art.result, _full_pair_tree(5),
                     budget=_CASE_BUDGET) == 32
    with pytest.raises(BudgetExceeded) as e:
        eval_memo(art.result, _full_pair_tree(6), budget=_CASE_BUDGET)
    assert e.value.kind == "bits"


def _stepper_and_spec(d):
    """The hand-built stepper of d's PR reduction and its specification
    f1, compiled as a clausal definition."""
    art = reduce_recursive_to_pr(d, {})
    h_d = compile_explicit(art.h_def, {})
    app1_def = _build_app1(f"{d.name}_app1", art.J)
    app1_d = compile_explicit(app1_def, {})
    spec = compile_explicit(art.f1_def, {art.h_def.name: h_d,
                                         app1_def.name: app1_d})
    return _stepper(comp(h_d, HD), app1_d), spec, h_d


_STEPPERS = {name: _stepper_and_spec(
    next(d for d in corpus_defs() + _HAND if d.name == name))
    for name in ("nested", "leaves")}


@pytest.mark.parametrize("name,xs", [
    ("nested", range(9)),
    ("leaves", [_full_pair_tree(k) for k in range(5)])])
def test_stepper_matches_its_specification_on_visited_stacks(name, xs):
    d = next(d for d in corpus_defs() + _HAND if d.name == name)
    step, spec, h_d = _STEPPERS[name]
    for x in xs:
        s, moves = pair(pair(x, 0), 0), 0
        while True:
            t = eval_memo(step, s, budget=BIG)
            assert t == eval_memo(spec, s, budget=BIG), (x, s)
            if t == s:
                break
            s, moves = t, moves + 1
            assert moves <= 100, x  # 4x for nested, 2^(k+2) - 4 for leaves
        # the terminal stack holds the value
        assert (eval_memo(comp(TL, comp(h_d, HD)), s)
                == eval_clausal([d], name, x)), x


@given(st.one_of(
    st.integers(0, 10**12),
    # stacks of frames (x, c), c a list of at most J values
    st.lists(st.tuples(st.integers(0, 40),
                       st.lists(st.integers(0, 9), max_size=2)),
             max_size=4).map(lambda fs: list_encode(
                 [pair(x, list_encode(c)) for x, c in fs]))),
    st.sampled_from(["nested", "leaves"]))
@settings(max_examples=60, deadline=None)
def test_stepper_matches_its_specification_on_any_stack(s, name):
    step, spec, _ = _STEPPERS[name]
    assert eval_memo(step, s, budget=BIG) == eval_memo(spec, s, budget=BIG)


_THREE_CALLS = parse_cl("""
def m3 { m3(0) = 0; m3(S(u)) = m3(m3(m3(u))); }
def t3 { t3(0) = 0; t3((a, (b, c))) = S(t3(a) + t3(b) * t3(c)); }
""")


@pytest.mark.parametrize("name,xs", [
    ("m3", range(8)),
    ("t3", [*range(40), pair(pair(1, pair(2, 3)),
                             pair(pair(4, pair(1, 1)), 7))])])
def test_three_calls_per_clause_reduce_to_pr_exactly(name, xs):
    d = next(d for d in _THREE_CALLS if d.name == name)
    art = reduce_recursive_to_pr(d, {})
    assert art.J == 3 and validate(art.result, CLASSES["PRA"])
    for x in xs:
        want = eval_clausal([d], name, x)
        assert eval_memo(art.result, x, budget=BIG) == want, x
        assert eval_naive(art.result, x, budget=BIG) == want, x


def test_stack_machine_stops_at_its_first_terminal_stack():
    # the scan doubles the number of moves until the stack is terminal, so
    # memoized steps follow the 4x moves that do work; the fixed
    # count of 4 * 2^x moves took 4,756 steps at 4 and 18,198 at 8
    art = reduce_recursive_to_pr(corpus_def("nested"), {})
    steps = {}
    for x in (4, 8):
        m = Meter()
        assert eval_memo(art.result, x, budget=_CASE_BUDGET, meter=m) == 0
        steps[x] = m.steps
    assert steps[8] < 2 * steps[4]


def test_dispatcher_of_a_deep_result_term():
    # the dispatcher's clauses are keyed without hashing the 3,000-deep
    # S(...) of the result, which recursed
    n = 3000
    result = "S(" * n + "f(w)" + ")" * n
    d = parse_cl(f"def f {{ f(0) = 0; f(S(w)) = {result}; }}")[0]
    art = reduce_recursive_to_pr(d, {})
    for x in range(4):
        assert (eval_memo(art.result, x, budget=BIG)
                == eval_clausal([d], "f", x) == n * x)


# --- SNR reduction: a machine state read by pair projections --------------


def _state(J, xv, kf, c, p):
    """The value of _snr_state at <<xv, <kf, c>>, p>."""
    parts = (comp(HD, HD), comp(HD, comp(TL, HD)), comp(TL, comp(TL, HD)))
    return eval_memo(_snr_state(J, *parts, TL),
                     pair(pair(xv, pair(kf, list_encode(c))), p), budget=BIG)


@given(st.sampled_from([1, 2, 3]), st.integers(1, 6), st.integers(0, 40),
       st.data())
@settings(max_examples=60, deadline=None)
def test_snr_state_reads_back_and_strictly_decreases(J, R, x, data):
    xv = data.draw(st.integers(0, x))
    kf = data.draw(st.integers(0, J))
    c = data.draw(st.lists(st.integers(0, R - 1), min_size=J - kf,
                           max_size=J - kf))
    p = pair(R, x)
    v = _state(J, xv, kf, c, p)
    # HD and TL read the parts back
    reads = (comp(HD, comp(HD, TL)), comp(TL, comp(HD, TL)), comp(TL, TL))
    assert ([eval_memo(r, v, budget=BIG) for r in reads]
            == [xv, kf, list_encode(c)])
    if xv > 0:  # a push to a call on t < xv
        t = data.draw(st.integers(0, xv - 1))
        assert _state(J, t, J, [], p) < v
    if kf > 0:  # a resume with the value u < R of the pending call
        u = data.draw(st.integers(0, R - 1))
        assert _state(J, xv, kf - 1, c + [u], p) < v


def test_snr_nested_cost_guard():
    # an early decode of the state by x*(J+1) + (J - k) took 925,365
    # steps at 64 and ran out of steps from 80
    d = reduce_bounded_nested_to_snr(corpus_def("nested"), X_BOUND)
    m = Meter()
    assert eval_memo(d, 64, budget=BIG, meter=m) == 0
    assert m.steps <= 400_000 and m.peak_bits <= 836
    defs = corpus_defs()
    for x in (96, 128):
        assert (eval_memo(d, x, budget=_CASE_BUDGET)
                == eval_clausal(defs, "nested", x))


def test_snr_nested_steps_take_no_pred_scan():
    # PRED(kf) and the S(u) split's PRED scanned as long as their argument,
    # which took 219,870 steps here
    d = reduce_bounded_nested_to_snr(corpus_def("nested"), X_BOUND)
    m = Meter()
    assert eval_memo(d, 128, budget=BIG, meter=m) == 0
    assert m.steps <= 82_000


def test_snr_state_takes_no_scan_per_step():
    # the state is read by projections: no division scan of about x rounds
    # per step, which took 246,466 steps at 64
    d = reduce_bounded_nested_to_snr(corpus_def("nested"), X_BOUND)
    m = Meter()
    assert eval_memo(d, 64, budget=BIG, meter=m) == 0
    assert m.steps <= 100_000 and m.peak_bits <= 419


@pytest.mark.parametrize("x", [10**5, 2**20])
def test_snr_list_length_on_large_codes(x):
    # a scan per step up to the list code ran out of steps here
    d = reduce_bounded_nested_to_snr(corpus_def("L"), X_BOUND)
    assert (eval_memo(d, x, budget=_CASE_BUDGET)
            == eval_clausal(corpus_defs(), "L", x))


def test_snr_reduction_with_three_calls_per_clause():
    m3 = parse_cl("def m3 { m3(0) = 0; m3(S(u)) = m3(m3(m3(u))); }")[0]
    assert build_dispatcher(m3)[1] == 3
    red = reduce_bounded_nested_to_snr(m3, X_BOUND)
    assert validate(red, TA)
    for x in range(40):
        assert eval_memo(red, x, budget=BIG) == eval_clausal([m3], "m3", x)


# cp copies a pair tree; it makes two calls per clause and, unlike leaves,
# is not symmetric in their results, so it tells the pending results apart
_MIRROR = parse_cl("def cp { cp(0) = 0; cp((a, b)) = (cp(a), cp(b)); }")


@pytest.mark.parametrize("name,bound", [
    ("leaves", PolyBound("add", args=(X_BOUND, PolyBound("const", 1)))),
    ("cp", X_BOUND)])
def test_snr_reduction_with_pending_results(name, bound):
    # nested returns 0, so its pending results are all 0; these resume
    # with non-zero results, so the state holds non-zero pending results
    d = next(d for d in _HAND + _MIRROR if d.name == name)
    red = reduce_bounded_nested_to_snr(d, bound)
    assert validate(red, TA)
    for x in range(60):
        assert (eval_memo(red, x, budget=BIG)
                == eval_clausal([d], d.name, x)), x
