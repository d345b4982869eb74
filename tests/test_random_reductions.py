"""Random recursive definitions through the PR reduction, run on both tiers.

A hypothesis strategy draws strict recursive definitions: successor and
pair descent, a parameter carried as in addp, one to three self-calls
per clause, nested calls f(f(u)), guards (`<` and zero splits) and calls
to corpus helpers.  Each reduces to PR, and the reduction runs memoized,
through its compiled plan, and naive; every value is eval_clausal's.
"""

import pytest
from hypothesis import given, note, settings, strategies as st

from funalg.clausal import eval_clausal, parse_cl
from funalg.codec import pair
from funalg.compiler import compile_explicit
from funalg.corpus import CORPUS_TEXT, corpus_defs
from funalg.evaluator import Budget, BudgetExceeded, eval_memo, eval_naive
from funalg.reduction import reduce_recursive_to_pr

pytestmark = pytest.mark.usefixtures("every_root_compiled")

# On these inputs eval_clausal stays within its budget; a reduction may
# run past its own (a J >= 2 stack doubles in width per frame), and a run
# that raises BudgetExceeded on either side is not compared.
CLAUSAL_BUDGET = Budget(10**5, 2**12)
BUDGET = Budget(2**19, 2**15)
_CONST = st.sampled_from(["0", "S(0)", "(0, 0)"])
_GUARD = st.none() | st.just("zero") | st.integers(0, 3).map(
    lambda k: "S(" * k + "0" + ")" * k)
ENV: dict = {}  # the corpus's explicit definitions, which f may call
for _d in corpus_defs():
    if _d.kind == "explicit":
        ENV[_d.name] = compile_explicit(_d, ENV)


@st.composite
def _term(draw, calls, atoms):
    """A term holding each of calls once and one or two atoms (variables
    and helper calls), joined by + and pairs, each join perhaps under S."""
    pieces = list(calls) + draw(st.lists(st.sampled_from(atoms),
                                         min_size=1, max_size=2))
    pieces = draw(st.permutations(pieces))
    while len(pieces) > 1:
        a, b = pieces.pop(), pieces.pop()
        t = draw(st.sampled_from([f"{a} + {b}", f"({a}, {b})"]))
        if draw(st.booleans()):
            t = f"S({t})"
        pieces.insert(draw(st.integers(0, len(pieces))), t)
    return pieces[0]


def _guarded(head, body, other, guard):
    """Clauses for head: body; or other where u (or a) is 0, else body;
    or other where it is below guard, else body."""
    if guard is None:
        return f"{head} = {body};"
    var = "u" if "S(u)" in head else "a"
    if guard == "zero":
        return (f"{var} = 0 -> {head} = {other}; "
                f"{var} = S(z) -> {head} = {body};")
    return (f"{var} < {guard} -> {head} = {other}; "
            f"! {var} < {guard} -> {head} = {body};")


@st.composite
def recursive_defs(draw):
    """(CL text of f, inputs to run it on)."""
    shape = draw(st.sampled_from(["succ", "nested", "pair", "param"]))
    j = draw(st.integers(1, 3))
    guard = draw(_GUARD)
    if shape == "succ":
        body = draw(_term(["f(u)"] * j, ["u", "S(u)", "S(0)"]))
        other = draw(_term([], ["0", "u", "S(0)"]))
        clauses = (f"f(0) = {draw(_CONST)}; "
                   + _guarded("f(S(u))", body, other, guard))
        xs = range(6)
    elif shape == "nested":
        # f(y) <= y, so each nested call descends
        body = "u"
        for _ in range(j):
            body = f"f({body})"
        if draw(st.booleans()):
            body = f"S({body})"
        clauses = "f(0) = 0; " + _guarded("f(S(u))", body, "u", guard)
        xs = range(7)
    elif shape == "pair":
        calls = draw(st.lists(st.sampled_from(["f(a)", "f(b)"]),
                              min_size=j, max_size=j))
        body = draw(_term(calls, ["a", "b", "S(0)"]))
        other = draw(_term([], ["0", "a", "b"]))
        clauses = (f"f(0) = {draw(_CONST)}; "
                   + _guarded("f((a, b))", body, other, guard))
        xs = [0, 1, 2, 3, 5, 8, 12, pair(2, 1), pair(1, pair(1, 0))]
    else:  # helpers may be called where the argument splits as (v, p),
        # on arguments whose rightmost leaf is p
        base = draw(_term([], ["0", "p", "first(p)"]))
        body = draw(_term(["f((w, p))"] * j, ["w", "p", "double(p)"]))
        clauses = ("f(0) = 0; "
                   f"v = 0 -> f((v, p)) = {base}; "
                   f"v = S(w) -> f((v, p)) = {body};")
        xs = [pair(v, p) for v in range(4) for p in (0, 2)]
    return f"def f {{ {clauses} }}", xs


def _outcome(run, *args, budget):
    try:
        return run(*args, budget=budget)
    except BudgetExceeded:
        return "BudgetExceeded"


@given(recursive_defs())
@settings(max_examples=40, deadline=None)
def test_random_recursive_definitions_reduce_to_pr_exactly(case):
    text, xs = case
    note(text)
    defs = parse_cl(CORPUS_TEXT + text)
    red = reduce_recursive_to_pr(defs[-1], ENV).result
    for x in xs:
        want = _outcome(eval_clausal, defs, "f", x, budget=CLAUSAL_BUDGET)
        for run in (eval_memo, eval_naive):
            got = _outcome(run, red, x, budget=BUDGET)
            assert got == want or "BudgetExceeded" in (got, want), (
                run.__name__, x)
