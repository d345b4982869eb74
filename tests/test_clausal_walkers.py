"""The quasi-term walkers as fold rules, the interpreter's explicit call
stack and the parser's explicit bracket stack, against their recursive
oracles, on deep terms and deep recursions, and the strict form kept per
definition."""

import pytest
from hypothesis import given, settings, strategies as st

import oracle_clausal as oracle
from funalg import clausal as cl
from funalg.clausal import (App, AppEq, CLSyntaxError, Clause, ClausalDef,
                            OracleMem, RefinementError, Rel, Succ, TAdd,
                            TMul, TPair, Var, VarPair, VarSucc, VarZero, Zero,
                            complete_to_strict, eval_clausal, lit_str,
                            parse_cl, print_cl)
from funalg.codec import FinSet, pair
from funalg.compiler import (UnboundVariableError, VarCtx, compile_explicit,
                             compile_term, eval_term_direct)
from funalg.corpus import corpus_defs
from funalg.derivation import d_print
from funalg.evaluator import Budget, BudgetExceeded, Meter, eval_naive

# z1 and q1 are the first fresh names the normalization hands out
NAMES = ("x", "y", "z1", "q1")
FNS = ("f", "g")


@st.composite
def terms(draw, max_nodes=10, apps=True, names=NAMES):
    """A random term; a node's children are mostly recent nodes, often
    one node twice, so terms nest deeply and subterms (applications
    included) can occur more than once as one object."""
    pool = []
    kinds = ["zero", "var", "succ", "pair", "add", "mul"] + (
        ["app", "app"] if apps else [])
    for _ in range(draw(st.integers(1, max_nodes))):
        def sub():
            if pool and draw(st.integers(0, 3)):
                return pool[-1 - draw(st.integers(0, min(2, len(pool) - 1)))]
            return Var(draw(st.sampled_from(names)))
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            t = Zero()
        elif kind == "var":
            t = Var(draw(st.sampled_from(names)))
        elif kind == "succ":
            t = Succ(sub())
        elif kind == "app":
            t = App(draw(st.sampled_from(FNS)), sub())
        else:
            t = {"pair": TPair, "add": TAdd, "mul": TMul}[kind](sub(), sub())
        pool.append(t)
    return pool[-1]


names = st.sampled_from(NAMES)


@st.composite
def literals(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return AppEq(draw(st.sampled_from(FNS)), draw(terms()), draw(names))
    if kind == 1:
        return VarZero(draw(names))
    if kind == 2:
        return VarSucc(draw(names), draw(names))
    if kind == 3:
        return VarPair(draw(names), draw(names), draw(names))
    if kind == 4:
        return Rel(draw(terms()), draw(st.sampled_from("=<")), draw(terms()),
                   draw(st.booleans()))
    return OracleMem(draw(terms()), draw(st.booleans()))


@st.composite
def clauses(draw):
    return Clause(draw(terms(max_nodes=5)),
                  tuple(draw(st.lists(literals(), max_size=3))),
                  draw(terms()))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (RefinementError, UnboundVariableError, TypeError) as e:
        return type(e).__name__, str(e)


@given(terms(), st.dictionaries(names, names))
@settings(max_examples=200)
def test_term_walkers_match_recursive_oracles(t, sub):
    assert cl.term_vars(t) == oracle.term_vars(t)
    assert cl.term_str(t) == oracle.term_str(t)
    assert cl.term_subst(t, sub) == oracle.term_subst(t, sub)
    got, want = cl.term_apps(t), oracle.term_apps(t)
    assert [id(a) for a in got] == [id(a) for a in want]


@given(terms(max_nodes=6))
@settings(max_examples=200)
def test_validate_pattern_matches_oracle(p):
    assert (outcome(cl._validate_pattern, p)
            == outcome(oracle.validate_pattern, p))


@given(clauses())
@settings(max_examples=200)
def test_unnest_clause_matches_oracle(c):
    got, want = cl._unnest_clause(c), oracle.unnest_clause(c)
    assert got == want
    assert ([cl.lit_str(l) for l in got.literals]
            == [cl.lit_str(l) for l in want.literals])


def test_unnest_strips_a_shared_application_once_per_occurrence():
    a = App("f", App("g", Var("x")))
    c = Clause(Var("x"), (Rel(a, "<", Succ(a)),), TPair(a, a))
    got = cl._unnest_clause(c)
    assert got == oracle.unnest_clause(c)
    assert sum(isinstance(l, AppEq) for l in got.literals) == 8
    assert cl.term_str(got.result) == "(z5, z7)"


@given(clauses(), names)
@settings(max_examples=200)
def test_flatten_pattern_matches_oracle(c, argvar):
    assert (outcome(cl._flatten_pattern, c, argvar)
            == outcome(oracle.flatten_pattern, c, argvar))


@given(terms(apps=False, names=("a", "b")), st.integers(0, 6),
       st.integers(0, 6))
@settings(max_examples=100)
def test_interpreter_terms_match_oracle(t, a, b):
    d = ClausalDef("f", (Clause(TPair(Var("a"), Var("b")), (), t),),
                   "explicit")
    want = oracle.ev_term(t, {"a": a, "b": b})
    assert want == eval_term_direct(t, {"a": a, "b": b})
    assert eval_clausal([d], "f", pair(a, b)) == want


@given(terms(names=("x", "y", "u")))
@settings(max_examples=200)
def test_term_compiler_matches_oracle(t):
    ctx = VarCtx.of("x", "y")
    env = {"f": compile_explicit(parse_cl("def f { f(x) = S(x); }")[0])}
    got = outcome(compile_term, t, ctx, env)
    want = outcome(oracle.term_d, t, ctx.projection, env)
    if got[0] == "ok" == want[0]:
        got, want = d_print(got[1]), d_print(want[1])
    assert got == want


def _s_chain(n):
    t = Var("x")
    for _ in range(n):
        t = Succ(t)
    return t


def test_deep_result_term_runs_through_the_pipeline():
    d = ClausalDef("deep", (Clause(Var("x"), (), _s_chain(2000)),),
                   "explicit")
    assert print_cl(d).startswith("def deep {\n  deep(x) = S(S(")
    sd = complete_to_strict(d)
    assert print_cl(sd) == print_cl(d)
    assert eval_clausal([d], "deep", 5) == 2005
    code = compile_explicit(d)
    assert eval_naive(code, 5, budget=Budget(10**6, 10**4)) == 2005


def test_strict_form_is_computed_once_per_definition():
    for d in corpus_defs():
        assert complete_to_strict(d) is complete_to_strict(d)


def test_refinement_failure_raises_on_every_call():
    d = parse_cl("def f { x = 0 -> f(x) = 0; }")[0]
    for _ in range(3):
        with pytest.raises(RefinementError, match="non-exhaustive"):
            cl.check_refinement(d)
    d = parse_cl("def f { f(x) = 0; f(x) = S(0); }")[0]
    for _ in range(3):
        with pytest.raises(RefinementError, match="overlapping"):
            complete_to_strict(d)
        with pytest.raises(RefinementError, match="overlapping"):
            eval_clausal([d], "f", 1)


@pytest.mark.parametrize("name,x,error,message", [
    ("pred", -1, ValueError, "natural number, got -1"),
    ("double", -3, ValueError, "natural number, got -3"),
    ("nested", -1, ValueError, "natural number, got -1"),
    ("L", -1, ValueError, "natural number, got -1"),
    ("double", 2.5, TypeError, "expected an int argument, got float"),
])
def test_eval_clausal_rejects_bad_arguments(name, x, error, message):
    with pytest.raises(error, match=message):
        eval_clausal(corpus_defs(), name, x)


def _run(interpreter, defs, name, x, budget):
    """The outcome of an interpreter run and its four Meter fields."""
    m = Meter()
    try:
        got = "ok", interpreter(defs, name, x, oracle=FinSet((2, 3, 7)),
                                budget=budget, meter=m)
    except (BudgetExceeded, cl.ClausalEvalError, cl.MeasureViolation) as e:
        got = type(e).__name__, str(e)
    return got, (m.steps, m.peak_bits, m.memo_hits, m.max_depth)


# besides the corpus: helpers nesting calls inside calls, a clause that
# fails after a call returns (pick's argument variable is not inc's), and
# a measure violation
_CALLS = parse_cl("""
def inc { inc(z) = S(z); }
def twice { twice(x) = inc(inc(x)); }
def pick {
  inc(y) = r & r < S(S(S(0))) -> pick(y) = r;
  inc(y) = r & ! r < S(S(S(0))) -> pick(y) = (y, r);
}
def walk {
  walk(0) = 0;
  v = 0 -> walk((v, w)) = twice(walk(w));
  v = S(u) -> walk((v, w)) = inc(walk((u, w)));
}
def bad { bad(0) = 0; bad(S(w)) = bad(S(w)); }
""")


@pytest.mark.parametrize("budget", [
    None, Budget(7, 10**6), Budget(60, 10**6), Budget(10**6, 4)],
    ids=["default", "7 steps", "60 steps", "4 bits"])
def test_eval_clausal_matches_recursive_oracle(budget):
    defs = corpus_defs() + _CALLS
    for d in defs:
        for x in [*range(60), 200, 851]:
            assert (_run(eval_clausal, defs, d.name, x, budget)
                    == _run(oracle.eval_clausal, defs, d.name, x, budget)), \
                (d.name, x)


def test_eval_clausal_meter_accumulates_like_the_oracle():
    defs = corpus_defs()
    m1, m2 = Meter(5, 3, 2, 1), Meter(5, 3, 2, 1)
    for x in (4, 20, 9):
        eval_clausal(defs, "cat", x, meter=m1)
        oracle.eval_clausal(defs, "cat", x, meter=m2)
    assert m1 == m2


@pytest.mark.parametrize("name,x,want", [
    ("nested", 3405, 0), ("addp", pair(2000, 1), 2001)])
def test_eval_clausal_deep_recursion(name, x, want):
    # the recursive interpreter raises RecursionError on both
    m = Meter()
    assert eval_clausal(corpus_defs(), name, x, meter=m) == want
    assert m.max_depth >= 2000
    with pytest.raises(BudgetExceeded):
        eval_clausal(corpus_defs(), name, x, budget=Budget(5000, 10**6))


# --- the parser's explicit bracket stack ------------------------------------

_WORDS = ("0", "x", "y", "f", "S", "in", "X", "(", ")", ",", "+", "*", "!",
          "=", "<", ";")


@st.composite
def literal_texts(draw):
    """A printed literal (or a run of words), as words, with one word
    perhaps deleted, inserted or replaced."""
    if draw(st.booleans()):
        lit = draw(st.one_of(
            st.builds(Rel, terms(), st.sampled_from("=<"), terms(),
                      st.booleans()),
            st.builds(OracleMem, terms(), st.booleans())))
        words = [t[1] for t in cl._tokenize(lit_str(lit))[:-1]]
        words = ["!"] * draw(st.integers(0, 2)) + words
    else:
        words = draw(st.lists(st.sampled_from(_WORDS), max_size=12))
    i = draw(st.integers(0, len(words)))
    edit = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    if edit == "insert" or (edit == "replace" and i < len(words)):
        words[i:i + (edit == "replace")] = [draw(st.sampled_from(_WORDS))]
    elif edit == "delete":
        del words[i:i + 1]
    return " ".join(words)


def _parse_lit(parser, text):
    p = parser(text)
    try:
        return "ok", p.parse_lit(), p.pos
    except CLSyntaxError as e:
        return "error", str(e), p.pos


@given(literal_texts())
@settings(max_examples=400)
def test_parser_matches_recursive_oracle(text):
    assert (_parse_lit(cl._Parser, text)
            == _parse_lit(oracle.RecursiveParser, text))


@pytest.mark.parametrize("text,want", [
    ("x + y * 0 + f(x) * y * x = 0",
     TAdd(TAdd(Var("x"), TMul(Var("y"), Zero())),
          TMul(TMul(App("f", Var("x")), Var("y")), Var("x")))),
    ("(x + y, S(x * y)) * x = 0",
     TMul(TPair(TAdd(Var("x"), Var("y")), Succ(TMul(Var("x"), Var("y")))),
          Var("x"))),
])
def test_parser_precedence_and_left_associativity(text, want):
    assert cl._Parser(text).parse_lit() == Rel(want, "=", Zero())


@pytest.mark.parametrize("depth", [350, 5000])
def test_parse_deep_nests(depth):
    # the result is checked by an iterative walk: frozen-dataclass == and
    # hash recurse
    succ = "S(" * depth + "x" + ")" * depth
    left = "(" * depth + "x" + ", 0)" * depth
    right = "(0, " * depth + "x" + ")" * depth
    text = (f"def f {{ {'!' * (depth + 1)} x = 0 -> f(x) = {succ};"
            f" ! x = 0 & x = (a, b) -> f(x) = {left};"
            f" ! x = 0 & ! x = (a, b) -> f(x) = {right}; }}")
    (d,) = parse_cl(text)
    first, second, third = d.clauses
    assert first.literals == (Rel(Var("x"), "=", Zero(), True),)
    for clause, node, down, side in (
            (first, Succ, lambda t: t.arg, None),
            (second, TPair, lambda t: t.left, lambda t: t.right),
            (third, TPair, lambda t: t.right, lambda t: t.left)):
        t = clause.result
        for _ in range(depth):
            assert type(t) is node and (side is None or side(t) == Zero())
            t = down(t)
        assert t == Var("x")
