"""The quasi-term walkers as fold rules, the interpreter's explicit call
stack and the parser's explicit bracket stack, against their recursive
oracles, on deep terms and deep recursions, and the strict form kept per
definition."""

import copy
import pickle
import time

import pytest
from hypothesis import example, given, settings, strategies as st

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
from funalg.evaluator import (Budget, BudgetExceeded, Meter, eval_memo,
                              eval_naive)
from funalg.reduction import build_dispatcher

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
    d = ClausalDef("f", (Clause(TPair(Var("a"), Var("b")), (), t),))
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
    d = ClausalDef("deep", (Clause(Var("x"), (), _s_chain(2000)),))
    assert print_cl(d).startswith("def deep {\n  deep(x) = S(S(")
    sd = complete_to_strict(d)
    assert print_cl(sd) == print_cl(d)
    assert eval_clausal([d], "deep", 5) == 2005
    code = compile_explicit(d)
    assert eval_naive(code, 5, budget=Budget(10**6, 10**4)) == 2005


def _nest(f, n, inner):
    return f"{f}(" * n + inner + ")" * n


def test_deep_application_chain_runs_through_the_walk():
    # unnesting gives 5,000 application literals, which the walk consumed
    # one Python call each
    n = 5000
    defs = parse_cl(f"def g {{ g(x) = S(x); }}\n"
                    f"def f {{ f(x) = {_nest('g', n, 'x')}; }}")
    sd = complete_to_strict(defs[1])
    assert len(sd.clauses) == 1 and len(sd.clauses[0].literals) == n
    assert len(cl.check_refinement(defs[1])) == n + 2
    for x in range(3):
        assert eval_clausal(defs, "f", x) == x + n


def test_deep_term_in_a_split_relation():
    # the walk keys the two relation literals without hashing the
    # 5,000-deep S(...), which recursed
    n, bound = 5000, _nest("S", 5000, "0")
    d = parse_cl(f"def f {{ x < {bound} -> f(x) = 0; "
                 f"! x < {bound} -> f(x) = S(0); }}")[0]
    assert len(complete_to_strict(d).clauses) == 2
    for x in (0, 3, n - 1, n, n + 5):
        assert eval_clausal([d], "f", x) == (x >= n)


@st.composite
def refinement_defs(draw):
    """A definition whose clauses are the paths of a random refinement
    tree (splits, relations and application literals), in a random
    order, sometimes with a binder renamed in some clauses and with one
    clause left out, so that completion adds a default."""
    paths, count = [], iter(range(1, 100))

    def grow(prefix, bound, depth):
        kind = draw(st.sampled_from(
            ["leaf", "succ", "pair", "app", "rel"] if depth < 4 else
            ["leaf"]))
        v = draw(st.sampled_from(sorted(bound)))
        if kind == "leaf":
            paths.append((prefix, draw(st.sampled_from(
                [Zero(), Var(v), Succ(Var(v))]))))
        elif kind in ("succ", "pair"):
            ws = [f"u{next(count)}" for _ in range(1 + (kind == "pair"))]
            lit = VarSucc(v, *ws) if kind == "succ" else VarPair(v, *ws)
            grow(prefix + [VarZero(v)], bound, depth + 1)
            grow(prefix + [lit], bound | set(ws), depth + 1)
        elif kind == "app":
            z = f"z{next(count)}"
            lit = AppEq(draw(st.sampled_from(FNS)), Var(v), z)
            grow(prefix + [lit], bound | {z}, depth + 1)
        else:
            w = draw(st.sampled_from(sorted(bound)))
            for neg in (False, True):
                grow(prefix + [Rel(Var(v), "<", Var(w), neg)], bound,
                     depth + 1)

    grow([], {"x"}, 0)
    paths = draw(st.permutations(paths))
    # binders renamed in some of their clauses, which the walk then names
    # afresh
    binders = sorted({b for lits, _ in paths for l in lits
                      for b in cl.lit_binders(l)})
    for _ in range(draw(st.integers(0, 3)) if binders else 0):
        sub = {(b := draw(st.sampled_from(binders))): b + "r"}
        paths = [([cl.lit_subst(l, sub) for l in lits],
                  cl.term_subst(res, sub)) if draw(st.booleans())
                 else (lits, res) for lits, res in paths]
    if len(paths) > 1 and draw(st.booleans()):
        paths = paths[1:]
    return ClausalDef("f", tuple(Clause(Var("x"), tuple(lits), res)
                                 for lits, res in paths))


def _rebuilt(t):
    """t built afresh, node by node, with new name strings."""
    if type(t) is Var:
        return Var("".join(t.name))
    if type(t) is App:
        return App("".join(t.fname), _rebuilt(t.arg))
    return type(t)(*map(_rebuilt, cl.term_kids(t)))


def _same_term(a, b) -> bool:
    """Structural equality of terms: the reference for interning."""
    if type(a) is not type(b):
        return False
    if type(a) is Var:
        return a.name == b.name
    if type(a) is App and a.fname != b.fname:
        return False
    return all(map(_same_term, cl.term_kids(a), cl.term_kids(b)))


@given(terms(), terms())
@settings(max_examples=300)
def test_equal_terms_are_one_object(a, b):
    assert _rebuilt(a) is a and hash(_rebuilt(a)) == hash(a)
    assert (a is b) == (a == b) == _same_term(a, b)
    # printed text is no identity: it drops the brackets of + and *
    assert TMul(TAdd(a, b), a) is not TAdd(a, TMul(b, a))


def _literals():
    """A literal of every kind, Rel and OracleMem negated or not."""
    x, y = Var("x"), Var("y")
    return [AppEq("f", TPair(x, y), "z"), VarZero("x"), VarSucc("x", "w"),
            VarPair("x", "w1", "w2"), Rel(TAdd(x, y), "<", Succ(x)),
            Rel(x, "=", Zero(), True), OracleMem(TMul(x, y)),
            OracleMem(x, True)]


def test_equal_literals_are_one_object():
    assert {type(lit) for lit in _literals()} == set(cl._LIT_SHAPE)
    for lit, again in zip(_literals(), _literals()):
        assert lit is again and hash(lit) == hash(again)
        assert type(lit)(*lit._fields()) is lit
        assert lit_str(lit) == lit_str(again)
    assert Rel(Var("x"), "<", Zero()) is Rel(Var("x"), "<", Zero(), False)
    assert OracleMem(Var("x")) is not OracleMem(Var("x"), True)
    # 1 == True, so an int would find the node built with True
    for flag in (1, 0, "no", None):
        with pytest.raises(TypeError, match="negated must be a bool"):
            Rel(Var("x"), "<", Zero(), flag)
        with pytest.raises(TypeError, match="negated must be a bool"):
            OracleMem(Var("x"), flag)


@pytest.mark.parametrize("lit", _literals(), ids=lambda lit: lit_str(lit))
def test_literals_copy_and_pickle_to_themselves(lit):
    assert copy.copy(lit) is lit and copy.deepcopy(lit) is lit
    assert pickle.loads(pickle.dumps(lit)) is lit


def test_literal_repr_names_every_field_in_order():
    assert [repr(lit) for lit in _literals()] == [
        "AppEq(fname='f', arg=TPair(left=Var(name='x'), "
        "right=Var(name='y')), out='z')",
        "VarZero(v='x')",
        "VarSucc(v='x', w='w')",
        "VarPair(v='x', w1='w1', w2='w2')",
        "Rel(left=TAdd(left=Var(name='x'), right=Var(name='y')), rel='<', "
        "right=Succ(arg=Var(name='x')), negated=False)",
        "Rel(left=Var(name='x'), rel='=', right=Zero(), negated=True)",
        "OracleMem(term=TMul(left=Var(name='x'), right=Var(name='y')), "
        "negated=False)",
        "OracleMem(term=Var(name='x'), negated=True)",
    ]


def _walk_outcome(run, d, complete):
    try:
        trace, clauses = run(d, complete)
    except RefinementError as e:
        return "RefinementError", str(e)
    return trace, print_cl(ClausalDef(d.name, tuple(clauses)))


@given(st.one_of(refinement_defs(),
                 st.lists(clauses(), min_size=1, max_size=4).map(
                     lambda cs: ClausalDef("f", tuple(cs)))),
       st.booleans())
@settings(max_examples=300, deadline=None)
# both sides of the split on x rename their binders, the first side first
@example(parse_cl("""def f {
  x = 0 & x = 0 -> f(x) = 0;
  x = 0 & x = S(a) & a = 0 -> f(x) = a;
  x = 0 & x = S(b) & b = S(c) -> f(x) = b;
  x = S(p) & p = 0 -> f(x) = p;
  x = S(q) & q = S(r) -> f(x) = q;
}""")[0], True)
def test_refinement_walk_matches_recursive_oracle(d, complete):
    # the trace, the strict clauses (fresh names included) and the first
    # error are those of the recursive walk
    assert (_walk_outcome(cl._run_walk, d, complete)
            == _walk_outcome(oracle.run_walk, d, complete))


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


# The helpers that refinement_defs' application literals call, and the
# inputs the compiled dispatch is checked on: every x below 40 and pair
# codes, whose splits take both sides at two levels.
_HELPERS = parse_cl("""
def f { x = 0 -> f(x) = S(0); x = S(u) -> f(x) = u * u; }
def g { g(x) = (x, S(x)); }
""")
_GRID = [*range(40), pair(0, 5), pair(3, 0), pair(2, 7), pair(pair(1, 2), 3),
         pair(4, pair(0, 6))]
_ORACLE = FinSet((2, 3, 7))


def _helper_env() -> dict:
    env = {}
    for d in _HELPERS:
        env[d.name] = compile_explicit(d, env)
    return env


def _dispatch_matches_interpreter(code, defs, name):
    for x in _GRID:
        want = eval_clausal(defs, name, x, oracle=_ORACLE)
        assert eval_naive(code, x, oracle=_ORACLE) == want, x
        assert eval_memo(code, x, oracle=_ORACLE) == want, x


@given(st.one_of(refinement_defs(),
                 st.lists(clauses(), min_size=1, max_size=4).map(
                     lambda cs: ClausalDef("f", tuple(cs)))))
@settings(max_examples=150, deadline=None)
def test_compiled_refinement_tree_matches_interpreter(d):
    # compiled as h, so that its applications of f and g call the helpers
    h, env = ClausalDef("h", d.clauses), _helper_env()
    try:
        complete_to_strict(h)
    except RefinementError as e:
        with pytest.raises(RefinementError) as got:
            compile_explicit(h, env)
        assert str(got.value) == str(e)
        return
    if h.kind == "explicit":
        _dispatch_matches_interpreter(compile_explicit(h, env),
                                      _HELPERS + [h], "h")


def test_compiled_dispatchers_match_interpreter():
    defs = corpus_defs()
    env = {}
    for d in defs:
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
            continue
        h_def, _ = build_dispatcher(d)
        _dispatch_matches_interpreter(compile_explicit(h_def, env),
                                      defs + [h_def], h_def.name)


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


# A value doubling in width per level, once per call and with two calls
_WIDENING = parse_cl("""
def w1 { w1(0) = S(S(0)); w1(S(u)) = (0 + u + u, w1(u)); }
def w2 { w2(0) = S(S(0)); w2(S(u)) = (w2(u), w2(u)); }
""")


@pytest.mark.parametrize("name", ["w1", "w2"])
@pytest.mark.parametrize("x", [33, 40])
def test_eval_clausal_bounds_the_values_it_computes(name, x):
    # w1 returned a 4,040,039-bit value at 22, reporting peak_bits 5, and
    # did not finish at 33.  0.05 s or less here on a 2-core machine.
    m = Meter()
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="bits"):
        eval_clausal(_WIDENING, name, x, budget=Budget(10**5, 4096), meter=m)
    assert time.perf_counter() - t0 < 1.0
    assert 4096 < m.peak_bits <= 2 * 4096 + 2


@given(terms(apps=False, names=("u", "r")), st.integers(0, 40),
       st.sampled_from([8, 64, 512]))
@settings(max_examples=200, deadline=None)
# unbounded, the width doubles per level: 9,742 bits at 12
@example(TPair(Var("r"), Var("r")), 12, 8)
def test_eval_clausal_values_stay_within_max_bits(t, x, max_bits):
    # f(0) = 2; f(S(u)) = t, where r = f(u)
    d = ClausalDef("f", (
        Clause(Zero(), (), Succ(Succ(Zero()))),
        Clause(Succ(Var("u")), (AppEq("f", Var("u"), "r"),), t)))
    m = Meter()
    try:
        v = eval_clausal([d], "f", x, budget=Budget(10**5, max_bits), meter=m)
    except BudgetExceeded as e:
        assert e.kind == "bits" and m.peak_bits > max_bits
    else:
        assert v.bit_length() <= m.peak_bits <= max_bits


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
