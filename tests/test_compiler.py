"""Compiling quasi-terms, quasi-bounded formulas, and explicit defs."""

import copy
import hashlib
import itertools
import pickle
import time
import typing

import pytest
from hypothesis import given, settings, strategies as st

from funalg.acceptance import _ceil_half_derivation, _formula_corpus
from funalg.clausal import App, Succ, TAdd, TMul, TPair, Var, Zero
from funalg.codec import FinSet, pair
from funalg.compiler import (HD, ONE, PRED, TL, UnboundVariableError, VarCtx,
                             Z_, and_d, compile_explicit, compile_formula,
                             compile_term, dd, eq_d, eval_formula_direct,
                             eval_term_direct, lt_d, not_d, or_d, pack_args)
from funalg.compiler import (FAnd, FBoundedEx, FNot, FOr, FOracle,
                             FQuasiBoundedEx, FRel)
from funalg.corpus import corpus_defs
from funalg.derivation import (Derivation, I, Interned, P, PolyBound, S,
                               comp, d_print)
from funalg.evaluator import Meter, eval_memo, eval_naive
from funalg import clausal as cl, compiler
from funalg.clausal import OracleMem, Rel, eval_clausal, parse_cl


def test_combinator_semantics():
    for x in (0, 1, 5, pair(7, 3), 1000):
        assert eval_naive(Z_, x) == 0
        assert eval_naive(ONE, x) == 1
    assert eval_naive(HD, pair(7, 3)) == 7
    assert eval_naive(TL, pair(7, 3)) == 3
    assert eval_naive(HD, 0) == 0 and eval_naive(TL, 0) == 0
    for x in range(12):
        assert eval_naive(PRED, x) == max(0, x - 1)


def test_pred_is_exact():
    for z in range(20_000):
        assert eval_naive(PRED, z) == max(z - 1, 0), z


@given(st.integers(0, 10**40 - 1))
def test_pred_is_exact_on_large_numbers(z):
    assert eval_naive(PRED, z) == max(z - 1, 0)


def test_pred_runs_no_scan():
    # the mu scan took z rounds; now only the one-round Z_ in HD is left,
    # and it runs no round at z = 1, where HD reads 4 = <0, 2>
    def steps(z):
        m = Meter()
        eval_naive(PRED, z, meter=m)
        return m.steps
    assert steps(1) <= steps(2) == steps(10**40)


def test_boolean_combinators():
    for a in (0, 1):
        for b in (0, 1):
            c = _const(a)
            d = _const(b)
            assert eval_naive(and_d(c, d), 9) == (a and b)
            assert eval_naive(or_d(c, d), 9) == (a or b)
        assert eval_naive(not_d(_const(a)), 9) == 1 - a
    for x in range(5):
        for y in range(5):
            args = pack_args([x, y])
            ctx = VarCtx.of("x", "y")
            xd = compile_term(Var("x"), ctx, {})
            yd = compile_term(Var("y"), ctx, {})
            assert eval_naive(lt_d(xd, yd), args) == (1 if x < y else 0)
            assert eval_naive(eq_d(xd, yd), args) == (1 if x == y else 0)


def _const(v):
    return ONE if v else Z_


def test_dd_selects():
    assert eval_naive(dd(Z_, ONE, Z_), 5) == 1   # condition 0 -> first
    assert eval_naive(dd(ONE, ONE, Z_), 5) == 0  # condition 1 -> second


def test_projections_of_context():
    ctx = VarCtx.of("a", "b", "c")
    vals = [4, 6, 9]
    packed = pack_args(vals)
    for name, want in zip(("a", "b", "c"), vals):
        d = compile_term(Var(name), ctx, {})
        assert eval_naive(d, packed) == want


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariableError):
        compile_term(Var("zz"), VarCtx.of("x"), {})


@pytest.mark.parametrize("t, name", [
    (Var("zz"), "zz"), (App("nofn", Var("x")), "nofn"),
    (TAdd(Var("x"), App("f", App("nofn", Zero()))), "nofn"),
], ids=["variable", "function", "inner function"])
def test_direct_interpreters_reject_what_compilation_rejects(t, name):
    # the direct interpreters raise the error compile_term raises
    with pytest.raises(UnboundVariableError):
        compile_term(t, VarCtx.of("x"), {"f": I})
    for interpret in (
            lambda: eval_term_direct(t, {"x": 1}, {"f": abs}),
            lambda: eval_formula_direct(FRel(t, "=", Zero()), {"x": 1},
                                        fns={"f": abs}),
            lambda: eval_formula_direct(
                FQuasiBoundedEx("z", "f", t, FRel(Var("z"), "=", Zero())),
                {"x": 1}, fns={"f": abs})):
        with pytest.raises(UnboundVariableError, match=f"'{name}'"):
            interpret()


def _s_chain(n, t):
    for _ in range(n):
        t = Succ(t)
    return t


# deeper than the host's recursion limit: every walker must be iterative
DEEP_TERM = _s_chain(3000, TMul(Var("y"), Var("x")))


@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15))
@settings(max_examples=40)
def test_term_compiler_matches_direct(x, y):
    ctx = VarCtx.of("x", "y")
    env = {"x": x, "y": y}
    for t in (TPair(TAdd(Var("x"), TMul(Var("y"), Var("y"))), Succ(Var("x"))),
              DEEP_TERM):
        d = compile_term(t, ctx, {})
        assert eval_naive(d, pack_args([x, y])) == eval_term_direct(t, env)


def test_term_with_function_application():
    bump = comp(S, comp(S, I))
    t = App("bump", TAdd(Var("x"), Var("x")))
    d = compile_term(t, VarCtx.of("x"), {"bump": bump})
    for x in range(10):
        assert eval_naive(d, x) == 2 * x + 2


def test_formula_compiler_is_boolean_and_exact():
    oracle = FinSet((1, 3, 5))
    x, y = Var("x"), Var("y")
    formulas = [
        FRel(x, "<", y),
        FRel(x, "=", y),
        FOracle(x),
        FNot(FOracle(y)),
        FOr(FRel(x, "=", y), FOracle(x)),
        FAnd(FRel(x, "<", y), FNot(FRel(TAdd(x, x), "=", y))),
        FBoundedEx("z", y, FRel(TAdd(Var("z"), Var("z")), "=", x)),
    ]
    ctx = VarCtx.of("x", "y")
    for f in formulas:
        d = compile_formula(f, ctx, {})
        for xv in range(8):
            for yv in range(8):
                got = eval_naive(d, pack_args([xv, yv]), oracle=oracle)
                want = eval_formula_direct(f, {"x": xv, "y": yv}, oracle)
                assert got in (0, 1)
                assert (got == 1) == want, (f, xv, yv)


def test_quasi_bounded_exists_uses_function_value():
    dbl = comp(S, I)  # f(x) = x + 1
    f = FQuasiBoundedEx("z", "f", Var("x"),
                        FRel(Var("z"), "=", Succ(Var("x"))))
    d = compile_formula(f, VarCtx.of("x"), {"f": dbl})
    for x in range(10):
        assert eval_naive(d, x) == 1  # z := x+1 always equals S(x)


def test_explicit_compiler_matches_interpreter():
    defs = corpus_defs()
    env = {}
    oracle = FinSet((2, 5, 9))
    for d in defs:
        if d.kind != "explicit":
            continue
        cd = compile_explicit(d, env)
        env[d.name] = cd
        for x in range(120):
            assert (eval_naive(cd, x, oracle=oracle)
                    == eval_clausal(defs, d.name, x, oracle=oracle)), (d.name, x)


def test_explicit_compiler_rejects_recursive():
    from funalg.compiler import NotExplicitError
    from funalg.corpus import corpus_def
    with pytest.raises(NotExplicitError):
        compile_explicit(corpus_def("L"), {})


def test_three_way_split_compiles():
    d = parse_cl("""
def split3 {
  split3(0) = 0;
  v = 0 -> split3((v, w)) = w;
  v = S(u) -> split3((v, w)) = (u, w);
}
""")[0]
    cd = compile_explicit(d, {})
    assert eval_naive(cd, 0) == 0
    assert eval_naive(cd, pair(0, 9)) == 9
    assert eval_naive(cd, pair(3, 9)) == pair(2, 9)


# --- formulas as interned nodes -------------------------------------------


def test_formulas_are_interned():
    x, y = Var("x"), Var("y")
    assert FRel(x, "<", y) is FRel(x, "<", y)
    assert FRel(x, "<", y) is not FRel(x, "=", y)
    body = FAnd(FOracle(Var("z")), FNot(FRel(x, "<", y)))
    assert FBoundedEx("z", Succ(x), body) is FBoundedEx(
        "z", Succ(x), FAnd(FOracle(Var("z")), FNot(FRel(x, "<", y))))
    assert FQuasiBoundedEx("z", "f", x, FOr(FOracle(x), FOracle(y))) \
        is FQuasiBoundedEx("z", "f", x, FOr(FOracle(x), FOracle(y)))


def test_formula_atoms_are_the_clausal_literals():
    assert FRel is Rel and FOracle is OracleMem


@pytest.mark.parametrize("cls", [
    *typing.get_args(cl.QuasiTerm), *typing.get_args(cl.Literal),
    *typing.get_args(compiler.QuasiFormula), Derivation, PolyBound],
    ids=lambda cls: cls.__name__)
def test_every_syntax_node_is_interned(cls):
    assert issubclass(cls, Interned)


def test_negated_atoms_compile_as_they_evaluate():
    oracle = FinSet((1, 3, 5))
    x, y, z = Var("x"), Var("y"), Var("z")
    formulas = [
        Rel(x, "<", y, negated=True),
        Rel(TAdd(x, x), "=", y, True),
        OracleMem(x, True),
        FNot(OracleMem(y, True)),
        FOr(Rel(x, "=", y, True), OracleMem(TAdd(x, y), True)),
        FAnd(Rel(x, "<", y), Rel(y, "<", Succ(x), True)),
        FBoundedEx("z", y, Rel(TAdd(z, z), "=", x, True)),
        FQuasiBoundedEx("z", "f", x, OracleMem(z, True)),
    ]
    ctx, fns = VarCtx.of("x", "y"), {"f": lambda n: n + 1}
    for f in formulas:
        d = compile_formula(f, ctx, {"f": comp(S, I)})
        for xv in range(6):
            for yv in range(6):
                a = {"x": xv, "y": yv}
                got = eval_naive(d, pack_args([xv, yv]), oracle=oracle)
                want = eval_formula_direct(f, a, oracle, fns)
                assert got in (0, 1)
                assert (got == 1) == want, (f, xv, yv)
    for xv, yv in itertools.product(range(4), repeat=2):
        a = {"x": xv, "y": yv}
        for atom in (Rel(x, "<", y), Rel(x, "=", y), OracleMem(x)):
            negated = type(atom)(*atom._fields()[:-1], True)
            assert (eval_formula_direct(negated, a, oracle)
                    is not eval_formula_direct(atom, a, oracle))


_X, _Y = Var("x"), Var("y")


@pytest.mark.parametrize("f", [
    # the inner x shadows the context's x in the body, not in the bound
    FBoundedEx("x", Succ(_X), Rel(_X, "=", _X)),
    FBoundedEx("x", Succ(_X), Rel(TAdd(_X, _X), "=", _Y)),
    FBoundedEx("y", _X, FBoundedEx("x", Succ(_Y), Rel(_X, "<", _Y))),
    FQuasiBoundedEx("x", "f", _X, FAnd(Rel(_X, "=", Succ(_Y)),
                                       FBoundedEx("y", _X, Rel(_Y, "=", _X)))),
])
def test_a_quantifier_may_rebind_a_context_variable(f):
    fns = {"f": lambda v: v + 1}
    d = compile_formula(f, VarCtx.of("x", "y"), {"f": comp(S, I)})
    for xv, yv in itertools.product(range(16), range(4)):
        got = eval_naive(d, pack_args([xv, yv]))
        assert got == eval_formula_direct(f, {"x": xv, "y": yv}, fns=fns)
    with pytest.raises(ValueError, match="duplicate variables in context"):
        VarCtx.of("x", "y", "x")


@pytest.mark.parametrize("make", [
    lambda l, rel, r: FRel(l, rel, r),
    lambda l, rel, r: Rel(l, rel, r),
], ids=["FRel", "Rel"])
@pytest.mark.parametrize("rel", ["<=", ">", "==", "", None])
def test_relation_symbols_checked_at_construction(make, rel):
    with pytest.raises(ValueError, match=f"unknown relation {rel!r}"):
        make(Var("x"), rel, Succ(Zero()))


DEPTH = 3000


def _not_chain():
    f = FRel(Var("x"), "=", Zero())
    for _ in range(DEPTH):
        f = FNot(f)
    return f


def _mixed_spine():
    x = Var("x")
    atoms = [FRel(x, "=", Zero()), FRel(Zero(), "<", x), FOracle(x),
             FRel(x, "=", Succ(Zero()))]
    f = atoms[0]
    for i in range(DEPTH):
        f = (FAnd if i % 3 else FOr)(f, atoms[i % 4])
    return f


@pytest.mark.parametrize("make", [_not_chain, _mixed_spine])
def test_deep_formulas_need_no_recursion(make):
    f = make()
    assert hash(f) == hash(make()) and f is make()
    assert repr(f).startswith(f"<{type(f).__name__}: ")
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    d = compile_formula(f, VarCtx.of("x"), {})
    oracle = FinSet((1,))
    for x in range(3):
        got = eval_naive(d, x, oracle=oracle)
        assert got == int(eval_formula_direct(f, {"x": x}, oracle)), x


def test_shared_formula_compiles_once_per_context():
    # FAnd(f, f) 30 deep: 31 distinct formulas, 2^30 paths to the atom
    x = Var("x")
    f = FRel(x, "<", Succ(x))
    for _ in range(30):
        f = FAnd(f, f)
    start = time.perf_counter()
    d = compile_formula(f, VarCtx.of("x"))
    assert time.perf_counter() - start < 1
    assert eval_memo(d, 7) == 1
    # one shared formula under two contexts compiles once under each
    g = FRel(x, "<", Succ(Succ(Zero())))
    phi = FOr(FAnd(g, FRel(x, "=", Zero())), FBoundedEx("z", x, FAnd(g, g)))
    d = compile_formula(phi, VarCtx.of("x"))
    for xv in range(4):
        want = eval_formula_direct(phi, {"x": xv})
        assert eval_naive(d, xv) == int(want), xv


def _shared(f, n):
    for _ in range(n):
        f = FAnd(f, f)
    return f


def test_shared_formula_is_valued_once_per_assignment():
    x, z = Var("x"), Var("z")
    for atom in (FRel(x, "<", Succ(x)), FRel(x, "<", Succ(Succ(Zero())))):
        # 2^30 paths to the atom, 31 distinct formulas
        f = _shared(atom, 30)
        d = compile_formula(f, VarCtx.of("x"))
        for xv in range(4):
            start = time.perf_counter()
            got = eval_formula_direct(f, {"x": xv})
            assert time.perf_counter() - start < 1
            assert eval_memo(d, xv) == int(got), xv
        small = _shared(atom, 8)
        d = compile_formula(small, VarCtx.of("x"))
        for xv in range(4):
            want = eval_formula_direct(small, {"x": xv})
            assert eval_naive(d, xv) == int(want), xv
    # the body's value depends on the witness, so one witness's memo
    # must not answer for the next: some z < S(x) with not z < x
    phi = FBoundedEx("z", Succ(x), FNot(_shared(FRel(z, "<", x), 30)))
    phi = FAnd(phi, FOr(phi, FNot(phi)))
    d = compile_formula(phi, VarCtx.of("x"))
    for xv in range(4):
        assert eval_formula_direct(phi, {"x": xv}) is True
        assert eval_memo(d, xv) == 1, xv


def test_bounded_exists_stops_at_its_first_witness():
    f = FBoundedEx("z", Var("x"), FRel(Var("z"), "=", Zero()))
    assert eval_formula_direct(f, {"x": 10**30}) is True


def test_disjunction_stops_at_its_first_true_operand():
    x = Var("x")
    g = FQuasiBoundedEx("z", "nofn", x, FRel(Var("z"), "=", x))
    true, false = FRel(x, "=", x), FRel(x, "<", x)
    assert eval_formula_direct(FOr(true, g), {"x": 3}) is True
    assert eval_formula_direct(FAnd(false, g), {"x": 3}) is False
    with pytest.raises(UnboundVariableError, match="'nofn'"):
        eval_formula_direct(FOr(false, g), {"x": 3})


def test_formula_corpus_compiles_to_the_pinned_derivations():
    env = {"halfish": _ceil_half_derivation()}
    text = "\n".join(d_print(compile_formula(f, VarCtx.of(*names), env))
                     for f, names in _formula_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0708c6938b781d6db96e8cec6cd8223c2fc6ae98ec1a1eceacb566e4f5faed30")
