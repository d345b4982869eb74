"""Derivation AST, S-expressions, enumeration, and polynomial bounds."""

import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from funalg.clausal import App, Succ, TAdd, TMul, TPair, Var, Zero
from funalg.derivation import (ADD, ARITY, CLASSES, DA, DEA, E, LT, ORACLE,
                               SMASH, AlgebraClass, Derivation,
                               EnumerationError, I, Op, P, PRA, ParseError,
                               PolyBound, S, SA, TA,
                               UnboundedOperatorError,
                               comp, d_parse, d_print, derivation_at,
                               enumerate_derivations, fold, index_of, mu,
                               poly_bound, pr, snr, validate)
from funalg.evaluator import eval_naive


def test_arity_enforced():
    with pytest.raises(ValueError):
        Derivation(Op.COMP, (S,))
    with pytest.raises(ValueError):
        Derivation(Op.S, (S,))
    with pytest.raises(ValueError):
        Derivation(Op.MU, (S, S))


def test_class_membership():
    assert validate(comp(S, S), DA)
    assert validate(mu(S), DA)
    from funalg.derivation import bpr, E
    assert not validate(bpr(S, S), DA)
    assert validate(bpr(S, S), SA)
    assert validate(snr(S, S), TA)
    assert not validate(snr(S, S), SA)
    assert validate(E, DEA)
    assert not validate(E, DA)
    assert validate(pr(S, S), PRA)


def test_sexpr_examples():
    assert d_print(comp(S, S)) == "(comp S S)"
    assert d_parse("(comp S S)") == comp(S, S)
    assert d_parse("X").op is Op.ORACLE
    assert d_print(mu(comp(S, S))) == "(mu (comp S S))"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        d_parse("(comp S")
    assert e.value.offset is not None
    with pytest.raises(ParseError):
        d_parse("(comp S S S)")  # wrong arity
    with pytest.raises(ParseError):
        d_parse("(frob S S)")
    with pytest.raises(ParseError):
        d_parse("")


def _random_derivation(rng, cls, depth):
    order = [op for op in Op if op in cls.allowed]
    leaves = [op for op in order if ARITY[op] == 0]
    if depth == 0:
        return Derivation(rng.choice(leaves))
    op = rng.choice(order)
    kids = tuple(_random_derivation(rng, cls, depth - 1)
                 for _ in range(ARITY[op]))
    return Derivation(op, kids)


def test_sexpr_roundtrip_random():
    rng = random.Random(0)
    for _ in range(300):
        d = _random_derivation(rng, PRA, rng.randint(0, 5))
        assert d_parse(d_print(d)) == d


def test_enumeration_first_element_is_oracle():
    assert d_print(derivation_at(0, DA)) == "X"


def test_enumeration_prefix_roundtrip():
    for cname in ("DA", "SA", "TA", "PRA"):
        cls = CLASSES[cname]
        for i, d in enumerate(enumerate_derivations(cls, 400)):
            assert index_of(d, cls) == i


def test_enumeration_children_precede_parents():
    for d in enumerate_derivations(DA, 400):
        i = index_of(d, DA)
        for ch in d.children:
            assert index_of(ch, DA) < i


def test_enumeration_rejects_foreign_class():
    from funalg.derivation import bpr
    with pytest.raises(EnumerationError):
        index_of(bpr(S, S), DA)
    with pytest.raises(EnumerationError):
        derivation_at(-1, DA)


def test_enumeration_accepts_class_names():
    assert derivation_at(0, "DA") == derivation_at(0, DA)
    with pytest.raises(EnumerationError):
        derivation_at(0, "NOPE")


def test_poly_bound_examples():
    assert poly_bound(I)(7) == 7
    assert poly_bound(comp(S, S))(5) == 7
    assert poly_bound(P(I, I))(1) == 16  # (1 + 1 + 2)^2


def test_poly_bound_rejects_unbounded():
    from funalg.derivation import E, SMASH
    for d in (E, SMASH, pr(S, S)):
        with pytest.raises(UnboundedOperatorError):
            poly_bound(d)


def test_poly_bound_monotone_and_sound_spot():
    from funalg.evaluator import eval_naive
    rng = random.Random(3)
    for _ in range(60):
        d = _random_derivation(rng, TA, rng.randint(0, 3))
        b = poly_bound(d)
        for x in (0, 1, 5, 17, 100):
            assert eval_naive(d, x) <= b(x)


@given(st.integers(min_value=0, max_value=500))
def test_poly_bound_str_evaluates_consistently(n):
    b = poly_bound(P(comp(S, I), I))
    # printable form is a polynomial in n agreeing with the callable
    expr = str(b).replace("n", str(n))
    assert eval(expr) == b(n)


def test_node_count():
    assert S.node_count() == 1
    assert comp(S, P(I, I)).node_count() == 5


# --- recursive oracles ---------------------------------------------------
#
# The plain recursive walkers the fold-based ones replaced.  They expand
# shared subterms and stop at the recursion limit, so they only run on
# small inputs here.

_ATOM = {Op.S: "S", Op.ADD: "add", Op.MUL: "mul", Op.LT: "lt", Op.I: "I",
         Op.D: "D", Op.E: "E", Op.SMASH: "smash", Op.ORACLE: "X"}
_HEAD = {Op.P: "P", Op.COMP: "comp", Op.MU: "mu",
         Op.PR: "pr", Op.BPR: "bpr", Op.SNR: "snr"}


def rec_print(d):
    if ARITY[d.op] == 0:
        return _ATOM[d.op]
    inner = " ".join(rec_print(c) for c in d.children)
    return f"({_HEAD[d.op]} {inner})"


def rec_parse(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            toks.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append((text[i:j], i))
            i = j
    atoms = {v: k for k, v in _ATOM.items()}
    heads = {v: k for k, v in _HEAD.items()}
    pos = 0

    def parse_one():
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of input", len(text))
        tok, off = toks[pos]
        pos += 1
        if tok == ")":
            raise ParseError("unexpected ')'", off)
        if tok != "(":
            if tok not in atoms:
                raise ParseError(f"unknown atom {tok!r}", off)
            return Derivation(atoms[tok])
        if pos >= len(toks):
            raise ParseError("missing operator after '('", off)
        headtok, hoff = toks[pos]
        pos += 1
        if headtok not in heads:
            raise ParseError(f"unknown operator {headtok!r}", hoff)
        op = heads[headtok]
        kids = []
        while True:
            if pos >= len(toks):
                raise ParseError("missing ')'", len(text))
            if toks[pos][0] == ")":
                pos += 1
                break
            kids.append(parse_one())
        if len(kids) != ARITY[op]:
            raise ParseError(
                f"{headtok} takes {ARITY[op]} children, got {len(kids)}", off)
        return Derivation(op, tuple(kids))

    d = parse_one()
    if pos != len(toks):
        raise ParseError("trailing input", toks[pos][1])
    return d


def rec_bound_call(b, n):
    if b.kind == "const":
        return b.value
    if b.kind == "var":
        return n
    x, y = (rec_bound_call(a, n) for a in b.args)
    return x + y if b.kind == "add" else x * y


def rec_bound_str(b):
    if b.kind == "const":
        return str(b.value)
    if b.kind == "var":
        return "n"
    sep = " + " if b.kind == "add" else " * "
    return "(" + sep.join(rec_bound_str(a) for a in b.args) + ")"


def rec_subst(b, inner):
    if b.kind == "var":
        return inner
    if b.kind == "const":
        return b
    return PolyBound(b.kind, args=tuple(rec_subst(a, inner) for a in b.args))


def rec_poly_bound(d):
    var, one = PolyBound("var"), PolyBound("const", 1)
    op = d.op
    if op in (Op.PR, Op.E, Op.SMASH):
        raise UnboundedOperatorError(f"{op.value} has no polynomial bound")
    if op is Op.S:
        return PolyBound("add", args=(var, one))
    if op is Op.ADD:
        return PolyBound("mul", args=(PolyBound("const", 2), var))
    if op is Op.MUL:
        return PolyBound("mul", args=(var, var))
    if op in (Op.LT, Op.ORACLE):
        return one
    if op in (Op.I, Op.D, Op.MU, Op.BPR, Op.SNR):
        return var
    bg, bh = (rec_poly_bound(c) for c in d.children)
    if op is Op.P:
        s = PolyBound("add", args=(PolyBound("add", args=(bg, bh)),
                                   PolyBound("const", 2)))
        return PolyBound("mul", args=(s, s))
    return rec_subst(bg, bh)


def _random_dag(rng, cls, steps):
    """A derivation of the class whose children are drawn from a pool of
    earlier nodes, so subterms are shared."""
    ops = [op for op in Op if op in cls.allowed]
    pool = [Derivation(op) for op in ops if ARITY[op] == 0]
    for _ in range(steps):
        op = rng.choice(ops)
        pool.append(Derivation(op, tuple(rng.choice(pool[-6:])
                                         for _ in range(ARITY[op]))))
    return pool[-1]


def _samples():
    # every class, plus all operators at once, where several operators
    # without a bound compete to be reported first
    yield from (P(E, pr(S, S)), comp(SMASH, E),
                P(comp(I, SMASH), P(pr(S, S), E)))
    rng = random.Random(11)
    for cls in [*CLASSES.values(), AlgebraClass("all", frozenset(Op))]:
        for _ in range(40):
            yield _random_derivation(rng, cls, rng.randint(0, 5))
            yield _random_dag(rng, cls, rng.randint(1, 9))


def _parse_outcome(parse, text):
    try:
        return rec_print(parse(text))
    except ParseError as e:
        return (str(e), e.offset)


def _mutants(rng, text):
    for _ in range(6):
        i = rng.randrange(len(text) + 1)
        yield text[:i] + text[i + 1:]
        yield text[:i]
        yield text[:i] + rng.choice(["(", ")", " ", "q", "S", "(mu"]) \
            + text[i:]
        yield f"{text[:i]} {rng.choice(['(comp', ')', 'E', '(P S'])} " \
            + text[i:]


def test_print_and_parse_match_recursive_oracles():
    rng = random.Random(5)
    for d in _samples():
        text = d_print(d)
        assert text == rec_print(d)
        assert rec_print(d_parse(text)) == text
        for m in _mutants(rng, text):
            assert _parse_outcome(d_parse, m) == _parse_outcome(rec_parse, m)


def test_parse_error_cases_match_oracle():
    for text in ("", "  ", ")", "(", "( ", "(comp", "(comp S", "(comp S S",
                 "(comp S S S)", "(mu)", "(frob S)", "(S S)", "((", "()",
                 "q", "S S", "S )", "(comp S S) (", "(mu S",
                 "(comp\u00a0S\x1cS)", "(mu\u2003S)x"):
        assert _parse_outcome(d_parse, text) == _parse_outcome(rec_parse,
                                                                text), text


def test_poly_bound_matches_recursive_oracle():
    for d in _samples():
        try:
            want = rec_poly_bound(d)
        except UnboundedOperatorError as e:
            with pytest.raises(UnboundedOperatorError) as got:
                poly_bound(d)
            assert str(got.value) == str(e)
            continue
        b = poly_bound(d)
        assert str(b) == rec_bound_str(want)
        for n in (0, 1, 2, 7, 30):
            assert b(n) == rec_bound_call(want, n)


def test_fold_visits_each_distinct_node_once_children_first():
    t = I
    for _ in range(40):
        t = P(t, t)
    seen = []

    def rule(d, kids):
        assert all(id(c) in {id(x) for x in seen} for c in d.children)
        seen.append(d)
        return 1 + sum(kids)

    # the tree has 2^41 - 1 nodes; the DAG has 41
    assert fold(t, lambda d: d.children, rule) == 2 ** 41 - 1
    assert len(seen) == 41
    assert len(list(t.nodes())) == 41
    assert validate(t, DA)


def test_deep_comp_chain_has_no_recursion_limit():
    depth = 5000
    d = I
    for _ in range(depth):
        d = comp(S, d)
    text = d_print(d)
    assert text == "(comp S " * depth + "I" + ")" * depth
    back = d_parse(text)
    assert d_print(back) == text
    assert validate(back, DA) and validate(back, PRA)
    assert not validate(comp(pr(S, S), back), DA)
    b = poly_bound(back)
    assert b(3) == 5003 == eval_naive(back, 3)
    assert str(b) == "(" * depth + "n" + " + 1)" * depth


def test_poly_bound_of_p_tower_closed_form():
    t = I
    for _ in range(12):
        t = P(t, t)
    want = 3
    for _ in range(12):
        want = (2 * want + 2) ** 2
    assert poly_bound(t)(3) == want


def test_fold_calls_kids_once_per_node_in_pre_order():
    a = comp(S, I)
    t = P(comp(a, a), P(a, S))
    calls = []

    def kids(d):
        calls.append(d)
        return d.children

    assert fold(t, kids, lambda d, k: d_print(d)) == d_print(t)
    want = [t, t.children[0], a, S, I, t.children[1]]
    assert [id(d) for d in calls] == [id(d) for d in want]


def _tower(leaf, levels):
    t = leaf
    for _ in range(levels):
        t = P(t, t)
    return t


def _same(a, b) -> bool:
    """Structural equality by a walk over pairs of nodes, each pair once:
    the reference that interning (equal means identical) must agree with."""
    seen, stack = set(), [(a, b)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if x.op is not y.op or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def test_deep_chain_is_interned_and_has_no_recursion_limit():
    d = I
    for _ in range(5000):
        d = comp(S, d)
    back = d_parse(d_print(d))
    assert back is d and _same(back, d)
    assert back == d and hash(back) == hash(d)
    assert comp(S, back) != d and not _same(comp(S, back), d)
    assert d != S and d != "I"
    b = poly_bound(d)
    assert poly_bound(back) is b and str(poly_bound(back)) == str(b)
    assert repr(b).startswith("<PolyBound add: ") and len(repr(b)) < 100


def test_p_tower_is_interned():
    t, u = _tower(I, 40), _tower(I, 40)
    assert t is u and _same(t, u) and hash(t) == hash(u)
    for other in (_tower(S, 40), Derivation(Op.COMP, (_tower(I, 39),) * 2),
                  _tower(I, 41)):
        assert other != t and not _same(other, t)
    assert poly_bound(t) is poly_bound(u)
    assert poly_bound(_tower(S, 40)) is not poly_bound(t)


def test_node_count_and_repr_of_a_p_tower_are_on_the_dag():
    t = _tower(I, 40)
    assert t.node_count() == 2**41 - 1
    assert repr(t) == ("<Derivation P: 41 distinct nodes, "
                       f"{2**41 - 1} tree nodes>")
    b = poly_bound(t)
    assert repr(b).startswith("<PolyBound mul: ") and len(repr(b)) < 100
    # small ones are spelled out
    assert repr(comp(S, I)) == "Derivation('(comp S I)')"
    assert repr(poly_bound(S)) == "PolyBound('(n + 1)')"


@pytest.mark.parametrize("d", [I, comp(S, P(I, mu(LT))), _tower(ADD, 8)],
                         ids=["atom", "compound", "tower"])
def test_every_constructor_form_gives_one_node(d):
    assert Derivation(d.op, d.children) is d
    assert Derivation(op=d.op, children=d.children) is d
    if not d.children:
        assert Derivation(d.op) is d
    assert d_parse(d_print(d)) is d
    b = poly_bound(d)
    assert PolyBound(b.kind, b.value, b.args) is b
    assert PolyBound(b.kind, args=b.args, value=b.value) is b
    assert PolyBound("add", args=(b, b)) is PolyBound("add", 0, (b, b))
    assert PolyBound("var") is PolyBound("var", 0, ())


@pytest.mark.parametrize("node", [
    I, comp(S, P(I, I)), _tower(I, 40), PolyBound("var"),
    poly_bound(comp(S, P(I, I))), TPair(Zero(), Var("x")),
    App("f", TAdd(Succ(Var("y")), TMul(Zero(), Zero())))],
    ids=["atom", "derivation", "tower", "var", "bound", "pair", "term"])
def test_copy_deepcopy_and_pickle_return_the_interned_node(node):
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert copy.deepcopy([node, node]) == [node, node]
    assert pickle.loads(pickle.dumps(node)) is node


def test_a_dropped_node_is_collected():
    # built from operators no other test or module combines this way
    ref = weakref.ref(_tower(ORACLE, 9))
    tref = weakref.ref(TMul(Var("dropped"), Var("dropped")))
    gc.collect()
    assert ref() is None and tref() is None
    assert _tower(ORACLE, 9).node_count() == 2**10 - 1


def test_a_failed_construction_interns_nothing():
    for _ in range(2):
        with pytest.raises(ValueError, match="comp takes 2 children, got 1"):
            Derivation(Op.COMP, (S,))
    assert (Op.COMP, (S,)) not in Derivation._table
    with pytest.raises(ValueError):
        Var()
    with pytest.raises(AttributeError):
        I.op = Op.S
    with pytest.raises(AttributeError):
        del I.op
    assert I.op is Op.I
