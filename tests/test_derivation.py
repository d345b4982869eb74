"""Derivation AST, S-expressions, enumeration, and polynomial bounds."""

import copy
import gc
import hashlib
import pickle
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from funalg.clausal import App, Succ, TAdd, TMul, TPair, Var, Zero
from funalg.compiler import compile_explicit
from funalg.corpus import corpus_def, corpus_defs
from funalg.derivation import (ADD, ARITY, CLASSES, DA, DEA, E, LT, ORACLE,
                               SMASH, AlgebraClass, Derivation,
                               EnumerationError, I, Op, P, PRA, ParseError,
                               PolyBound, S, SA, TA,
                               UnboundedOperatorError, _ENUM_NODES,
                               _ENUM_TAG_ORDER, _as_class,
                               comp, d_parse, d_print, derivation_at,
                               enumerate_derivations, fold, index_of, mu,
                               poly_bound, pr, snr, validate)
from funalg.evaluator import eval_naive
from funalg.reduction import (reduce_bounded_nested_to_snr,
                              reduce_recursive_to_pr)


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


@pytest.mark.parametrize("call", [
    lambda c: index_of(I, c),
    lambda c: derivation_at(0, c),
    lambda c: enumerate_derivations(c, 2),
], ids=["index_of", "derivation_at", "enumerate_derivations"])
@pytest.mark.parametrize("c", [5, None, DA.allowed],
                         ids=["int", "None", "ops"])
def test_enumeration_rejects_a_class_of_the_wrong_type(call, c):
    with pytest.raises(TypeError,
                       match=f"algebra class, got {type(c).__name__}"):
        call(c)


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
    for d in [I, P(I, I)] + [_random_derivation(rng, TA, rng.randint(0, 3))
                             for _ in range(60)]:
        b = poly_bound(d)
        for x in (0, 1, 5, 17, 100):
            assert eval_naive(d, x) <= b(x)


def _poly_bound_by_full_walks(d):
    """poly_bound's rule with every atom bound built afresh and every
    substitution a full walk of the outer bound."""
    var = PolyBound("var")

    def add(a, b):
        return PolyBound("add", args=(a, b))

    def mul(a, b):
        return PolyBound("mul", args=(a, b))

    def subst(b, inner):
        return fold(b, lambda p: p.args, lambda p, args: inner
                    if p.kind == "var" else PolyBound(p.kind, p.value,
                                                      tuple(args)))

    def rule(n, kids):
        atom = {Op.S: lambda: add(var, PolyBound("const", 1)),
                Op.ADD: lambda: mul(PolyBound("const", 2), var),
                Op.MUL: lambda: mul(var, var),
                Op.LT: lambda: PolyBound("const", 1),
                Op.ORACLE: lambda: PolyBound("const", 1)}
        if not kids:
            return atom.get(n.op, lambda: var)()
        if n.op is Op.P:
            s = add(add(*kids), PolyBound("const", 2))
            return mul(s, s)
        return subst(*kids)
    return fold(d, lambda n: n.children if n.op in (Op.P, Op.COMP) else (),
                rule)


def test_poly_bound_gives_the_interned_bound_of_full_walks():
    rng = random.Random(11)
    atoms = [S, ADD, Derivation(Op.MUL), LT, ORACLE, I, Derivation(Op.D)]
    chain = rng.choice(atoms)
    for _ in range(300):
        chain = comp(rng.choice(atoms), chain)
    tower = I
    for _ in range(6):
        tower = P(tower, comp(tower, S))
    env, explicit = {}, []
    for cd in corpus_defs():
        if cd.kind == "explicit":
            env[cd.name] = d = compile_explicit(cd, env)
            explicit.append(d)
    roots = [chain, tower, comp(chain, tower), comp(tower, chain)]
    roots += explicit + [_random_derivation(rng, TA, rng.randint(0, 4))
                         for _ in range(80)]
    for d in roots:
        assert poly_bound(d) is _poly_bound_by_full_walks(d)


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


# The recursive enumeration that the count table and the DAG walks
# replaced.  Its tables are keyed by class name, so it serves the shipped
# classes only.

def _class_tags(c: AlgebraClass) -> list[Op]:
    return [op for op in _ENUM_TAG_ORDER if op in c.allowed]


@lru_cache(maxsize=None)
def _counts(cname: str, k: int) -> int:
    """Number of derivations of the class with exactly k operator nodes."""
    if k <= 0:
        return 0
    return sum(_op_count(cname, op, k) for op in _class_tags(CLASSES[cname]))


def _op_count(cname: str, op: Op, k: int) -> int:
    """Number of derivations of the class with k nodes and root op."""
    a = ARITY[op]
    if a == 0:
        return 1 if k == 1 else 0
    if a == 1:
        return _counts(cname, k - 1)
    return sum(_counts(cname, i) * _counts(cname, k - 1 - i)
               for i in range(1, k - 1))


@lru_cache(maxsize=None)
def _block_start(cname: str, k: int) -> int:
    """Index of the first derivation with k nodes."""
    return 0 if k <= 1 else _block_start(cname, k - 1) + _counts(cname, k - 1)


def rec_index_of(d: Derivation, c) -> int:
    """Position of d in the standard enumeration of the class."""
    c = _as_class(c)
    if not validate(d, c):
        raise EnumerationError(f"derivation not in class {c.name}")
    k = d.node_count()
    idx = _block_start(c.name, k)
    for op in _class_tags(c):
        if op is d.op:
            break
        idx += _op_count(c.name, op, k)
    a = ARITY[d.op]
    if a == 1:
        child = d.children[0]
        idx += rec_index_of(child, c) - _block_start(c.name, k - 1)
    elif a == 2:
        g, h = d.children
        kh = h.node_count()
        ig, ih = rec_index_of(g, c), rec_index_of(h, c)
        # pairs whose first index precedes ig
        for i in range(1, k - 1):
            before = min(max(ig - _block_start(c.name, i), 0),
                         _counts(c.name, i))
            idx += before * _counts(c.name, k - 1 - i)
        idx += ih - _block_start(c.name, kh)
    return idx


def rec_derivation_at(i: int, c) -> Derivation:
    """Inverse of index_of."""
    c = _as_class(c)
    if i < 0:
        raise EnumerationError("negative index")
    k = 1
    while _block_start(c.name, k + 1) <= i:
        k += 1
        if k > 10_000:
            raise EnumerationError("index out of enumerated range")
    r = i - _block_start(c.name, k)
    for op in _class_tags(c):
        cnt = _op_count(c.name, op, k)
        if r < cnt:
            break
        r -= cnt
    else:
        raise EnumerationError("index decoding failed")
    a = ARITY[op]
    if a == 0:
        return Derivation(op)
    if a == 1:
        return Derivation(op, (rec_derivation_at(
            _block_start(c.name, k - 1) + r, c),))
    for j in range(1, k - 1):
        block = _counts(c.name, j) * _counts(c.name, k - 1 - j)
        if r < block:
            qg, qh = divmod(r, _counts(c.name, k - 1 - j))
            g = rec_derivation_at(_block_start(c.name, j) + qg, c)
            h = rec_derivation_at(_block_start(c.name, k - 1 - j) + qh, c)
            return Derivation(op, (g, h))
        r -= block
    raise EnumerationError("index decoding failed")


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
                 "(comp\u00a0S\x1cS)", "(mu\u2003S)x",
                 "\u3000\u3000(P S)"):
        assert _parse_outcome(d_parse, text) == _parse_outcome(rec_parse,
                                                                text), text


def test_a_parse_error_offset_counts_characters_not_bytes():
    # two ideographic spaces are 2 characters but 6 bytes of UTF-8
    text = "\u3000\u3000(P S)"
    with pytest.raises(ParseError) as e:
        d_parse(text)
    assert e.value.offset == 2 < text.encode().index(b"(") == 6
    assert str(e.value) == ("parse error at character 2: "
                            "P takes 2 children, got 1")


def test_reductions_and_a_p_tower_parse_back_to_themselves():
    env = {}
    for d in corpus_defs():
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
    built = [reduce_recursive_to_pr(d, env).result
             for d in corpus_defs() if d.kind == "recursive"]
    # the corpus defs bounded by x whose interpretation needs no helper
    built += [reduce_bounded_nested_to_snr(corpus_def(name), PolyBound("var"))
              for name in ("L", "last", "sumlist", "addp", "nested")]
    built.append(_tower(I, 16))
    assert built[-1].node_count() == 2**17 - 1
    for d in built:
        assert d_parse(d_print(d)) is d


def test_a_deep_chain_of_new_nodes_parses():
    depth = 100_000
    d = d_parse("(mu " * depth + "S" + ")" * depth)
    for _ in range(depth):
        assert d.op is Op.MU
        d, = d.children
    assert d is S


def test_error_offsets_near_the_end_of_a_long_text_match_oracle():
    text = d_print(_tower(I, 15))
    assert len(text.replace("(", " ( ").replace(")", " ) ").split()) > 10**5
    last_atom, last_node = text.rindex("I"), text.rindex("(P I I)")
    for bad, at in ((text[:last_atom] + "q" + text[last_atom + 1:],
                     last_atom),
                    (text[:last_node] + "(P I I I)" + text[last_node + 7:],
                     last_node),
                    (text + " S", len(text) + 1)):
        got = _parse_outcome(d_parse, bad)
        assert got == _parse_outcome(rec_parse, bad)
        assert got[1] == at, got


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


# sha256 of the first 2,000 d_prints of each class, one per line,
# recorded from the recursive enumeration
_FIRST_2000 = {
    "DA": "0b70002096fb15b44b41dd6e6ff303ed99e9b1d0cf14a4945c6fd6e9a59549db",
    "SA": "b6d15d4f7aa58a4196fb13ce1b7fe93157b0d65cc7da0775b36a0541c91bf559",
    "TA": "4ed7deddee106e01f3e53625e866f57de956cfdbe2e80cb265f36af51428e0cd",
    "DEA": "3fd054a129b0cb79d7238c326a938627bb45e66d7cdaab65494cfb609c7a82d6",
    "DSA": "3ad38bfca15a3e8ad85b90f00ca7edc7424181a3e19fa5975e440af640c2ae77",
    "SSA": "7b52293e32752010bb5c9f526f7ffe40ecf1e3dbfc4a612105a9c81539ffcb99",
    "PRA": "188d51b6b2829da46eae270affc21fc2f5f02238032add3a91fed2b625282a82",
}


@pytest.mark.parametrize("cname", sorted(CLASSES))
def test_enumeration_matches_recursive_oracle_on_first_2000(cname):
    cls = CLASSES[cname]
    ds = enumerate_derivations(cls, 2000)
    text = "\n".join(map(d_print, ds))
    assert hashlib.sha256(text.encode()).hexdigest() == _FIRST_2000[cname]
    for i, d in enumerate(ds):
        assert d is rec_derivation_at(i, cls)
        assert index_of(d, cls) == i == rec_index_of(d, cls)


def _shared_dag(rng, cls, limit):
    """A derivation of the class with at most limit tree nodes, whose
    children are drawn from a pool of recent nodes, so subterms are
    shared."""
    ops = [op for op in Op if op in cls.allowed and ARITY[op]]
    pool = [(Derivation(op), 1) for op in Op
            if op in cls.allowed and not ARITY[op]]
    for _ in range(limit):
        op = rng.choice(ops)
        kids = [rng.choice(pool[-6:]) for _ in range(ARITY[op])]
        size = 1 + sum(n for _, n in kids)
        if size <= limit:
            pool.append((Derivation(op, tuple(k for k, _ in kids)), size))
    return max(pool, key=lambda p: p[1])[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CLASSES)), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=300))
def test_enumeration_matches_recursive_oracle_on_shared_dags(cname, rng,
                                                             limit):
    cls = CLASSES[cname]
    for k in range(2, 302):  # fill the oracle's caches bottom-up
        _block_start(cname, k)
    d = _shared_dag(rng, cls, limit)
    i = index_of(d, cls)
    assert i == rec_index_of(d, cls)
    assert derivation_at(i, cls) is d is rec_derivation_at(i, cls)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLASSES)), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=149))
def test_enumeration_of_left_leaning_chains_matches_recursive_oracle(
        cname, rng, n):
    # a binary node's left child holds nearly all of its nodes, so its
    # split sizes are counted from the far end
    cls = CLASSES[cname]
    for k in range(2, 302):
        _block_start(cname, k)
    atoms = [Derivation(op) for op in Op
             if op in cls.allowed and not ARITY[op]]
    binary = [op for op in Op if op in cls.allowed and ARITY[op] == 2]
    d = rng.choice(atoms)
    for _ in range(n):
        d = Derivation(rng.choice(binary), (d, rng.choice(atoms)))
    i = index_of(d, cls)
    assert i == rec_index_of(d, cls)
    assert derivation_at(i, cls) is d is rec_derivation_at(i, cls)


def test_left_leaning_chain_at_the_cap_round_trips():
    d = S
    for _ in range((_ENUM_NODES - 1) // 2):
        d = comp(d, S)
    assert d.node_count() == _ENUM_NODES - 1
    assert derivation_at(index_of(d, DA), DA) is d


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


@pytest.mark.parametrize("args,error,message", [
    (("bogus",), ValueError, "unknown bound kind 'bogus'"),
    (("mul", 0, (PolyBound("var"),)), ValueError, "mul takes 2 args, got 1"),
    (("var", 0, (PolyBound("var"),)), ValueError, "var takes 0 args, got 1"),
    (("const", True), TypeError, "is an int, got bool"),
    (("const", 2.0), TypeError, "is an int, got float"),
    (("const", -1), ValueError, "at least 0, got -1"),
    (("var", 5), ValueError, "a var bound holds no value, got 5"),
], ids=["kind", "mul-args", "var-args", "bool", "float", "negative",
        "var-value"])
def test_a_malformed_bound_is_rejected(args, error, message):
    with pytest.raises(error, match=message):
        PolyBound(*args)


def test_a_bool_constant_does_not_find_the_node_of_one():
    one = PolyBound("const", 1)
    for flag in (True, False):
        with pytest.raises(TypeError):
            PolyBound("const", flag)
    assert str(PolyBound("add", args=(PolyBound("var"), one))) == "(n + 1)"


def _comp_chain(depth, leaf=I):
    d = leaf
    for _ in range(depth):
        d = comp(S, d)
    return d


def _succ_term(depth, name="x"):
    t = Var(name)
    for _ in range(depth):
        t = Succ(t)
    return t


@pytest.mark.parametrize("node", [
    I, comp(S, P(I, I)), _tower(I, 40), PolyBound("var"),
    poly_bound(comp(S, P(I, I))), TPair(Zero(), Var("x")),
    App("f", TAdd(Succ(Var("y")), TMul(Zero(), Zero()))),
    _comp_chain(5000), _succ_term(5000)],
    ids=["atom", "derivation", "tower", "var", "bound", "pair", "term",
         "deep-chain", "deep-term"])
def test_copy_deepcopy_and_pickle_return_the_interned_node(node):
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert copy.deepcopy([node, node]) == [node, node]
    assert pickle.loads(pickle.dumps(node)) is node


def test_pickle_rebuilds_a_deep_node_that_is_gone():
    # a name and a leaf no other test uses in these shapes, so nothing
    # else keeps the nodes alive
    term = pickle.dumps(_succ_term(5000, "unpickled"))
    chain = pickle.dumps(_comp_chain(3000, ORACLE))
    gc.collect()
    assert Var._table.get(("unpickled",)) is None
    assert Derivation._table.get((Op.COMP, (S, ORACLE))) is None
    assert pickle.loads(term) is _succ_term(5000, "unpickled")
    assert pickle.loads(chain) is _comp_chain(3000, ORACLE)


def test_repr_of_a_deep_term_is_bounded_and_small_terms_are_spelled_out():
    assert repr(_succ_term(5000)) == ("<Succ: 5001 distinct nodes, "
                                      "5001 tree nodes>")
    assert repr(TPair(Zero(), Var("x"))) == \
        "TPair(left=Zero(), right=Var(name='x'))"
    assert repr(App("f", TAdd(Succ(Var("y")), TMul(Zero(), Zero())))) == (
        "App(fname='f', arg=TAdd(left=Succ(arg=Var(name='y')), "
        "right=TMul(left=Zero(), right=Zero())))")
    assert repr(_comp_chain(5000)) == ("<Derivation comp: 5002 distinct "
                                       "nodes, 10001 tree nodes>")


def test_a_dropped_node_is_collected():
    # built from operators no other test or module combines this way
    ref = weakref.ref(_tower(ORACLE, 9))
    tref = weakref.ref(TMul(Var("dropped"), Var("dropped")))
    gc.collect()
    assert ref() is None and tref() is None
    assert _tower(ORACLE, 9).node_count() == 2**10 - 1


def test_a_rebuilt_node_outlives_its_predecessors_callback():
    # built from operators no other test or module combines this way
    key = (Op.COMP, (ORACLE, _tower(ORACLE, 3)))
    assert key not in Derivation._table
    node = Derivation(*key)
    old = Derivation._table[key]
    callback = old.__callback__
    assert old() is node
    del node
    gc.collect()
    assert old() is None and key not in Derivation._table
    node = Derivation(*key)
    # a late callback of the old reference, as from a collection that
    # cleared it before the rebuild, leaves the new entry in place
    callback(old)
    assert Derivation._table[key]() is node
    assert Derivation(*key) is node


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


def test_enumeration_is_capped_on_deep_and_huge_inputs():
    with pytest.raises(EnumerationError, match="10001 tree nodes"):
        index_of(_comp_chain(5000), DA)
    with pytest.raises(EnumerationError, match="out of enumerated range"):
        derivation_at(10**4000, DA)
    # the cap itself is in range
    d = mu(_comp_chain((_ENUM_NODES - 2) // 2))
    assert d.node_count() == _ENUM_NODES
    assert derivation_at(index_of(d, DA), DA) is d
    with pytest.raises(EnumerationError):
        index_of(mu(d), DA)


def test_enumeration_of_a_custom_class_follows_its_operators():
    mine = AlgebraClass("mine", frozenset({Op.S, Op.I, Op.COMP}))
    ds = enumerate_derivations(mine, 200)
    assert ds[:6] == [S, I, comp(S, S), comp(S, I), comp(I, S), comp(I, I)]
    assert len(set(ds)) == 200 and all(validate(d, mine) for d in ds)
    assert [index_of(d, mine) for d in ds] == list(range(200))
    # a class named like a shipped one enumerates by its own operators
    fake = AlgebraClass("DA", mine.allowed)
    assert enumerate_derivations(fake, 200) == ds
    assert index_of(comp(S, I), fake) == 3
