"""End-to-end acceptance checks, shared by the test suite and `selftest`.

Each criterion function returns (ok, detail).  run_all executes criteria
1-12 and returns the results in order; criterion 13 (CLI round-trip plus
the selftest mechanism itself) lives in check_13 and takes the earlier
results so callers do not re-run the expensive checks.
"""

from __future__ import annotations

import itertools
import random

from . import codec
from .codec import FinSet, list_encode, pair, seq_decode, seq_encode, seq_len
from .clausal import (OracleMem, Rel, Succ, TAdd, TMul, TPair, Var, Zero,
                      eval_clausal, print_cl, parse_cl)
from .compiler import (VarCtx, compile_explicit, compile_formula,
                       compile_term, eval_formula_direct, eval_term_direct,
                       pack_args)
from .compiler import FBoundedEx, FNot, FOr, FQuasiBoundedEx
from .clausal import App
from .corpus import corpus_def, corpus_defs
from .derivation import (CLASSES, DA, Derivation, I, PolyBound, S, SA, TA,
                         comp, d_parse, d_print, derivation_at, index_of,
                         mu, poly_bound, validate)
from .evaluator import Budget, BudgetExceeded, Meter, eval_memo, eval_naive
from .harness import (CharMode, char_run, membership_predicate,
                      parity_predicate, scaling_study)
from .reduction import reduce_bounded_nested_to_snr, reduce_recursive_to_pr

_BIG = Budget(max_steps=10**9, max_bits=10**6)


def check_1_pairing():
    for z in range(1, 10_001):
        x, y = codec.unpair(z)
        if codec.pair(x, y) != z:
            return False, f"unpair/pair mismatch at z={z}"
        if not (codec.head(z) < z and codec.tail(z) < z):
            return False, f"projection not below z={z}"
    for x in range(81):
        for y in range(81):
            if codec.unpair(codec.pair(x, y)) != (x, y):
                return False, f"pair/unpair mismatch at ({x},{y})"
    return True, "pair/unpair inverses on z<=10^4 and x,y<=80"


def check_2_sequences():
    for n in range(13):
        for bits in itertools.product((0, 1), repeat=n):
            if tuple(seq_decode(seq_encode(bits))) != bits:
                return False, f"decode/encode mismatch at {bits}"
    if seq_len(1) != 0 or seq_len(20) != 4:
        return False, "seq_len worked examples failed"
    for i in range(21):
        if seq_encode([0] * i) != 2 ** i:
            return False, f"0^{i} code"
        if seq_encode([1] * i) != 2 ** (i + 1) - 1:
            return False, f"1^{i} code"
    return True, "sequence codec exact on vectors of length <= 12"


def _term_corpus():
    x, y, z = Var("x"), Var("y"), Var("z")
    one_var = [
        x, Zero(), Succ(x), TAdd(x, x), TMul(x, x), TPair(x, Succ(x)),
        Succ(Succ(Zero())), TAdd(TMul(x, x), Succ(x)), TPair(Zero(), x),
        TMul(Succ(x), Succ(x)),
    ]
    two_var = [
        TAdd(x, y), TMul(x, y), TPair(x, y), TAdd(TMul(x, y), x),
        TPair(TAdd(x, y), TMul(x, y)), Succ(TAdd(x, TMul(y, y))),
        TMul(TAdd(x, y), Succ(y)),
    ]
    three_var = [
        TAdd(x, TAdd(y, z)), TMul(x, TAdd(y, z)), TPair(x, TPair(y, z)),
        TAdd(TMul(x, y), z),
    ]
    return ([(t, ("x",)) for t in one_var]
            + [(t, ("x", "y")) for t in two_var]
            + [(t, ("x", "y", "z")) for t in three_var])


def check_3_terms():
    corpus = _term_corpus()
    if len(corpus) < 20:
        return False, "term corpus too small"
    for t, names in corpus:
        ctx = VarCtx.of(*names)
        d = compile_term(t, ctx, {})
        for vals in itertools.product(range(16), repeat=len(names)):
            env = dict(zip(names, vals))
            got = eval_naive(d, pack_args(list(vals)), budget=_BIG)
            want = eval_term_direct(t, env, {})
            if got != want:
                return False, f"term {t} at {env}: {got} != {want}"
    return True, f"{len(corpus)} quasi-terms exact on [0,15]^k"


def _formula_corpus():
    x, y, z = Var("x"), Var("y"), Var("z")
    return [
        (Rel(x, "<", y), ("x", "y")),
        (Rel(TAdd(x, x), "=", y), ("x", "y")),
        (OracleMem(x), ("x",)),
        (FNot(OracleMem(x)), ("x",)),
        (FOr(Rel(x, "<", y), Rel(y, "<", x)), ("x", "y")),
        (FBoundedEx("z", Succ(x), Rel(TAdd(z, z), "=", x)), ("x",)),
        (FBoundedEx("z", y, OracleMem(z)), ("x", "y")),
        (FNot(FBoundedEx("z", x, Rel(TMul(z, z), "=", x))), ("x",)),
        (FQuasiBoundedEx("z", "halfish", x, Rel(TAdd(z, z), "=", x)), ("x",)),
        (FOr(OracleMem(x), FBoundedEx("z", y, Rel(z, "=", x))), ("x", "y")),
    ]


def check_4_formulas():
    oracle = FinSet((1, 3, 5))
    env = {"halfish": _ceil_half_derivation()}
    fenv = {"halfish": lambda n: (n + 1) // 2}
    for f, names in _formula_corpus():
        ctx = VarCtx.of(*names)
        d = compile_formula(f, ctx, env)
        for vals in itertools.product(range(16), repeat=len(names)):
            venv = dict(zip(names, vals))
            got = eval_naive(d, pack_args(list(vals)), oracle=oracle,
                             budget=_BIG)
            want = 1 if eval_formula_direct(f, venv, oracle, fenv) else 0
            if got not in (0, 1):
                return False, f"non 0-1 value {got} for {f}"
            if got != want:
                return False, f"formula {f} at {venv}: {got} != {want}"
    return True, "formula compiler 0-1-valued and exact on [0,15]^k"


def _ceil_half_derivation():
    # ceil(n/2) as the least z < S(n) with n < S(z + z)
    from .compiler import HD, TL, lt_d
    from .derivation import P
    from .reduction import add_d
    test = lt_d(TL, comp(S, add_d(HD, HD)))
    return comp(mu(test), P(comp(S, I), I))


def check_5_mu():
    rng = random.Random(5)
    pool = [derivation_at(i, DA) for i in range(40, 400)]
    pool = [d for d in pool if d.node_count() <= 4][:80]
    checked = 0
    for d in pool:
        if checked >= 50:
            break
        bnd = rng.randint(0, 50)
        p = rng.randint(0, 50)
        try:
            got = eval_naive(mu(d), pair(bnd, p), budget=_BIG)
            want = bnd
            for z in range(bnd):
                if eval_naive(d, pair(z, p), budget=_BIG) == 1:
                    want = z
                    break
        except BudgetExceeded:
            continue
        if got != want:
            return False, f"mu mismatch for {d_print(d)} bnd={bnd} p={p}"
        checked += 1
    if checked < 50:
        return False, f"only {checked} mu cases checked"
    return True, "mu equals brute-force search on 50 random g"


def check_6_explicit():
    defs = corpus_defs()
    env: dict[str, Derivation] = {}
    compiled = []
    for d in defs:
        if d.kind != "explicit":
            continue
        dd = compile_explicit(d, env)
        env[d.name] = dd
        compiled.append((d.name, dd))
    oracle = FinSet((2, 3, 7, 100))
    for name, dd in compiled:
        for x in range(201):
            got = eval_naive(dd, x, oracle=oracle, budget=_BIG)
            want = eval_clausal(defs, name, x, oracle=oracle, budget=_BIG)
            if got != want:
                return False, f"{name}({x}): compiled {got} != clausal {want}"
    return True, f"{len(compiled)} explicit defs exact on [0,200]"


def check_7_pr_reduction():
    defs = corpus_defs()
    nested = corpus_def("nested")
    art = reduce_recursive_to_pr(nested, {})
    if not validate(art.result, CLASSES["PRA"]):
        return False, "nested reduction not in PRA"
    for x in range(7):
        got = eval_memo(art.result, x, budget=_BIG)
        want = eval_clausal(defs, "nested", x)
        if got != want:
            return False, f"nested({x}): {got} != {want}"
    lart = reduce_recursive_to_pr(corpus_def("L"), {})
    if not validate(lart.result, CLASSES["PRA"]):
        return False, "L reduction not in PRA"
    for n in range(4):
        for tup in itertools.product(range(6), repeat=n):
            x = list_encode(list(tup))
            got = eval_memo(lart.result, x, budget=_BIG)
            if got != n:
                return False, f"L{list(tup)}: {got} != {n}"
    return True, "PR reductions of nested and L exact"


def check_8_snr_reduction():
    defs = corpus_defs()
    bound = PolyBound("var")  # both examples are bounded by x
    for name in ("L", "nested"):
        d = reduce_bounded_nested_to_snr(corpus_def(name), bound)
        if not validate(d, TA):
            return False, f"{name} SNR reduction not in TA"
        for x in range(65):
            got = eval_memo(d, x, budget=_BIG)
            want = eval_clausal(defs, name, x)
            if got != want:
                return False, f"{name}({x}) via SNR: {got} != {want}"
    return True, "SNR reductions of L and nested exact on [0,64]"


def check_9_course_of_values():
    from .harness import snr_zero_predicate
    from .derivation import Op
    runs = [(snr_zero_predicate(), x) for x in range(0, 60, 7)]
    bound = PolyBound("var")
    snr_l = reduce_bounded_nested_to_snr(corpus_def("L"), bound)
    runs += [(snr_l, x) for x in range(0, 65, 9)]
    from .evaluator import evaluate
    for d, x in runs:
        log: list = []
        evaluate(d, x, budget=_BIG, memo=True, expansion_log=log)
        per_node: dict[int, dict] = {}
        for node, arg in log:
            if node.op is not Op.SNR:
                continue
            info = per_node.setdefault(id(node), {"v0": codec.head(arg),
                                                  "heads": set()})
            info["heads"].add(codec.head(arg))
            info["v0"] = max(info["v0"], codec.head(arg))
        for info in per_node.values():
            if len(info["heads"]) > info["v0"] + 1:
                return False, (f"{len(info['heads'])} distinct expansions "
                               f"exceed v+1 = {info['v0'] + 1}")
    return True, "snr expansions within v+1 distinct first components"


def _random_derivation(rng, cls, depth, evalsafe=True):
    """A random derivation of the class, its operators drawn in pre-order:
    at depth 0 a leaf, above it any operator (PR, E and smash left out
    when evalsafe), each child one level down."""
    from .derivation import ARITY, Op, _ENUM_TAG_ORDER
    skip = (Op.PR, Op.E, Op.SMASH) if evalsafe else ()
    ops = [op for op in _ENUM_TAG_ORDER
           if op in cls.allowed and op not in skip]
    leaves = [op for op in ops if ARITY[op] == 0]
    drawn, todo = [], [depth]
    while todo:  # siblings have one depth, so a stack keeps pre-order
        k = todo.pop()
        op = rng.choice(ops if k else leaves)
        drawn.append(op)
        todo += [k - 1] * ARITY[op]
    # build from the right end of the prefix form: each operator's
    # children are then on top of the stack, first child topmost
    built: list[Derivation] = []
    for op in reversed(drawn):
        kids = tuple(built.pop() for _ in range(ARITY[op]))
        built.append(Derivation(op, kids))
    return built[0]


def check_10_poly_bound():
    rng = random.Random(10)
    grid = list(range(11)) + [50, 100, 250, 1000]
    budget = Budget(max_steps=200_000, max_bits=10**6)
    corpus = []
    tried = 0
    while len(corpus) < 200 and tried < 5000:
        tried += 1
        cls = CLASSES[rng.choice(["DA", "SA", "TA"])]
        d = _random_derivation(rng, cls, rng.randint(1, 4))
        try:
            b = poly_bound(d)
            vals = [eval_naive(d, x, budget=Budget(budget.max_steps, 10**6))
                    for x in grid]
        except BudgetExceeded:
            continue  # too expensive to test at this grid; resample
        for x, v in zip(grid, vals):
            if v > b(x):
                return False, (f"bound violated: {d_print(d)} at {x}: "
                               f"{v} > {b(x)}")
        corpus.append(d)
    if len(corpus) < 200:
        return False, f"only {len(corpus)} derivations admitted"
    return True, f"{len(corpus)} derivations within poly_bound on the grid"


def check_11_enumeration():
    rng = random.Random(11)
    count = 0
    for cname in ("DA", "SA", "TA", "PRA", "DEA"):
        cls = CLASSES[cname]
        for _ in range(100):
            d = _random_derivation(rng, cls, rng.randint(0, 4),
                                   evalsafe=False)
            i = index_of(d, cls)
            if derivation_at(i, cls) != d:
                return False, f"roundtrip failed for {d_print(d)} in {cname}"
            for ch in d.children:
                if index_of(ch, cls) >= i:
                    return False, f"child index not below parent: {d_print(d)}"
            count += 1
    return True, f"enumeration roundtrip on {count} derivations"


def check_12_harness():
    p = parity_predicate()
    for x in range(257):
        ok, _ = char_run(p, CharMode.ZERO, x)
        if ok != (x % 2 == 0):
            return False, f"parity wrong at {x}"
    mem = membership_predicate()
    rng = random.Random(12)
    for _ in range(100):
        els = tuple(sorted(rng.sample(range(64), rng.randint(0, 8))))
        X = FinSet(els)
        ok, _ = char_run(mem, CharMode.ONE, X)
        if ok != (len(els) > 0):
            return False, f"membership wrong on {els}"
    rep = scaling_study(mem, CharMode.ONE, [8, 16, 32, 64], 3, seed=12)
    if rep.truncated or rep.fitted_exponent > 2:
        return False, f"membership exponent {rep.fitted_exponent}"
    return True, "parity, membership, and scaling exponent <= 2"


CRITERIA = [
    ("pairing calculus", check_1_pairing),
    ("sequence codec", check_2_sequences),
    ("term compiler", check_3_terms),
    ("formula compiler", check_4_formulas),
    ("mu semantics", check_5_mu),
    ("explicit-clause compiler", check_6_explicit),
    ("recursive-to-PR reduction", check_7_pr_reduction),
    ("bounded-nested-to-SNR reduction", check_8_snr_reduction),
    ("course-of-values property", check_9_course_of_values),
    ("polynomial boundedness", check_10_poly_bound),
    ("enumeration", check_11_enumeration),
    ("characterization harness", check_12_harness),
]


def run_all():
    """Run criteria 1-12; returns a list of (number, name, ok, detail)."""
    out = []
    for n, (name, fn) in enumerate(CRITERIA, start=1):
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(e).__name__}: {e}"
        out.append((n, name, ok, detail))
    return out


def check_13_cli(results=None):
    """Parse->print fixpoint on the corpus, and criteria 1-12 all green.

    `results` may carry a prior run_all() result to avoid re-running."""
    defs = corpus_defs()
    printed = "".join(print_cl(d) + "\n" for d in defs)
    reparsed = parse_cl(printed)
    reprinted = "".join(print_cl(d) + "\n" for d in reparsed)
    if printed != reprinted:
        return False, "parse->print not a fixpoint on the corpus"
    if results is None:
        results = run_all()
    bad = [n for (n, _, ok, _) in results if not ok]
    if bad:
        return False, f"criteria {bad} failed"
    return True, "corpus round-trip fixpoint and criteria 1-12 green"
