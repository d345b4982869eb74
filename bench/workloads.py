"""The benchmark's four workloads over funalg.

Each workload is built from a seed: its constructor parses the corpus and
generates every input (set-up), `build` produces every derivation it runs,
and `cases` lists the checked cases one pass runs.  A case calls funalg
through the tracer, checks each output against a reference that does not
share the code under test, and adds its counters to a `Counts`.  A case
that returns a wrong value raises `Wrong`; any other exception it raises
(`BudgetExceeded`, `RecursionError`, ...) is a failed case too.

Inputs are drawn by stratified sampling: a workload splits the range of
an input into strata and draws from each, so the work in a pass varies
little from seed to seed.  Where a few costly inputs dominate a pass, each
stratum gives an antithetic pair, a + r and b - 1 - r, whose costs sum to
nearly the same for every r.
"""

from __future__ import annotations

import random
from functools import partial
from math import isqrt

from funalg import (CLASSES, DA, PRA, TA, Budget, CharMode, FinSet,
                    Meter, Op, PolyBound, UnboundedOperatorError, I,
                    P, VarCtx, build_dispatcher, char_run, compile_explicit,
                    compile_formula, compile_term, comp, d_parse, d_print,
                    derivation_at, eval_clausal, eval_formula_direct,
                    eval_memo, eval_naive, eval_term_direct, head, index_of,
                    list_concat, list_decode, list_len, pack_args, pair,
                    parse_cl, poly_bound, reduce_bounded_nested_to_snr,
                    reduce_recursive_to_pr, scaling_study, tail, unpair,
                    validate)
from funalg.clausal import App, Succ, TAdd, TMul, TPair, Var, Zero
from funalg.compiler import (FAnd, FBoundedEx, FNot, FOr, FOracle,
                             FQuasiBoundedEx, FRel)
from funalg.corpus import CORPUS_TEXT
from funalg.derivation import ARITY, Derivation
from funalg import harness

# Every evaluation a case makes runs under this budget, so a case that
# would run away ends as a failed case instead of exhausting memory.
BUDGET = Budget(max_steps=2**20, max_bits=2**15)

PR_DEFS = ("L", "last", "sumlist", "cat", "addp", "nested")
SNR_DEFS = ("L", "nested")
UNBOUNDED_OPS = frozenset({Op.PR, Op.E, Op.SMASH})


class Wrong(Exception):
    """A case produced a value that differs from its reference."""


class Counts(dict):
    """Counters of one case or pass, keyed "layer.name"."""

    MAX_KEYS = frozenset({"evaluator.peak_bits", "evaluator.max_depth",
                          "codec.max_bits"})

    def add(self, key: str, v: int) -> None:
        self[key] = self.get(key, 0) + v

    def high(self, key: str, v: int) -> None:
        self[key] = max(self.get(key, 0), v)

    def meter(self, m: Meter, layer: str = "evaluator") -> None:
        self.add(f"{layer}.steps", m.steps)
        if layer == "evaluator":
            self.add("evaluator.memo_hits", m.memo_hits)
            self.high("evaluator.peak_bits", m.peak_bits)
            self.high("evaluator.max_depth", m.max_depth)

    def merge(self, other: "Counts") -> None:
        for k, v in other.items():
            if k in self.MAX_KEYS:
                self.high(k, v)
            else:
                self.add(k, v)


def check(got, want, what: str) -> None:
    if got != want:
        raise Wrong(f"{what}: got {_short(got)}, want {_short(want)}")


def _short(v) -> str:
    if isinstance(v, int) and v.bit_length() > 64:
        return f"<{v.bit_length()}-bit int>"
    return repr(v)[:80]


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of k equal strata of [lo, hi)."""
    w = (hi - lo) / k
    return [lo + (i + rng.random()) * w for i in range(k)]


def _antithetic(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """An antithetic pair from each of k equal integer strata of [lo, hi)."""
    out = []
    for i in range(k):
        a, b = lo + (hi - lo) * i // k, lo + (hi - lo) * (i + 1) // k
        r = rng.randrange(b - a)
        out += [a + r, b - 1 - r]
    return out


# --- the benchmark's own derivation tools -----------------------------------
#
# Independent of funalg's traversals: iterative, and aware of sharing, so
# they also serve as references for node counts and round trips.


def post_order(root, kids) -> list:
    """Distinct nodes (by identity) under root, children before parents."""
    out, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((c, False) for c in kids(node))
    return out


def _children(d: Derivation):
    return d.children


def dag_size(d: Derivation) -> int:
    return len(post_order(d, _children))


def tree_size(d: Derivation) -> int:
    size: dict[int, int] = {}
    for n in post_order(d, _children):
        size[id(n)] = 1 + sum(size[id(c)] for c in n.children)
    return size[id(d)]


def ops_of(d: Derivation) -> frozenset:
    return frozenset(n.op for n in post_order(d, _children))


def same_derivation(a: Derivation, b: Derivation) -> bool:
    seen, stack = set(), [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if x.op is not y.op or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def bound_value(b: PolyBound, n: int) -> int:
    val: dict[int, int] = {}
    for p in post_order(b, lambda p: p.args):
        if p.kind == "const":
            v = p.value
        elif p.kind == "var":
            v = n
        else:
            l, r = (val[id(a)] for a in p.args)
            v = l + r if p.kind == "add" else l * r
        val[id(p)] = v
    return val[id(b)]


def unbounded_outside_recursion(d: Derivation) -> bool:
    """Whether an operator without a polynomial bound is reachable from the
    root through P and comp alone.  mu, bpr and snr bound their value by
    their argument whatever they contain."""
    stack = [d]
    while stack:
        n = stack.pop()
        if n.op in UNBOUNDED_OPS:
            return True
        if n.op in (Op.P, Op.COMP):
            stack.extend(n.children)
    return False


def home_class(d: Derivation):
    """The first class, in CLASSES order, that admits every operator of d."""
    ops = ops_of(d)
    return next(c for c in CLASSES.values() if ops <= c.allowed)


# --- shared case bodies ------------------------------------------------------


def evaluate(tr, cnt: Counts, fn, d: Derivation, x: int, **kw) -> int:
    """Evaluate under the case budget, counting the meter even on failure."""
    m = Meter()
    try:
        return tr.call("evaluator", fn, d, x, budget=BUDGET, meter=m, **kw)
    finally:
        cnt.meter(m)


def clausal(tr, cnt: Counts, defs, name: str, x: int, **kw) -> int:
    m = Meter()
    try:
        return tr.call("clausal", eval_clausal, defs, name, x,
                       budget=BUDGET, meter=m, **kw)
    finally:
        cnt.meter(m, "clausal")


def codec_reference(tr, cnt: Counts, name: str, x: int) -> int:
    """The corpus recursive definitions computed through the codec."""
    cnt.high("codec.max_bits", x.bit_length())
    if name == "L":
        return tr.call("codec", list_len, x)
    if name in ("last", "sumlist"):
        xs = tr.call("codec", list_decode, x)
        if name == "sumlist":
            return sum(xs)
        return xs[-1] if xs else 0
    if name == "nested":
        return 0
    a, b = tr.call("codec", unpair, x) if x else (0, 0)
    if name == "addp":
        return a + b
    return tr.call("codec", list_concat, a, b)  # cat


def recursive_case(tr, cnt: Counts, defs, name: str, d: Derivation,
                   x: int) -> None:
    """A reduced recursive definition against both references.

    cnt holds this case's counts only, so the steps ratio pairs the two
    evaluations of one input."""
    got = evaluate(tr, cnt, eval_memo, d, x)
    want = clausal(tr, cnt, defs, name, x)
    cnt.add("reduction.steps", cnt["evaluator.steps"])
    cnt.add("reduction.clausal_steps", cnt["clausal.steps"])
    check(got, want, f"{name}({x}) against eval_clausal")
    check(got, codec_reference(tr, cnt, name, x),
          f"{name}({x}) against the codec")


# codes of the all-zero lists of length 0, 1, 2, ...: the least code of
# each length
ZERO_LISTS = (0, 1, 2, 4, 11, 67, 2279)


def random_list_below(rng: random.Random, s: int, tr) -> int:
    """A list code below s with random length and elements in [0, 3]."""
    n = rng.choice([k for k, z in enumerate(ZERO_LISTS) if z < s])
    while True:
        code = 0
        for _ in range(n):
            code = tr.call("codec", pair, rng.randrange(4), code)
        if code < s:
            return code


class Workload:
    name = ""

    def __init__(self, seed: int, tr):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.defs = tr.call("clausal", parse_cl, CORPUS_TEXT)
        self.by_name = {d.name: d for d in self.defs}
        self.code: list[Derivation] = []

    def build(self, tr) -> None:
        """Produce every derivation the cases run; sets self.code."""
        raise NotImplementedError

    def cases(self) -> list:
        """[(case_id, fn(tr, counts))] for one pass."""
        raise NotImplementedError


# --- pr_stack ---------------------------------------------------------------


class Reduced(Workload):
    """A workload whose cases run reduced recursive definitions; build
    sets self.reduced, a derivation per definition name."""

    def cases(self):
        return [(f"{name}:{x}", partial(recursive_case, defs=self.defs,
                                        name=name, d=self.reduced[name], x=x))
                for name, x in self.inputs]


class PrStack(Reduced):
    """Recursive corpus definitions reduced to primitive recursion.

    The iteration count of the reduced derivation follows the input's
    value, not its recursion depth.  So each definition gets one input per
    value target, the midpoints of 16 log-scale strata over [2^3, 2^13],
    and the seed draws the input's shape at that value: a pair (a, b) with
    a + b = isqrt(2t) codes a value near t whatever the split.  Lists get
    a random depth and random small elements after the head; cat a random
    split between its two lists; addp a recursion depth v in [0, 6].
    nested (J = 2) iterates 4 * 2^x times and gets every x in [0, 9).
    """

    name = "pr_stack"
    TARGETS = 16

    def __init__(self, seed, tr):
        super().__init__(seed, tr)
        rng = self.rng
        targets = [int(2 ** (3 + 10 * (i + 0.5) / self.TARGETS))
                   for i in range(self.TARGETS)]
        self.inputs = []
        for name in ("L", "last", "sumlist", "cat", "addp"):
            for t in targets:
                s = isqrt(2 * t)
                if name == "cat":
                    b = rng.randrange(s // 2 + 1)
                elif name == "addp":
                    b = s - rng.randint(0, min(6, s))
                else:
                    b = random_list_below(rng, s, tr)
                self.inputs.append((name, tr.call("codec", pair, s - b, b)))
        self.inputs += [("nested", x) for x in range(9)]

    def build(self, tr):
        self.reduced = {}
        for name in PR_DEFS:
            d = tr.call("reduction", reduce_recursive_to_pr,
                        self.by_name[name], {}).result
            if not tr.call("derivation", validate, d, PRA):
                raise Wrong(f"PR reduction of {name} is not in PRA")
            self.reduced[name] = d
        self.code = list(self.reduced.values())


# --- snr_nested -------------------------------------------------------------


class SnrNested(Reduced):
    """Bounded nested definitions reduced to special nested recursion.

    nested's cost grows about as x^1.85 (925,365 steps at x = 64), so its
    inputs are x = 64 and antithetic pairs from three strata of [0, 48);
    L is cheap and takes antithetic pairs from 20 strata of [0, 65).
    """

    name = "snr_nested"

    def __init__(self, seed, tr):
        super().__init__(seed, tr)
        rng = self.rng
        self.inputs = [("nested", 64)]
        self.inputs += [("nested", x) for x in _antithetic(rng, 3, 0, 48)]
        self.inputs += [("L", x) for x in _antithetic(rng, 20, 0, 65)]

    def build(self, tr):
        self.reduced = {}
        for name in SNR_DEFS:
            d = tr.call("reduction", reduce_bounded_nested_to_snr,
                        self.by_name[name], PolyBound("var"))
            if not tr.call("derivation", validate, d, TA):
                raise Wrong(f"SNR reduction of {name} is not in TA")
            self.reduced[name] = d
        self.code = list(self.reduced.values())


# --- compile_grid -----------------------------------------------------------

# Explicit corpus functions usable in generated terms, with independent
# Python definitions for the direct interpreters.
TERM_FNS = {
    "double": lambda n: 2 * n,
    "pred": lambda n: max(n - 1, 0),
    "first": head,
    "second": tail,
}

# Reference truth of each shipped predicate on the number n it decides
# (x in Zero mode, ||X|| in One mode) and the set X (empty in Zero mode).
PREDICATE_TRUTH = {
    "parity": lambda n, xs: n % 2 == 0,
    "membership": lambda n, xs: len(xs) > 0,
    "constant": lambda n, xs: True,
    "doubling_clamp": lambda n, xs: 1 <= n <= 2,
    "snr_zero": lambda n, xs: False,
    "exhaustive_search": lambda n, xs: True,
}

VARS = ("x", "y", "z")


def random_term(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(names)) if rng.random() < 0.8 else Zero()
    kind = rng.randrange(5)
    if kind == 0:
        return Succ(random_term(rng, names, depth - 1))
    if kind == 4:
        # pred runs a mu scan as long as its argument, so arguments of
        # function calls stay small
        return App(rng.choice(sorted(TERM_FNS)), random_term(rng, names, 0))
    cls = (TPair, TAdd, TMul)[kind - 1]
    return cls(random_term(rng, names, depth - 1),
               random_term(rng, names, depth - 1))


def random_formula(rng: random.Random, names, depth: int, quantify=True):
    """A random formula; at most one bounded quantifier on any path, with a
    bound of at most 2*15 + 1, so a formula's scan stays small."""
    kind = rng.randrange(7 if depth > 0 else 2)
    if kind == 0:
        return FRel(random_term(rng, names, 1), rng.choice("<="),
                    random_term(rng, names, 1))
    if kind == 1:
        return FOracle(random_term(rng, names, 1))
    if kind == 2:
        return FNot(random_formula(rng, names, depth - 1, quantify))
    if kind in (3, 4):
        cls = FOr if kind == 3 else FAnd
        return cls(random_formula(rng, names, depth - 1, quantify),
                   random_formula(rng, names, depth - 1, quantify))
    var = "w"
    if not quantify:
        return random_formula(rng, names, 0)
    inner = (var,) + tuple(names)
    body = random_formula(rng, inner, depth - 1, False)
    if kind == 5:
        bound = rng.choice([Var(rng.choice(names)),
                            Succ(Var(rng.choice(names))),
                            TAdd(Var(rng.choice(names)),
                                 Succ(Var(rng.choice(names))))])
        return FBoundedEx(var, bound, body)
    fname = rng.choice(sorted(TERM_FNS))
    return FQuasiBoundedEx(var, fname, Var(rng.choice(names)), body)


def assignments(rng: random.Random, names) -> list[list[int]]:
    """Two antithetic pairs of assignments from [0, 15]: v and 15 - v."""
    out = []
    for _ in range(2):
        vals = [rng.randrange(16) for _ in names]
        out += [vals, [15 - v for v in vals]]
    return out


def random_finset(rng: random.Random, size: int) -> FinSet:
    """A random set with ||X|| = size."""
    if size == 0:
        return FinSet(())
    below = [e for e in range(size - 1) if rng.random() < 0.5]
    return FinSet(tuple(below) + (size - 1,))


class CompileGrid(Workload):
    """Many short, unmemoized evaluations of compiled code.

    The explicit corpus and the dispatchers of the recursive corpus run
    against eval_clausal on x from strata of [0, 201).  Random quasi-terms
    and formulas, generated from a fixed seed so that their compiled code
    is the same in every run, run against the direct interpreters on
    antithetic pairs of assignments from [0, 15] drawn from the run's
    seed, since a quantifier's scan is as long as its bound.  Every shipped
    predicate runs through char_run at every n in [0, 11) and through
    scaling_study, in both modes.
    """

    name = "compile_grid"
    PER_DEF = 10
    TERMS = 48
    FORMULAS = 48
    # exhaustive_search costs 2^n steps at n, so the sizes the predicates
    # run at are fixed and the seed draws the sets and the study inputs
    CHAR_SIZES = range(11)
    STUDY_SIZES = (2, 4, 6, 8)

    def __init__(self, seed, tr):
        super().__init__(seed, tr)
        rng = self.rng
        self.oracle = FinSet(tuple(sorted(rng.sample(range(32), 6))))
        self.explicit_x = {
            d.name: [int(x) for x in _strata(rng, self.PER_DEF, 0, 201)]
            for d in self.defs if d.kind == "explicit"}
        # dispatcher inputs (x, c): c lists the partial results computed
        self.dispatch_x = {}
        for d in self.defs:
            if d.kind == "recursive":
                xs = []
                for x in _strata(rng, self.PER_DEF, 0, 201):
                    c = 0
                    for _ in range(rng.randint(0, 2)):
                        c = tr.call("codec", pair, rng.randrange(16), c)
                    xs.append(tr.call("codec", pair, int(x), c))
                self.dispatch_x[d.name] = xs
        shapes = random.Random("compile_grid corpus")
        self.terms = []
        for i in range(self.TERMS):
            names = VARS[:1 + i % 3]
            t = random_term(shapes, names, 1 + i % 3)
            self.terms.append((t, names, assignments(rng, names)))
        self.formulas = []
        for i in range(self.FORMULAS):
            names = VARS[:1 + i % 3]
            f = random_formula(shapes, names, 1 + i % 3)
            self.formulas.append((f, names, assignments(rng, names)))
        self.char_inputs = []
        for name in harness.PREDICATES:
            for n in self.CHAR_SIZES:
                self.char_inputs.append((name, CharMode.ZERO, n))
                self.char_inputs.append(
                    (name, CharMode.ONE, random_finset(rng, n)))
        self.studies = [
            (name, mode, self.STUDY_SIZES, rng.randrange(2**16))
            for name in harness.PREDICATES
            for mode in (CharMode.ZERO, CharMode.ONE)]

    def build(self, tr):
        env: dict[str, Derivation] = {}
        for d in self.defs:
            if d.kind == "explicit":
                env[d.name] = tr.call("compiler", compile_explicit, d, env)
        self.explicit = {n: env[n] for n in self.explicit_x}
        self.dispatch = {}
        for name in self.dispatch_x:
            h_def, _ = tr.call("reduction", build_dispatcher,
                               self.by_name[name])
            self.dispatch[name] = (
                h_def, tr.call("compiler", compile_explicit, h_def, env))
        fenv = {f: env[f] for f in TERM_FNS}
        self.term_d = [tr.call("compiler", compile_term, t,
                               VarCtx.of(*names), fenv)
                       for t, names, _ in self.terms]
        self.formula_d = [tr.call("compiler", compile_formula, f,
                                  VarCtx.of(*names), fenv)
                          for f, names, _ in self.formulas]
        self.predicates = {name: tr.call("harness", make)
                           for name, make in harness.PREDICATES.items()}
        compiled = (list(self.explicit.values())
                    + [d for _, d in self.dispatch.values()]
                    + self.term_d + self.formula_d)
        for d in compiled:
            if not tr.call("derivation", validate, d, DA):
                raise Wrong("compiled code outside DA")
        self.code = compiled + list(self.predicates.values())

    def cases(self):
        out = []
        for name, xs in self.explicit_x.items():
            out += [(f"explicit:{name}:{x}",
                     partial(self.explicit_case, name=name, x=x)) for x in xs]
        for name, xs in self.dispatch_x.items():
            out += [(f"dispatch:{name}:{x}",
                     partial(self.dispatch_case, name=name, x=x)) for x in xs]
        for i, (_, _, points) in enumerate(self.terms):
            out += [(f"term:{i}:{vals}",
                     partial(self.term_case, i=i, vals=vals))
                    for vals in points]
        for i, (_, _, points) in enumerate(self.formulas):
            out += [(f"formula:{i}:{vals}",
                     partial(self.formula_case, i=i, vals=vals))
                    for vals in points]
        out += [(f"char:{name}:{mode.value}:{inp}",
                 partial(self.char_case, name=name, mode=mode, inp=inp))
                for name, mode, inp in self.char_inputs]
        out += [(f"scaling:{name}:{mode.value}:{seed}",
                 partial(self.study_case, name=name, mode=mode, sizes=sizes,
                         seed=seed))
                for name, mode, sizes, seed in self.studies]
        return out

    def explicit_case(self, tr, cnt, name, x):
        got = evaluate(tr, cnt, eval_naive, self.explicit[name], x,
                       oracle=self.oracle)
        want = clausal(tr, cnt, self.defs, name, x, oracle=self.oracle)
        check(got, want, f"compiled {name}({x})")

    def dispatch_case(self, tr, cnt, name, x):
        h_def, d = self.dispatch[name]
        got = evaluate(tr, cnt, eval_naive, d, x)
        want = clausal(tr, cnt, self.defs + [h_def], h_def.name, x)
        check(got, want, f"compiled {h_def.name}({x})")

    def term_case(self, tr, cnt, i, vals):
        t, names, _ = self.terms[i]
        x = tr.call("compiler", pack_args, vals)
        cnt.high("codec.max_bits", x.bit_length())
        got = evaluate(tr, cnt, eval_naive, self.term_d[i], x)
        want = tr.call("compiler", eval_term_direct, t,
                       dict(zip(names, vals)), TERM_FNS)
        check(got, want, f"term {i} at {vals}")

    def formula_case(self, tr, cnt, i, vals):
        f, names, _ = self.formulas[i]
        x = tr.call("compiler", pack_args, vals)
        got = evaluate(tr, cnt, eval_naive, self.formula_d[i], x,
                       oracle=self.oracle)
        want = tr.call("compiler", eval_formula_direct, f,
                       dict(zip(names, vals)), self.oracle, TERM_FNS)
        check(got, int(want), f"formula {i} at {vals}")

    def char_case(self, tr, cnt, name, mode, inp):
        ok, m = tr.call("harness", char_run, self.predicates[name], mode,
                        inp, budget=BUDGET)
        cnt.meter(m, "harness")
        if mode is CharMode.ZERO:
            want = PREDICATE_TRUTH[name](inp, ())
        else:
            want = PREDICATE_TRUTH[name](inp.size(), tuple(inp))
        check(ok, want, f"{name} in {mode.value} mode on {inp}")

    def study_case(self, tr, cnt, name, mode, sizes, seed):
        rep = tr.call("harness", scaling_study, self.predicates[name], mode,
                      sizes, 2, seed=seed, budget=BUDGET)
        cnt.add("harness.steps", sum(steps for _, steps, _ in rep.rows))
        if rep.truncated:
            raise Truncated(f"{name} scaling study in {mode.value} mode")
        check([s for s, _, _ in rep.rows], [s for s in sizes for _ in (0, 1)],
              f"{name} scaling rows")


class Truncated(Exception):
    """A scaling study stopped early; its report is incomplete."""


# --- syntax_dag -------------------------------------------------------------

SYNTAX_OPS = ("print_parse", "validate", "counts", "poly_bound", "index")
CHAIN_DEPTHS = (16, 64, 256, 512, 1024)
TOWER_HEIGHTS = tuple(range(1, 11))
DA_ATOMS = tuple(op for op in DA.allowed if ARITY[op] == 0)


def random_derivation(rng: random.Random, cls, n: int) -> Derivation:
    """A random derivation of the class with exactly n nodes."""
    ops = sorted(cls.allowed, key=lambda op: op.value)
    arity = [0] if n == 1 else [1, 2] if n > 2 else [1]
    op = rng.choice([op for op in ops if ARITY[op] in arity])
    if ARITY[op] == 0:
        return Derivation(op)
    if ARITY[op] == 1:
        return Derivation(op, (random_derivation(rng, cls, n - 1),))
    k = rng.randint(1, n - 2)
    return Derivation(op, (random_derivation(rng, cls, k),
                           random_derivation(rng, cls, n - 1 - k)))


class SyntaxDag(Workload):
    """Operations of the derivation module on shared DAGs.

    The derivations are the other workloads' outputs (PR and SNR
    reductions, the compiled explicit corpus, the shipped predicates) plus
    seeded random derivations in every class, comp chains of seeded atoms
    on a fixed ladder of depths that spans the recursion limit, and
    P-towers P(t, t) of heights 1 to 10.  Every derivation gets every
    operation.  The random derivations have fixed node counts, so the
    seed changes their shape but little the work on them.  poly_bound is
    evaluated at a seeded point in [0, 16).  Except on the random
    derivations, whose run time has no useful bound, it is also checked
    against the values the derivation takes at four seeded points,
    antithetic pairs from [0, 8) and [8, 16).
    """

    name = "syntax_dag"
    RANDOM_SIZES = (3, 7, 15, 31)

    def __init__(self, seed, tr):
        super().__init__(seed, tr)
        rng = self.rng
        self.inputs = []
        for cls in CLASSES.values():
            for n in self.RANDOM_SIZES:
                self.inputs.append((f"random:{cls.name}:{n}",
                                    random_derivation(rng, cls, n), False))
        atoms = sorted(DA_ATOMS, key=lambda op: op.value)
        for n in CHAIN_DEPTHS:
            d = Derivation(rng.choice(atoms))
            for _ in range(n):
                d = comp(Derivation(rng.choice(atoms)), d)
            self.inputs.append((f"chain:{n}", d, True))
        t = I
        for h in TOWER_HEIGHTS:
            t = P(t, t)
            self.inputs.append((f"tower:{h}", t, True))
        # evaluation points are drawn in build, once the derivation list
        # is known, from this seed
        self.point_seed = rng.random()

    def build(self, tr):
        built = []
        for name in PR_DEFS:
            art = tr.call("reduction", reduce_recursive_to_pr,
                          self.by_name[name], {})
            built.append((f"pr:{name}", art.result))
        for name in SNR_DEFS:
            built.append((f"snr:{name}", tr.call(
                "reduction", reduce_bounded_nested_to_snr,
                self.by_name[name], PolyBound("var"))))
        env: dict[str, Derivation] = {}
        for d in self.defs:
            if d.kind == "explicit":
                env[d.name] = tr.call("compiler", compile_explicit, d, env)
        built += [(f"explicit:{n}", d) for n, d in env.items()]
        built += [(f"predicate:{n}", tr.call("harness", make))
                  for n, make in harness.PREDICATES.items()]
        self.code = [d for _, d in built]
        self.derivations = [(label, d, True) for label, d in built]
        self.derivations += self.inputs
        prng = random.Random(self.point_seed)
        self.points = [_antithetic(prng, 2, 0, 16) for _ in self.derivations]
        self.home = [home_class(d) for _, d, _ in self.derivations]

    def cases(self):
        out = []
        for i, (label, _, _) in enumerate(self.derivations):
            for op in SYNTAX_OPS:
                out.append((f"{op}:{label}",
                            partial(getattr(self, "op_" + op), i=i)))
        return out

    def op_print_parse(self, tr, cnt, i):
        d = self.derivations[i][1]
        text = tr.call("derivation", d_print, d)
        back = tr.call("derivation", d_parse, text)
        check(same_derivation(back, d), True, "d_parse(d_print(d)) == d")

    def op_validate(self, tr, cnt, i):
        d = self.derivations[i][1]
        ops = ops_of(d)
        got = [tr.call("derivation", validate, d, c) for c in CLASSES.values()]
        check(got, [ops <= c.allowed for c in CLASSES.values()],
              "class membership")

    def op_counts(self, tr, cnt, i):
        d = self.derivations[i][1]
        n = tr.call("derivation", d.node_count)
        check(n, tree_size(d), "node_count")

    def op_poly_bound(self, tr, cnt, i):
        _, d, evaluated = self.derivations[i]
        if unbounded_outside_recursion(d):
            try:
                tr.call("derivation", poly_bound, d)
            except UnboundedOperatorError:
                return
            raise Wrong("poly_bound accepted an unbounded operator")
        points = self.points[i]
        with tr.span("derivation", "poly_bound"):
            b = poly_bound(d)
            bx = b(points[0])
        check(bx, bound_value(b, points[0]), f"poly_bound at {points[0]}")
        for x in points if evaluated else ():
            v = evaluate(tr, cnt, eval_memo, d, x)
            if v > bound_value(b, x):
                raise Wrong(f"value {_short(v)} above poly_bound at {x}")

    def op_index(self, tr, cnt, i):
        d, cls = self.derivations[i][1], self.home[i]
        k = tr.call("derivation", index_of, d, cls)
        back = tr.call("derivation", derivation_at, k, cls)
        check(same_derivation(back, d), True, "derivation_at(index_of(d))")


WORKLOADS = {w.name: w for w in (PrStack, SnrNested, CompileGrid, SyntaxDag)}
