"""Compilers from quasi-terms, quasi-bounded formulas, and explicit
clausal definitions to derivations.

All constructions use only the base operators (so the output stays in DA
whenever the environment does): the constant-zero combinator Z, the
projections H and T recovered through the case operator D, the
predecessor read off the pairing by H, and a 0/1-valued formula
calculus built from D-dispatch.  An explicit definition compiles as its
refinement tree, one D-dispatch per split.  Terms, literals and formulas
are interned nodes; a formula's atoms are the clausal literals Rel and
OracleMem, negated or not, so one helper compiles both a formula's atoms
and the tests of an explicit definition's relation and oracle splits.
Every walker over them, the direct interpreters included, is a
derivation.fold rule or a loop over an explicit stack, so none recurses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from . import clausal as cl
from .clausal import UnboundVariableError, _fn, eval_term_direct
from .codec import tuple_encode
from .derivation import (ADD, D as D_, Derivation, I, Interned, LT, MUL,
                         ORACLE, S, P, comp, fold, mu)

# --- Base combinators ---------------------------------------------------

# Z computes the constant 0: mu reads its argument x as <v, p> (and 0 as
# <0, 0>) and returns the least w < v with S(w * p) = 1, or v if none.
# w = 0 passes, so Z runs one round when v > 0 and none when v = 0.
Z_ = mu(comp(S, MUL))

# H and T through the case operator: D on pair(tag, z) selects a
# component of unpair(z).
HD = comp(D_, P(Z_, I))
TL = comp(D_, P(comp(S, Z_), I))

# DBL(x) = x + x
DBL = comp(ADD, P(I, I))

# Predecessor, read off the pairing <a, b> = T(a + b) + a + 1 with
# T(n) = n(n + 1)/2: PRED(z) = HD(z(2z + 2)), computed as 2z * (z + 1).
# It is exact for every z.  HD(0) = 0.  For z >= 1,
# 2z^2 + 2z - 1 - T(2z) = z - 1 lies in [0, 2z], so z(2z + 2) codes
# <z - 1, z + 1> on diagonal 2z.  A fixed number of steps for every z.
PRED = comp(HD, comp(MUL, P(DBL, comp(S, I))))

ONE = comp(S, Z_)


def const(k: int) -> Derivation:
    """A derivation computing the constant k on every input."""
    d = Z_
    for _ in range(k):
        d = comp(S, d)
    return d


def dd(c: Derivation, y: Derivation, z: Derivation) -> Derivation:
    """Case dispatch: computes y(x) if c(x) = 0, else z(x)."""
    return comp(D_, P(c, P(y, z)))


def lt_d(a: Derivation, b: Derivation) -> Derivation:
    return comp(LT, P(a, b))


def eq_d(a: Derivation, b: Derivation) -> Derivation:
    return dd(lt_d(a, b), dd(lt_d(b, a), ONE, Z_), Z_)


def not_d(a: Derivation) -> Derivation:
    return dd(a, ONE, Z_)


def or_d(a: Derivation, b: Derivation) -> Derivation:
    return dd(a, b, ONE)


def and_d(a: Derivation, b: Derivation) -> Derivation:
    return dd(a, Z_, b)


# --- Variable contexts and projections -----------------------------------


@dataclass(frozen=True)
class VarCtx:
    vars: tuple[str, ...]

    def __post_init__(self):
        if not self.vars:
            raise ValueError("empty variable context")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variables in context")

    @staticmethod
    def of(*names: str) -> "VarCtx":
        return VarCtx(tuple(names))

    def projection(self, name: str) -> Derivation:
        """The derivation extracting one variable from the
        right-associated packing x0,(x1,(...,xn))."""
        return _projection(self.vars, name)


def _projection(names: tuple[str, ...], name: str) -> Derivation:
    """VarCtx.projection on names, which may repeat one: the first
    occurrence is read, so an inner binding shadows an outer one."""
    if name not in names:
        raise UnboundVariableError(f"unbound variable {name!r}")
    i = names.index(name)
    d = I
    for _ in range(i):
        d = comp(TL, d)
    return d if i == len(names) - 1 else comp(HD, d)


def pack_args(values) -> int:
    """Right-associated packing of a context assignment."""
    return tuple_encode(list(values))


# --- Quasi-term compilation -----------------------------------------------


def _term_d(t: cl.QuasiTerm, var: Callable[[str], Derivation],
            env: dict[str, Derivation]) -> Derivation:
    """The derivation of a quasi-term; var(name) gives each variable's."""
    def kids(n: cl.QuasiTerm) -> tuple:
        # an unknown function fails before its argument, as in a descent
        if type(n) is cl.App and n.fname not in env:
            return ()
        return cl.term_kids(n)

    def rule(n: cl.QuasiTerm, k: list[Derivation]) -> Derivation:
        cls = type(n)
        if cls is cl.Var:
            return var(n.name)
        if cls is cl.Zero:
            return Z_
        if cls is cl.Succ:
            return comp(S, k[0])
        if cls is cl.TPair:
            return P(k[0], k[1])
        if cls is cl.TAdd:
            return comp(ADD, P(k[0], k[1]))
        if cls is cl.TMul:
            return comp(MUL, P(k[0], k[1]))
        if cls is cl.App:
            if n.fname not in env:
                raise UnboundVariableError(
                    f"no derivation for function {n.fname!r}")
            return comp(env[n.fname], k[0])
        raise TypeError(n)
    return fold(t, kids, rule)


def compile_term(t: cl.QuasiTerm, ctx: VarCtx,
                 env: dict[str, Derivation] | None = None) -> Derivation:
    """A derivation computing the quasi-term on the packed context."""
    return _term_d(t, ctx.projection, env or {})


# --- Quasi-bounded formulas -------------------------------------------------
#
# Formulas are interned like quasi-terms (see derivation.Interned), so
# equality, hash, repr, copy and pickle never recurse, however deep the
# formula.  Their atoms are the clausal literals Rel and OracleMem, which
# FRel and FOracle name.  Their shape is stated once, by formula_kids.

FRel, FOracle = cl.Rel, cl.OracleMem


class FNot(Interned):
    __slots__ = ("body",)


class FOr(Interned):
    __slots__ = ("left", "right")


class FAnd(Interned):
    __slots__ = ("left", "right")


class FBoundedEx(Interned):
    __slots__ = ("var", "bound", "body")


class FQuasiBoundedEx(Interned):
    __slots__ = ("var", "fname", "arg", "body")


QuasiFormula = (cl.Rel | cl.OracleMem | FNot | FOr | FAnd
                | FBoundedEx | FQuasiBoundedEx)
_CONNECTIVE_D = {FNot: not_d, FOr: or_d, FAnd: and_d}


def formula_kids(phi: QuasiFormula) -> tuple:
    """The subformulas of phi, left to right."""
    cls = type(phi)
    if cls is FOr or cls is FAnd:
        return (phi.left, phi.right)
    return (phi.body,) if cls in (FNot, FBoundedEx, FQuasiBoundedEx) else ()


def _atom_d(lit: cl.Rel | cl.OracleMem, var: Callable[[str], Derivation],
            env: dict[str, Derivation]) -> Derivation:
    """An atom's 0/1 derivation: a relation or an oracle query, negated
    if the atom is."""
    if type(lit) is cl.OracleMem:
        g = comp(ORACLE, _term_d(lit.term, var, env))
    else:
        a = _term_d(lit.left, var, env)
        b = _term_d(lit.right, var, env)
        g = lt_d(a, b) if lit.rel == "<" else eq_d(a, b)
    return not_d(g) if lit.negated else g


def compile_formula(phi: QuasiFormula, ctx: VarCtx,
                    env: dict[str, Derivation] | None = None) -> Derivation:
    """A 0/1-valued derivation computing the formula's truth value."""
    env = env or {}

    # The fold runs on occurrences (formula, names in scope); a quantifier
    # puts its variable first, shadowing an outer one.  Each distinct
    # occurrence is one tuple, so fold, which works by identity, compiles
    # a shared subformula once per context, not once per path to it.
    occs: dict[tuple, tuple] = {}

    def kids(o: tuple) -> list:
        f, vs = o
        if type(f) is FBoundedEx or type(f) is FQuasiBoundedEx:
            vs = (f.var,) + vs
        return [occs.setdefault((k, vs), (k, vs)) for k in formula_kids(f)]

    def rule(o: tuple, k: list[Derivation]) -> Derivation:
        f, vs = o
        cls = type(f)
        var = partial(_projection, vs)
        if cls is cl.Rel or cls is cl.OracleMem:
            return _atom_d(f, var, env)
        if cls in _CONNECTIVE_D:
            return _CONNECTIVE_D[cls](*k)
        if cls is FBoundedEx:
            bound = _term_d(f.bound, var, env)
            return lt_d(comp(mu(k[0]), P(bound, I)), bound)
        if cls is FQuasiBoundedEx:
            witness = _term_d(cl.App(f.fname, f.arg), var, env)
            return comp(k[0], P(witness, I))
        raise TypeError(f)
    return fold((phi, ctx.vars), kids, rule)


# --- Truth oracle (reference semantics for tests) ----------------------------


def _instances(q, a: dict[str, int], fns) -> Iterator[tuple]:
    """q's body under a, q's variable bound to each witness in turn, each
    assignment with a memo of its own."""
    ws = (range(eval_term_direct(q.bound, a, fns)) if type(q) is FBoundedEx
          else (_fn(fns, q.fname)(eval_term_direct(q.arg, a, fns)),))
    return ((q.body, {**a, q.var: w}, {}) for w in ws)


def eval_formula_direct(phi: QuasiFormula, assign: dict[str, int],
                        oracle=frozenset(), fns=None) -> bool:
    """The truth value of phi under assign, by one loop; no operand after
    the one that decides a connective or quantifier is evaluated, and a
    compound subformula met again under the same assignment is not
    evaluated again."""
    fns = fns or {}
    # A frame (formula, memo, operands, stop, hit) per compound formula
    # entered, over a lazy stream of (formula, assignment, memo) triples:
    # as with `any` and `all`, it is valued hit at its first operand valued
    # stop, else not hit.  A negation is a one-operand conjunction,
    # negated; a quantifier, a disjunction over its witnesses.  Each
    # assignment has one memo, {compound formula: value}, which lives as
    # long as the frames under that assignment.
    stack = []
    f, a, memo = phi, assign, {}
    while True:
        cls, value = type(f), memo.get(f)
        if value is not None:
            pass  # valued before under this assignment
        elif cls is cl.Rel:
            left = eval_term_direct(f.left, a, fns)
            right = eval_term_direct(f.right, a, fns)
            value = (left < right if f.rel == "<"
                     else left == right) != f.negated
        elif cls is cl.OracleMem:
            value = (eval_term_direct(f.term, a, fns) in oracle) != f.negated
        elif cls is FBoundedEx or cls is FQuasiBoundedEx:
            stack.append((f, memo, _instances(f, a, fns), True, True))
        elif cls is FNot or cls is FOr or cls is FAnd:
            stack.append((f, memo, iter([(k, a, memo)
                                         for k in formula_kids(f)]),
                          cls is FOr, cls is not FAnd))
        else:
            raise TypeError(f)
        while stack:
            g, m, operands, stop, hit = stack[-1]
            if value is not stop and (nxt := next(operands, None)):
                f, a, memo = nxt
                break
            stack.pop()
            value = m[g] = hit if value is stop else not hit
        else:
            return value


# --- Explicit clausal definitions ---------------------------------------


class NotExplicitError(ValueError):
    pass


def compile_explicit(d: cl.ClausalDef,
                     env: dict[str, Derivation] | None = None) -> Derivation:
    """Compile an explicit clausal definition to a derivation.

    The strict clauses are the root-to-leaf paths of the definition's
    refinement tree, so the tree is rebuilt from them, and each split
    becomes one D-dispatch: a zero/successor or zero/pair split on v
    tests 0 < v, a relation or oracle split the positive literal.
    Locals are eliminated by substitution along the path: the non-zero
    side of a split reads v's predecessor or its H/T projections, and an
    application literal binds the compiled call.  A leaf is its clause's
    compiled result.
    """
    env = env or {}
    sd = cl.complete_to_strict(d)
    if sd.kind != "explicit":
        raise NotExplicitError(f"{d.name} is recursive")

    # A tree node is (the strict clauses below it, the length of the path
    # of literals they share, the bindings of that path).  Siblings share
    # the path, then part on complementary literals; kids hands each side
    # down with its bindings, and the fold builds the dispatch bottom up.
    # The refinement walk has checked that the path binds every variable
    # a literal or result reads.
    def kids(node: tuple) -> tuple:
        group, n, bind = node
        if n == len(group[0].literals):
            return ()
        lit = group[0].literals[n]
        cls = type(lit)
        if cls is cl.AppEq:
            app = _term_d(cl.App(lit.fname, lit.arg), bind.__getitem__, env)
            return ((group, n + 1, {**bind, lit.out: app}),)
        if cls is cl.Rel or cls is cl.OracleMem:
            neg = tuple(c for c in group if c.literals[n].negated)
            pos = tuple(c for c in group if not c.literals[n].negated)
            return (neg, n + 1, bind), (pos, n + 1, bind)
        zero = tuple(c for c in group if type(c.literals[n]) is cl.VarZero)
        nonz = tuple(c for c in group if type(c.literals[n]) is not cl.VarZero)
        lit = nonz[0].literals[n]
        t = bind[lit.v]
        if type(lit) is cl.VarSucc:
            split = {lit.w: comp(PRED, t)}
        else:
            split = {lit.w1: comp(HD, t), lit.w2: comp(TL, t)}
        return (zero, n + 1, bind), (nonz, n + 1, {**bind, **split})

    def rule(node: tuple, k: list[Derivation]) -> Derivation:
        group, n, bind = node
        if not k:
            return _term_d(group[0].result, bind.__getitem__, env)
        lit = group[0].literals[n]
        cls = type(lit)
        if cls is cl.AppEq:
            return k[0]
        if cls is cl.Rel or cls is cl.OracleMem:
            test = _atom_d(cls(*lit._fields()[:-1]), bind.__getitem__, env)
        else:
            test = lt_d(Z_, bind[lit.v])
        return dd(test, *k)

    argvar = sd.clauses[0].pattern.name
    return fold((sd.clauses, 0, {argvar: I}), kids, rule)
