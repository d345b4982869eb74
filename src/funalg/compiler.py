"""Compilers from quasi-terms, quasi-bounded formulas, and explicit
clausal definitions to derivations.

All constructions use only the base operators (so the output stays in DA
whenever the environment does): the constant-zero combinator Z, the
projections H and T recovered through the case operator D, the
predecessor read off the pairing by H, and a 0/1-valued formula
calculus built from D-dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

from . import clausal as cl
from .codec import pair, tuple_encode
from .derivation import (ADD, D as D_, Derivation, I, LT, MUL, ORACLE, S,
                         P, comp, fold, mu)

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
        if name not in self.vars:
            raise UnboundVariableError(f"unbound variable {name!r}")
        i = self.vars.index(name)
        n = len(self.vars) - 1
        d = I
        for _ in range(i):
            d = comp(TL, d)
        return d if i == n else comp(HD, d)


class UnboundVariableError(ValueError):
    pass


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


@dataclass(frozen=True)
class FRel:
    left: cl.QuasiTerm
    rel: str  # "=" or "<"
    right: cl.QuasiTerm


@dataclass(frozen=True)
class FOracle:
    term: cl.QuasiTerm


@dataclass(frozen=True)
class FNot:
    body: "QuasiFormula"


@dataclass(frozen=True)
class FOr:
    left: "QuasiFormula"
    right: "QuasiFormula"


@dataclass(frozen=True)
class FAnd:
    left: "QuasiFormula"
    right: "QuasiFormula"


@dataclass(frozen=True)
class FBoundedEx:
    var: str
    bound: cl.QuasiTerm
    body: "QuasiFormula"


@dataclass(frozen=True)
class FQuasiBoundedEx:
    var: str
    fname: str
    arg: cl.QuasiTerm
    body: "QuasiFormula"


QuasiFormula = (FRel | FOracle | FNot | FOr | FAnd
                | FBoundedEx | FQuasiBoundedEx)


def compile_formula(phi: QuasiFormula, ctx: VarCtx,
                    env: dict[str, Derivation] | None = None) -> Derivation:
    """A 0/1-valued derivation computing the formula's truth value."""
    env = env or {}
    if isinstance(phi, FRel):
        a = compile_term(phi.left, ctx, env)
        b = compile_term(phi.right, ctx, env)
        return lt_d(a, b) if phi.rel == "<" else eq_d(a, b)
    if isinstance(phi, FOracle):
        return comp(ORACLE, compile_term(phi.term, ctx, env))
    if isinstance(phi, FNot):
        return not_d(compile_formula(phi.body, ctx, env))
    if isinstance(phi, FOr):
        return or_d(compile_formula(phi.left, ctx, env),
                    compile_formula(phi.right, ctx, env))
    if isinstance(phi, FAnd):
        return and_d(compile_formula(phi.left, ctx, env),
                     compile_formula(phi.right, ctx, env))
    if isinstance(phi, FBoundedEx):
        inner = VarCtx((phi.var,) + ctx.vars)
        body = compile_formula(phi.body, inner, env)
        bound = compile_term(phi.bound, ctx, env)
        witness = comp(mu(body), P(bound, I))
        return lt_d(witness, bound)
    if isinstance(phi, FQuasiBoundedEx):
        inner = VarCtx((phi.var,) + ctx.vars)
        body = compile_formula(phi.body, inner, env)
        witness = compile_term(cl.App(phi.fname, phi.arg), ctx, env)
        return comp(body, P(witness, I))
    raise TypeError(phi)


# --- Truth oracle (reference semantics for tests) ----------------------------


def eval_term_direct(t: cl.QuasiTerm, assign: dict[str, int],
                     fns=None) -> int:
    fns = fns or {}

    def rule(n: cl.QuasiTerm, k: list[int]) -> int:
        cls = type(n)
        if cls is cl.Zero:
            return 0
        if cls is cl.Var:
            return assign[n.name]
        if cls is cl.Succ:
            return k[0] + 1
        if cls is cl.TPair:
            return pair(k[0], k[1])
        if cls is cl.TAdd:
            return k[0] + k[1]
        if cls is cl.TMul:
            return k[0] * k[1]
        if cls is cl.App:
            return fns[n.fname](k[0])
        raise TypeError(n)
    return fold(t, cl.term_kids, rule)


def eval_formula_direct(phi: QuasiFormula, assign: dict[str, int],
                        oracle=frozenset(), fns=None) -> bool:
    fns = fns or {}
    if isinstance(phi, FRel):
        a = eval_term_direct(phi.left, assign, fns)
        b = eval_term_direct(phi.right, assign, fns)
        return a < b if phi.rel == "<" else a == b
    if isinstance(phi, FOracle):
        return eval_term_direct(phi.term, assign, fns) in oracle
    if isinstance(phi, FNot):
        return not eval_formula_direct(phi.body, assign, oracle, fns)
    if isinstance(phi, FOr):
        return (eval_formula_direct(phi.left, assign, oracle, fns)
                or eval_formula_direct(phi.right, assign, oracle, fns))
    if isinstance(phi, FAnd):
        return (eval_formula_direct(phi.left, assign, oracle, fns)
                and eval_formula_direct(phi.right, assign, oracle, fns))
    if isinstance(phi, FBoundedEx):
        b = eval_term_direct(phi.bound, assign, fns)
        return any(
            eval_formula_direct(phi.body, {**assign, phi.var: y},
                                oracle, fns)
            for y in range(b))
    if isinstance(phi, FQuasiBoundedEx):
        w = fns[phi.fname](eval_term_direct(phi.arg, assign, fns))
        return eval_formula_direct(phi.body, {**assign, phi.var: w},
                                   oracle, fns)
    raise TypeError(phi)


# --- Explicit clausal definitions ---------------------------------------


class NotExplicitError(ValueError):
    pass


def compile_explicit(d: cl.ClausalDef,
                     env: dict[str, Derivation] | None = None) -> Derivation:
    """Compile an explicit clausal definition to a derivation.

    Locals are eliminated by substitution: pattern splits become H/T
    projections guarded by zero tests, successor splits use the
    predecessor, and the guarded results are folded back to front with
    D-dispatch.  The antecedents of the strict form are exhaustive and
    disjoint, so exactly one guard evaluates to 1.
    """
    env = env or {}
    sd = cl.complete_to_strict(d)
    if sd.kind != "explicit":
        raise NotExplicitError(f"{d.name} is recursive")
    argvar = sd.clauses[0].pattern.name
    compiled = []
    for c in sd.clauses:
        bind: dict[str, Derivation] = {argvar: I}

        def var(name: str) -> Derivation:
            if name not in bind:
                raise UnboundVariableError(
                    f"unbound variable {name!r} in {d.name}")
            return bind[name]

        guards: list[Derivation] = []
        for lit in c.literals:
            if isinstance(lit, cl.VarZero):
                guards.append(not_d(lt_d(Z_, bind[lit.v])))
            elif isinstance(lit, cl.VarSucc):
                guards.append(lt_d(Z_, bind[lit.v]))
                bind[lit.w] = comp(PRED, bind[lit.v])
            elif isinstance(lit, cl.VarPair):
                guards.append(lt_d(Z_, bind[lit.v]))
                bind[lit.w1] = comp(HD, bind[lit.v])
                bind[lit.w2] = comp(TL, bind[lit.v])
            elif isinstance(lit, cl.AppEq):
                bind[lit.out] = _term_d(cl.App(lit.fname, lit.arg), var, env)
            elif isinstance(lit, cl.Rel):
                a = _term_d(lit.left, var, env)
                b = _term_d(lit.right, var, env)
                g = lt_d(a, b) if lit.rel == "<" else eq_d(a, b)
                guards.append(not_d(g) if lit.negated else g)
            else:
                g = comp(ORACLE, _term_d(lit.term, var, env))
                guards.append(not_d(g) if lit.negated else g)
        guard = reduce(and_d, guards) if guards else ONE
        compiled.append((guard, _term_d(c.result, var, env)))

    acc = Z_
    for guard, result in reversed(compiled):
        acc = dd(guard, acc, result)
    return acc
