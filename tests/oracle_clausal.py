"""The recursive quasi-term walkers, kept as differential oracles.

These are the walkers funalg.clausal and funalg.compiler shipped before
each became a rule for derivation.fold: one isinstance ladder per walker,
recursing on the term.  They raise RecursionError on deep terms, so the
tests compare them with the package on shallow ones; see
test_clausal_walkers.py.  The interpreter's term evaluation is kept
without its App branch, since strict-form terms hold no applications.

eval_clausal is the interpreter as it was before its calls became frames
on an explicit stack: one Python call per clausal call, so it raises
RecursionError on recursions about a thousand calls deep.

RecursiveParser is the CL parser as it was before terms were parsed on an
explicit stack: one Python call per nesting level of a term or of `!`.
"""

from __future__ import annotations

from dataclasses import replace

from funalg import clausal as cl
from funalg.clausal import (App, AppEq, Clause, Literal, OracleMem,
                            QuasiTerm, RefinementError, Rel, Succ, TAdd,
                            TMul, TPair, Var, VarPair, VarSucc, VarZero, Zero)
from funalg.codec import head, pair, tail
from funalg.compiler import Z_, UnboundVariableError
from funalg.derivation import ADD, MUL, P, S, comp
from funalg.evaluator import Budget, BudgetExceeded, Meter


def term_vars(t: QuasiTerm) -> set[str]:
    if isinstance(t, Zero):
        return set()
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Succ, App)):
        return term_vars(t.arg)
    return term_vars(t.left) | term_vars(t.right)


def term_subst(t: QuasiTerm, sub: dict[str, str]) -> QuasiTerm:
    if isinstance(t, Zero):
        return t
    if isinstance(t, Var):
        return Var(sub.get(t.name, t.name))
    if isinstance(t, Succ):
        return Succ(term_subst(t.arg, sub))
    if isinstance(t, App):
        return App(t.fname, term_subst(t.arg, sub))
    return type(t)(term_subst(t.left, sub), term_subst(t.right, sub))


def term_apps(t: QuasiTerm) -> list[App]:
    if isinstance(t, (Zero, Var)):
        return []
    if isinstance(t, App):
        return term_apps(t.arg) + [t]
    if isinstance(t, Succ):
        return term_apps(t.arg)
    return term_apps(t.left) + term_apps(t.right)


def term_str(t: QuasiTerm) -> str:
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Succ):
        return f"S({term_str(t.arg)})"
    if isinstance(t, TPair):
        return f"({term_str(t.left)}, {term_str(t.right)})"
    if isinstance(t, TAdd):
        return f"{term_str(t.left)} + {term_str(t.right)}"
    if isinstance(t, TMul):
        return f"{term_str(t.left)} * {term_str(t.right)}"
    return f"{t.fname}({term_str(t.arg)})"


def lit_subst(lit: Literal, sub: dict[str, str]) -> Literal:
    r = sub.get
    if isinstance(lit, AppEq):
        return AppEq(lit.fname, term_subst(lit.arg, sub), r(lit.out, lit.out))
    if isinstance(lit, VarZero):
        return VarZero(r(lit.v, lit.v))
    if isinstance(lit, VarSucc):
        return VarSucc(r(lit.v, lit.v), r(lit.w, lit.w))
    if isinstance(lit, VarPair):
        return VarPair(r(lit.v, lit.v), r(lit.w1, lit.w1), r(lit.w2, lit.w2))
    if isinstance(lit, Rel):
        return Rel(term_subst(lit.left, sub), lit.rel,
                   term_subst(lit.right, sub), lit.negated)
    return OracleMem(term_subst(lit.term, sub), lit.negated)


def lit_binders(lit: Literal) -> tuple[str, ...]:
    if isinstance(lit, AppEq):
        return (lit.out,)
    if isinstance(lit, VarSucc):
        return (lit.w,)
    if isinstance(lit, VarPair):
        return (lit.w1, lit.w2)
    return ()


def lit_used_vars(lit: Literal) -> set[str]:
    if isinstance(lit, AppEq):
        return term_vars(lit.arg)
    if isinstance(lit, (VarZero, VarSucc, VarPair)):
        return {lit.v}
    if isinstance(lit, Rel):
        return term_vars(lit.left) | term_vars(lit.right)
    return term_vars(lit.term)


def validate_pattern(p: QuasiTerm):
    if isinstance(p, (Zero, Var)):
        return
    if isinstance(p, Succ):
        validate_pattern(p.arg)
        return
    if isinstance(p, TPair):
        validate_pattern(p.left)
        validate_pattern(p.right)
        return
    raise RefinementError(f"invalid pattern {term_str(p)}")


class _Fresh:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.n = 0

    def __call__(self, base: str = "q") -> str:
        while True:
            self.n += 1
            name = f"{base}{self.n}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def clause_all_vars(c: Clause) -> set[str]:
    vs = set(term_vars(c.pattern)) | set(term_vars(c.result))
    for lit in c.literals:
        vs |= lit_used_vars(lit)
        vs |= set(lit_binders(lit))
    return vs


def flatten_pattern(c: Clause, argvar: str) -> Clause:
    """Move a head pattern into antecedent literals over a plain variable."""
    if isinstance(c.pattern, Var):
        if c.pattern.name == argvar:
            return c
        sub = {c.pattern.name: argvar}
        return Clause(Var(argvar),
                      tuple(lit_subst(l, sub) for l in c.literals),
                      term_subst(c.result, sub))
    fresh = _Fresh(clause_all_vars(c) | {argvar})
    lits: list[Literal] = []

    def decomp(v: str, p: QuasiTerm):
        if isinstance(p, Zero):
            lits.append(VarZero(v))
        elif isinstance(p, Var):
            subs[p.name] = v
        elif isinstance(p, Succ):
            w = p.arg.name if isinstance(p.arg, Var) else fresh()
            lits.append(VarSucc(v, w))
            if not isinstance(p.arg, Var):
                decomp(w, p.arg)
        elif isinstance(p, TPair):
            w1 = p.left.name if isinstance(p.left, Var) else fresh()
            w2 = p.right.name if isinstance(p.right, Var) else fresh()
            lits.append(VarPair(v, w1, w2))
            if not isinstance(p.left, Var):
                decomp(w1, p.left)
            if not isinstance(p.right, Var):
                decomp(w2, p.right)
        else:
            raise RefinementError(f"invalid pattern {term_str(p)}")

    subs: dict[str, str] = {}
    decomp(argvar, c.pattern)
    body = [lit_subst(l, subs) for l in c.literals]
    return Clause(Var(argvar), tuple(lits) + tuple(body),
                  term_subst(c.result, subs))


def unnest_clause(c: Clause) -> Clause:
    """Replace nested applications by AppEq literals, innermost first."""
    fresh = _Fresh(clause_all_vars(c))
    out: list[Literal] = []

    def strip(t: QuasiTerm) -> QuasiTerm:
        if isinstance(t, (Zero, Var)):
            return t
        if isinstance(t, Succ):
            return Succ(strip(t.arg))
        if isinstance(t, App):
            z = fresh("z")
            out.append(AppEq(t.fname, strip(t.arg), z))
            return Var(z)
        return type(t)(strip(t.left), strip(t.right))

    for lit in c.literals:
        if isinstance(lit, AppEq):
            arg = strip(lit.arg)
            out.append(AppEq(lit.fname, arg, lit.out))
        elif isinstance(lit, Rel):
            out.append(Rel(strip(lit.left), lit.rel, strip(lit.right),
                           lit.negated))
        elif isinstance(lit, OracleMem):
            out.append(OracleMem(strip(lit.term), lit.negated))
        else:
            out.append(lit)
    result = strip(c.result)
    return Clause(c.pattern, tuple(out), result)


def ev_term(t: QuasiTerm, b: dict[str, int]) -> int:
    """The interpreter's value of an application-free term."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Var):
        if t.name not in b:
            raise cl.ClausalEvalError(f"unbound variable {t.name!r}")
        return b[t.name]
    if isinstance(t, Succ):
        return ev_term(t.arg, b) + 1
    if isinstance(t, TPair):
        return pair(ev_term(t.left, b), ev_term(t.right, b))
    if isinstance(t, TAdd):
        return ev_term(t.left, b) + ev_term(t.right, b)
    return ev_term(t.left, b) * ev_term(t.right, b)


def term_d(t: QuasiTerm, var, env):
    """The derivation of a quasi-term; var(name) gives each variable's."""
    if isinstance(t, Zero):
        return Z_
    if isinstance(t, Var):
        return var(t.name)
    if isinstance(t, Succ):
        return comp(S, term_d(t.arg, var, env))
    if isinstance(t, TPair):
        return P(term_d(t.left, var, env), term_d(t.right, var, env))
    if isinstance(t, TAdd):
        return comp(ADD, P(term_d(t.left, var, env),
                           term_d(t.right, var, env)))
    if isinstance(t, TMul):
        return comp(MUL, P(term_d(t.left, var, env),
                           term_d(t.right, var, env)))
    if isinstance(t, App):
        if t.fname not in env:
            raise UnboundVariableError(
                f"no derivation for function {t.fname!r}")
        return comp(env[t.fname], term_d(t.arg, var, env))
    raise TypeError(t)


def eval_clausal(defs, fname: str, x: int, oracle=frozenset(),
                 budget: Budget | None = None,
                 meter: Meter | None = None) -> int:
    """The recursive interpreter: values, errors and Meter fields are those
    of funalg.clausal.eval_clausal wherever this one does not recurse too
    deep."""
    if not isinstance(x, int):
        raise TypeError(f"expected an int argument, got {type(x).__name__}")
    if x < 0:
        raise ValueError(f"argument must be a natural number, got {x}")
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    env = {d.name: cl.complete_to_strict(d) for d in defs}
    if fname not in env:
        raise cl.ClausalEvalError(f"undefined function {fname!r}")

    def tick():
        meter.steps += 1
        if meter.steps > budget.max_steps:
            raise BudgetExceeded("steps", meter)

    def call(f: str, x: int, depth: int) -> int:
        tick()
        if depth > meter.max_depth:
            meter.max_depth = depth
        if x.bit_length() > meter.peak_bits:
            meter.peak_bits = x.bit_length()
            if x.bit_length() > budget.max_bits:
                raise BudgetExceeded("bits", meter)
        d = env[f]
        argvar = d.clauses[0].pattern.name
        for c in d.clauses:
            b = {argvar: x}
            for lit in c.literals:  # the first literal that fails skips c
                tick()
                if isinstance(lit, VarZero):
                    if b[lit.v] != 0:
                        break
                elif isinstance(lit, VarSucc):
                    if b[lit.v] == 0:
                        break
                    b[lit.w] = b[lit.v] - 1
                elif isinstance(lit, VarPair):
                    if b[lit.v] == 0:
                        break
                    b[lit.w1], b[lit.w2] = head(b[lit.v]), tail(b[lit.v])
                elif isinstance(lit, AppEq):
                    v = ev_term(lit.arg, b)
                    if lit.fname == f and v >= x:
                        raise cl.MeasureViolation(
                            f"{f}({v}) called from {f}({x})")
                    b[lit.out] = call(lit.fname, v, depth + 1)
                elif isinstance(lit, Rel):
                    l = ev_term(lit.left, b)
                    r = ev_term(lit.right, b)
                    if (l == r if lit.rel == "=" else l < r) == lit.negated:
                        break
                elif (ev_term(lit.term, b) in oracle) == lit.negated:
                    break
            else:
                return ev_term(c.result, b)
        raise cl.ClausalEvalError(
            f"no applicable clause in {f} at {x} (internal error)")

    return call(fname, x, 0)


class RecursiveParser(cl._Parser):
    """parse_term and parse_lit by recursive descent."""

    def parse_term(self) -> QuasiTerm:
        t = self.parse_mul()
        while self.at_sym("+"):
            self.next()
            t = TAdd(t, self.parse_mul())
        return t

    def parse_mul(self) -> QuasiTerm:
        t = self.parse_atom()
        while self.at_sym("*"):
            self.next()
            t = TMul(t, self.parse_atom())
        return t

    def parse_atom(self) -> QuasiTerm:
        t = self.peek()
        if t[0] == "zero":
            self.next()
            return Zero()
        if self.at_sym("("):
            self.next()
            a = self.parse_term()
            self.expect(",")
            b = self.parse_term()
            self.expect(")")
            return TPair(a, b)
        if t[0] == "ident":
            self.next()
            name = t[1]
            if self.at_sym("("):
                self.next()
                a = self.parse_term()
                self.expect(")")
                return Succ(a) if name == "S" else App(name, a)
            if name == "S":
                self.err("S requires an argument")
            return Var(name)
        self.err(f"expected term, got {t[1]!r}")

    def parse_lit(self):
        if self.at_sym("!"):
            self.next()
            inner = self.parse_lit()
            if isinstance(inner, (Rel, OracleMem)):
                return replace(inner, negated=not inner.negated)
            self.err("only relations and oracle atoms can be negated")
        t1 = self.parse_term()
        nxt = self.peek()
        if nxt[0] == "ident" and nxt[1] == "in":
            self.next()
            x = self.next()
            if x[1] != "X":
                raise cl.CLSyntaxError("membership is only in the oracle X",
                                       x[2], x[3])
            return OracleMem(t1)
        if self.at_sym("=") or self.at_sym("<"):
            rel = self.next()[1]
            t2 = self.parse_term()
            return Rel(t1, rel, t2)
        self.err("expected relation in literal")
