"""Program transformations on recursive clausal definitions.

reduce_recursive_to_pr translates an arbitrary recursive clausal
definition (identity measure) into primitive recursion over an explicit
tagged dispatcher.  With one self-call per clause it walks the chain of
descent arguments by PR and folds the results back, with no stack; with
more, it iterates a stack stepper by PR, J^k moves for k = 0, 1, ... in
a mu scan that stops at the first terminal stack, and reads the value
off that stack.

reduce_bounded_nested_to_snr translates a bounded nested definition into
a single application of special nested recursion.  Its machine state
pairs a potential, which strictly decreases, with the clause argument,
the count of free calls and the list of pending partial results, so each
step reads the state by pair projections, with no mu scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import clausal as cl
from .clausal import (AppEq, Clause, ClausalDef, Literal, Succ, TPair, Var,
                      VarPair, VarZero, Zero, check_recursive_restrictions)
from .compiler import (DBL, HD, ONE, PRED, TL, Z_, compile_explicit, const,
                       dd, lt_d)
from .derivation import (ADD, Derivation, I, LT, MUL, PolyBound, S, comp,
                         fold, mu, P, pr, snr)
from .evaluator import Budget, eval_memo


class ReductionError(ValueError):
    pass


class BoundViolation(ValueError):
    pass


@dataclass(frozen=True)
class ReductionArtifacts:
    h_def: ClausalDef         # the explicit tagged dispatcher
    f1_def: ClausalDef | None  # the stack stepper's spec; None when J = 1
    J: int                    # max recursive calls per clause
    mu_desc: str              # the depth scan (J = 1) or terminal scan
    result: Derivation


# The SNR reduction unrolls at most this many recursive calls per clause,
# and checks the size bound by interpretation on [0, _VALIDATE_TO].
_UNROLL_LIMIT = 8
_VALIDATE_TO = 24


# --- small derivation arithmetic helpers -------------------------------------


def add_d(a: Derivation, b: Derivation) -> Derivation:
    return comp(ADD, P(a, b))


def mul_d(a: Derivation, b: Derivation) -> Derivation:
    return comp(MUL, P(a, b))


def sub_d(a: Derivation, b: Derivation) -> Derivation:
    """Modified subtraction a - b (0 when a < b), read off the pairing
    <a, b> = T(a + b) + a + 1 with T(n) = n(n + 1)/2, in a fixed number
    of steps: a - b = [a >= b] * HD(2(a + b)^2 + 2a + 1).

    Proof.  Let s = a + b and a >= b.  Then
    2s^2 + 2a - T(2s) = a - b lies in [0, 2s], so 2s^2 + 2a + 1 codes
    <a - b, a + 3b> on diagonal 2s, and HD reads a - b.  On <a, b>, D
    dispatches on lt(a, b) to 0 when a < b.
    """
    sq_plus_a = add_d(mul_d(ADD, ADD), HD)  # s^2 + a on <a, b>
    on_pair = dd(LT, comp(HD, comp(S, comp(DBL, sq_plus_a))), Z_)
    return comp(on_pair, P(a, b))


def pair_depth_d() -> Derivation:
    """D(x) = k + 3, where k is the least number with x < 2^(2^k).

    D(x) bounds the depth of a pair-descent recursion started at x
    (RestrictionReport.pair_descent): a chain of nested calls from x holds
    at most D(x) calls, the one at x included.  Proof.  A self-call
    argument y of a call at x is a pair component of some v with
    0 < v <= x, since the splits leading to it fail on 0.  With
    v = <a, b> and s = a + b, v > s(s+1)/2 and y <= s, so y^2 < 2x.  Along
    a chain of calls at x_0 = x, x_1, x_2, ... the numbers t_i = x_i / 2
    then satisfy t_(i+1) < sqrt(t_i), and t_0 < 2^(2^k - 1) gives
    t_i < 2^((2^k - 1) / 2^i).  So t_k < 2: if the chain reaches x_k,
    then x_k <= 3.  The components of 1, 2, 3 (<0,0>, <0,1>, <1,0>) are
    at most 1, those of 1 are 0, and a call at 0 makes no self-call, so at
    most 3 calls follow x_(k-1): the chain holds at most k + 3 calls.
    The bound is reached: L at [0, 0, 0, 0] = 11 < 2^(2^2) calls itself at
    4, 2, 1 and 0, so no smaller constant works.

    k is found by a mu scan over k <= x whose test is x < 2^(2^k), with
    2^(2^k) computed by primitive recursion (2, then squaring); the scan
    runs k + 1 rounds, at most 6 for any x below 2^32.
    """
    fw = comp(HD, TL)  # f(w, p) in the step argument <w, <f(w, p), p>>
    tower = comp(pr(const(2), mul_d(fw, fw)), P(I, Z_))
    k = comp(mu(lt_d(TL, comp(tower, HD))), P(comp(S, I), I))
    return comp(S, comp(S, comp(S, k)))


# --- the tagged dispatcher ---------------------------------------------------


def _fresh_names(taken: set[str], bases: list[str]) -> list[str]:
    out = []
    for b in bases:
        name, i = b, 0
        while name in taken:
            i += 1
            name = f"{b}{i}"
        taken.add(name)
        out.append(name)
    return out


def build_dispatcher(d: ClausalDef) -> tuple[ClausalDef, int]:
    """The explicit dispatcher h for a recursive definition.

    h((x, c)) inspects the partial-results list c = (z1,...,zi,0) holding
    the values of the first i recursive calls of the clause applying to x.
    It yields (0, t) when the (i+1)-th recursive call on argument t still
    needs computing, and (1, y) when the clause's result y is determined.
    """
    sd = cl.complete_to_strict(d)
    argvar = sd.clauses[0].pattern.name
    J = max(sum(1 for l in c.literals
                if isinstance(l, AppEq) and l.fname == d.name)
            for c in sd.clauses)
    if J == 0:
        raise ReductionError(f"{d.name} is not recursive")
    taken = {argvar}.union(*map(cl._clause_all_vars, sd.clauses))
    v, *cs = _fresh_names(taken, ["v"] + [f"c{i}" for i in range(J + 1)])
    clauses: list[Clause] = [Clause(Var(v), (VarZero(v),), Zero())]
    for c in sd.clauses:
        lits: list[Literal] = [VarPair(v, argvar, cs[0])]
        i = 0
        for lit in c.literals:
            if isinstance(lit, AppEq) and lit.fname == d.name:
                clauses.append(Clause(Var(v), tuple(lits + [VarZero(cs[i])]),
                                      TPair(Zero(), lit.arg)))
                lits.append(VarPair(cs[i], lit.out, cs[i + 1]))
                i += 1
            else:
                lits.append(lit)
        clauses.append(
            Clause(Var(v), tuple(lits), TPair(Succ(Zero()), c.result)))
    # a clause made from literals two source clauses share is kept once
    h_def = ClausalDef(f"{d.name}_h", tuple(dict.fromkeys(clauses)))
    return h_def, J


# --- reduction to primitive recursion ----------------------------------------


def _build_app1(name: str, J: int) -> ClausalDef:
    """Append one element to a list of statically bounded length J - 1:
    app1((d, z)) = d ++ (z, 0), unrolled clause by clause."""
    clauses = []
    for k in range(J):
        # pattern ((u1,(...,(uk,0))), z) -> (u1,...,uk,z,0)
        dpat: cl.QuasiTerm = Zero()
        for i in range(k, 0, -1):
            dpat = TPair(Var(f"u{i}"), dpat)
        res: cl.QuasiTerm = TPair(Var("z"), Zero())
        for i in range(k, 0, -1):
            res = TPair(Var(f"u{i}"), res)
        clauses.append(Clause(TPair(dpat, Var("z")), (), res))
    return ClausalDef(name, tuple(clauses))


def _build_f1(name: str, hname: str, app1name: str) -> ClausalDef:
    """The stack stepper, as a clausal definition: pushes a pending
    recursive argument, pops a computed value into the caller's list, or
    idles on a finished stack.  It is printed as the specification of
    _stepper, which the reduction runs instead."""
    x, c, s1, r, a, z, t1, t2, w, dv, s2 = (
        "x", "c", "s1", "r", "a", "z", "t1", "t2", "w", "d", "s2")
    top = TPair(Var(x), Var(c))
    same = TPair(top, Var(s1))
    happ = AppEq(hname, top, r)
    clauses = [
        Clause(Zero(), (), Zero()),
        Clause(TPair(Zero(), Var(s1)), (), TPair(Zero(), Var(s1))),
        Clause(same, (happ, VarZero(r)), same),
        Clause(same, (happ, VarPair(r, a, z), VarZero(a)),
               TPair(TPair(Var(z), Zero()), same)),
        Clause(same, (happ, VarPair(r, a, z), VarPair(a, t1, t2),
                      VarZero(s1)), same),
        Clause(same, (happ, VarPair(r, a, z), VarPair(a, t1, t2),
                      VarPair(s1, w, s2), VarZero(w)), same),
        Clause(same, (happ, VarPair(r, a, z), VarPair(a, t1, t2),
                      VarPair(s1, w, s2), VarPair(w, "w1", dv)),
               TPair(TPair(Var("w1"),
                           cl.App(app1name, TPair(Var(dv), Var(z)))),
                     Var(s2))),
    ]
    return ClausalDef(name, tuple(clauses))


def _stepper(R: Derivation, app1_d: Derivation) -> Derivation:
    """The stack stepper that _build_f1 specifies, built by hand so that
    it calls h once per move.

    On a stack s with top frame HD s, R = h(HD s) is one node, so each
    branch of the strict dispatch reads it as a memo hit.  The chain is:
    HD s = 0 gives s; a pending call (HD R = 0) pushes ((TL R, 0), s); a
    finished frame with nothing below (TL s = 0) or below a 0 frame
    (w = HD TL s = 0) gives s; otherwise the value TL R pops into the
    caller's list, ((HD w, app1((TL w, TL R))), TL TL s).  This matches
    f1 wherever h answers a pair for a nonzero frame, as a dispatcher of
    a strict definition does.
    """
    w = comp(HD, TL)
    push = P(P(comp(TL, R), Z_), I)
    pop = P(P(comp(HD, w), comp(app1_d, P(comp(TL, w), comp(TL, R)))),
            comp(TL, TL))
    return dd(HD, I, dd(comp(HD, R), push, dd(TL, I, dd(w, I, pop))))


def _chain_walk(h_d: Derivation) -> Derivation:
    """f as a fold over its descent chain, for one self-call per clause.

    With r(a) = h((a, 0)), the call at a either ends (HD r(a) = 1, value
    TL r(a)) or calls itself once at TL r(a).  The chain of calls from x
    is x = A(0, x), A(1, x), ..., where A(i, x) = step^i(x) and step(a)
    is TL r(a) while the call at a does not end, else a (by `pr`).  The
    identity measure makes the chain strictly decrease, so its depth n,
    the least i with HD r(A(i, x)) = 1, is at most x: a `mu` scan bounded
    by S(x) finds it.  A `pr` over j then folds the results back up:
    v_0 = TL r(A(n, x)) and v_(j+1) = TL h((A(n-1-j, x), (v_j, 0))),
    since the caller at A(n-1-j, x) resumes with the value v_j of its one
    call; f(x) = v_n.  Each fold step finds n-1-j by `sub_d` in a fixed
    number of steps.
    """
    r = comp(h_d, P(I, Z_))
    step = dd(comp(HD, r), comp(TL, r), I)
    walk = pr(I, comp(step, comp(HD, TL)))      # A(<i, x>)
    depth = comp(mu(comp(HD, comp(r, walk))), P(comp(S, I), I))
    # the fold's step argument is <j, <v_j, <n, x>>>
    j, v = HD, comp(HD, TL)
    n, x = comp(HD, comp(TL, TL)), comp(TL, comp(TL, TL))
    caller = comp(walk, P(sub_d(n, comp(S, j)), x))
    fold_back = pr(comp(TL, comp(r, walk)),
                   comp(TL, comp(h_d, P(caller, P(v, Z_)))))
    return comp(fold_back, P(depth, P(depth, I)))


def reduce_recursive_to_pr(d: ClausalDef,
                           env: dict[str, Derivation] | None = None
                           ) -> ReductionArtifacts:
    """Translate a recursive clausal definition to primitive recursion.

    With one self-call per clause (J = 1) the recursion is linear, and
    the result walks its chain of descent arguments and folds the results
    back (_chain_walk; R. Péter, Recursive Functions, 1967; H. E. Rose,
    Subrecursion, 1984).  It needs no stack: a call has one pending
    self-call, whose argument is the next one on the chain, so the fold
    can recompute each caller instead of keeping it.  Every value is a
    fixed nesting of pairs of one chain argument, one result and the
    depth, so widths do not grow with the depth as a stack's do.  The
    cost is O(n^2) steps in the recursion depth n: the depth scan's round
    i runs walk's `pr` from 0 up to i again.  The fold adds O(n) steps:
    step j finds n-1-j by `sub_d` in a fixed number of steps, and
    memoized evaluation finds A(n-1-j, x) computed by the depth scan
    already.

    With J >= 2 the result iterates a stack stepper on the initial stack
    ((x,0),0) and reads the value off the first terminal stack, the
    root's frame alone with h's tag 1.  f1_def specifies the stepper as a
    clausal definition, which would check h once per clause; the
    stepper itself is built by hand (_stepper) and calls h once per move.
    A mu scan over k runs J^k moves, k = 0, 1, ..., and stops at the first
    k whose stack is terminal, bounded by the fixed count J^(x+2) (or
    J^(D(x)+2)) that always suffices.  So the moves run number fewer than
    J times those that do work, and memoized evaluation re-walks the
    earlier rounds as memo hits at one step a move: the cost is
    geometric in the rounds.  Each push pairs the new frame with the
    whole stack code, so the stack's width about doubles per frame: a
    deep recursion runs out of bits, and evaluation raises
    BudgetExceeded("bits") under a bit budget, never a wrong value.  That
    is the documented limit of J >= 2.
    """
    env = dict(env or {})
    if d.kind != "recursive":
        raise ReductionError(f"{d.name} is not recursive")
    pair_descent = check_recursive_restrictions(d).pair_descent
    h_def, J = build_dispatcher(d)
    h_d = compile_explicit(h_def, env)
    if J == 1:
        mu_desc = ("depth n = the least i <= x with HD h((step^i(x), 0)) = 1,"
                   " then n fold steps back up the chain")
        return ReductionArtifacts(h_def, None, J, mu_desc, _chain_walk(h_d))
    app1_def = _build_app1(f"{d.name}_app1", J)
    f1_def = _build_f1(f"{d.name}_f1", h_def.name, app1_def.name)
    R = comp(h_d, HD)
    step = _stepper(R, compile_explicit(app1_def, env))

    # run(<k, x>) = step^(J^k)(((x, 0), 0)).  The machine performs at most
    # one push per expansion and one pop per computed value, so a
    # recursion tree of depth n (calls along a path) and branching J
    # reaches its terminal stack in fewer than 2*J^n moves.  With the
    # identity measure n <= x + 1, so K = x + 2 rounds suffice; with pair
    # descent n <= D(x) (see pair_depth_d), so K = D(x) + 2 suffice.  The
    # scan takes the least k < K with a terminal stack after J^k moves,
    # else K; the stepper fixes terminal stacks, so any k past the first
    # terminal stack reads the same value.
    jk = pr(ONE, mul_d(const(J), comp(HD, TL)))  # J^k on <k, x>
    iterate = pr(I, comp(step, comp(HD, TL)))
    run = comp(iterate, P(jk, comp(P(P(I, Z_), Z_), TL)))
    # 1 on a terminal stack, the root's frame alone with h's tag 1; one
    # run node under the test, so the result's run is the scan's memo hit
    ends = dd(TL, comp(HD, R), Z_)
    if pair_descent:
        K = comp(S, comp(S, pair_depth_d()))
        bound = "D(x)+2"
        where = ", D(x) = 3 + (the least k with x < 2^(2^k))"
    else:
        K, bound, where = comp(S, comp(S, I)), "x+2", ""
    n = comp(mu(comp(ends, run)), P(K, I))
    mu_desc = (f"{J}^n moves, n = the least k < {bound} whose {J}^k moves "
               f"reach a terminal stack, else {bound}{where}")
    result = comp(comp(TL, comp(R, run)), P(n, I))
    return ReductionArtifacts(h_def, f1_def, J, mu_desc, result)


# --- reduction of bounded nested definitions to SNR ---------------------------


def poly_to_derivation(b: PolyBound) -> Derivation:
    """Compile a polynomial bound to a derivation computing it."""
    def rule(p: PolyBound, args: list[Derivation]) -> Derivation:
        if p.kind == "const":
            return const(p.value)
        if p.kind == "var":
            return I
        x, y = args
        return add_d(x, y) if p.kind == "add" else mul_d(x, y)
    return fold(b, lambda p: p.args, rule)


def _snr_state(J: int, xv: Derivation, kf: Derivation, c: Derivation,
               p: Derivation) -> Derivation:
    """The SNR machine state <xv*M + kf*M1, <<xv, kf>, c>>, built from
    derivations of its parts and of the parameter p = <R, x>; M1 and M
    are read off p (see reduce_bounded_nested_to_snr)."""
    c_max = Z_
    for _ in range(J):
        c_max = P(HD, c_max)
    M1 = comp(S, P(P(TL, const(J)), c_max))
    M = mul_d(const(J + 1), M1)
    potential = add_d(mul_d(xv, comp(M, p)), mul_d(kf, comp(M1, p)))
    return P(potential, P(P(xv, kf), c))


def reduce_bounded_nested_to_snr(d: ClausalDef, bound: PolyBound,
                                 env: dict[str, Derivation] | None = None
                                 ) -> Derivation:
    """Translate a bounded nested definition to special nested recursion.

    The SNR parameter is p = <R, x>, where R = bound(x) + 1.  Two
    constants are read off p: M1 = S(<<x, J>, c_max>), where
    c_max = (R, (R, ..., 0)) has J entries, and M = (J+1)*M1.  The machine
    state is

        state(xv, kf, c) = <xv*M + kf*M1, <<xv, kf>, c>>,

    where xv is the argument of the clause being run, c = (z1,...,zi,0) is
    the dispatcher's list of the results of its first i recursive calls,
    and kf = J - i counts the calls still free.  Each step reads the state
    through HD and TL alone, with no mu scan: g1(<v, p>) computes
    <tag, t> = h(<xv, c>) and returns <tag, (1 - tag)*state(t, J, 0) + tag*t>,
    selecting by arithmetic (a `dd` would pair both alternatives and
    widen the value), and h1(<v, <u, p>>) = state(xv, PRED(kf), app1(<c, u>))
    resumes the clause with the value u of its pending call.  M1 and M
    are functions of p alone, so memoized evaluation computes them once
    per run.

    The state strictly decreases.  A Cantor code <a, B> is ordered by the
    sum a + B first, and every B = <<xv, kf>, c> of a reachable state is
    below M1: xv <= x, kf <= J and c holds at most J results, each at most
    bound(xv) <= bound(x) < R, and pairing is monotone in both components,
    so B <= <<x, J>, c_max> < M1.  A push runs the call on t < xv (the
    identity measure), so its potential t*M + J*M1 is at most
    xv*M - M + J*M1 = xv*M - M1, and its sum falls below xv*M, which the
    old state's sum reaches.  A resume lowers the potential by exactly M1,
    more than the B it adds (kf >= 1 there, since a clause makes at most J
    calls).

    The bound is checked dynamically and trusted beyond it: the
    definition is interpreted on [0, _VALIDATE_TO] and any output above
    bound(x) raises BoundViolation.  Above _VALIDATE_TO a violated bound
    can break the order, and SNR then answers 0.  The definition is
    interpreted alone, so a helper call on [0, _VALIDATE_TO] raises
    ReductionError naming the helper.
    """
    env = dict(env or {})
    if d.kind != "recursive":
        raise ReductionError(f"{d.name} is not recursive")
    check_recursive_restrictions(d)
    h_def, J = build_dispatcher(d)
    if J > _UNROLL_LIMIT:
        raise ReductionError(
            f"J = {J} exceeds the unrolling limit {_UNROLL_LIMIT}")
    want = []  # d(0), ..., d(_VALIDATE_TO), by direct interpretation
    for x in range(_VALIDATE_TO + 1):
        try:
            val = cl.eval_clausal([d], d.name, x,
                                  budget=Budget(max_steps=10**7))
        except cl.ClausalEvalError as e:
            raise ReductionError(
                f"cannot check the bound of {d.name}: {e}") from None
        if val > bound(x):
            raise BoundViolation(
                f"{d.name}({x}) = {val} exceeds bound {bound(x)}")
        want.append(val)
    h_d = compile_explicit(h_def, env)
    app1_d = compile_explicit(_build_app1(f"{d.name}_app1", J), env)

    # --- g1(<v, p>): dispatch on <xv, c> ------------------------------------
    B = comp(TL, HD)
    r = comp(h_d, P(comp(HD, comp(HD, B)), comp(TL, B)))
    tag, t = comp(HD, r), comp(TL, r)
    push = _snr_state(J, t, const(J), Z_, TL)
    g1 = P(tag, add_d(mul_d(lt_d(tag, ONE), push), mul_d(tag, t)))

    # --- h1(<v, <u, p>>): resume with the pending call's value u -------------
    B, u, p = comp(TL, HD), comp(HD, TL), comp(TL, TL)
    xv, kf, c = comp(HD, comp(HD, B)), comp(TL, comp(HD, B)), comp(TL, B)
    h1 = _snr_state(J, xv, comp(PRED, kf), comp(app1_d, P(c, u)), p)

    # --- wrapper: initial state and parameter as functions of x ---------------
    p0 = P(comp(S, poly_to_derivation(bound)), I)
    result = comp(snr(g1, h1),
                  P(_snr_state(J, I, const(J), Z_, p0), p0))

    # spot-check the construction against direct interpretation
    for x in (0, 1, 2, 3, 5, 8, min(13, _VALIDATE_TO)):
        got = eval_memo(result, x, budget=Budget(max_steps=10**8))
        if got != want[x]:
            raise ReductionError(
                f"SNR reduction disagrees with {d.name} at {x}: "
                f"{got} != {want[x]}")
    return result
