"""Metered big-step evaluation of derivations.

Evaluation is one loop over an explicit stack of frames, one frame per
compound node being evaluated, so recursion depth is bounded only by the
budget, never by the host interpreter's call stack.  Every call takes
one path: a compound node's memo entry or record first, then its step
and the width of its argument, then its frame, or for a leaf its value,
computed inline with no frame.

The meter, which is the cost model of every reduction criterion:

- a step is charged for each call, compound or leaf, and each pr/bpr
  iteration;
- with memo=True, a compound call whose (node, argument) this evaluation
  has already computed is a memo hit and costs no step; nodes are
  interned, so equal subterms, however built, share memo entries.  There
  is one entry per distinct (node, argument) call and no more: the
  iterates f(w, p) that a pr/bpr call at <v, p> runs through are not
  entries, so a later call at <v', p> starts again from w = 0;
- peak_bits is the widest argument or value seen, in bits;
- max_depth counts frames, leaves included: a leaf called from a frame
  at depth k sits at depth k + 1, and the root is at depth 1;
- the expansion log receives (node, argument) for each call of a pr, bpr
  or snr node, memo hits included, and (node, <w, p>) for each pr/bpr
  iteration w; the root call is not logged.

A step is checked against the budget as it is charged and a width as it
is seen: a width above max_bits raises, even when the meter passed in
already holds a wider peak.  E and smash check the width of their value
before computing it.  On return or BudgetExceeded the meter holds the
counts so far.

Evaluation keeps, for this call only, a table of the pairs the loop
builds (P's value and the arguments that mu, pr, bpr and snr pass on), so
unpairing such a pair again, as HD, TL and the recursions do, is a lookup
and not a square root.  Memoized evaluation also keeps one {argument:
value} table per compound node entered.  Neither table changes a value or
the meter.

Naive evaluation charges every call in full, repeats included, but a
compound call that a run enters after its first _ARM_STEPS steps is
recorded when it completes: its value, the steps it charged and the
height of its deepest frame above its caller.  A later call at the same (node,
argument) is replayed, not entered: its steps are added, max_depth rises
to the caller's depth plus that height, and peak_bits, which already
covers every width the recorded run saw, stays.  A call whose steps would
pass the step budget is entered and run for real, so BudgetExceeded comes
at the same step with the same meter; a run that keeps an expansion log
records nothing, so the log lists every call.  Values and meters are
those of running every call.  A naive run's step check counts the records
and the pairs together, each an entry of at most 2 * peak_bits bits of
numbers, and drops both, all at once, when there are _RECORDS entries or
their number times peak_bits passes _RECORD_BITS; _count is that rule,
for the loop and the plans alike.  A step adds at most four entries, so
the check counts at the run's first step, again once steps have used a
quarter of the room left, and, once peak_bits times _RECORDS passes
_RECORD_BITS, at the step after each new peak.  So a naive run's memory
is its frame stack, O(depth), plus a constant.

Hot roots run compiled.  A root's second unlogged run in one mode,
naive or memoized, in this process plans and compiles it for that mode
(funalg.specialize), once, and that run and every later one run its
plan; the first stays on the loop, so a process that runs a root once,
as a one-shot command does, never compiles it.  The choice counts runs,
not steps: most roots a study or a benchmark repeats run for a few to a
few hundred steps at a time, and a step trigger kept those on the loop
however often they ran.  On a 2-core VM with Python 3.11 a compile costs
31 to 44 us per plan node for the corpus plans in either mode; a
memoized plan counts each shared node once, so the 31 memoized corpus
plans have 3,177 plan nodes and compile in about 115 ms, the naive ones
5,787 nodes in about 200 ms.  A compiled run saves some 0.2 us a step
and about 2 us a run: memoized comp(S, P(I, I)) at 3 takes 1.7 us
compiled and 3.8 us on the loop.  So a root repays its compile once its
compiled runs have charged about 190 steps per plan node, or, for runs
of a few steps, made some 20 runs per plan node, which a process that
repeats its runs soon does.  A plan
is Python specialised to that DAG that does the loop's step charges, width
checks and depth updates, and memoized its memo lookups and stores,
naive its records and replays.  So a compiled run returns the loop's
value and leaves the loop's meter, all four fields.  A plan's pairs and
memo or record tables are made with it and are empty between runs; a
naive plan counts and drops them at its step checks by _count, so its
memory too is O(depth) plus a constant.  A compiled run that meets a
budget event, a replay past the step budget included, is abandoned
without touching the meter, and the loop re-runs the call from the
caller's meter, so BudgetExceeded comes at the loop's step with the
loop's meter; an exception from outside the evaluation, such as an
oracle's or a signal handler's, leaves a compiled run's meter as it was
passed.  Logged runs (so the log is the loop's), a root's first run in
a mode, runs of a root whose plan would pass specialize.PLAN_NODES
nodes, and a run that finds its plan busy in another thread stay on the
loop.  Plans are held weakly, keyed on the root, and die with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from weakref import WeakKeyDictionary

from .codec import nat
from .derivation import Derivation, Op


@dataclass
class Budget:
    max_steps: int = 10_000_000
    max_bits: int = 1_000_000


@dataclass
class Meter:
    steps: int = 0
    peak_bits: int = 0
    memo_hits: int = 0
    max_depth: int = 0


class BudgetExceeded(RuntimeError):
    """Raised when evaluation exceeds the step or bit budget.

    kind is "steps" or "bits".
    """

    def __init__(self, kind: str, meter: Meter):
        super().__init__(f"budget exceeded: {kind}")
        self.kind = kind
        self.meter = meter


_EMPTY: frozenset[int] = frozenset()

# Op codes (see derivation.py): the leaves come first, so a node is
# compound iff its code is >= _P; mu and the recursions, whose argument is
# read as <v, p>, are the codes >= _MU, and the recursions those >= _PR.
_S, _ADD, _MUL, _LT, _I, _D = (op.code for op in (
    Op.S, Op.ADD, Op.MUL, Op.LT, Op.I, Op.D))
_P, _COMP, _MU, _PR, _BPR, _SNR = (op.code for op in (
    Op.P, Op.COMP, Op.MU, Op.PR, Op.BPR, Op.SNR))
_E, _SMASH, _ORACLE = Op.E.code, Op.SMASH.code, Op.ORACLE.code
_ROOT = -1  # the pseudo-frame that calls the root node
# Naive evaluation records the calls a run enters after its first
# _ARM_STEPS steps, and drops its records and pairs, all at once, when
# they number _RECORDS or their number times peak_bits, which bounds each
# argument, value and pair they hold, passes _RECORD_BITS.
_ARM_STEPS = 256
_RECORDS = 1 << 16
_RECORD_BITS = 1 << 25


def _count(steps: int, max_steps: int, peak: int, tables) -> int:
    """A naive run's step check counts its pairs and records, the entries
    of `tables`, and empties every table at the limits above.  The step
    past which it counts again comes before the four entries a step may
    add could reach them, and at most at max_steps."""
    n = sum(map(len, tables))
    if n >= _RECORDS or n * peak > _RECORD_BITS:
        for t in tables:
            t.clear()
        n = 0
    return min(max_steps, steps + 1 + (
        min(_RECORDS, _RECORD_BITS // (peak + 1)) - n) // 4)


# A root's unlogged runs in one mode go through its compiled plan for that
# mode from the _COMPILE_RUN-th such run on.  _HOT maps a root to its
# [naive, memoized] cells; a cell holds the number of such runs on the
# loop (1 once the root has been seen, at the second-run trigger), the
# mode's specialize.Plan, or () when the plan would be too large.  The
# module docstring gives the trigger's break-even.
_COMPILE_RUN = 2
_HOT: WeakKeyDictionary = WeakKeyDictionary()
_specialize = None


def _make_plan(d: Derivation, memo: bool):
    """d's specialize.Plan for the mode, or None.  The compiler is imported
    when the first root gets hot, so a process that never compiles does not
    load it."""
    global _specialize
    if _specialize is None:
        from . import specialize as _specialize
    return _specialize.make_plan(d, memo)


def evaluate(d: Derivation, x: int, oracle=None, budget: Budget | None = None,
             meter: Meter | None = None, memo: bool = False,
             expansion_log: list | None = None) -> int:
    """Evaluate derivation d at argument x and return its value.

    Metering accumulates into `meter` if given.  What a step is, what
    memo=True keeps, how a naive run replays a repeated call and what
    expansion_log receives are the module docstring's contract.  Raises
    TypeError unless d is a Derivation and x an int, and ValueError if x
    is negative.
    """
    if not isinstance(d, Derivation):
        raise TypeError(f"expected a Derivation, got {type(d).__name__}")
    nat(x)
    if oracle is None:
        oracle = _EMPTY
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    max_steps, max_bits = budget.max_steps, budget.max_bits
    log = expansion_log
    if log is None and d.children:  # the compiled tier
        cells = _HOT.get(d)
        if cells is None:
            cells = _HOT[d] = [0, 0]
        mode = 1 if memo else 0
        tier = cells[mode]
        if tier.__class__ is int and tier + 1 >= _COMPILE_RUN:
            tier = cells[mode] = _make_plan(d, memo) or ()
        if tier.__class__ is int:
            cells[mode] = tier + 1
        elif tier:
            val = tier.run(x, oracle, max_steps, max_bits, meter)
            if val is not None:
                return val
    # z -> (head, tail) for every pair z the loop builds, which each unpair
    # below tries before isqrt; with memo, each compound node's {argument:
    # value} table, made on the node's first entry.
    pairs: dict[int, tuple[int, int]] = {}
    pget = pairs.get
    if memo:
        tables: dict[Derivation, dict[int, int]] = {}
    steps, peak = meter.steps, meter.peak_bits
    # Without memo or log: each compound node's {argument: (value, steps,
    # height)} records, which replay a call (see the module docstring), of
    # the calls made past `arm`, the run's first _ARM_STEPS steps.  A step
    # past `stop` exceeds the budget or, without memo, counts the pairs and
    # records; a new peak at which the bits cap binds sets `stop` to count
    # them at the next step.
    records: dict[Derivation, dict[int, tuple[int, int, int]]] = {}
    arm = steps + _ARM_STEPS if log is None else max_steps
    stop = max_steps if memo else steps
    hits, maxd = meter.memo_hits, meter.max_depth
    # a value is wider than peak, or than the budget, iff it is >= lim
    lim = 1 << min(peak, max_bits)
    # Saved frames: (node, code, arg, pc, tab, v, p, w), where tab is the
    # node's memo table, or a naive frame's (records of the node, steps
    # before the call, max depth outside it), or None.  The current frame
    # lives in the same locals, plus its depth; v, p and w are its
    # operator's variables, read off a = <v, p> at the push for mu and
    # the recursions, and pc says where it resumes.  The root pseudo-frame,
    # at depth 0, calls d at x and returns the value.
    stack: list[tuple] = []
    node, c, a, pc, tab, ct, dep = d, _ROOT, x, 0, None, None, 0
    v = p = w = val = 0
    try:
        while True:
            # Resume the current frame with val: it calls cn at ca, or
            # leaves cn None and returns val.
            cn = None
            if c == _COMP:
                if pc == 0:
                    pc = 1
                    cn = node.children[1]
                    ca = a
                elif pc == 1:
                    pc = 2
                    cn = node.children[0]
                    ca = val
            elif c == _P:
                if pc == 0:
                    pc = 1
                    cn = node.children[0]
                    ca = a
                elif pc == 1:
                    pc = 2
                    v = val
                    cn = node.children[1]
                    ca = a
                else:
                    s = v + val
                    z = (s * (s + 1) >> 1) + v + 1  # <v, val>
                    pairs[z] = v, val
                    val = z
            elif c == _MU:
                # a = <v, p>: the least w < v with g(<w, p>) = 1, else v
                if pc == 0:
                    pc = 1
                    w = 0
                elif val == 1:
                    v = w
                else:
                    w += 1
                if w < v:
                    cn = node.children[0]
                    s = w + p
                    ca = (s * (s + 1) >> 1) + w + 1  # <w, p>
                    pairs[ca] = w, p
                else:
                    val = v
            elif c == _PR or c == _BPR:
                # a = <v, p>, run bottom-up: f(0, p) = g(p),
                # f(w + 1, p) = h(<w, f(w, p), p>); bpr clamps above p to 0
                if pc == 0:
                    if a:
                        pc = 1
                        w = 0
                        cn = node.children[0]
                        ca = p
                    else:
                        val = 0
                else:
                    if pc == 1:
                        pc = 2
                    else:
                        w += 1
                    if c == _BPR and val > p:
                        val = 0
                    if w < v:
                        steps += 1
                        if steps > max_steps:
                            raise BudgetExceeded("steps", meter)
                        if log is not None:
                            s = w + p
                            log.append((node, (s * (s + 1) >> 1) + w + 1))
                        cn = node.children[1]
                        s = val + p
                        t = (s * (s + 1) >> 1) + val + 1
                        s = w + t
                        ca = (s * (s + 1) >> 1) + w + 1  # <w, <val, p>>
                        pairs[t] = val, p
                        pairs[ca] = w, t
            elif c == _SNR:
                # a = <v, p>; g(a) = <0, b> with b < v answers
                # f(<h(<v, <f(<b, p>), p>>), p>) when h's value is below v,
                # <1, b> with b <= p answers b, anything else 0
                if pc == 0:
                    if a:
                        pc = 1
                        cn = node.children[0]
                        ca = a
                    else:
                        val = 0
                elif pc == 1:
                    if val:
                        if tb := pget(val):
                            t, b = tb
                        else:
                            s = (isqrt(8 * val - 7) - 1) >> 1
                            t = val - 1 - (s * (s + 1) >> 1)
                            b = s - t
                        if t == 0 and b < v:
                            pc = 2
                            cn = node
                            s = b + p
                            ca = (s * (s + 1) >> 1) + b + 1
                            pairs[ca] = b, p
                        elif t == 1 and b <= p:
                            val = b
                        else:
                            val = 0
                elif pc == 2:
                    pc = 3
                    cn = node.children[1]
                    s = val + p
                    t = (s * (s + 1) >> 1) + val + 1
                    s = v + t
                    ca = (s * (s + 1) >> 1) + v + 1  # <v, <val, p>>
                    pairs[t] = val, p
                    pairs[ca] = v, t
                elif pc == 3:
                    if val < v:
                        pc = 4
                        cn = node
                        s = val + p
                        ca = (s * (s + 1) >> 1) + val + 1
                        pairs[ca] = val, p
                    else:
                        val = 0
            elif pc == 0:  # the root pseudo-frame
                pc = 1
                cn = node
                ca = a
            else:
                return val

            if cn is None:  # return val to the saved frame
                if val >= lim:
                    peak = max(peak, val.bit_length())
                    lim = 1 << peak
                    if peak > max_bits:
                        raise BudgetExceeded("bits", meter)
                    if peak * _RECORDS > _RECORD_BITS:
                        stop = steps
                if memo:  # every memoized frame has its node's table
                    tab[a] = val
                elif tab is not None:  # record the call; maxd ran inside it
                    rt, s0, m0 = tab
                    rt[a] = val, steps - s0, maxd - dep + 1
                    if m0 > maxd:
                        maxd = m0
                node, c, a, pc, tab, v, p, w = stack.pop()
                dep -= 1
                continue

            # call cn at ca: a compound node's memo entry or record, then
            # one step, one width check, and the frame or the leaf's value
            cc = cn.op.code
            if cc >= _P:
                if log is not None and cc >= _PR and dep:
                    log.append((cn, ca))
                if memo:
                    ct = tables.get(cn)
                    if ct is None:
                        ct = tables[cn] = {}
                    else:
                        hit = ct.get(ca)
                        if hit is not None:
                            hits += 1
                            val = hit
                            continue
                elif steps <= arm:
                    ct = None
                else:
                    rt = records.get(cn)
                    if rt is None:
                        rt = records[cn] = {}
                    else:
                        rec = rt.get(ca)
                        if rec is not None and steps + rec[1] <= max_steps:
                            val, k, h = rec  # replay the recorded call
                            steps += k
                            if dep + h > maxd:
                                maxd = dep + h
                            continue
                    # the node's records, the steps before this call and
                    # the depth reached outside it; maxd then runs inside
                    ct = rt, steps, maxd
                    maxd = dep
            steps += 1
            if steps > stop:
                if steps > max_steps:
                    raise BudgetExceeded("steps", meter)
                stop = max_steps if memo else _count(
                    steps, max_steps, peak, (pairs, *records.values()))
            if ca >= lim:
                peak = max(peak, ca.bit_length())
                lim = 1 << peak
                if peak > max_bits:
                    raise BudgetExceeded("bits", meter)
                if peak * _RECORDS > _RECORD_BITS:
                    stop = steps
            if cc >= _P:  # push its frame
                stack.append((node, c, a, pc, tab, v, p, w))
                node, c, a, pc, tab = cn, cc, ca, 0, ct
                if cc >= _MU:  # a = <v, p>, and 0 gives v = p = 0
                    if not ca:
                        v = p = 0
                    elif vp := pget(ca):
                        v, p = vp
                    else:
                        s = (isqrt(8 * ca - 7) - 1) >> 1
                        v = ca - 1 - (s * (s + 1) >> 1)
                        p = s - v
                dep += 1
                if dep > maxd:
                    maxd = dep
                continue

            # a leaf, at depth dep + 1
            if cc == _I:
                val = ca
            elif cc == _S:
                val = ca + 1
            elif cc <= _D:  # add, mul, lt, D: the projections of ca
                if ca:
                    if tb := pget(ca):
                        t, b = tb
                    else:
                        s = (isqrt(8 * ca - 7) - 1) >> 1
                        t = ca - 1 - (s * (s + 1) >> 1)
                        b = s - t  # ca = <t, b>
                    if cc == _ADD:
                        val = t + b
                    elif cc == _MUL:
                        val = t * b
                    elif cc == _LT:
                        val = 1 if t < b else 0
                    elif b:  # D: <t, <y, z>> gives y if t = 0, else z
                        if yz := pget(b):
                            val = yz[1] if t else yz[0]
                        else:
                            s = (isqrt(8 * b - 7) - 1) >> 1
                            val = b - 1 - (s * (s + 1) >> 1)
                            if t:
                                val = s - val
                    else:
                        val = 0
                else:
                    val = 0
            elif cc == _ORACLE:
                val = 1 if ca in oracle else 0
            else:  # E, smash: 1 << e has e + 1 bits
                e = ca if cc == _E else ca.bit_length() ** 2
                if e >= max_bits:
                    peak = max(peak, e + 1)
                    if not dep:  # as below
                        maxd = max(maxd, 1)
                    raise BudgetExceeded("bits", meter)
                val = 1 << e
            if val >= lim:
                peak = max(peak, val.bit_length())
                lim = 1 << peak
                if peak > max_bits:
                    # the root leaf's depth counts before its value's width
                    if not dep:
                        maxd = max(maxd, 1)
                    raise BudgetExceeded("bits", meter)
                if peak * _RECORDS > _RECORD_BITS:
                    stop = steps
            if dep >= maxd:
                maxd = dep + 1
    finally:
        if not memo and steps > arm:
            # each open naive frame, and ct until it is pushed, holds the
            # depth reached outside it; an older ct holds one counted since
            for t in (ct, tab, *[f[4] for f in stack]):
                if t is not None and t[2] > maxd:
                    maxd = t[2]
        meter.steps, meter.peak_bits = steps, peak
        meter.memo_hits, meter.max_depth = hits, maxd


def eval_naive(d: Derivation, x: int, oracle=None,
               budget: Budget | None = None,
               meter: Meter | None = None) -> int:
    return evaluate(d, x, oracle=oracle, budget=budget, meter=meter,
                    memo=False)


def eval_memo(d: Derivation, x: int, oracle=None,
              budget: Budget | None = None,
              meter: Meter | None = None) -> int:
    return evaluate(d, x, oracle=oracle, budget=budget, meter=meter,
                    memo=True)


def meter_line(value: int, meter: Meter) -> str:
    """The tab-separated report line: value, steps, peak_bits, memo_hits, max_depth."""
    return (f"{value}\t{meter.steps}\t{meter.peak_bits}"
            f"\t{meter.memo_hits}\t{meter.max_depth}")
