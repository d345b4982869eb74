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
is seen.  E and smash check the width of their value before computing it.
On return or BudgetExceeded the meter holds the counts so far.

Memoized evaluation keeps, for this call only, one {argument: value}
table per compound node entered and a table of every pair the loop
builds (P's value and the arguments that mu, pr, bpr and snr pass on), so
unpairing such a pair again, as HD, TL and the recursions do, is a lookup
and not a square root.  Neither table changes a value or the meter.

Naive evaluation charges every call in full, repeats included, but once
a run has charged its first _ARM_STEPS steps it records each compound
call it completes: its value, the steps it charged and the height of its
deepest frame above its caller.  A later call at the same (node,
argument) is replayed, not entered: its steps are added, max_depth rises
to the caller's depth plus that height, and peak_bits, which already
covers every width the recorded run saw, stays.  A call whose steps would
pass the step budget is entered and run for real, so BudgetExceeded comes
at the same step with the same meter; a run that keeps an expansion log
records nothing, so the log lists every call.  Values and meters are
those of running every call.  The records are dropped, all at once, when
there are _RECORDS of them or they could hold 2 * _RECORD_BITS bits of
numbers, so a naive run's memory is its frame stack, O(depth), plus a
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

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
# Naive evaluation records calls once a run has charged _ARM_STEPS steps,
# and drops its records, all at once, when they number _RECORDS or their
# number times peak_bits, which bounds each argument and each value,
# passes _RECORD_BITS.
_ARM_STEPS = 256
_RECORDS = 1 << 16
_RECORD_BITS = 1 << 25


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
    # With memo: each compound node's {argument: value} table, made on the
    # node's first entry, and z -> (head, tail) for every pair z the loop
    # builds, which each unpair below tries before isqrt.
    if memo:
        tables: dict[Derivation, dict[int, int]] = {}
        pairs: dict[int, tuple[int, int]] = {}
        pget = pairs.get
    steps, peak = meter.steps, meter.peak_bits
    # Without memo or log: past the run's first _ARM_STEPS steps, each
    # compound node's {argument: (value, steps, height)} records, which
    # replay a call (see the module docstring), and their number.  A step
    # past `stop` either exceeds the budget or arms the records.
    records: dict[Derivation, dict[int, tuple[int, int, int]]] | None = None
    held = 0
    stop = max_steps
    if not memo and log is None:
        stop = min(max_steps, steps + _ARM_STEPS)
    hits, maxd = meter.memo_hits, meter.max_depth
    lim = 1 << peak  # a value is wider than peak iff it is >= lim
    # Saved frames: (node, code, arg, pc, tab, v, p, w), where tab is the
    # node's memo table, or a naive frame's (records of the node, steps
    # before the call, max depth outside it), or None.  The current frame
    # lives in the same locals, plus its depth; v, p and w are its
    # operator's variables, read off a = <v, p> at the push for mu and
    # the recursions, and pc says where it resumes.  The root pseudo-frame,
    # at depth 0, calls d at x and returns the value.
    stack: list[tuple] = []
    node, c, a, pc, tab, dep = d, _ROOT, x, 0, None, 0
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
                    if memo:
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
                    if memo:
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
                        if memo:
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
                        if memo and (tb := pget(val)):
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
                            if memo:
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
                    if memo:
                        pairs[t] = val, p
                        pairs[ca] = v, t
                elif pc == 3:
                    if val < v:
                        pc = 4
                        cn = node
                        s = val + p
                        ca = (s * (s + 1) >> 1) + val + 1
                        if memo:
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
                    peak = val.bit_length()
                    lim = 1 << peak
                    if peak > max_bits:
                        raise BudgetExceeded("bits", meter)
                if memo:  # every memoized frame has its node's table
                    tab[a] = val
                elif tab is not None:  # record the call; maxd ran inside it
                    rt, s0, m0 = tab
                    rt[a] = val, steps - s0, maxd - dep + 1
                    if m0 > maxd:
                        maxd = m0
                    held += 1
                    if held >= _RECORDS or held * peak > _RECORD_BITS:
                        records.clear()
                        held = 0
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
                elif records is None:
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
                stop = max_steps
                records = {}
            if ca >= lim:
                peak = ca.bit_length()
                lim = 1 << peak
                if peak > max_bits:
                    raise BudgetExceeded("bits", meter)
            if cc >= _P:  # push its frame
                stack.append((node, c, a, pc, tab, v, p, w))
                node, c, a, pc, tab = cn, cc, ca, 0, ct
                if cc >= _MU:  # a = <v, p>, and 0 gives v = p = 0
                    if not ca:
                        v = p = 0
                    elif memo and (vp := pget(ca)):
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
                    if memo and (tb := pget(ca)):
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
                        if memo and (yz := pget(b)):
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
                if e >= peak and e >= max_bits:
                    peak = e + 1
                    if not dep:  # as below
                        maxd = max(maxd, 1)
                    raise BudgetExceeded("bits", meter)
                val = 1 << e
            if val >= lim:
                peak = val.bit_length()
                lim = 1 << peak
                if peak > max_bits:
                    # the root leaf's depth counts before its value's width
                    if not dep:
                        maxd = max(maxd, 1)
                    raise BudgetExceeded("bits", meter)
            if dep >= maxd:
                maxd = dep + 1
    finally:
        if records is not None:
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
