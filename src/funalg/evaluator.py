"""Metered big-step evaluation of derivations.

Evaluation is one loop over an explicit stack of frames, one frame per
compound node being evaluated, so recursion depth is bounded only by the
budget, never by the host interpreter's call stack.  Leaves are computed
inline and push no frame.

The meter, which is the cost model of every reduction criterion:

- a step is charged for each compound entry, each leaf and each pr/bpr
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
and not a square root.  Naive evaluation keeps neither: its memory is the
frame stack, O(depth).  Neither table changes a value or the meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .codec import nat, pair, unpair
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

# Op codes (declaration order of Op): the compound operators are
# _P.._SNR, and of them the recursions are _PR.._SNR.
_S, _ADD, _MUL, _LT, _I, _D = (op.code for op in (
    Op.S, Op.ADD, Op.MUL, Op.LT, Op.I, Op.D))
_P, _COMP, _MU, _PR, _BPR, _SNR = (op.code for op in (
    Op.P, Op.COMP, Op.MU, Op.PR, Op.BPR, Op.SNR))
_E, _SMASH, _ORACLE = Op.E.code, Op.SMASH.code, Op.ORACLE.code
_ROOT = -1  # the pseudo-frame that calls the root node


def evaluate(d: Derivation, x: int, oracle=None, budget: Budget | None = None,
             meter: Meter | None = None, memo: bool = False,
             expansion_log: list | None = None) -> int:
    """Evaluate derivation d at argument x.

    Returns the value; metering accumulates into `meter` if given.  With
    memo=True, every compound node (in particular pr/bpr/snr) is memoized
    on (node, arg) for the duration of this call, so each distinct call is
    expanded at most once; the key is the interned node, so equal subterms
    share entries.  The iterates inside a pr/bpr call are not memoized
    (no course-of-values evaluation), and the pair table that spares
    re-unpairing exists only with memo=True (see the module docstring).
    expansion_log, if given, receives a (node, arg) entry for every
    recursion-node invocation.  Raises TypeError unless d is a Derivation
    and x an int, and ValueError if x is negative.
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
    hits, maxd = meter.memo_hits, meter.max_depth
    lim = 1 << peak  # a value is wider than peak iff it is >= lim
    # Saved frames: (node, code, arg, pc, memo table, v, p, w).  The
    # current frame lives in the same locals, plus its depth; v, p and w
    # are its operator's variables and pc says where it resumes.  The root
    # pseudo-frame, at depth 0, calls d at x and returns the value.
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
                    if a:
                        v, p = memo and pget(a) or unpair(a)
                    else:
                        v = p = 0
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
                        v, p = memo and pget(a) or unpair(a)
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
                            log.append((node, pair(w, p)))
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
                        v, p = memo and pget(a) or unpair(a)
                        cn = node.children[0]
                        ca = a
                    else:
                        val = 0
                elif pc == 1:
                    if val:
                        t, b = memo and pget(val) or unpair(val)
                        if t == 0 and b < v:
                            pc = 2
                            cn = node
                            ca = pair(b, p)
                            if memo:
                                pairs[ca] = b, p
                        elif t == 1 and b <= p:
                            val = b
                        else:
                            val = 0
                elif pc == 2:
                    pc = 3
                    cn = node.children[1]
                    t = pair(val, p)
                    ca = pair(v, t)
                    if memo:
                        pairs[t] = val, p
                        pairs[ca] = v, t
                elif pc == 3:
                    if val < v:
                        pc = 4
                        cn = node
                        ca = pair(val, p)
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
                if tab is not None:
                    tab[a] = val
                node, c, a, pc, tab, v, p, w = stack.pop()
                dep -= 1
                continue

            cc = cn.op.code
            if _P <= cc <= _SNR:  # enter a compound node
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
                else:
                    ct = None
                steps += 1
                if steps > max_steps:
                    raise BudgetExceeded("steps", meter)
                if ca >= lim:
                    peak = ca.bit_length()
                    lim = 1 << peak
                    if peak > max_bits:
                        raise BudgetExceeded("bits", meter)
                stack.append((node, c, a, pc, tab, v, p, w))
                node, c, a, pc, tab = cn, cc, ca, 0, ct
                dep += 1
                if dep > maxd:
                    maxd = dep
                continue

            # a leaf, at depth dep + 1
            steps += 1
            if steps > max_steps:
                raise BudgetExceeded("steps", meter)
            if ca >= lim:
                peak = ca.bit_length()
                lim = 1 << peak
                if peak > max_bits:
                    raise BudgetExceeded("bits", meter)
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
