"""The generator-per-node evaluator, kept as a differential oracle.

This is the evaluator funalg shipped before the explicit-frame loop of
funalg.evaluator replaced it.  Evaluation runs on an explicit stack of
generators (one per operator node being evaluated).  Tests compare its
values, meters, budget errors and expansion logs with the package's
evaluator; see test_evaluator.py.  It takes no negative arguments and
computes E and smash before checking their width, so callers keep bit
budgets small.
"""

from __future__ import annotations

from funalg.codec import head, pair, tail, unpair
from funalg.derivation import Derivation, Op
from funalg.evaluator import Budget, BudgetExceeded, Meter


_EMPTY: frozenset[int] = frozenset()


def _leaf_s(x, oracle):
    return x + 1


def _leaf_add(x, oracle):
    return 0 if x == 0 else head(x) + tail(x)


def _leaf_mul(x, oracle):
    return 0 if x == 0 else head(x) * tail(x)


def _leaf_lt(x, oracle):
    return 0 if x == 0 else (1 if head(x) < tail(x) else 0)


def _leaf_i(x, oracle):
    return x


def _leaf_d(x, oracle):
    if x == 0 or tail(x) == 0:
        return 0
    v, (y, z) = head(x), unpair(tail(x))
    return y if v == 0 else z


def _leaf_e(x, oracle):
    return 1 << x


def _leaf_smash(x, oracle):
    return 1 << (x.bit_length() ** 2)


def _leaf_oracle(x, oracle):
    return 1 if x in oracle else 0


_LEAF = {
    Op.S: _leaf_s,
    Op.ADD: _leaf_add,
    Op.MUL: _leaf_mul,
    Op.LT: _leaf_lt,
    Op.I: _leaf_i,
    Op.D: _leaf_d,
    Op.E: _leaf_e,
    Op.SMASH: _leaf_smash,
    Op.ORACLE: _leaf_oracle,
}


def _eval_node(d: Derivation, x: int, oracle):
    """Generator computing one compound node; yields (node, arg) sub-calls."""
    op = d.op
    if op is Op.P:
        g, h = d.children
        a = yield (g, x)
        b = yield (h, x)
        return pair(a, b)
    if op is Op.COMP:
        g, h = d.children
        v = yield (h, x)
        return (yield (g, v))
    if op is Op.MU:
        if x == 0:
            return 0
        (g,) = d.children
        bnd, p = head(x), tail(x)
        for z in range(bnd):
            if (yield (g, pair(z, p))) == 1:
                return z
        return bnd
    if op is Op.PR or op is Op.BPR:
        # Recursion on the first component is linear, so it is run
        # bottom-up: f(0,p) = g(p), f(w+1,p) = h(<w, f(w,p), p>).
        if x == 0:
            return 0
        g, h = d.children
        v, p = head(x), tail(x)
        clamp = op is Op.BPR
        r = yield (g, p)
        if clamp and r > p:
            r = 0
        for w in range(v):
            yield (None, (d, w, p))
            r = yield (h, pair(w, pair(r, p)))
            if clamp and r > p:
                r = 0
        return r
    if op is Op.SNR:
        if x == 0:
            return 0
        g, h = d.children
        v, p = head(x), tail(x)
        r = yield (g, pair(v, p))
        if r == 0:
            return 0
        a, b = unpair(r)
        if a == 0 and b < v:
            u = yield (d, pair(b, p))
            w = yield (h, pair(v, pair(u, p)))
            if w < v:
                return (yield (d, pair(w, p)))
            return 0
        if a == 1 and b <= p:
            return b
        return 0
    raise AssertionError(op)


_REC_OPS = (Op.PR, Op.BPR, Op.SNR)


def evaluate(d: Derivation, x: int, oracle=None, budget: Budget | None = None,
             meter: Meter | None = None, memo: bool = False,
             expansion_log: list | None = None) -> int:
    """Evaluate derivation d at argument x.

    Returns the value; metering accumulates into `meter` if given.  With
    memo=True, every compound node (in particular pr/bpr/snr) is memoized
    on (node, arg) for the duration of this call, so each distinct
    argument is expanded at most once (course-of-values evaluation).
    expansion_log, if given, receives a (node, arg) entry for every
    recursion-node invocation.
    """
    if oracle is None:
        oracle = _EMPTY
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    cache: dict[tuple[int, int], int] = {}

    def note_bits(v: int):
        b = v.bit_length()
        if b > meter.peak_bits:
            meter.peak_bits = b
            if b > budget.max_bits:
                raise BudgetExceeded("bits", meter)

    def begin(node: Derivation, arg: int):
        meter.steps += 1
        if meter.steps > budget.max_steps:
            raise BudgetExceeded("steps", meter)
        if arg.bit_length() > meter.peak_bits:
            note_bits(arg)
        return _eval_node(node, arg, oracle)

    if not d.children:
        meter.steps += 1
        if meter.steps > budget.max_steps:
            raise BudgetExceeded("steps", meter)
        note_bits(x)
        result = _LEAF[d.op](x, oracle)
        meter.max_depth = max(meter.max_depth, 1)
        note_bits(result)
        return result

    leaf = _LEAF
    max_steps = budget.max_steps
    stack: list = [begin(d, x)]
    keys: list = [None]
    meter.max_depth = max(meter.max_depth, 1)
    send_val = None
    result = None
    cache_get = cache.get
    while stack:
        gen = stack[-1]
        try:
            node, arg = gen.send(send_val)
        except StopIteration as stop:
            result = stop.value
            note_bits(result)
            key = keys.pop()
            stack.pop()
            if key is not None:
                cache[key] = result
            send_val = result
            continue
        if node is None:
            # step charge for an in-node recursion expansion
            meter.steps += 1
            if meter.steps > max_steps:
                raise BudgetExceeded("steps", meter)
            if expansion_log is not None:
                rec, w, p = arg
                expansion_log.append((rec, pair(w, p)))
            send_val = None
            continue
        if not node.children:
            meter.steps += 1
            if meter.steps > max_steps:
                raise BudgetExceeded("steps", meter)
            if arg.bit_length() > meter.peak_bits:
                note_bits(arg)
            v = leaf[node.op](arg, oracle)
            if v.bit_length() > meter.peak_bits:
                note_bits(v)
            if len(stack) >= meter.max_depth:
                meter.max_depth = len(stack) + 1
            send_val = v
            continue
        send_val = None
        key = None
        if expansion_log is not None and node.op in _REC_OPS:
            expansion_log.append((node, arg))
        if memo:
            key = (id(node), arg)
            cached = cache_get(key)
            if cached is not None:
                meter.memo_hits += 1
                send_val = cached
                continue
        stack.append(begin(node, arg))
        keys.append(key)
        if len(stack) > meter.max_depth:
            meter.max_depth = len(stack)
    return result
