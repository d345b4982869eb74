"""Naive or memoized evaluation of one derivation as generated Python.

A plan is a derivation's evaluation in one mode, naive or memoized,
specialised to its root (partial evaluation, Futamura 1971):
straight-line Python source that does the step charges, width checks and
depth updates of funalg.evaluator's loop for that DAG, and its memo
lookups and stores or its naive records and replays, without
interpreting a node at each call.  funalg.evaluator runs a root's
unlogged runs in a mode through its plan for that mode once the root is
hot in it; the values and meters are the loop's, which the evaluator's
module docstring states as the contract.

The plan sorts the compound nodes below the root three ways:

- owned: a P or comp node whose code is written into each of its
  callers', with no table.  Either it has a single in-edge that passes
  its parent's own argument (a child of P, or the inner child of comp),
  so it runs at most once per run of its parent and a memo lookup could
  never hit; or, in a naive plan only, it is small and shared (HD, TL,
  ONE, ...) and recomputes at each call;
- a function: the root, every mu, pr, bpr and snr node, and every other
  compound node, small shared ones too in a memoized plan.  Each becomes
  one generated function with a table;
- cut: an owned node whose caller's code would pass FN_NODES nodes
  becomes a function that keeps no table.

A plan keeps a table of the pairs its code builds that other code may
unpair, so unpairing one again is a lookup.  Beside where small shared
nodes go, the modes differ only where a function is called.  A memoized
plan's table maps an argument to its value, and a hit counts in
memo_hits.  A naive plan's table holds the loop's replay record of a
call, (value, steps, height of its deepest frame above the caller): a
hit adds the steps, aborts if they pass the step budget, and raises
depth to the caller's depth plus the height.  Its small shared nodes
recompute, and its step checks count its records and pairs, and drop
them all at once, by the loop's own rule; so its memory is O(depth) plus
a constant.  A plan's tables are made with it, once, and
every run leaves them empty, however it ends.

A pair is built only where the code reads its value: as a table key, a
function's argument or value, a memo value, an operand of arithmetic, a
test, or a part of a pair that is built or sum-guarded (below).  A leaf
(add, mul, lt, D) or an operator (mu, pr, bpr, snr) applied to a pair
the code built or unpaired reads the head and tail names it has, and D
applied to <t, <y, z>> picks y or z by name.  A plan stores a built pair
in its pairs table only where the pair leaves the code's names: as an
argument, a value or a memo value, or inside such a pair.
The code reuses what its path has: within a suite and the suites nested
in it, a second build or unpair of the same names reads the first one's
names, and in a memoized plan a second call of a node with a table at
the same name is a memo hit that reads the first call's value.  A naive
plan reuses pairs and unpairs only: it drops records mid-run, and its
small shared nodes recompute.

A function that calls no generator and no deeper than DIRECT_HEIGHT
plain functions is a plain function, called directly.  Every other one is
a generator, run by _drive on an explicit stack: it yields (function,
argument, depth) for each call and receives the value.  So the host's
call stack never holds more than DIRECT_HEIGHT + 2 generated frames, even
through snr's self-calls or down a long chain of functions.

Step charges and memo hits that straight-line code makes together are
one addition each, made on entering the block that holds them, and a
block's deepest frame is one depth update.  Width checks sit where a
value is first made: S, mul, E, smash and oracle values and
pairs.  Every other value (of I, add, lt, D, mu, pr, bpr and snr) is no
wider than a value checked already or the root's argument, so the peak
is the one that checking every call's argument and value gives.  A pair
<a, b> that no code reads is checked by its sum: <a, b> <= T(a + b + 1),
with T(n) = n(n + 1)/2, so when a + b < slim <= isqrt(2 lim) - 2 the
pair is below lim, where every value is no wider than the peak and
within the bits budget; only otherwise does pairwide build it and check
it.  lim is 2^p for p the peak or, if less, the bits budget, and slim is
that bound up to p = 121 and within a factor 1 - 2^-60 below it beyond,
so that a new peak costs no square root of its width.  Steps are checked
against the budget on entering a generator, or in a naive plan any
function, and in each loop iteration; a naive plan's check past `stop` is
tick, which also counts its records and pairs, so no more than one
function's code runs between two counts, and a new peak at which the
bits cap binds sets `stop` to count them at the next check.  A run that
meets a budget event raises Abort, and the evaluator re-runs the call on
its loop from the caller's meter; so the first event, its kind and the
meter it leaves are the loop's.

Plans over PLAN_NODES nodes are not made.  Each function is compiled on
its own, so compiling a plan never holds more than one function's syntax
tree.  Nodes are told apart by their op codes alone, so a plan is the
same when this module was imported apart from the nodes' own
funalg.derivation, as after the package is imported afresh.
"""

from __future__ import annotations

from math import isqrt
from threading import Lock

from . import evaluator
from .derivation import Derivation, fold
from .evaluator import (_ADD, _BPR, _COMP, _D, _E, _I, _MU, _MUL, _ORACLE,
                        _P, _PR, _S, _SMASH, _SNR)

# A naive plan writes a shared node of at most INLINE_NODES nodes into
# its callers; a function's code has at most FN_NODES nodes, a plan's at
# most PLAN_NODES; plain functions nest at most DIRECT_HEIGHT deep.
INLINE_NODES = 16
FN_NODES = 64
PLAN_NODES = 6000
DIRECT_HEIGHT = 16

# How a plan treats a compound node.
_OWNED, _FN, _CUT = range(3)  # _CUT: a function without a table


class Abort(Exception):
    """A generated run met a budget event; the loop re-runs the call."""


# The helpers of every plan, run into its namespace: run is the plan's
# entry (Plan.run); setlim sets lim to 2^b and slim to at most isqrt(2 lim)
# - 2, exact for b < 120; widen records a new widest value, or aborts past
# the bits budget, and where the loop's bits cap on records binds has a
# naive run count its entries at its next step check; pairwide checks the
# width of a pair that no code reads; unpair splits a pair that the pairs
# table does not know; tick is a naive run's step check past stop, which
# counts its tables by the loop's rule.
_PRELUDE = compile("""
def run(x, oracle_, max_steps_, max_bits_, meter):
    global steps, hits, depth, peak, stop, max_steps, max_bits, oracle
    if not acquire(False):
        return None
    try:
        # stop = steps: a naive run's first step check counts its tables
        steps = stop = meter.steps
        peak, hits, depth = meter.peak_bits, meter.memo_hits, meter.max_depth
        max_steps, max_bits, oracle = max_steps_, max_bits_, oracle_
        b = x.bit_length()  # the root's argument, checked as widen would
        if b > max_bits:
            return None
        if b > peak:
            peak = b
        setlim(peak if peak < max_bits else max_bits)
        val = entry(x, 1)
        if generator:
            val = drive(val)
        if steps > max_steps:
            return None
        meter.steps, meter.peak_bits = steps, peak
        meter.memo_hits, meter.max_depth = hits, depth
        return val
    except Abort:
        return None
    finally:
        for t in tables:
            if t:
                t.clear()
        oracle = None
        release()

def setlim(b):
    global lim, slim
    if b < 120:
        lim, slim = lims[b]
    else:
        lim = 1 << b
        e = (b - 120) & -2
        slim = (isqrt(2 << (b - e)) << (e >> 1)) - 2

def widen(z):
    global peak, stop
    b = z.bit_length()
    if b > max_bits:
        raise Abort
    peak = b
    setlim(b)
    if b * evaluator._RECORDS > evaluator._RECORD_BITS:
        stop = steps

def pairwide(a, b):
    z = ((a + b) * (a + b + 1) >> 1) + a + 1
    if z >= lim:
        widen(z)

def unpair(z):
    s = (isqrt(8 * z - 7) - 1) >> 1
    t = z - 1 - (s * (s + 1) >> 1)
    return t, s - t

def tick():
    global stop
    if steps > max_steps:
        raise Abort
    stop = evaluator._count(steps, max_steps, peak, tables)
""", "<funalg plan prelude>", "exec")


# (lim, slim) for b < 120, where slim = isqrt(2 lim) - 2 exactly
_LIMS = tuple((1 << b, isqrt(2 << b) - 2) for b in range(120))


def _drive(gen):
    """Run a generated generator and the calls it yields to completion."""
    stack = []
    val = None
    while True:
        try:
            fn, x, d = gen.send(val)
        except StopIteration as stop:
            val = stop.value
            if not stack:
                return val
            gen = stack.pop()
            continue
        stack.append(gen)
        gen = fn(x, d)
        val = None


class Plan:
    """A root's generated code, memoized or naive, and its tables: the
    pairs table first, then its memo or record tables, bound in its
    namespace once and empty between runs.

    run(x, oracle, max_steps, max_bits, meter) gives the root's value at x
    with the meter updated as the loop would, or None, with the meter
    untouched, after a budget event or while another thread runs this
    plan.  It is the namespace's own function, so a run's set-up reads
    and writes the plan's state as globals.  It holds no node, so it dies
    with the weak table entry that keeps it.
    """

    __slots__ = ("ns", "run", "generator", "memo", "tables", "lock",
                 "nodes", "functions", "source_bytes", "__weakref__")


def make_plan(root: Derivation, memo: bool = True) -> Plan | None:
    """Plan and compile root's memoized or naive evaluation; None if the
    plan would pass PLAN_NODES nodes."""
    order: list[Derivation] = []  # distinct nodes, children first
    fold(root, lambda n: n.children, lambda n, _: order.append(n))
    edges: dict[Derivation, int] = {}
    passes: dict[Derivation, bool] = {}  # its last in-edge passes the arg
    for n in order:
        for i, c in enumerate(n.children):
            edges[c] = edges.get(c, 0) + 1
            passes[c] = n.op.code == _P or (n.op.code == _COMP and i == 1)
    kind: dict[Derivation, int] = {}
    size: dict[Derivation, int] = {}  # nodes in its code
    total = 0
    for n in order:
        if not n.children:
            continue
        parts = []
        for c in n.children:
            if not c.children or kind[c] >= _FN:
                parts.append([1, None])
            else:
                parts.append([size[c], c])
        s = sum(p[0] for p in parts) + (3 if n.op.code == _SNR else 1)
        for p in sorted(parts, key=lambda p: -p[0]):
            if s <= FN_NODES:
                break
            if p[1] is not None and kind[p[1]] == _OWNED:
                kind[p[1]] = _CUT
                total += p[0]
                s -= p[0] - 1
        size[n] = s
        pc = n is not root and n.op.code in (_P, _COMP)
        if pc and (edges[n] == 1 and passes[n]
                   or not memo and s <= INLINE_NODES):
            kind[n] = _OWNED
        else:
            kind[n] = _FN
            total += s
        if total > PLAN_NODES:
            return None
    return _compile(root, order, kind, total, memo)


def _compile(root, order, kind, total, memo) -> Plan:
    # the functions each function calls through its owned nodes, and
    # which functions are generators
    index = {n: i for i, n in enumerate(order)}
    calls: dict[Derivation, set] = {}
    height: dict[Derivation, int] = {}
    generator: dict[Derivation, bool] = {}
    for n in order:
        if not n.children:
            continue
        cs = set()
        for c in n.children:
            if c.children:
                if kind[c] >= _FN:
                    cs.add(c)
                else:
                    cs |= calls[c]
        if kind[n] < _FN:
            calls[n] = cs
            continue
        h = 1 + max((height[c] for c in cs if not generator[c]), default=-1)
        generator[n] = (n.op.code == _SNR or h > DIRECT_HEIGHT
                        or any(generator[c] for c in cs))
        height[n] = 0 if generator[n] else h
    tables = {f"T{index[n]}": {} for n in order
              if n.children and kind[n] == _FN}
    pairs: dict[int, tuple[int, int]] = {}
    lock = Lock()
    ns = {"Abort": Abort, "isqrt": isqrt, "evaluator": evaluator,
          "drive": _drive, "acquire": lock.acquire, "release": lock.release,
          "generator": generator[root], "lims": _LIMS,
          "pairs": pairs, "pget": pairs.get, **tables}
    exec(_PRELUDE, ns)
    plan = Plan()
    plan.memo = memo
    plan.tables = ns["tables"] = [pairs, *tables.values()]
    plan.functions = 0
    plan.source_bytes = 0
    for n in order:
        if n.children and kind[n] >= _FN:
            src = _Emitter(index, kind, generator, memo).function(n)
            exec(compile(src, f"<funalg plan f{index[n]}>", "exec"), ns)
            plan.functions += 1
            plan.source_bytes += len(src)
    ns["entry"] = ns[f"f{index[root]}"]
    plan.ns, plan.run, plan.lock = ns, ns["run"], lock
    plan.generator = generator[root]
    plan.nodes = total
    return plan


class _Block:
    """An indented suite's step charges, memo hits and deepest frame
    offset, written at its start once the function is emitted."""

    __slots__ = ("indent", "steps", "hits", "deepest", "outer", "check")

    def __init__(self, indent, outer, check):
        self.indent, self.outer, self.check = indent, outer, check
        self.steps, self.hits, self.deepest = 0, 0, -1


# How a function's code needs a pair it makes: not at all, its value, or
# its value and its entry in the pairs table.
_DEAD, _BUILT, _STORED = range(3)


class _Pair:
    """A pair <a, b> that a function makes, named z, written once the
    function is emitted as its state asks: a dead pair is only its
    width's sum guard, if it needs a width check."""

    __slots__ = ("indent", "z", "a", "b", "check", "state")

    def __init__(self, indent, z, a, b, check):
        self.indent, self.z, self.a, self.b = indent, z, a, b
        self.check, self.state = check, _DEAD


class _Emitter:
    """The source of one generated function.

    Code is emitted for calls: (node, x, k) calls node at the value named
    x, in a frame k deeper than the function's own frame, at depth d, and
    gives the name of its value.

    known numbers the values the code has at hand: it maps a name to its
    (head, tail) names once the code built or unpaired it, a pair (a, b)
    of names to the name of <a, b>, and in memo mode (node, x) to the name
    of node's value at x.  An entry holds within the suite that made it
    and the suites nested in it, and scopes lists, per open suite, the
    keys it added.  A name assigned again (a loop's accumulator or
    counter, a memo lookup's result) is assigned again before any code
    keys on it or last in the suite whose code did, so no entry outlives
    the values of its names.
    """

    def __init__(self, index, kind, generator, memo):
        self.index, self.kind, self.generator = index, kind, generator
        self.memo = memo
        self.out: list = []  # source lines, _Block and _Pair placeholders
        self.indent = 1
        self.block: _Block | None = None
        self.names = 0
        self.yields = False
        self.known: dict = {}
        self.scopes: list[list] = []
        self.made: dict[str, _Pair] = {}

    def function(self, node: Derivation) -> str:
        i = self.index[node]
        self.out.append(f"def f{i}(a, d):")
        self.line("global steps, hits, depth" if self.memo
                  else "global steps, depth")
        # a naive plan counts its entries at every function's entry too, so
        # no more than one function's code runs between two counts
        self.open(None, check=self.generator[node] or not self.memo)
        stack = [self.compound(node, "a", 0)]
        res = None
        while stack:
            try:
                n, x, k = stack[-1].send(res)
            except StopIteration as stop:
                stack.pop()
                res = stop.value
                continue
            res = self.call(n, x, k)
            if res.__class__ is not str:
                stack.append(res)
                res = None
        self.keep(res)
        self.line(f"return {res}")
        if self.generator[node] and not self.yields:
            self.line("yield  # unreachable: makes f a generator")
        return self.source()

    def source(self) -> str:
        lines = []
        for item in self.out:
            if item.__class__ is str:
                lines.append(item)
                continue
            pad = "    " * item.indent
            if item.__class__ is _Pair:
                z, a, b = item.z, item.a, item.b
                if item.state:
                    lines.append(
                        f"{pad}{z} = ((s := {a} + {b}) * (s + 1) >> 1)"
                        f" + {a} + 1")
                    if item.state == _STORED:
                        lines.append(f"{pad}pairs[{z}] = {a}, {b}")
                    if item.check:
                        lines.append(f"{pad}if {z} >= lim:")
                        lines.append(f"{pad}    widen({z})")
                elif item.check:
                    lines.append(f"{pad}if {a} + {b} >= slim:")
                    lines.append(f"{pad}    pairwide({a}, {b})")
                continue
            if item.steps:
                lines.append(f"{pad}steps += {item.steps}")
            if item.hits:
                lines.append(f"{pad}hits += {item.hits}")
            if item.check and self.memo:
                lines.append(f"{pad}if steps > max_steps:")
                lines.append(f"{pad}    raise Abort")
            elif item.check:  # a naive plan's check also counts its entries
                lines.append(f"{pad}if steps > stop:")
                lines.append(f"{pad}    tick()")
            b, covered = item.outer, -1
            while b is not None:
                covered = max(covered, b.deepest)
                b = b.outer
            if item.deepest > covered:
                at = f"d + {item.deepest}" if item.deepest else "d"
                lines.append(f"{pad}if {at} > depth:")
                lines.append(f"{pad}    depth = {at}")
        return "\n".join(lines) + "\n"

    # --- text -------------------------------------------------------------

    def name(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def line(self, text: str) -> None:
        self.out.append("    " * self.indent + text)

    def open(self, head: str | None, check: bool = False) -> None:
        """Start a suite under head (none for the function's own body)
        with a block of charges."""
        if head is not None:
            self.line(head)
            self.indent += 1
        self.block = _Block(self.indent, self.block, check)
        self.out.append(self.block)
        self.scopes.append([])

    def close(self, otherwise: str | None = None) -> None:
        """End the block's suite, forgetting what it learnt, then give
        `otherwise` an else suite."""
        for key in self.scopes.pop():
            del self.known[key]
        self.indent -= 1
        self.block = self.block.outer
        if otherwise is not None:
            self.line("else:")
            self.line(f"    {otherwise}")

    def learn(self, key, value) -> None:
        self.known[key] = value
        self.scopes[-1].append(key)

    def charge(self, k: int) -> None:
        """One step in the current block, at frame offset k."""
        b = self.block
        b.steps += 1
        if k > b.deepest:
            b.deepest = k

    def check(self, z: str) -> None:
        self.line(f"if {z} >= lim:")
        self.line(f"    widen({z})")

    # --- pairs ------------------------------------------------------------

    def use(self, *names: str, state: int = _BUILT) -> None:
        """The code reads these values: build each that is a pair made
        here, and the pairs it is made of, to at least `state`."""
        todo = list(names)
        while todo:
            p = self.made.get(todo.pop())
            if p is not None and p.state < state:
                p.state = state
                todo += p.a, p.b

    def keep(self, *names: str) -> None:
        """These values leave this code's names: a callee, a caller or a
        table may unpair them, so the pairs table stores them."""
        self.use(*names, state=_STORED)

    def pair(self, a: str, b: str, check: bool) -> str:
        """<a, b>, checking its width unless a wider value is checked: by
        the test a + b >= slim where no code reads it, since <a, b> <=
        T(a + b + 1) is below lim when a + b < slim.  A pair the path made
        already was checked there, or built into a wider pair checked
        next."""
        z = self.known.get((a, b))
        if z is None:
            z = self.name()
            self.made[z] = p = _Pair(self.indent, z, a, b, check)
            self.out.append(p)
            if check:
                self.use(a, b)
            self.learn((a, b), z)
            self.learn(z, (a, b))
        return z

    def split(self, x: str) -> tuple[str, str, bool]:
        """The head and tail names of x, in an `if x:` suite unless x is
        a pair whose parts the code knows, so not 0; and whether the suite
        was opened, for unsplit."""
        parts = self.known.get(x)
        if parts is not None:
            return *parts, False
        t, b = self.name(), self.name()
        self.use(x)
        self.open(f"if {x}:")
        self.line(f"{t}, {b} = pget({x}) or unpair({x})")
        self.learn(x, (t, b))
        return t, b, True

    def unsplit(self, opened: bool, r: str) -> None:
        if opened:
            self.close(f"{r} = 0")

    # --- calls ------------------------------------------------------------

    def call(self, node: Derivation, x: str, k: int):
        """Emit the call and give its value's name, or give the generator
        that emits it."""
        code = node.op.code
        if code < _P:
            return self.leaf(code, x, k)
        kind = self.kind[node]
        if kind == _OWNED:
            return self.compound(node, x, k)
        # a function: its own code charges the call
        r = self.known.get((node, x))
        if r is not None:  # memoized, and the path ran this call already
            self.block.hits += 1
            return r
        i = self.index[node]
        r = self.name()
        self.keep(x)
        run = (f"yield f{i}, {x}, d + {k}" if self.generator[node]
               else f"f{i}({x}, d + {k})")
        self.yields |= self.generator[node]
        if kind == _CUT:
            self.line(f"{r} = {run}")
            return r
        self.line(f"{r} = T{i}.get({x})")
        self.open(f"if {r} is None:")
        if self.memo:
            self.line(f"{r} = {run}")
            self.line(f"T{i}[{x}] = {r}")
            self.close("hits += 1")
            self.learn((node, x), r)
            return r
        # naive: run the call with depth counting inside it alone, and
        # record (value, steps, height above the caller); or replay it
        m, s = self.name(), self.name()
        caller = f"d + {k - 1}" if k > 1 else "d"
        self.line(f"{m}, {s}, depth = depth, steps, 0")
        self.line(f"{r} = {run}")
        self.line(f"T{i}[{x}] = {r}, steps - {s}, depth - ({caller})")
        self.line(f"if {m} > depth:")
        self.line(f"    depth = {m}")
        self.close()
        self.line("else:")
        self.line(f"    {r}, {s}, {m} = {r}")
        self.line(f"    steps += {s}")
        self.line("    if steps > max_steps:")
        self.line("        raise Abort")
        self.line(f"    {m} += {caller}")
        self.line(f"    if {m} > depth:")
        self.line(f"        depth = {m}")
        return r

    def leaf(self, code: int, x: str, k: int) -> str:
        self.charge(k)
        if code == _I:
            return x
        r = self.name()
        if code == _S:
            self.use(x)
            self.line(f"{r} = {x} + 1")
            self.check(r)
        elif code == _E or code == _SMASH:
            self.use(x)
            e = x if code == _E else f"{x}.bit_length() ** 2"
            self.line(f"{r} = {e}")
            self.line(f"if {r} >= max_bits:")
            self.line("    raise Abort")
            self.line(f"{r} = 1 << {r}")
            self.check(r)
        elif code == _ORACLE:
            self.use(x)
            self.line(f"{r} = 1 if {x} in oracle else 0")
            self.check(r)
        else:  # add, mul, lt, D: the projections of x
            t, b, opened = self.split(x)
            if code == _D:  # <t, <y, z>> gives y if t = 0, else z
                y, z, inner = self.split(b)
                self.use(t)
                self.keep(y, z)
                self.line(f"{r} = {z} if {t} else {y}")
                self.unsplit(inner, r)
            else:
                self.use(t, b)
                if code == _ADD:
                    self.line(f"{r} = {t} + {b}")
                elif code == _MUL:
                    self.line(f"{r} = {t} * {b}")
                    self.check(r)
                else:
                    self.line(f"{r} = 1 if {t} < {b} else 0")
            self.unsplit(opened, r)
        return r

    def compound(self, node: Derivation, x: str, k: int):
        """A generator: emit a compound call's body, a function's own or
        an owned node's in its caller's; it yields the calls it makes."""
        self.charge(k)
        code = node.op.code
        g, h = (node.children + (None,))[:2]
        if code == _P:
            a = yield g, x, k + 1
            b = yield h, x, k + 1
            r = self.pair(a, b, True)
        elif code == _COMP:
            y = yield h, x, k + 1
            r = yield g, y, k + 1
        elif code == _MU:
            # the least w < v with g(<w, p>) = 1, else v
            r, w = self.name(), self.name()
            v, p, opened = self.split(x)
            self.keep(v)
            self.line(f"{r} = {v}")
            self.line(f"{w} = 0")
            self.open(f"while {w} < {v}:", check=True)
            c = self.pair(w, p, True)
            u = yield g, c, k + 1
            self.use(u)
            self.line(f"if {u} == 1:")
            self.line(f"    {r} = {w}")
            self.line("    break")
            self.line(f"{w} += 1")
            self.close()
            self.unsplit(opened, r)
        elif code == _PR or code == _BPR:
            # f(0, p) = g(p), f(w + 1, p) = h(<w, f(w, p), p>); bpr clamps
            r, w = self.name(), self.name()
            v, p, opened = self.split(x)
            u = yield g, p, k + 1
            self.keep(u)
            self.use(v, p)
            self.line(f"{r} = {u}")
            clamp = f"if {r} > {p}: {r} = 0"
            if code == _BPR:
                self.line(clamp)
            self.line(f"{w} = 0")
            self.open(f"while {w} < {v}:", check=True)
            self.block.steps += 1  # the iteration's own step
            t = self.pair(r, p, False)
            c = self.pair(w, t, True)
            u = yield h, c, k + 1
            self.keep(u)
            self.line(f"{r} = {u}")
            if code == _BPR:
                self.line(clamp)
            self.line(f"{w} += 1")
            self.close()
            self.unsplit(opened, r)
        else:  # snr, always a function's own node
            r = self.name()
            v, p, opened = self.split(x)
            u = yield g, x, k + 1
            t, b, tested = self.split(u)
            self.use(t, b, v, p)
            self.open(f"if {t} == 0 and {b} < {v}:")
            y = self.pair(b, p, False)
            u = yield node, y, k + 1
            q = self.pair(u, p, False)
            c = self.pair(v, q, True)
            u = yield h, c, k + 1
            self.use(u)
            self.open(f"if {u} < {v}:")
            y = self.pair(u, p, False)
            u = yield node, y, k + 1
            self.keep(u)
            self.line(f"{r} = {u}")
            self.close(f"{r} = 0")
            self.close()
            self.keep(b)
            self.line(f"elif {t} == 1 and {b} <= {p}:")
            self.line(f"    {r} = {b}")
            self.line("else:")
            self.line(f"    {r} = 0")
            self.unsplit(tested, r)
            self.unsplit(opened, r)
        return r
