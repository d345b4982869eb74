"""Derivation terms, algebra classes, enumeration, and polynomial bounds."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from operator import index, length_hint
from threading import Lock
from typing import Any, Callable
from weakref import ref


class Op(Enum):
    S = "S"
    ADD = "add"
    MUL = "mul"
    LT = "lt"
    I = "I"
    D = "D"
    P = "P"
    COMP = "comp"
    MU = "mu"
    PR = "pr"
    BPR = "bpr"
    SNR = "snr"
    E = "E"
    SMASH = "smash"
    ORACLE = "X"

    # by identity, in C: each Derivation constructor call hashes its op
    __hash__ = object.__hash__


ARITY = {
    Op.S: 0, Op.ADD: 0, Op.MUL: 0, Op.LT: 0, Op.I: 0, Op.D: 0,
    Op.E: 0, Op.SMASH: 0, Op.ORACLE: 0,
    Op.MU: 1,
    Op.P: 2, Op.COMP: 2, Op.PR: 2, Op.BPR: 2, Op.SNR: 2,
}

# A dense int per operator, so the evaluator can dispatch on ints instead
# of hashing enum members: the leaves first, then the compound operators,
# each in declaration order.  So the nine leaves are 0..8 and P, COMP,
# MU, PR, BPR, SNR are 9..14, and one compare tells a compound node.
for _code, _op in enumerate(sorted(Op, key=lambda op: ARITY[op] > 0)):
    _op.code = _code
del _code, _op


def _drop(table: dict, key: tuple, r: ref) -> None:
    """A dead node's weak-reference callback: remove its table entry,
    unless a rebuilt node's reference has replaced it."""
    if table.get(key) is r:
        del table[key]


class Interned:
    """Base of hash-consed nodes (Filliatre & Conchon, 2006): a constructor
    call looks its field values, named in the subclass's __slots__, up in
    a table of weak references and, only on a miss, builds a node and runs
    its construction hook, _build; a node's reference drops its entry when
    the node dies.  So a structurally equal node is the same object, `==`
    is `is`, `hash` is O(1), and copy, deepcopy and pickle return the
    interned node.  As _build runs once per distinct node, a subclass may
    store there facts synthesized from its children, which later reads
    take in O(1).  A node's children, _kids, are its fields that are
    nodes, or the nodes in a tuple field where a subclass says so; repr
    and pickle walk them on the DAG without recursion, however deep the
    node.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._table = {}

    def __new__(cls, *values):
        table = cls._table
        r = table.get(values)
        node = None if r is None else r()
        if node is None:
            node = object.__new__(cls)
            node._build(values)
            table[values] = ref(node, partial(_drop, table, values))
        return node

    def _build(self, values: tuple) -> None:
        """Set a new node's fields to values, or raise if they make no
        node; nothing is interned if it raises."""
        for name, v in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, v)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def _kids(self) -> tuple:
        """The fields that are nodes, in order."""
        return tuple(v for v in self._fields() if isinstance(v, Interned))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # The distinct nodes below this one, children first, as a flat
        # list of (class, fields), each node in a field replaced by
        # [its position], so pickle's own walk does not nest.
        at: dict[Interned, list[int]] = {}
        rows = []

        def row(n: Interned, _) -> None:
            rows.append((type(n), tuple(_swap(v, Interned, at.__getitem__)
                                        for v in n._fields())))
            at[n] = [len(rows) - 1]
        fold(self, lambda n: n._kids(), row)
        return _unpickle, (rows,)

    def _immutable(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __repr__(self):
        def spell(n: Interned, kids: list[str]) -> str:
            texts = iter(kids)
            fields = (f"{f}={next(texts)}" if isinstance(v, Interned)
                      else f"{f}={v!r}"
                      for f, v in zip(n.__slots__, n._fields()))
            return f"{type(n).__name__}({', '.join(fields)})"
        return _repr(self, type(self).__name__,
                     lambda n: fold(n, lambda m: m._kids(), spell),
                     _tree_nodes(self))


def _swap(v, kind: type, f: Callable):
    """v with f applied to each instance of kind that it is or holds."""
    if isinstance(v, kind):
        return f(v)
    if isinstance(v, tuple):
        return tuple(f(x) if isinstance(x, kind) else x for x in v)
    return v


def _unpickle(rows: list[tuple[type, tuple]]) -> Interned:
    nodes: list[Interned] = []
    for cls, fields in rows:
        nodes.append(cls(*(_swap(v, list, lambda at: nodes[at[0]])
                           for v in fields)))
    return nodes[-1]


# A repr spells a node out up to this many tree nodes.  Above it, where a
# shared DAG can expand exponentially, it gives the head and node counts.
_REPR_TREE_NODES = 1000


def _tree_nodes(node: Interned) -> int:
    """The number of nodes of the tree the DAG below node expands to."""
    return fold(node, lambda n: n._kids(), lambda _, sizes: 1 + sum(sizes))


def _repr(node: Interned, head: str, text: Callable[[Any], str],
          tree: int) -> str:
    """text(node) if the node's tree has at most _REPR_TREE_NODES nodes;
    else a summary, whose count of distinct nodes takes a walk."""
    if tree <= _REPR_TREE_NODES:
        return text(node)
    dag = 0

    def count(*_) -> None:
        nonlocal dag
        dag += 1
    fold(node, lambda n: n._kids(), count)
    return f"<{head}: {dag} distinct nodes, {tree} tree nodes>"


# The operator set of each derivation, as one frozenset per distinct set,
# found by the node's op and its children's sets: the key _build makes.
_OP_SETS: dict[frozenset[Op], frozenset[Op]] = {}
_OPS_BY_KEY: dict[tuple, frozenset[Op]] = {}


def _ops(key: tuple) -> frozenset[Op]:
    """The operator set of a node with op key[0] and children's sets
    key[1:], interned, on a miss in _OPS_BY_KEY."""
    ops = frozenset(key[:1]).union(*key[1:])
    ops = _OPS_BY_KEY[key] = _OP_SETS.setdefault(ops, ops)
    return ops


class Derivation(Interned):
    """A derivation: an operator and a tuple of children.  A node also
    holds two facts built from its children's when it is first made:
    size, the number of nodes of the tree the DAG below it expands to,
    and ops, its operator set, a frozenset shared by the nodes with equal
    sets.  So node_count and validate take O(1), however deep or shared
    the DAG.  The fields are op and children; pickle, copy and equality
    see those alone."""

    __slots__ = ("op", "children", "size", "ops")

    def __new__(cls, op: Op, children: tuple["Derivation", ...] = ()):
        return super().__new__(cls, op, children)

    def _build(self, values: tuple) -> None:
        op, children = values
        n = len(children)
        if n != ARITY[op]:
            raise ValueError(f"{op.value} takes {ARITY[op]} children, "
                             f"got {n}")
        if n == 2:
            g, h = children
            size, key = 1 + g.size + h.size, (op, g.ops, h.ops)
        elif n:
            size, key = 1 + children[0].size, (op, children[0].ops)
        else:
            size, key = 1, (op,)
        ops = _OPS_BY_KEY.get(key) or _ops(key)
        set_ = object.__setattr__
        set_(self, "op", op)
        set_(self, "children", children)
        set_(self, "size", size)
        set_(self, "ops", ops)

    def _fields(self) -> tuple:
        return self.op, self.children

    def node_count(self) -> int:
        """The number of nodes of the tree this DAG expands to."""
        return self.size

    def _kids(self) -> tuple["Derivation", ...]:
        return self.children

    def __repr__(self):
        return _repr(self, f"Derivation {self.op.value}",
                     lambda d: f"Derivation({d_print(d)!r})", self.size)


def fold(root, kids: Callable[[Any], tuple], f: Callable[[Any, list], Any]):
    """f(node, [results of kids(node)]) over the DAG below root.

    f runs once per distinct node (by identity), children first and left
    to right: the order, and so the first error, of a memoized recursion.
    kids runs once per distinct node too, before f and in pre-order
    (parents first, left to right), so it may hand down what a top-down
    walk would.  A result is dropped once its last parent has used it,
    so deep chains of strings take linear memory.
    """
    root_kids = kids(root)
    if not root_kids:  # a leaf: nothing to walk
        return f(root, [])
    # A recursion's frames: (node, kids, iterator over the kids not yet
    # entered); a node met again is done already, as DAGs have no cycles.
    uses = {id(root): 1}  # parents per node, counted per edge
    order = []            # (node, kids), children before parents
    stack = [(root, root_kids, iter(root_kids))]
    while stack:
        node, ks, rest = stack[-1]
        for k in rest:
            if id(k) in uses:
                uses[id(k)] += 1
                continue
            uses[id(k)] = 1
            kk = kids(k)
            if kk:
                stack.append((k, kk, iter(kk)))
                break
            order.append((k, kk))
        else:
            stack.pop()
            order.append((node, ks))
    done = {}
    for node, ks in order:
        args = []
        for k in ks:
            if uses[id(k)] == 1:
                args.append(done.pop(id(k)))
            else:
                uses[id(k)] -= 1
                args.append(done[id(k)])
        done[id(node)] = f(node, args)
    return done[id(root)]


# Atom singletons; compound constructors.
S = Derivation(Op.S)
ADD = Derivation(Op.ADD)
MUL = Derivation(Op.MUL)
LT = Derivation(Op.LT)
I = Derivation(Op.I)
D = Derivation(Op.D)
E = Derivation(Op.E)
SMASH = Derivation(Op.SMASH)
ORACLE = Derivation(Op.ORACLE)


def P(g: Derivation, h: Derivation) -> Derivation:
    return Derivation(Op.P, (g, h))


def comp(g: Derivation, h: Derivation) -> Derivation:
    return Derivation(Op.COMP, (g, h))


def mu(g: Derivation) -> Derivation:
    return Derivation(Op.MU, (g,))


def pr(g: Derivation, h: Derivation) -> Derivation:
    return Derivation(Op.PR, (g, h))


def bpr(g: Derivation, h: Derivation) -> Derivation:
    return Derivation(Op.BPR, (g, h))


def snr(g: Derivation, h: Derivation) -> Derivation:
    return Derivation(Op.SNR, (g, h))


# --- Algebra classes -------------------------------------------------------

_BASE = frozenset({Op.S, Op.ADD, Op.MUL, Op.LT, Op.I, Op.D,
                   Op.P, Op.COMP, Op.MU, Op.ORACLE})


@dataclass(frozen=True)
class AlgebraClass:
    name: str
    allowed: frozenset[Op]


DA = AlgebraClass("DA", _BASE)
SA = AlgebraClass("SA", _BASE | {Op.BPR})
TA = AlgebraClass("TA", _BASE | {Op.SNR})
DEA = AlgebraClass("DEA", _BASE | {Op.E})
DSA = AlgebraClass("DSA", _BASE | {Op.SMASH})
SSA = AlgebraClass("SSA", _BASE | {Op.BPR, Op.SMASH})
PRA = AlgebraClass("PRA", _BASE | {Op.PR})

CLASSES = {c.name: c for c in (DA, SA, TA, DEA, DSA, SSA, PRA)}


def validate(d: Derivation, c: AlgebraClass) -> bool:
    """True iff every operator of d is admitted by the class."""
    return d.ops <= c.allowed


# --- S-expression format ---------------------------------------------------

# An operator is spelled by its value: a leaf as an atom, a compound node
# as the head of its list.  _SPELLING reads it by a dict lookup, which is
# faster than Enum's value property.
_SPELLING = {op: op.value for op in Op}
_NODE_OF_ATOM = {op.value: Derivation(op) for op in Op if not ARITY[op]}
_OP_OF_HEAD = {op.value: op for op in Op if ARITY[op]}


def _print_rule(d: Derivation, kids: list[str]) -> str:
    if not kids:
        return _SPELLING[d.op]
    return f"({_SPELLING[d.op]} {' '.join(kids)})"


# d_print and str of a bound spell out at most this many tree nodes.  A
# shared DAG can expand exponentially: a P-tower of height 48 has 49
# distinct nodes and 2^49 - 1 tree nodes.
_PRINT_NODES = 1 << 22


class OutputTooLarge(ValueError):
    """An output too large to build: the text of a derivation or bound of
    over _PRINT_NODES tree nodes, or a bound's value at n whose width
    bound passes _BOUND_BITS.  The check reads stored facts, so it takes
    O(1), before anything is built."""


def d_print(d: Derivation) -> str:
    """The S-expression text of d; OutputTooLarge over _PRINT_NODES tree
    nodes."""
    if (n := d.size) > _PRINT_NODES:
        raise OutputTooLarge(f"derivation has {n} tree nodes, over "
                             f"{_PRINT_NODES}")
    return fold(d, lambda n: n.children, _print_rule)


class ParseError(ValueError):
    """A derivation text that does not parse; offset is the index of the
    character where the error is found."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"parse error at character {offset}: {msg}")
        self.offset = offset


_TOKEN = re.compile(r"[()]|[^\s()]+")


def _error(text: str, msg: str, i: int) -> ParseError:
    """A ParseError at the start of the text's i-th token."""
    return ParseError(msg,
                      next(islice(_TOKEN.finditer(text), i, None)).start())


def _opening(toks: list[str], k: int) -> int:
    """The index of the '(' that the ')' at index k closes."""
    depth = 1
    while depth:
        k -= 1
        depth += (toks[k] == ")") - (toks[k] == "(")
    return k


def d_parse(text: str) -> Derivation:
    """Parse the S-expression derivation format.

    The tokens come from one C-level split (str.split and the regex's \\s
    test the same Unicode whitespace), and a compound node is looked up in
    the intern table before its constructor is called.  Token positions
    and character offsets are worked out only for an error.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    out: list[Derivation] = []  # finished nodes; an open frame's kids end it
    frames: list[tuple[Op, int]] = []  # per open '(': its op and len(out)
    table = Derivation._table
    it = iter(toks)

    def last() -> int:
        """The index of the last token taken (a list iterator's length
        hint is exact: the number of tokens not yet taken)."""
        return len(toks) - length_hint(it) - 1

    for tok in it:
        node = _NODE_OF_ATOM.get(tok)
        if node is None:
            if tok == "(":
                op = _OP_OF_HEAD.get(head := next(it, None))
                if op is None:
                    raise _error(text, "missing operator after '('"
                                 if head is None
                                 else f"unknown operator {head!r}", last())
                frames.append((op, len(out)))
                continue
            if tok != ")":
                raise _error(text, f"unknown atom {tok!r}", last())
            if not frames:
                raise _error(text, "unexpected ')'", last())
            op, at = frames.pop()
            kids = tuple(out[at:])
            del out[at:]
            r = table.get((op, kids))
            node = None if r is None else r()
            if node is None:
                if len(kids) != ARITY[op]:
                    raise _error(text, f"{op.value} takes {ARITY[op]} "
                                 f"children, got {len(kids)}",
                                 _opening(toks, last()))
                node = Derivation(op, kids)
        if not frames:
            break
        out.append(node)
    else:
        raise ParseError("missing ')'" if frames
                         else "unexpected end of input", len(text))
    if length_hint(it):
        raise _error(text, "trailing input", last() + 1)
    return node


# --- Standard enumeration --------------------------------------------------
#
# Total order: node count first, then operator (the oracle symbol comes
# first, the rest in declaration order), then lexicographically by the
# indices of the children.  Children have strictly fewer nodes, hence
# strictly smaller indices.

_ENUM_TAG_ORDER = [Op.ORACLE, Op.S, Op.ADD, Op.MUL, Op.LT, Op.I, Op.D,
                   Op.P, Op.COMP, Op.MU, Op.PR, Op.BPR, Op.SNR,
                   Op.E, Op.SMASH]

# Enumeration covers derivations of up to this many tree nodes: counting
# those of k nodes takes O(k^2) products of O(k)-bit integers.
_ENUM_NODES = 1000
_TABLES: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}
_TABLES_LOCK = Lock()


class EnumerationError(ValueError):
    """A derivation or index outside the enumeration of a class: a foreign
    operator, a negative index or more than _ENUM_NODES tree nodes."""


# per class: its operators' offsets (see _table) and its arity profile
_OFFSETS: dict[AlgebraClass, tuple[dict[Op, tuple[int, int, int]],
                                   tuple[int, int, int]]] = {}


def _table(c: AlgebraClass, k: int):
    """The class's operator offsets, and the counts and pairs of its
    arity profile (how many atoms, unary and binary operators it has),
    kept in _TABLES and grown to size k: counts[j] derivations have j
    nodes, and pairs[j] ordered pairs of them have j - 1 nodes together.

    An operator's offsets (b0, b1, b2) are how many atoms, unary and
    binary operators of the class precede it in _ENUM_TAG_ORDER, in that
    order as keys.  So b0 if k == 1 else b1 * counts[k - 1] + b2 *
    pairs[k] derivations of k nodes have a root that precedes it, as an
    atom has one derivation of 1 node, a unary operator counts[k - 1]
    and a binary one pairs[k] of k nodes."""
    known = _OFFSETS.get(c)
    if known is None:
        at, before = {}, [0, 0, 0]
        for op in _ENUM_TAG_ORDER:
            if op in c.allowed:
                at[op] = tuple(before)
                before[ARITY[op]] += 1
        known = _OFFSETS[c] = at, tuple(before)
    at, (a0, a1, a2) = known
    with _TABLES_LOCK:  # two threads growing one table would both append
        counts, pairs = _TABLES.setdefault((a0, a1, a2), ([0, a0], [0, 0]))
        for j in range(len(counts), k + 1):
            pairs.append(sum(counts[i] * counts[j - 1 - i]
                             for i in range(1, j - 1)))
            counts.append(a1 * counts[j - 1] + a2 * pairs[j])
    return at, counts, pairs


def _as_class(c) -> AlgebraClass:
    if isinstance(c, AlgebraClass):
        return c
    if not isinstance(c, str):
        raise TypeError(f"expected an algebra class, got {type(c).__name__}")
    try:
        return CLASSES[c]
    except KeyError:
        raise EnumerationError(f"unknown algebra class {c!r}") from None


def index_of(d: Derivation, c) -> int:
    """Position of d in the standard enumeration of the class."""
    c = _as_class(c)
    if not validate(d, c):
        raise EnumerationError(f"derivation not in class {c.name}")
    if (n := d.size) > _ENUM_NODES:
        raise EnumerationError(f"derivation has {n} tree nodes, over "
                               f"{_ENUM_NODES}")
    at, counts, pairs = _table(c, n)

    def rule(d: Derivation, kids: list[int]) -> int:
        # d's index among the derivations of its size
        k = d.size
        b0, b1, b2 = at[d.op]
        if k == 1:
            return b0
        r = b1 * counts[k - 1] + b2 * pairs[k]
        if len(kids) == 2:  # the pairs before d's, by size and index of g
            g, h = d.children
            kg = g.size
            # the blocks of g sizes below kg, summed from the shorter end
            if 2 * kg <= k:
                r += sum(counts[i] * counts[k - 1 - i] for i in range(1, kg))
            else:
                r += pairs[k] - sum(counts[i] * counts[k - 1 - i]
                                    for i in range(kg, k - 1))
            r += kids[0] * counts[h.size]
        return r + kids[-1]
    return sum(counts[:n]) + fold(d, lambda m: m.children, rule)


def derivation_at(i: int, c) -> Derivation:
    """Inverse of index_of."""
    c = _as_class(c)
    if i < 0:
        raise EnumerationError("negative index")
    k, r = 1, i
    at, counts, pairs = _table(c, k)
    while r >= counts[k]:
        k, r = k + 1, r - counts[k]
        if k > _ENUM_NODES:
            raise EnumerationError("index out of enumerated range")
        if k == len(counts):
            _table(c, k)
    # Decode each distinct (size, index among that size) once, into its
    # operator and its children's keys, then build the nodes in order of
    # size, which puts children first.
    plan: dict[tuple[int, int], Any] = {}
    todo = [root := (k, r)]
    while todo:
        key = k, r = todo.pop()
        if key in plan:
            continue
        # the last operator that at most r derivations of k nodes precede;
        # an operator with none of them has the offset of the next one
        for op, (b0, b1, b2) in reversed(at.items()):
            if (before := b0 if k == 1
                    else b1 * counts[k - 1] + b2 * pairs[k]) <= r:
                break
        r -= before
        kids = ((k - 1, r),) if ARITY[op] == 1 else ()
        if ARITY[op] == 2:
            # find the block of g's size j, scanning from both ends: r
            # pairs precede d's and rh of them, d's included, follow
            lo, hi, rh = 1, k - 2, pairs[k] - r
            while True:
                if r < (block := counts[lo] * counts[k - 1 - lo]):
                    j = lo
                    break
                r, lo = r - block, lo + 1
                if rh <= (block := counts[hi] * counts[k - 1 - hi]):
                    j, r = hi, block - rh
                    break
                rh, hi = rh - block, hi - 1
            qg, qh = divmod(r, counts[k - 1 - j])
            kids = (j, qg), (k - 1 - j, qh)
        plan[key] = op, kids
        todo.extend(kids)
    for key in sorted(plan):
        op, kids = plan[key]
        plan[key] = Derivation(op, tuple(plan[kid] for kid in kids))
    return plan[root]


def enumerate_derivations(c, n: int) -> list[Derivation]:
    """The first n derivations of the class in standard order."""
    c = _as_class(c)
    return [derivation_at(i, c) for i in range(n)]


# --- Symbolic polynomial bounds -------------------------------------------


class UnboundedOperatorError(ValueError):
    """The derivation contains an operator with no polynomial bound."""


_BOUND_ARITY = {"const": 0, "var": 0, "add": 2, "mul": 2}


class PolyBound(Interned):
    """A closed monotone expression in one variable.

    kind is one of "const", "var", "add", "mul"; args carry subterms,
    two for add and mul, none otherwise; value is a const's value, an
    int >= 0, and 0 for the other kinds.  The fields are checked before
    the intern-table lookup, where True would find the node of 1.

    A bound also holds three facts built from its args' when it is first
    made: size, the number of nodes of its tree; degree (var 1, const 0,
    add the larger of its args', mul their sum); and width1, a bound on
    the width of its value at 1 (const its value's, var 1, add one more
    than the larger of its args', mul their sum).  As every coefficient
    is at least 0, b(n) <= b(1) * max(1, n) ** degree, so b(n) has at
    most width1 + degree * bits(max(1, n)) bits, and str(b) and b(n)
    refuse in O(1) what is too large to build.  The fields are kind,
    value and args; pickle, copy and equality see those alone.
    """

    __slots__ = ("kind", "value", "args", "size", "degree", "width1")

    def __new__(cls, kind: str, value: int = 0,
                args: tuple["PolyBound", ...] = ()):
        arity = _BOUND_ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown bound kind {kind!r}")
        if len(args) != arity:
            raise ValueError(f"{kind} takes {arity} args, got {len(args)}")
        if type(value) is not int:
            raise TypeError(
                f"a bound's value is an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"a const bound is at least 0, got {value}")
        if value and kind != "const":
            raise ValueError(f"a {kind} bound holds no value, got {value}")
        return super().__new__(cls, kind, value, args)

    def _build(self, values: tuple) -> None:
        kind, value, args = values
        if args:
            a, b = args
            size = 1 + a.size + b.size
            if kind == "add":
                degree = max(a.degree, b.degree)
                width1 = 1 + max(a.width1, b.width1)
            else:
                degree, width1 = a.degree + b.degree, a.width1 + b.width1
        elif kind == "var":
            size, degree, width1 = 1, 1, 1
        else:
            size, degree, width1 = 1, 0, value.bit_length()
        set_ = object.__setattr__
        set_(self, "kind", kind)
        set_(self, "value", value)
        set_(self, "args", args)
        set_(self, "size", size)
        set_(self, "degree", degree)
        set_(self, "width1", width1)

    def _fields(self) -> tuple:
        return self.kind, self.value, self.args

    def __call__(self, n: int) -> int:
        # a non-int n raises TypeError
        bits = max(1, index(n).bit_length())
        if (w := self.width1 + self.degree * bits) > _BOUND_BITS:
            raise OutputTooLarge(f"a bound's value at a {bits}-bit n may "
                                 f"have {w} bits, over {_BOUND_BITS}")

        def rule(b: PolyBound, v: list[int]) -> int:
            if b.kind == "const":
                return b.value
            if b.kind == "var":
                return n
            return v[0] + v[1] if b.kind == "add" else v[0] * v[1]
        return fold(self, lambda b: b.args, rule)

    def __str__(self):
        if self.size > _PRINT_NODES:
            raise OutputTooLarge(f"bound has {self.size} tree nodes, over "
                                 f"{_PRINT_NODES}")

        def rule(b: PolyBound, v: list[str]) -> str:
            if b.kind == "const":
                return str(b.value)
            if b.kind == "var":
                return "n"
            sep = " + " if b.kind == "add" else " * "
            return "(" + sep.join(v) + ")"
        return fold(self, lambda b: b.args, rule)

    def _kids(self) -> tuple["PolyBound", ...]:
        return self.args

    def __repr__(self):
        return _repr(self, f"PolyBound {self.kind}",
                     lambda b: f"PolyBound({str(b)!r})", self.size)


# b(n) refuses when its width bound passes this many bits (2 MiB).
_BOUND_BITS = 1 << 24

# The node of a kind, value and args that are known to be well formed,
# found or built through the intern table without PolyBound's checks:
# the node PolyBound(kind, value, args) returns.
_pnode = partial(Interned.__new__, PolyBound)
_padd = partial(_pnode, "add", 0)
_pmul = partial(_pnode, "mul", 0)
_VAR = PolyBound("var")


def _subst(b: PolyBound, inner: PolyBound) -> PolyBound:
    """b with inner for its variable; a leaf, or an atom's bound, whose
    arguments are leaves, takes no walk."""
    if b is _VAR:
        return inner
    if not b.args:
        return b
    x, y = b.args
    if not (x.args or y.args):
        return _pnode(b.kind, 0, (inner if x is _VAR else x,
                                  inner if y is _VAR else y))

    def rule(p: PolyBound, args: list[PolyBound]) -> PolyBound:
        if p is _VAR:
            return inner
        return _pnode(p.kind, 0, tuple(args)) if args else p
    return fold(b, lambda p: p.args, rule)


_ONE, _TWO = PolyBound("const", 1), PolyBound("const", 2)
# poly_bound walks into P and comp.  Every other operator is a leaf of its
# walk, whose value is at most its argument's unless this table says
# otherwise; PR, E and smash have no polynomial bound and no entry.
_BOUND_WALKS = frozenset({Op.P, Op.COMP})
_LEAF_BOUND = {op: _VAR for op in Op
               if op not in _BOUND_WALKS | {Op.PR, Op.E, Op.SMASH}}
_LEAF_BOUND.update({
    Op.S: _padd((_VAR, _ONE)),
    Op.ADD: _pmul((_TWO, _VAR)),
    Op.MUL: _pmul((_VAR, _VAR)),
    Op.LT: _ONE,
    Op.ORACLE: _ONE,
})


def _bound_rule(d: Derivation, kids: list[PolyBound]) -> PolyBound:
    if not kids:
        b = _LEAF_BOUND.get(d.op)
        if b is None:
            raise UnboundedOperatorError(
                f"{d.op.value} has no polynomial bound")
        return b
    bg, bh = kids
    if d.op is Op.P:
        s = _padd((_padd((bg, bh)), _TWO))
        return _pmul((s, s))
    return _subst(bg, bh)  # comp


def poly_bound(d: Derivation) -> PolyBound:
    """A monotone polynomial dominating the function of the derivation."""
    return fold(d, lambda n: n.children if n.op in _BOUND_WALKS else (),
                _bound_rule)
