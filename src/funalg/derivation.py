"""Derivation terms, algebra classes, enumeration, and polynomial bounds."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from operator import length_hint
from threading import Lock
from typing import Any, Callable, Iterator
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
    a table of weak references and builds a node, running _check, only on
    a miss; a node's reference drops its entry when the node dies.  So a
    structurally equal node is the same object, `==` is `is`, `hash` is
    O(1), and copy, deepcopy and pickle return the interned node.  A
    node's children, _kids, are its fields that are nodes, or the nodes in
    a tuple field where a subclass says so; repr and pickle walk them on
    the DAG without recursion, however deep the node.
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
            for name, v in zip(cls.__slots__, values, strict=True):
                object.__setattr__(node, name, v)
            node._check()
            table[values] = ref(node, partial(_drop, table, values))
        return node

    def _check(self):
        """Raise if the fields make no node."""

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
                     lambda n: fold(n, lambda m: m._kids(), spell))


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


def _repr(node: Interned, head: str, text: Callable[[Any], str]) -> str:
    dag = 0

    def size(_, sizes: list[int]) -> int:
        nonlocal dag
        dag += 1
        return 1 + sum(sizes)
    tree = fold(node, lambda n: n._kids(), size)
    if tree <= _REPR_TREE_NODES:
        return text(node)
    return f"<{head}: {dag} distinct nodes, {tree} tree nodes>"


class Derivation(Interned):
    __slots__ = ("op", "children")

    def __new__(cls, op: Op, children: tuple["Derivation", ...] = ()):
        return super().__new__(cls, op, children)

    def _check(self):
        if len(self.children) != ARITY[self.op]:
            raise ValueError(
                f"{self.op.value} takes {ARITY[self.op]} children, "
                f"got {len(self.children)}"
            )

    def node_count(self) -> int:
        """The number of nodes of the tree this DAG expands to."""
        return fold(self, lambda d: d.children, lambda d, n: 1 + sum(n))

    def nodes(self) -> Iterator["Derivation"]:
        """Each distinct node reachable from this one, once."""
        seen, stack = set(), [self]
        while stack:
            d = stack.pop()
            if d not in seen:
                seen.add(d)
                yield d
                stack.extend(d.children)

    def _kids(self) -> tuple["Derivation", ...]:
        return self.children

    def __repr__(self):
        return _repr(self, f"Derivation {self.op.value}",
                     lambda d: f"Derivation({d_print(d)!r})")


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
    return all(n.op in c.allowed for n in d.nodes())


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


def d_print(d: Derivation) -> str:
    return fold(d, lambda n: n.children, _print_rule)


class ParseError(ValueError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"parse error at byte {offset}: {msg}")
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
    and byte offsets are worked out only for an error.
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


def _table(c: AlgebraClass, k: int):
    """The class's operators in order, and the counts and pairs of its
    arity profile (how many atoms, unary and binary operators it has),
    kept in _TABLES and grown to size k: counts[j] derivations have j
    nodes, and pairs[j] ordered pairs of them have j - 1 nodes together."""
    a0, a1, a2 = (sum(ARITY[op] == a for op in c.allowed) for a in range(3))
    with _TABLES_LOCK:  # two threads growing one table would both append
        counts, pairs = _TABLES.setdefault((a0, a1, a2), ([0, a0], [0, 0]))
        for j in range(len(counts), k + 1):
            pairs.append(sum(counts[i] * counts[j - 1 - i]
                             for i in range(1, j - 1)))
            counts.append(a1 * counts[j - 1] + a2 * pairs[j])
    return [op for op in _ENUM_TAG_ORDER if op in c.allowed], counts, pairs


def _per_op(ops, counts, pairs, k: int) -> list[int]:
    """How many derivations with k nodes have each of ops at the root."""
    return [(k == 1, counts[k - 1], pairs[k])[ARITY[op]] for op in ops]


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
    if (n := d.node_count()) > _ENUM_NODES:
        raise EnumerationError(f"derivation has {n} tree nodes, over "
                               f"{_ENUM_NODES}")
    ops, counts, pairs = _table(c, n)

    def rule(d: Derivation, kids: list[tuple[int, int]]) -> tuple[int, int]:
        # (size, index among the derivations of that size)
        k = 1 + sum(size for size, _ in kids)
        r = sum(_per_op(ops, counts, pairs, k)[:ops.index(d.op)])
        if len(kids) == 2:  # the pairs before d's, by size and index of g
            (kg, rg), (kh, _) = kids
            # the blocks of g sizes below kg, summed from the shorter end
            if 2 * kg <= k:
                r += sum(counts[i] * counts[k - 1 - i] for i in range(1, kg))
            else:
                r += pairs[k] - sum(counts[i] * counts[k - 1 - i]
                                    for i in range(kg, k - 1))
            r += rg * counts[kh]
        return k, r + (kids[-1][1] if kids else 0)
    k, r = fold(d, lambda n: n.children, rule)
    return sum(counts[:k]) + r


def derivation_at(i: int, c) -> Derivation:
    """Inverse of index_of."""
    c = _as_class(c)
    if i < 0:
        raise EnumerationError("negative index")
    k, r = 1, i
    ops, counts, pairs = _table(c, k)
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
        for op, cnt in zip(ops, _per_op(ops, counts, pairs, k)):
            if r < cnt:
                break
            r -= cnt
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
    """

    __slots__ = ("kind", "value", "args")

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

    def __call__(self, n: int) -> int:
        def rule(b: PolyBound, v: list[int]) -> int:
            if b.kind == "const":
                return b.value
            if b.kind == "var":
                return n
            return v[0] + v[1] if b.kind == "add" else v[0] * v[1]
        return fold(self, lambda b: b.args, rule)

    def __str__(self):
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
                     lambda b: f"PolyBound({str(b)!r})")


def _const(k: int) -> PolyBound:
    return PolyBound("const", k)


_VAR = PolyBound("var")


def _padd(a: PolyBound, b: PolyBound) -> PolyBound:
    return PolyBound("add", args=(a, b))


def _pmul(a: PolyBound, b: PolyBound) -> PolyBound:
    return PolyBound("mul", args=(a, b))


def _subst(b: PolyBound, inner: PolyBound) -> PolyBound:
    def rule(p: PolyBound, args: list[PolyBound]) -> PolyBound:
        if p.kind == "var":
            return inner
        return PolyBound(p.kind, args=tuple(args)) if args else p
    return fold(b, lambda p: p.args, rule)


def _bound_rule(d: Derivation, kids: list[PolyBound]) -> PolyBound:
    op = d.op
    if op in (Op.PR, Op.E, Op.SMASH):
        raise UnboundedOperatorError(f"{op.value} has no polynomial bound")
    if op is Op.S:
        return _padd(_VAR, _const(1))
    if op is Op.ADD:
        return _pmul(_const(2), _VAR)
    if op is Op.MUL:
        return _pmul(_VAR, _VAR)
    if op in (Op.LT, Op.ORACLE):
        return _const(1)
    if op in (Op.I, Op.D, Op.MU, Op.BPR, Op.SNR):
        return _VAR
    bg, bh = kids
    if op is Op.P:
        s = _padd(_padd(bg, bh), _const(2))
        return _pmul(s, s)
    return _subst(bg, bh)  # comp


def poly_bound(d: Derivation) -> PolyBound:
    """A monotone polynomial dominating the function of the derivation."""
    # the other operators bound their value by their argument, or not at all
    return fold(d, lambda n: n.children if n.op in (Op.P, Op.COMP) else (),
                _bound_rule)
