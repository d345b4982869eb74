"""Derivation terms, algebra classes, enumeration, and polynomial bounds."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterator
from weakref import WeakValueDictionary


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


# A dense int per operator, in declaration order, so the evaluator can
# dispatch on ints instead of hashing enum members.
for _code, _op in enumerate(Op):
    _op.code = _code
del _code, _op


ARITY = {
    Op.S: 0, Op.ADD: 0, Op.MUL: 0, Op.LT: 0, Op.I: 0, Op.D: 0,
    Op.E: 0, Op.SMASH: 0, Op.ORACLE: 0,
    Op.MU: 1,
    Op.P: 2, Op.COMP: 2, Op.PR: 2, Op.BPR: 2, Op.SNR: 2,
}


class Interned:
    """Base of hash-consed nodes (Filliatre & Conchon, 2006): a constructor
    call looks its field values, named in the subclass's __slots__, up in
    a weak table and builds a node, running _check, only on a miss.  So a
    structurally equal node is the same object, `==` is `is`, `hash` is
    O(1), and copy, deepcopy and pickle return the interned node.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._table = WeakValueDictionary()

    def __new__(cls, *values):
        node = cls._table.get(values)
        if node is None:
            node = object.__new__(cls)
            for name, v in zip(cls.__slots__, values, strict=True):
                object.__setattr__(node, name, v)
            node._check()
            cls._table[values] = node
        return node

    def _check(self):
        """Raise if the fields make no node."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def _immutable(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __repr__(self):
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


# A repr spells a node out up to this many tree nodes.  Above it, where a
# shared DAG can expand exponentially, it gives the head and node counts.
_REPR_TREE_NODES = 1000


def _repr(node, kids, head: str, text: Callable[[Any], str]) -> str:
    dag = 0

    def size(_, sizes: list[int]) -> int:
        nonlocal dag
        dag += 1
        return 1 + sum(sizes)
    tree, name = fold(node, kids, size), type(node).__name__
    if tree <= _REPR_TREE_NODES:
        return f"{name}({text(node)!r})"
    return f"<{name} {head}: {dag} distinct nodes, {tree} tree nodes>"


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

    def __repr__(self):
        return _repr(self, lambda d: d.children, self.op.value, d_print)


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

_ATOM_OF = {
    Op.S: "S", Op.ADD: "add", Op.MUL: "mul", Op.LT: "lt", Op.I: "I",
    Op.D: "D", Op.E: "E", Op.SMASH: "smash", Op.ORACLE: "X",
}
_OP_OF_ATOM = {v: k for k, v in _ATOM_OF.items()}
_HEAD_OF = {Op.P: "P", Op.COMP: "comp", Op.MU: "mu",
            Op.PR: "pr", Op.BPR: "bpr", Op.SNR: "snr"}
_OP_OF_HEAD = {v: k for k, v in _HEAD_OF.items()}


def _print_rule(d: Derivation, kids: list[str]) -> str:
    if not kids:
        return _ATOM_OF[d.op]
    return f"({_HEAD_OF[d.op]} {' '.join(kids)})"


def d_print(d: Derivation) -> str:
    return fold(d, lambda n: n.children, _print_rule)


class ParseError(ValueError):
    def __init__(self, msg: str, offset: int):
        super().__init__(f"parse error at byte {offset}: {msg}")
        self.offset = offset


_TOKEN = re.compile(r"[()]|[^\s()]+")


def d_parse(text: str) -> Derivation:
    """Parse the S-expression derivation format."""
    # one frame per open '(': its operator token, offset, children so far
    frames: list[tuple[str, int, list[Derivation]]] = []
    root = None
    toks = _TOKEN.finditer(text)
    for m in toks:
        tok, off = m.group(), m.start()
        if root is not None:
            raise ParseError("trailing input", off)
        if tok == "(":
            head = next(toks, None)
            if head is None:
                raise ParseError("missing operator after '('", off)
            if head.group() not in _OP_OF_HEAD:
                raise ParseError(f"unknown operator {head.group()!r}",
                                 head.start())
            frames.append((head.group(), off, []))
            continue
        if tok == ")":
            if not frames:
                raise ParseError("unexpected ')'", off)
            name, start, kids = frames.pop()
            op = _OP_OF_HEAD[name]
            if len(kids) != ARITY[op]:
                raise ParseError(
                    f"{name} takes {ARITY[op]} children, got {len(kids)}",
                    start)
            node = Derivation(op, tuple(kids))
        elif tok in _OP_OF_ATOM:
            node = Derivation(_OP_OF_ATOM[tok])
        else:
            raise ParseError(f"unknown atom {tok!r}", off)
        if frames:
            frames[-1][2].append(node)
        else:
            root = node
    if frames:
        raise ParseError("missing ')'", len(text))
    if root is None:
        raise ParseError("unexpected end of input", len(text))
    return root


# --- Standard enumeration --------------------------------------------------
#
# Total order: node count first, then operator (the oracle symbol comes
# first, the rest in declaration order), then lexicographically by the
# indices of the children.  Children have strictly fewer nodes, hence
# strictly smaller indices.

_ENUM_TAG_ORDER = [Op.ORACLE, Op.S, Op.ADD, Op.MUL, Op.LT, Op.I, Op.D,
                   Op.P, Op.COMP, Op.MU, Op.PR, Op.BPR, Op.SNR,
                   Op.E, Op.SMASH]
_TAG_RANK = {op: i for i, op in enumerate(_ENUM_TAG_ORDER)}


class EnumerationError(ValueError):
    pass


def _class_tags(c: AlgebraClass) -> list[Op]:
    return [op for op in _ENUM_TAG_ORDER if op in c.allowed]


@lru_cache(maxsize=None)
def _counts(cname: str, k: int) -> int:
    """Number of derivations of the class with exactly k operator nodes."""
    if k <= 0:
        return 0
    return sum(_op_count(cname, op, k) for op in _class_tags(CLASSES[cname]))


def _op_count(cname: str, op: Op, k: int) -> int:
    """Number of derivations of the class with k nodes and root op."""
    a = ARITY[op]
    if a == 0:
        return 1 if k == 1 else 0
    if a == 1:
        return _counts(cname, k - 1)
    return sum(_counts(cname, i) * _counts(cname, k - 1 - i)
               for i in range(1, k - 1))


@lru_cache(maxsize=None)
def _block_start(cname: str, k: int) -> int:
    """Index of the first derivation with k nodes."""
    return 0 if k <= 1 else _block_start(cname, k - 1) + _counts(cname, k - 1)


def _as_class(c) -> AlgebraClass:
    if isinstance(c, str):
        try:
            return CLASSES[c]
        except KeyError:
            raise EnumerationError(f"unknown algebra class {c!r}") from None
    return c


def index_of(d: Derivation, c) -> int:
    """Position of d in the standard enumeration of the class."""
    c = _as_class(c)
    if not validate(d, c):
        raise EnumerationError(f"derivation not in class {c.name}")
    k = d.node_count()
    idx = _block_start(c.name, k)
    for op in _class_tags(c):
        if op is d.op:
            break
        idx += _op_count(c.name, op, k)
    a = ARITY[d.op]
    if a == 1:
        child = d.children[0]
        idx += index_of(child, c) - _block_start(c.name, k - 1)
    elif a == 2:
        g, h = d.children
        kh = h.node_count()
        ig, ih = index_of(g, c), index_of(h, c)
        # pairs whose first index precedes ig
        for i in range(1, k - 1):
            before = min(max(ig - _block_start(c.name, i), 0),
                         _counts(c.name, i))
            idx += before * _counts(c.name, k - 1 - i)
        idx += ih - _block_start(c.name, kh)
    return idx


def derivation_at(i: int, c) -> Derivation:
    """Inverse of index_of."""
    c = _as_class(c)
    if i < 0:
        raise EnumerationError("negative index")
    k = 1
    while _block_start(c.name, k + 1) <= i:
        k += 1
        if k > 10_000:
            raise EnumerationError("index out of enumerated range")
    r = i - _block_start(c.name, k)
    for op in _class_tags(c):
        cnt = _op_count(c.name, op, k)
        if r < cnt:
            break
        r -= cnt
    else:
        raise EnumerationError("index decoding failed")
    a = ARITY[op]
    if a == 0:
        return Derivation(op)
    if a == 1:
        return Derivation(op, (derivation_at(_block_start(c.name, k - 1) + r, c),))
    for j in range(1, k - 1):
        block = _counts(c.name, j) * _counts(c.name, k - 1 - j)
        if r < block:
            qg, qh = divmod(r, _counts(c.name, k - 1 - j))
            g = derivation_at(_block_start(c.name, j) + qg, c)
            h = derivation_at(_block_start(c.name, k - 1 - j) + qh, c)
            return Derivation(op, (g, h))
        r -= block
    raise EnumerationError("index decoding failed")


def enumerate_derivations(c, n: int) -> list[Derivation]:
    """The first n derivations of the class in standard order."""
    c = _as_class(c)
    return [derivation_at(i, c) for i in range(n)]


# --- Symbolic polynomial bounds -------------------------------------------


class UnboundedOperatorError(ValueError):
    """The derivation contains an operator with no polynomial bound."""


class PolyBound(Interned):
    """A closed monotone expression in one variable.

    kind is one of "const", "var", "add", "mul"; args carry subterms.
    """

    __slots__ = ("kind", "value", "args")

    def __new__(cls, kind: str, value: int = 0,
                args: tuple["PolyBound", ...] = ()):
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

    def __repr__(self):
        return _repr(self, lambda b: b.args, self.kind, str)


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
