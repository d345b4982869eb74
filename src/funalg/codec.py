"""Number encodings: pairing, tuples, lists, 0-1 sequences, coded sets, trees.

Everything here is a pure function on Python ints (arbitrary precision,
always >= 0).  The pairing function is the diagonal Cantor pairing offset
by one, so that 0 is never a pair and head/tail strictly shrink.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence


class NotAPairError(ValueError):
    """Raised when unpairing 0, which codes no pair."""


def pair(x: int, y: int) -> int:
    """The offset Cantor pairing; a bijection N x N -> N \\ {0}."""
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals only")
    s = x + y
    return (s * (s + 1) + 2 * x + 2) // 2


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair; z must be positive."""
    if z <= 0:
        raise NotAPairError("0 codes no pair")
    w = 2 * z - 2
    s = (isqrt(4 * w + 1) - 1) // 2
    x = (w - s * (s + 1)) // 2
    if x > s:  # isqrt landed one diagonal short
        s += 1
        x = (w - s * (s + 1)) // 2
    return x, s - x


def head(z: int) -> int:
    """First projection, totalized with head(0) = 0."""
    return 0 if z == 0 else unpair(z)[0]


def tail(z: int) -> int:
    """Second projection, totalized with tail(0) = 0."""
    return 0 if z == 0 else unpair(z)[1]


def tuple_encode(xs: Sequence[int]) -> int:
    """Right-associated pairing of a nonempty sequence: (a,b,c) = (a,(b,c))."""
    if not xs:
        raise ValueError("tuple encoding needs at least one component")
    acc = xs[-1]
    for x in reversed(xs[:-1]):
        acc = pair(x, acc)
    return acc


def list_encode(xs: Iterable[int]) -> int:
    """Encode x1..xn as (x1,...,xn,0); the empty list is 0."""
    return tuple_encode([*xs, 0])


def list_decode(x: int) -> list[int]:
    out = []
    while x != 0:
        v, x = unpair(x)
        out.append(v)
    return out


def list_len(x: int) -> int:
    n = 0
    while x != 0:
        x = tail(x)
        n += 1
    return n


def list_concat(x: int, y: int) -> int:
    """List concatenation: 0 + y = y, (v,x) + y = (v, x + y)."""
    return tuple_encode([*list_decode(x), y])


# --- 0-1 sequence codes: the sequence b0..b(n-1) is the binary number
# --- 1 b0 ... b(n-1), so every positive number codes a sequence and the
# --- empty sequence is 1.

def seq_encode(bits: Sequence[int]) -> int:
    code = 1
    for b in bits:
        if b not in (0, 1):
            raise ValueError("sequence entries must be bits")
        code = 2 * code + b
    return code


def seq_decode(t: int) -> list[int]:
    if t <= 0:
        raise ValueError("positive codes only")
    s = bin(t)[2:]
    return [int(c) for c in s[1:]]


def seq_len(t: int) -> int:
    """Sequence length; 0 maps to 0 by the defining disjunction."""
    if t == 0:
        return 0
    return t.bit_length() - 1


def seq_concat(s: int, t: int) -> int:
    """Append bit-vectors; yields 0 whenever either side is 0."""
    if s == 0 or t == 0:
        return 0
    p = 1 << seq_len(t)
    return s * p + (t - p)


def seq_prefix(s: int, t: int) -> bool:
    """Improper prefix: some r with s * r = t (so s, t > 0 and s leads t)."""
    if s == 0 or t == 0:
        return False
    ls, lt = seq_len(s), seq_len(t)
    if ls > lt:
        return False
    return t >> (lt - ls) == s


def seq_prefix_proper(s: int, t: int) -> bool:
    """Proper prefix: improper prefix and s < t."""
    return seq_prefix(s, t) and s < t


# --- Finite sets coded as bit masks (x in code iff bit x is set).

@dataclass(frozen=True)
class FinSet:
    """A finite set of naturals, kept strictly ascending."""

    elements: tuple[int, ...] = ()

    def __post_init__(self):
        elems = self.elements
        if any(e < 0 for e in elems):
            raise ValueError("negative element")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be strictly ascending")

    @staticmethod
    def of(*xs: int) -> "FinSet":
        return FinSet(tuple(sorted(set(xs))))

    def __contains__(self, x: int) -> bool:
        elems = self.elements
        i = bisect_left(elems, x)
        return i < len(elems) and elems[i] == x

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def size(self) -> int:
        """Least strict upper bound of the set (0 for the empty set)."""
        return self.elements[-1] + 1 if self.elements else 0


def ack_member(x: int, y: int) -> bool:
    """Bit-membership: x is in the set coded by y iff bit x of y is 1."""
    return x >= 0 and (y >> x) & 1 == 1


def ack_encode(s: FinSet) -> int:
    code = 0
    for e in s:
        code |= 1 << e
    return code


def ack_decode(y: int) -> FinSet:
    if y < 0:
        raise ValueError("negative code")
    out = []
    i = 0
    while y:
        if y & 1:
            out.append(i)
        y >>= 1
        i += 1
    return FinSet(tuple(out))


def is_tree(s) -> bool:
    """True iff 0 is absent and s is closed under proper sequence prefixes.

    Accepts a FinSet or any collection of sequence codes."""
    members = set(s)
    if 0 in members:
        return False
    for t in s:
        # proper prefixes of t are its leading bit-strings, down to 1
        p = t >> 1
        while p >= 1:
            if p not in members:
                return False
            p >>= 1
    return True


# --- Base-b digit pairing.

def base_pair(x: int, y: int, b: int) -> int:
    """[x,y]_b = x*b + y; a pairing when both digits are below b."""
    return x * b + y


def base_unpair(v: int, b: int) -> tuple[int, int]:
    if b <= 0:
        raise ValueError("base must be positive")
    return divmod(v, b)
