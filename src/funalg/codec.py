"""Number encodings: pairing, tuples, lists, 0-1 sequences, coded sets, trees.

Everything here is a pure function on the natural numbers, as Python ints
of any size.  The domain is stated once, by nat: a non-int raises
TypeError and a negative int ValueError, each naming the value.  The
pairing function is the diagonal Cantor pairing offset by one, so that 0
is never a pair and head/tail strictly shrink.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence


class NotAPairError(ValueError):
    """Raised when unpairing a number below 1, which codes no pair."""


def nat(x, what: str = "argument") -> int:
    """x, if it is a natural number; else TypeError or ValueError."""
    if not isinstance(x, int):
        raise TypeError(f"expected an int {what}, got {type(x).__name__}")
    if x < 0:
        raise ValueError(f"{what} must be a natural number, got {x}")
    return x


def pair(x: int, y: int) -> int:
    """The offset Cantor pairing; a bijection N x N -> N \\ {0}."""
    s = nat(x) + nat(y)
    return (s * (s + 1) + 2 * x + 2) // 2


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair; z must be positive.  The diagonal x + y of
    z = <x, y> is the largest s with s(s + 1)/2 <= z - 1, which isqrt
    gives exactly; the evaluator inlines the same formula."""
    if z <= 0:
        raise NotAPairError(f"{z} codes no pair")
    s = (isqrt(8 * z - 7) - 1) // 2
    x = z - 1 - s * (s + 1) // 2
    return x, s - x


def head(z: int) -> int:
    """First projection, totalized with head(0) = 0."""
    return nat(z) if z == 0 else unpair(z)[0]


def tail(z: int) -> int:
    """Second projection, totalized with tail(0) = 0."""
    return nat(z) if z == 0 else unpair(z)[1]


def tuple_encode(xs: Sequence[int]) -> int:
    """Right-associated pairing of a nonempty sequence: (a,b,c) = (a,(b,c))."""
    if not xs:
        raise ValueError("tuple encoding needs at least one component")
    acc = nat(xs[-1])
    for x in reversed(xs[:-1]):
        acc = pair(x, acc)
    return acc


def list_encode(xs: Iterable[int]) -> int:
    """Encode x1..xn as (x1,...,xn,0); the empty list is 0."""
    return tuple_encode([*xs, 0])


def list_decode(x: int) -> list[int]:
    out = []
    while nat(x):
        v, x = unpair(x)
        out.append(v)
    return out


def list_len(x: int) -> int:
    n = 0
    while nat(x):
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
        if nat(b, "bit") > 1:
            raise ValueError(f"sequence entries must be bits, got {b}")
        code = 2 * code + b
    return code


def seq_decode(t: int) -> list[int]:
    if nat(t, "code") == 0:
        raise ValueError("0 codes no sequence")
    s = bin(t)[2:]
    return [int(c) for c in s[1:]]


def seq_len(t: int) -> int:
    """Sequence length; 0 maps to 0 by the defining disjunction."""
    return max(nat(t, "code").bit_length() - 1, 0)


def seq_concat(s: int, t: int) -> int:
    """Append bit-vectors; yields 0 whenever either side is 0."""
    if 0 in (nat(s, "code"), nat(t, "code")):
        return 0
    p = 1 << seq_len(t)
    return s * p + (t - p)


def seq_prefix(s: int, t: int) -> bool:
    """Improper prefix: some r with s * r = t (so s, t > 0 and s leads t)."""
    if 0 in (nat(s, "code"), nat(t, "code")):
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
        for e in elems:
            nat(e, "element")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be strictly ascending")

    @staticmethod
    def of(*xs: int) -> "FinSet":
        return FinSet(tuple(sorted({nat(x, "element") for x in xs})))

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
    nat(y, "code")
    return x >= 0 and (y >> x) & 1 == 1


_ACK_BITS = 1 << 24


def ack_encode(s: FinSet) -> int:
    """The code with bit e set for each element e of s, max(s) + 1 bits wide.

    A code is at most 2**24 bits (2 MiB) wide: an element of 2**24 or more
    raises ValueError, naming it, before any of the code is built."""
    if not s.elements:
        return 0
    top = s.elements[-1]
    if top >= _ACK_BITS:
        raise ValueError(f"element {top} needs a code wider than 2**24 bits")
    code = bytearray((top >> 3) + 1)
    for e in s.elements:
        code[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(code, "little")


def ack_decode(y: int) -> FinSet:
    """The set of the 1 bits of y; one pass over its bytes."""
    code = nat(y, "code").to_bytes((y.bit_length() + 7) >> 3, "little")
    return FinSet(tuple(i << 3 | j for i, byte in enumerate(code) if byte
                        for j in range(8) if byte >> j & 1))


def is_tree(s) -> bool:
    """True iff 0 is absent and s is closed under proper sequence prefixes.

    Accepts a FinSet or any collection of sequence codes."""
    members = {nat(t, "member") for t in s}
    if 0 in members:
        return False
    for t in members:
        # proper prefixes of t are its leading bit-strings, down to 1
        p = t >> 1
        while p >= 1:
            if p not in members:
                return False
            p >>= 1
    return True

