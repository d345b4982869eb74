"""Number encodings: pairing, tuples, lists, 0-1 sequences, finite sets.

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


# --- Finite sets: the oracles of One-mode runs, whose argument is size().

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
