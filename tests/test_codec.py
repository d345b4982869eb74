"""Pairing, tuple, list, sequence and finite-set encodings."""

import pytest
from hypothesis import given, strategies as st

from funalg import codec
from funalg.codec import (FinSet, NotAPairError, head, list_concat,
                          list_decode, list_encode, list_len, pair,
                          seq_decode, seq_encode, seq_len, tail, tuple_encode,
                          unpair)


def test_pair_worked_examples():
    assert pair(0, 0) == 1
    assert pair(0, 1) == 2
    assert pair(1, 0) == 3
    assert pair(1, 1) == 5
    assert pair(2, 0) == 6
    assert pair(5, 0) == 21


def test_pair_defining_equation():
    for x in range(40):
        for y in range(40):
            z = pair(x, y)
            assert 2 * z == (x + y) * (x + y + 1) + 2 * x + 2


def test_unpair_inverse_small():
    for z in range(1, 10_001):
        x, y = unpair(z)
        assert pair(x, y) == z


def test_projections_below():
    for z in range(1, 10_001):
        assert head(z) < z
        assert tail(z) < z


def test_projections_total_at_zero():
    assert head(0) == 0
    assert tail(0) == 0


def test_unpair_rejects_zero():
    with pytest.raises(NotAPairError):
        unpair(0)


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=10**9))
def test_pair_unpair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(min_value=1, max_value=10**12))
def test_unpair_pair_roundtrip(z):
    assert pair(*unpair(z)) == z


def test_pair_monotone():
    for x in range(20):
        for y in range(20):
            assert pair(x + 1, y) > pair(x, y)
            assert pair(x, y + 1) > pair(x, y)


def test_tuple_right_associated():
    assert tuple_encode([7]) == 7
    assert tuple_encode([1, 2, 3]) == pair(1, pair(2, 3))


def test_list_roundtrip():
    for lst in ([], [0], [5], [1, 2], [3, 3, 3], list(range(6))):
        assert list_decode(list_encode(lst)) == lst
    assert list_encode([]) == 0


def test_seq_worked_examples():
    # the code of the bit-vector 0100 is 20; its length is 4
    assert seq_encode([0, 1, 0, 0]) == 20
    assert seq_len(1) == 0
    assert seq_len(20) == 4


def test_seq_all_zero_one():
    for i in range(21):
        assert seq_encode([0] * i) == 2 ** i
        assert seq_encode([1] * i) == 2 ** (i + 1) - 1


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=40))
def test_seq_roundtrip(bits):
    assert seq_decode(seq_encode(bits)) == bits


def test_finset_size():
    assert FinSet(()).size() == 0
    assert FinSet((0, 2)).size() == 3  # one more than the largest element


@given(st.lists(st.integers(0, 60)), st.integers(-3, 70))
def test_finset_membership(xs, q):
    assert (q in FinSet.of(*xs)) == (q in set(xs))


@given(st.lists(st.integers(0, 9), max_size=8),
       st.lists(st.integers(0, 9), max_size=8))
def test_list_concat(a, b):
    # a code about doubles in width per element: 20 zeros take 166,373 bits
    assert codec.list_concat(list_encode(a), list_encode(b)) == \
        list_encode(a + b)


OUT_OF_DOMAIN = [
    (tuple_encode, ([-1],), ValueError, "natural number, got -1"),
    (list_encode, ([2, -1],), ValueError, "natural number, got -1"),
    (list_concat, (0, -4), ValueError, "natural number, got -4"),
    (pair, (1.5, 2), TypeError, "expected an int argument, got float"),
    (pair, (3, -2), ValueError, "natural number, got -2"),
    (unpair, (-3,), NotAPairError, "-3 codes no pair"),
    (head, (-3,), NotAPairError, "-3 codes no pair"),
    (tail, (-3,), NotAPairError, "-3 codes no pair"),
    (list_len, (-3,), ValueError, "natural number, got -3"),
    (list_decode, (0.0,), TypeError, "got float"),
    (seq_encode, ([0, 2],), ValueError, "bits, got 2"),
    (seq_decode, (-1,), ValueError, "natural number, got -1"),
    (seq_len, (-5,), ValueError, "natural number, got -5"),
    (FinSet, ((1.5,),), TypeError, "expected an int element, got float"),
    (FinSet, ((-2, 1),), ValueError, "natural number, got -2"),
]


@pytest.mark.parametrize("f,args,error,message", OUT_OF_DOMAIN,
                         ids=[f"{c[0].__name__}{c[1]}" for c in OUT_OF_DOMAIN])
def test_out_of_domain_arguments_raise(f, args, error, message):
    with pytest.raises(error, match=message):
        f(*args)
