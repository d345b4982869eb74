"""Totality of the public entry points on any input.

Each call on a negative, zero, huge (> 10^30) or non-int argument either
returns a value in its documented range or raises its documented error:
TypeError for a non-int, ValueError (NotAPairError included) for a number
outside the domain, BudgetExceeded for a run over its budget.  Naive and
memoized evaluation agree wherever both return.
"""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from funalg import codec
from funalg.clausal import eval_clausal
from funalg.cli import main
from funalg.codec import FinSet, seq_decode
from funalg.corpus import corpus_defs
from funalg.derivation import CLASSES, derivation_at
from funalg.evaluator import (Budget, BudgetExceeded, eval_memo, eval_naive,
                              evaluate)
from funalg.harness import (PREDICATES, CharMode, ScalingReport, char_run,
                            scaling_study)

SMALL = st.integers(0, 64)
HUGE = st.integers(10**30, 10**40)
NATURALS = SMALL | HUGE
NON_INTS = st.floats() | st.text(max_size=3) | st.none()
ANY = NATURALS | st.integers(max_value=-1) | NON_INTS

BUDGET = Budget(3000, 256)


def _expected(args, least=0):
    """The error of the first argument that is no natural number, else
    ValueError if some argument is below least, else None."""
    for a in args:
        if not isinstance(a, int):
            return TypeError
        if a < 0:
            return ValueError
    return ValueError if args and min(args) < least else None


def _outcome(f, *args, **kwargs):
    try:
        return "ok", f(*args, **kwargs)
    except BudgetExceeded:
        return "budget", None
    except (TypeError, ValueError) as e:
        return type(e), e


def _check(err, out, ok=lambda v: True, loose=False):
    """out is the error err, or, if err is None, a value that ok accepts
    or a budget overrun.  loose: a non-int may also fail a comparison
    against 0 (ValueError)."""
    kind, v = out
    if err is None:
        assert kind == "budget" or (kind == "ok" and ok(v)), out
    elif loose and err is TypeError:
        assert kind != "ok" and issubclass(kind, (TypeError, ValueError)), out
    else:
        assert kind != "ok" and issubclass(kind, err), out


def _check_arg(x, out, ok):
    """_check for the one argument x; an error names x or its type."""
    err = _expected([x])
    _check(err, out, ok)
    if err is not None:
        assert (str(x) if err is ValueError else type(x).__name__) \
            in str(out[1]), out


def _bits(t):
    return seq_decode(t) if t else None


# function: (least argument, loose, check of the value on naturals)
INT_FUNCTIONS = {
    codec.pair: (0, False, lambda v, x, y: codec.unpair(v) == (x, y)),
    codec.unpair: (1, True, lambda v, z: codec.pair(*v) == z),
    codec.head: (0, True, lambda v, z: v == (codec.unpair(z)[0] if z else 0)),
    codec.tail: (0, True, lambda v, z: v == (codec.unpair(z)[1] if z else 0)),
    codec.list_decode: (0, False, lambda v, z: codec.list_encode(v) == z),
    codec.list_len: (0, False, lambda v, z: v == len(codec.list_decode(z))),
    codec.list_concat: (0, False, lambda v, x, y: codec.list_decode(v)
                        == codec.list_decode(x) + codec.list_decode(y)),
    codec.seq_decode: (1, False, lambda v, t: codec.seq_encode(v) == t),
    codec.seq_len: (0, False, lambda v, t: v == len(_bits(t) or ())),
}


@pytest.mark.parametrize("f", INT_FUNCTIONS, ids=lambda f: f.__name__)
@given(data=st.data())
@settings(max_examples=150)
def test_int_codec_functions_are_total(f, data):
    least, loose, ok = INT_FUNCTIONS[f]
    args = [data.draw(ANY) for _ in range(f.__code__.co_argcount)]
    _check(_expected(args, least), _outcome(f, *args),
           lambda v: ok(v, *args), loose)


@given(st.lists(ANY, max_size=5))
def test_tuple_and_list_encodings_are_total(xs):
    # both check the last component first
    err = _expected(xs[::-1]) if xs else ValueError
    _check(err, _outcome(codec.tuple_encode, xs),
           lambda v: _untuple(v, len(xs)) == xs)
    _check(_expected(xs[::-1]), _outcome(codec.list_encode, xs),
           lambda v: codec.list_decode(v) == xs)


def _untuple(v, n):
    out = []
    for _ in range(n - 1):
        a, v = codec.unpair(v)
        out.append(a)
    return out + [v]


@given(st.lists(st.sampled_from([0, 1]) | ANY, max_size=8))
def test_seq_encode_is_total(bits):
    bad = [b for b in bits if b not in (0, 1) or type(b) is not int]
    err = _expected(bad[:1]) or ValueError if bad else None
    _check(err, _outcome(codec.seq_encode, bits),
           lambda v: codec.seq_decode(v) == bits)


@given(st.lists(SMALL | ANY, max_size=6))
def test_finite_sets_hold_naturals_only(xs):
    err = _expected(xs)
    if err is None and any(a >= b for a, b in zip(xs, xs[1:])):
        err = ValueError
    _check(err, _outcome(FinSet, tuple(xs)), lambda s: s.elements == tuple(xs))
    _check(_expected(xs), _outcome(FinSet.of, *xs),
           lambda s: s.elements == tuple(sorted(set(xs))))


@given(st.lists(SMALL, max_size=6).map(lambda xs: FinSet.of(*xs)), ANY)
def test_sets_answer_membership_for_any_element(s, x):
    kind, v = _outcome(s.__contains__, x)
    if isinstance(x, int):  # a negative element is simply not in a set
        assert (kind, v) == ("ok", x in s.elements)
    else:
        assert kind is TypeError or v in (True, False)


@pytest.mark.parametrize("cls", CLASSES)
@given(st.integers(0, 10**6), ANY)
@settings(max_examples=150, deadline=None)
def test_evaluators_are_total_and_agree(cls, i, x):
    d = derivation_at(i, cls)
    outs = [_outcome(ev, d, x, budget=BUDGET)
            for ev in (evaluate, eval_naive, eval_memo)]
    for out in outs:
        _check_arg(x, out, lambda v: v >= 0)
    values = {v for kind, v in outs if kind == "ok"}
    assert len(values) <= 1, outs


DEFS = corpus_defs()


@given(st.sampled_from([d.name for d in DEFS]), ANY)
@settings(deadline=None)
def test_eval_clausal_is_total(name, x):
    _check_arg(x, _outcome(eval_clausal, DEFS, name, x, budget=BUDGET),
               lambda v: v >= 0)


_PREDICATES = {name: make() for name, make in PREDICATES.items()}


@given(st.sampled_from(sorted(_PREDICATES)), ANY,
       st.lists(SMALL, max_size=5).map(lambda xs: FinSet.of(*xs)) | ANY)
@settings(deadline=None)
def test_char_run_is_total(name, x, inp):
    d = _PREDICATES[name]
    _check_arg(x, _outcome(char_run, d, CharMode.ZERO, x, BUDGET), _decided)
    _check(None if isinstance(inp, FinSet) else TypeError,
           _outcome(char_run, d, CharMode.ONE, inp, BUDGET), _decided)


def _decided(run):
    return run[0] in (True, False)


@given(st.sampled_from(sorted(_PREDICATES)), st.sampled_from(CharMode),
       st.lists(ANY, max_size=3))
@settings(max_examples=60, deadline=None)
def test_scaling_study_is_total(name, mode, sizes):
    bad = [s for s in sizes if _expected([s])]
    out = _outcome(scaling_study, _PREDICATES[name], mode, sizes, 1, 0,
                   BUDGET)
    # the first size outside N decides the error; a budget overrun
    # truncates the report instead of raising
    _check_arg(bad[0] if bad else 0, out, lambda rep: isinstance(
        rep, ScalingReport) and (len(rep.rows) == len(sizes) or rep.truncated)
        and all(s in sizes and steps > 0 for s, steps, _ in rep.rows))


@given(st.integers(max_value=-1) | NATURALS)
@settings(max_examples=40)
def test_cli_eval_is_total(x):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["eval", "--d", "(comp S S)", f"--arg={x}"])
    assert code == (0 if x >= 0 else 1)
    assert out.getvalue().startswith(f"{x + 2}\t" if x >= 0 else "")


@pytest.mark.parametrize("arg", ["1.5", "abc", "", "None"])
def test_cli_eval_rejects_a_non_int_argument_as_usage(arg, capsys):
    with pytest.raises(SystemExit) as e:
        main(["eval", "--d", "S", f"--arg={arg}"])
    assert e.value.code == 2
    assert "--arg" in capsys.readouterr().err


def test_cli_eval_names_a_negative_argument(capsys):
    assert main(["eval", "--d", "S", "--arg=-5"]) == 1
    assert "natural number, got -5" in capsys.readouterr().err
