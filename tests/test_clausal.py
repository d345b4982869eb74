"""Clausal Language parsing, refinement checking, and interpretation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import funalg
from funalg.clausal import (CLSyntaxError, Clause, ClausalDef,
                            ClausalEvalError, MeasureViolation,
                            RefinementError, RestrictionError, Succ, TPair,
                            Var, Zero, check_recursive_restrictions,
                            check_refinement, complete_to_strict,
                            eval_clausal, parse_cl, print_cl)
from funalg.codec import list_encode, pair
from funalg.corpus import CORPUS_TEXT, corpus_def, corpus_defs


def test_parse_basic():
    defs = parse_cl("def f { f(x) = S(x); }")
    assert len(defs) == 1
    assert defs[0].name == "f"
    assert defs[0].kind == "explicit"


def test_kind_is_read_off_the_clauses():
    recursive = {"L", "last", "sumlist", "cat", "nested", "addp", "prdemo"}
    for d in corpus_defs():
        assert d.kind == ("recursive" if d.name in recursive else "explicit")
        assert ClausalDef(d.name, d.clauses).kind == d.kind
        assert complete_to_strict(d).kind == d.kind
    with pytest.raises(TypeError):  # a kind cannot be stated apart
        ClausalDef("L", corpus_def("L").clauses, "explicit")
    with pytest.raises(RestrictionError, match="double is not recursive"):
        check_recursive_restrictions(corpus_def("double"))


def test_parse_rejects_undeclared_function():
    with pytest.raises(CLSyntaxError):
        parse_cl("def f { f(x) = g(x); }")


def test_undeclared_function_is_reported_at_the_definition_name():
    with pytest.raises(CLSyntaxError,
                       match=r"^3:6: undeclared function 'g'$") as e:
        parse_cl("def id { id(x) = x; }\n\ndef  f {\n  f(x) = g(id(x));\n}")
    assert (e.value.line, e.value.col) == (3, 6)


def test_parse_rejects_a_second_definition_of_one_name():
    # otherwise eval_clausal would run the last f and `compile --fn f`
    # the first
    with pytest.raises(CLSyntaxError,
                       match=r"^2:5: duplicate definition 'f'$"):
        parse_cl("def f { f(x) = x; }\ndef f { f(x) = 0; }")
    with pytest.raises(CLSyntaxError, match="duplicate definition 'g'"):
        parse_cl("def g { g(x) = x; } def h { h(x) = g(x); } "
                 "def g { g(x) = h(x); }")


def test_parse_rejects_nonzero_numerals():
    with pytest.raises(CLSyntaxError):
        parse_cl("def f { f(x) = 1; }")


def test_parse_error_position():
    try:
        parse_cl("def f {\n  f(x) = ;\n}")
    except CLSyntaxError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a syntax error")


def test_comments_ignored():
    defs = parse_cl("# leading\ndef f { f(x) = x; # trailing\n}")
    assert defs[0].name == "f"


def test_printer_roundtrip_corpus():
    defs = corpus_defs()
    text = "\n".join(print_cl(d) for d in defs)
    again = parse_cl(text)
    assert [print_cl(d) for d in again] == [print_cl(d) for d in defs]


def test_refinement_trace_mentions_splits():
    trace = check_refinement(corpus_def("L"))
    assert any("split" in line for line in trace)


def test_refinement_rejects_overlapping_clauses():
    with pytest.raises(RefinementError):
        check_refinement(parse_cl("""
def f {
  f(x) = 0;
  f(x) = S(0);
}
""")[0])


def test_refinement_rejects_one_sided_split():
    # all clauses assume x = 0; non-exhaustive
    with pytest.raises(RefinementError):
        check_refinement(parse_cl("""
def f {
  x = 0 -> f(x) = 0;
}
""")[0])


def test_complete_to_strict_adds_defaults():
    d = parse_cl("""
def f {
  x = 0 -> f(x) = S(0);
}
""")[0]
    s = complete_to_strict(d)
    assert len(s.clauses) == 2
    # default side answers 0
    assert eval_clausal([d], "f", 0) == 1
    assert eval_clausal([d], "f", 5) == 0


def test_complete_to_strict_idempotent():
    for d in corpus_defs():
        s = complete_to_strict(d)
        assert print_cl(complete_to_strict(s)) == print_cl(s)


def test_strict_pr_shape():
    s = complete_to_strict(corpus_def("prdemo"))
    assert len(s.clauses) == 3


def test_bpr_style_relational_split():
    d = parse_cl("""
def clamp {
  clamp(0) = 0;
  v < p -> clamp((v, p)) = S(v);
  ! v < p -> clamp((v, p)) = 0;
}
""")[0]
    check_refinement(d)
    assert eval_clausal([d], "clamp", pair(3, 5)) == 4
    assert eval_clausal([d], "clamp", pair(5, 5)) == 0


def test_eval_explicit_defs():
    defs = corpus_defs()
    assert eval_clausal(defs, "double", 7) == 14
    assert eval_clausal(defs, "square", 9) == 81
    assert eval_clausal(defs, "pairup", 3) == pair(3, 3)
    assert eval_clausal(defs, "iszero", 0) == 1
    assert eval_clausal(defs, "iszero", 4) == 0
    assert eval_clausal(defs, "pred", 0) == 0
    assert eval_clausal(defs, "pred", 9) == 8
    assert eval_clausal(defs, "swap", pair(2, 6)) == pair(6, 2)
    assert eval_clausal(defs, "max2", pair(2, 6)) == 6
    assert eval_clausal(defs, "stepped", pair(4, 5)) == pair(4, 7)


def test_eval_recursive_defs():
    defs = corpus_defs()
    for lst in ([], [1], [4, 4], [1, 2, 3]):
        x = list_encode(lst)
        assert eval_clausal(defs, "L", x) == len(lst)
        assert eval_clausal(defs, "sumlist", x) == sum(lst)
        if lst:
            assert eval_clausal(defs, "last", x) == lst[-1]
    a, b = [1, 2], [3, 4, 5]
    assert (eval_clausal(defs, "cat", pair(list_encode(a), list_encode(b)))
            == list_encode(a + b))
    for x in range(10):
        assert eval_clausal(defs, "nested", x) == 0
    assert eval_clausal(defs, "addp", pair(5, 8)) == 13


def test_eval_oracle_def():
    defs = corpus_defs()
    assert eval_clausal(defs, "inX", 4, oracle=frozenset({4})) == 1
    assert eval_clausal(defs, "inX", 4, oracle=frozenset({5})) == 0


def test_eval_undefined_function():
    with pytest.raises(ClausalEvalError):
        eval_clausal(corpus_defs(), "nosuch", 0)


def test_eval_undefined_callee():
    # prdemo calls id, which is not among the definitions given
    with pytest.raises(ClausalEvalError, match="undefined function 'id'"):
        eval_clausal([corpus_def("prdemo")], "prdemo", pair(0, 3))
    assert eval_clausal([corpus_def("prdemo")], "prdemo", 0) == 0


def test_measure_violation_detected():
    # self-call on an argument that does not decrease
    d = parse_cl("""
def f {
  f(0) = 0;
  f(S(w)) = f(S(w));
}
""")[0]
    with pytest.raises(MeasureViolation):
        eval_clausal([d], "f", 3)


def test_restrictions_report():
    rep = check_recursive_restrictions(corpus_def("L"))
    assert rep.ok
    rep2 = check_recursive_restrictions(corpus_def("nested"))
    assert rep2.ok
    rep3 = check_recursive_restrictions(corpus_def("prdemo"))
    assert rep3.ok and rep3.parameterized


def test_restrictions_reject_bad_parameter_shipping():
    # helper called with a modified parameter component
    d = parse_cl("""
def g { g(x) = x; }
def f {
  f(0) = 0;
  v = 0 -> f((v, p)) = g(S(p));
  v = S(w) -> f((v, p)) = S(f((w, p)));
}
""")[1]
    with pytest.raises(RestrictionError):
        check_recursive_restrictions(d)


@pytest.mark.parametrize("body,message", [
    ("x = 0 -> f(x) = g(x); x = S(u) -> f(x) = g(f(u));",
     "clause of f calls functions but its argument is not split as (v, p)"),
    ("f(0) = 0; v = 0 -> f((v, p)) = g((v, S(p)));"
     " v = S(w) -> f((v, p)) = f((w, p));",
     "call g((v, S(p))) does not ship the parameter 'p' unchanged"),
])
def test_restriction_message_names_each_call_by_its_argument(body, message):
    d = parse_cl(f"def g {{ g(x) = x; }} def f {{ {body} }}")[1]
    with pytest.raises(RestrictionError) as e:
        check_recursive_restrictions(d)
    assert str(e.value) == message


def test_a_dynamic_measure_note_is_no_restriction_failure():
    d = parse_cl("def g { g(x) = x; } def f { f(0) = 0;"
                 " v = 0 -> f((v, p)) = g((v, p));"
                 " v = S(w) -> f((v, p)) = f((w, p)); }")[1]
    rep = check_recursive_restrictions(d)
    assert rep.parameterized and rep.dynamic_measure
    assert rep.notes == (
        "recursive call f((w, p)) needs a dynamic measure check",)


_A, _B = Var("a"), Var("b")


@pytest.mark.parametrize("text,pattern", [
    ("(a, a)", TPair(_A, _A)),
    ("((a, b), S(a))", TPair(TPair(_A, _B), Succ(_A))),
    ("(S(a), (0, S(S(a))))", TPair(Succ(_A), TPair(Zero(), Succ(Succ(_A))))),
])
def test_a_repeated_pattern_variable_is_rejected(text, pattern):
    with pytest.raises(RefinementError, match="repeated pattern variable 'a'"):
        parse_cl(f"def f {{ f(0) = 0; f({text}) = a; }}")
    # the same definition built without the parser; a tail binding that
    # overwrote the head's once gave f(<1, 2>) = 2
    d = ClausalDef("f", (Clause(Zero(), (), Zero()), Clause(pattern, (), _A)))
    for run in (check_refinement, complete_to_strict, funalg.compile_explicit,
                lambda d: eval_clausal([d], "f", pair(1, 2))):
        with pytest.raises(RefinementError, match="variable 'a'"):
            run(d)


def test_binder_complement_split():
    # successor/zero split with differing binder names is canonicalized
    d = parse_cl("""
def f {
  x = 0 -> f(x) = 0;
  x = S(u) -> f(x) = u;
}
""")[0]
    s = complete_to_strict(d)
    assert len(s.clauses) == 2
    assert eval_clausal([d], "f", 9) == 8


_UNBOUND_PROBE = """
from funalg.clausal import RefinementError, check_refinement, parse_cl
for text in ("def f { x = 0 -> f(x) = 0; y = S(z) -> f(x) = 0; }",
             "def f { x = 0 -> f(x) = 0; q + p < x -> f(x) = 0; }",
             "def f { x = 0 -> f(x) = 0; x = S(w) -> f(x) = (b, (a, w)); }"):
    try:
        check_refinement(parse_cl(text)[0])
    except RefinementError as e:
        print(e)
"""


def test_unbound_variable_message_is_independent_of_hash_seed():
    # the first unbound variable in the literal's or the term's own order
    src = str(Path(funalg.__file__).resolve().parents[1])
    outs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        outs.add(subprocess.run(
            [sys.executable, "-c", _UNBOUND_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=60).stdout)
    assert outs == {"unbound variable 'y' in literal y = S(z)\n"
                    "unbound variable 'q' in literal q + p < x\n"
                    "unbound variable 'b' in result\n"}
