"""Command-line interface contracts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import funalg
from funalg.cli import main
from funalg.corpus import CORPUS_TEXT


@pytest.fixture
def corpus_file(tmp_path):
    p = tmp_path / "corpus.cl"
    p.write_text(CORPUS_TEXT, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_meter_line(capsys):
    code, out, err = run(capsys, "eval", "--d", "(comp S S)", "--arg", "5")
    assert code == 0
    assert out.startswith("7\t3\t")
    assert len(out.strip().split("\t")) == 5


def test_eval_with_oracle(capsys):
    code, out, _ = run(capsys, "eval", "--d", "X", "--arg", "4",
                       "--oracle", "4,1,4")
    assert code == 0 and out.split("\t")[0] == "1"


def test_eval_budget_override(capsys):
    code, out, err = run(capsys, "eval", "--d", "(mu (comp lt (P S I)))",
                         "--arg", "200", "--max-steps", "10")
    assert code == 1
    assert "error" in err.lower() or "budget" in err.lower()


def test_eval_bad_sexpr(capsys):
    code, _, err = run(capsys, "eval", "--d", "(comp S", "--arg", "0")
    assert code == 1 and err


def test_enum_first_is_oracle(capsys):
    code, out, _ = run(capsys, "enum", "--class", "DA", "--count", "1")
    assert code == 0 and out == "X\n"


def test_enum_negative_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["enum", "--class", "DA", "--count", "-1"])
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--count" in out.err


def test_enum_deterministic(capsys):
    a = run(capsys, "enum", "--class", "SA", "--count", "40")
    b = run(capsys, "enum", "--class", "SA", "--count", "40")
    assert a == b and a[0] == 0


def test_parse_fixpoint(capsys, corpus_file, tmp_path):
    code, out, _ = run(capsys, "parse", corpus_file)
    assert code == 0
    second = tmp_path / "canon.cl"
    second.write_text(out, encoding="utf-8")
    code2, out2, _ = run(capsys, "parse", str(second))
    assert code2 == 0 and out2 == out


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "no-such-file.cl")
    assert code == 1 and "cannot read" in err


def test_check_prints_traces(capsys, corpus_file):
    code, out, _ = run(capsys, "check", corpus_file)
    assert code == 0
    assert "def L: recursive" in out
    assert "split" in out


def test_check_rejects_bad_program(capsys, tmp_path):
    p = tmp_path / "bad.cl"
    p.write_text("def f { f(x) = 0; f(x) = S(0); }", encoding="utf-8")
    code, _, err = run(capsys, "check", str(p))
    assert code == 1 and err


def test_compile_explicit(capsys, corpus_file):
    code, out, _ = run(capsys, "compile", corpus_file, "--fn", "swap",
                       "--class", "DA")
    assert code == 0 and out.startswith("(")


def test_compile_recursive_refused(capsys, corpus_file):
    code, _, err = run(capsys, "compile", corpus_file, "--fn", "L")
    assert code == 1 and "reduce" in err


def test_reduce_pr(capsys, corpus_file):
    code, out, _ = run(capsys, "reduce", corpus_file, "--fn", "L",
                       "--to", "pr")
    assert code == 0
    assert "J: 1" in out
    assert "result: (" in out
    # one self-call per clause: the chain walk has no stack stepper
    assert "f1:" not in out and "iterations: depth n = " in out
    code, out, _ = run(capsys, "reduce", corpus_file, "--fn", "nested",
                       "--to", "pr")
    assert code == 0 and "J: 2" in out and "f1: def nested_f1 {" in out


def test_reduce_snr_with_bound(capsys, corpus_file):
    code, out, _ = run(capsys, "reduce", corpus_file, "--fn", "L",
                       "--to", "snr", "--bound", "n")
    assert code == 0 and "result: (" in out


@pytest.mark.parametrize("to", ["pr", "snr"])
def test_a_refused_reduce_result_prints_nothing(capsys, corpus_file,
                                                monkeypatch, to):
    # the result has more tree nodes than the lowered print limit
    monkeypatch.setattr("funalg.derivation._PRINT_NODES", 50)
    code, out, err = run(capsys, "reduce", corpus_file, "--fn", "L",
                         "--to", to)
    assert code == 1 and out == ""
    assert err.startswith("error: OutputTooLarge: derivation has ")
    assert err.endswith(" tree nodes, over 50\n")


def test_reduce_bad_bound(capsys, corpus_file):
    code, _, err = run(capsys, "reduce", corpus_file, "--fn", "L",
                       "--to", "snr", "--bound", "n - 1")
    assert code == 1 and err


def test_reduce_snr_of_a_definition_with_a_helper(capsys, corpus_file):
    code, out, err = run(capsys, "reduce", corpus_file, "--fn", "prdemo",
                         "--to", "snr", "--bound", "n")
    assert code == 1 and not out
    assert err == ("error: ReductionError: cannot check the bound of prdemo:"
                   " undefined function 'id'\n")


@pytest.mark.parametrize("bound", ["n * True", "False", "n + 1.5"])
def test_reduce_bound_takes_only_natural_numerals(capsys, corpus_file, bound):
    code, out, err = run(capsys, "reduce", corpus_file, "--fn", "L",
                         "--to", "snr", "--bound", bound)
    assert code == 1 and not out
    assert err == f"error: bound must be a polynomial in n: {bound!r}\n"


def test_reduce_bound_parses_a_long_sum():
    from funalg.cli import _parse_bound
    b = _parse_bound("+".join(["n"] * 1200))
    assert [b(n) for n in (0, 1, 7)] == [0, 1200, 8400]


def test_reduce_bound_nesting_too_deep_is_a_domain_error(capsys,
                                                         corpus_file):
    code, _, err = run(capsys, "reduce", corpus_file, "--fn", "L",
                       "--to", "snr", "--bound", "+".join(["n"] * 3000))
    assert code == 1
    assert "nests too deeply" in err and "RecursionError" not in err


def test_meter_csv(capsys):
    code, out, _ = run(capsys, "meter", "--d", "(comp lt (P I S))", "--mode",
                       "zero", "--sizes", "4,8,16", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,steps,peak_bits"
    assert len(lines) == 11  # three trials per size
    assert lines[-1].startswith("# fitted_exponent=")


def test_meter_deterministic(capsys):
    a = run(capsys, "meter", "--d", "(comp lt (P I S))", "--mode", "zero",
            "--sizes", "4,8", "--seed", "3")
    b = run(capsys, "meter", "--d", "(comp lt (P I S))", "--mode", "zero",
            "--sizes", "4,8", "--seed", "3")
    assert a == b and a[0] == 0


def test_meter_non_predicate_is_an_error(capsys):
    code, out, err = run(capsys, "meter", "--d", "(comp S S)", "--mode",
                         "zero", "--sizes", "4")
    assert code == 1 and out == ""
    assert "PredicateError" in err


def test_meter_negative_trial_count_is_an_error(capsys):
    code, out, err = run(capsys, "meter", "--d", "(comp lt (P I S))",
                         "--mode", "zero", "--sizes", "4", "--trials", "-1")
    assert code == 1 and out == ""
    assert err == ("error: ValueError: trials_per_size must be a natural "
                   "number, got -1\n")


def test_eval_negative_argument(capsys):
    code, out, err = run(capsys, "eval", "--d", "S", "--arg", "-1")
    assert code == 1 and out == ""
    assert "ValueError" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


# Runs a command as the funalg script would, then prints its output and
# whether the compiled tier's module was loaded.
_ONE_SHOT = """
import sys
from funalg.cli import main
main(sys.argv[1:])
print("funalg.specialize" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["eval", "--d", "(comp S (P I (comp mul (P I I))))", "--arg", "7"],
    ["eval", "--d", "(comp S (P I (comp mul (P I I))))", "--arg", "7",
     "--memo"],
    ["meter", "--d", "(comp lt (P I S))", "--mode", "zero", "--sizes", "8",
     "--trials", "1"],
], ids=["eval", "eval-memo", "meter"])
def test_a_one_shot_command_never_loads_the_compiler(argv):
    # each command runs its root once, which a compile could not repay
    src = str(Path(funalg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _ONE_SHOT, *argv],
        env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True, timeout=60).stdout
    assert out.endswith("\nFalse\n") and out.count("\n") >= 2
