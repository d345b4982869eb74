"""Characterization-mode runs and scaling reports."""

import pytest

from funalg.codec import FinSet
from funalg.derivation import I
from funalg.evaluator import Budget
from funalg.harness import (CharMode, PredicateError, ScalingReport,
                            char_run, constant_predicate,
                            doubling_clamp_predicate,
                            exhaustive_search_predicate,
                            membership_predicate, parity_predicate,
                            scaling_study, snr_zero_predicate)


def test_parity_predicate_examples():
    p = parity_predicate()
    assert char_run(p, CharMode.ZERO, 6)[0] is True
    assert char_run(p, CharMode.ZERO, 7)[0] is False
    for x in range(64):
        assert char_run(p, CharMode.ZERO, x)[0] == (x % 2 == 0)


def test_membership_predicate():
    mem = membership_predicate()
    assert char_run(mem, CharMode.ONE, FinSet((0, 2)))[0] is True
    assert char_run(mem, CharMode.ONE, FinSet(()))[0] is False


def test_one_mode_empty_input_default():
    for mk in (membership_predicate, snr_zero_predicate):
        assert char_run(mk(), CharMode.ONE, FinSet(()))[0] is False


def test_mode_input_types_enforced():
    p = parity_predicate()
    with pytest.raises(TypeError):
        char_run(p, CharMode.ONE, 5)
    with pytest.raises(TypeError):
        char_run(p, CharMode.ZERO, FinSet((1,)))


def test_non_boolean_predicate_rejected():
    from funalg.derivation import S, comp
    with pytest.raises(PredicateError):
        char_run(comp(S, S), CharMode.ZERO, 5)


def test_mode_consistency_spot_checks():
    # One-mode runs agree with Zero-mode runs of a derivation that
    # hard-codes the same answer arithmetic on x = ||X||
    mem = membership_predicate()
    from funalg.compiler import Z_, lt_d
    nonzero = lt_d(Z_, I)  # 1 iff x > 0
    for els in ((), (0,), (0, 1, 4)):
        X = FinSet(els)
        got_one = char_run(mem, CharMode.ONE, X)[0]
        got_zero = char_run(nonzero, CharMode.ZERO, X.size())[0]
        assert got_one == got_zero


def test_scaling_study_deterministic():
    mem = membership_predicate()
    a = scaling_study(mem, CharMode.ONE, [8, 16, 32], 3, seed=5)
    b = scaling_study(mem, CharMode.ONE, [8, 16, 32], 3, seed=5)
    assert a == b
    c = scaling_study(mem, CharMode.ONE, [8, 16, 32], 3, seed=6)
    assert a.rows != c.rows  # different draws


def test_scaling_rows_sorted_and_csv_format():
    rep = scaling_study(constant_predicate(), CharMode.ZERO,
                        [32, 8, 16], 2, seed=0)
    sizes = [s for s, _, _ in rep.rows]
    assert sizes == sorted(sizes)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "size,steps,peak_bits"
    assert lines[-1].startswith("# fitted_exponent=")
    assert len(lines) == 2 + len(rep.rows)


def test_constant_predicate_flat():
    rep = scaling_study(constant_predicate(), CharMode.ZERO,
                        [8, 16, 32, 64], 3, seed=1)
    assert abs(rep.fitted_exponent) <= 0.2


def test_membership_scaling_bounded():
    rep = scaling_study(membership_predicate(), CharMode.ONE,
                        [8, 16, 32, 64], 3, seed=1)
    assert not rep.truncated
    assert rep.fitted_exponent <= 2


def test_exponential_predicate_grows():
    es = exhaustive_search_predicate()
    lo = scaling_study(es, CharMode.ZERO, [4, 6, 8], 2, seed=2)
    hi = scaling_study(es, CharMode.ZERO, [8, 10, 12], 2, seed=2)
    assert hi.fitted_exponent > lo.fitted_exponent  # superpolynomial


def test_scaling_truncates_on_budget():
    es = exhaustive_search_predicate()
    rep = scaling_study(es, CharMode.ZERO, [4, 30], 1, seed=0,
                        budget=Budget(50_000, 10**6))
    assert rep.truncated


def test_one_mode_size_above_bit_budget_truncates_before_building():
    # a set of size 10^30 would take 10^30 bits and as many loop rounds
    mem = membership_predicate()
    rep = scaling_study(mem, CharMode.ONE, [8, 10**30], seed=4)
    assert rep.truncated
    assert rep.rows == scaling_study(mem, CharMode.ONE, [8], seed=4).rows
    assert {s for s, _, _ in rep.rows} == {8}
    small = scaling_study(mem, CharMode.ONE, [8, 300], 1,
                          budget=Budget(10**6, 256))
    assert small.truncated and [s for s, _, _ in small.rows] == [8]


def test_doubling_clamp_is_boolean():
    dc = doubling_clamp_predicate()
    got = [char_run(dc, CharMode.ZERO, x)[0] for x in range(6)]
    assert got == [False, True, True, False, False, False]


def test_scaling_study_propagates_errors():
    # only a budget overrun truncates; an uncalled predicate factory is a bug
    with pytest.raises(TypeError):
        scaling_study(membership_predicate, CharMode.ONE, [4])


@pytest.mark.parametrize("mode", list(CharMode))
@pytest.mark.parametrize("sizes,error,message", [
    ([4, -3], ValueError, "size must be a natural number, got -3"),
    ([2.5], TypeError, "expected an int size, got float"),
])
def test_scaling_study_rejects_bad_sizes(mode, sizes, error, message):
    with pytest.raises(error, match=message):
        scaling_study(constant_predicate(), mode, sizes)


@pytest.mark.parametrize("trials,error,message", [
    (-1, ValueError, "trials_per_size must be a natural number, got -1"),
    (1.5, TypeError, "expected an int trials_per_size, got float"),
])
def test_scaling_study_rejects_a_bad_trial_count(trials, error, message):
    for sizes in ([4], []):
        with pytest.raises(error, match=message):
            scaling_study(constant_predicate(), CharMode.ZERO, sizes, trials)
