import pytest

from sasbp.core import Action, PartialState
from sasbp.gadgets import gen_or_tree
from sasbp.restrictions import (
    ARBITRARY,
    ClassificationRecord,
    IN_FPT,
    IN_P,
    KERNEL_CONSTANT,
    KERNEL_NA,
    KERNEL_NO_POLY,
    NP_COMPLETE,
    NP_HARD,
    PSPACE_COMPLETE,
    W1_COMPLETE,
    W2_COMPLETE,
    broken_variables,
    detect_profile,
    lookup_pe,
    lookup_pubs,
    split_effects,
)
from helpers import make_query


def test_profile_of_the_or_gadget():
    # the OR gadget is the canonical postunique unary Boolean instance that
    # is not single-valued
    profile = detect_profile(gen_or_tree((True, False)).query.instance)
    assert profile.flags() == frozenset("PUB")
    assert profile.max_preconditions == 2
    assert profile.max_effects == 1


def test_postunique_counts_writers_per_value():
    # two writers of the same (variable, value) pair break postuniqueness
    q = make_query(
        {"a": 2},
        [("s1", {}, {"a": "1"}), ("s2", {}, {"a": "1"})],
        {"a": "0"},
        {},
        0,
    )
    assert not detect_profile(q.instance).has_P
    # one writer per value is fine even on the same variable
    q2 = make_query(
        {"a": 2},
        [("up", {}, {"a": "1"}), ("down", {}, {"a": "0"})],
        {"a": "0"},
        {},
        0,
    )
    assert detect_profile(q2.instance).has_P


def test_unary_requires_exactly_one_effect():
    q = make_query({"a": 2}, [("noop", {}, {})], {"a": "0"}, {}, 0)
    assert not detect_profile(q.instance).has_U
    q2 = make_query(
        {"a": 2, "b": 2},
        [("two", {}, {"a": "1", "b": "1"})],
        {"a": "0", "b": "0"},
        {},
        0,
    )
    assert not detect_profile(q2.instance).has_U


def test_boolean_and_single_valued():
    q = make_query({"a": 3}, [], {"a": "0"}, {}, 0)
    assert not detect_profile(q.instance).has_B
    # prevail values: preconditions on variables the action does not touch
    q2 = make_query(
        {"a": 2, "b": 2},
        [("p0", {"a": "0"}, {"b": "1"}), ("p1", {"a": "1"}, {"b": "0"})],
        {"a": "0", "b": "0"},
        {},
        0,
    )
    profile = detect_profile(q2.instance)
    assert profile.has_B and not profile.has_S
    q3 = make_query(
        {"a": 2, "b": 2},
        [("p0", {"a": "0"}, {"b": "1"}), ("p0b", {"a": "0"}, {"b": "0"})],
        {"a": "0", "b": "0"},
        {},
        0,
    )
    assert detect_profile(q3.instance).has_S


def test_precondition_on_changed_variable_is_not_a_prevail():
    q = make_query(
        {"a": 2, "b": 2},
        [("m0", {"b": "0"}, {"b": "1"}), ("m1", {"b": "1"}, {"b": "0"})],
        {"a": "0", "b": "0"},
        {},
        0,
    )
    assert detect_profile(q.instance).has_S


def test_split_effects():
    goal = PartialState({"a": "1", "b": "1"})  # c undefined in the goal
    table = [
        ({"a": "1", "b": "1"}, ["a", "b"], []),  # two-effect good
        ({"b": "1", "a": "1"}, ["b", "a"], []),  # effect order, not declaration order
        ({"a": "1", "c": "0"}, ["a", "c"], []),  # goal-undefined is good
        ({"c": "1"}, ["c"], []),
        ({"a": "1", "b": "0"}, ["a"], ["b"]),  # mixed
        ({"b": "0", "a": "1"}, ["a"], ["b"]),
        ({"b": "0"}, [], ["b"]),  # bad
        ({"b": "0", "a": "0"}, [], ["b", "a"]),
        ({}, [], []),  # effect-free
    ]
    for eff, good, bad in table:
        action = Action("act", PartialState(), PartialState(eff))
        assert split_effects(action, goal) == (good, bad), eff


def test_broken_variables_follow_declaration_order():
    q = make_query(
        {"c": 2, "a": 2, "b": 2},
        [],
        {"c": "0", "a": "0", "b": "1"},
        {"a": "1", "b": "1", "c": "1"},
        0,
    )
    assert broken_variables(q.instance) == ("c", "a")


R = ClassificationRecord


def test_pe_table_golden_entries():
    assert lookup_pe(0, 1) == R(IN_P, IN_FPT, KERNEL_CONSTANT)
    assert lookup_pe(0, 2) == R(NP_COMPLETE, IN_FPT, KERNEL_NO_POLY)
    assert lookup_pe(0, 3) == R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pe(0, ARBITRARY) == R(NP_COMPLETE, W2_COMPLETE, KERNEL_NA)
    assert lookup_pe(1, 1) == R(NP_HARD, W1_COMPLETE, KERNEL_NA)
    assert lookup_pe(1, ARBITRARY) == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)
    assert lookup_pe(2, 1) == R(NP_HARD, W1_COMPLETE, KERNEL_NA)
    assert lookup_pe(2, 2) == R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pe(ARBITRARY, 1) == R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pe(ARBITRARY, ARBITRARY) == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)


def test_pe_table_buckets_do_not_depend_on_exact_numbers():
    assert lookup_pe(5, 7) == lookup_pe(2, 3)
    assert lookup_pe(0, 9) == lookup_pe(0, 3)


def test_pe_table_rejects_zero_effects():
    with pytest.raises(ValueError, match="outside classified range"):
        lookup_pe(0, 0)
    with pytest.raises(ValueError):
        lookup_pe(-1, 1)
    with pytest.raises(ValueError, match="e must be non-negative"):
        lookup_pe(1, -1)


def test_pubs_table_golden_entries():
    assert lookup_pubs("PUBS") == R(IN_P, IN_FPT, KERNEL_CONSTANT)
    assert lookup_pubs("PUS") == R(IN_P, IN_FPT, KERNEL_CONSTANT)
    assert lookup_pubs("PUB") == R(NP_HARD, IN_FPT, KERNEL_NO_POLY)
    assert lookup_pubs("PBS") == R(NP_HARD, IN_FPT, KERNEL_NO_POLY)
    assert lookup_pubs("P") == R(NP_HARD, IN_FPT, KERNEL_NO_POLY)
    assert lookup_pubs("US") == R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pubs("UBS") == R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pubs("U") == R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pubs("UB") == R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)
    assert lookup_pubs("") == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)
    assert lookup_pubs("B") == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)
    assert lookup_pubs("BS") == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)
    assert lookup_pubs("S") == R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)


def test_pubs_table_covers_all_sixteen_subsets():
    import itertools

    for n in range(5):
        for combo in itertools.combinations("PUBS", n):
            record = lookup_pubs(frozenset(combo))
            assert record.classical and record.parameterized and record.poly_kernel


def test_pubs_rejects_unknown_flags():
    with pytest.raises(ValueError, match="unknown restriction flags"):
        lookup_pubs("PX")
