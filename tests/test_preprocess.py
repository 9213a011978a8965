import random

import pytest

from sasbp.core import BoundedQuery, validate_plan
from sasbp.oracle import decide_bfs
from sasbp.preprocess import _split_mixed, chain_bound, lemma1_transform, lift_plan
from sasbp.restrictions import GOOD, classify_effects, detect_profile
from helpers import make_query, random_02_query


def two_effect_query(k=2):
    return make_query(
        {"a": 2, "b": 2, "c": 2},
        [
            ("ab", {}, {"a": "1", "b": "1"}),     # both effects goal-valued
            ("cfix", {}, {"c": "1"}),             # single goal-valued effect
            ("swap", {}, {"a": "1", "c": "0"}),   # one goal-valued, one not
            ("wreck", {}, {"c": "0"}),            # nothing goal-valued
            ("noop", {}, {}),
        ],
        {"a": "0", "b": "0", "c": "0"},
        {"a": "1", "b": "1", "c": "1"},
        k,
    )


def test_chain_bound_values():
    assert [chain_bound(k) for k in range(5)] == [1, 5, 11, 19, 29]


def test_transform_shape():
    k = 2
    out = lemma1_transform(two_effect_query(k))
    # three chained actions (bad and effect-free ones are dropped), each
    # contributing k + 3 pieces, plus the flag reset
    assert out.k_prime == chain_bound(k) == 11
    assert len(out.instance.actions) == 3 * (k + 3) + 1
    assert set(out.dropped_actions) == {"wreck", "noop"}
    assert sorted(out.chain_vars) == ["ab", "cfix", "swap"]
    assert all(len(chain) == k + 2 for chain in out.chain_vars.values())
    # every piece maps back to its source and index
    for name, (source, index) in out.provenance.items():
        assert source in ("ab", "cfix", "swap")
        assert 1 <= index <= k + 3
        assert name in out.instance.action_by_name


def test_transform_output_profile():
    out = lemma1_transform(two_effect_query())
    profile = detect_profile(out.instance)
    assert profile.max_preconditions == 0
    assert profile.max_effects == 2
    classes = classify_effects(out.instance)
    for action in out.instance.actions:
        assert not (classes.per_action[action.name] == GOOD and len(action.eff) == 2)


def test_transform_rejects_unsupported_inputs():
    with_pre = make_query(
        {"a": 2}, [("p", {"a": "0"}, {"a": "1"})], {"a": "0"}, {"a": "1"}, 1
    )
    with pytest.raises(ValueError, match="precondition"):
        lemma1_transform(with_pre)
    wide = make_query(
        {"a": 2, "b": 2, "c": 2},
        [("w", {}, {"a": "1", "b": "1", "c": "1"})],
        {"a": "0", "b": "0", "c": "0"},
        {},
        1,
    )
    with pytest.raises(ValueError, match="two effects"):
        lemma1_transform(wide)
    reserved = make_query(
        {"__g": 2}, [], {"__g": "0"}, {}, 1
    )
    with pytest.raises(ValueError, match="reserved"):
        lemma1_transform(reserved)


def test_lift_plan_validity_and_length():
    k = 2
    query = two_effect_query(k)
    out = lemma1_transform(query)
    source_plan = ["ab", "noop", "cfix", "wreck"]  # dropped names are skipped
    lifted = lift_plan(out, source_plan)
    assert len(lifted) == 2 * (k + 3) + 1
    assert lifted[-1] == out.g_reset_action
    report = validate_plan(out.instance, lifted)
    assert report.valid
    with pytest.raises(ValueError, match="no chain"):
        lift_plan(out, ["ghost"])


def test_split_mixed_needs_one_good_and_one_bad_effect():
    inst = two_effect_query().instance
    per_effect = classify_effects(inst).per_effect
    swap = inst.action_by_name["swap"]
    assert _split_mixed(swap, per_effect) == (("a", "1"), ("c", "0"))
    with pytest.raises(ValueError, match="one good and one bad"):
        _split_mixed(inst.action_by_name["ab"], per_effect)


def test_decision_preserved_on_random_queries():
    rng = random.Random(7011)
    yes = no = 0
    for _ in range(30):
        query = random_02_query(rng, max_vars=3, max_actions=4, max_k=1)
        out = lemma1_transform(query)
        before = decide_bfs(query).decision
        after = decide_bfs(BoundedQuery(out.instance, out.k_prime)).decision
        assert before == after
        yes += before
        no += not before
    assert yes and no


def test_goal_side_transform_has_fresh_goals_closed():
    out = lemma1_transform(two_effect_query())
    inst = out.instance
    assert inst.goal[out.g_var] == "0"
    for chain in out.chain_vars.values():
        for name in chain:
            assert inst.init[name] == "0"
            assert inst.goal[name] == "0"
