import random

import pytest

from sasbp.core import BoundedQuery, validate_plan
from sasbp.oracle import decide_bfs
from sasbp.preprocess import G_RESET, G_VAR, chain_bound, lemma1_transform, lift_plan
from sasbp.restrictions import detect_profile, split_effects
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
    # L = k + 3 - m counters, where m is the chain's number of good effects
    good_effects = {"ab": 2, "cfix": 1, "swap": 1}
    assert all(len(chain) == k + 3 - good_effects[src] for src, chain in out.chain_vars.items())
    # every piece maps back to its source and index
    for name, (source, index) in out.provenance.items():
        assert source in ("ab", "cfix", "swap")
        assert 1 <= index <= k + 3
        assert name in out.instance.action_by_name


@pytest.mark.parametrize("k", range(4))
def test_every_chain_counter_is_written_by_its_chain(k):
    out = lemma1_transform(two_effect_query(k))
    written: dict[str, set[str]] = {}
    for action in out.instance.actions:
        if action.name in out.provenance:
            source, _ = out.provenance[action.name]
            written.setdefault(source, set()).update(action.eff)
    for source, chain in out.chain_vars.items():
        assert set(chain) <= written[source], (source, set(chain) - written[source])


def test_transform_output_profile():
    out = lemma1_transform(two_effect_query())
    profile = detect_profile(out.instance)
    assert profile.max_preconditions == 0
    assert profile.max_effects == 2
    for action in out.instance.actions:
        _, bad = split_effects(action, out.instance.goal)
        assert not (not bad and len(action.eff) == 2)


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
    assert lifted[-1] == G_RESET
    report = validate_plan(out.instance, lifted)
    assert report.valid
    with pytest.raises(ValueError, match="no chain"):
        lift_plan(out, ["ghost"])


def test_transform_golden_chains():
    # k = 2: every chain has k + 3 = 5 steps over the counters __v1..__v4.
    # ab (two good effects) raises the flag, ratchets to __v3 and ends in one
    # tail per effect; cfix (one good effect) raises the flag and ratchets to
    # __v4; the mixed swap starts from its bad effect c=0 instead of the flag.
    out = lemma1_transform(two_effect_query(2))
    assert [(a.name, list(a.eff.items())) for a in out.instance.actions] == [
        ("__a1__ab", [("__g", "1"), ("__v1__ab", "0")]),
        ("__a2__ab", [("__v1__ab", "1"), ("__v2__ab", "0")]),
        ("__a3__ab", [("__v2__ab", "1"), ("__v3__ab", "0")]),
        ("__a4__ab", [("__v3__ab", "1"), ("a", "1")]),
        ("__a5__ab", [("__v3__ab", "1"), ("b", "1")]),
        ("__a1__cfix", [("__g", "1"), ("__v1__cfix", "0")]),
        ("__a2__cfix", [("__v1__cfix", "1"), ("__v2__cfix", "0")]),
        ("__a3__cfix", [("__v2__cfix", "1"), ("__v3__cfix", "0")]),
        ("__a4__cfix", [("__v3__cfix", "1"), ("__v4__cfix", "0")]),
        ("__a5__cfix", [("__v4__cfix", "1"), ("c", "1")]),
        ("__a1__swap", [("c", "0"), ("__v1__swap", "0")]),
        ("__a2__swap", [("__v1__swap", "1"), ("__v2__swap", "0")]),
        ("__a3__swap", [("__v2__swap", "1"), ("__v3__swap", "0")]),
        ("__a4__swap", [("__v3__swap", "1"), ("__v4__swap", "0")]),
        ("__a5__swap", [("__v4__swap", "1"), ("a", "1")]),
        ("__ag", [("__g", "0")]),
    ]
    assert not any(a.pre for a in out.instance.actions)
    assert out.dropped_actions == ("wreck", "noop")


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
    assert inst.goal[G_VAR] == "0"
    for chain in out.chain_vars.values():
        for name in chain:
            assert inst.init[name] == "0"
            assert inst.goal[name] == "0"
