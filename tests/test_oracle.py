import itertools
import random
import re

import pytest

from sasbp.core import validate_plan
from sasbp.gadgets import (
    MulticoloredGraph,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_pub,
)
from sasbp.oracle import ResourceLimitError, _moves_after, _packed, decide_bfs
from helpers import enumerate_plans, make_query, random_02_query, same_as_tuple_bfs, tuple_bfs


def test_yes_when_goal_holds_initially():
    q = make_query({"a": 2}, [], {"a": "0"}, {"a": "0"}, 0)
    result = decide_bfs(q)
    assert result.decision
    assert result.witness == ()
    assert result.shortest_length == 0
    assert result.explored_states == 1


def test_single_flip():
    q = make_query({"a": 2}, [("set", {}, {"a": "1"})], {"a": "0"}, {"a": "1"}, 1)
    result = decide_bfs(q)
    assert result.decision and result.witness == ("set",)
    assert not decide_bfs(make_query(
        {"a": 2}, [("set", {}, {"a": "1"})], {"a": "0"}, {"a": "1"}, 0
    )).decision


def test_bound_cuts_off_deep_plans():
    actions = [
        ("s1", {}, {"a": "1"}),
        ("s2", {"a": "1"}, {"b": "1"}),
        ("s3", {"b": "1"}, {"c": "1"}),
    ]
    domains = {"a": 2, "b": 2, "c": 2}
    init = {"a": "0", "b": "0", "c": "0"}
    assert decide_bfs(make_query(domains, actions, init, {"c": "1"}, 3)).decision
    assert not decide_bfs(make_query(domains, actions, init, {"c": "1"}, 2)).decision


def test_witness_prefers_earlier_declared_actions():
    # both actions solve the goal in one step; the earlier declaration wins
    q = make_query(
        {"a": 2, "b": 2},
        [("left", {}, {"a": "1"}), ("right", {}, {"a": "1", "b": "1"})],
        {"a": "0", "b": "0"},
        {"a": "1"},
        1,
    )
    assert decide_bfs(q).witness == ("left",)


@pytest.mark.parametrize("order", [("x1", "x1y0"), ("x1y0", "x1")], ids=["x1_first", "x1y0_first"])
def test_witness_names_the_earlier_of_two_actions_into_one_child(order):
    # from the depth-1 parent z=1 both x1 and x1y0 lead to the goal x=1 z=1,
    # since y is already 0; the one declared first stored the child
    effects = {"x1": {"x": "1"}, "x1y0": {"x": "1", "y": "0"}}
    q = make_query(
        dict.fromkeys("xyz", 2),
        [("set_z", {}, {"z": "1"}), *((name, {}, effects[name]) for name in order)],
        dict.fromkeys("xyz", "0"),
        {"x": "1", "z": "1"},
        2,
    )
    result = same_as_tuple_bfs(q)
    assert result.witness == ("set_z", order[0])
    assert result.shortest_length == 2


def test_witness_skips_an_earlier_action_the_cover_rule_pruned():
    # set_y stores y=1; reset_y covers set_y, so y=1 never tries it, yet it
    # is declared first and applicable there: the walk must pass over it
    q = make_query(
        {"x": 2, "y": 2},
        [("reset_y", {}, {"y": "0"}), ("set_y", {}, {"y": "1"}), ("set_x", {}, {"x": "1"})],
        {"x": "0", "y": "0"},
        {"x": "1", "y": "1"},
        2,
    )
    *_, actions = _packed(q.instance)
    assert 0 not in {a for a, _ in _moves_after(1, list(enumerate(actions)), actions)}
    result = same_as_tuple_bfs(q)
    assert result.witness == ("set_y", "set_x")
    assert validate_plan(q.instance, result.witness).valid


@pytest.mark.parametrize("guarded", [False, True], ids=["precondition_free", "guarded"])
def test_expansion_prunes_by_the_action_that_stored_the_state(monkeypatch, guarded):
    # each state below the start picks its moves by the action that stored
    # it, so the skip rules run, and only on real action indices; the
    # start's sentinel index n tries every move without asking them
    pre = ({}, {"a": "1"}, {"b": "1"}) if guarded else ({}, {}, {})
    q = make_query(
        dict.fromkeys("abc", 2),
        [("sa", pre[0], {"a": "1"}), ("sb", pre[1], {"b": "1"}), ("sc", pre[2], {"c": "1"})],
        dict.fromkeys("abc", "0"),
        dict.fromkeys("abc", "1"),
        3,
    )
    calls = []

    def spy(b, moves, actions):
        calls.append((b, [move[0] for move in moves]))
        return _moves_after(b, moves, actions)

    monkeypatch.setattr("sasbp.oracle._moves_after", spy)
    result = decide_bfs(q)
    assert result.witness == ("sa", "sb", "sc")
    assert calls
    assert all(0 <= b < 3 and tried == [0, 1, 2] for b, tried in calls)


def test_goal_count_bound_prunes_the_clique_gadget():
    # K4 with two vertices per class: the bound keeps the full search's
    # witness and drops almost two thirds of its states; both counts are
    # pinned, so the bound cannot stop acting unnoticed
    q = gen_clique_gadget(MulticoloredGraph.complete(4, 2)).query
    full = tuple_bfs(q)
    result = same_as_tuple_bfs(q)
    assert (result.explored_states, full.explored_states) == (4060, 11617)
    assert result.witness == full.witness and len(result.witness) == q.k == 10


def test_goal_count_bound_tests_a_wide_goal_field_under_its_own_mask():
    # x has three values, so a two-bit field; the only plan passes through
    # x=2, whose bits 10 differ from the goal's 01 in both places.  That state
    # has one goal field off, so one step left suffices; counted by the bits
    # of x, it would have two off, and the search would answer NO
    q = make_query(
        {"x": 3, "y": 2},
        [("y_on_x_off", {}, {"x": "2", "y": "1"}), ("x_back", {"y": "1"}, {"x": "1"})],
        {"x": "1", "y": "0"},
        {"x": "1", "y": "1"},
        2,
    )
    (_, start), (goal_mask, goal_bits), actions = _packed(q.instance)
    _, _, eff_mask, eff_bits = actions[0]
    x2 = (start & ~eff_mask) | eff_bits
    assert ((x2 ^ goal_bits) & goal_mask).bit_count() == 1
    result = same_as_tuple_bfs(q)
    assert result.witness == ("y_on_x_off", "x_back")
    assert result.explored_states == 3


def test_unreachable_goal_is_no():
    q = make_query({"a": 2}, [("down", {}, {"a": "0"})], {"a": "0"}, {"a": "1"}, 4)
    result = decide_bfs(q)
    assert not result.decision and result.witness is None
    assert result.shortest_length is None


def test_state_cap_raises():
    q = make_query(
        {"a": 2, "b": 2, "c": 2},
        [("sa", {}, {"a": "1"}), ("sb", {}, {"b": "1"}), ("sc", {}, {"c": "1"})],
        {"a": "0", "b": "0", "c": "0"},
        {"a": "1", "b": "1", "c": "1"},
        3,
    )
    with pytest.raises(ResourceLimitError):
        decide_bfs(q, max_states=2)
    assert decide_bfs(q, max_states=100).decision


def test_state_budget_bounds_stored_states():
    # 16 three-valued variables with a setter per non-initial value: every
    # expansion stores up to 32 new states, so stored states outrun the
    # expanded ones long before the expansion count reaches the budget
    names = [f"v{i}" for i in range(16)]
    actions = [(f"set_{n}_{x}", {}, {n: x}) for n in names for x in ("1", "2")]
    q = make_query(
        {n: 3 for n in names},
        actions,
        {n: "0" for n in names},
        {n: "2" for n in names},
        16,
    )
    budget = 50
    with pytest.raises(ResourceLimitError) as caught:
        decide_bfs(q, max_states=budget)
    message = str(caught.value)
    assert message.startswith(f"state budget of {budget} exhausted at depth 1: ")
    expanded, stored = map(
        int, re.search(r"(\d+) states expanded, (\d+) stored", message).groups()
    )
    assert expanded < budget < stored <= budget + len(actions)


def test_enumerate_plans_orders_by_length_then_declaration():
    q = make_query(
        {"a": 2, "b": 2},
        [("sa", {}, {"a": "1"}), ("sb", {}, {"b": "1"})],
        {"a": "0", "b": "0"},
        {"a": "1"},
        2,
    )
    plans = enumerate_plans(q, limit=4)
    assert plans[0] == ("sa",)
    assert plans == [("sa",), ("sa", "sa"), ("sa", "sb"), ("sb", "sa")]


def test_enumerate_limit_validation():
    q = make_query({"a": 2}, [], {"a": "0"}, {"a": "0"}, 0)
    with pytest.raises(ValueError):
        enumerate_plans(q, limit=0)
    assert enumerate_plans(q, limit=3) == [()]


def test_first_enumerated_plan_matches_bfs_witness():
    rng = random.Random(20240811)
    checked = 0
    for _ in range(40):
        q = random_02_query(rng, max_vars=3, max_actions=4, max_k=3)
        result = decide_bfs(q)
        plans = enumerate_plans(q, limit=1, max_sequences=200_000)
        if result.decision:
            assert plans and len(plans[0]) == result.shortest_length
            assert plans[0] == result.witness
            report = validate_plan(q.instance, result.witness)
            assert report.valid
            checked += 1
        else:
            assert plans == []
    assert checked > 5


def _gadget_queries():
    graphs = [
        MulticoloredGraph.complete(3, 3),
        MulticoloredGraph.empty(3, 3),
        MulticoloredGraph.random(3, 3, 0.5, rng=1),
        MulticoloredGraph.random(3, 3, 0.3, rng=2),
        MulticoloredGraph.random(4, 2, 0.7, rng=3),
    ]
    for graph in graphs:
        yield gen_clique_gadget(graph).query
    for bits in itertools.product((False, True), repeat=4):
        yield gen_or_tree(bits).query
    for t in (2, 3):
        for yes_at in (0, t - 1, None):
            yield compose_or_pub([or_input_pub(2, i == yes_at) for i in range(t)]).query


def test_packed_states_match_the_tuple_reference_on_gadgets():
    # clique gadgets, all 16 four-bit OR trees with their preconditions and
    # the postunique OR compositions: every SolveResult field agrees with
    # the bounded tuple search, and so does the budget message when a small
    # budget runs out; the answers agree with the unbounded one
    decisions, limited = [], []
    for query in _gadget_queries():
        decisions.append(same_as_tuple_bfs(query).decision)
        limited.append(same_as_tuple_bfs(query, max_states=40) is None)
    assert len(decisions) == 27 and 0 < sum(decisions) < 27
    assert 0 < sum(limited) < 27


def test_skip_rules_truth_table():
    # which actions a state first stored by b skips: b reads w and writes x
    # and y; every other action writes x and something else
    q = make_query(
        dict.fromkeys("wxyz", 2),
        [
            ("early", {}, {"x": "1", "z": "1"}),  # commutes, declared first
            ("clash", {}, {"x": "0", "z": "1"}),  # x=0 against b's x=1
            ("unguard", {}, {"x": "1", "w": "1"}),  # writes what b reads
            ("b", {"w": "0"}, {"x": "1", "y": "1"}),
            ("late", {}, {"x": "1", "z": "1"}),  # commutes, declared after
            ("cover", {"z": "0"}, {"x": "0", "y": "0", "z": "1"}),
            ("reader", {"y": "1"}, {"x": "1", "y": "1", "z": "1"}),  # reads b's y
        ],
        dict.fromkeys("wxyz", "0"),
        {"z": "1"},
        3,
    )
    names = [action.name for action in q.instance.actions]
    *_, actions = _packed(q.instance)
    b = names.index("b")
    skipped = set(names) - {name for _, name in _moves_after(b, list(enumerate(names)), actions)}
    # b covers itself: a second b leaves the state as it is
    assert skipped == {"early", "b", "cover"}
    assert same_as_tuple_bfs(q).decision


def test_skip_rules_drop_a_third_of_the_clique_gadget_pairs():
    *_, actions = _packed(gen_clique_gadget(MulticoloredGraph.complete(4, 2)).query.instance)
    moves = list(enumerate(actions))
    tried = sum(len(_moves_after(b, moves, actions)) for b in range(len(actions)))
    pairs = len(actions) ** 2
    assert (pairs - tried) * 3 >= pairs
