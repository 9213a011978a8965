import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

import sasbp.planner02 as planner02
from sasbp import steiner
from sasbp.core import BoundedQuery, SolveResult, validate_plan
from sasbp.gadgets import (
    MulticoloredGraph,
    compose_or_02,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_02,
    or_input_pub,
)
from sasbp.oracle import ResourceLimitError, decide_bfs
from sasbp.planner02 import (
    PAIR,
    ROOT,
    extract_plan,
    pick_method,
    reduce_to_steiner,
    solve,
    solve_02,
)
from sasbp.preprocess import lemma1_transform
from sasbp.steiner import SteinerSolution, solve_dst
from helpers import chain_query, make_query, random_02_query


def repair_query(k):
    """a is fixed directly, b via an action that breaks c, c restored last."""
    return make_query(
        {"a": 2, "b": 2, "c": 2},
        [
            ("ga", {}, {"a": "1"}),
            ("ga2", {}, {"a": "1"}),
            ("mix", {}, {"b": "1", "c": "0"}),
            ("wreck", {}, {"c": "0"}),
            ("noop", {}, {}),
            ("gc", {}, {"c": "1"}),
        ],
        init={"a": "0", "b": "0", "c": "1"},
        goal={"a": "1", "b": "1", "c": "1"},
        k=k,
    )


def test_reduction_arcs_and_origins():
    artifacts = reduce_to_steiner(repair_query(3))
    steiner = artifacts.steiner
    assert steiner.nodes == (ROOT, "a", "b", "c")
    assert steiner.root == ROOT
    assert steiner.terminals == ("a", "b")
    assert steiner.bound == 3
    assert steiner.weights == {(ROOT, "a"): 1, ("c", "b"): 1, (ROOT, "c"): 1}
    # parallel good actions stack on one arc, first declared first;
    # bad and effect-free actions contribute nothing
    assert artifacts.arc_origin == {
        (ROOT, "a"): ("ga", "ga2"),
        ("c", "b"): ("mix",),
        (ROOT, "c"): ("gc",),
    }


def test_reduction_rejections():
    q = make_query(
        {"a": 2},
        [("set", {"a": "0"}, {"a": "1"})],
        {"a": "0"},
        {"a": "1"},
        1,
    )
    with pytest.raises(ValueError, match="without preconditions"):
        reduce_to_steiner(q)

    q = make_query(
        {"a": 2, "b": 2, "c": 2},
        [("big", {}, {"a": "1", "b": "1", "c": "1"})],
        {"a": "0", "b": "0", "c": "0"},
        {"a": "1"},
        1,
    )
    with pytest.raises(ValueError, match="two effects"):
        reduce_to_steiner(q)

    for name in (ROOT, PAIR + "1", PAIR):
        q = make_query({name: 2}, [("set", {}, {name: "1"})], {name: "0"}, {name: "1"}, 1)
        with pytest.raises(ValueError, match="reserved"):
            reduce_to_steiner(q)


def test_reserved_name_is_refused_before_the_unwritten_goal_no():
    # no action writes __root's goal value, an answer solve_02 gives
    # before the reduction; the reduction's own refusal still comes first
    q = make_query(
        {ROOT: 2, "a": 2}, [("set_a", {}, {"a": "1"})], {ROOT: "0", "a": "0"}, {ROOT: "1"}, 1
    )
    with pytest.raises(ValueError, match="'__root' is reserved for the root and pair nodes"):
        solve_02(q)


def test_guarded_task_is_refused_before_the_empty_plan():
    # init already meets the goal, so the empty plan would answer YES, but
    # set_x has a precondition: fpt02 refuses the task instead
    q = make_query(
        {"g": 2, "x": 2},
        [("open", {}, {"g": "1"}), ("set_x", {"g": "1"}, {"x": "1"})],
        {"g": "0", "x": "1"},
        {"x": "1"},
        1,
    )
    with pytest.raises(ValueError, match="requires actions without preconditions"):
        solve(q, method="fpt02")
    assert solve(q).witness == () and solve(q).method == "oracle"


def test_extract_orders_repairs_after_damage():
    query = repair_query(3)
    artifacts = reduce_to_steiner(query)
    solution = solve_dst(artifacts.steiner)
    assert solution is not None and solution.total_weight == 3
    plan = extract_plan(artifacts, solution)
    # deepest layer ("c", "b") first, then the root layer in node order
    assert plan == ("mix", "ga", "gc")
    assert validate_plan(query.instance, plan).valid


def test_extract_rejects_unknown_arcs():
    artifacts = reduce_to_steiner(repair_query(3))
    with pytest.raises(ValueError, match="origin"):
        extract_plan(artifacts, SteinerSolution((("c", "a"),), 1, (0,)))


def test_each_yes_solve_prunes_its_tree_once(monkeypatch):
    # solve_dst's tree carries its depths, so extract_plan layers it without
    # pruning again and without the Steiner instance; a YES with nothing
    # broken is answered () before any tree is built
    trees = []
    original = steiner._tree

    def counting(inst, arcs):
        trees.append(original(inst, arcs))
        return trees[-1]

    monkeypatch.setattr(steiner, "_tree", counting)
    rng = random.Random(2007)
    queries = [repair_query(3), repair_query(2)]
    queries += [random_02_query(rng, 7, 10, 5) for _ in range(60)]
    yes = paired = 0
    for query in queries:
        trees.clear()
        result = solve(query)
        assert result.method == "fpt02"
        assert len(trees) == bool(result.witness)
        if result.witness:
            detached = replace(reduce_to_steiner(query), steiner=None)
            assert extract_plan(detached, trees[0]) == result.witness
            paired += any(arc[0].startswith(PAIR) for arc in trees[0].arcs)
        yes += result.decision
    assert 10 < yes < len(queries) - 10 and paired > 5, (yes, paired)


def test_solve_yes_at_exact_bound():
    result = solve_02(repair_query(3))
    assert result.decision
    assert result.witness == ("mix", "ga", "gc")
    assert result.plan_length == 3
    assert not result.fallback
    assert result.dp_table_entries is not None


def test_solve_no_below_bound():
    result = solve_02(repair_query(2))
    assert not result.decision
    assert result.witness is None and result.plan_length is None
    # a and b are sinks with one in-arc each; forcing both leaves c at
    # bound 0, so the presolve answers before any table is built
    assert result.dp_table_entries is None


def test_more_broken_variables_than_bound_is_an_instant_no():
    result = solve_02(repair_query(1))
    assert not result.decision
    assert not result.fallback
    # 2 terminals fit 2k, so the reduction is built; both are sinks with one
    # in-arc, and the 2 forced arcs weigh more than the bound of 1, so
    # solve_dst answers before any table is built
    assert result.dp_table_entries is None
    steiner_inst = reduce_to_steiner(repair_query(1)).steiner
    assert len(steiner_inst.terminals) == 2
    stats: dict = {}
    assert steiner.solve_dst(steiner_inst, stats_out=stats) is None
    assert stats["forced"] == 2
    assert "table_entries" not in stats


def test_more_broken_variables_than_twice_the_bound_skip_the_reduction(monkeypatch):
    def refuse(query):
        raise AssertionError("reduction built for a task decided by its count")

    monkeypatch.setattr(planner02, "reduce_to_steiner", refuse)
    result = solve_02(repair_query(0))
    assert not result.decision
    assert result.dp_table_entries is None


def test_too_many_terminals_after_presolve_is_a_resource_limit():
    # 19 terminals, none of them a sink with a single in-arc or a twin: the
    # subset table's rows and splits pass the work budget, so the solve gives
    # up instead of searching
    query = chain_query(19)
    assert len(reduce_to_steiner(query).steiner.terminals) == 19
    message = "work budget of 2000000 exhausted: 19 terminals remain after presolve and merge"
    with pytest.raises(ResourceLimitError, match=message):
        solve_02(query)
    with pytest.raises(ResourceLimitError, match=message):
        solve(query)
    # the same shape with few terminals is solved exactly
    small = chain_query(4)
    result = solve_02(small)
    assert result.decision and not result.fallback
    assert result.plan_length == decide_bfs(small).shortest_length == 4


def chained_query(k):
    return make_query(
        {"a": 2, "b": 2, "c": 2},
        [("ab", {}, {"a": "1", "b": "1"}), ("c1", {}, {"c": "1"})],
        {"a": "0", "b": "0", "c": "0"},
        {"a": "1", "b": "1", "c": "1"},
        k,
    )


def has_pair_node(query) -> bool:
    return any(node.startswith(PAIR) for node in reduce_to_steiner(query).steiner.nodes)


def test_two_effect_good_actions_get_a_pair_node():
    artifacts = reduce_to_steiner(chained_query(2))
    pair = PAIR + "1"
    assert artifacts.steiner.nodes == (ROOT, "a", "b", "c", pair)
    assert artifacts.steiner.weights == {
        (ROOT, pair): 1,
        (pair, "a"): 0,
        (pair, "b"): 0,
        (ROOT, "c"): 1,
    }
    assert artifacts.arc_origin[(ROOT, pair)] == ("ab",)

    result = solve_02(chained_query(2))
    assert result.decision
    # the pair's fan-out adds no steps: one step settles both a and b
    assert result.witness == ("c1", "ab")
    assert validate_plan(chained_query(2).instance, result.witness).valid

    # three terminals need two steps, so k=1 is NO
    assert not solve_02(chained_query(1)).decision


def test_pair_nodes_are_shared_per_variable_pair():
    q = make_query(
        {"a": 2, "b": 2, "c": 3},
        [
            ("ba", {}, {"b": "1", "a": "1"}),
            ("bc", {}, {"b": "1", "c": "2"}),
            ("ab", {}, {"a": "1", "b": "1"}),
        ],
        {"a": "0", "b": "0", "c": "0"},
        {"a": "1", "b": "1"},
        1,
    )
    artifacts = reduce_to_steiner(q)
    assert artifacts.steiner.nodes[-2:] == (PAIR + "1", PAIR + "2")
    assert artifacts.arc_origin[(ROOT, PAIR + "1")] == ("ba", "ab")
    assert artifacts.arc_origin[(ROOT, PAIR + "2")] == ("bc",)
    assert solve_02(q).witness == ("ba",)


def test_early_no_counts_two_terminals_per_pair_step():
    def two_pairs(goal_vars):
        return make_query(
            {n: 2 for n in "abcde"},
            [("ab", {}, {"a": "1", "b": "1"}), ("cd", {}, {"c": "1", "d": "1"})],
            {n: "0" for n in "abcde"},
            {n: "1" for n in goal_vars},
            2,
        )

    # four terminals at k=2 are YES, so the instant NO must not fire at
    # len(terminals) > k
    result = solve_02(two_pairs("abcd"))
    assert result.decision and result.witness == ("ab", "cd")
    assert result.dp_table_entries is not None
    # five terminals are more than two steps can settle
    result = solve_02(two_pairs("abcde"))
    assert not result.decision and result.dp_table_entries is None


def test_bad_two_effect_actions_are_stripped_not_chained():
    # the only two-effect action is bad, so it gets no arc and no pair node
    q = make_query(
        {"a": 2, "b": 2},
        [("ruin", {}, {"a": "0", "b": "0"}), ("fix_a", {}, {"a": "1"})],
        {"a": "0", "b": "1"},
        {"a": "1", "b": "1"},
        1,
    )
    result = solve_02(q)
    assert result.decision and not has_pair_node(q)
    assert result.witness == ("fix_a",)
    assert reduce_to_steiner(q).arc_origin == {(ROOT, "a"): ("fix_a",)}


@pytest.mark.parametrize("bad_plan,message", [
    (("gc",), "failed validation"),
    (("mix", "ga", "gc", "ga"), "over the bound"),
])
def test_witness_postconditions_are_checked(monkeypatch, bad_plan, message):
    monkeypatch.setattr(planner02, "extract_plan", lambda artifacts, solution: bad_plan)
    with pytest.raises(RuntimeError, match=message):
        solve_02(repair_query(3))


def test_pair_path_chain_path_and_oracle_agree():
    rng = random.Random(2718)
    yes = paired = 0
    for _ in range(40):
        query = random_02_query(rng, max_vars=4, max_actions=5, max_k=2)
        oracle = decide_bfs(query)
        result = solve_02(query)
        chained = lemma1_transform(query)
        via_chain = solve_02(BoundedQuery(chained.instance, chained.k_prime))
        assert result.decision == via_chain.decision == oracle.decision, query
        paired += has_pair_node(query)
        if result.decision:
            yes += 1
            assert result.plan_length == oracle.shortest_length
            assert validate_plan(query.instance, result.witness).valid
    assert yes > 5 and 40 - yes > 5 and paired > 5


def test_agrees_with_search_oracle_on_random_queries():
    rng = random.Random(61803)
    yes = no = paired = 0
    for _ in range(100):
        query = random_02_query(rng)
        oracle = decide_bfs(query)
        result = solve_02(query)
        assert result.decision == oracle.decision, query
        assert not result.fallback
        paired += has_pair_node(query)
        if result.decision:
            yes += 1
            assert result.plan_length == oracle.shortest_length
            assert len(result.witness) <= query.k
            assert validate_plan(query.instance, result.witness).valid
        else:
            no += 1
            assert result.witness is None
    assert yes > 15 and no > 15 and paired > 5


def gated_query(rng: random.Random) -> BoundedQuery:
    """Random task outside (0, <=2): "open" sets the gate g, a1 needs g=1,
    later actions need it with probability 0.6, and any may write three
    variables."""
    names = ["g"] + [f"x{i}" for i in range(1, rng.randint(2, 4) + 1)]
    actions = [("open", {}, {"g": "1"})]
    for i in range(rng.randint(1, 5)):
        pre = {"g": "1"} if i == 0 or rng.random() < 0.6 else {}
        targets = rng.sample(names[1:], rng.randint(1, min(3, len(names) - 1)))
        actions.append((f"a{i + 1}", pre, {n: str(rng.randint(0, 1)) for n in targets}))
    goal = {n: "1" for n in rng.sample(names[1:], rng.randint(1, len(names) - 1))}
    return make_query(
        {n: 2 for n in names}, actions, {n: "0" for n in names}, goal, rng.randint(0, 4)
    )


def gated_task(k):
    return make_query(
        {"g": 2, "x": 2},
        [("open", {}, {"g": "1"}), ("set_x", {"g": "1"}, {"x": "1"})],
        {"g": "0", "x": "0"},
        {"x": "1"},
        k,
    )


def assert_is_oracle_result(result, query):
    assert result == decide_bfs(query) and result.method == "oracle"
    assert not result.fallback and result.dp_table_entries is None


def test_both_solvers_return_one_result_type():
    guarded, fragment = gated_task(2), chained_query(2)
    results = [solve_02(fragment)]
    for query in (guarded, fragment):
        oracle = decide_bfs(query)
        assert solve(query, method="oracle") == oracle
        results += [oracle, solve(query)]
    assert {type(result) for result in results} == {SolveResult}


def test_solve_matches_solve_02_and_decide_bfs():
    rng = random.Random(4242)
    yes = 0
    for _ in range(200):
        query = random_02_query(rng)
        result = solve(query)
        assert result == solve_02(query) and result.method == "fpt02"
        assert_is_oracle_result(solve(query, "oracle"), query)
        yes += result.decision
    assert 50 < yes < 150
    yes = 0
    for _ in range(100):
        query = gated_query(rng)
        assert_is_oracle_result(solve(query), query)
        with pytest.raises(ValueError, match="without preconditions|two effects"):
            solve(query, "fpt02")
        yes += solve(query).decision
    assert 20 < yes < 80


def test_pick_method_routes_by_the_fragment_rule():
    def task(*actions):
        return make_query({n: 2 for n in "abc"}, actions, {n: "0" for n in "abc"}, {"a": "1"}, 2)

    assert pick_method(task().instance) == "fpt02"
    assert pick_method(task(("ab", {}, {"a": "1", "b": "1"})).instance) == "fpt02"
    assert pick_method(task(("abc", {}, {n: "1" for n in "abc"})).instance) == "oracle"
    assert pick_method(gated_task(2).instance) == "oracle"
    result = solve(gated_task(2))
    assert result.method == "oracle" and result.witness == ("open", "set_x")
    assert solve(chained_query(2)).method == "fpt02"


def test_oracle_method_searches_a_02_task():
    query = chained_query(2)
    assert pick_method(query.instance) == "fpt02"
    result = solve(query, method="oracle")
    assert_is_oracle_result(result, query)
    assert result.witness == ("ab", "c1")


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError, match="unknown method 'steiner'"):
        solve(chained_query(2), method="steiner")


def test_resource_limit_propagates_from_solve():
    for query, method in ((gated_task(2), "auto"), (chained_query(2), "oracle")):
        with pytest.raises(ResourceLimitError, match="state budget of 1 exhausted"):
            solve(query, method, max_states=1)


def test_work_budget_bounds_the_steiner_table():
    # chain_query(4) tables 4 terminals: 15 rows, then 50 candidate splits
    query = chain_query(4)
    answer = solve(query)
    assert answer.decision and answer.method == "fpt02"
    for method in ("auto", "fpt02"):
        with pytest.raises(ResourceLimitError, match="work budget of 14 exhausted: 4 terminals"):
            solve(query, method, max_states=14)
        with pytest.raises(ResourceLimitError, match="at least 65 rows and candidate splits"):
            solve(query, method, max_states=64)
        assert solve(query, method, max_states=65) == answer
    with pytest.raises(ResourceLimitError, match="work budget of 64 exhausted"):
        solve_02(query, max_states=64)


def _pinned_tasks(family):
    """(name, query) of every task of one family on the pinned grid, in order."""
    if family == "random-02":
        rng = random.Random(1702)
        for i in range(400):
            yield f"r{i}", random_02_query(rng, 6, 9, 5)
    elif family == "compose-02":
        for k in (1, 2):
            for t in (2, 3):
                for pattern in itertools.product("yn", repeat=t):
                    inputs = [or_input_02(k, yes == "y") for yes in pattern]
                    yield f"k{k}-{''.join(pattern)}", compose_or_02(inputs).query
    elif family == "compose-pub":
        for k in (1, 2, 3):
            for t in (2, 3):
                for pattern in itertools.product("yn", repeat=t):
                    inputs = [or_input_pub(k, yes == "y") for yes in pattern]
                    yield f"k{k}-{''.join(pattern)}", compose_or_pub(inputs).query
    elif family == "ortree":
        for r in range(1, 5):
            for bits in itertools.product("01", repeat=r):
                yield "".join(bits), gen_or_tree(b == "1" for b in bits).query
    else:
        graphs = [
            ("3x2-complete", MulticoloredGraph.complete(3, 2)),
            ("3x2-empty", MulticoloredGraph.empty(3, 2)),
            ("4x2-complete", MulticoloredGraph.complete(4, 2)),
        ]
        graphs += [(f"3x2-seed{s}", MulticoloredGraph.random(3, 2, 0.5, s)) for s in range(5)]
        for name, graph in graphs:
            yield name, gen_clique_gadget(graph).query


def _answer_digests(family):
    answers, counters = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name, query in _pinned_tasks(family):
        result = solve(query)
        record = [name, result.method, result.decision, result.witness]
        answers.update(json.dumps(record).encode() + b"\n")
        record = [result.explored_states, result.dp_table_entries]
        counters.update(json.dumps(record).encode() + b"\n")
        count += 1
    return count, answers.hexdigest(), counters.hexdigest()


@pytest.mark.parametrize(
    "family,count,answers,counters",
    [
        (
            "random-02",
            400,
            "4d04f6253c96b19144be08cd7dda7b554987d9719618a02778651a276ef896a6",
            "1369c5fa754f7dda278b881e974ceead0d41061a97c3899f236973dbeccce341",
        ),
        (
            "compose-02",
            24,
            "cf9bcc339dd92a20d8e75a34c978a16508e77cb4ea098480d4ceb235447651ee",
            "544713b8ff54af1d9328d35fa7bf863ed1b797559029ee0496b570e22ffdc9c7",
        ),
        (
            "compose-pub",
            36,
            "eae76ebd8709dd53f371951258084cc223c9d7c571bd2b366b1b8182f5187f90",
            "e79190aa319e6331858c78852a8a96d67adb7d2920db21697c3cfe59800dd8d1",
        ),
        (
            "ortree",
            30,
            "4e429f1e35a12289ccf8c927c7e91e89a6ea2eccdefdbb48c29aae3781c2d8f7",
            "abc8607b61d40232c17a7bd12b369a850b370aa475cd78a21109a332812b0fc7",
        ),
        (
            "clique",
            8,
            "b76cfcacd34522691272cd28b8c3d768334506c673b7715535a9fc1ae58447bd",
            "034d78db662f0e983de8fbd2aa6a9620e1d3db80a54a7d166032252dec5b30ed",
        ),
    ],
)
def test_solve_answers_are_pinned(family, count, answers, counters):
    # method, decision and witness of solve on a fixed grid of tasks, and
    # separately its work counters, so a deliberate counter change edits
    # only the second digest; refactors must move neither
    assert _answer_digests(family) == (count, answers, counters)
