import itertools
import random

import pytest

from sasbp import steiner
from sasbp.core import ResourceLimitError
from sasbp.planner02 import PAIR, reduce_to_steiner
from sasbp.steiner import (
    SteinerInstance,
    brute_dst,
    extract_arborescence,
    solve_dst,
)
from helpers import dreyfus_wagner_reference, random_02_query, reaches_all


def diamond():
    # s -> a -> t1, s -> b -> t1, b -> t2; cheapest tree for {t1, t2} is
    # forced through b
    return SteinerInstance(
        nodes=("s", "a", "b", "t1", "t2"),
        weights={
            ("s", "a"): 1,
            ("a", "t1"): 1,
            ("s", "b"): 1,
            ("b", "t1"): 1,
            ("b", "t2"): 1,
        },
        root="s",
        terminals=("t1", "t2"),
        bound=3,
    )


def test_instance_validation():
    with pytest.raises(ValueError, match="unknown"):
        SteinerInstance(("a",), {("a", "b"): 1}, "a", (), 0)
    with pytest.raises(ValueError, match="root"):
        SteinerInstance(("a",), {}, "b", (), 0)
    with pytest.raises(ValueError, match="weight"):
        SteinerInstance(("a", "b"), {("a", "b"): -1}, "a", ("b",), 1)
    with pytest.raises(ValueError, match="terminal"):
        SteinerInstance(("a",), {}, "a", ("b",), 1)


def test_terminals_are_canonicalized():
    inst = SteinerInstance(
        nodes=("s", "x", "y"),
        weights={("s", "x"): 1, ("s", "y"): 1},
        root="s",
        terminals=("y", "x", "y"),
        bound=2,
    )
    assert inst.terminals == ("x", "y")


def test_no_terminals_means_empty_tree():
    inst = SteinerInstance(("s", "x"), {("s", "x"): 1}, "s", (), 0)
    solution = solve_dst(inst)
    assert solution is not None
    assert solution.arcs == () and solution.total_weight == 0


def test_root_listed_as_a_terminal_changes_nothing():
    # the root is in every tree, so the presolve skips it as a terminal
    d = diamond()
    for bound in (3, 2):
        without = SteinerInstance(d.nodes, dict(d.weights), "s", d.terminals, bound)
        rooted = SteinerInstance(d.nodes, dict(d.weights), "s", ("s",) + d.terminals, bound)
        assert rooted.terminals == ("s", "t1", "t2")
        assert solve_dst(rooted) == solve_dst(without)
    alone = SteinerInstance(("s",), {}, "s", ("s",), 0)
    assert solve_dst(alone) == solve_dst(SteinerInstance(("s",), {}, "s", (), 0))


def test_diamond_picks_the_shared_branch():
    solution = solve_dst(diamond())
    assert solution is not None
    assert solution.total_weight == 3
    assert set(solution.arcs) == {("s", "b"), ("b", "t1"), ("b", "t2")}


def test_equal_weight_trees_split_at_the_lowest_declared_node():
    # Splitting at a or at b both cost 3; b's branch is found first by a
    # search from the terminals, but a is declared first and wins, as in
    # the dense table.
    inst = SteinerInstance(
        nodes=("r", "a", "b", "p", "q", "t1", "t2"),
        weights={
            ("r", "p"): 0,
            ("p", "a"): 1,
            ("r", "q"): 1,
            ("q", "b"): 0,
            ("a", "t1"): 1,
            ("a", "t2"): 1,
            ("b", "t1"): 1,
            ("b", "t2"): 1,
        },
        root="r",
        terminals=("t1", "t2"),
        bound=3,
    )
    solution = solve_dst(inst)
    assert solution == dreyfus_wagner_reference(inst)
    assert solution.arcs == (("r", "p"), ("a", "t1"), ("a", "t2"), ("p", "a"))


def test_bound_is_respected():
    inst = diamond()
    tight = SteinerInstance(inst.nodes, dict(inst.weights), inst.root, inst.terminals, 2)
    assert solve_dst(tight) is None


def test_unreachable_terminal():
    inst = SteinerInstance(("s", "t"), {}, "s", ("t",), 5)
    assert solve_dst(inst) is None


def test_early_no_when_a_terminal_is_out_of_reach():
    # t2 has no incoming arc at all; t1 sits three arcs below the root
    unreachable = SteinerInstance(
        nodes=("s", "a", "t1", "t2"),
        weights={("s", "a"): 1, ("a", "t1"): 1},
        root="s",
        terminals=("t1", "t2"),
        bound=5,
    )
    too_far = SteinerInstance(
        nodes=("s", "a", "b", "t1"),
        weights={("s", "a"): 1, ("a", "b"): 1, ("b", "t1"): 1},
        root="s",
        terminals=("t1",),
        bound=2,
    )
    for inst in (unreachable, too_far):
        stats = {}
        assert solve_dst(inst, stats_out=stats) is None
        assert "table_entries" not in stats  # no subset table was built
    near = SteinerInstance(too_far.nodes, dict(too_far.weights), "s", ("t1",), 3)
    stats = {}
    assert solve_dst(near, stats_out=stats).total_weight == 3
    assert stats["table_entries"] == 4


def _nineteen_terminals(private_parents):
    """19 terminals, each with two in-arcs, so the presolve forces nothing;
    t19's in-arcs hang 19 below the root.  t1..t18 hang off r and a, both at
    weight 1, so they are twins, unless each gets a private parent c_i in
    place of a."""
    terms = tuple(f"t{i}" for i in range(1, 20))
    weights = {("r", "a"): 0, ("r", "p"): 19, ("r", "q"): 19}
    parents = tuple(f"c{i}" for i in range(1, 19)) if private_parents else ()
    for c in parents:
        weights[("a", c)] = 0
    for t, parent in zip(terms, parents or ("a",) * 18):
        weights[("r", t)] = weights[(parent, t)] = 1
    weights[("p", "t19")] = weights[("q", "t19")] = 1
    return ("r", "a", "p", "q") + parents + terms, weights, terms


def test_terminal_limit_after_presolve():
    nodes, weights, terms = _nineteen_terminals(private_parents=True)
    far = SteinerInstance(nodes, weights, "r", terms, 19)
    stats = {}
    assert solve_dst(far, stats_out=stats) is None  # t19 is 20 away
    assert stats == {"forced": 0, "terminals": 19, "merged": 0}
    message = (
        "work budget of 2000000 exhausted: 19 terminals remain after presolve and merge,"
        " and their subset table takes at least"
    )
    with pytest.raises(ResourceLimitError, match=message):
        solve_dst(SteinerInstance(nodes, weights, "r", terms, 38))


def test_twin_sinks_share_one_row():
    # t1..t18 have equal in-arc lists, so one row stands for all of them and
    # the table runs on 2 terminals; every twin hangs from r, which wins the
    # weight tie with a by its lower declaration
    nodes, weights, terms = _nineteen_terminals(private_parents=False)
    inst = SteinerInstance(nodes, weights, "r", terms, 38)
    stats = {}
    solution = solve_dst(inst, stats_out=stats)
    assert stats == {"forced": 0, "terminals": 19, "merged": 17, "table_entries": 3 * len(nodes)}
    assert solution.total_weight == 38
    assert set(solution.arcs) == {("r", t) for t in terms[:-1]} | {("r", "p"), ("p", "t19")}
    tight = SteinerInstance(nodes, weights, "r", terms, 37)
    assert solve_dst(tight) is None


def test_work_budget_counts_rows_and_splits():
    # diamond: 2 terminals, so 3 rows, then one split mask with a branch
    # node set {s, b} and one pair of halves: 5 units in all
    with pytest.raises(ResourceLimitError, match="work budget of 2 exhausted: 2 terminals"):
        solve_dst(diamond(), max_states=2)
    with pytest.raises(ResourceLimitError, match="at least 5 rows and candidate splits"):
        solve_dst(diamond(), max_states=4)
    assert solve_dst(diamond(), max_states=5) == solve_dst(diamond())


def test_thirty_terminals_are_refused_before_any_row(monkeypatch):
    terms = tuple(f"t{i}" for i in range(30))
    weights = {}
    for i, t in enumerate(terms):
        weights[("r", t)] = weights[(f"c{i}", t)] = 1
        weights[("r", f"c{i}")] = 0
    nodes = ("r",) + tuple(f"c{i}" for i in range(30)) + terms
    rows = []
    monkeypatch.setattr(steiner, "_descend", lambda *args: rows.append(args))
    with pytest.raises(ResourceLimitError, match="30 terminals remain .* at least 1073741823 rows"):
        solve_dst(SteinerInstance(nodes, weights, "r", terms, 30))
    assert rows == []


def test_early_exit_when_terminals_exceed_budget(monkeypatch):
    # three terminals, all arcs weight 2, bound 5 < 3 * 2; a ring of out-arcs
    # keeps every terminal off the presolve's sink rule, so all three reach
    # the count exit
    ring = {("t1", "t2"): 2, ("t2", "t3"): 2, ("t3", "t1"): 2}
    inst = SteinerInstance(
        nodes=("s", "t1", "t2", "t3"),
        weights={("s", "t1"): 2, ("s", "t2"): 2, ("s", "t3"): 2, **ring},
        root="s",
        terminals=("t1", "t2", "t3"),
        bound=5,
    )
    assert brute_dst(inst) is None
    rows = []
    monkeypatch.setattr(steiner, "_descend", lambda *args: rows.append(args))
    stats = {}
    assert solve_dst(inst, stats_out=stats) is None
    # nothing forced or merged, and no row built: the len * min_w exit
    assert stats == {"forced": 0, "terminals": 3, "merged": 0}
    assert rows == []


def test_stats_reported():
    stats = {}
    solution = solve_dst(diamond(), stats_out=stats)
    assert solution is not None
    assert stats["terminals"] == 2
    assert stats["table_entries"] == 3 * 5  # (2^2 - 1) masks times 5 nodes


def test_single_in_arc_sinks_collapse_onto_their_parents():
    # A spine r -> v1 -> v2 -> v3 with a free shortcut r -> v3, and one sink
    # leaf per spine node.  Each leaf has a single in-arc, so the presolve forces
    # all three leaf arcs (weight 4) and tables only the spine.
    inst = SteinerInstance(
        nodes=("r", "v1", "v2", "v3", "l1", "l2", "l3"),
        weights={
            ("r", "v1"): 1,
            ("v1", "v2"): 1,
            ("v2", "v3"): 1,
            ("r", "v3"): 0,
            ("v1", "l1"): 1,
            ("v2", "l2"): 1,
            ("v3", "l3"): 2,
        },
        root="r",
        terminals=("l1", "l2", "l3"),
        bound=6,
    )
    stats = {}
    solution = solve_dst(inst, stats_out=stats)
    assert stats["forced"] == 3 and stats["terminals"] == 3
    assert solution == brute_dst(inst)
    assert solution.total_weight == 6
    assert {("v1", "l1"), ("v2", "l2"), ("v3", "l3"), ("r", "v3")} <= set(solution.arcs)
    tight = SteinerInstance(inst.nodes, dict(inst.weights), "r", inst.terminals, 5)
    assert solve_dst(tight) is None and brute_dst(tight) is None
    # below the forced weight the presolve alone answers
    stats = {}
    hopeless = SteinerInstance(inst.nodes, dict(inst.weights), "r", inst.terminals, 3)
    assert solve_dst(hopeless, stats_out=stats) is None
    assert "table_entries" not in stats


def test_forced_arcs_alone_can_make_the_tree():
    # every terminal hangs off the root by its only in-arc: no table at all
    star = SteinerInstance(("r", "a", "b"), {("r", "a"): 1, ("r", "b"): 2}, "r", ("a", "b"), 3)
    stats = {}
    solution = solve_dst(star, stats_out=stats)
    assert solution == brute_dst(star)
    assert solution.arcs == (("r", "a"), ("r", "b"))
    assert stats == {"forced": 2, "terminals": 0, "merged": 0}


def test_sinks_on_one_single_parent_are_forced_not_merged():
    # t1 and t2 have the same one-arc in-list (a, 1): the degree test forces
    # both arcs, and no twin class forms
    inst = SteinerInstance(
        ("r", "a", "b", "t1", "t2"),
        {("r", "a"): 1, ("r", "b"): 0, ("b", "a"): 0, ("a", "t1"): 1, ("a", "t2"): 1},
        "r",
        ("t1", "t2"),
        3,
    )
    stats = {}
    solution = solve_dst(inst, stats_out=stats)
    assert stats == {"forced": 2, "terminals": 1, "merged": 0, "table_entries": 5}
    assert solution == brute_dst(inst)
    assert set(solution.arcs) == {("r", "b"), ("b", "a"), ("a", "t1"), ("a", "t2")}


def test_forcing_and_merging_in_one_pass():
    # t1..t3 share the in-list {a, b} and merge into one row; t4's only
    # in-arc comes from a, so it is forced and a becomes a terminal.  The
    # twins are cheaper under b (2 + 3 * 0) than under a (3 * 1).
    weights = {("r", "a"): 1, ("r", "b"): 2, ("a", "t4"): 1}
    for t in ("t1", "t2", "t3"):
        weights[("a", t)] = 1
        weights[("b", t)] = 0
    nodes = ("r", "a", "b", "t1", "t2", "t3", "t4")
    terms = ("t1", "t2", "t3", "t4")
    for bound, weight in ((3, None), (4, 4), (5, 4)):
        inst = SteinerInstance(nodes, weights, "r", terms, bound)
        stats = {}
        solution = solve_dst(inst, stats_out=stats)
        assert stats["forced"] == 1 and stats["merged"] == 2 and stats["terminals"] == 4
        assert solution == brute_dst(inst)
        assert (solution and solution.total_weight) == weight
    assert set(solution.arcs) == {
        ("r", "a"), ("a", "t4"), ("r", "b"), ("b", "t1"), ("b", "t2"), ("b", "t3")
    }


def _twins_and_x(bound):
    # t1 and t2 are twins under r and a; x has an out-arc, so it stays
    weights = {("r", "a"): 1, ("r", "x"): 1, ("x", "a"): 1}
    for t in ("t1", "t2"):
        weights[("r", t)] = weights[("a", t)] = 1
    return SteinerInstance(("r", "a", "x", "t1", "t2"), weights, "r", ("x", "t1", "t2"), bound)


def test_twins_count_one_arc_each_in_the_early_exit():
    # at bound 2 three terminals need three weight-1 arcs: the exit answers
    # NO before any row is built, though the merged table has two terminals
    stats = {}
    assert solve_dst(_twins_and_x(2), stats_out=stats) is None
    assert brute_dst(_twins_and_x(2)) is None
    assert stats == {"forced": 0, "terminals": 3, "merged": 1}
    stats = {}
    assert solve_dst(_twins_and_x(3), stats_out=stats) == brute_dst(_twins_and_x(3))
    assert stats == {"forced": 0, "terminals": 3, "merged": 1, "table_entries": 3 * 5}


def _star(bound):
    # a and b hang off the root by their only in-arcs: forced weight 3
    return SteinerInstance(("r", "a", "b"), {("r", "a"): 1, ("r", "b"): 2}, "r", ("a", "b"), bound)


def _pair(bound):
    # x and y have out-arcs, so both stay; each is 1 from r, both cost 2
    weights = {("r", "x"): 1, ("r", "y"): 1, ("x", "y"): 1, ("y", "x"): 1, ("r", "z"): 0}
    return SteinerInstance(("r", "x", "y", "z"), weights, "r", ("x", "y"), bound)


def _far(bound):
    # t1 is forced onto b, which lies 2 from the root
    weights = {("s", "a"): 1, ("a", "b"): 1, ("b", "t1"): 1}
    return SteinerInstance(("s", "a", "b", "t1"), weights, "s", ("t1",), bound)


@pytest.mark.parametrize(
    "inst, table",
    [
        pytest.param(_star(2), False, id="forced-weight-over-bound"),
        pytest.param(_star(3), False, id="forced-arcs-alone"),
        pytest.param(_twins_and_x(2), False, id="terminals-times-min-weight"),
        pytest.param(_far(2), False, id="terminal-beyond-bound"),
        pytest.param(_pair(1), True, id="best-over-bound"),
        pytest.param(_pair(2), True, id="yes"),
    ],
)
def test_every_return_after_the_presolve_reports_the_same_stats(inst, table):
    stats = {}
    assert solve_dst(inst, stats_out=stats) == brute_dst(inst)
    keys = {"forced", "terminals", "merged"} | ({"table_entries"} if table else set())
    assert stats.keys() == keys


def test_extract_layers_by_depth():
    solution = solve_dst(diamond())
    assert solution.depths == (0, 1, 1)
    layers = extract_arborescence(solution)
    assert layers == [
        [("s", "b")],
        [("b", "t1"), ("b", "t2")],
    ]


def random_steiner(rng: random.Random, weight_choices=(1,)) -> SteinerInstance:
    n = rng.randint(2, 7)
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(pairs)
    weights = {
        arc: rng.choice(weight_choices)
        for arc in pairs[: rng.randint(0, min(14, len(pairs)))]
    }
    root = nodes[0]
    others = list(nodes[1:])
    terminals = tuple(rng.sample(others, rng.randint(0, min(3, len(others)))))
    return SteinerInstance(nodes, weights, root, terminals, rng.randint(0, 6))


def pair_fan_out():
    # one weight-1 arc into p reaches both terminals; direct arcs cost 2
    return SteinerInstance(
        nodes=("r", "a", "b", "p"),
        weights={("r", "p"): 1, ("p", "a"): 0, ("p", "b"): 0, ("r", "a"): 1, ("r", "b"): 1},
        root="r",
        terminals=("a", "b"),
        bound=2,
    )


def test_zero_weight_fan_out_is_found_by_both_solvers():
    for solver in (solve_dst, brute_dst):
        solution = solver(pair_fan_out())
        assert solution.total_weight == 1
        assert set(solution.arcs) == {("r", "p"), ("p", "a"), ("p", "b")}


def check_against_brute_force(rng: random.Random, weight_choices) -> None:
    solved = empty = 0
    for _ in range(60):
        inst = random_steiner(rng, weight_choices)
        fast = solve_dst(inst)
        slow = brute_dst(inst)
        assert (fast is None) == (slow is None)
        if fast is None:
            empty += 1
            continue
        solved += 1
        assert fast.total_weight == slow.total_weight
        assert fast.total_weight <= inst.bound
        assert reaches_all(inst.root, inst.terminals, fast.arcs)
        # arborescence shape: at most one arc into any node, none into the root
        heads = [h for _, h in fast.arcs]
        assert len(heads) == len(set(heads))
        assert inst.root not in heads
    assert solved > 10 and empty > 5


def test_agrees_with_brute_force_on_random_instances():
    check_against_brute_force(random.Random(90210), (1,))


def test_agrees_with_brute_force_on_random_zero_one_weights():
    check_against_brute_force(random.Random(31337), (0, 1))


def test_deterministic_resolution():
    rng = random.Random(4242)
    for _ in range(20):
        inst = random_steiner(rng)
        assert solve_dst(inst) == solve_dst(inst)


def test_brute_force_subset_budget():
    nodes = tuple(f"n{i}" for i in range(7))
    weights = {(a, b): 1 for a, b in itertools.permutations(nodes, 2)}
    inst = SteinerInstance(nodes, weights, "n0", ("n1", "n2", "n3"), 6)
    with pytest.raises(RuntimeError, match="budget"):
        brute_dst(inst, max_subsets=10)


def test_matches_dreyfus_wagner_on_planning_reductions():
    # The solve path's Steiner instances get exactly the reference's arcs, so
    # plans extracted from them stay byte-identical.
    rng = random.Random(8128)
    solved = paired = 0
    for _ in range(200):
        steiner = reduce_to_steiner(random_02_query(rng, 7, 10, 5)).steiner
        solution = solve_dst(steiner)
        assert solution == dreyfus_wagner_reference(steiner)
        solved += solution is not None
        paired += any(node.startswith(PAIR) for node in steiner.nodes)
    assert solved > 50 and 200 - solved > 50 and paired > 50


def medium_steiner(rng: random.Random) -> SteinerInstance:
    n = rng.randint(15, 40)
    nodes = tuple(f"n{i}" for i in range(n))
    weights = {}
    for _ in range(rng.randint(n, 3 * n)):
        weights[tuple(rng.sample(nodes, 2))] = rng.choice((0, 1, 2))
    terminals = tuple(rng.sample(nodes[1:], rng.randint(1, 6)))
    return SteinerInstance(nodes, weights, nodes[0], terminals, rng.randint(0, 12))


def test_matches_dreyfus_wagner_weight_on_medium_instances():
    # Too large for brute_dst; arcs may differ on equal-weight ties.
    rng = random.Random(1987)
    solved = 0
    for _ in range(200):
        inst = medium_steiner(rng)
        fast = solve_dst(inst)
        reference = dreyfus_wagner_reference(inst)
        assert (fast is None) == (reference is None)
        if fast is not None:
            solved += 1
            assert fast.total_weight == reference.total_weight
            assert reaches_all(inst.root, inst.terminals, fast.arcs)
    assert 30 < solved < 170
