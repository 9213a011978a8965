"""Property tests: generated instances checked against the brute-force
references.  Examples are derandomized, so every run sees the same ones.
Each derandomized property also pins its seed.  Without @seed,
derandomize=True seeds a property from the source of its inner check
function, so an edit to a check body would redraw its examples and could
move the coverage floors that each test asserts on what check saw."""

import ast
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from sasbp.core import Action, BoundedQuery, PartialState, validate_plan  # noqa: E402
from sasbp.fileformat import FormatError, parse_instance, write_instance  # noqa: E402
from sasbp import steiner  # noqa: E402
from sasbp.oracle import _moves_after, _packed, decide_bfs  # noqa: E402
from sasbp.planner02 import reduce_to_steiner, solve, solve_02  # noqa: E402
from sasbp.restrictions import RestrictionProfile, detect_profile  # noqa: E402
from sasbp.steiner import (  # noqa: E402
    SteinerInstance,
    solve_dst,
)
from helpers import (  # noqa: E402
    brute_dst,
    goal_bound,
    make_query,
    reaches_all,
    reference_layers,
    reference_parse_instance,
    reference_validate_plan,
    redundant,
    same_as_tuple_bfs,
    tuple_bfs,
)


@st.composite
def small_steiner(draw) -> SteinerInstance:
    n = draw(st.integers(2, 7))
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=12, unique=True))
    weights = {arc: draw(st.sampled_from((0, 1, 2))) for arc in arcs}
    terminals = draw(
        st.lists(st.sampled_from(nodes[1:]), min_size=1, max_size=4, unique=True)
    )
    bound = draw(st.integers(0, 6))
    return SteinerInstance(nodes, weights, nodes[0], tuple(terminals), bound)


def test_steiner_dp_agrees_with_brute_force():
    forced = []

    @seed(0x788dcac7bd729403cf051b878e17c2a72ee8ce948ee9b59d4ebac503be51c037cdf034f27e0fabece9945557ea4b3af8)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(small_steiner())
    def check(inst):
        stats = {}
        fast = solve_dst(inst, stats_out=stats)
        slow = brute_dst(inst)
        forced.append(stats.get("forced", 0))
        assert (fast is None) == (slow is None)
        if fast is None:
            return
        assert fast.total_weight == slow.total_weight <= inst.bound
        assert fast.total_weight == sum(inst.weights[arc] for arc in fast.arcs)
        assert reaches_all(inst.root, inst.terminals, fast.arcs)
        # an out-arborescence: one arc into each non-root node, each tail reached
        heads = [head for _, head in fast.arcs]
        assert len(heads) == len(set(heads)) and inst.root not in heads
        assert all(tail == inst.root or tail in heads for tail, _ in fast.arcs)

    check()
    # the presolve's forcing rule was exercised, not only the table
    assert sum(1 for n in forced if n) >= 10, forced


@st.composite
def steiner_with_leaves(draw) -> SteinerInstance:
    """A small drawn graph with one to three sink terminals hung off it.  A
    leaf with one in-arc is the presolve's forcing case; now and then a leaf
    gets two in-arcs, or hangs off a node the root cannot reach."""
    n = draw(st.integers(2, 5))
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=7, unique=True))
    weights = {arc: draw(st.sampled_from((0, 1, 2))) for arc in arcs}
    terminals = draw(st.lists(st.sampled_from(nodes[1:]), max_size=2, unique=True))
    leaves = tuple(f"leaf{i}" for i in range(draw(st.integers(1, 3))))
    for leaf in leaves:
        count = draw(st.sampled_from((1, 1, 1, 2)))
        tails = draw(st.lists(st.sampled_from(nodes), min_size=count, max_size=count, unique=True))
        for tail in tails:
            weights[tail, leaf] = draw(st.sampled_from((0, 1, 2)))
    bound = draw(st.integers(0, 10))
    # leaves may be declared anywhere after the root, which moves tie-breaks
    declared = (nodes[0],) + tuple(draw(st.permutations(nodes[1:] + leaves)))
    return SteinerInstance(declared, weights, nodes[0], tuple(terminals) + leaves, bound)


def test_presolve_forcing_agrees_with_brute_force():
    forced = []

    @seed(0xef8773624ea9b938269b85ab3726730b8d3bdc86d531f2b8b957505c3e19da903bb63f41954377fc7a40f5ae35198716)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(steiner_with_leaves())
    def check(inst):
        stats = {}
        fast = solve_dst(inst, stats_out=stats)
        slow = brute_dst(inst)
        forced.append(stats.get("forced", 0))
        assert (fast is None) == (slow is None)
        if fast is None:
            return
        assert fast.total_weight == slow.total_weight <= inst.bound
        assert fast.total_weight == sum(inst.weights[arc] for arc in fast.arcs)
        assert reaches_all(inst.root, inst.terminals, fast.arcs)
        heads = [head for _, head in fast.arcs]
        assert len(heads) == len(set(heads)) and inst.root not in heads
        assert all(tail == inst.root or tail in heads for tail, _ in fast.arcs)

    check()
    # most examples force an arc (138 of 200; small_steiner's force 22 of 300)
    assert sum(1 for n in forced if n) >= len(forced) // 2, forced


@st.composite
def steiner_with_twins(draw) -> SteinerInstance:
    """A small drawn graph with two or three planted twin sinks: each gets
    the same in-arcs, from two or three tails at drawn weights.  With every
    tail reached from the root the merge gives the class one row; with one
    tail cut off, each twin keeps a single live in-arc and is forced.  Now
    and then a decoy sink gets the same tails at other weights, or the first
    twin an out-arc, which makes it no sink and so no twin."""
    n = draw(st.integers(2, 5))
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=6, unique=True))
    weights = {arc: draw(st.sampled_from((0, 1, 2))) for arc in arcs}
    terminals = draw(st.lists(st.sampled_from(nodes[1:]), max_size=2, unique=True))
    tails = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=3, unique=True))
    in_arcs = [(tail, draw(st.sampled_from((0, 1, 2)))) for tail in tails]
    twins = tuple(f"twin{i}" for i in range(draw(st.integers(2, 3))))
    for twin in twins:
        for tail, w in in_arcs:
            weights[tail, twin] = w
    leaves = twins
    if draw(st.booleans()):
        leaves += ("decoy",)
        for tail, w in in_arcs:
            weights[tail, "decoy"] = w + (tail == tails[0])
    if draw(st.booleans()):
        weights["twin0", draw(st.sampled_from(nodes[1:] + twins[1:]))] = draw(st.sampled_from((0, 1)))
    bound = draw(st.integers(0, 10))
    # twins may be declared anywhere after the root, which moves tie-breaks
    declared = (nodes[0],) + tuple(draw(st.permutations(nodes[1:] + leaves)))
    return SteinerInstance(declared, weights, nodes[0], tuple(terminals) + leaves, bound)


def test_twin_merge_agrees_with_brute_force():
    merged = []

    @seed(0xe54a08f97f17757273657f6c8bd701acd50276814fd158e2d696d6068dcd90df4069e1c928895b25f81452aa0e2fe69b)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(steiner_with_twins())
    def check(inst):
        stats = {}
        fast = solve_dst(inst, stats_out=stats)
        slow = brute_dst(inst)
        merged.append(stats.get("merged", 0))
        assert (fast is None) == (slow is None)
        if fast is None:
            return
        assert fast.total_weight == slow.total_weight <= inst.bound
        assert fast.total_weight == sum(inst.weights[arc] for arc in fast.arcs)
        assert reaches_all(inst.root, inst.terminals, fast.arcs)
        heads = [head for _, head in fast.arcs]
        assert len(heads) == len(set(heads)) and inst.root not in heads
        assert all(tail == inst.root or tail in heads for tail, _ in fast.arcs)

    check()
    # the merge ran, not only the presolve's forcing
    assert sum(1 for n in merged if n) >= len(merged) // 3, merged


@st.composite
def task_with_pairs(draw):
    """A (0, <=2) task whose reduction has pair nodes.  Every variable wants
    1.  One or two actions set two variables at once.  Each other variable
    gets a writer that sets it alone, or a link that sets it and breaks
    another variable, and a few more links are drawn, so that trees hang
    chains of repairs off the pair nodes."""
    names = [f"x{i}" for i in range(draw(st.integers(3, 6)))]
    two = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    actions = [(f"p{j}", {}, dict.fromkeys(draw(two), "1")) for j in range(draw(st.integers(1, 2)))]
    covered = {name for _, _, eff in actions for name in eff}
    for name in names:
        if name not in covered:
            broken = draw(st.sampled_from([None, *names]))
            eff = {name: "1"} if broken in (None, name) else {name: "1", broken: "0"}
            actions.append((f"w{name}", {}, eff))
    for j in range(draw(st.integers(0, 2))):
        fixed, broken = draw(two)
        actions.append((f"l{j}", {}, {fixed: "1", broken: "0"}))
    zeros, ones = dict.fromkeys(names, "0"), dict.fromkeys(names, "1")
    return make_query(dict.fromkeys(names, 2), actions, zeros, ones, draw(st.integers(2, 10)))


@st.composite
def layering_case(draw):
    """A Steiner instance, solve_dst's solution of it and the arcs to layer.
    "solved" takes the solution's arcs as they are, "extra" adds drawn arcs
    of the instance and shuffles, so the arcs still need pruning, and
    "pairs" solves the reduction of a task with pair nodes.  The solution is
    None when the instance has no tree within its bound."""
    kind = draw(st.sampled_from(("solved", "extra", "pairs")))
    if kind == "pairs":
        inst = reduce_to_steiner(draw(task_with_pairs())).steiner
    else:
        inst = draw(st.one_of(small_steiner(), steiner_with_leaves()))
    solution = solve_dst(inst)
    others = sorted(set(inst.weights) - set(solution.arcs)) if solution else []
    if kind != "extra" or not others:
        return kind, inst, solution, solution.arcs if solution else ()
    arcs = list(solution.arcs) + draw(st.lists(st.sampled_from(others), min_size=1, max_size=6))
    return kind, inst, solution, tuple(draw(st.permutations(arcs)))


def test_layers_agree_with_reference_layering():
    seen = []

    @seed(0x432f3a4bee280670799c724def63160ad0b1111ec89c59d28dc2a14a866787e5e2ea4706537eb7bd9a9ccbf251919296)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(layering_case())
    def check(case):
        kind, inst, solution, arcs = case
        if solution is None:
            return
        # solve_dst prunes its own tree; a superset is pruned by _tree
        tree = steiner._tree(inst, arcs) if kind == "extra" else solution
        layers = reference_layers(arcs, inst)
        depth = {arc: d for d, layer in enumerate(layers) for arc in layer}
        assert dict(zip(tree.arcs, tree.depths)) == depth
        # at each depth the arcs come in the reference's layer order, as extract_plan emits them
        assert [[arc for arc in tree.arcs if depth[arc] == d] for d in range(len(layers))] == layers
        kept = set(tree.arcs)
        seen.append((
            kind,
            len(layers) >= 3,
            any(len(layer) >= 2 for layer in layers),
            set(arcs) != kept,
            any(v.startswith("__pair") for _, v in kept),
        ))

    check()
    counts = {kind: sum(1 for case in seen if case[0] == kind) for kind in ("solved", "extra", "pairs")}
    # every kind is layered, with deep trees, shared layers, arcs left to
    # prune and pair nodes each turning up in more than a tenth of the trees
    assert min(counts.values()) > len(seen) // 10, counts
    features = [sum(column) for column in list(zip(*seen))[1:]]
    assert min(features) > len(seen) // 10, features


@st.composite
def small_task(draw, guarded: bool = True, least_effects: int = 1):
    """A task over one to four variables of one to five values each, so bit
    fields of one to three bits and domain sizes that are not powers of two.
    Actions have up to two preconditions when guarded, none otherwise, and
    least_effects to three effects.  The goal may leave any variable out, and
    each goal variable with a choice wants a value other than its initial one."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    size = {f"v{i}": n for i, n in enumerate(sizes)}

    def partial(least: int, most: int) -> dict:
        names = st.sampled_from(sorted(size))
        picked = draw(st.lists(names, min_size=least, max_size=most, unique=True))
        return {n: str(draw(st.integers(0, size[n] - 1))) for n in picked}

    init = partial(len(size), len(size))
    goal = {
        n: str((int(init[n]) + draw(st.integers(1, max(1, size[n] - 1)))) % size[n])
        for n in partial(1, len(size))
    }
    actions = [
        (f"a{j}", partial(0, 2 if guarded else 0), partial(least_effects, 3))
        for j in range(draw(st.integers(1, 6)))
    ]
    return make_query(size, actions, init, goal, draw(st.integers(1, 5)))


def test_move_lists_and_goal_counts_match_the_pairwise_references():
    # every generator's move list is the actions the pairwise rule keeps, in
    # declaration order; the goal fields each action sets to their goal value,
    # one popcount per action, are those read off its effect; and one popcount
    # of the packed init, and of its successor by each action, counts the goal
    # variables off their goal value, at every field width
    seen = []

    @seed(0xf7df59aa84f720c50dd7e2f8b25ff2239ab1a07167579d49640fb6ebe4138a3ff9d53a0c3b5fafec423ef272a74838a)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.booleans().flatmap(lambda guarded: small_task(guarded, least_effects=0)))
    def check(query):
        inst = query.instance
        (_, start), (goal_mask, goal_bits), actions = _packed(inst)
        moves = list(enumerate(actions))
        for b in range(len(actions)):
            kept = [a for a in range(len(actions)) if not redundant(a, b, actions)]
            assert [a for a, _ in _moves_after(b, moves, actions)] == kept
        counts = [
            sum(action.eff.get(name) == value for name, value in inst.goal.items())
            for action in inst.actions
        ]
        fixes = [
            eff_mask & goal_mask & ~((eff_bits ^ goal_bits) & goal_mask & eff_mask)
            for _, _, eff_mask, eff_bits in actions
        ]
        assert [mask.bit_count() for mask in fixes] == counts

        def off(state) -> int:
            return sum(state[name] != value for name, value in inst.goal.items())

        assert ((start ^ goal_bits) & goal_mask).bit_count() == off(inst.init)
        for action, (_, _, eff_mask, eff_bits) in zip(inst.actions, actions):
            successor = (start & ~eff_mask) | eff_bits
            after = {**inst.init, **action.eff}
            assert ((successor ^ goal_bits) & goal_mask).bit_count() == off(after)
        widths = {(len(v.domain) - 1).bit_length() for v in inst.variables if v.name in inst.goal}
        seen.append((
            any(a.pre for a in inst.actions),
            not any(a.pre for a in inst.actions),
            any(not a.eff for a in inst.actions),
            widths <= {0, 1},
            2 in widths,
            3 in widths,
        ))

    check()
    # guarded and precondition-free tasks, an effect-free action, goals of
    # one-bit fields only, and two- and three-bit goal fields each turn up in
    # more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


def test_successor_goal_bits_are_read_off_the_state_and_the_move():
    # keep and the effect mask split the bits, so the goal bits a successor
    # has off its goal value are the state's off bits it keeps and those the
    # move's effect sets off, and a state is a goal exactly when it has none
    # off; checked at the packed init and at each action's successor of it,
    # under every action, at every field width
    seen = []

    @seed(0xfa50d4b97060d8f7f3a1da65631bdf4c466215e3a92f6e8746773aeff59162a2c1a3361fe310edac9e4b0a3c4d126d1d)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.booleans().flatmap(lambda guarded: small_task(guarded, least_effects=0)))
    def check(query):
        inst = query.instance
        (everything, start), (goal_mask, goal_bits), actions = _packed(inst)
        moves = [
            (everything ^ eff_mask, eff_bits, (eff_bits ^ goal_bits) & goal_mask & eff_mask)
            for _, _, eff_mask, eff_bits in actions
        ]
        states = [start, *((start & keep) | bits for keep, bits, _ in moves)]
        for state in states:
            off = (state ^ goal_bits) & goal_mask
            assert (off == 0) == (state & goal_mask == goal_bits)
            for keep, bits, eff_off in moves:
                successor = (state & keep) | bits
                assert off & keep | eff_off == (successor ^ goal_bits) & goal_mask
        widths = {(len(v.domain) - 1).bit_length() for v in inst.variables if v.name in inst.goal}
        seen.append((
            any(a.pre for a in inst.actions),
            not any(a.pre for a in inst.actions),
            any(state & goal_mask == goal_bits for state in states),
            widths <= {0, 1},
            2 in widths,
            3 in widths,
        ))

    check()
    # guarded and precondition-free tasks, a goal state among those checked,
    # goals of one-bit fields only, and two- and three-bit goal fields each
    # turn up in more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


def test_packed_oracle_agrees_with_tuple_reference():
    sizes, seen = set(), []

    @seed(0x36501f4a8feba77f55408d950e18d8bc2448ab3facce2ebb16cf5cf845b42ff9130f31004327798b1ab3c05264b05680)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(small_task(), st.integers(1, 3))
    def check(query, short):
        inst = query.instance
        result = same_as_tuple_bfs(query)
        # a budget just short of what the search needed
        budget = max(1, result.explored_states - short)
        limited = same_as_tuple_bfs(query, max_states=budget) is None
        sizes.update(len(v.domain) for v in inst.variables)
        seen.append((
            result.decision,
            not result.decision,
            limited,
            len(inst.goal) < len(inst.variables),
            any(a.pre for a in inst.actions),
            tuple_bfs(query).explored_states > result.explored_states,
        ))

    check()
    assert sizes == {1, 2, 3, 4, 5}
    # YES, NO, an exhausted budget, a variable without a goal, a
    # precondition and a state the goal-count bound drops each turn up in
    # more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


@st.composite
def task_0e(draw):
    """A (0, <=3) task, the fragment of the paper's W[1]-hard clique gadget:
    one to four variables of one to four values, no precondition and one to
    three effects per action.  The goal may leave any variable out, and each
    goal variable with a choice wants a value other than its initial one."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    size = {f"v{i}": n for i, n in enumerate(sizes)}

    def partial(least: int, most: int) -> dict:
        names = st.sampled_from(sorted(size))
        picked = draw(st.lists(names, min_size=least, max_size=most, unique=True))
        return {n: str(draw(st.integers(0, size[n] - 1))) for n in picked}

    init = partial(len(size), len(size))
    goal = {
        n: str((int(init[n]) + draw(st.integers(1, max(1, size[n] - 1)))) % size[n])
        for n in partial(1, len(size))
    }
    actions = [(f"a{j}", {}, partial(1, 3)) for j in range(draw(st.integers(1, 8)))]
    return make_query(size, actions, init, goal, draw(st.integers(1, 5)))


def test_precondition_free_oracle_agrees_with_tuple_reference_at_every_budget():
    # precondition-free (0, <=3) tasks, guarded tasks and tasks with planted
    # action pairs, with one-bit and wider goal fields, so that both expansion
    # loops of decide_bfs, guarded and precondition-free, each meet levels
    # where the goal-count bound cannot drop a successor and levels where it does
    seen = []

    @seed(0xd4e86ac2b6de5d0ea5506c474383f280ef96f958071d6a8c5bfd65205b0eac7b10d3f08fd8e5dd79b3d2cc8df37c2e39)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.one_of(small_task(), task_0e(), task_with_planted_pairs()))
    def check(query):
        inst = query.instance
        result = same_as_tuple_bfs(query)
        # every budget from one state up to one past the states expanded
        limited = [
            same_as_tuple_bfs(query, max_states=budget) is None
            for budget in range(1, result.explored_states + 2)
        ]
        # the start level is unbounded when the goal fields off in init, plus
        # the most one action sets off, are within what k - 1 steps can set;
        # a state the bound drops shows a bounded level
        goal = inst.goal.items()
        per_step = max([1] + [sum(a.eff.get(n) == v for n, v in goal) for a in inst.actions])
        spoils = max([0] + [sum(a.eff.get(n, v) != v for n, v in goal) for a in inst.actions])
        off = sum(inst.init[n] != v for n, v in goal)
        unbounded = 0 < off and min(off + spoils, len(goal)) <= (query.k - 1) * per_step
        bounded = tuple_bfs(query).explored_states > result.explored_states
        guarded = any(a.pre for a in inst.actions)
        seen.append((
            result.decision,
            not result.decision,
            any(limited),
            any(len(a.eff) == 3 for a in inst.actions),
            any(len(v.domain) > 2 for v in inst.variables if v.name in inst.goal),
            guarded and unbounded,
            guarded and bounded,
            not guarded and unbounded,
            not guarded and bounded,
        ))

    check()
    # YES, NO, an exhausted budget, a three-effect action, a goal field wider
    # than one bit, and guarded and precondition-free tasks at levels the bound
    # can or cannot bite each turn up in more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


@st.composite
def clique_shaped_task(draw):
    """A task shaped like the paper's clique gadget, with one to three
    variables made dirty.  Vertex variables of two or three values want 0,
    and most have a lowering action; pair variables want 1, and each of
    their one to three setters also sets one or two vertex variables off 0.
    No action sets two goal variables, so per_step is 1.  Some tasks give
    actions a precondition, and some add an action that raises a vertex.
    The bound k lies near the goal variables off at the start, so that
    searches meet tight states.  With the task, three total states of it."""
    vertices = {f"u{i}": draw(st.integers(2, 3)) for i in range(draw(st.integers(1, 4)))}
    pairs = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    size = {**vertices, **dict.fromkeys(pairs, 2)}
    names = sorted(size)
    guarded = draw(st.booleans())

    def value(name: str, least: int = 0) -> str:
        return str(draw(st.integers(least, size[name] - 1)))

    def pre() -> dict:
        if not guarded or draw(st.booleans()):
            return {}
        name = draw(st.sampled_from(names))
        return {name: value(name)}

    actions = [(f"av.{u}", pre(), {u: "0"}) for u in vertices if draw(st.integers(0, 7))]
    vertex = st.sampled_from(sorted(vertices))
    for p in pairs:
        for j in range(draw(st.integers(1, 3))):
            raised = draw(st.lists(vertex, min_size=1, max_size=2, unique=True))
            actions.append((f"ae.{p}.{j}", pre(), {p: "1", **{u: value(u, 1) for u in raised}}))
    if draw(st.booleans()):
        u = draw(vertex)
        actions.append((f"up.{u}", pre(), {u: value(u, 1)}))
    init = {name: value(name) for name in names}
    goal = {**dict.fromkeys(vertices, "0"), **dict.fromkeys(pairs, "1")}
    # a bound near the goal variables off at the start, so tight states occur
    off = sum(init[name] != want for name, want in goal.items())
    query = make_query(size, actions, init, goal, max(1, off + draw(st.integers(-1, 3))))
    states = [tuple(value(v.name) for v in query.instance.variables) for _ in range(3)]
    return query, states


def test_stuck_tight_states_keep_the_bound_consistent_and_the_witness():
    # the bound with the stuck test, off + stuck at per_step 1, is at most
    # the steps a plan needs from each drawn state and falls by at most one
    # per applicable action; the oracle keeps every result of the bounded
    # tuple search and the witness of the unbounded one
    seen = []

    @seed(20261020)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(clique_shaped_task())
    def check(task):
        query, states = task
        inst = query.instance
        assert all(sum(a.eff.get(n) == v for n, v in inst.goal.items()) <= 1 for a in inst.actions)
        bound, plain = goal_bound(query), goal_bound(query, stuck=False)
        result = same_as_tuple_bfs(query)
        far = math.prod(len(v.domain) for v in inst.variables)  # no shortest plan is longer
        for state in states:
            start = replace(inst, init=PartialState(zip(inst.variable_index, state)))
            steps = tuple_bfs(BoundedQuery(start, far)).plan_length
            assert steps is None or bound(state) <= steps, (state, steps)
            for action in inst.actions:
                if all(state[inst.variable_index[n]] == v for n, v in action.pre.items()):
                    after = list(state)
                    for n, v in action.eff.items():
                        after[inst.variable_index[n]] = v
                    assert bound(state) <= bound(tuple(after)) + 1, (state, action.name)
        seen.append((
            result.decision,
            not result.decision,
            any(a.pre for a in inst.actions),
            any(bound(state) > plain(state) for state in states),
            tuple_bfs(query, bounded=True, stuck=False).explored_states > result.explored_states,
        ))

    check()
    # YES, NO, a precondition, a drawn state the stuck test raises the bound
    # on and a search the stuck test drops states from each turn up in more
    # than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), [
        sum(column) for column in zip(*seen)
    ]


@st.composite
def task_02(draw):
    """A (0, <=2) task over two to five variables of two to four values.
    The goal leaves some variables free, so an effect on them is good
    whatever it writes; each action has one or two effects and no
    precondition."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
    size = {f"v{i}": n for i, n in enumerate(sizes)}

    def partial(least: int, most: int) -> dict:
        names = st.sampled_from(sorted(size))
        picked = draw(st.lists(names, min_size=least, max_size=most, unique=True))
        return {n: str(draw(st.integers(0, size[n] - 1))) for n in picked}

    init = partial(len(size), len(size))
    goal = partial(1, len(size))
    actions = [(f"a{j}", {}, partial(1, 2)) for j in range(draw(st.integers(1, 7)))]
    return make_query(size, actions, init, goal, draw(st.integers(0, 5)))


def test_solve_agrees_with_the_oracle_on_02_tasks():
    seen = []

    @seed(0x7eaa9f0d48f4399f14e5205c5cdde1218bbe873d3e8133f1bc48c766848fdc18e2f0e2e4184c9d0f567116b1f057f3ad)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(task_02())
    def check(query):
        inst = query.instance
        fast = solve(query)
        slow = decide_bfs(query)
        assert fast.method == "fpt02"
        assert fast.decision == slow.decision
        assert fast.plan_length == slow.plan_length
        if fast.decision:
            assert validate_plan(inst, fast.witness).valid
        goal = inst.goal
        kinds = [
            [goal.get(var, value) == value for var, value in a.eff.items()]
            for a in inst.actions
        ]
        seen.append((
            fast.decision,
            not fast.decision,
            any(len(v.domain) > 2 for v in inst.variables),
            # a good effect on a goal-free variable
            any(v not in goal for a in inst.actions for v in a.eff),
            any(True in k and False in k for k in kinds),
            any(k == [True, True] for k in kinds),
        ))

    check()
    # YES, NO, a domain of three or more values, a goal-free write, a mixed
    # action and a two-effect good action (a pair node) each turn up in more
    # than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


@st.composite
def task_02_or_covered(draw):
    """A task_02 task or, when True is drawn (about one example in four),
    the same task with a goal that sets every variable off its initial
    value, one more action per two of those entries that writes them, and
    a bound from the count of those actions to one below the count of
    entries.  The second kind is a YES with more than k broken variables,
    which task_02 draws in under one example of a hundred; task_02 gives
    the other answers.  Over 60 seeds of 300 examples, each answer the
    test below counts turned up in at least 17% of them."""
    query = draw(task_02())
    if not draw(st.booleans()):
        return query
    inst = query.instance
    entries = [
        (v.name, v.domain[(v.domain.index(inst.init[v.name]) + 1) % len(v.domain)])
        for v in inst.variables
    ]
    writers = tuple(
        Action(f"w{i}", PartialState(), PartialState(entries[i:i + 2]))
        for i in range(0, len(entries), 2)
    )
    k = draw(st.integers(len(writers), len(entries) - 1))
    return BoundedQuery(replace(inst, actions=inst.actions + writers, goal=PartialState(entries)), k)


def test_answers_given_before_the_reduction_agree_with_the_oracle():
    seen = []

    @seed(0xeba18afc2f8b932d164385bb1173ae3d5e2275d563b9f4e892546fd7ce849f58287fd8b4ef09368d7c0620851b69967d)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(task_02_or_covered())
    def check(query):
        inst = query.instance
        fast = solve_02(query)
        slow = decide_bfs(query)
        assert fast.decision == slow.decision
        assert fast.plan_length == slow.plan_length
        broken = [v for v, x in inst.goal.items() if inst.init[v] != x]
        written = {entry for a in inst.actions for entry in a.eff.items()}
        nothing = not broken
        too_many = len(broken) > 2 * query.k
        unwritten = any((v, inst.goal[v]) not in written for v in broken)
        if nothing:
            assert fast.witness == ()
        if nothing or too_many or unwritten:
            assert fast.dp_table_entries is None
        seen.append((
            nothing,
            unwritten,
            too_many,
            not (nothing or unwritten or too_many),
            fast.decision and len(broken) > query.k,
        ))

    check()
    # nothing broken, an unwritten goal value, more than 2k broken, a task
    # left to the reduction, and a YES with more than k broken each turn up
    # in more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


PAIR_KINDS = ("commute", "cover", "reads", "conflict")


@st.composite
def task_with_planted_pairs(draw):
    """A task over three to five variables of two or three values with one to
    three planted pairs of actions, each declared in either order: a pair
    that commutes (one shared variable set to the same value, one more
    variable each), one action whose effects cover the other's, one that
    reads a variable the other writes, or two that set a shared variable to
    different values.  Preconditions on the pair's own variables make the
    pairs apply in some states only.  Each goal variable wants a value other
    than its initial one."""
    names = [f"v{i}" for i in range(draw(st.integers(3, 5)))]
    size = {n: draw(st.integers(2, 3)) for n in names}

    def value(name: str) -> str:
        return str(draw(st.integers(0, size[name] - 1)))

    def guard(name: str) -> dict:
        return {name: value(name)} if draw(st.booleans()) else {}

    actions = []
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(PAIR_KINDS))
        shared, left, right = draw(st.permutations(names))[:3]
        x = value(shared)
        if kind == "commute":
            pair = [(guard(left), {shared: x, left: value(left)}),
                    (guard(right), {shared: x, right: value(right)})]
        elif kind == "cover":
            pair = [(guard(right), {shared: x}),
                    (guard(right), {shared: value(shared), left: value(left)})]
        elif kind == "reads":
            pair = [(guard(right), {shared: x, right: value(right)}),
                    ({shared: value(shared)}, {left: value(left)})]
        else:
            y = str((int(x) + draw(st.integers(1, size[shared] - 1))) % size[shared])
            pair = [(guard(left), {shared: x, left: value(left)}),
                    (guard(right), {shared: y, right: value(right)})]
        for i, (pre, eff) in enumerate(draw(st.permutations(pair))):
            actions.append((f"{kind}{j}_{i}", pre, eff))
    init = {n: value(n) for n in names}
    wanted = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    goal = {n: str((int(init[n]) + draw(st.integers(1, size[n] - 1))) % size[n]) for n in wanted}
    return make_query(size, actions, init, goal, draw(st.integers(2, 5)))


def pair_kinds(inst) -> set[str]:
    """The kinds of ordered action pair (a, b) in a task, read off the
    actions' variables and values."""
    kinds = set()
    for a, b in itertools.permutations(inst.actions, 2):
        shared = set(a.eff) & set(b.eff)
        if set(a.pre) & set(b.eff) or set(b.pre) & set(a.eff):
            kinds.add("reads")
        elif any(a.eff[n] != b.eff[n] for n in shared):
            kinds.add("conflict")
        elif set(b.eff) <= set(a.eff):
            kinds.add("cover")
        elif shared:
            kinds.add("commute")
    return kinds


def test_skip_rules_keep_the_tuple_reference_result():
    # the oracle skips successors by cover and commute; the tuple search,
    # which tries every action, must agree on every result and every budget
    # message under the goal-count bound, and on the answer without it
    seen = []

    @seed(0x6545ba2847c7f1f5b485f80a0e996d26a0ffeac620f155ce71dd25cdc52288451a333958c9740a59553fbad0be132307)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(task_with_planted_pairs(), st.integers(1, 3))
    def check(query, short):
        result = same_as_tuple_bfs(query)
        budget = max(1, result.explored_states - short)
        limited = same_as_tuple_bfs(query, max_states=budget) is None
        kinds = pair_kinds(query.instance)
        pruned = tuple_bfs(query).explored_states > result.explored_states
        seen.append((*(kind in kinds for kind in PAIR_KINDS), result.decision, limited, pruned))

    check()
    # each kind of pair, a YES, an exhausted budget and a state the goal-count
    # bound drops each turn up in more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen


KEYWORDS = ("SASBP", "var", "init", "goal", "action", "pre", "eff", "end", "k")


@st.composite
def instance_text(draw) -> tuple[str, bool]:
    """The canonical text of a generated task, or that text with one line
    deleted, duplicated, re-keyworded, cut to a bare keyword, given a tab,
    extra tokens or a reserved name, or joined by a comment or a blank line;
    or the text cut short after a line.  With it, whether to allow reserved
    names."""
    text = write_instance(draw(small_task()))
    lines = text.splitlines()
    # The mutation is picked by a Random seeded from the text: hypothesis
    # favours the first of a set of choices, and small seeds, which would
    # leave most sections and kinds unused.
    rng = random.Random(text + str(draw(st.integers(0, 9))))
    # pick a section first, so that each is mutated about as often
    heads = [line.split(" ", 1)[0] for line in lines]
    head = rng.choice(sorted(set(heads), key=heads.index))
    i = rng.choice([j for j, h in enumerate(heads) if h == head])
    line = lines[i]
    at = i + rng.randint(0, 1)  # a new line goes just before or after it
    kind = rng.choice((
        "canonical", "delete", "duplicate", "keyword", "bare", "tab", "extra",
        "comment", "truncate", "reserved",
    ))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(at, line)
    elif kind == "keyword":
        _, space, rest = line.partition(" ")
        lines[i] = rng.choice(KEYWORDS) + space + rest
    elif kind == "bare":
        lines.insert(at, rng.choice(("var", "action", "k")))
    elif kind == "tab":
        if " " in line and rng.random() < 0.5:
            lines[i] = line.replace(" ", "\t", 1)
        else:
            cut = rng.randint(0, len(line))
            lines[i] = line[:cut] + "\t" + line[cut:]
    elif kind == "extra":
        lines[i] = line + " " + rng.choice(("x", "v0=0", "0", "end", "k 1"))
    elif kind == "comment":
        extra = rng.choice(("", "  \t ", "# note", "  # var x 0 1"))
        if extra.strip() and rng.random() < 0.5:
            lines[i] = line + "  " + extra.strip()
        else:
            lines.insert(at, extra)
    elif kind == "truncate":
        del lines[at:]
    elif kind == "reserved":
        lines[i] = line.replace(" ", " __", 1)
    return "\n".join(lines) + "\n", rng.random() < 0.5


def _parsed(parse, text, allow_reserved):
    """The query, or the FormatError message; anything else propagates."""
    try:
        return parse(text, allow_reserved)
    except FormatError as error:
        return f"FormatError: {error}"


def test_parser_agrees_with_reference_parser():
    parsed = []

    @seed(0x9ccfcb52ae0012cdc321ca14e358e30778f0350e6000dd4f146a662804ecf9995ba647dbc3d2b0e11bf2fdf6d5b9e5a5)
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(instance_text())
    def check(case):
        text, allow_reserved = case
        outcome = _parsed(parse_instance, text, allow_reserved)
        assert outcome == _parsed(reference_parse_instance, text, allow_reserved), text
        parsed.append(not isinstance(outcome, str))
        if isinstance(outcome, str):
            return
        canonical = write_instance(outcome)
        again = parse_instance(canonical, allow_reserved)
        assert again == outcome and write_instance(again) == canonical

    check()
    # both parsed queries and FormatErrors make up more than a tenth
    assert min(sum(parsed), len(parsed) - sum(parsed)) > len(parsed) // 10, sum(parsed)


@st.composite
def task_and_plan(draw):
    """A task with preconditions and a plan that breaks a precondition,
    names an unknown action, misses the goal or is valid.  Where the task
    gives no way to break or miss, one blocking action or one goal entry is
    added."""
    inst = draw(small_task()).instance
    kind = draw(st.sampled_from(("violation", "unknown", "goal", "valid")))
    state = dict(inst.init)
    plan = []

    def applicable(action):
        return all(state[n] == v for n, v in action.pre.items())

    def other_value():
        variable = draw(st.sampled_from([v for v in inst.variables if len(v.domain) > 1]))
        value = draw(st.sampled_from([x for x in variable.domain if x != state[variable.name]]))
        return variable.name, value

    for _ in range(draw(st.integers(0, 4))):
        ready = [a for a in inst.actions if applicable(a)]
        if not ready:
            break
        action = draw(st.sampled_from(ready))
        plan.append(action.name)
        state.update(action.eff)
    movable = any(len(v.domain) > 1 for v in inst.variables)
    if kind == "violation" and movable:
        blocked = [a for a in inst.actions if not applicable(a)]
        if not blocked:
            blocked = [Action("blocked", PartialState([other_value()]), PartialState())]
            inst = replace(inst, actions=inst.actions + tuple(blocked))
        plan.append(draw(st.sampled_from(blocked)).name)
        plan += draw(st.lists(st.sampled_from([a.name for a in inst.actions]), max_size=2))
    elif kind == "unknown":
        plan.insert(draw(st.integers(0, len(plan))), "ghost")
    elif kind == "goal" and movable:
        name, value = other_value()
        inst = replace(inst, goal=PartialState({**inst.goal, name: value}))
    elif kind == "valid":
        # the goal becomes part of where the walk ended
        kept = draw(st.lists(st.sampled_from(sorted(state)), unique=True))
        inst = replace(inst, goal=PartialState({n: state[n] for n in kept}))
    return inst, plan


def test_plan_validation_agrees_with_reference_validator():
    reasons = []

    @seed(0xc31e03db423ad8c5351784cf15e91457798e23e5b74021248ae9fd5a8202210735b2ab5ab0fc2839f7a0c4086f05459f)
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(task_and_plan())
    def check(task):
        inst, plan = task
        report = validate_plan(inst, plan)
        expected = reference_validate_plan(inst, plan)
        assert report == expected
        assert (report.valid, report.failed_step, report.reason) == (
            expected.valid, expected.failed_step, expected.reason,
        )
        reasons.append("valid" if report.valid else report.reason.split(":")[0].split()[0])

    check()
    # each outcome turns up in more than a tenth of the examples
    counts = {r: reasons.count(r) for r in ("valid", "unknown", "precondition", "final")}
    assert min(counts.values()) > len(reasons) // 10, counts


@st.composite
def profile_task(draw):
    """A task over one to three variables of one to three values each, with
    up to six actions of zero to three effects.  About half the tasks give
    every action one or two preconditions, the rest none at all."""
    sizes = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3))
    size = {f"v{i}": n for i, n in enumerate(sizes)}
    guarded = draw(st.booleans())

    def partial(least: int, most: int) -> dict:
        names = st.sampled_from(sorted(size))
        picked = draw(st.lists(names, min_size=least, max_size=most, unique=True))
        return {n: str(draw(st.sampled_from(range(size[n])))) for n in picked}

    init = partial(len(size), len(size))
    actions = [
        (f"a{j}", partial(1, 2) if guarded else {}, partial(0, 3))
        for j in range(draw(st.integers(0, 6)))
    ]
    return make_query(size, actions, init, partial(0, len(size)), 1)


def test_detect_profile_agrees_with_the_flag_definitions():
    seen = []

    @seed(0xa68dc90a34799a6c553085d0f94d0d6dddb958f71b41cad10b04f5897756d5403635c4ebb7b59f7826154feaccc6f82b)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(profile_task())
    def check(query):
        inst = query.instance
        actions = inst.actions
        writes = [entry for a in actions for entry in a.eff.items()]
        prevail_values = {}
        for a in actions:
            for name, value in a.pre.items():
                if name not in a.eff:
                    prevail_values.setdefault(name, set()).add(value)
        expected = RestrictionProfile(
            has_P=all(writes.count(entry) == 1 for entry in writes),
            has_U=all(len(a.eff) == 1 for a in actions),
            has_B=all(len(v.domain) == 2 for v in inst.variables),
            has_S=all(len(values) == 1 for values in prevail_values.values()),
            max_preconditions=max((len(a.pre) for a in actions), default=0),
            max_effects=max((len(a.eff) for a in actions), default=0),
        )
        assert detect_profile(inst) == expected
        seen.append((
            expected.has_P,
            expected.has_U,
            expected.has_B,
            expected.has_S,
            expected.max_preconditions == 0,
            any(not a.eff for a in actions),
        ))

    check()
    # every flag holds and fails, tasks without any precondition and tasks
    # with an effect-free action each turn up, in more than a tenth of the
    # examples
    held = [sum(column) for column in zip(*seen)]
    assert min(held + [len(seen) - n for n in held[:4]]) > len(seen) // 10, held


def test_every_derandomized_property_pins_its_seed():
    unpinned, derandomized = [], 0
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if not isinstance(node, ast.FunctionDef):
            continue
        calls = {
            d.func.id: d
            for d in node.decorator_list
            if isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        }
        keywords = {kw.arg: kw.value for kw in getattr(calls.get("settings"), "keywords", ())}
        if "derandomize" in keywords and ast.literal_eval(keywords["derandomize"]):
            derandomized += 1
            if "seed" not in calls:
                unpinned.append(node.lineno)
    assert derandomized >= 15
    assert unpinned == []
