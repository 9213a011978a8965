"""Property tests: generated instances checked against the brute-force
references.  Examples are derandomized, so every run sees the same ones."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sasbp.steiner import SteinerInstance, brute_dst, solve_dst  # noqa: E402
from helpers import make_query, reaches_all, same_as_tuple_bfs  # noqa: E402


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
def small_task(draw):
    """A task with preconditions over one to four variables of one to five
    values each, so bit fields of one to three bits and domain sizes that are
    not powers of two.  The goal may leave any variable out, and each goal
    variable with a choice wants a value other than its initial one."""
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
    actions = [(f"a{j}", partial(0, 2), partial(1, 3)) for j in range(draw(st.integers(1, 6)))]
    return make_query(size, actions, init, goal, draw(st.integers(1, 5)))


def test_packed_oracle_agrees_with_tuple_reference():
    sizes, seen = set(), []

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
        ))

    check()
    assert sizes == {1, 2, 3, 4, 5}
    # YES, NO, an exhausted budget, a variable without a goal and a
    # precondition each turn up in more than a tenth of the examples
    assert all(sum(column) > len(seen) // 10 for column in zip(*seen)), seen
