"""Property tests: generated instances checked against the brute-force
references.  Examples are derandomized, so every run sees the same ones."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sasbp.steiner import SteinerInstance, brute_dst, solve_dst  # noqa: E402
from helpers import reaches_all  # noqa: E402


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
