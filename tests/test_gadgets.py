import hashlib
import itertools
import json
import random

import pytest

from sasbp.gadgets import (
    NO,
    UNKNOWN,
    YES,
    GadgetOutput,
    MulticoloredGraph,
    compose_or_02,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_02,
    or_input_pub,
    or_threshold,
)
from sasbp.fileformat import write_instance
from sasbp.core import validate_plan
from sasbp.oracle import decide_bfs
from sasbp.planner02 import reduce_to_steiner, solve_02
from sasbp.restrictions import detect_profile, split_effects
from helpers import make_query, reference_clique


def tiny_yes_query(k=1):
    return make_query(
        {"x": 2}, [("set", {}, {"x": "1"})], {"x": "0"}, {"x": "1"}, k
    )


class TestGadgetOutput:
    def test_accepts_a_checked_witness(self):
        out = GadgetOutput(tiny_yes_query(), YES, witness=("set",))
        assert out.ground_truth == YES and out.notes == {}

    def test_rejects_unknown_truth_literal(self):
        with pytest.raises(ValueError, match="yes/no/unknown"):
            GadgetOutput(tiny_yes_query(), "maybe")

    def test_rejects_witness_on_non_yes(self):
        with pytest.raises(ValueError, match="non-YES"):
            GadgetOutput(tiny_yes_query(), NO, witness=("set",))

    def test_rejects_witness_over_bound(self):
        with pytest.raises(ValueError, match="bound"):
            GadgetOutput(tiny_yes_query(1), YES, witness=("set", "set"))

    def test_rejects_invalid_witness(self):
        with pytest.raises(ValueError, match="certify"):
            GadgetOutput(tiny_yes_query(), YES, witness=("missing",))

    def test_yes_without_witness_is_allowed(self):
        out = GadgetOutput(tiny_yes_query(), YES)
        assert out.witness is None


class TestMulticoloredGraph:
    def test_canonicalizes_edges(self):
        g = MulticoloredGraph(
            classes=(("a1", "a2"), ("b1",)),
            edges=(("b1", "a2"), ("a1", "b1"), ("a2", "b1")),
        )
        # oriented low class first, deduplicated, declaration order
        assert g.edges == (("a1", "b1"), ("a2", "b1"))
        assert g.vertex_class == {"a1": 0, "a2": 0, "b1": 1}

    def test_rejects_bad_vertices_and_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            MulticoloredGraph((("a", "a"),), ())
        with pytest.raises(ValueError, match="unknown"):
            MulticoloredGraph((("a",),), (("a", "z"),))
        with pytest.raises(ValueError, match="color class"):
            MulticoloredGraph((("a", "b"),), (("a", "b"),))

    def test_factories(self):
        g = MulticoloredGraph.complete(3, 2)
        assert g.classes == (("v1.1", "v1.2"), ("v2.1", "v2.2"), ("v3.1", "v3.2"))
        assert len(g.edges) == 3 * 4
        assert MulticoloredGraph.empty(3, 2).edges == ()
        assert MulticoloredGraph.random(3, 2, 1.0, rng=0).edges == g.edges
        assert MulticoloredGraph.random(3, 2, 0.0, rng=0).edges == ()
        assert (
            MulticoloredGraph.random(4, 2, 0.5, rng=11).edges
            == MulticoloredGraph.random(4, 2, 0.5, rng=11).edges
        )

    @pytest.mark.parametrize("edge_prob", [-0.1, 1.5, 2, float("nan")])
    def test_random_rejects_a_probability_outside_the_unit_interval(self, edge_prob):
        with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\]"):
            MulticoloredGraph.random(3, 2, edge_prob, rng=0)

    @pytest.mark.parametrize("build", ["empty", "complete", "random"])
    @pytest.mark.parametrize("per_class", [0, -2])
    def test_every_builder_rejects_a_class_without_vertices(self, build, per_class):
        args = (3, per_class, 0.5) if build == "random" else (3, per_class)
        with pytest.raises(ValueError, match="at least one vertex per color class"):
            getattr(MulticoloredGraph, build)(*args)


class TestCliqueGadget:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two color classes"):
            gen_clique_gadget(MulticoloredGraph.empty(1, 2))

    def test_complete_graph_is_yes(self):
        out = gen_clique_gadget(MulticoloredGraph.complete(3, 2))
        assert out.ground_truth == YES
        assert out.query.k == 6 and len(out.witness) == 6
        assert out.notes["clique"] == ("v1.1", "v2.1", "v3.1")
        assert out.witness == (
            "ae.v1.1.v2.1",
            "ae.v1.1.v3.1",
            "ae.v2.1.v3.1",
            "av.v1.1",
            "av.v2.1",
            "av.v3.1",
        )

    def test_empty_graph_is_no(self):
        out = gen_clique_gadget(MulticoloredGraph.empty(3, 2))
        assert out.ground_truth == NO and out.witness is None

    def test_shape_and_profile(self):
        out = gen_clique_gadget(MulticoloredGraph.complete(3, 2))
        inst = out.query.instance
        assert len(inst.variables) == 6 + 3
        assert len(inst.actions) == 6 + 12
        profile = detect_profile(inst)
        assert profile.max_preconditions == 0
        assert profile.max_effects == 3

    def test_clique_is_the_first_pick_in_product_order(self):
        # the backtracking search against the product scan, at every density
        rng = random.Random(2026)
        yes = 0
        for _ in range(400):
            g = MulticoloredGraph.random(
                rng.randint(2, 5), rng.randint(1, 4), rng.random(), rng=rng
            )
            clique = reference_clique(g)
            out = gen_clique_gadget(g)
            assert out.notes.get("clique") == clique, g
            assert (out.ground_truth == YES) == (clique is not None), g
            yes += clique is not None
        assert 80 < yes < 320, yes

    def test_truth_matches_search_oracle_on_random_graphs(self):
        rng = random.Random(5150)
        yes = no = 0
        for trial in range(30):
            g = MulticoloredGraph.random(
                rng.choice((2, 3)), rng.choice((1, 2)), rng.random(), rng=rng
            )
            out = gen_clique_gadget(g)
            oracle = decide_bfs(out.query)
            assert (out.ground_truth == YES) == oracle.decision, g
            if oracle.decision:
                yes += 1
                # one edge per class pair plus one reset per class, exactly
                assert oracle.plan_length == out.query.k
                assert len(out.witness) == out.query.k
            else:
                no += 1
        assert yes > 5 and no > 5


class TestOr2:
    # the two-input OR gadget is the OR tree at two bits
    @pytest.mark.parametrize("v1,v2", [(False, False), (False, True), (True, False), (True, True)])
    def test_truth_table(self, v1, v2):
        out = gen_or_tree((v1, v2))
        assert out.query.k == 6
        oracle = decide_bfs(out.query)
        assert (out.ground_truth == YES) == oracle.decision == (v1 or v2)
        if v1 or v2:
            assert len(out.witness) == 6
            assert oracle.plan_length == 6

    def test_profile_is_pub_but_not_s(self):
        profile = detect_profile(gen_or_tree((True, False)).query.instance)
        assert profile.has_P and profile.has_U and profile.has_B
        assert not profile.has_S


class TestOrTree:
    def test_single_bit_degenerates_to_the_leaf(self):
        yes = gen_or_tree([True])
        assert yes.ground_truth == YES and yes.witness == () and yes.query.k == 0
        no = gen_or_tree([False])
        assert no.ground_truth == NO and no.query.k == 0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            gen_or_tree(())

    @pytest.mark.parametrize("r,bound", [(2, 6), (3, 12), (4, 12), (5, 18)])
    def test_bound_grows_with_tree_depth(self, r, bound):
        assert gen_or_tree([0] * r).query.k == bound

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_truth_matches_search_oracle(self, r):
        for hot in range(-1, r):
            bits = [j == hot for j in range(r)]
            out = gen_or_tree(bits)
            oracle = decide_bfs(out.query)
            assert (out.ground_truth == YES) == oracle.decision == any(bits)
            if any(bits):
                # one gadget firing per tree level along the leaf's path
                assert len(out.witness) % 6 == 0
                assert len(out.witness) <= out.query.k
                assert oracle.plan_length <= len(out.witness)


def test_or_threshold_values():
    assert or_threshold(0) == 64
    assert or_threshold(1) == 82944
    with pytest.raises(ValueError):
        or_threshold(-1)


def pub_yes(k=2):
    # one step of slack below the bound, for tree paths of uneven depth
    q = make_query(
        {"x1": 2}, [("set1", {}, {"x1": "1"})], {"x1": "0"}, {"x1": "1"}, k
    )
    return GadgetOutput(q, YES, witness=("set1",))


def pub_no(k=2):
    q = make_query({"y": 2}, [], {"y": "0"}, {"y": "1"}, k)
    return GadgetOutput(q, NO)


class TestComposeOrPub:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            compose_or_pub([pub_yes()])
        with pytest.raises(ValueError, match="share one bound"):
            compose_or_pub([pub_yes(2), pub_no(3)])
        clique = gen_clique_gadget(MulticoloredGraph.complete(2, 1))
        with pytest.raises(ValueError, match="postunique unary Boolean"):
            compose_or_pub([clique, clique])

    def test_threshold_is_enforced(self):
        trivial = GadgetOutput(
            make_query({"x": 2}, [], {"x": "0"}, {"x": "0"}, 0), YES, witness=()
        )
        with pytest.raises(ValueError, match="at most 64"):
            compose_or_pub([trivial] * 65)
        compose_or_pub([trivial] * 64)

    def test_yes_composition_checked_against_oracle(self):
        out = compose_or_pub([pub_yes(), pub_no(), pub_no()])
        assert out.ground_truth == YES
        assert out.notes == {
            "t": 3,
            "input_bound": 2,
            "tree_depth": 2,
            "chosen_input": 1,
        }
        assert out.query.k == 2 + 12
        profile = detect_profile(out.query.instance)
        assert profile.has_P and profile.has_U and profile.has_B
        oracle = decide_bfs(out.query)
        assert oracle.decision
        assert oracle.plan_length == len(out.witness) == 14

    def test_no_composition_checked_against_oracle(self):
        out = compose_or_pub([pub_no(), pub_no(), pub_no()])
        assert out.ground_truth == NO and out.witness is None
        assert not decide_bfs(out.query).decision

    def test_tight_witnesses_yield_unknown(self):
        # a length-6 input witness plus selector and one tree level needs 13,
        # one more than the composed bound of 12
        out = compose_or_pub([gen_or_tree((True, False)), gen_or_tree((False, False))])
        assert out.ground_truth == UNKNOWN
        assert "reason" in out.notes and out.witness is None

    def test_pub_inputs_need_a_step_of_slack(self):
        # at k = 0 a YES input would need 0 steps, and its selector step
        # would not fit: the composition could only answer unknown
        for yes in (True, False):
            with pytest.raises(ValueError, match=r"k >= 1 .*, got 0"):
                or_input_pub(0, yes)
        yes = or_input_pub(1, True)
        assert yes.query.k == 1 and yes.witness == ()
        out = compose_or_pub([yes, or_input_pub(1, False)])
        assert out.ground_truth == YES
        assert decide_bfs(out.query).plan_length == len(out.witness) == 7


def q02_yes(k=1):
    q = make_query(
        {"z": 2}, [("zset", {}, {"z": "1"})], {"z": "0"}, {"z": "1"}, k
    )
    return GadgetOutput(q, YES, witness=("zset",))


def q02_no(k=1):
    q = make_query({"w": 2}, [], {"w": "0"}, {"w": "1"}, k)
    return GadgetOutput(q, NO)


def two_effect_input(yes, k=2):
    # the chain-transform fixture: ab writes two goal bits at once and swap
    # is mixed; the NO shape also wants d = 1, so a plan needs three steps
    domains = {"a": 2, "b": 2, "c": 2, "d": 2}
    actions = [
        ("ab", {}, {"a": "1", "b": "1"}),
        ("cfix", {}, {"c": "1"}),
        ("dfix", {}, {"d": "1"}),
        ("swap", {}, {"a": "1", "c": "0"}),
        ("wreck", {}, {"c": "0"}),
    ]
    goal = {"a": "1", "b": "1", "c": "1", "d": "0" if yes else "1"}
    q = make_query(domains, actions, dict.fromkeys(domains, "0"), goal, k)
    oracle = decide_bfs(q)
    return GadgetOutput(q, YES if oracle.decision else NO, witness=oracle.witness)


class TestComposeOr02:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            compose_or_02([q02_yes()])
        with pytest.raises(ValueError, match="share one bound"):
            compose_or_02([q02_yes(1), q02_no(2)])
        with pytest.raises(ValueError, match="precondition-free"):
            compose_or_02([gen_or_tree((True, False)), gen_or_tree((False, False))])

    def test_rejects_inputs_with_too_much_damage(self):
        q = make_query(
            {"a": 2, "b": 2}, [], {"a": "0", "b": "0"}, {"a": "1", "b": "1"}, 0
        )
        hopeless = GadgetOutput(q, NO)
        with pytest.raises(ValueError, match="cannot be hosted"):
            compose_or_02([hopeless, q02_no(0)])

    def test_bound_zero_composition_both_ways(self):
        settled = GadgetOutput(
            make_query({"a": 2}, [], {"a": "0"}, {"a": "0"}, 0), YES, witness=()
        )
        out = compose_or_02([settled, q02_no(0)])
        assert out.ground_truth == YES
        assert out.query.k == 4 * 1 + 1
        assert decide_bfs(out.query).decision

        out = compose_or_02([q02_no(0), q02_no(0)])
        assert out.ground_truth == NO
        assert not decide_bfs(out.query).decision

    def test_feeds_back_into_the_steiner_pipeline(self):
        out = compose_or_02([q02_yes(), q02_no()])
        assert out.ground_truth == YES
        assert out.notes["chain_bound"] == 5
        assert out.notes["machine_vars"] == 5 + 2 * 9 + 1
        assert out.query.k == 21
        assert len(out.witness) == 20

        inst = out.query.instance
        profile = detect_profile(inst)
        assert profile.max_preconditions == 0
        assert profile.max_effects <= 2
        assert not any(
            not split_effects(a, inst.goal)[1] and len(a.eff) == 2
            for a in inst.actions
        )

        result = solve_02(out.query)
        assert result.decision
        assert result.plan_length <= len(out.witness)
        assert validate_plan(inst, result.witness).valid

        allno = compose_or_02([q02_no(), q02_no()])
        assert allno.ground_truth == NO
        assert not solve_02(allno.query).decision

    def test_all_no_composition_stops_before_the_subset_table(self):
        # Repairing a selector bit breaks an input's goal variable, which no
        # action writes, so no selector bit is reachable from the root and
        # the Steiner solver answers NO from its single-terminal rows alone.
        out = compose_or_02([q02_no(2), q02_no(2)])
        assert out.ground_truth == NO
        result = solve_02(out.query)
        terminals = reduce_to_steiner(out.query).steiner.terminals
        assert 2 <= len(terminals) <= out.query.k
        assert not result.decision
        assert result.dp_table_entries is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_high_rungs_are_solved_exactly(self, k):
        # 19 (k=3) or 29 (k=4) terminals before the presolve; forcing the
        # single in-arc of each sink and merging the twin sinks of the YES
        # inputs leaves a table small enough to solve, for every pattern
        for t in (2, 3, 4):
            lengths = set()
            for pattern in itertools.product("yn", repeat=t):
                out = compose_or_02([or_input_02(k, c == "y") for c in pattern])
                result = solve_02(out.query)
                assert result.decision == (out.ground_truth == YES), pattern
                if result.decision:
                    assert validate_plan(out.query.instance, result.witness).valid
                    assert result.plan_length == len(result.witness) <= out.query.k
                    lengths.add(result.plan_length)
            assert len(lengths) == 1, (t, lengths)

    @pytest.mark.parametrize("pattern", ["yn", "ny", "nn", "yy"])
    def test_two_effect_inputs_compose(self, pattern):
        inputs = [two_effect_input(c == "y") for c in pattern]
        assert [g.ground_truth for g in inputs] == [YES if c == "y" else NO for c in pattern]
        out = compose_or_02(inputs)
        assert out.ground_truth == (YES if "y" in pattern else NO)
        result = solve_02(out.query)
        assert result.decision == ("y" in pattern)
        if result.decision:
            assert validate_plan(out.query.instance, result.witness).valid
            assert result.plan_length == len(result.witness) <= out.query.k

    def test_yes_without_witness_still_propagates(self):
        silent = GadgetOutput(q02_yes().query, YES)
        out = compose_or_02([silent, q02_no()])
        assert out.ground_truth == YES and out.witness is None
        assert "chosen_input" not in out.notes

    def test_unknown_inputs_propagate_as_unknown(self):
        murky = GadgetOutput(q02_no().query, UNKNOWN)
        out = compose_or_02([murky, q02_no()])
        assert out.ground_truth == UNKNOWN and "reason" in out.notes


def _golden_cases(family):
    """Every generator output of one family on the pinned grid, in order."""
    if family == "clique":
        for classes, per_class in ((2, 2), (3, 2), (3, 3), (4, 2)):
            yield gen_clique_gadget(MulticoloredGraph.complete(classes, per_class))
            yield gen_clique_gadget(MulticoloredGraph.empty(classes, per_class))
            for seed in range(5):
                graph = MulticoloredGraph.random(classes, per_class, 0.5, seed)
                yield gen_clique_gadget(graph)
    elif family == "ortree":
        for r in range(1, 8):
            for bits in itertools.product((False, True), repeat=r):
                yield gen_or_tree(bits)
    elif family == "compose-pub":
        for k in range(1, 4):
            for t in range(2, 6):
                for pattern in itertools.product((True, False), repeat=t):
                    yield compose_or_pub([or_input_pub(k, yes) for yes in pattern])
    else:
        for k in range(4):
            for t in range(2, 5):
                for pattern in itertools.product((True, False), repeat=t):
                    yield compose_or_02([or_input_02(k, yes) for yes in pattern])


def _golden_digest(family):
    digest = hashlib.sha256()
    count = 0
    for out in _golden_cases(family):
        record = [out.ground_truth, out.witness, out.notes]
        digest.update(write_instance(out.query).encode())
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize(
    "family,count,sha256",
    [
        (
            "clique",
            28,
            "c17af7159edd529ae54f7403e270afe7b2aded07077903f79374f251cc6df8a7",
        ),
        (
            "ortree",
            254,
            "2d5ae8aa06e0c53c89a5b85be62739495caca91bd0cb7935f191a2839c334d80",
        ),
        (
            "compose-pub",
            180,
            "9f0e2df0f06867d348b2b17b02cb0adbb8287795e9eb70643db517e57b8aee20",
        ),
        (
            "compose-02",
            112,
            "ff8476dc19a7d7c4a7a2e50e7053ff46eae677dddeb15aff2a515a4e9f3c5114",
        ),
    ],
)
def test_generated_bytes_are_pinned(family, count, sha256):
    # instance text, truth, witness and notes of every single-effect
    # generator output on a fixed grid; refactors must not move a byte
    assert _golden_digest(family) == (count, sha256)
