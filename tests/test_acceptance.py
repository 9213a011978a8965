"""Acceptance gate: ten end-to-end properties, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.  Every criterion is exact: decisions
must agree in 100% of cases and all arithmetic is integer.
"""

import contextlib
import functools
import io
import itertools
import random
import tempfile
import time
from pathlib import Path

from sasbp.cli import main
from sasbp.core import BoundedQuery, validate_plan
from sasbp.fileformat import parse_instance, write_instance
from sasbp.gadgets import (
    YES,
    MulticoloredGraph,
    compose_or_02,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_02,
    or_input_pub,
    or_threshold,
)
from sasbp.oracle import decide_bfs
from sasbp.planner02 import reduce_to_steiner, solve_02
from sasbp.preprocess import chain_bound, lemma1_transform
from sasbp.restrictions import (
    ARBITRARY,
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
    ClassificationRecord,
    lookup_pe,
    lookup_pubs,
    split_effects,
)
from sasbp.steiner import SteinerInstance, solve_dst
from helpers import brute_dst, make_query, random_02_query


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {name}")
                raise
            print(f"[PASS] criterion {num}: {name}")

        return run

    return decorate


@criterion(1, "solve_02 matches the search oracle on 500 random (0,2) queries")
def test_criterion_01_oracle_equivalence():
    rng = random.Random(402)
    start = time.perf_counter()
    yes = 0
    for _ in range(500):
        query = random_02_query(rng, max_vars=6, max_actions=8, max_k=4)
        oracle = decide_bfs(query)
        result = solve_02(query)
        assert result.decision == oracle.decision
        if result.decision:
            yes += 1
            assert result.witness is not None
            assert len(result.witness) <= query.k
            assert validate_plan(query.instance, result.witness).valid
    elapsed = time.perf_counter() - start
    assert yes > 100 and 500 - yes > 100
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(2, "plans within k correspond to Steiner trees within k, exhaustively")
def test_criterion_02_reduction_both_directions():
    # every subset of a fixed action pool over three Boolean variables,
    # every bound up to 4; the pool mixes good, mixed (in a cycle) and bad
    pool = [
        ("g_a", {}, {"a": "1"}),
        ("g_b", {}, {"b": "1"}),
        ("m_ba", {}, {"b": "1", "a": "0"}),
        ("m_cb", {}, {"c": "1", "b": "0"}),
        ("m_ac", {}, {"a": "1", "c": "0"}),
        ("bad_c", {}, {"c": "0"}),
    ]
    agree = yes = 0
    for size in range(len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            for k in range(5):
                query = make_query(
                    {"a": 2, "b": 2, "c": 2},
                    list(subset),
                    {"a": "0", "b": "0", "c": "0"},
                    {"a": "1", "b": "1", "c": "1"},
                    k,
                )
                solution = solve_dst(reduce_to_steiner(query).steiner)
                plan_exists = decide_bfs(query).decision
                assert (solution is not None) == plan_exists
                agree += 1
                yes += plan_exists
    assert agree == 64 * 5 and 0 < yes < agree


@criterion(3, "Steiner dynamic program is optimal against brute force")
def test_criterion_03_steiner_optimality():
    rng = random.Random(8128)
    nontrivial = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        nodes = tuple(f"n{i}" for i in range(n))
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(pairs)
        weights = {arc: 1 for arc in pairs[: rng.randint(0, min(14, len(pairs)))]}
        others = list(nodes[1:])
        terminals = tuple(rng.sample(others, rng.randint(0, min(3, len(others)))))
        inst = SteinerInstance(nodes, weights, nodes[0], terminals, 10)
        fast = solve_dst(inst)
        slow = brute_dst(inst)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.total_weight == slow.total_weight
            nontrivial += bool(terminals)
    assert nontrivial > 20


@criterion(4, "chain transform preserves the k=1 decision at k'=5")
def test_criterion_04_chain_transform_preservation():
    assert chain_bound(1) == 5
    rng = random.Random(1105)
    for _ in range(50):
        base = random_02_query(rng, max_vars=3, max_actions=3, max_k=0)
        query = BoundedQuery(base.instance, 1)
        out = lemma1_transform(query)
        assert out.k_prime == 5

        # random_02_query gives every action an effect, so an action is
        # bad exactly when it has no good effect
        goal = query.instance.goal
        non_bad = sum(1 for a in query.instance.actions if split_effects(a, goal)[0])
        assert len(out.instance.actions) == non_bad * 4 + 1

        goal = out.instance.goal
        assert not any(
            not split_effects(a, goal)[1] and len(a.eff) == 2
            for a in out.instance.actions
        )

        original = decide_bfs(query).decision
        transformed = decide_bfs(BoundedQuery(out.instance, out.k_prime)).decision
        assert original == transformed


@criterion(5, "clique gadget ground truth matches search on 202 graphs")
def test_criterion_05_clique_gadget_fidelity():
    rng = random.Random(3435)
    graphs = [MulticoloredGraph.complete(3, 2), MulticoloredGraph.empty(3, 2)]
    graphs.extend(
        MulticoloredGraph.random(3, rng.choice((1, 2)), rng.random(), rng=rng)
        for _ in range(200)
    )
    yes = 0
    for graph in graphs:
        out = gen_clique_gadget(graph)
        assert out.query.k == 6
        oracle = decide_bfs(out.query)
        assert (out.ground_truth == YES) == oracle.decision
        if oracle.decision:
            yes += 1
            assert len(out.witness) == 6
            assert validate_plan(out.query.instance, out.witness).valid
    assert 0 < yes < len(graphs)


@criterion(6, "OR2 truth table holds with shortest plans of exactly 6")
def test_criterion_06_or2_truth_table():
    for v1, v2 in itertools.product((False, True), repeat=2):
        out = gen_or_tree((v1, v2))
        oracle = decide_bfs(out.query)
        assert (out.ground_truth == YES) == oracle.decision == (v1 or v2)
        if v1 or v2:
            assert oracle.plan_length == 6
            assert len(out.witness) == 6


@criterion(7, "OR tree answers within 6*ceil(log2 r) for r in {2,3,4}")
def test_criterion_07_or_tree_bound():
    for r, bound in ((2, 6), (3, 12), (4, 12)):
        for hot in range(r):
            bits = [j == hot for j in range(r)]
            out = gen_or_tree(bits)
            assert out.query.k == bound
            oracle = decide_bfs(out.query)
            assert out.ground_truth == YES and oracle.decision
            assert oracle.plan_length <= bound
        cold = gen_or_tree([False] * r)
        assert cold.ground_truth == "no"
        assert not decide_bfs(cold.query).decision


@criterion(8, "OR compositions emit the right bounds and checkable witnesses")
def test_criterion_08_composition_arithmetic():
    pub = compose_or_pub(
        [or_input_pub(2, True), or_input_pub(2, False), or_input_pub(2, False)]
    )
    assert pub.query.k == 14
    assert pub.ground_truth == YES and pub.witness is not None
    assert len(pub.witness) <= pub.query.k
    assert validate_plan(pub.query.instance, pub.witness).valid

    two = compose_or_02([or_input_02(1, True), or_input_02(1, False)])
    assert two.query.k == 21
    assert two.ground_truth == YES and two.witness is not None
    assert len(two.witness) <= two.query.k
    assert validate_plan(two.query.instance, two.witness).valid
    kp = two.notes["chain_bound"]
    assert two.notes["machine_vars"] == kp + 2 * (2 * kp - 1) + 1

    assert or_threshold(1) == 82944


@criterion(9, "complexity lookups reproduce the twelve golden table entries")
def test_criterion_09_classification_table():
    R = ClassificationRecord
    golden = [
        (lookup_pe(0, 1), R(IN_P, IN_FPT, KERNEL_CONSTANT)),
        (lookup_pe(0, 2), R(NP_COMPLETE, IN_FPT, KERNEL_NO_POLY)),
        (lookup_pe(0, 3), R(NP_COMPLETE, W1_COMPLETE, KERNEL_NA)),
        (lookup_pe(0, ARBITRARY), R(NP_COMPLETE, W2_COMPLETE, KERNEL_NA)),
        (lookup_pe(1, 1), R(NP_HARD, W1_COMPLETE, KERNEL_NA)),
        (lookup_pe(1, ARBITRARY), R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)),
        (lookup_pe(ARBITRARY, 1), R(PSPACE_COMPLETE, W1_COMPLETE, KERNEL_NA)),
        (lookup_pe(ARBITRARY, ARBITRARY), R(PSPACE_COMPLETE, W2_COMPLETE, KERNEL_NA)),
        (lookup_pubs("PUB"), R(NP_HARD, IN_FPT, KERNEL_NO_POLY)),
        (lookup_pubs("PBS"), R(NP_HARD, IN_FPT, KERNEL_NO_POLY)),
        (lookup_pubs("PUS"), R(IN_P, IN_FPT, KERNEL_CONSTANT)),
        (lookup_pubs("PUBS"), R(IN_P, IN_FPT, KERNEL_CONSTANT)),
    ]
    assert len(golden) == 12
    for looked_up, expected in golden:
        assert looked_up == expected


@criterion(10, "file round trips are identities and solving is deterministic")
def test_criterion_10_round_trip_determinism():
    rng = random.Random(777)
    for _ in range(100):
        query = random_02_query(rng)
        assert parse_instance(write_instance(query)) == query

    generated = [gen_or_tree(bits) for bits in itertools.product((False, True), repeat=2)]
    generated.append(gen_or_tree([False, False, True, False]))
    generated.append(gen_clique_gadget(MulticoloredGraph.complete(3, 2)))
    generated.append(gen_clique_gadget(MulticoloredGraph.empty(2, 1)))
    generated.append(gen_clique_gadget(MulticoloredGraph.random(3, 2, 0.4, rng=4)))
    generated.append(
        compose_or_pub([or_input_pub(2, True), or_input_pub(2, False), or_input_pub(2, False)])
    )
    generated.append(compose_or_02([or_input_02(1, True), or_input_02(1, False)]))
    for out in generated:
        text = write_instance(out.query)
        assert parse_instance(text, allow_reserved=True) == out.query

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.sasbp"
        path.write_text(write_instance(generated[-1].query))
        runs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(["solve", str(path), "--json"])
            runs.append((code, buffer.getvalue()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
