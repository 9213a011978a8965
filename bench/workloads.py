"""Seeded corpora for the three benchmark workloads.

Each builder takes the run's seed and returns a list of Case records.  A
case carries the canonical instance text the solver will see and the raw
inputs behind it (a pattern of YES/NO inputs, a graph, a bit vector), from
which the checks in reference.py work out the right answer without the
solver.  The generators' own ground truth is never consulted.

Inputs are built with the package's model classes and gadget generators and
rendered with write_instance, so corpus generation exercises fileformat and
gadgets exactly as a user preparing instance files would.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import sasbp
from sasbp.core import EMPTY_STATE, Action, BoundedQuery, PartialState, PlanningInstance, Variable

BINARY = ("0", "1")

# fpt02-random: share and size of the two classes.  The small class is 80%
# of the corpus so the median solve lies well inside it.
RANDOM_SMALL = 2400
RANDOM_LARGE = 600

# fpt02-ladder: (k, t) rungs of compose_or_02.  k=3 is left out: its 19
# terminals exceed planner02.DEFAULT_DP_CAP and the breadth-first fallback
# exhausts memory long before its state budget.
LADDER_RUNGS = [(1, t) for t in range(2, 9)] + [(2, t) for t in (2, 3, 4)]

# oracle-gadgets: clique shapes as (colour classes, vertices per class) and,
# per shape, how many seeded random graphs to draw at each edge density.
# Densities are exact edge counts (a share of all cross-class pairs), which
# keeps the search effort of a random graph close to that of its siblings.
# The ten 4x2 graphs at 0.7 (all YES, about 10k states each) hold the
# round's tail percentile, so it does not jump between groups across seeds.
CLIQUE_RANDOM = {
    (3, 3): {0.3: 16, 0.5: 6, 0.7: 6},
    (4, 2): {0.3: 4, 0.5: 4, 0.7: 10},
    (3, 4): {0.3: 4, 0.5: 2, 0.7: 1},
}
OR_TREE_BITS = 4
PUB_RUNGS = [(k, t) for k in (2, 3) for t in (2, 3, 4)]


@dataclass(frozen=True)
class Case:
    """One timed solve: the instance text plus what the checks need."""

    name: str
    text: str
    kind: str
    inputs: dict = field(default_factory=dict)


def build(workload: str, seed: int) -> list[Case]:
    """The corpus of one round, in the seeded order the round solves it."""
    rng = random.Random(f"{workload}:{seed}")
    cases = BUILDERS[workload](rng)
    rng.shuffle(cases)
    return cases


# --- fpt02-random ---------------------------------------------------------


def random_02(rng, n_vars, n_actions, k, n_goal) -> BoundedQuery:
    """Precondition-free task with one or two effects per action, shaped
    like the test suite's random_02_query."""
    names = [f"x{i}" for i in range(1, n_vars + 1)]
    sizes = {name: rng.randint(2, 3) for name in names}
    variables = tuple(
        Variable(name, tuple(str(i) for i in range(sizes[name]))) for name in names
    )
    init = {name: str(rng.randrange(sizes[name])) for name in names}
    goal_names = rng.sample(names, n_goal)
    goal = {name: str(rng.randrange(sizes[name])) for name in sorted(goal_names)}
    actions = []
    for i in range(n_actions):
        targets = rng.sample(names, rng.randint(1, min(2, n_vars)))
        eff = {name: str(rng.randrange(sizes[name])) for name in targets}
        actions.append(Action(f"a{i + 1}", EMPTY_STATE, PartialState(eff)))
    inst = PlanningInstance(variables, tuple(actions), PartialState(init), PartialState(goal))
    return BoundedQuery(inst, k)


def _fpt02_random(rng) -> list[Case]:
    cases = []
    for j in range(RANDOM_SMALL):
        n_vars = rng.randint(1, 7)
        query = random_02(
            rng, n_vars, rng.randint(0, 10), rng.randint(0, 5), rng.randint(1, n_vars)
        )
        cases.append(Case(f"small{j}", sasbp.write_instance(query), "random"))
    # The large class walks a fixed grid of (k, goal size, variables) so that
    # every seed gets the same mix of sizes; only the structure is random.
    for j in range(RANDOM_LARGE):
        k = 4 + j % 5
        n_goal = 2 + (j // 5) % 5
        n_vars = 10 + (j // 25) % 7
        query = random_02(rng, n_vars, rng.randint(14, 30), k, n_goal)
        cases.append(Case(f"large{j}", sasbp.write_instance(query), "random"))
    return cases


# --- fpt02-ladder ---------------------------------------------------------


def _or_input(k: int, setters: int, yes: bool):
    """Input for the OR compositions, at bound k: `setters` goal bits with one
    precondition-free setter each (YES), or one goal bit nothing writes (NO).
    With setters = k it is shaped like cli._02_fixture, with k - 1 like
    cli._pub_fixture."""
    if yes:
        variables = tuple(Variable(f"z{j}", BINARY) for j in range(1, setters + 1))
        actions = tuple(
            Action(f"zset{j}", EMPTY_STATE, PartialState({f"z{j}": "1"}))
            for j in range(1, setters + 1)
        )
        witness = tuple(a.name for a in actions)
    else:
        variables = (Variable("w", BINARY),)
        actions = ()
        witness = None
    inst = PlanningInstance(
        variables,
        actions,
        PartialState({v.name: "0" for v in variables}),
        PartialState({v.name: "1" for v in variables}),
    )
    return sasbp.GadgetOutput(BoundedQuery(inst, k), "yes" if yes else "no", witness=witness)


def _fpt02_ladder(rng) -> list[Case]:
    cases = []
    for k, t in LADDER_RUNGS:
        # YES first, YES last, YES at a seeded position, all NO
        patterns = {"first": 0, "last": t - 1, "seeded": rng.randrange(t), "none": None}
        for label, yes_at in patterns.items():
            pattern = tuple(i == yes_at for i in range(t))
            output = sasbp.compose_or_02([_or_input(k, k, bit) for bit in pattern])
            cases.append(
                Case(
                    f"ladder.k{k}.t{t}.{label}",
                    sasbp.write_instance(output.query),
                    "ladder",
                    {"rung": (k, t), "pattern": pattern},
                )
            )
    return cases


# --- oracle-gadgets -------------------------------------------------------


def _random_graph(rng, classes: int, per_class: int, density: float):
    empty = sasbp.MulticoloredGraph.empty(classes, per_class)
    pairs = [
        (u, v)
        for i, j in itertools.combinations(range(classes), 2)
        for u in empty.classes[i]
        for v in empty.classes[j]
    ]
    edges = rng.sample(pairs, round(density * len(pairs)))
    return sasbp.MulticoloredGraph(empty.classes, tuple(edges))


def _clique_case(name: str, graph) -> Case:
    output = sasbp.gen_clique_gadget(graph)
    return Case(
        name,
        sasbp.write_instance(output.query),
        "clique",
        {"classes": graph.classes, "edges": graph.edges},
    )


def _oracle_gadgets(rng) -> list[Case]:
    cases = []
    for (classes, per_class), densities in CLIQUE_RANDOM.items():
        shape = f"clique.{classes}x{per_class}"
        cases.append(
            _clique_case(f"{shape}.complete", sasbp.MulticoloredGraph.complete(classes, per_class))
        )
        cases.append(
            _clique_case(f"{shape}.empty", sasbp.MulticoloredGraph.empty(classes, per_class))
        )
        for density, count in densities.items():
            for j in range(count):
                graph = _random_graph(rng, classes, per_class, density)
                cases.append(_clique_case(f"{shape}.d{density}.{j}", graph))
    for bits in itertools.product((False, True), repeat=OR_TREE_BITS):
        output = sasbp.gen_or_tree(bits)
        label = "".join("1" if b else "0" for b in bits)
        cases.append(
            Case(f"ortree.{label}", sasbp.write_instance(output.query), "or", {"pattern": bits})
        )
    for k, t in PUB_RUNGS:
        for label, yes_at in (("first", 0), ("last", t - 1), ("none", None)):
            pattern = tuple(i == yes_at for i in range(t))
            output = sasbp.compose_or_pub([_or_input(k, k - 1, bit) for bit in pattern])
            cases.append(
                Case(
                    f"pub.k{k}.t{t}.{label}",
                    sasbp.write_instance(output.query),
                    "or",
                    {"pattern": pattern},
                )
            )
    return cases


BUILDERS = {
    "fpt02-random": _fpt02_random,
    "fpt02-ladder": _fpt02_ladder,
    "oracle-gadgets": _oracle_gadgets,
}
