"""Chain transform that removes two-effect good actions from (0, 2) tasks.

This is the paper's Lemma 1 construction.  The solver in planner02 does not
need it (it gives each two-effect good action a pair node instead); the OR
composition in gadgets builds on it.  It rewrites an instance so that each
surviving source action becomes a chain of k + 3 two-effect actions threaded
through L fresh binary counters (see below), plus one global reset action.  A
plan of length l at bound k corresponds to a transformed plan of length
l * (k + 3) + 1 at the new bound k' = k * (k + 3) + 1, and solvability is
preserved in both directions.

Bad actions (every effect bad in the sense of restrictions.split_effects)
and effect-free ones never occur in a minimal plan and are dropped.  Every
other action becomes one chain with two inputs: a head, which is its bad
effect or, when it has none, the flag G_VAR = 1; and its m good effects
(1 or 2).  Step 1 writes the head and clears the first counter, steps
2..L with L = k + 3 - m each set one counter and clear the next, and steps
L + 1.. each set counter L and write one good effect.  Chains work like a
ratchet: using any part of one forces essentially all of it, so short
transformed plans cannot cherry-pick single effects.  The flag raised by a
good action's chain is cleared only by the reset action G_RESET, which later
constructions exploit to detect that a good action was used.

Fresh names carry the reserved double-underscore prefix, which the text
format refuses in hand-written input, so transformed instances are
recognizable and cannot collide with user symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .core import Action, BoundedQuery, PartialState, PlanningInstance, Variable
from .planner02 import pick_method
from .restrictions import split_effects

G_VAR = "__g"
G_RESET = "__ag"
_BIN = ("0", "1")


@dataclass(frozen=True)
class Lemma1Output:
    """Transformed instance plus provenance back to the source instance.

    provenance maps each chain action name to (source action name, chain
    index); the reset action G_RESET, which clears the flag G_VAR, is not in
    the map.  chain_vars lists the L = k + 3 - m fresh counter variables of
    each source action's chain, where m is its number of good effects.
    """

    instance: PlanningInstance
    k_prime: int
    provenance: dict[str, tuple[str, int]]
    chain_vars: dict[str, tuple[str, ...]]
    dropped_actions: tuple[str, ...]


def chain_bound(k: int) -> int:
    """Transformed plan length bound k' = k * (k + 3) + 1."""
    return k * (k + 3) + 1


def lemma1_transform(query: BoundedQuery) -> Lemma1Output:
    """Rewrite a (0, <=2) task so no good action has two effects.

    dropped_actions lists the bad actions, then the effect-free ones.
    Rejects instances with preconditions, more than two effects per action,
    or reserved double-underscore names.
    """
    inst, k = query.instance, query.k
    if pick_method(inst) != "fpt02":
        raise ValueError(
            "chain transform requires actions without preconditions "
            "and with at most two effects"
        )
    for kind, items in (("variable", inst.variables), ("action", inst.actions)):
        for item in items:
            if item.name.startswith("__"):
                raise ValueError(f"{kind} {item.name!r} uses the reserved __ prefix")

    kept, bad_only, effect_free = [], [], []
    for action in inst.actions:
        good, bad = split_effects(action, inst.goal)
        if good:
            kept.append((action, good, bad))
        else:
            (bad_only if bad else effect_free).append(action.name)

    variables = [*inst.variables, Variable(G_VAR, _BIN)]
    chain_vars: dict[str, tuple[str, ...]] = {}
    actions: list[Action] = []
    provenance: dict[str, tuple[str, int]] = {}

    def emit(source: str, index: int, eff: dict[str, str]) -> None:
        name = f"__a{index}__{source}"
        actions.append(Action(name, PartialState(), PartialState(eff)))
        provenance[name] = (source, index)

    for action, good, bad in kept:
        last = k + 3 - len(good)
        chain = tuple(f"__v{i}__{action.name}" for i in range(1, last + 1))
        chain_vars[action.name] = chain
        variables.extend(Variable(n, _BIN) for n in chain)
        head = {bad[0]: action.eff[bad[0]]} if bad else {G_VAR: "1"}
        emit(action.name, 1, {**head, chain[0]: "0"})
        for i in range(2, last + 1):
            emit(action.name, i, {chain[i - 2]: "1", chain[i - 1]: "0"})
        for i, var in enumerate(good, last + 1):
            emit(action.name, i, {chain[last - 1]: "1", var: action.eff[var]})

    actions.append(Action(G_RESET, PartialState(), PartialState({G_VAR: "0"})))

    fresh_zero = {v.name: "0" for v in variables[len(inst.variables):]}
    init = PartialState({**inst.init, **fresh_zero})
    goal = PartialState({**inst.goal, **fresh_zero})
    transformed = PlanningInstance(tuple(variables), tuple(actions), init, goal)
    return Lemma1Output(
        instance=transformed,
        k_prime=chain_bound(k),
        provenance=provenance,
        chain_vars=chain_vars,
        dropped_actions=tuple(bad_only + effect_free),
    )


def lift_plan(out: Lemma1Output, source_plan: Sequence[str]) -> tuple[str, ...]:
    """Translate a source plan into a transformed plan.

    Each source action expands to its full chain in decreasing chain index,
    so the good effect lands first and the obligations unwind behind it; the
    flag reset is appended last.  Bad and effect-free source actions were
    dropped by the transform and are skipped here, which keeps the lifted
    plan valid.  A source plan of length l lifts to length at most
    l * (k + 3) + 1.
    """
    by_source: dict[str, list[tuple[int, str]]] = {}
    for name, (source, index) in out.provenance.items():
        by_source.setdefault(source, []).append((index, name))
    steps: list[str] = []
    for source_name in source_plan:
        if source_name not in by_source:
            if source_name in out.dropped_actions:
                continue
            raise ValueError(f"no chain for source action {source_name!r}")
        for _, name in sorted(by_source[source_name], reverse=True):
            steps.append(name)
    steps.append(G_RESET)
    return tuple(steps)
