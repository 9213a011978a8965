"""Chain transform that removes two-effect good actions from (0, 2) tasks.

This is the paper's Lemma 1 construction.  The solver in planner02 does not
need it (it gives each two-effect good action a pair node instead); the OR
composition in gadgets builds on it.  It rewrites an instance so that each
surviving source action becomes a chain of k + 3 two-effect actions threaded
through fresh binary counter variables, plus one global reset action.  A plan of
length l at bound k corresponds to a transformed plan of length
l * (k + 3) + 1 at the new bound k' = k * (k + 3) + 1, and solvability is
preserved in both directions.

Chains work like a ratchet: using any part of one forces essentially all of
it, so short transformed plans cannot cherry-pick single effects.  Chains
for good source actions additionally raise a fresh flag variable that only
the reset action clears, which later constructions exploit to detect that a
good action was used.

Fresh names carry the reserved double-underscore prefix, which the text
format refuses in hand-written input, so transformed instances are
recognizable and cannot collide with user symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .core import Action, BoundedQuery, PartialState, PlanningInstance, Variable
from .planner02 import pick_method
from .restrictions import BAD, GOOD, MIXED, classify_effects

G_VAR = "__g"
G_RESET = "__ag"
_BIN = ("0", "1")


@dataclass(frozen=True)
class Lemma1Output:
    """Transformed instance plus provenance back to the source instance.

    provenance maps each chain action name to (source action name, chain
    index); the reset action is not in the map.  chain_vars lists the fresh
    counter variables per source action.
    """

    instance: PlanningInstance
    k_prime: int
    source_k: int
    provenance: dict[str, tuple[str, int]]
    g_var: str
    g_reset_action: str
    chain_vars: dict[str, tuple[str, ...]]
    dropped_actions: tuple[str, ...]


def chain_bound(k: int) -> int:
    """Transformed plan length bound k' = k * (k + 3) + 1."""
    return k * (k + 3) + 1


def lemma1_transform(query: BoundedQuery) -> Lemma1Output:
    """Rewrite a (0, <=2) task so no good action has two effects.

    Bad actions are stripped first; they never occur in a minimal plan.
    Rejects instances with preconditions, more than two effects per action,
    or reserved double-underscore names.
    """
    if pick_method(query.instance) != "fpt02":
        raise ValueError(
            "chain transform requires actions without preconditions "
            "and with at most two effects"
        )
    for v in query.instance.variables:
        if v.name.startswith("__"):
            raise ValueError(f"variable {v.name!r} uses the reserved __ prefix")
    for a in query.instance.actions:
        if a.name.startswith("__"):
            raise ValueError(f"action {a.name!r} uses the reserved __ prefix")

    inst = query.instance
    classes = classify_effects(inst)
    # effect-free actions are vacuously good, so none of them is also bad
    dropped = [a.name for a in inst.actions if classes.per_action[a.name] == BAD]
    dropped += [a.name for a in inst.actions if not a.eff]
    inst_actions = tuple(a for a in inst.actions if a.eff and classes.per_action[a.name] != BAD)
    k = query.k

    variables = list(inst.variables)
    variables.append(Variable(G_VAR, _BIN))
    chain_vars: dict[str, tuple[str, ...]] = {}
    for action in inst_actions:
        names = tuple(f"__v{i}__{action.name}" for i in range(1, k + 3))
        chain_vars[action.name] = names
        variables.extend(Variable(n, _BIN) for n in names)

    actions: list[Action] = []
    provenance: dict[str, tuple[str, int]] = {}

    def emit(source: str, index: int, eff: dict[str, str]) -> None:
        name = f"__a{index}__{source}"
        actions.append(Action(name, PartialState(), PartialState(eff)))
        provenance[name] = (source, index)

    for action in inst_actions:
        chain = chain_vars[action.name]
        effects = list(action.eff.items())
        if classes.per_action[action.name] == MIXED:
            (good_var, good_val), (bad_var, bad_val) = _split_mixed(
                action, classes.per_effect
            )
            emit(action.name, 1, {bad_var: bad_val, chain[0]: "0"})
            for i in range(2, k + 3):
                emit(action.name, i, {chain[i - 2]: "1", chain[i - 1]: "0"})
            emit(action.name, k + 3, {chain[k + 1]: "1", good_var: good_val})
        elif len(effects) == 1:
            # Good action with one effect.
            (var, val), = effects
            emit(action.name, 1, {G_VAR: "1", chain[0]: "0"})
            for i in range(2, k + 3):
                emit(action.name, i, {chain[i - 2]: "1", chain[i - 1]: "0"})
            emit(action.name, k + 3, {chain[k + 1]: "1", var: val})
        else:
            # Good action with two effects: both chain tails consume the
            # same counter, one per effect, in declaration order.
            (var_a, val_a), (var_b, val_b) = effects
            emit(action.name, 1, {G_VAR: "1", chain[0]: "0"})
            for i in range(2, k + 2):
                emit(action.name, i, {chain[i - 2]: "1", chain[i - 1]: "0"})
            emit(action.name, k + 2, {chain[k]: "1", var_a: val_a})
            emit(action.name, k + 3, {chain[k]: "1", var_b: val_b})

    actions.append(Action(G_RESET, PartialState(), PartialState({G_VAR: "0"})))

    fresh_zero = {v.name: "0" for v in variables[len(inst.variables):]}
    init = PartialState({**inst.init, **fresh_zero})
    goal = PartialState({**inst.goal, **fresh_zero})
    transformed = PlanningInstance(tuple(variables), tuple(actions), init, goal)
    return Lemma1Output(
        instance=transformed,
        k_prime=chain_bound(k),
        source_k=k,
        provenance=provenance,
        g_var=G_VAR,
        g_reset_action=G_RESET,
        chain_vars=chain_vars,
        dropped_actions=tuple(dropped),
    )


def _split_mixed(action: Action, per_effect) -> tuple[tuple[str, str], tuple[str, str]]:
    good = bad = None
    for name, value in action.eff.items():
        if per_effect[(action.name, name)] == GOOD:
            good = (name, value)
        else:
            bad = (name, value)
    if good is None or bad is None:
        raise ValueError(f"action {action.name!r} needs one good and one bad effect")
    return good, bad


def lift_plan(
    out: Lemma1Output, source_plan: Sequence[str], include_g_reset: bool = True
) -> tuple[str, ...]:
    """Translate a source plan into a transformed plan.

    Each source action expands to its full chain in decreasing chain index,
    so the good effect lands first and the obligations unwind behind it; the
    flag reset is appended last.  Bad and effect-free source actions were
    dropped by the transform and are skipped here, which keeps the lifted
    plan valid.  A source plan of length l lifts to length at most
    l * (k + 3) + 1 (without the reset: l * (k + 3)).
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
    if include_g_reset:
        steps.append(out.g_reset_action)
    return tuple(steps)
