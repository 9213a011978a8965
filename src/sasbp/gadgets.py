"""Instance generators with known ground truth.

Every generator returns a GadgetOutput: a bounded query together with the
intended YES/NO answer and, when the answer is YES, a witness plan that is
checked on construction.  The generators exist to exercise solvers against
instances whose answer is known for structural reasons rather than by
running a solver, so the outputs double as hardness gadgets:

* gen_clique_gadget embeds multicolored clique, the canonical W[1]-hard
  problem, into precondition-free planning with three-effect actions.
* gen_or_tree chains the seven-action OR gadget into a balanced tree over
  r bits; at r = 2 it is the gadget itself, whose profile is postunique,
  unary and Boolean but not single-valued.
* compose_or_pub and compose_or_02 build an instance that is solvable
  exactly when at least one of t input instances is, for postunique unary
  Boolean inputs and for precondition-free two-effect inputs respectively.
  or_input_pub and or_input_02 build a YES or NO input for each.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .core import (
    EMPTY_STATE,
    Action,
    BoundedQuery,
    PartialState,
    PlanningInstance,
    Variable,
    validate_plan,
)
from .planner02 import pick_method
from .preprocess import G_RESET, G_VAR, Lemma1Output, chain_bound, lemma1_transform, lift_plan
from .restrictions import broken_variables, detect_profile

BINARY = ("0", "1")

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class GadgetOutput:
    """A generated query plus its intended answer.

    witness, when present, is validated here: it must be a valid plan for
    the query's instance and fit inside the bound.  A witness is only ever
    attached to a YES answer.
    """

    query: BoundedQuery
    ground_truth: str
    witness: tuple[str, ...] | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ground_truth not in (YES, NO, UNKNOWN):
            raise ValueError(f"ground_truth must be yes/no/unknown, got {self.ground_truth!r}")
        if self.witness is not None:
            if self.ground_truth != YES:
                raise ValueError("witness attached to a non-YES answer")
            if len(self.witness) > self.query.k:
                raise ValueError(
                    f"witness has {len(self.witness)} steps, bound is {self.query.k}"
                )
            report = validate_plan(self.query.instance, self.witness)
            if not report.valid:
                raise ValueError(f"witness does not certify the instance: {report.reason}")


@dataclass(frozen=True)
class MulticoloredGraph:
    """Vertex-colored graph with edges only between distinct color classes.

    classes holds the vertex names per color; edges are canonicalized on
    construction (oriented from the lower class to the higher, deduplicated,
    sorted by declaration order).
    """

    classes: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        order: dict[str, int] = {}
        owner: dict[str, int] = {}
        for ci, cls in enumerate(self.classes):
            for name in cls:
                if name in order:
                    raise ValueError(f"duplicate vertex name {name!r}")
                order[name] = len(order)
                owner[name] = ci
        seen = set()
        canonical = []
        for u, v in self.edges:
            if u not in order or v not in order:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            if owner[u] == owner[v]:
                raise ValueError(f"edge ({u!r}, {v!r}) lies inside one color class")
            if owner[u] > owner[v]:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            canonical.append((u, v))
        canonical.sort(key=lambda e: (order[e[0]], order[e[1]]))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def vertex_class(self) -> dict[str, int]:
        return {name: ci for ci, cls in enumerate(self.classes) for name in cls}

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    @classmethod
    def empty(cls, num_classes: int, per_class: int) -> "MulticoloredGraph":
        if per_class < 1:
            raise ValueError(f"need at least one vertex per color class, got {per_class}")
        names = tuple(
            tuple(f"v{i}.{j}" for j in range(1, per_class + 1))
            for i in range(1, num_classes + 1)
        )
        return cls(classes=names, edges=())

    def _cross_pairs(self) -> list[tuple[str, str]]:
        """Every vertex pair across two classes, class pair by class pair."""
        return [
            (u, v)
            for ci, cj in itertools.combinations(self.classes, 2)
            for u in ci
            for v in cj
        ]

    @classmethod
    def complete(cls, num_classes: int, per_class: int) -> "MulticoloredGraph":
        g = cls.empty(num_classes, per_class)
        return cls(classes=g.classes, edges=tuple(g._cross_pairs()))

    @classmethod
    def random(
        cls,
        num_classes: int,
        per_class: int,
        edge_prob: float,
        rng: random.Random | int | None = None,
    ) -> "MulticoloredGraph":
        if not 0 <= edge_prob <= 1:
            raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
        if not isinstance(rng, random.Random):
            rng = random.Random(rng)
        g = cls.empty(num_classes, per_class)
        edges = tuple(e for e in g._cross_pairs() if rng.random() < edge_prob)
        return cls(classes=g.classes, edges=edges)


def gen_clique_gadget(graph: MulticoloredGraph) -> GadgetOutput:
    """Encode multicolored clique over all color classes as bounded planning.

    One binary variable per vertex (init 0, goal 0) and one per class pair
    (init 0, goal 1).  An edge action raises both endpoints and its pair
    variable; a vertex action lowers its vertex.  A plan within the bound
    C(k, 2) + k must pick one edge per class pair with only k distinct
    endpoints and then lower exactly those, i.e. find a colorful k-clique.
    """
    k = len(graph.classes)
    if k < 2:
        raise ValueError("need at least two color classes")
    owner = graph.vertex_class

    variables = [Variable(name, BINARY) for cls in graph.classes for name in cls]
    pair_var = {
        (i, j): f"p{i + 1}.{j + 1}" for i, j in itertools.combinations(range(k), 2)
    }
    variables.extend(Variable(pair_var[p], BINARY) for p in sorted(pair_var))

    init = {v.name: "0" for v in variables}
    goal = {name: "0" for cls in graph.classes for name in cls}
    goal.update({pair_var[p]: "1" for p in pair_var})

    actions = [
        Action(f"av.{name}", EMPTY_STATE, PartialState({name: "0"}))
        for cls in graph.classes
        for name in cls
    ]
    for u, v in graph.edges:
        p = pair_var[(owner[u], owner[v])]
        actions.append(
            Action(f"ae.{u}.{v}", EMPTY_STATE, PartialState({u: "1", v: "1", p: "1"}))
        )

    inst = PlanningInstance(
        variables=tuple(variables),
        actions=tuple(actions),
        init=PartialState(init),
        goal=PartialState(goal),
    )
    bound = k * (k - 1) // 2 + k
    query = BoundedQuery(inst, bound)

    clique = None
    for pick in itertools.product(*graph.classes):
        if all(graph.has_edge(a, b) for a, b in itertools.combinations(pick, 2)):
            clique = pick
            break

    if clique is None:
        return GadgetOutput(query, NO, notes={"classes": k})
    witness = [
        f"ae.{clique[i]}.{clique[j]}" for i, j in itertools.combinations(range(k), 2)
    ]
    witness.extend(f"av.{name}" for name in clique)
    return GadgetOutput(
        query, YES, witness=tuple(witness), notes={"classes": k, "clique": clique}
    )


def _or2_parts(prefix: str, in1: str, in2: str) -> tuple[list[Variable], list[Action]]:
    """Variables and actions of one OR gadget reading in1/in2, writing
    <prefix>o.

    The two relays o1 and o2 can only fire from complementary settings of
    the latches i1 and i2, and lowering a latch requires the matching input
    to be 1, so o becomes 1 exactly when some input is 1.  Six actions
    when it does; see _fire.
    """
    n = lambda base: f"{prefix}{base}"
    variables = [Variable(n(base), BINARY) for base in ("o1", "o2", "o", "i1", "i2")]
    actions = [
        Action(n("a_o"), PartialState({n("o1"): "1", n("o2"): "1"}), PartialState({n("o"): "1"})),
        Action(n("a_o1"), PartialState({n("i1"): "1", n("i2"): "0"}), PartialState({n("o1"): "1"})),
        Action(n("a_o2"), PartialState({n("i1"): "0", n("i2"): "1"}), PartialState({n("o2"): "1"})),
        Action(n("a_i1"), EMPTY_STATE, PartialState({n("i1"): "1"})),
        Action(n("a_i2"), EMPTY_STATE, PartialState({n("i2"): "1"})),
        Action(n("a_v1"), PartialState({in1: "1"}), PartialState({n("i1"): "0"})),
        Action(n("a_v2"), PartialState({in2: "1"}), PartialState({n("i2"): "0"})),
    ]
    return variables, actions


def _fire(prefix: str, side: str) -> tuple[str, ...]:
    # the six-step firing sequence of one gadget, given that the input on
    # `side` is currently 1
    if side == "left":
        order = ("a_i1", "a_o1", "a_v1", "a_i2", "a_o2", "a_o")
    else:
        order = ("a_i2", "a_o2", "a_v2", "a_i1", "a_o1", "a_o")
    return tuple(f"{prefix}{base}" for base in order)


def _or_tree_parts(
    leaves: list[str], prefix: str
) -> tuple[list[Variable], list[Action], str, dict[int, tuple[str, ...]]]:
    """Balanced OR tree over existing leaf variables.

    Returns the new variables and actions, the name of the root output, and
    for each leaf index the steps that carry a 1 on that leaf to the root:
    one gadget firing per level, leafmost gadget first.
    """
    variables: list[Variable] = []
    actions: list[Action] = []
    counter = itertools.count(1)

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return leaves[lo], {lo: ()}
        mid = lo + (hi - lo + 1) // 2
        left_out, left_paths = build(lo, mid)
        right_out, right_paths = build(mid, hi)
        gp = f"{prefix}n{next(counter)}."
        gvars, gacts = _or2_parts(gp, left_out, right_out)
        variables.extend(gvars)
        actions.extend(gacts)
        left, right = _fire(gp, "left"), _fire(gp, "right")
        paths = {j: steps + left for j, steps in left_paths.items()}
        paths.update({j: steps + right for j, steps in right_paths.items()})
        return f"{gp}o", paths

    out, paths = build(0, len(leaves))
    return variables, actions, out, paths


def gen_or_tree(bits) -> GadgetOutput:
    """OR of r input bits through a balanced tree of OR gadgets.

    The bound is 6 * ceil(log2 r): firing one gadget per level along the
    path from a true input to the root.  YES exactly when some bit is set.
    At r = 2 this is the two-input OR gadget, with shortest plans of length
    exactly 6.
    """
    bits = tuple(bool(b) for b in bits)
    r = len(bits)
    if r == 0:
        raise ValueError("need at least one input bit")
    leaves = [f"in{j}" for j in range(1, r + 1)]
    tvars, tacts, out, paths = _or_tree_parts(leaves, "")
    variables = tuple(Variable(name, BINARY) for name in leaves) + tuple(tvars)
    init = {v.name: "0" for v in variables}
    for j, bit in enumerate(bits):
        init[leaves[j]] = "1" if bit else "0"
    inst = PlanningInstance(
        variables=variables,
        actions=tuple(tacts),
        init=PartialState(init),
        goal=PartialState({out: "1"}),
    )
    bound = 6 * (r - 1).bit_length()
    query = BoundedQuery(inst, bound)
    if not any(bits):
        return GadgetOutput(query, NO, notes={"bits": r})
    witness = paths[bits.index(True)]
    return GadgetOutput(query, YES, witness=witness, notes={"bits": r})


def or_threshold(k: int) -> int:
    """Upper bound on how many bound-k inputs an OR composition may take.

    Grows doubly exponentially in k; the value is exact, so callers can
    compare against it with big integers.
    """
    if k < 0:
        raise ValueError("bound must be nonnegative")
    return 2 * 2 ** ((k + 2) ** 2) * (k + 2) ** ((k + 1) ** 2)


def _namespaced(prefix: str, state: PartialState) -> PartialState:
    return PartialState({f"{prefix}{var}": val for var, val in state.items()})


def _hosted(
    i: int, inst: PlanningInstance
) -> tuple[list[Variable], list[Action], PartialState, PartialState]:
    """Input i of an OR composition with every variable and action name
    prefixed inst<i>., together with its init and goal."""
    prefix = f"inst{i}."
    variables = [Variable(f"{prefix}{v.name}", v.domain) for v in inst.variables]
    actions = [
        Action(f"{prefix}{a.name}", _namespaced(prefix, a.pre), _namespaced(prefix, a.eff))
        for a in inst.actions
    ]
    return variables, actions, _namespaced(prefix, inst.init), _namespaced(prefix, inst.goal)


def _or_input(k: int, yes: bool, setters: int, var: str, setter: str, no_var: str):
    """OR-composition input at bound k: goal bits var1..var<setters>, each
    with one precondition-free setter (YES), or the goal bit no_var that
    no action writes (NO)."""
    if yes:
        variables = tuple(Variable(f"{var}{j}", BINARY) for j in range(1, setters + 1))
        actions = tuple(
            Action(f"{setter}{j}", EMPTY_STATE, PartialState({f"{var}{j}": "1"}))
            for j in range(1, setters + 1)
        )
        witness = tuple(a.name for a in actions)
    else:
        variables, actions, witness = (Variable(no_var, BINARY),), (), None
    inst = PlanningInstance(
        variables=variables,
        actions=actions,
        init=PartialState({v.name: "0" for v in variables}),
        goal=PartialState({v.name: "1" for v in variables}),
    )
    return GadgetOutput(BoundedQuery(inst, k), YES if yes else NO, witness=witness)


def or_input_pub(k: int, yes: bool) -> GadgetOutput:
    """Postunique unary Boolean input for compose_or_pub at bound k.

    The YES shape needs k - 1 steps, one below its bound, so its witness
    plus the selector step always fits the composed bound; hence k >= 1.
    """
    if k < 1:
        raise ValueError(f"compose-pub needs k >= 1 to leave witness slack, got {k}")
    return _or_input(k, yes, k - 1, "x", "set", "y")


def _shared_bound(inputs: tuple) -> int:
    """The one bound that two or more OR inputs share."""
    if len(inputs) < 2:
        raise ValueError("need at least two inputs")
    bounds = {g.query.k for g in inputs}
    if len(bounds) != 1:
        raise ValueError(f"inputs must share one bound, got {sorted(bounds)}")
    return bounds.pop()


def compose_or_pub(inputs) -> GadgetOutput:
    """OR-compose postunique unary Boolean queries sharing one bound.

    Each input keeps its own namespaced copy; a selector action per input
    fires once that input's goal holds, and a balanced OR tree over the
    selector bits feeds the composed goal.  The composed bound is
    k + 6 * ceil(log2 t) and the composition stays postunique, unary and
    Boolean.

    A witness is attached only when some input's witness, plus its selector
    step and the firing of its tree path, fits the composed bound; with t
    not a power of two some inputs sit one level shallower, so slack in an
    input witness can be needed.  When no witness fits but some input is
    YES, the answer is reported as unknown rather than guessed.
    """
    inputs = tuple(inputs)
    t = len(inputs)
    k = _shared_bound(inputs)
    limit = or_threshold(k)
    if t > limit:
        raise ValueError(f"at most {limit} inputs supported at bound {k}, got {t}")
    for idx, g in enumerate(inputs, 1):
        profile = detect_profile(g.query.instance)
        if not (profile.has_P and profile.has_U and profile.has_B):
            raise ValueError(
                f"input {idx} is not postunique unary Boolean (flags {sorted(profile.flags())})"
            )

    variables: list[Variable] = []
    actions: list[Action] = []
    init: dict[str, str] = {}
    selectors = [f"sel.v{i}" for i in range(1, t + 1)]
    selector_actions = []
    for i, g in enumerate(inputs, 1):
        hvars, hacts, hinit, hgoal = _hosted(i, g.query.instance)
        variables.extend(hvars)
        actions.extend(hacts)
        init.update(hinit)
        selector_actions.append(
            Action(f"sel.a{i}", hgoal, PartialState({selectors[i - 1]: "1"}))
        )

    variables.extend(Variable(name, BINARY) for name in selectors)
    init.update({name: "0" for name in selectors})
    actions.extend(selector_actions)

    tvars, tacts, out, paths = _or_tree_parts(selectors, "or.")
    variables.extend(tvars)
    init.update({v.name: "0" for v in tvars})
    actions.extend(tacts)

    depth = (t - 1).bit_length()
    bound = k + 6 * depth
    inst = PlanningInstance(
        variables=tuple(variables),
        actions=tuple(actions),
        init=PartialState(init),
        goal=PartialState({out: "1"}),
    )
    query = BoundedQuery(inst, bound)
    notes = {"t": t, "input_bound": k, "tree_depth": depth, "threshold": limit}

    fits = []
    for i, g in enumerate(inputs, 1):
        if g.witness is None:
            continue
        length = len(g.witness) + 1 + len(paths[i - 1])
        if length <= bound:
            fits.append((length, i))
    if fits:
        _, ci = min(fits)
        chosen = inputs[ci - 1]
        witness = [f"inst{ci}.{name}" for name in chosen.witness]
        witness.append(f"sel.a{ci}")
        witness.extend(paths[ci - 1])
        notes["chosen_input"] = ci
        return GadgetOutput(query, YES, witness=tuple(witness), notes=notes)
    if all(g.ground_truth == NO for g in inputs):
        return GadgetOutput(query, NO, notes=notes)
    notes["reason"] = (
        "some input is satisfiable but no witness fits the composed bound; "
        "the composition may still be solvable through a shorter input plan"
    )
    return GadgetOutput(query, UNKNOWN, notes=notes)


def or_input_02(k: int, yes: bool) -> GadgetOutput:
    """Precondition-free single-effect input for compose_or_02 at bound k;
    the YES shape needs all k steps."""
    return _or_input(k, yes, k, "z", "zset", "w")


def compose_or_02(inputs) -> GadgetOutput:
    """OR-compose precondition-free two-effect queries sharing one bound.

    Each input goes through the chain transform, then its variables start
    at their goal values; a bank of broken selector bits b_1..b_k' can only
    be repaired by actions that simultaneously knock one chosen input back
    to its initial values.  Undoing that damage means actually solving the
    chosen input, then a chain of pebble variables pays the bookkeeping
    cost, so the composition at bound 4k' + 1 is solvable exactly when some
    input is.  The composition is again precondition-free with at most two
    effects per action and no two-effect action toward the goal, so it can
    be fed straight back to the Steiner pipeline.
    """
    inputs = tuple(inputs)
    t = len(inputs)
    k = _shared_bound(inputs)
    for idx, g in enumerate(inputs, 1):
        if pick_method(g.query.instance) != "fpt02":
            raise ValueError(
                f"input {idx} is not precondition-free with at most two effects"
            )

    kp = chain_bound(k)
    transforms: list[Lemma1Output] = [lemma1_transform(g.query) for g in inputs]
    broken: list[tuple[str, ...]] = []
    for idx, tr in enumerate(transforms, 1):
        bset = broken_variables(tr.instance)
        if len(bset) > kp:
            raise ValueError(
                f"input {idx} has {len(bset)} goal variables off their initial "
                f"values, more than {kp}; it cannot meet bound {k} and cannot "
                f"be hosted by the composition"
            )
        broken.append(bset)

    hosted = [_hosted(i, tr.instance) for i, tr in enumerate(transforms, 1)]
    variables: list[Variable] = []
    init: dict[str, str] = {}
    goal: dict[str, str] = {}
    for hvars, _, hinit, hgoal in hosted:
        variables.extend(hvars)
        # inputs start at their goal; the b-bank actions undo this
        init.update({**hinit, **hgoal})
        goal.update(hgoal)

    # the selector machine: the bank b<j> starts broken, while each input's
    # pebbles p<i>.<j> and the reset bit r start at 0; all end at 0
    bank = [f"sel.b{j}" for j in range(1, kp + 1)]
    pebbles = [[f"sel.p{i}.{j}" for j in range(1, 2 * kp)] for i in range(1, t + 1)]
    machine = [(name, "1") for name in bank] + [(name, "0") for row in pebbles for name in row]
    for name, start in machine + [("sel.r", "0")]:
        variables.append(Variable(name, BINARY))
        init[name] = start
        goal[name] = "0"

    actions = [Action("sel.a_r", EMPTY_STATE, PartialState({"sel.r": "0"}))]
    for i, ((_, hacts, hinit, _), pebble) in enumerate(zip(hosted, pebbles), 1):
        prefix = f"inst{i}."
        # only sel.a<i>.g clears an input's flag G_VAR, so its reset is left out
        actions.extend(a for a in hacts if a.name != f"{prefix}{G_RESET}")
        steps = [("r", {"sel.r": "1", pebble[0]: "0"})]
        steps += [(j, {pebble[j - 1]: "1", pebble[j]: "0"}) for j in range(1, 2 * kp - 1)]
        steps.append(("g", {pebble[-1]: "1", f"{prefix}{G_VAR}": "0"}))
        bset = broken[i - 1]
        for j, name in enumerate(bank, 1):
            eff = {name: "0"}
            if bset:
                # past the end of the broken list, keep re-targeting its last entry
                target = prefix + bset[min(j, len(bset)) - 1]
                eff[target] = hinit[target]
            steps.append((f"b{j}", eff))
        actions.extend(
            Action(f"sel.a{i}.{label}", EMPTY_STATE, PartialState(eff)) for label, eff in steps
        )

    bound = 4 * kp + 1
    inst = PlanningInstance(
        variables=tuple(variables),
        actions=tuple(actions),
        init=PartialState(init),
        goal=PartialState(goal),
    )
    query = BoundedQuery(inst, bound)
    notes = {
        "t": t,
        "input_bound": k,
        "chain_bound": kp,
        "machine_vars": kp + t * (2 * kp - 1) + 1,
    }

    chosen = None
    for i, g in enumerate(inputs, 1):
        if g.ground_truth == YES and g.witness is not None:
            chosen = i
            break
    if chosen is not None:
        tr = transforms[chosen - 1]
        # drop the trailing reset of G_VAR, which the composition leaves out
        lifted = lift_plan(tr, inputs[chosen - 1].witness)[:-1]
        witness = [f"sel.a{chosen}.b{j}" for j in range(1, kp + 1)]
        witness.extend(f"inst{chosen}.{name}" for name in lifted)
        witness.append(f"sel.a{chosen}.g")
        witness.extend(f"sel.a{chosen}.{j}" for j in range(2 * kp - 2, 0, -1))
        witness.extend((f"sel.a{chosen}.r", "sel.a_r"))
        notes["chosen_input"] = chosen
        return GadgetOutput(query, YES, witness=tuple(witness), notes=notes)
    if any(g.ground_truth == YES for g in inputs):
        return GadgetOutput(query, YES, notes=notes)
    if all(g.ground_truth == NO for g in inputs):
        return GadgetOutput(query, NO, notes=notes)
    notes["reason"] = "some input answer is unknown and none is known YES"
    return GadgetOutput(query, UNKNOWN, notes=notes)
