"""Fixed-parameter pipeline for precondition-free tasks with two-effect actions.

For instances where actions have no preconditions and at most two effects,
bounded plan existence reduces to directed Steiner tree.  A good action with
its single effect on v becomes an arc from a virtual root to v, and a mixed
action that fixes v_good while breaking v_bad becomes an arc from v_bad to
v_good.  A good action with effects on a and b becomes a pair node P with an
arc root -> P of weight 1 and arcs P -> a and P -> b of weight 0, so one step
can settle both variables.  Terminals are the variables whose initial value
misses the goal.

The reduction is exact at the same bound.  Following each broken variable's
last writer in a plan gives a tree: a mixed last writer of x breaks some y
whose own last writer comes later, these links end at good actions, and a
two-effect good action can be the last writer of both of its variables,
which is exactly a pair node's fan-out.  So a plan of length at most k
exists exactly when a Steiner tree of weight at most k does.  A plan is read
off the tree by emitting its arc layers deepest first, with the root layer
(the good actions) last, so every value broken along the way is repaired
afterwards; weight-0 arcs emit nothing.

solve_02 answers three kinds of task before building the reduction, since
no tree is needed to decide them.  With no terminal, the empty plan is a
witness: YES.  A terminal whose goal value no action writes has no in-arc,
so no tree reaches it: NO.  One step settles at most two terminals, both
through a pair node, so more than 2k terminals are a NO.  With no pair
node, more than k are a NO that solve_dst finds before it builds a table,
from its forced arcs and its count of terminals against the bound.  The
reduction's checks of reserved names and of the fragment still come first
on these tasks, so they get the ValueError the reduction would raise.

solve() is the entry point for any task: pick_method, the one statement of
the (0, <=2) rule, routes that fragment here and everything else to the
search oracle; the reduction asks it too.  max_states is the one work budget
of both solvers: the oracle counts states, solve_dst counts subset-table rows
and candidate splits.  A (0, <=2) task never goes to the oracle: when its
table would pass the budget, the solve raises ResourceLimitError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_MAX_STATES, BoundedQuery, PlanningInstance, validate_plan
from .oracle import decide_bfs
from .restrictions import broken_variables, split_effects
from .steiner import SteinerInstance, SteinerSolution, extract_arborescence, solve_dst

ROOT = "__root"
PAIR = "__pair"
METHODS = ("auto", "oracle", "fpt02")


@dataclass(frozen=True)
class ReductionArtifacts:
    """Steiner instance plus the mapping from arcs back to actions."""

    steiner: SteinerInstance
    arc_origin: dict[tuple[str, str], tuple[str, ...]]


@dataclass(frozen=True)
class Planner02Result:
    """A shortest witness for the queried instance on YES, None on NO.

    decision and plan_length are read from the witness, so no result says
    YES without one.  method names the solver that was asked for, "fpt02"
    or "oracle".  fallback is the class constant False, since no decision
    is handed to another solver; it stays for existing readers of it.
    """

    witness: tuple[str, ...] | None = None
    explored_states: int | None = None
    dp_table_entries: int | None = None
    method: str = "fpt02"
    fallback = False

    @property
    def decision(self) -> bool:
        return self.witness is not None

    @property
    def plan_length(self) -> int | None:
        return None if self.witness is None else len(self.witness)


def pick_method(instance: PlanningInstance) -> str:
    """Name the solver for an instance: "fpt02" when no action has a
    precondition and none has more than two effects, the fragment that
    reduces to directed Steiner tree, and "oracle" for every other task."""
    if all(not a.pre and len(a.eff) <= 2 for a in instance.actions):
        return "fpt02"
    return "oracle"


def _check_reducible(inst: PlanningInstance) -> None:
    """Raise ValueError for a task the reduction refuses: one that names a
    variable like the root or a pair node, or one outside (0, <=2)."""
    for v in inst.variables:
        if v.name == ROOT or v.name.startswith(PAIR):
            raise ValueError(
                f"variable name {v.name!r} is reserved for the root and pair nodes"
            )
    if pick_method(inst) != "fpt02":
        raise ValueError(
            "reduction requires actions without preconditions and with at most two effects"
        )


def _needs_no_tree(inst: PlanningInstance, terminals: tuple[str, ...], k: int) -> bool:
    """True when the task is one of the three the module docstring answers
    without a tree: no terminal, more than 2k, or one whose goal value no
    action writes."""
    if not terminals or len(terminals) > 2 * k:
        return True
    goal = inst.goal
    unwritten = {(v, goal[v]) for v in terminals}
    for action in inst.actions:
        unwritten.difference_update(action.eff.items())
        if not unwritten:
            return False
    return True


def reduce_to_steiner(query: BoundedQuery) -> ReductionArtifacts:
    """Build the Steiner instance of a (0, <=2) task at the same bound.

    Bad actions contribute no arcs (they never occur in minimal plans) and
    neither do effect-free actions.  Good actions writing the same pair of
    variables share one pair node, numbered by first declaration and placed
    after the variables.  arc_origin remembers every action behind each arc,
    first declared first.
    """
    inst = query.instance
    _check_reducible(inst)

    weights: dict[tuple[str, str], int] = {}
    origin: dict[tuple[str, str], list[str]] = {}
    pairs: dict[frozenset[str], str] = {}

    def add(arc: tuple[str, str], weight: int, action: str) -> None:
        weights.setdefault(arc, weight)
        origin.setdefault(arc, []).append(action)

    for action in inst.actions:
        good, bad = split_effects(action, inst.goal)
        if good and bad:
            add((bad[0], good[0]), 1, action.name)
        elif len(good) == 1:
            add((ROOT, good[0]), 1, action.name)
        elif len(good) == 2:
            key = frozenset(good)
            pair = pairs.setdefault(key, f"{PAIR}{len(pairs) + 1}")
            add((ROOT, pair), 1, action.name)
            for var in good:
                add((pair, var), 0, action.name)

    nodes = (ROOT,) + tuple(v.name for v in inst.variables) + tuple(pairs.values())
    steiner = SteinerInstance(
        nodes=nodes,
        weights=weights,
        root=ROOT,
        terminals=broken_variables(inst),
        bound=query.k,
    )
    return ReductionArtifacts(
        steiner=steiner,
        arc_origin={arc: tuple(names) for arc, names in origin.items()},
    )


def extract_plan(
    artifacts: ReductionArtifacts, solution: SteinerSolution
) -> tuple[str, ...]:
    """Turn a Steiner solution into a plan for the reduced instance.

    Layers are emitted deepest first so each arc's repair happens after the
    damage below it, and the root layer of good actions closes the plan.
    Within a layer, arcs keep node declaration order; each arc contributes
    its first declared origin action, but a pair node's fan-out nothing.
    """
    for arc in solution.arcs:
        if arc not in artifacts.arc_origin:
            raise ValueError(f"arc {arc!r} has no origin action in these artifacts")
    return tuple(
        artifacts.arc_origin[arc][0]
        for layer in reversed(extract_arborescence(solution))
        for arc in layer
        if not arc[0].startswith(PAIR)
    )


def solve_02(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES) -> Planner02Result:
    """Decide bounded plan existence for a (0, <=2) task.

    A task the module docstring answers without a tree gets its answer
    here, after the reduction's ValueError checks; every other task is reduced to
    a Steiner instance at the same bound and solved exactly.  solve_dst
    raises ResourceLimitError when the table rows and candidate splits it
    needs pass max_states.  On YES the witness is a shortest plan,
    re-validated against the query before returning.
    """
    inst = query.instance
    terminals = broken_variables(inst)
    entries = None
    if _needs_no_tree(inst, terminals, query.k):
        _check_reducible(inst)
        if terminals:
            return Planner02Result()
        witness: tuple[str, ...] = ()
    else:
        artifacts = reduce_to_steiner(query)
        stats: dict = {}
        solution = solve_dst(artifacts.steiner, stats_out=stats, max_states=max_states)
        entries = stats.get("table_entries")
        if solution is None:
            return Planner02Result(dp_table_entries=entries)
        witness = extract_plan(artifacts, solution)
    report = validate_plan(inst, witness)
    if not report.valid:
        raise RuntimeError(f"extracted plan failed validation: {report.reason}")
    if len(witness) > query.k:
        raise RuntimeError(
            f"extracted plan has {len(witness)} steps, over the bound {query.k}"
        )
    return Planner02Result(witness, dp_table_entries=entries)


def solve(
    query: BoundedQuery, method: str = "auto", max_states: int = DEFAULT_MAX_STATES
) -> Planner02Result:
    """Decide bounded plan existence for any task with the named method.

    "auto" takes pick_method's choice; "fpt02" runs solve_02 and raises
    ValueError outside its fragment; "oracle" runs the breadth-first search.
    max_states bounds both: the search's expanded and stored states, and the
    Steiner subset table's rows and candidate splits.  Both raise
    ResourceLimitError when it is passed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if method == "auto":
        method = pick_method(query.instance)
    if method == "fpt02":
        return solve_02(query, max_states)
    oracle = decide_bfs(query, max_states=max_states)
    return Planner02Result(oracle.witness, explored_states=oracle.explored_states, method="oracle")
