"""Core SAS+ model: variables, partial states, actions, instances, plans.

A state assigns one value from a finite domain to every variable.  Partial
states may leave variables undefined; undefined entries are simply absent
from the assignment.  A partial state is a read-only dict, so every lookup
on it is the dict's own.  Actions carry a precondition and an effect, both
partial states.  A plan is a sequence of action names that is valid from the
initial state and ends in a state satisfying the goal.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property


class PartialState(dict):
    """Read-only dict from variable names to values.

    Variables not present in the mapping are undefined.  Indexing with an
    undefined variable raises KeyError; use .get() to obtain None for
    undefined entries.  Lookups and views are the dict's own; every mutator
    raises TypeError, so a state can be hashed and shared.  Equality holds
    with any mapping of the same entries.
    """

    __slots__ = ("_hash",)

    def __init__(self, assignment: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        self._hash = None
        if assignment:
            dict.update(self, assignment)  # the dict's own; this class's raises
            for name, value in self.items():
                if not isinstance(name, str) or not isinstance(value, str):
                    raise TypeError("variable names and values must be strings")

    @classmethod
    def _trusted(cls, assignment: dict[str, str]) -> PartialState:
        """A state built without the string check, for the parser's strings."""
        state = dict.__new__(cls)
        dict.update(state, assignment)
        state._hash = None
        return state

    def _read_only(self, *args, **kwargs):
        raise TypeError("PartialState is read-only")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = __ior__ = _read_only

    def __reduce__(self):
        # copy and pickle would otherwise refill the copy through __setitem__
        return PartialState, (dict(self),)

    def __eq__(self, other) -> bool:
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        if isinstance(other, Mapping):
            return dict.__eq__(self, dict(other))
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in self.items())
        return f"PartialState({inner})"


EMPTY_STATE = PartialState()


class ResourceLimitError(RuntimeError):
    """Raised when a solver exceeds its budget.  Deliberately distinct from a
    NO answer: the question was not decided."""


# The one work budget of every solver: states for the search oracle, table rows
# plus candidate splits for the Steiner subset table.  A stored state of a
# 115-variable task costs ~116 bytes, 240 MB at the budget, which a forced search
# of compose-02 k=3 t=2 reaches in about 2.4 s; a subset table too large for it
# gives up in 0.3-0.55 s (2 vCPUs, Python 3.11).
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class Variable:
    """A state variable with a finite, ordered domain of value tokens."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if len(self.domain) == 0:
            raise ValueError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.name!r} has duplicate domain values")


@dataclass(frozen=True)
class Action:
    """A named action with partial-state precondition and effect."""

    name: str
    pre: PartialState
    eff: PartialState

    def __post_init__(self):
        if not self.name:
            raise ValueError("action name must be non-empty")


@dataclass(frozen=True)
class PlanningInstance:
    """A SAS+ task: variables, actions, a total initial state and a goal.

    The initial state must assign every variable; the goal may be partial.
    All referenced variables must be declared and all values must belong to
    the respective domains.  Construction validates these constraints.
    """

    variables: tuple[Variable, ...]
    actions: tuple[Action, ...]
    init: PartialState
    goal: PartialState

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        action_names = [a.name for a in self.actions]
        if len(set(action_names)) != len(action_names):
            raise ValueError("duplicate action names")
        # One set containment checks each state; a failing one is walked to
        # name its first culprit.  A contained init is total by entry count.
        pairs = {(v.name, value) for v in self.variables for value in v.domain}
        if not self.init.items() <= pairs:
            self._name_culprit("init", self.init)
        if len(self.init) != len(names):
            missing = next(n for n in names if n not in self.init)
            raise ValueError(f"init is not total: missing {missing!r}")
        if not self.goal.items() <= pairs:
            self._name_culprit("goal", self.goal)
        for action in self.actions:
            if not (action.pre.items() <= pairs and action.eff.items() <= pairs):
                self._name_culprit(f"pre of {action.name!r}", action.pre)
                self._name_culprit(f"eff of {action.name!r}", action.eff)

    def _name_culprit(self, context: str, state: PartialState) -> None:
        """Raise ValueError on the first entry of state that names an
        undeclared variable or a value outside its variable's domain."""
        domains = {v.name: v.domain for v in self.variables}
        for name, value in state.items():
            if name not in domains:
                raise ValueError(f"{context} references unknown variable {name!r}")
            if value not in domains[name]:
                raise ValueError(
                    f"{context} assigns {name!r} the value {value!r}, "
                    f"which is outside its domain"
                )

    @cached_property
    def variable_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def action_by_name(self) -> dict[str, Action]:
        return {a.name: a for a in self.actions}

    def is_total(self, state: PartialState) -> bool:
        return all(v.name in state for v in self.variables)


@dataclass(frozen=True)
class BoundedQuery:
    """A planning instance together with a plan length bound k."""

    instance: PlanningInstance
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("plan length bound must be non-negative")


@dataclass(frozen=True)
class SolveResult:
    """The answer of either exact solver: a shortest witness on YES, None on NO.

    decision and plan_length are read from the witness, so no result says
    YES without one.  method names the solver that answered, "fpt02" or
    "oracle".  The oracle fills explored_states, the states it expanded;
    fpt02 fills dp_table_entries, the subset table's cells, when it built
    that table.  Two names stay for the benchmark's readers: bench/run.py
    and bench/selftest.py read shortest_length, plan_length under its old
    name, and bench/tracing.py reads fallback, the class constant False,
    since no decision is handed to another solver.
    """

    witness: tuple[str, ...] | None
    method: str
    explored_states: int | None = None
    dp_table_entries: int | None = None
    fallback = False

    @property
    def decision(self) -> bool:
        return self.witness is not None

    @property
    def plan_length(self) -> int | None:
        return None if self.witness is None else len(self.witness)

    shortest_length = plan_length


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a plan step by step.

    On failure, failed_step is the 0-based index of the offending step, or
    None when the plan executed but its final state misses the goal, and
    reason says what went wrong.
    """

    valid: bool
    failed_step: int | None = None
    reason: str | None = None


def is_valid_in(inst: PlanningInstance, action: Action, state: PartialState) -> bool:
    """True when every defined precondition entry agrees with the total state."""
    if not inst.is_total(state):
        raise ValueError("state is not total")
    return all(state[name] == value for name, value in action.pre.items())


def apply_action(inst: PlanningInstance, action: Action, state: PartialState) -> PartialState:
    """Successor state: effect entries override, everything else persists."""
    if not is_valid_in(inst, action, state):
        for name, value in action.pre.items():
            if state[name] != value:
                raise ValueError(
                    f"action {action.name!r} is not valid here: requires "
                    f"{name}={value}, state has {name}={state[name]}"
                )
    merged = dict(state)
    merged.update(action.eff)
    return PartialState(merged)


def is_goal_state(inst: PlanningInstance, state: PartialState) -> bool:
    """True when the total state agrees with every defined goal entry."""
    if not inst.is_total(state):
        raise ValueError("state is not total")
    return all(state[name] == value for name, value in inst.goal.items())


def validate_plan(inst: PlanningInstance, plan: Sequence[str]) -> ValidationReport:
    """Execute a plan from the initial state and report the outcome.

    Failure reasons: an unknown action name, a violated precondition, or a
    final state that does not satisfy the goal.
    """
    # One dict is stepped in place.  It stays total without re-checking:
    # the instance guarantees a total init and effects on declared variables.
    state = dict(inst.init)
    for step, name in enumerate(plan):
        action = inst.action_by_name.get(name)
        if action is None:
            return ValidationReport(False, step, f"unknown action {name!r}")
        for bad, value in action.pre.items():
            if state[bad] != value:
                return ValidationReport(
                    False,
                    step,
                    f"precondition violation: {name!r} requires {bad}="
                    f"{value}, state has {bad}={state[bad]}",
                )
        state.update(action.eff)
    for miss, value in inst.goal.items():
        if state[miss] != value:
            return ValidationReport(
                False,
                None,
                f"final state is not a goal state: {miss}={state[miss]}, "
                f"goal wants {miss}={value}",
            )
    return ValidationReport(True)
