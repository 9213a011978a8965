"""Exact reference decision procedure via breadth-first state search.

This is the ground-truth oracle the rest of the package is tested against.
It explores total states in breadth-first order up to the plan length bound,
deduplicates states, and reconstructs a shortest witness plan.  Expansion
follows action declaration order, so results are deterministic and the
returned witness is the lexicographically least among the shortest plans.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import BoundedQuery, ResourceLimitError

# A stored state of a 116-variable task costs about 1.1 KB, so the default
# budget is exhausted at a few hundred megabytes.
DEFAULT_MAX_STATES = 500_000


@dataclass(frozen=True)
class OracleResult:
    decision: bool
    witness: tuple[str, ...] | None
    explored_states: int
    shortest_length: int | None


def _compiled(query: BoundedQuery):
    """Precompute index-based preconditions and effects for fast stepping."""
    inst = query.instance
    index = inst.variable_index
    compiled = []
    for action in inst.actions:
        pre = tuple((index[n], v) for n, v in action.pre.items())
        eff = tuple((index[n], v) for n, v in action.eff.items())
        compiled.append((action.name, pre, eff))
    return compiled


def decide_bfs(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES) -> OracleResult:
    """Decide whether a plan of length at most k exists.

    Returns a shortest witness on YES.  Raises ResourceLimitError once more
    than max_states states have been expanded or, checked once per
    expansion, stored.
    """
    inst = query.instance
    actions = _compiled(query)
    goal = tuple((inst.variable_index[n], v) for n, v in inst.goal.items())
    start = inst.encode(inst.init)

    came_from: dict[tuple[str, ...], tuple[tuple[str, ...], int] | None] = {start: None}
    queue = deque([(start, 0)])
    explored = 0
    while queue:
        state, depth = queue.popleft()
        explored += 1
        if explored > max_states or len(came_from) > max_states:
            raise ResourceLimitError(
                f"state budget of {max_states} exhausted at depth {depth}: "
                f"{explored} states expanded, {len(came_from)} stored"
            )
        if all(state[i] == v for i, v in goal):
            steps = []
            cursor = state
            while came_from[cursor] is not None:
                cursor, action_index = came_from[cursor]
                steps.append(actions[action_index][0])
            steps.reverse()
            return OracleResult(True, tuple(steps), explored, depth)
        if depth == query.k:
            continue
        for action_index, (_, pre, eff) in enumerate(actions):
            if any(state[i] != v for i, v in pre):
                continue
            successor = list(state)
            for i, v in eff:
                successor[i] = v
            successor = tuple(successor)
            if successor not in came_from:
                came_from[successor] = (state, action_index)
                queue.append((successor, depth + 1))
    return OracleResult(False, None, explored, None)

