"""Exact reference decision procedure via breadth-first state search.

This is the ground-truth oracle the rest of the package is tested against.
It explores total states in breadth-first order up to the plan length bound,
deduplicates states, and reconstructs a shortest witness plan.  Expansion
follows action declaration order, so results are deterministic and the
returned witness is the lexicographically least among the shortest plans.
States are ints packed as in Fast Downward (Helmert, JAIR 2006), one bit
field per variable holding its value's index in the domain: a precondition or
the goal is one test state & mask == bits, an effect (state & keep) | bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import BoundedQuery, ResourceLimitError

# A stored state of a 115-variable task costs ~210 bytes: 440 MB at the budget.
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    decision: bool
    witness: tuple[str, ...] | None
    explored_states: int
    shortest_length: int | None


def decide_bfs(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES) -> OracleResult:
    """Decide whether a plan of length at most k exists.

    Returns a shortest witness on YES.  Raises ResourceLimitError once more than
    max_states states have been expanded or, checked once per expansion, stored.
    """
    inst = query.instance
    fields, width = {}, 0
    for var in inst.variables:
        size = max(1, (len(var.domain) - 1).bit_length())
        fields[var.name] = (width, ((1 << size) - 1) << width, var.domain)
        width += size

    def pack(partial):
        mask = bits = 0
        for name, value in partial.items():
            at, field, domain = fields[name]
            mask |= field
            bits |= domain.index(value) << at
        return mask, bits

    everything, start = pack(inst.init)  # init is total: its mask is every field
    actions = []
    for action in inst.actions:
        eff_mask, eff_bits = pack(action.eff)
        actions.append((*pack(action.pre), everything ^ eff_mask, eff_bits))
    goal_mask, goal_bits = pack(inst.goal)

    came_from: dict[int, tuple[int, int] | None] = {start: None}
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
        if state & goal_mask == goal_bits:
            steps, cursor = [], state
            while came_from[cursor] is not None:
                cursor, action_index = came_from[cursor]
                steps.append(inst.actions[action_index].name)
            return OracleResult(True, tuple(reversed(steps)), explored, depth)
        if depth == query.k:
            continue
        for action_index, (pre_mask, pre_bits, keep_mask, eff_bits) in enumerate(actions):
            if state & pre_mask != pre_bits:
                continue
            successor = (state & keep_mask) | eff_bits
            if successor not in came_from:
                came_from[successor] = (state, action_index)
                queue.append((successor, depth + 1))
    return OracleResult(False, None, explored, None)
