"""Exact reference decision procedure via breadth-first state search.

This is the ground-truth oracle the rest of the package is tested against.
It explores total states in breadth-first order up to the plan length bound,
deduplicates states, and reconstructs a shortest witness plan.  Expansion
follows action declaration order, so results are deterministic and the
returned witness is the lexicographically least among the shortest plans.
States are ints packed as in Fast Downward (Helmert, JAIR 2006), one bit
field per variable holding its value's index in the domain: a precondition or
the goal is one test state & mask == bits, an effect (state & keep) | bits.

Expansion skips the successors that are provably stored already, the part of
move pruning (Holte & Burch, IJCAI 2014) that cannot change a breadth-first
search.  A state s first stored as p + b skips s + a when
  (i)  a covers b: a's precondition reads none of b's effect fields and a
       writes every one of them, so s + a = p + a; or
  (ii) a commutes with b and is declared first: neither reads a field the
       other writes and they write the same values on shared fields, so
       s + a = (p + a) + b, and p + a was queued before s.
Exactness is an induction on queue order: once a state is expanded, every
applicable successor of it is stored, so p + a, and in case (ii) its
successor by b, are stored before s is expanded.  The skipped candidates are
duplicates the search would have dropped, and every store, the queue order,
the count of expanded states and the witness are those of the full search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import BoundedQuery, ResourceLimitError

# A stored state of a 115-variable task costs ~210 bytes: 440 MB at the budget,
# which a forced search of compose-02 k=3 t=2 reaches in about 3 s (2 vCPUs, Python 3.11).
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    decision: bool
    witness: tuple[str, ...] | None
    explored_states: int
    shortest_length: int | None


def _packed(inst):
    """The packing function of a task and its actions as (pre_mask, pre_bits,
    eff_mask, eff_bits), in declaration order."""
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

    return pack, [(*pack(action.pre), *pack(action.eff)) for action in inst.actions]


def _redundant(a: int, b: int, actions) -> bool:
    """Whether a state first stored by action b has its successor by action a
    stored already: a covers b, or a commutes with b and is declared first."""
    a_pre, _, a_eff, a_bits = actions[a]
    b_pre, _, b_eff, b_bits = actions[b]
    if a_pre & b_eff:
        return False
    if a_eff & b_eff == b_eff:
        return True
    return a < b and not b_pre & a_eff and not (a_bits ^ b_bits) & a_eff & b_eff


def decide_bfs(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES) -> OracleResult:
    """Decide whether a plan of length at most k exists.

    Returns a shortest witness on YES.  Raises ResourceLimitError once more than
    max_states states have been expanded or, checked once per expansion, stored.
    A state first stored by action b tries only the actions that neither cover
    b nor commute with it from an earlier declaration (module docstring): the
    others lead to stored states, so the result is that of the full search.
    """
    inst = query.instance
    pack, actions = _packed(inst)
    everything, start = pack(inst.init)  # init is total: its mask is every field
    goal_mask, goal_bits = pack(inst.goal)
    moves = [
        (index, pre_mask, pre_bits, everything ^ eff_mask, eff_bits)
        for index, (pre_mask, pre_bits, eff_mask, eff_bits) in enumerate(actions)
    ]
    after: list[list | None] = [None] * len(moves)  # moves to try, by generator

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
        link = came_from[state]
        if link is None:
            tries = moves
        else:
            b = link[1]
            tries = after[b]
            if tries is None:
                tries = after[b] = [m for m in moves if not _redundant(m[0], b, actions)]
        for action_index, pre_mask, pre_bits, keep_mask, eff_bits in tries:
            if state & pre_mask != pre_bits:
                continue
            successor = (state & keep_mask) | eff_bits
            if successor not in came_from:
                came_from[successor] = (state, action_index)
                queue.append((successor, depth + 1))
    return OracleResult(False, None, explored, None)
