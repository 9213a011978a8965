"""Exact reference decision procedure via breadth-first state search.

This is the ground-truth oracle the rest of the package is tested against.
It explores total states in breadth-first order up to the plan length bound,
deduplicates states, and reconstructs a shortest witness plan.  Expansion
follows action declaration order, so results are deterministic and the
returned witness is the lexicographically least among the shortest plans.
States are ints packed as in Fast Downward (Helmert, JAIR 2006): one bit
field per variable holding its value's index in the domain, then one off-goal
bit per goal variable of more than two values, which the init and each effect
on the variable set to whether the value misses the goal.  The bit is a
function of its field, so packed states map one-to-one onto value tuples and
the search stores, orders and counts the same states; an effect mask holds
the bit exactly when it holds the field, so the mask tests of move pruning
below decide as they would on the fields alone.  A precondition, which
leaves the bit out, is one test state & mask == bits, and an effect is
(state & keep) | bits.  The goal tests the one-bit goal fields and the
off-goal bits, so the goal fields a state has off their goal value are one
popcount of (state ^ goal_bits) & goal_mask.

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

The search walks one level at a time: packed states beside the actions that
stored them, which pick their moves, and a map from each stored state to the
state that stored it, so no tuple is made per state.  The witness follows the
map back, each step the first declared action applicable at the parent that
leads to the child.  That action stored the child: an earlier one in the
parent's move list would have stored it first, and an earlier skipped one leads
to a state stored before the parent was expanded, which the child was not.

The search also stores no successor that a goal-count bound puts beyond k: the
bounded search of IDA* (Korf 1985) with a consistent bound (Pearl 1984).  Let
per_step be the most goal fields one action sets to their goal value, at least
1, and h(s) = ceil(off(s) / per_step), where off(s) counts the goal fields of s
off their goal value.  A step sets at most per_step of them, so h falls by at
most 1 per step: h is consistent, and a plan from s has at least h(s) steps.
Call a state at depth d live when d + h(s) <= k; only live successors are
stored.  Every state on a plan within k is live, and so is the parent that
first stored it, since h(parent) <= h(state) + 1.  By induction over the
levels, each level below the start is the subsequence of live states of the
unbounded search's level, in the same order, each stored by the same parent
and action:
  - a live state's first-store parent is live, so it was stored and expanded;
  - no state expanded before that parent stores it: such a state is live, so
    it precedes the parent in the unbounded search too, tries the same moves
    and would have stored it there first;
  - a live state is not stored deeper than its unbounded depth, where it is
    live as well.
So the first goal state found, its depth and its witness are those of the
unbounded search, and the counts of expanded and stored states can only fall,
in every prefix of the search: a budget the unbounded search does not exhaust
is not exhausted here.  Move pruning stays exact.  If s + a is live, so is p + a,
which is at most as deep and has h at most one more; so p + a is stored and
expanded before s, and in case (ii) stores s + a = (p + a) + b.  If p + a is not
stored, s + a would fail the bound too, and it is not stored either.  Testing
the bound when a state is expanded rather than stored would keep states beyond
the bound in the levels, and which of them depended on the skipped moves.

Each task's tables are built with bit operations, not a Python call per
action pair.  The move list of a generator b is one comprehension over the
actions that states rules (i) and (ii) on their masks, built the first time a
state stored by b is expanded.  One popcount per action counts the goal fields
it sets to their goal value, and one popcount per successor counts its goal
fields off, before the successor is looked up among the stored states.  That
test runs at every level: skipping it where no successor can fail it measured
no faster on the oracle-gadgets cases.  There are two expansion loops, one for
tasks with a precondition and one over (index, keep, bits) moves with no
precondition test for tasks without: one loop for both measured 5-7% slower
per case there, where the cliques have no preconditions and the OR gadgets do.
"""

from __future__ import annotations

from .core import DEFAULT_MAX_STATES, BoundedQuery, ResourceLimitError, SolveResult


def _packed(inst):
    """A task packed into ints: init and goal as (mask, bits), and each action
    as (pre_mask, pre_bits, eff_mask, eff_bits), in declaration order.  A goal
    variable of more than two values has an off-goal bit after every field,
    which the goal tests in place of the field (module docstring)."""
    fields, width = {}, 0
    for var in inst.variables:
        size = max(1, (len(var.domain) - 1).bit_length())
        fields[var.name] = (width, ((1 << size) - 1) << width, var.domain)
        width += size
    wide = [name for name in inst.goal if len(fields[name][2]) > 2]
    flags = {name: 1 << (width + i) for i, name in enumerate(wide)}  # off-goal bits

    def pack(partial, flagged=flags):
        mask = bits = 0
        for name, value in partial.items():
            at, field, domain = fields[name]
            mask |= field
            bits |= domain.index(value) << at
        for name in flagged:
            if name in partial:
                mask |= flags[name]
                if partial[name] != inst.goal[name]:
                    bits |= flags[name]
        return mask, bits

    goal_mask, goal_bits = pack({n: v for n, v in inst.goal.items() if n not in flags}, ())
    actions = [(*pack(action.pre, ()), *pack(action.eff)) for action in inst.actions]
    return pack(inst.init), (goal_mask | sum(flags.values()), goal_bits), actions


def _moves_after(b: int, moves, actions) -> list:
    """The moves a state first stored by action b tries, in declaration order.
    Action a is tried when it reads a field b writes, or when it leaves one of
    b's fields unwritten and is declared no earlier than b, writes a field b
    reads or sets a field both write to another value.  The others cover b or
    commute with it from an earlier declaration (module docstring)."""
    b_pre, _, b_eff, b_bits = actions[b]
    return [
        move
        for move, (a_pre, _, a_eff, a_bits) in zip(moves, actions)
        if a_pre & b_eff
        or a_eff & b_eff != b_eff
        and (move[0] >= b or b_pre & a_eff or (a_bits ^ b_bits) & a_eff & b_eff)
    ]


def _goal_writes(actions, goal_mask: int, goal_bits: int) -> list[int]:
    """The goal fields each action sets to their goal value: one popcount,
    over the one-bit goal fields and the off-goal bits."""
    return [
        (eff_mask & goal_mask & ~(eff_bits ^ goal_bits)).bit_count()
        for _, _, eff_mask, eff_bits in actions
    ]


def _witness(state: int, parent: dict, inst, actions) -> tuple[str, ...]:
    """The plan that stored state, read back along the parent links."""
    steps = []
    while (before := parent[state]) is not None:
        steps.append(next(
            action.name
            for action, (pre_mask, pre_bits, eff_mask, eff_bits) in zip(inst.actions, actions)
            if before & pre_mask == pre_bits and (before & ~eff_mask) | eff_bits == state
        ))
        state = before
    return tuple(reversed(steps))


def decide_bfs(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES) -> SolveResult:
    """Decide whether a plan of length at most k exists.

    Returns a shortest witness on YES.  Raises ResourceLimitError once more than
    max_states states have been expanded or, checked once per expansion, stored.
    A state first stored by action b tries only the actions that neither cover
    b nor commute with it from an earlier declaration (module docstring): the
    others lead to stored states, so the result is that of the full search.
    A successor with more goal fields off than the steps left can set is not
    stored (module docstring): decision, witness and length stay those of the
    full search, and the counts can only fall.  Levels are lists with int
    parent links; the witness is recomputed from them.
    """
    inst, k = query.instance, query.k
    # init is total: its mask is every field and off-goal bit
    (everything, start), (goal_mask, goal_bits), actions = _packed(inst)
    per_step = max([1, *_goal_writes(actions, goal_mask, goal_bits)])

    guarded = any(pre_mask for pre_mask, _, _, _ in actions)
    moves = [  # (index, keep, bits) when no action has a precondition
        (index, pre_mask, pre_bits, everything ^ eff_mask, eff_bits)
        if guarded else (index, everything ^ eff_mask, eff_bits)
        for index, (pre_mask, pre_bits, eff_mask, eff_bits) in enumerate(actions)
    ]
    after: list[list | None] = [None] * len(moves) + [moves]  # moves to try, by generator

    parent: dict[int, int | None] = {start: None}
    level, made_by = [start], [len(moves)]  # the start's sentinel n tries every move
    explored = depth = 0
    while level:
        limit = (k - depth - 1) * per_step  # the most goal fields off a successor may have
        states, generators = [], []
        store, note = states.append, generators.append
        for state, b in zip(level, made_by):
            explored += 1
            if explored > max_states or len(parent) > max_states:
                raise ResourceLimitError(
                    f"state budget of {max_states} exhausted at depth {depth}: "
                    f"{explored} states expanded, {len(parent)} stored"
                )
            if state & goal_mask == goal_bits:
                return SolveResult(_witness(state, parent, inst, actions), "oracle", explored)
            if depth == k:
                continue
            tries = after[b]
            if tries is None:
                tries = after[b] = _moves_after(b, moves, actions)
            if guarded:
                for index, pre_mask, pre_bits, keep_mask, eff_bits in tries:
                    if state & pre_mask == pre_bits:
                        successor = (state & keep_mask) | eff_bits
                        if (((successor ^ goal_bits) & goal_mask).bit_count() <= limit
                                and successor not in parent):
                            parent[successor] = state
                            store(successor)
                            note(index)
            else:
                for index, keep_mask, eff_bits in tries:
                    successor = (state & keep_mask) | eff_bits
                    if (((successor ^ goal_bits) & goal_mask).bit_count() <= limit
                            and successor not in parent):
                        parent[successor] = state
                        store(successor)
                        note(index)
        level, made_by = states, generators
        depth += 1
    return SolveResult(None, "oracle", explored)
