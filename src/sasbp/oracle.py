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

At per_step 1 the bound also drops tight successors that are stuck.  A fixer
of a goal field sets it to its goal value; its precondition is ignored.  A
successor at depth d is tight when off(s) = k - d: a plan from it within k
sets one goal field per step and none off, so the fields off only shrink and
each fixer it uses sets off only fields off already.  s is stuck when some
field f off in s has no fixer whose fields set off are all off in s.  So
h'(s) = off(s) + [stuck(s)] is a lower bound, and it is consistent: only a
step that sets one field g and none off lowers h' by two, and its action is a
fixer of g that sets off only fields off in s, so g is not f, f stays off, and
as the fields off only shrink, no fixer of f comes to qualify.  The proofs
above use only that h is a consistent lower bound, so h' may replace it:
d + h'(s) <= k fails exactly when off(s) passes the limit, or meets it, which
is tightness, and s is stuck.  The test files each fixer under the one field it
sets, as per_step 1 ensures.  Above 1 it is skipped: each fixer would need
filing under every field it sets, and every task the oracle solves in the
oracle-gadgets workload has per_step 1.

Each task's tables are built with bit operations, not a Python call per
action pair.  The move list of a generator b is one comprehension over the
actions that states rules (i) and (ii) on their masks, built the first time a
state stored by b is expanded.  A state's goal bits off the goal are off =
(state ^ goal_bits) & goal_mask, 0 exactly at a goal as goal_bits lies within
goal_mask, and each move holds those its effect sets off, eff_off = (eff_bits ^
goal_bits) & goal_mask & eff_mask.  keep and eff_mask split the bits, so a
successor's are (off & keep) | eff_off: the bound is one popcount per move,
tested before the successor is built and looked up among the stored states.
That test runs at every level: skipping it where no successor can fail it
measured no faster on the oracle-gadgets cases.  At depth k its limit is below
zero, so nothing is stored there and no depth cut is needed.  There are two
expansion loops, one for tasks with a precondition, tested before the bound,
and one over (index, keep, bits, eff_off) moves with no precondition test for
tasks without: one loop for both measured 5-7% slower per case there, where
the cliques have no preconditions and the OR gadgets do.  One pass over the
actions builds the moves, per_step and the fixer table: a fix mask is eff_mask
& goal_mask & ~eff_off, the dirty bits are the goal bits that no action without
eff_off fixes (those no action fixes among them), and each keeps its fixers'
eff_off.  The stuck test runs on new successors behind the dirty mask, 0 above
per_step 1, so other tasks pay one int test for it.
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


def _stuck(gap: int, fixers) -> bool:
    """Whether a tight successor with the goal bits gap off is stuck: one of
    them has no fixer whose eff_off lies within gap (module docstring).
    fixers holds (bit, the eff_off of each of its fixers) for each dirty
    goal bit."""
    for bit, bads in fixers:
        if gap & bit:
            for bad in bads:
                if not bad & ~gap:
                    break
            else:
                return True
    return False


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
    max_states states are stored, checked once per expansion; every expanded
    state was stored first, so this also bounds the states expanded.
    A state first stored by action b tries only the actions that neither cover
    b nor commute with it from an earlier declaration (module docstring): the
    others lead to stored states, so the result is that of the full search.
    A successor with more goal fields off than the steps left can set is not
    stored; when no action sets two goal fields, neither is one with exactly
    that many off of which one has no fixer that sets off only goal fields
    off already (module docstring).  Decision, witness and length stay those
    of the full search, and the counts can only fall.  The count is read off
    the state and the move before the successor is built, and it stores
    nothing at depth k, so there is no depth test.  Levels are lists with int
    parent links; the witness is recomputed from them.
    """
    inst, k = query.instance, query.k
    # init is total: its mask is every field and off-goal bit
    (everything, start), (goal_mask, goal_bits), actions = _packed(inst)
    guarded = any(pre_mask for pre_mask, _, _, _ in actions)
    moves, per_step, clean, spoils = [], 1, 0, {}
    for index, (pre_mask, pre_bits, eff_mask, eff_bits) in enumerate(actions):
        eff_off = (eff_bits ^ goal_bits) & goal_mask & eff_mask  # goal bits it sets off
        fixes = eff_mask & goal_mask & ~eff_off  # goal bits it sets to their goal value
        per_step = max(per_step, fixes.bit_count())
        if eff_off:
            spoils.setdefault(fixes, []).append(eff_off)
        else:
            clean |= fixes
        moves.append(  # (index, keep, bits, eff_off) when no action has a precondition
            (index, pre_mask, pre_bits, everything ^ eff_mask, eff_bits, eff_off)
            if guarded else (index, everything ^ eff_mask, eff_bits, eff_off)
        )
    # at per_step 1 a fixer sets one goal bit; the dirty bits have no clean fixer
    dirty = goal_mask & ~clean if per_step == 1 else 0
    fixers = [(1 << i, spoils.get(1 << i, ())) for i in range(dirty.bit_length())
              if dirty >> i & 1]
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
            if len(parent) > max_states:
                raise ResourceLimitError(
                    f"state budget of {max_states} exhausted at depth {depth}: "
                    f"{explored} states expanded, {len(parent)} stored"
                )
            off = (state ^ goal_bits) & goal_mask  # its goal bits off their goal value
            if not off:
                return SolveResult(_witness(state, parent, inst, actions), "oracle", explored)
            tries = after[b]
            if tries is None:
                tries = after[b] = _moves_after(b, moves, actions)
            if guarded:
                for index, pre_mask, pre_bits, keep_mask, eff_bits, eff_off in tries:
                    if (state & pre_mask == pre_bits
                            and (off & keep_mask | eff_off).bit_count() <= limit):
                        successor = (state & keep_mask) | eff_bits
                        if successor not in parent:
                            if (dirty and (gap := off & keep_mask | eff_off).bit_count() == limit
                                    and _stuck(gap, fixers)):
                                continue  # tight and stuck
                            parent[successor] = state
                            store(successor)
                            note(index)
            else:
                for index, keep_mask, eff_bits, eff_off in tries:
                    if (off & keep_mask | eff_off).bit_count() <= limit:
                        successor = (state & keep_mask) | eff_bits
                        if successor not in parent:
                            if (dirty and (gap := off & keep_mask | eff_off).bit_count() == limit
                                    and _stuck(gap, fixers)):
                                continue  # tight and stuck
                            parent[successor] = state
                            store(successor)
                            note(index)
        level, made_by = states, generators
        depth += 1
    return SolveResult(None, "oracle", explored)
