"""Shared builders for the test suite."""

import random
from collections import deque

from sasbp.core import (
    EMPTY_STATE,
    Action,
    BoundedQuery,
    PartialState,
    PlanningInstance,
    ValidationReport,
    Variable,
    apply_action,
    is_goal_state,
    is_valid_in,
)
from sasbp.fileformat import HEADER, INTEGER, RESERVED_PREFIX, FormatError
from sasbp.oracle import DEFAULT_MAX_STATES, OracleResult, ResourceLimitError, decide_bfs
from sasbp.steiner import INFINITY, SteinerInstance, SteinerSolution

BIN = ("0", "1")


def binary(name: str) -> Variable:
    return Variable(name, BIN)


def make_query(domains, actions, init, goal, k) -> BoundedQuery:
    """Compact query builder.

    domains maps variable name to domain size (values "0", "1", ...);
    actions is an iterable of (name, pre dict, eff dict) triples.
    """
    variables = tuple(
        Variable(name, tuple(str(i) for i in range(size)))
        for name, size in domains.items()
    )
    built = tuple(
        Action(name, PartialState(pre), PartialState(eff)) for name, pre, eff in actions
    )
    inst = PlanningInstance(
        variables=variables,
        actions=built,
        init=PartialState(init),
        goal=PartialState(goal),
    )
    return BoundedQuery(inst, k)


def random_02_query(
    rng: random.Random,
    max_vars: int = 5,
    max_actions: int = 8,
    max_k: int = 4,
) -> BoundedQuery:
    """Random precondition-free query with at most two effects per action.

    Small enough for the search oracle to be a practical reference; sized to
    produce a mix of YES and NO answers across seeds.
    """
    nv = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(1, nv + 1)]
    sizes = {name: rng.randint(2, 3) for name in names}
    variables = tuple(
        Variable(name, tuple(str(i) for i in range(sizes[name]))) for name in names
    )
    init = {name: str(rng.randrange(sizes[name])) for name in names}
    goal_names = rng.sample(names, rng.randint(1, nv))
    goal = {name: str(rng.randrange(sizes[name])) for name in sorted(goal_names)}
    actions = []
    for i in range(rng.randint(0, max_actions)):
        targets = rng.sample(names, rng.randint(1, min(2, nv)))
        eff = {name: str(rng.randrange(sizes[name])) for name in targets}
        actions.append(Action(f"a{i + 1}", EMPTY_STATE, PartialState(eff)))
    inst = PlanningInstance(
        variables=variables,
        actions=tuple(actions),
        init=PartialState(init),
        goal=PartialState(goal),
    )
    return BoundedQuery(inst, rng.randint(0, max_k))


def chain_query(n: int) -> BoundedQuery:
    """Goal x_1..x_n = 1 at k = n: g_i sets x_i, and m_i sets x_i while it
    breaks x_{i+1}.  Every x_i is a terminal, and no sink terminal has a
    single in-arc, so the Steiner presolve forces nothing."""
    names = [f"x{i}" for i in range(1, n + 1)]
    actions = [(f"g{i}", {}, {f"x{i}": "1"}) for i in range(1, n + 1)]
    actions += [(f"m{i}", {}, {f"x{i}": "1", f"x{i + 1}": "0"}) for i in range(1, n)]
    return make_query(
        {name: 2 for name in names},
        actions,
        {name: "0" for name in names},
        {name: "1" for name in names},
        n,
    )


def reaches_all(root, terminals, arcs) -> bool:
    """BFS feasibility check used to audit Steiner solutions in tests."""
    adjacent = {}
    for tail, head in arcs:
        adjacent.setdefault(tail, []).append(head)
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for head in adjacent.get(node, ()):
            if head not in seen:
                seen.add(head)
                frontier.append(head)
    return all(t in seen for t in terminals)


# Breadth-first search over value tuples: the state layout that
# sasbp.oracle.decide_bfs replaced with packed ints, kept as a reference for
# its results field for field and for its budget messages.


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


def tuple_bfs(
    query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES, bounded: bool = False
) -> OracleResult:
    """Tuple-state reference for decide_bfs: same search order, same result.

    With bounded, a successor at depth d is not stored when d plus the
    goal-count bound of decide_bfs exceeds k: its goal variables off their goal
    value, divided by the most of them one action writes with its goal value,
    rounded up."""
    inst = query.instance
    actions = _compiled(query)
    goal = tuple((inst.variable_index[n], v) for n, v in inst.goal.items())
    per_step = max([1] + [sum(pair in eff for pair in goal) for _, _, eff in actions])
    start = tuple(inst.init[v.name] for v in inst.variables)

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
            return OracleResult(tuple(steps), explored)
        if depth == query.k:
            continue
        for action_index, (_, pre, eff) in enumerate(actions):
            if any(state[i] != v for i, v in pre):
                continue
            successor = list(state)
            for i, v in eff:
                successor[i] = v
            successor = tuple(successor)
            if successor in came_from:
                continue
            if bounded:
                off = sum(successor[i] != v for i, v in goal)
                if depth + 1 + -(-off // per_step) > query.k:
                    continue
            came_from[successor] = (state, action_index)
            queue.append((successor, depth + 1))
    return OracleResult(None, explored)


def redundant(a: int, b: int, actions) -> bool:
    """Whether a state first stored by action b has its successor by action a
    stored already: a covers b, or a commutes with b and is declared first.
    Actions are packed (pre_mask, pre_bits, eff_mask, eff_bits) tuples; this
    pairwise test is the reference for the move lists of decide_bfs."""
    a_pre, _, a_eff, a_bits = actions[a]
    b_pre, _, b_eff, b_bits = actions[b]
    if a_pre & b_eff:
        return False
    if a_eff & b_eff == b_eff:
        return True
    return a < b and not b_pre & a_eff and not (a_bits ^ b_bits) & a_eff & b_eff


def _outcome(search, query: BoundedQuery, **options):
    """The OracleResult of a search, or its budget message."""
    try:
        return search(query, **options)
    except ResourceLimitError as error:
        return str(error)


def same_as_tuple_bfs(query: BoundedQuery, max_states: int = DEFAULT_MAX_STATES):
    """Run decide_bfs and require the outcome of the bounded tuple_bfs: equal
    OracleResults, or ResourceLimitErrors with equal messages.  Against the
    unbounded tuple_bfs, require the same decision, witness and length, and an
    answer wherever it answered.  Returns the result, or None when the budget
    ran out."""
    packed = _outcome(decide_bfs, query, max_states=max_states)
    bounded = _outcome(tuple_bfs, query, max_states=max_states, bounded=True)
    plain = _outcome(tuple_bfs, query, max_states=max_states)
    assert packed == bounded, (packed, bounded)
    if isinstance(plain, OracleResult):
        assert isinstance(packed, OracleResult), (packed, plain)
        assert packed.decision == plain.decision, (packed, plain)
        assert packed.witness == plain.witness, (packed, plain)
        assert packed.shortest_length == plain.shortest_length, (packed, plain)
    return packed if isinstance(packed, OracleResult) else None


def enumerate_plans(
    query: BoundedQuery, limit: int, max_sequences: int = DEFAULT_MAX_STATES
) -> list[tuple[str, ...]]:
    """List up to `limit` valid plans of length at most k.

    Plans are ordered by length first, then lexicographically by action
    indices.  Unlike decide_bfs this walks action sequences, not deduplicated
    states, so it also finds plans that revisit states: a reference for the
    order of decide_bfs's witnesses.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    inst = query.instance
    actions = _compiled(query)
    goal = tuple((inst.variable_index[n], v) for n, v in inst.goal.items())
    start = tuple(inst.init[v.name] for v in inst.variables)

    found: list[tuple[str, ...]] = []
    queue = deque([(start, ())])
    checked = 0
    while queue and len(found) < limit:
        state, seq = queue.popleft()
        checked += 1
        if checked > max_sequences:
            raise ResourceLimitError(
                f"sequence budget of {max_sequences} exhausted"
            )
        if all(state[i] == v for i, v in goal):
            found.append(tuple(actions[i][0] for i in seq))
        if len(seq) == query.k:
            continue
        for action_index, (_, pre, eff) in enumerate(actions):
            if any(state[i] != v for i, v in pre):
                continue
            successor = list(state)
            for i, v in eff:
                successor[i] = v
            queue.append((tuple(successor), seq + (action_index,)))
    return found

# Dreyfus-Wagner over all-pairs shortest paths: the dense subset DP that
# sasbp.steiner.solve_dst replaced, kept as a reference for its answers
# and its tie choices.  It prunes with its own copy of the package's tree
# pruning, so a change there shows up as a difference in arcs.


def _shortest_paths(inst: SteinerInstance):
    """Floyd-Warshall distances and next-hop matrix, deterministic on ties."""
    n = len(inst.nodes)
    index = inst.index
    dist = [[INFINITY] * n for _ in range(n)]
    nxt: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
        nxt[i][i] = i
    for (u, v), w in inst.weights.items():
        i, j = index[u], index[v]
        if w < dist[i][j]:
            dist[i][j] = w
            nxt[i][j] = j
    for m in range(n):
        dm = dist[m]
        for i in range(n):
            via = dist[i][m]
            if via is INFINITY:
                continue
            di = dist[i]
            for j in range(n):
                cand = via + dm[j]
                if cand < di[j]:
                    di[j] = cand
                    nxt[i][j] = nxt[i][m]
    return dist, nxt


def _prune(inst: SteinerInstance, arcs) -> list[tuple[str, str]]:
    """Deterministic breadth-first spanning tree of the arc set, cut down to
    the branches that lead to terminals."""
    index = inst.index
    children: dict[str, list[str]] = {}
    for u, v in sorted(set(arcs), key=lambda a: (index[a[0]], index[a[1]])):
        children.setdefault(u, []).append(v)
    parent: dict[str, str] = {}
    order = [inst.root]
    for node in order:
        for child in children.get(node, ()):
            if child != inst.root and child not in parent:
                parent[child] = node
                order.append(child)
    needed: set[str] = set()
    for t in inst.terminals:
        node = t
        while node != inst.root and node not in needed:
            needed.add(node)
            node = parent[node]
    return sorted(((parent[x], x) for x in needed), key=lambda a: (index[a[0]], index[a[1]]))


def _path_arcs(inst: SteinerInstance, nxt, i: int, j: int) -> list[tuple[str, str]]:
    arcs = []
    while i != j:
        step = nxt[i][j]
        arcs.append((inst.nodes[i], inst.nodes[step]))
        i = step
    return arcs


def dreyfus_wagner_reference(
    inst: SteinerInstance, stats_out: dict | None = None
) -> SteinerSolution | None:
    """Dense Dreyfus-Wagner reference for solve_dst: same answers, same arcs.

    Table f[S][v] is the cheapest weight of a tree rooted at v covering
    terminal subset S.  Singletons are shortest paths; larger subsets either
    split at the root of the subtree or walk a shortest path to the node
    where they split.  Reconstruction follows recorded choices, so equal
    weight ties resolve deterministically by node declaration order.
    """
    terminals = inst.terminals
    if not terminals:
        return SteinerSolution((), 0, ()) if inst.bound >= 0 else None
    min_w = min(inst.weights.values(), default=None)
    if min_w is None:
        return None
    if len(terminals) * min_w > inst.bound:
        # Each terminal needs a distinct incoming arc.
        return None

    n = len(inst.nodes)
    index = inst.index
    dist, nxt = _shortest_paths(inst)
    root = index[inst.root]
    t_idx = [index[t] for t in terminals]
    full = (1 << len(t_idx)) - 1

    f: list[list] = [[]] * (full + 1)
    choice: list[list] = [[]] * (full + 1)
    for bit, t in enumerate(t_idx):
        f[1 << bit] = [dist[v][t] for v in range(n)]
        choice[1 << bit] = [("reach", t)] * n
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        merged = [INFINITY] * n
        merged_sub = [0] * n
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                f_sub, f_rest = f[sub], f[rest]
                for v in range(n):
                    cand = f_sub[v] + f_rest[v]
                    if cand < merged[v]:
                        merged[v] = cand
                        merged_sub[v] = sub
            sub = (sub - 1) & mask
        row = [INFINITY] * n
        ch: list = [None] * n
        for v in range(n):
            dv = dist[v]
            best = INFINITY
            best_u = None
            for u in range(n):
                cand = dv[u] + merged[u]
                if cand < best:
                    best = cand
                    best_u = u
            row[v] = best
            if best_u is not None:
                ch[v] = ("via", best_u, merged_sub[best_u])
        f[mask] = row
        choice[mask] = ch
    if stats_out is not None:
        stats_out["table_entries"] = (full) * n
        stats_out["terminals"] = len(t_idx)

    best = f[full][root]
    if best is INFINITY or best > inst.bound:
        return None

    arcs: dict[tuple[str, str], None] = {}

    def build(mask: int, v: int) -> None:
        picked = choice[mask][v]
        if picked[0] == "reach":
            for arc in _path_arcs(inst, nxt, v, picked[1]):
                arcs[arc] = None
        else:
            _, u, sub = picked
            for arc in _path_arcs(inst, nxt, v, u):
                arcs[arc] = None
            build(sub, u)
            build(mask ^ sub, u)

    build(full, root)
    kept = _prune(inst, arcs)
    weight = sum(inst.weights[a] for a in kept)
    if weight != best:
        raise RuntimeError(
            f"reconstructed tree weighs {weight}, the table optimum is {best}"
        )
    depth = {arc: d for d, layer in enumerate(reference_layers(kept, inst)) for arc in layer}
    return SteinerSolution(tuple(kept), weight, tuple(depth[arc] for arc in kept))


# The layering that sasbp.steiner.extract_arborescence replaced: it prunes,
# then resolves tail depths in fixpoint passes over the kept arcs and sorts
# each layer again.  Kept as a reference for its layers, on top of the
# helpers' own copy of the tree pruning.


def reference_layers(arcs, inst: SteinerInstance):
    """Fixpoint reference for extract_arborescence: the layers of the tree
    that an arc set of the instance prunes to."""
    for arc in arcs:
        if arc not in inst.weights:
            raise ValueError(f"arc {arc!r} does not belong to this instance")
    kept = _prune(inst, arcs)
    index = inst.index
    depth = {inst.root: 0}
    remaining = list(kept)
    layers: list[list[tuple[str, str]]] = []
    while remaining:
        unresolved = []
        for u, v in remaining:
            if u in depth:
                d = depth[u]
                while len(layers) <= d:
                    layers.append([])
                layers[d].append((u, v))
                depth[v] = d + 1
            else:
                unresolved.append((u, v))
        if len(unresolved) == len(remaining):
            raise ValueError("solution arcs are not connected to the root")
        remaining = unresolved
    for layer in layers:
        layer.sort(key=lambda a: (index[a[0]], index[a[1]]))
    return layers


# The parser that sasbp.fileformat.parse_instance replaced: it peeks at each
# line and splits it again in every check.  Kept as a reference for its
# queries and for every FormatError message and line number, with its own
# copies of the line, assignment and name helpers.


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_assignments(parts: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in parts:
        name, sep, value = token.partition("=")
        if not sep or not name or not value:
            raise FormatError(f"line {lineno}: expected NAME=VALUE, got {token!r}")
        if name in out:
            raise FormatError(f"line {lineno}: {name!r} assigned twice")
        out[name] = value
    return out


def _check_name(kind: str, name: str, lineno: int, allow_reserved: bool) -> None:
    if name.startswith(RESERVED_PREFIX) and not allow_reserved:
        raise FormatError(
            f"line {lineno}: {kind} name {name!r} uses the reserved '__' prefix "
            f"(pass allow_reserved to accept generated files)"
        )


def reference_parse_instance(text: str, allow_reserved: bool = False) -> BoundedQuery:
    """Peek-and-split reference for parse_instance: same query, same errors."""
    lines = list(_significant_lines(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, None)

    lineno, line = peek()
    if line != HEADER:
        raise FormatError(f"line {lineno or 1}: expected header {HEADER!r}")
    pos += 1

    variables: list[Variable] = []
    while True:
        lineno, line = peek()
        if line is None or not line.startswith("var "):
            break
        parts = line.split()
        if len(parts) < 3:
            raise FormatError(f"line {lineno}: var needs a name and at least one value")
        _check_name("variable", parts[1], lineno, allow_reserved)
        try:
            variables.append(Variable(parts[1], tuple(parts[2:])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        pos += 1

    lineno, line = peek()
    if line is None or line.split()[0] != "init":
        raise FormatError(f"line {lineno or '?'}: expected init line after variables")
    init = _parse_assignments(line.split()[1:], lineno)
    pos += 1

    lineno, line = peek()
    if line is None or line.split()[0] != "goal":
        raise FormatError(f"line {lineno or '?'}: expected goal line after init")
    goal = _parse_assignments(line.split()[1:], lineno)
    pos += 1

    actions: list[Action] = []
    while True:
        lineno, line = peek()
        if line is None or not line.startswith("action "):
            break
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: action takes exactly one name")
        _check_name("action", parts[1], lineno, allow_reserved)
        name = parts[1]
        pos += 1

        block = {}
        for keyword in ("pre", "eff"):
            lineno, line = peek()
            if line is None or line.split()[0] != keyword:
                raise FormatError(
                    f"line {lineno or '?'}: expected {keyword} line in action {name!r}"
                )
            block[keyword] = _parse_assignments(line.split()[1:], lineno)
            pos += 1
        lineno, line = peek()
        if line != "end":
            raise FormatError(f"line {lineno or '?'}: expected end after action {name!r}")
        pos += 1
        actions.append(Action(name, PartialState(block["pre"]), PartialState(block["eff"])))

    lineno, line = peek()
    if line is None or line.split()[0] != "k":
        raise FormatError(f"line {lineno or '?'}: expected bound line 'k INT' last")
    parts = line.split()
    if len(parts) != 2 or not INTEGER.fullmatch(parts[1]):
        raise FormatError(f"line {lineno}: expected 'k INT', got {line!r}")
    k = int(parts[1])
    pos += 1
    if pos < len(lines):
        lineno, line = lines[pos]
        raise FormatError(f"line {lineno}: unexpected content after bound: {line!r}")

    try:
        inst = PlanningInstance(
            variables=tuple(variables),
            actions=tuple(actions),
            init=PartialState(init),
            goal=PartialState(goal),
        )
        return BoundedQuery(inst, k)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# The step-by-step validator that sasbp.core.validate_plan replaced: every
# step goes through the public apply_action, is_valid_in and is_goal_state,
# each of which re-checks that the state is total.  Kept as a reference for
# its reports field for field.


def reference_validate_plan(inst: PlanningInstance, plan) -> ValidationReport:
    """Step-by-step reference for validate_plan: the same report."""
    state = inst.init
    for step, name in enumerate(plan):
        action = inst.action_by_name.get(name)
        if action is None:
            return ValidationReport(False, step, f"unknown action {name!r}")
        if not is_valid_in(inst, action, state):
            bad = next(n for n, v in action.pre.items() if state[n] != v)
            return ValidationReport(
                False,
                step,
                f"precondition violation: {name!r} requires {bad}="
                f"{action.pre[bad]}, state has {bad}={state[bad]}",
            )
        state = apply_action(inst, action, state)
    if not is_goal_state(inst, state):
        miss = next(n for n, v in inst.goal.items() if state[n] != v)
        return ValidationReport(
            False,
            None,
            f"final state is not a goal state: {miss}={state[miss]}, "
            f"goal wants {miss}={inst.goal[miss]}",
        )
    return ValidationReport(True)
