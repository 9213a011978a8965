"""Exact directed Steiner tree solving under a weight bound.

An instance is a digraph with non-negative integer arc weights (absent arcs
are infinite), a root, a terminal set and a bound.  A solution is an arc set of
minimum total weight that reaches every terminal from the root, pruned to an
out-arborescence; None is returned when the minimum exceeds the bound.

solve_dst first presolves, deciding each terminal in one pass by its live
in-arcs, those from nodes the root reaches.  A terminal with none is a NO.
A sink terminal, one without out-arcs, with a single live in-arc takes that
arc in every tree, so the arc is forced and its tail becomes a terminal in
its place (the degree test of Duin and Volgenant 1989).  Sink terminals
with equal lists of two or more live in-arcs are twins: in some optimal
tree they all hang from one parent, the cheapest of those a tree uses, so
one table row stands for each class.  It then runs a subset dynamic program
over the remaining terminal sets on the sparse arc list: the cheapest tree
hanging off a node either follows one arc down or splits its terminal set
there, so each terminal set takes one Dijkstra seeded with the split costs,
and weights above the bound are dropped (Erickson, Monma and Veinott 1987).
The table is exponential in the terminals, so it runs under the work budget
max_states: one unit per table row, 2^t - 1 for t terminals, counted before
any row is built, and one per candidate split, counted per terminal set
before its splits are tried.  Passing the budget raises ResourceLimitError.
brute_dst is an independent brute-force reference over small arc subsets
used to cross-check the dynamic program.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .core import DEFAULT_MAX_STATES, ResourceLimitError

INFINITY = math.inf


@dataclass(frozen=True)
class SteinerInstance:
    """Digraph with finite-weight arcs, a root, terminals and a bound."""

    nodes: tuple[str, ...]
    weights: dict[tuple[str, str], int]
    root: str
    terminals: tuple[str, ...]
    bound: int

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        index = self.index
        if self.root not in index:
            raise ValueError(f"root {self.root!r} is not a node")
        for t in self.terminals:
            if t not in index:
                raise ValueError(f"terminal {t!r} is not a node")
        for (u, v), w in self.weights.items():
            if u not in index or v not in index:
                raise ValueError(f"arc ({u!r}, {v!r}) references unknown nodes")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"arc ({u!r}, {v!r}) needs a non-negative integer weight")
        # Canonical terminal order: dedupe, sort by node declaration.
        seen = sorted(set(self.terminals), key=index.__getitem__)
        object.__setattr__(self, "terminals", tuple(seen))

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.nodes)}


@dataclass(frozen=True)
class SteinerSolution:
    """Arcs of an out-arborescence over the terminals, their weight and tail depths."""

    arcs: tuple[tuple[str, str], ...]
    total_weight: int
    depths: tuple[int, ...]


def _tree(inst: SteinerInstance, arcs) -> SteinerSolution:
    """Keep the breadth-first spanning tree of the arc set from the root,
    children in declaration order, restricted to branches that lead to
    terminals, as a solution: the kept arcs in declaration order, their
    weight and their tail depths.  Every kept arc joins a node to its
    breadth-first parent, so a tail's breadth-first depth is its tree depth."""
    index = inst.index
    children: dict[str, list[str]] = {}
    for u, v in sorted(set(arcs), key=lambda a: (index[a[0]], index[a[1]])):
        children.setdefault(u, []).append(v)
    parent: dict[str, str] = {}
    order = [inst.root]
    depth = {inst.root: 0}
    for node in order:
        for child in children.get(node, ()):
            if child not in depth:
                depth[child] = depth[node] + 1
                parent[child] = node
                order.append(child)
    needed: set[str] = set()
    for t in inst.terminals:
        if t != inst.root and t not in parent:
            raise ValueError(f"terminal {t!r} is not reachable in the solution")
        node = t
        while node != inst.root and node not in needed:
            needed.add(node)
            node = parent[node]
    kept = sorted(((parent[x], x) for x in needed), key=lambda a: (index[a[0]], index[a[1]]))
    depths = tuple(depth[u] for u, _ in kept)
    return SteinerSolution(tuple(kept), sum(inst.weights[a] for a in kept), depths)


def _descend(into, seeds: dict[int, int], bound: int):
    """Multi-source Dijkstra along reversed arcs from trees that start at the
    seeds, dropping weights above the bound.  Each node keeps its least label
    (weight, seed, node), so equal weights go to the lowest-declared seed, as
    in a dense Dreyfus-Wagner table.  Returns the weights (INFINITY when
    beyond the bound) and each node's next hop toward its seed.
    """
    label: list = [None] * len(into)
    hop: list = [None] * len(into)
    heap = [(value, u, u) for u, value in seeds.items()]
    for entry in heap:
        label[entry[2]] = entry
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        value, seed, v = entry
        if entry is not label[v]:
            continue
        for u, w in into[v]:
            if value + w <= bound:
                cand = (value + w, seed, u)
                if label[u] is None or cand < label[u]:
                    label[u] = cand
                    hop[u] = v
                    heapq.heappush(heap, cand)
    return [INFINITY if x is None else x[0] for x in label], hop


def _reachable(out: list[list[int]], root: int) -> list[bool]:
    seen = [False] * len(out)
    seen[root] = True
    stack = [root]
    while stack:
        for v in out[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _presolve(inst: SteinerInstance, into, out):
    """Apply the sink rule (module docstring) to every non-root terminal in
    one pass; into holds the live in-arcs only.  A forced arc's tail u has
    the out-arc to the sink, so a new terminal is never a sink.  Returns None
    for a NO, else the remaining terminal indices in declaration order, with
    one member standing for each twin class, the forced arcs as (tail, head,
    weight), and each class of m >= 2 twins, in declaration order, under its
    first member.
    """
    root = inst.index[inst.root]
    remaining: set[int] = set()
    forced: list[tuple[int, int, int]] = []
    classes: dict[tuple, list[int]] = {}
    for t in (inst.index[name] for name in inst.terminals):
        if t == root:
            continue
        if not into[t]:
            return None
        if out[t]:
            remaining.add(t)
        elif len(into[t]) == 1:
            u, w = into[t][0]
            forced.append((u, t, w))
            if u != root:
                remaining.add(u)
        else:
            classes.setdefault(tuple(sorted(into[t])), []).append(t)
    remaining.update(group[0] for group in classes.values())
    twins = {group[0]: group for group in classes.values() if len(group) >= 2}
    return sorted(remaining), forced, twins


def solve_dst(
    inst: SteinerInstance, stats_out: dict | None = None, max_states: int = DEFAULT_MAX_STATES
) -> SteinerSolution | None:
    """Minimum-weight directed Steiner tree within the bound, or None.

    After the presolve (_presolve), the row of the first member of a class
    of m >= 2 twins is seeded with m times the weight of each in-arc at that
    arc's tail.  Table f[S][v] is the cheapest weight, within the bound left
    after the forced arcs, of a tree rooted at v covering subset S of the
    remaining terminals.  A singleton row is a Dijkstra from its terminal,
    or from its twins' parents.  A larger subset first splits in two at the
    nodes where a tree can branch (out-degree two or more, or a terminal of
    S) and that reach all of S; a Dijkstra from those split costs then
    carries the subtree back along single arcs.  Raises ResourceLimitError
    when the work passes max_states (module docstring).  A terminal beyond
    the bound from the root is a NO before any larger subset is tabled.
    Reconstruction follows the recorded next hops and splits, so
    equal-weight ties resolve deterministically by node declaration order,
    hangs every twin from the parent its class's hop chain ends at, and adds
    the forced arcs back.  stats_out, when given, gets forced, terminals
    (counted before the merge) and merged at every return after the
    presolve, and table_entries once the table is built.
    """
    n = len(inst.nodes)
    index = inst.index
    root = index[inst.root]
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in inst.weights:
        out[index[u]].append(index[v])
    live = _reachable(out, root)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in inst.weights.items():
        if live[index[u]]:
            into[index[v]].append((index[u], w))

    presolved = _presolve(inst, into, out)
    if presolved is None:
        return None
    t_idx, forced, twins = presolved
    dropped = sum(len(group) - 1 for group in twins.values())
    forced_weight = sum(w for _, _, w in forced)
    bound = inst.bound - forced_weight
    if stats_out is not None:
        stats_out.update(forced=len(forced), terminals=len(t_idx) + dropped, merged=dropped)
    if bound < 0:
        return None
    forced_arcs = [(inst.nodes[u], inst.nodes[t]) for u, t, _ in forced]
    if not t_idx:
        return _tree(inst, forced_arcs)
    if (len(t_idx) + dropped) * min(inst.weights.values()) > bound:
        # Each remaining terminal and twin needs a distinct (and has a live) in-arc.
        return None

    full = (1 << len(t_idx)) - 1
    work = full
    if work > max_states:
        raise _out_of_budget(max_states, work, len(t_idx))
    rows = [
        _descend(into, {u: len(twins[t]) * w for u, w in into[t]} if t in twins else {t: 0}, bound)
        for t in t_idx
    ]
    reach = [0] * n
    t_mask = [0] * n
    for bit, (t, (row, _)) in enumerate(zip(t_idx, rows)):
        t_mask[t] = 1 << bit
        for v, value in enumerate(row):
            if value <= bound:
                reach[v] |= 1 << bit
    if reach[root] != full:
        # Some terminal lies beyond the bound from the root.
        return None

    f: list = [None] * (full + 1)
    hops: list = [None] * (full + 1)
    splits: list = [None] * (full + 1)
    for bit, (row, hop) in enumerate(rows):
        f[1 << bit], hops[1 << bit] = row, hop
    forks = [u for u in range(n) if len(out[u]) >= 2 or t_mask[u]]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        branch = [u for u in forks if reach[u] & mask == mask
                  and (len(out[u]) >= 2 or t_mask[u] & mask)]
        halves = []
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                halves.append((f[sub], f[mask ^ sub], sub))
            sub = (sub - 1) & mask
        work += len(branch) * len(halves)
        if work > max_states:
            raise _out_of_budget(max_states, work, len(t_idx))
        merged, split = {}, {}
        for u in branch:
            best = bound + 1
            for f_sub, f_rest, sub in halves:
                cand = f_sub[u] + f_rest[u]
                if cand < best:
                    best, split[u] = cand, sub
            if best <= bound:
                merged[u] = best
        f[mask], hops[mask] = _descend(into, merged, bound)
        splits[mask] = split
    if stats_out is not None:
        stats_out["table_entries"] = full * n

    best = f[full][root]
    if best > bound:
        return None

    arcs = set(forced_arcs)
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        hop = hops[mask]
        while hop[v] is not None:
            arcs.add((inst.nodes[v], inst.nodes[hop[v]]))
            v = hop[v]
        if mask & (mask - 1):
            sub = splits[mask][v]
            stack += [(sub, v), (mask ^ sub, v)]
        else:
            for x in twins.get(t_idx[mask.bit_length() - 1], ()):
                arcs.add((inst.nodes[v], inst.nodes[x]))
    solution = _tree(inst, arcs)
    if solution.total_weight != best + forced_weight:
        raise RuntimeError(
            f"reconstructed tree weighs {solution.total_weight}, the table optimum "
            f"{best} plus the forced weight {forced_weight} is {best + forced_weight}"
        )
    return solution


def _out_of_budget(max_states: int, work: int, terminals: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"work budget of {max_states} exhausted: {terminals} terminals remain after "
        f"presolve and merge, and their subset table takes at least {work} rows and candidate splits"
    )


def brute_dst(inst: SteinerInstance, max_subsets: int = 2_000_000) -> SteinerSolution | None:
    """Reference solver: scan every arc subset, keep the lightest that works.

    Only subsets up to n - 1 arcs matter because minimum solutions are
    arborescences.  Intended for small instances; raises RuntimeError when
    the subset budget runs out.
    """
    terminals = inst.terminals
    if not terminals:
        return _tree(inst, ()) if inst.bound >= 0 else None
    all_arcs = list(inst.weights.items())
    largest = min(len(all_arcs), len(inst.nodes) - 1)
    best_key: tuple | None = None
    best_subset: tuple | None = None
    checked = 0
    for size in range(largest + 1):
        for combo in combinations(range(len(all_arcs)), size):
            checked += 1
            if checked > max_subsets:
                raise RuntimeError(f"subset budget of {max_subsets} exhausted")
            weight = sum(all_arcs[i][1] for i in combo)
            key = (weight, combo)
            if best_key is not None and key >= best_key:
                continue
            chosen = [all_arcs[i][0] for i in combo]
            if _reaches_all(inst, chosen):
                best_key = key
                best_subset = tuple(chosen)
    if best_key is None or best_key[0] > inst.bound:
        return None
    return _tree(inst, best_subset)


def _reaches_all(inst: SteinerInstance, arcs) -> bool:
    children: dict[str, list[str]] = {}
    for u, v in arcs:
        children.setdefault(u, []).append(v)
    seen = {inst.root}
    stack = [inst.root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return all(t in seen for t in inst.terminals)


def extract_arborescence(solution: SteinerSolution) -> list[list[tuple[str, str]]]:
    """Group a solution's arcs into layers by the depth of the arc tail.

    Layer 0 holds the arcs leaving the root, layer i the arcs whose tail
    sits at tree depth i, in the solution's order.  No layer is left empty:
    every tail below the root has its own in-arc."""
    layers: list = [[] for _ in range(max(solution.depths, default=-1) + 1)]
    for arc, depth in zip(solution.arcs, solution.depths):
        layers[depth].append(arc)
    return layers
