"""Exact directed Steiner tree solving under a weight bound.

An instance is a digraph with non-negative integer arc weights (absent arcs
are infinite), a root, a terminal set and a bound.  A solution is an arc set of
minimum total weight that reaches every terminal from the root, pruned to an
out-arborescence; None is returned when the minimum exceeds the bound.

solve_dst runs a subset dynamic program over terminal sets on top of
all-pairs shortest paths: the cheapest tree hanging off a node either walks
a shortest path down to the first branching node or splits its terminal set
there.  brute_dst is an independent brute-force reference over small arc
subsets used to cross-check the dynamic program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
        index = {name: i for i, name in enumerate(self.nodes)}
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

    @property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.nodes)}

    def min_finite_weight(self) -> int | None:
        return min(self.weights.values(), default=None)


@dataclass(frozen=True)
class SteinerSolution:
    """Arcs of an out-arborescence covering the terminals, plus their weight."""

    arcs: tuple[tuple[str, str], ...]
    total_weight: int


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


def _path_arcs(inst: SteinerInstance, nxt, i: int, j: int) -> list[tuple[str, str]]:
    arcs = []
    while i != j:
        step = nxt[i][j]
        arcs.append((inst.nodes[i], inst.nodes[step]))
        i = step
    return arcs


def _prune_to_arborescence(inst: SteinerInstance, arcs) -> list[tuple[str, str]]:
    """Keep a deterministic spanning tree of the arc set, restricted to
    branches that lead to terminals."""
    index = inst.index
    children: dict[str, list[str]] = {}
    arc_set = set(arcs)
    for u, v in sorted(arc_set, key=lambda a: (index[a[0]], index[a[1]])):
        children.setdefault(u, []).append(v)
    parent: dict[str, str] = {}
    order = [inst.root]
    seen = {inst.root}
    cursor = 0
    while cursor < len(order):
        node = order[cursor]
        cursor += 1
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
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
    kept = [(parent[x], x) for x in needed]
    kept.sort(key=lambda a: (index[a[0]], index[a[1]]))
    return kept


def solve_dst(inst: SteinerInstance, stats_out: dict | None = None) -> SteinerSolution | None:
    """Minimum-weight directed Steiner tree within the bound, or None.

    Table f[S][v] is the cheapest weight of a tree rooted at v covering
    terminal subset S.  Singletons are shortest paths; larger subsets either
    split at the root of the subtree or walk a shortest path to the node
    where they split.  Reconstruction follows recorded choices, so equal
    weight ties resolve deterministically by node declaration order.
    """
    terminals = inst.terminals
    if not terminals:
        return SteinerSolution((), 0) if inst.bound >= 0 else None
    min_w = inst.min_finite_weight()
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
    kept = _prune_to_arborescence(inst, arcs)
    weight = sum(inst.weights[a] for a in kept)
    if weight != best:
        raise RuntimeError(
            f"reconstructed tree weighs {weight}, the table optimum is {best}"
        )
    return SteinerSolution(tuple(kept), weight)


def brute_dst(inst: SteinerInstance, max_subsets: int = 2_000_000) -> SteinerSolution | None:
    """Reference solver: scan every arc subset, keep the lightest that works.

    Only subsets up to n - 1 arcs matter because minimum solutions are
    arborescences.  Intended for small instances; raises RuntimeError when
    the subset budget runs out.
    """
    terminals = inst.terminals
    if not terminals:
        return SteinerSolution((), 0) if inst.bound >= 0 else None
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
    kept = _prune_to_arborescence(inst, best_subset)
    return SteinerSolution(tuple(kept), sum(inst.weights[a] for a in kept))


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


def extract_arborescence(
    solution: SteinerSolution, inst: SteinerInstance
) -> list[list[tuple[str, str]]]:
    """Group a solution's arcs into layers by the depth of the arc tail.

    Layer 0 holds the arcs leaving the root, layer i the arcs whose tail
    sits at tree depth i.  Within a layer, arcs follow node declaration
    order.  The solution must belong to the instance and reach every
    terminal.
    """
    for arc in solution.arcs:
        if arc not in inst.weights:
            raise ValueError(f"arc {arc!r} does not belong to this instance")
    kept = _prune_to_arborescence(inst, solution.arcs)
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
