"""Answer checks that do not use the solver.

Everything here reads the instance text with its own small parser and
decides from first principles:

* replay() executes a witness step by step against the text.
* shortest_02() is an exhaustive search for precondition-free tasks.  With
  no preconditions a plan's outcome depends only on which action writes
  each variable last, so the search runs backwards over the set of goal
  variables already written by later steps.  An action may precede those
  steps when every goal variable it writes and nobody later overwrites gets
  its goal value; the search stops when every goal variable left unwritten
  already holds its goal value initially.  Breadth-first order makes the
  first hit a shortest plan.
* colourful_clique() finds a clique with one vertex per colour class by
  brute force over the graph.

check() applies the per-workload rules to a round of solver results and
returns a list of error messages; an empty list means every answer is right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Task:
    init: dict
    goal: dict
    actions: dict  # name -> (pre, eff), both dicts of variable -> value
    k: int


def _assignments(tokens) -> dict:
    out = {}
    for token in tokens:
        name, sep, value = token.partition("=")
        if not sep or not name or not value or name in out:
            raise ValueError(f"bad assignment {token!r}")
        out[name] = value
    return out


def parse(text: str) -> Task:
    """Read the canonical instance text (no comments, fixed section order)."""
    lines = text.splitlines()
    if not lines or lines[0] != "SASBP 1":
        raise ValueError("missing header")
    domains = {}
    init = goal = None
    actions = {}
    k = None
    pos = 1
    while pos < len(lines):
        words = lines[pos].split()
        pos += 1
        if words[0] == "var":
            domains[words[1]] = set(words[2:])
        elif words[0] == "init":
            init = _assignments(words[1:])
        elif words[0] == "goal":
            goal = _assignments(words[1:])
        elif words[0] == "action":
            pre_words, eff_words, end = (lines[pos + i].split() for i in range(3))
            if pre_words[:1] != ["pre"] or eff_words[:1] != ["eff"] or end != ["end"]:
                raise ValueError(f"malformed action {words[1]!r}")
            actions[words[1]] = (_assignments(pre_words[1:]), _assignments(eff_words[1:]))
            pos += 3
        elif words[0] == "k":
            k = int(words[1])
        else:
            raise ValueError(f"unexpected line {lines[pos - 1]!r}")
    if init is None or goal is None or k is None or set(init) != set(domains):
        raise ValueError("incomplete instance")
    for state in [init, goal] + [part for pair in actions.values() for part in pair]:
        for name, value in state.items():
            if value not in domains.get(name, ()):
                raise ValueError(f"{name}={value} is outside the declared domains")
    return Task(init, goal, actions, k)


def replay(task: Task, plan) -> str | None:
    """None when the plan is valid, fits the bound and reaches the goal;
    otherwise the reason it does not."""
    if len(plan) > task.k:
        return f"{len(plan)} steps exceed the bound {task.k}"
    state = dict(task.init)
    for step, name in enumerate(plan, 1):
        if name not in task.actions:
            return f"step {step}: unknown action {name!r}"
        pre, eff = task.actions[name]
        if any(state[v] != x for v, x in pre.items()):
            return f"step {step}: precondition of {name!r} does not hold"
        state.update(eff)
    missed = [v for v, x in task.goal.items() if state[v] != x]
    if missed:
        return f"final state misses the goal on {missed[0]!r}"
    return None


def shortest_02(task: Task) -> int | None:
    """Length of a shortest plan of at most k steps, or None when none exists.

    Only for tasks whose actions have no preconditions; see the module
    docstring for why the backward search over written goal variables is
    exact.
    """
    bit = {name: 1 << i for i, name in enumerate(task.goal)}
    broken = sum(bit[v] for v, x in task.goal.items() if task.init[v] != x)
    moves = set()
    for pre, eff in task.actions.values():
        if pre:
            raise ValueError("shortest_02 needs precondition-free actions")
        writes = sum(bit[v] for v in eff if v in bit)
        wrong = sum(bit[v] for v, x in eff.items() if v in bit and task.goal[v] != x)
        if writes:
            moves.add((writes, wrong))
    frontier = {0}
    seen = {0}
    for depth in range(task.k + 1):
        if any(broken & ~written == 0 for written in frontier):
            return depth
        following = set()
        for written in frontier:
            for writes, wrong in moves:
                if wrong & ~written == 0 and writes & ~written:
                    after = written | writes
                    if after not in seen:
                        seen.add(after)
                        following.add(after)
        frontier = following
    return None


def colourful_clique(classes, edges) -> tuple | None:
    """A clique with one vertex from each class, or None."""
    adjacent = {frozenset(e) for e in edges}
    for pick in itertools.product(*classes):
        if all(frozenset(pair) in adjacent for pair in itertools.combinations(pick, 2)):
            return pick
    return None


def check(workload: str, cases, results) -> list[str]:
    """Errors in one round of results; results[i] is (decision, witness,
    length) for cases[i]."""
    errors = []
    ladder_lengths: dict = {}
    for case, (decision, witness, length) in zip(cases, results):
        task = parse(case.text)

        def fail(message):
            errors.append(f"{workload} {case.name}: {message}")

        if case.kind == "random":
            shortest = shortest_02(task)
            if decision != (shortest is not None):
                fail(f"decision {decision}, reference search says {shortest is not None}")
            elif decision and length != shortest:
                fail(f"plan length {length}, reference shortest is {shortest}")
        elif case.kind == "ladder":
            if decision != any(case.inputs["pattern"]):
                fail(f"decision {decision}, but the OR of the inputs is {not decision}")
            elif decision:
                ladder_lengths.setdefault(case.inputs["rung"], set()).add(length)
        elif case.kind == "clique":
            classes = case.inputs["classes"]
            clique = colourful_clique(classes, case.inputs["edges"])
            c = len(classes)
            if decision != (clique is not None):
                fail(f"decision {decision}, brute force finds a clique: {clique is not None}")
            elif decision and length != c * (c - 1) // 2 + c:
                fail(f"plan length {length}, a clique plan needs {c * (c - 1) // 2 + c}")
        elif case.kind == "or":
            if decision != any(case.inputs["pattern"]):
                fail(f"decision {decision}, but the OR of the inputs is {not decision}")
        else:
            fail(f"unknown case kind {case.kind!r}")

        if decision:
            if witness is None or len(witness) != length:
                fail("YES without a witness of the reported length")
            else:
                reason = replay(task, witness)
                if reason is not None:
                    fail(f"witness does not replay: {reason}")
        elif witness is not None:
            fail("NO with a witness attached")
    for rung, lengths in ladder_lengths.items():
        if len(lengths) > 1:
            errors.append(
                f"{workload} rung k={rung[0]} t={rung[1]}: plan length depends on "
                f"which input is YES: {sorted(lengths)}"
            )
    return errors
