"""From precondition-free planning to directed Steiner tree and back.

A task whose actions have no preconditions and at most two effects turns
into a digraph: good single-effect actions are arcs out of a virtual root,
mixed actions are arcs from the variable they damage to the one they fix.
The script prints the arcs, solves the tree problem, and reads a plan off
the solution layers.
"""

from sasbp import (
    decide_bfs,
    extract_plan,
    reduce_to_steiner,
    solve_dst,
    validate_plan,
)
from sasbp.core import Action, BoundedQuery, PartialState, PlanningInstance, Variable

BIN = ("0", "1")


def build_query():
    # b can only be fixed at the price of breaking c, and c at the price of
    # breaking d; a and d have direct repairs
    variables = tuple(Variable(n, BIN) for n in "abcd")
    acts = (
        Action("fix_a", PartialState({}), PartialState({"a": "1"})),
        Action("b_from_c", PartialState({}), PartialState({"b": "1", "c": "0"})),
        Action("c_from_d", PartialState({}), PartialState({"c": "1", "d": "0"})),
        Action("fix_d", PartialState({}), PartialState({"d": "1"})),
        Action("sabotage", PartialState({}), PartialState({"a": "0"})),
    )
    inst = PlanningInstance(
        variables=variables,
        actions=acts,
        init=PartialState({"a": "0", "b": "0", "c": "1", "d": "1"}),
        goal=PartialState({n: "1" for n in "abcd"}),
    )
    return BoundedQuery(inst, 4)


def main():
    query = build_query()
    artifacts = reduce_to_steiner(query)
    steiner = artifacts.steiner
    print(f"terminals (goal variables off their initial value): {steiner.terminals}")
    print("arcs:")
    for (tail, head), names in artifacts.arc_origin.items():
        print(f"  {tail:>7} -> {head:<3} via {', '.join(names)}")
    print(f"bound: {steiner.bound}")
    print()

    solution = solve_dst(steiner)
    print(f"minimum tree weight: {solution.total_weight}")
    plan = extract_plan(artifacts, solution)
    print(f"extracted plan: {plan}")
    print(f"  valid: {validate_plan(query.instance, plan).valid}")

    oracle = decide_bfs(query)
    print(f"search oracle shortest length: {oracle.plan_length}")
    assert len(plan) == oracle.plan_length

    # one unit less and the tree no longer fits
    tight = BoundedQuery(query.instance, len(plan) - 1)
    print(f"at bound {tight.k}: {solve_dst(reduce_to_steiner(tight).steiner)}")


if __name__ == "__main__":
    main()
