"""The paper's chain transform for two-effect good actions, and its cost.

An action that fixes two goal variables at once can be rewritten into a
chain of k+3 pieces gated through fresh variables, so that no good action
has two effects.  The bound grows from k to k(k+3)+1 and decisions are
preserved; a source plan lifts to a chain plan.  The solver does not need
the rewrite: it gives such an action one pair node in the Steiner graph and
solves at the original bound.
"""

from sasbp import chain_bound, decide_bfs, lemma1_transform, lift_plan, solve_02
from sasbp import reduce_to_steiner, validate_plan
from sasbp.core import Action, BoundedQuery, PartialState, PlanningInstance, Variable


def main():
    inst = PlanningInstance(
        variables=tuple(Variable(n, ("0", "1")) for n in "abc"),
        actions=(
            Action("ab", PartialState({}), PartialState({"a": "1", "b": "1"})),
            Action("c1", PartialState({}), PartialState({"c": "1"})),
            Action("junk", PartialState({}), PartialState({"c": "0"})),
        ),
        init=PartialState({"a": "0", "b": "0", "c": "0"}),
        goal=PartialState({"a": "1", "b": "1", "c": "1"}),
    )
    query = BoundedQuery(inst, 2)
    print(f"source: 3 actions, k = {query.k}; 'ab' fixes two goal variables at once")
    for k in range(5):
        print(f"  chain_bound({k}) = {chain_bound(k)}")
    print()

    out = lemma1_transform(query)
    print(f"transformed: k' = {out.k_prime}, {len(out.instance.actions)} actions")
    print(f"  dropped as useless: {out.dropped_actions}")
    print(f"  chain for 'ab': {out.chain_vars['ab']}")
    print()

    transformed_query = BoundedQuery(out.instance, out.k_prime)
    a = decide_bfs(query).decision
    b = decide_bfs(transformed_query).decision
    print(f"decision at k={query.k}: {a}; at k'={out.k_prime} after transform: {b}")

    # lifting a source plan gives a valid plan of the transformed task
    lifted = lift_plan(out, ("c1", "ab"))
    valid = validate_plan(out.instance, lifted).valid
    print(f"source plan ('c1', 'ab') lifts to {len(lifted)} steps, valid: {valid}")
    print()

    # solve_02 skips the rewrite: 'ab' becomes one pair node at bound k
    for label, q in (("with", transformed_query), ("without", query)):
        steiner = reduce_to_steiner(q).steiner
        print(f"Steiner graph {label} the transform: {len(steiner.nodes)} nodes, "
              f"{len(steiner.weights)} arcs, bound {steiner.bound}")
    result = solve_02(query)
    print(f"solve_02: decision={result.decision}, witness={result.witness}")


if __name__ == "__main__":
    main()
