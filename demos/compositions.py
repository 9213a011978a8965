"""OR compositions: many instances in, one instance out, bounds that
barely grow.

Packing t independent queries into one whose answer is their OR, with a
bound that depends only on the input bound (plus log t for the flag-table
variant), is exactly the shape of argument that rules out small kernels.
The script builds both variants and checks them with the solvers.
"""

from sasbp import (
    compose_or_02,
    compose_or_pub,
    or_input_02,
    or_input_pub,
    or_threshold,
    solve_02,
)


def main():
    print("how many bound-k inputs fit one composition:")
    for k in (0, 1, 2):
        print(f"  k={k}: up to {or_threshold(k):,}")
    print()

    inputs = [or_input_pub(2, yes) for yes in (True, False, False)]
    pub = compose_or_pub(inputs)
    inst = pub.query.instance
    print(f"flag-table variant, t=3 inputs at k=2:")
    print(f"  composed bound: {pub.query.k} (k + 6 per tree level)")
    print(f"  {len(inst.variables)} variables, {len(inst.actions)} actions")
    print(f"  answer: {pub.ground_truth}, witness {len(pub.witness)} steps "
          f"through input {pub.notes['chosen_input']}")
    print()

    inputs = [or_input_02(1, yes) for yes in (True, False)]
    two = compose_or_02(inputs)
    inst = two.query.instance
    print(f"two-effect variant, t=2 inputs at k=1:")
    print(f"  chain bound k' = {two.notes['chain_bound']}, composed bound 4k'+1 = {two.query.k}")
    print(f"  {len(inst.variables)} variables ({two.notes['machine_vars']} of them machinery)")
    print(f"  answer: {two.ground_truth}, witness {len(two.witness)} steps")

    # this composition is itself precondition-free with two effects, so the
    # Steiner pipeline can eat its own output
    result = solve_02(two.query)
    print(f"  solve_02 on the composition: decision={result.decision}, "
          f"plan length {result.plan_length}")

    allno = compose_or_02([or_input_02(1, False), or_input_02(1, False)])
    print(f"  all-NO variant: {allno.ground_truth}, "
          f"solver says {solve_02(allno.query).decision}")


if __name__ == "__main__":
    main()
