"""Self-test of the benchmark's answer checks.

    python3 bench/selftest.py

Shows that the checks in reference.py catch wrong answers: on a cheap slice
of each workload's corpus the solver's own answers pass, while a flipped
decision or a witness with one step dropped fails.  Also cross-checks the
reference search shortest_02 against the package's decide_bfs on seeded
random precondition-free tasks.  Exits 0 when every claim holds.
"""

import random
import sys

import run

sasbp = run.import_package()

import reference  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def cheap_slice(workload):
    cases = workloads.build(workload, SEED)
    if workload == "fpt02-random":
        return [c for c in cases if c.name.startswith("small")][:150]
    if workload == "fpt02-ladder":
        return [c for c in cases if c.name.startswith("ladder.k1.")]
    return [c for c in cases if not c.name.startswith(("clique.3x4", "clique.4x2"))]


def main() -> int:
    solve = run.make_solver(sasbp)
    ok = True

    def claim(text, holds):
        nonlocal ok
        ok &= bool(holds)
        print(f"[{'PASS' if holds else 'FAIL'}] {text}")

    for workload in run.WORKLOADS:
        cases = cheap_slice(workload)
        results = [solve(c.text) for c in cases]
        claim(f"{workload}: {len(cases)} solver answers pass the checks",
              not reference.check(workload, cases, results))
        yes = next(i for i, r in enumerate(results) if r[0] and r[2] >= 2)
        no = next(i for i, r in enumerate(results) if not r[0])

        flipped = list(results)
        flipped[no] = (True, None, None)
        claim(f"{workload}: a NO flipped to YES fails",
              reference.check(workload, cases, flipped))
        flipped = list(results)
        flipped[yes] = (False, None, None)
        claim(f"{workload}: a YES flipped to NO fails",
              reference.check(workload, cases, flipped))

        decision, witness, length = results[yes]
        for drop in (0, length - 1):
            broken = list(results)
            short = witness[:drop] + witness[drop + 1:]
            broken[yes] = (decision, short, len(short))
            claim(f"{workload}: a witness with step {drop + 1} of {length} dropped fails",
                  reference.check(workload, cases, broken))

    rng = random.Random(SEED)
    agree = total = 0
    for _ in range(300):
        n_vars = rng.randint(1, 6)
        query = workloads.random_02(
            rng, n_vars, rng.randint(0, 8), rng.randint(0, 4), rng.randint(1, n_vars)
        )
        text = sasbp.write_instance(query)
        oracle = sasbp.decide_bfs(sasbp.parse_instance(text))
        agree += reference.shortest_02(reference.parse(text)) == oracle.shortest_length
        total += 1
    claim(f"shortest_02 matches decide_bfs on {agree}/{total} random tasks", agree == total)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
