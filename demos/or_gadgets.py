"""The seven-action OR gadget and its balanced tree.

gen_or_tree at two bits is the two-input OR gadget: a planning task that is
solvable exactly when one of two input bits is set, always in exactly six
steps.  Its profile is postunique, unary and Boolean yet not
single-valued, which is the cheapest way to leave the polynomial island in
the flag table.  At r bits gen_or_tree stacks the gadget log-deep.
"""

import itertools

from sasbp import decide_bfs, detect_profile, gen_or_tree


def main():
    print("two-input OR, all four initializations:")
    for v1, v2 in itertools.product((False, True), repeat=2):
        out = gen_or_tree((v1, v2))
        oracle = decide_bfs(out.query)
        shortest = oracle.plan_length if oracle.decision else "-"
        print(f"  v1={int(v1)} v2={int(v2)}: {out.ground_truth:3} shortest={shortest}")
    gadget = gen_or_tree((True, False)).query.instance
    print(f"  {len(gadget.variables)} variables, {len(gadget.actions)} actions")
    profile = detect_profile(gadget)
    flags = "".join(f for f in "PUBS" if f in profile.flags())
    print(f"flags: {flags} (S is missing by design)")
    print()

    print("balanced trees, one hot bit:")
    for r in (2, 3, 4, 8):
        bits = [False] * r
        bits[0] = True
        out = gen_or_tree(bits)
        print(
            f"  r={r}: bound {out.query.k}, witness fires "
            f"{len(out.witness) // 6} gadgets ({len(out.witness)} steps)"
        )
    cold = gen_or_tree([False] * 8)
    print(f"  r=8 all-zero: {cold.ground_truth}")


if __name__ == "__main__":
    main()
