"""Print the two classification tables and classify a few live instances.

The numeric table is keyed by (max preconditions, max effects), the flag
table by which of postunique / unary / Boolean / single-valued hold.
"""

from sasbp import (
    ARBITRARY,
    detect_profile,
    gen_or_tree,
    lookup_pe,
    lookup_pubs,
)
from sasbp.gadgets import MulticoloredGraph, gen_clique_gadget

PE_AXIS = [(0, "0"), (1, "1"), (2, ">1"), (ARBITRARY, "any")]
E_AXIS = [(1, "1"), (2, "2"), (3, ">2"), (ARBITRARY, "any")]


def main():
    print("numeric table, entries 'classical | parameterized':")
    header = " " * 6 + "".join(f"e={label:<32}" for _, label in E_AXIS)
    print(header)
    for p, p_label in PE_AXIS:
        cells = []
        for e, _ in E_AXIS:
            rec = lookup_pe(p, e)
            cells.append(f"{rec.classical} | {rec.parameterized}")
        print(f"p={p_label:<4}" + "".join(f"{c:<34}" for c in cells))
    print()

    print("flag table, a few rows:")
    for flags in ("PUBS", "PUS", "PUB", "PBS", "UBS", "US", "B", ""):
        rec = lookup_pubs(flags)
        shown = flags or "(none)"
        print(f"  {shown:<6} {rec.classical:<17} {rec.parameterized:<15} "
              f"kernel: {rec.poly_kernel}")
    print()

    for label, inst in (
        ("OR gadget", gen_or_tree((True, False)).query.instance),
        ("clique gadget", gen_clique_gadget(MulticoloredGraph.complete(3, 2)).query.instance),
    ):
        profile = detect_profile(inst)
        flags = "".join(f for f in "PUBS" if f in profile.flags()) or "-"
        by_pe = lookup_pe(profile.max_preconditions, profile.max_effects)
        by_flags = lookup_pubs(profile.flags())
        print(f"{label}: p={profile.max_preconditions} e={profile.max_effects} flags={flags}")
        print(f"  numeric: {by_pe.classical}, {by_pe.parameterized}")
        print(f"  flags:   {by_flags.classical}, {by_flags.parameterized}")


if __name__ == "__main__":
    main()
