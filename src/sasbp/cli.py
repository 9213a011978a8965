"""Command line front end.

Subcommands: classify, solve, validate, preprocess, to-steiner, steiner
solve, generate.  Exit codes are uniform across subcommands:

    0   YES / valid / success
    1   NO / invalid plan / no tree within the bound
    2   usage, format or I/O problem
    3   resource limit hit before a decision

All output is deterministic for a given input, so repeated runs are byte
identical and safe to diff.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core import DEFAULT_MAX_STATES, BoundedQuery, ResourceLimitError, validate_plan
from .fileformat import (
    FormatError,
    parse_instance,
    parse_plan,
    parse_steiner,
    write_instance,
    write_plan,
    write_steiner,
)
from .gadgets import (
    MulticoloredGraph,
    compose_or_02,
    compose_or_pub,
    gen_clique_gadget,
    gen_or_tree,
    or_input_02,
    or_input_pub,
)
from .planner02 import METHODS, reduce_to_steiner, solve
from .preprocess import lemma1_transform
from .restrictions import detect_profile, lookup_pe, lookup_pubs
from .steiner import solve_dst

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_query(args) -> BoundedQuery:
    text = Path(args.instance).read_text()
    return parse_instance(text, allow_reserved=args.allow_reserved)


def cmd_classify(args) -> int:
    query = _read_query(args)
    profile = detect_profile(query.instance)
    flags = "".join(f for f in "PUBS" if f in profile.flags()) or "-"
    try:
        pe = lookup_pe(profile.max_preconditions, profile.max_effects)
    except ValueError:
        pe = None
    pubs = lookup_pubs(profile.flags())
    if args.json:
        payload = {
            "flags": flags,
            "max_preconditions": profile.max_preconditions,
            "max_effects": profile.max_effects,
            "pe": dataclasses.asdict(pe) if pe else None,
            "pubs": dataclasses.asdict(pubs),
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_YES
    print(f"flags: {flags}")
    print(f"profile: p={profile.max_preconditions} e={profile.max_effects}")
    if pe is None:
        print("pe: outside classified range (no effects)")
    else:
        print(f"pe: {pe.classical} | {pe.parameterized} | kernel: {pe.poly_kernel}")
    print(f"pubs: {pubs.classical} | {pubs.parameterized} | kernel: {pubs.poly_kernel}")
    return EXIT_YES


def cmd_solve(args) -> int:
    query = _read_query(args)
    result = solve(query, args.method, max_states=args.max_states)
    decision = result.decision
    if args.json:
        payload = {
            "decision": "yes" if decision else "no",
            "length": result.plan_length,
            "method": result.method,
            "fallback": result.fallback,
            "explored_states": result.explored_states,
            "dp_table_entries": result.dp_table_entries,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("YES" if decision else "NO")
        if decision:
            print(f"plan length: {result.plan_length}")
        print(f"method: {result.method}")
    if decision and args.plan_out:
        Path(args.plan_out).write_text(write_plan(result.witness))
        if not args.json:
            print(f"plan written to {args.plan_out}")
    return EXIT_YES if decision else EXIT_NO


def cmd_validate(args) -> int:
    query = _read_query(args)
    plan = parse_plan(Path(args.plan).read_text())
    report = validate_plan(query.instance, plan)
    if report.valid and len(plan) > query.k:
        print(f"plan is valid but too long: {len(plan)} steps, bound is {query.k}")
        return EXIT_NO
    if report.valid:
        print(f"plan is valid ({len(plan)} steps, bound {query.k})")
        return EXIT_YES
    where = "" if report.failed_step is None else f" at step {report.failed_step + 1}"
    print(f"plan is invalid{where}: {report.reason}")
    return EXIT_NO


def cmd_preprocess(args) -> int:
    query = _read_query(args)
    out = lemma1_transform(query)
    Path(args.out).write_text(write_instance(BoundedQuery(out.instance, out.k_prime)))
    print(f"chain transform: k {query.k} -> k' {out.k_prime}")
    print(f"actions: {len(query.instance.actions)} -> {len(out.instance.actions)}")
    if out.dropped_actions:
        print(f"dropped (bad or effect-free): {', '.join(out.dropped_actions)}")
    print(f"written to {args.out}")
    return EXIT_YES


def cmd_to_steiner(args) -> int:
    query = _read_query(args)
    artifacts = reduce_to_steiner(query)
    Path(args.out).write_text(write_steiner(artifacts.steiner, origins=artifacts.arc_origin))
    steiner = artifacts.steiner
    print(
        f"nodes: {len(steiner.nodes)}  arcs: {len(steiner.weights)}  "
        f"terminals: {len(steiner.terminals)}  bound: {steiner.bound}"
    )
    print(f"written to {args.out}")
    return EXIT_YES


def cmd_steiner_solve(args) -> int:
    inst = parse_steiner(Path(args.instance).read_text())
    solution = solve_dst(inst)
    if args.json:
        payload = None
        if solution is not None:
            payload = {"weight": solution.total_weight, "arcs": [list(a) for a in solution.arcs]}
        print(json.dumps({"solution": payload}, sort_keys=True))
        return EXIT_YES if solution is not None else EXIT_NO
    if solution is None:
        print(f"no tree within bound {inst.bound}")
        return EXIT_NO
    print(f"weight: {solution.total_weight}")
    for tail, head in solution.arcs:
        print(f"arc {tail} {head}")
    return EXIT_YES


def _parse_pattern(args) -> list[bool]:
    """--pattern of a composition, by default one YES input and then NO
    ones; a --t below 2 is left for the composition to refuse."""
    pattern = args.pattern
    if not pattern:
        return [j == 0 for j in range(args.t)]
    if len(pattern) != args.t or set(pattern) - {"y", "n"}:
        raise ValueError(f"pattern must be {args.t} characters of y/n, got {pattern!r}")
    return [c == "y" for c in pattern]


def cmd_generate(args) -> int:
    if args.kind == "clique":
        if args.complete:
            graph = MulticoloredGraph.complete(args.classes, args.per_class)
        elif args.empty:
            graph = MulticoloredGraph.empty(args.classes, args.per_class)
        else:
            graph = MulticoloredGraph.random(
                args.classes, args.per_class, args.edge_prob, args.seed
            )
        output = gen_clique_gadget(graph)
    elif args.kind == "ortree":
        bits = args.bits
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"ortree needs a nonempty 0/1 string, got {bits!r}")
        output = gen_or_tree(c == "1" for c in bits)
    elif args.kind == "compose-pub":
        output = compose_or_pub([or_input_pub(args.k, yes) for yes in _parse_pattern(args)])
    else:
        output = compose_or_02([or_input_02(args.k, yes) for yes in _parse_pattern(args)])

    base = Path(args.out)
    # plain concatenation: with_suffix would eat dots inside the base name
    instance_path = base.parent / (base.name + ".sasbp")
    truth_path = base.parent / (base.name + ".truth")
    plan_path = base.parent / (base.name + ".plan")
    instance_path.write_text(write_instance(output.query))
    truth_lines = [f"answer {output.ground_truth}"]
    truth_lines.extend(f"note {key} {output.notes[key]}" for key in sorted(output.notes))
    truth_path.write_text("\n".join(truth_lines) + "\n")
    print(f"wrote {instance_path}")
    print(f"wrote {truth_path}")
    if output.witness is not None:
        plan_path.write_text(write_plan(output.witness))
        print(f"wrote {plan_path}")
    print(f"answer: {output.ground_truth}")
    return EXIT_YES


def _state_budget(text: str) -> int:
    """argparse type for --max-states: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"state budget must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasbp", description="bounded plan length planning toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = (
        "the work budget of every solver: the oracle's cap on expanded and on stored"
        " states, stored ones checked once per expansion, and the Steiner subset"
        f" table's cap on rows plus candidate splits (default {DEFAULT_MAX_STATES:,})"
    )

    def add_instance_arg(p):
        p.add_argument("instance", help="instance file (.sasbp)")
        p.add_argument(
            "--allow-reserved",
            action="store_true",
            help="accept '__'-prefixed names from generated files",
        )

    p = sub.add_parser("classify", help="report restriction profile and complexity")
    add_instance_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="decide bounded plan existence")
    add_instance_arg(p)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--plan-out", help="write the witness plan here on YES")
    p.add_argument("--max-states", type=_state_budget, default=DEFAULT_MAX_STATES, help=budget)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a plan file against an instance")
    add_instance_arg(p)
    p.add_argument("plan", help="plan file, one action name per line")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("preprocess", help="rewrite an instance with the paper's chain transform")
    add_instance_arg(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("to-steiner", help="emit the Steiner reduction of an instance")
    add_instance_arg(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_to_steiner)

    p = sub.add_parser("steiner", help="operate on Steiner problem files")
    steiner_sub = p.add_subparsers(dest="steiner_command", required=True)
    ps = steiner_sub.add_parser("solve", help="find a minimum tree within the bound")
    ps.add_argument("instance", help="Steiner problem file")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_steiner_solve)

    p = sub.add_parser("generate", help="emit gadget instances with known answers")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    pg = gen_sub.add_parser("clique", help="multicolored clique gadget")
    pg.add_argument("--classes", type=int, default=3)
    pg.add_argument("--per-class", type=int, default=2)
    pg.add_argument("--edge-prob", type=float, default=0.5)
    pg.add_argument("--seed", type=int, default=0)
    style = pg.add_mutually_exclusive_group()
    style.add_argument("--complete", action="store_true")
    style.add_argument("--empty", action="store_true")

    pg = gen_sub.add_parser("ortree", help="balanced OR tree over input bits")
    pg.add_argument("--bits", default="0010", help="input bits, e.g. 0010")

    pg = gen_sub.add_parser("compose-pub", help="OR composition of PUB fixtures")
    pg.add_argument("--t", type=int, default=3)
    pg.add_argument("--k", type=int, default=2)
    pg.add_argument("--pattern", help="y/n per input, e.g. ynn")

    pg = gen_sub.add_parser("compose-02", help="OR composition of two-effect fixtures")
    pg.add_argument("--t", type=int, default=2)
    pg.add_argument("--k", type=int, default=1)
    pg.add_argument("--pattern", help="y/n per input, e.g. yn")

    for pg in gen_sub.choices.values():
        pg.add_argument("--out", required=True, help="output base path (no extension)")
        pg.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
