"""Plain-text formats for instances, plans and Steiner problems.

Instance files (conventionally .sasbp) are line oriented:

    SASBP 1
    var lamp off on          # declaration order is significant
    var door 0 1
    init lamp=off door=0     # must assign every variable
    goal lamp=on             # any subset, possibly empty
    action flip
    pre door=1
    eff lamp=on
    end
    k 3

Comments run from '#' to the end of the line.  The writer emits a canonical
form: assignments ordered by variable declaration, one action block per
action in declaration order, pre and eff lines always present even when
empty.  Parsing the writer's output reproduces the query exactly, so
repeated round trips are byte stable.  The writers raise ValueError on a
token that would not parse back as itself.

Names starting with a double underscore are reserved for generated
machinery (chain variables, the Steiner root and pair nodes) and rejected
on parse unless allow_reserved is set.

Syntax is checked in the parsers, with line numbers; semantics in the
model's constructors, without.  Parsed states skip PartialState's string
check, since every token the parser makes is a string already.

Plan files hold one action name per line.  Steiner files hold node, root,
terminal, bound and arc lines; see parse_steiner.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import chain

from .core import EMPTY_STATE, Action, BoundedQuery, PartialState, PlanningInstance, Variable
from .steiner import SteinerInstance

HEADER = "SASBP 1"
RESERVED_PREFIX = "__"
# Integers as str(int) writes them: ASCII digits, no leading zeros, no "-0".
INTEGER = re.compile(r"0|-?[1-9][0-9]*")
NATURAL = re.compile(r"0|[1-9][0-9]*")
# Parsers split at whitespace, cut comments at '#' and assignments at '='.
UNSPLIT = re.compile(r"[\s#]")
UNSPLIT_NAME = re.compile(r"[\s#=]")


class FormatError(ValueError):
    """Raised on malformed input files; messages carry 1-based line numbers."""


def _significant_lines(text: str) -> list[tuple[int, str, list[str]]]:
    """Line number, text and tokens of each line left non-blank once its
    comment is cut; every parser splits a line here and only here."""
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    numbered = enumerate(map(str.strip, raws), 1)
    return [(lineno, line, line.split()) for lineno, line in numbered if line]


def _parse_state(parts: list[str], lineno: int) -> PartialState:
    """The NAME=VALUE tokens that follow a line's keyword, as a state."""
    if len(parts) == 1:
        return EMPTY_STATE
    out: dict[str, str] = {}
    for token in parts[1:]:
        name, sep, value = token.partition("=")
        if not sep or not name or not value:
            raise FormatError(f"line {lineno}: expected NAME=VALUE, got {token!r}")
        if name in out:
            raise FormatError(f"line {lineno}: {name!r} assigned twice")
        out[name] = value
    return PartialState._trusted(out)


def _check_name(kind: str, name: str, lineno: int) -> None:
    if name.startswith(RESERVED_PREFIX):
        raise FormatError(
            f"line {lineno}: {kind} name {name!r} uses the reserved '__' prefix "
            f"(pass allow_reserved to accept generated files)"
        )


def parse_instance(text: str, allow_reserved: bool = False) -> BoundedQuery:
    """Parse an instance file into a bounded query.

    The section order is fixed: header, variables, init, goal, action
    blocks of four rows (action, pre, eff, end), bound.  Structural problems
    raise FormatError with the line number, here; semantic problems (unknown
    variables, off-domain values, a non-total init) surface as FormatError
    without one, from the model's constructors.
    """
    # The var and action checks test the line, not its first token, so a
    # bare 'var' or 'action', or one followed by a tab, ends its section like
    # any other line does.  One iterator walks the lines; past the last line
    # it yields the sentinel, which fails every check with line number '?'.
    rows = iter(_significant_lines(text))
    end = (None, "", [""])

    lineno, line, parts = next(rows, end)
    if line != HEADER:
        raise FormatError(f"line {lineno or 1}: expected header {HEADER!r}")

    variables: list[Variable] = []
    lineno, line, parts = next(rows, end)
    while line.startswith("var "):
        if len(parts) < 3:
            raise FormatError(f"line {lineno}: var needs a name and at least one value")
        if not allow_reserved:
            _check_name("variable", parts[1], lineno)
        try:
            variables.append(Variable(parts[1], tuple(parts[2:])))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        lineno, line, parts = next(rows, end)

    if parts[0] != "init":
        raise FormatError(f"line {lineno or '?'}: expected init line after variables")
    init = _parse_state(parts, lineno)

    lineno, line, parts = next(rows, end)
    if parts[0] != "goal":
        raise FormatError(f"line {lineno or '?'}: expected goal line after init")
    goal = _parse_state(parts, lineno)

    actions: list[Action] = []
    lineno, line, parts = next(rows, end)
    while line.startswith("action "):
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: action takes exactly one name")
        name = parts[1]
        if not allow_reserved:
            _check_name("action", name, lineno)
        lineno, line, parts = next(rows, end)
        if parts[0] != "pre":
            raise FormatError(f"line {lineno or '?'}: expected pre line in action {name!r}")
        pre = _parse_state(parts, lineno)
        lineno, line, parts = next(rows, end)
        if parts[0] != "eff":
            raise FormatError(f"line {lineno or '?'}: expected eff line in action {name!r}")
        eff = _parse_state(parts, lineno)
        lineno, line, parts = next(rows, end)
        if line != "end":
            raise FormatError(f"line {lineno or '?'}: expected end after action {name!r}")
        actions.append(Action(name, pre, eff))
        lineno, line, parts = next(rows, end)

    if parts[0] != "k":
        raise FormatError(f"line {lineno or '?'}: expected bound line 'k INT' last")
    if len(parts) != 2 or not INTEGER.fullmatch(parts[1]):
        raise FormatError(f"line {lineno}: expected 'k INT', got {line!r}")
    k = int(parts[1])
    lineno, line, parts = next(rows, end)
    if lineno is not None:
        raise FormatError(f"line {lineno}: unexpected content after bound: {line!r}")

    try:
        inst = PlanningInstance(
            variables=tuple(variables),
            actions=tuple(actions),
            init=init,
            goal=goal,
        )
        return BoundedQuery(inst, k)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _check_tokens(kind: str, tokens: Sequence[str], bad: re.Pattern = UNSPLIT) -> None:
    """Raise ValueError naming a token that is empty or holds what bad finds;
    one search over the joined tokens keeps the clean case fast."""
    if "" in tokens or bad.search("".join(tokens)):
        token = next(t for t in tokens if not t or bad.search(t))
        raise ValueError(f"{kind} {token!r} cannot be written as one token")


def _ordered_assignments(state: PartialState, order: dict[str, int]) -> str:
    keys = sorted(state, key=order.__getitem__)
    return " ".join(f"{name}={state[name]}" for name in keys)


def write_instance(query: BoundedQuery) -> str:
    """Canonical text form of a bounded query; see the module docstring."""
    inst = query.instance
    _check_tokens("variable name", [v.name for v in inst.variables], UNSPLIT_NAME)
    _check_tokens("domain value", list(chain.from_iterable(v.domain for v in inst.variables)))
    _check_tokens("action name", [a.name for a in inst.actions])
    order = inst.variable_index
    out = [HEADER]
    for v in inst.variables:
        out.append("var " + " ".join((v.name,) + v.domain))
    out.append(("init " + _ordered_assignments(inst.init, order)).rstrip())
    out.append(("goal " + _ordered_assignments(inst.goal, order)).rstrip())
    for a in inst.actions:
        out.append(f"action {a.name}")
        out.append(("pre " + _ordered_assignments(a.pre, order)).rstrip())
        out.append(("eff " + _ordered_assignments(a.eff, order)).rstrip())
        out.append("end")
    out.append(f"k {query.k}")
    return "\n".join(out) + "\n"


def parse_plan(text: str) -> tuple[str, ...]:
    """One action name per line; comments and blank lines are skipped."""
    steps = []
    for lineno, line, parts in _significant_lines(text):
        if len(parts) != 1:
            raise FormatError(f"line {lineno}: expected one action name, got {line!r}")
        steps.append(line)
    return tuple(steps)


def write_plan(plan: Sequence[str]) -> str:
    _check_tokens("action name", plan)
    return "".join(f"{name}\n" for name in plan)


def parse_steiner(text: str) -> SteinerInstance:
    """Parse a Steiner problem.

    Sections in order: 'node NAME' lines (declaration order), one
    'root NAME', 'terminal NAME' lines, one 'bound INT', then
    'arc TAIL HEAD WEIGHT' lines with non-negative integer weights.  Numbers
    are ASCII digits in canonical form, as str(int) writes them.
    """
    nodes: list[str] = []
    root = None
    terminals: list[str] = []
    bound = None
    weights: dict[tuple[str, str], int] = {}
    stage = "node"
    order = ("node", "root", "terminal", "bound", "arc")
    for lineno, line, parts in _significant_lines(text):
        keyword = parts[0]
        if keyword not in order:
            raise FormatError(f"line {lineno}: unknown keyword {keyword!r}")
        if order.index(keyword) < order.index(stage):
            raise FormatError(f"line {lineno}: {keyword} line out of order")
        stage = keyword
        if keyword == "node":
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: node takes exactly one name")
            nodes.append(parts[1])
        elif keyword == "root":
            if len(parts) != 2 or root is not None:
                raise FormatError(f"line {lineno}: expected a single 'root NAME' line")
            root = parts[1]
        elif keyword == "terminal":
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: terminal takes exactly one name")
            terminals.append(parts[1])
        elif keyword == "bound":
            if len(parts) != 2 or bound is not None or not INTEGER.fullmatch(parts[1]):
                raise FormatError(f"line {lineno}: expected a single 'bound INT' line")
            bound = int(parts[1])
        else:
            if len(parts) != 4 or not NATURAL.fullmatch(parts[3]):
                raise FormatError(f"line {lineno}: expected 'arc TAIL HEAD WEIGHT'")
            arc = (parts[1], parts[2])
            if arc in weights:
                raise FormatError(f"line {lineno}: duplicate arc {arc!r}")
            weights[arc] = int(parts[3])
    if root is None:
        raise FormatError("missing root line")
    if bound is None:
        raise FormatError("missing bound line")
    try:
        return SteinerInstance(
            nodes=tuple(nodes),
            weights=weights,
            root=root,
            terminals=tuple(terminals),
            bound=bound,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_steiner(inst: SteinerInstance, origins: dict | None = None) -> str:
    """Canonical text form; origins may annotate arcs with source actions,
    each name one token so the annotation stays a comment."""
    _check_tokens("node name", inst.nodes)
    _check_tokens("action name", list(chain.from_iterable((origins or {}).values())))
    out = [f"node {name}" for name in inst.nodes]
    out.append(f"root {inst.root}")
    out.extend(f"terminal {name}" for name in inst.terminals)
    out.append(f"bound {inst.bound}")
    index = inst.index
    for (tail, head), weight in sorted(
        inst.weights.items(), key=lambda item: (index[item[0][0]], index[item[0][1]])
    ):
        line = f"arc {tail} {head} {weight}"
        if origins and (tail, head) in origins:
            line += "  # via " + ",".join(origins[(tail, head)])
        out.append(line)
    return "\n".join(out) + "\n"
