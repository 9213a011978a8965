import copy
import pickle
import random
import re

import pytest

from sasbp.core import EMPTY_STATE, Action, BoundedQuery, PartialState, PlanningInstance, Variable
from sasbp.fileformat import (
    FormatError,
    parse_instance,
    parse_plan,
    parse_steiner,
    write_instance,
    write_plan,
    write_steiner,
)
from sasbp.gadgets import gen_or_tree
from sasbp.planner02 import reduce_to_steiner
from sasbp.steiner import SteinerInstance
from helpers import make_query, random_02_query

DOC = """\
# a lamp behind a door
SASBP 1
var lamp off on          # declaration order is significant
var door 0 1
init lamp=off door=0
goal lamp=on             # any subset, possibly empty
action flip
pre door=1
eff lamp=on
end
k 3
"""


def test_parse_the_documented_example():
    query = parse_instance(DOC)
    inst = query.instance
    assert [v.name for v in inst.variables] == ["lamp", "door"]
    assert inst.variables[0].domain == ("off", "on")
    assert dict(inst.init) == {"lamp": "off", "door": "0"}
    assert dict(inst.goal) == {"lamp": "on"}
    assert len(inst.actions) == 1
    assert dict(inst.actions[0].pre) == {"door": "1"}
    assert query.k == 3


def test_writer_emits_the_canonical_form():
    q = make_query(
        {"a": 2, "b": 2},
        [("noop", {}, {}), ("swap", {"b": "0"}, {"a": "1", "b": "1"})],
        {"a": "0", "b": "1"},
        {},
        0,
    )
    assert write_instance(q) == (
        "SASBP 1\n"
        "var a 0 1\n"
        "var b 0 1\n"
        "init a=0 b=1\n"
        "goal\n"
        "action noop\n"
        "pre\n"
        "eff\n"
        "end\n"
        "action swap\n"
        "pre b=0\n"
        "eff a=1 b=1\n"
        "end\n"
        "k 0\n"
    )


def test_assignments_are_reordered_to_declaration_order():
    text = (
        "SASBP 1\n"
        "var a 0 1\n"
        "var b 0 1\n"
        "init b=1 a=0\n"
        "goal b=0 a=1\n"
        "k 2\n"
    )
    out = write_instance(parse_instance(text))
    assert "init a=0 b=1" in out and "goal a=1 b=0" in out


def test_round_trip_is_byte_stable():
    rng = random.Random(333)
    for _ in range(50):
        q = random_02_query(rng)
        text = write_instance(q)
        back = parse_instance(text)
        assert back == q
        assert write_instance(back) == text


def test_parsed_states_are_full_partial_states():
    # the parser builds its states without the string check; each one must
    # still be read-only, hash as a checked state of the same entries does,
    # and copy and pickle to an equal PartialState
    texts = [
        write_instance(random_02_query(random.Random(27), 6, 9, 4)),
        write_instance(gen_or_tree((True, False, True)).query),
    ]
    for text in texts:
        inst = parse_instance(text).instance
        states = [inst.init, inst.goal]
        states += [state for a in inst.actions for state in (a.pre, a.eff)]
        assert sum(1 for state in states if len(state) > 1) > 5
        for state in states:
            with pytest.raises(TypeError):
                state["x1"] = "0"
            assert hash(state) == hash(PartialState(dict(state)))
            for twin in (copy.copy(state), pickle.loads(pickle.dumps(state))):
                assert type(twin) is PartialState
                assert twin == state


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: expected header"),
        ("SASBP 2\n", "expected header"),
        ("# intro\n\n# more\nSASBP 2\n", "line 4: expected header"),
        ("SASBP 1\nvar x\n", "line 2: var needs a name"),
        ("SASBP 1\nvar a=b 0 1\ninit a=b=0\n", "line 2: variable name 'a=b' holds '='"),
        ("SASBP 1\nvar x 0 1\nk 0\n", "expected init line"),
        ("SASBP 1\nvar x 0 1\ninit x\n", "line 3: expected NAME=VALUE"),
        ("SASBP 1\nvar x 0 1\ninit x=0 x=1\n", "line 3: 'x' assigned twice"),
        ("SASBP 1\nvar x 0 1\ninit x=0\nk 0\n", "expected goal line"),
        (
            "SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction a b\n",
            "line 5: action takes exactly one name",
        ),
        (
            "SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction a\neff x=1\n",
            "line 6: expected pre line in action 'a'",
        ),
        (
            "SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction a\npre\neff\nk 0\n",
            "line 8: expected end after action 'a'",
        ),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\n", "expected bound line"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal  # no actions\n\n", "line \\?: expected bound line"),
        ("SASBP 1\nvar x 0 1\ninit x=0\n", "line \\?: expected goal line"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction a\n", "line \\?: expected pre line in action 'a'"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction a\npre\neff\n", "line \\?: expected end after"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\nk two\n", "line 5: expected 'k INT'"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\nk 1\nk 2\n", "line 6: unexpected content"),
        # a keyword without the space after it does not open its section
        ("SASBP 1\nvar\n", "line 2: expected init line after variables"),
        ("SASBP 1\nvar\tx 0 1\ninit x=0\ngoal\nk 0\n", "line 2: expected init line after"),
        ("SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction\n", "line 5: expected bound line 'k INT' last"),
    ],
)
def test_structural_errors_name_their_line(text, message):
    with pytest.raises(FormatError, match=message):
        parse_instance(text)


@pytest.mark.parametrize("token", ["--2", "\u00b2", "\uff11", "-0", "07", "+1", "1.0"])
def test_bound_must_be_a_canonical_ascii_integer(token):
    with pytest.raises(FormatError, match="line 5: expected 'k INT'"):
        parse_instance(f"SASBP 1\nvar x 0 1\ninit x=0\ngoal\nk {token}\n")


def test_reserved_names_need_an_explicit_opt_in():
    text = "SASBP 1\nvar __x 0 1\ninit __x=0\ngoal\nk 0\n"
    with pytest.raises(FormatError, match="line 2: .*reserved '__' prefix"):
        parse_instance(text)
    query = parse_instance(text, allow_reserved=True)
    assert query.instance.variables[0].name == "__x"
    text = "SASBP 1\nvar x 0 1\ninit x=0\ngoal\naction __go\npre\neff\nend\nk 0\n"
    with pytest.raises(FormatError, match="action name '__go'"):
        parse_instance(text)


def test_semantic_errors_come_without_line_numbers():
    text = "SASBP 1\nvar x 0 1\nvar y 0 1\ninit x=0\ngoal\nk 0\n"
    with pytest.raises(FormatError, match="init is not total") as info:
        parse_instance(text)
    assert not str(info.value).startswith("line")


def test_negative_bounds_are_parsed_then_rejected_semantically():
    text = "SASBP 1\nvar x 0 1\ninit x=0\ngoal\nk -1\n"
    with pytest.raises(FormatError, match="non-negative"):
        parse_instance(text)


def test_plan_files():
    assert parse_plan("# warmup\n\na1\na2  # then this\na1\n") == ("a1", "a2", "a1")
    assert parse_plan("") == ()
    assert write_plan(("a1", "a2")) == "a1\na2\n"
    assert parse_plan(write_plan(())) == ()
    with pytest.raises(FormatError, match="line 2: expected one action name"):
        parse_plan("ok\nnot ok\n")


def one_variable_query(name="c", domain=("0", "1"), action="set") -> BoundedQuery:
    eff = PartialState({name: domain[-1]})
    actions = (Action(action, EMPTY_STATE, eff),)
    inst = PlanningInstance((Variable(name, domain),), actions, PartialState({name: domain[0]}), eff)
    return BoundedQuery(inst, 1)


@pytest.mark.parametrize(
    "fields, kind, token",
    [
        # written as 'var c 0 x#1', read back with the domain ('0', 'x')
        ({"domain": ("0", "x#1")}, "domain value", "x#1"),
        # 'init a b=0' does not parse
        ({"name": "a b"}, "variable name", "a b"),
        ({"name": "a=b"}, "variable name", "a=b"),
        ({"name": "a\u2028b"}, "variable name", "a\u2028b"),
        ({"domain": ("0", "")}, "domain value", ""),
        ({"domain": ("0", "1\t2")}, "domain value", "1\t2"),
        ({"action": "set all"}, "action name", "set all"),
        ({"action": "set#"}, "action name", "set#"),
    ],
)
def test_write_instance_refuses_tokens_that_would_not_parse_back(fields, kind, token):
    with pytest.raises(ValueError, match=re.escape(f"{kind} {token!r} cannot be written")):
        write_instance(one_variable_query(**fields))


def test_written_tokens_round_trip():
    # '=' may sit in a value and in an action name, '#' and blanks nowhere
    query = one_variable_query("c", ("0", "x=1", "é"), "set=x")
    assert parse_instance(write_instance(query)) == query


def test_write_plan_and_write_steiner_refuse_split_names():
    # written as 'x#y', read back as the plan ('x',)
    with pytest.raises(ValueError, match="action name 'x#y'"):
        write_plan(["x#y"])
    for bad in ("a b", "", "a\x1cb"):
        with pytest.raises(ValueError, match="action name"):
            write_plan(["ok", bad])
    assert parse_plan(write_plan(["x=y", "ok"])) == ("x=y", "ok")
    for bad in ("n 1", "n#1", ""):
        inst = SteinerInstance(("r", bad), {("r", bad): 1}, "r", (bad,), 1)
        with pytest.raises(ValueError, match=f"node name {bad!r}"):
            write_steiner(inst)
    # an origin name must stay inside its '# via' comment: one holding a
    # newline would write a second arc line
    inst = SteinerInstance(("r", "a"), {("r", "a"): 0}, "r", ("a",), 0)
    for bad in ("x\narc __root a 0", "a b", ""):
        with pytest.raises(ValueError, match=re.escape(f"action name {bad!r}")):
            write_steiner(inst, origins={("r", "a"): ("ok", bad)})


STEINER_DOC = """\
node r
node x
node y
root r
terminal y
bound 4
arc r x 1   # via set_x
arc x y 2
"""


def test_parse_steiner_golden():
    inst = parse_steiner(STEINER_DOC)
    assert inst.nodes == ("r", "x", "y")
    assert inst.root == "r" and inst.terminals == ("y",) and inst.bound == 4
    assert inst.weights == {("r", "x"): 1, ("x", "y"): 2}


def test_write_steiner_round_trip_with_origins():
    inst = parse_steiner(STEINER_DOC)
    text = write_steiner(inst, origins={("x", "y"): ("hop", "skip")})
    assert "arc x y 2  # via hop,skip" in text
    assert parse_steiner(text) == inst
    # arcs come out in node declaration order whatever the dict order
    shuffled = SteinerInstance(
        inst.nodes, {("x", "y"): 2, ("r", "x"): 1}, "r", ("y",), 4
    )
    assert write_steiner(shuffled) == write_steiner(inst)


def test_reduction_artifacts_survive_the_file_format():
    # a mixed action, then a two-effect good action with its weight-0 arcs
    for second in (("trade", {}, {"b": "1", "a": "0"}), ("both", {}, {"a": "1", "b": "1"})):
        q = make_query(
            {"a": 2, "b": 2},
            [("fix_a", {}, {"a": "1"}), second],
            {"a": "0", "b": "0"},
            {"a": "1", "b": "1"},
            3,
        )
        artifacts = reduce_to_steiner(q)
        text = write_steiner(artifacts.steiner, origins=artifacts.arc_origin)
        assert parse_steiner(text) == artifacts.steiner


@pytest.mark.parametrize(
    "text,message",
    [
        ("node x\nedge x y\n", "line 2: unknown keyword 'edge'"),
        ("root r\nnode x\n", "line 2: node line out of order"),
        ("node r\nroot r\nroot r\n", "line 3: expected a single 'root NAME'"),
        ("node r\nroot r\nbound 1\nbound 2\n", "line 4: expected a single 'bound INT'"),
        ("node r\nroot r\nbound 1\narc r r one\n", "line 4: expected 'arc TAIL HEAD WEIGHT'"),
        ("node r\nnode x\nroot r\nbound 2\narc r x 1\narc r x 1\n", "line 6: duplicate arc"),
        ("node r\nbound 1\n", "missing root line"),
        ("node r\nroot r\n", "missing bound line"),
        ("node r\nroot r\nbound --5\n", "line 3: expected a single 'bound INT'"),
        ("node r\nroot r\nbound \u00b2\n", "line 3: expected a single 'bound INT'"),
        ("node r\nroot r\nbound -0\n", "line 3: expected a single 'bound INT'"),
        ("node r\nroot r\nbound 1\narc r a \u00b2\n", "line 4: expected 'arc TAIL HEAD WEIGHT'"),
        ("node r\nroot r\nbound 1\narc r a \uff11\n", "line 4: expected 'arc TAIL HEAD WEIGHT'"),
        ("node r\nroot r\nbound 1\narc r a -1\n", "line 4: expected 'arc TAIL HEAD WEIGHT'"),
        ("node r\nroot r\nbound 1\narc r a 01\n", "line 4: expected 'arc TAIL HEAD WEIGHT'"),
        ("node r s\nroot r\nbound 1\n", "line 1: node takes exactly one name"),
        ("node r\nroot r\nterminal\nbound 1\n", "line 3: terminal takes exactly one name"),
    ],
)
def test_steiner_structural_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_steiner(text)


def test_steiner_semantic_errors_are_wrapped():
    with pytest.raises(FormatError, match="references unknown nodes"):
        parse_steiner("node r\nroot r\nbound 1\narc r ghost 1\n")
    with pytest.raises(FormatError, match="duplicate node names"):
        parse_steiner("node r\nnode r\nroot r\nbound 1\n")
