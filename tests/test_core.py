import copy
import operator
import pickle
from collections import UserDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest

from sasbp.core import (
    EMPTY_STATE,
    Action,
    BoundedQuery,
    PartialState,
    PlanningInstance,
    ValidationReport,
    Variable,
    validate_plan,
)
from helpers import chain_query, make_query


def test_partial_state_is_a_mapping():
    s = PartialState({"a": "1", "b": "0"})
    assert s["a"] == "1"
    assert s.get("c") is None
    with pytest.raises(KeyError):
        s["c"]
    assert len(s) == 2
    assert set(s) == {"a", "b"}
    assert tuple(s) == ("a", "b")
    assert repr(s) == "PartialState(a=1, b=0)"


def test_partial_state_equality_and_hash():
    s = PartialState({"a": "1", "b": "0"})
    t = PartialState({"b": "0", "a": "1"})
    assert s == t
    assert hash(s) == hash(t)
    assert s == {"a": "1", "b": "0"}
    assert s != PartialState({"a": "1"})
    assert EMPTY_STATE == PartialState()
    assert hash(s) == hash(frozenset({"a": "1", "b": "0"}.items()))
    assert s == MappingProxyType({"a": "1", "b": "0"}) and s != {"a": "1"}
    assert s != ("a", "b") and len({s, t, PartialState({"a": "1"})}) == 2
    for other in (UserDict, MappingProxyType):
        same, fewer = other({"a": "1", "b": "0"}), other({"a": "1"})
        assert s == same and same == s and not s != same and not same != s
        assert s != fewer and fewer != s and not s == fewer and not fewer == s


def test_partial_state_answers_like_a_dict():
    entries = {"a": "1", "b": "0"}
    s = PartialState(entries)
    for name in ("a", "c"):
        assert (name in s) == (name in entries)
        assert s.get(name) == entries.get(name)
        assert s.get(name, "x") == entries.get(name, "x")
    assert list(s.keys()) == list(entries.keys())
    assert list(s.items()) == list(entries.items())
    assert list(s.values()) == list(entries.values())
    assert s.keys() & {"b", "c"} == {"b"}
    assert s.keys() | {"c"} == {"a", "b", "c"}
    assert s.items() - {("a", "1")} == {("b", "0")}
    assert ("a", "1") in s.items() and ("a", "0") not in s.items()
    assert isinstance(s, Mapping)
    assert dict(s) == entries


def test_partial_state_views_cannot_mutate_it():
    s = PartialState({"a": "1", "b": "0"})
    for view in (s.keys(), s.items(), s.values()):
        for method in ("add", "discard", "remove", "pop", "clear", "update", "__setitem__"):
            assert not hasattr(view, method)
        # a dict view exposes its dict only as a read-only proxy
        backing = getattr(view, "mapping", None)
        if backing is not None:
            with pytest.raises(TypeError):
                backing["a"] = "0"
    assert s == {"a": "1", "b": "0"} and tuple(s) == ("a", "b")


def test_partial_state_lookups_skip_the_mapping_mixins():
    # The Mapping mixins fetch each entry through __getitem__ in Python; the
    # model layer's hot loops rely on these being the dict's own.
    lookups = (
        "__getitem__", "__iter__", "__len__", "__contains__", "get", "keys", "items", "values",
        "__eq__", "__ne__",
    )
    for method in lookups:
        assert getattr(PartialState, method) is getattr(dict, method), method


MUTATORS = {
    "setitem": lambda s: operator.setitem(s, "a", "0"),
    "new item": lambda s: operator.setitem(s, "c", "1"),
    "delitem": lambda s: operator.delitem(s, "a"),
    "clear": lambda s: s.clear(),
    "pop": lambda s: s.pop("a"),
    "pop default": lambda s: s.pop("c", "1"),
    "popitem": lambda s: s.popitem(),
    "setdefault": lambda s: s.setdefault("c", "1"),
    "update": lambda s: s.update({"a": "0"}),
    "update keywords": lambda s: s.update(c="1"),
    "ior": lambda s: operator.ior(s, {"a": "0"}),
}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS.keys())
def test_partial_state_mutators_raise_and_change_nothing(mutate):
    s = PartialState({"a": "1", "b": "0"})
    before = hash(s)
    with pytest.raises(TypeError, match="read-only"):
        mutate(s)
    assert s == {"a": "1", "b": "0"} and tuple(s.items()) == (("a", "1"), ("b", "0"))
    assert hash(s) == before == hash(PartialState({"a": "1", "b": "0"}))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
}


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("entries", [{}, {"a": "1", "b": "0"}])
def test_partial_state_copies_are_equal_read_only_states(duplicate, entries):
    s = PartialState(entries)
    twin = duplicate(s)
    assert type(twin) is PartialState
    assert twin == s and tuple(twin.items()) == tuple(s.items())
    assert hash(twin) == hash(s)
    with pytest.raises(TypeError):
        twin["c"] = "1"


def test_partial_state_rejects_non_strings():
    with pytest.raises(TypeError):
        PartialState({"a": 1})


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable("v", ())
    with pytest.raises(ValueError):
        Variable("v", ("0", "0"))
    with pytest.raises(ValueError):
        Variable("", ("0",))


def test_instance_validation():
    v = Variable("a", ("0", "1"))
    good = PlanningInstance((v,), (), PartialState({"a": "0"}), EMPTY_STATE)
    assert good.variable_index == {"a": 0}
    with pytest.raises(ValueError, match="duplicate variable"):
        PlanningInstance((v, v), (), PartialState({"a": "0"}), EMPTY_STATE)
    with pytest.raises(ValueError, match="not total"):
        PlanningInstance((v,), (), EMPTY_STATE, EMPTY_STATE)
    with pytest.raises(ValueError, match="outside its domain"):
        PlanningInstance((v,), (), PartialState({"a": "7"}), EMPTY_STATE)
    with pytest.raises(ValueError, match="unknown variable"):
        PlanningInstance((v,), (), PartialState({"a": "0"}), PartialState({"b": "0"}))
    with pytest.raises(ValueError, match="action name must be non-empty"):
        Action("", EMPTY_STATE, EMPTY_STATE)
    bad_action = Action("x", EMPTY_STATE, PartialState({"b": "1"}))
    with pytest.raises(ValueError, match="eff of 'x'"):
        PlanningInstance((v,), (bad_action,), PartialState({"a": "0"}), EMPTY_STATE)
    with pytest.raises(ValueError, match="duplicate action"):
        a = Action("x", EMPTY_STATE, EMPTY_STATE)
        PlanningInstance((v,), (a, a), PartialState({"a": "0"}), EMPTY_STATE)


def _instance_with(init=None, goal=None, pre=None, eff=None) -> PlanningInstance:
    """Variables a in 0..1 and b in 0..2, then actions "first" (clean),
    "second" (with the given pre and eff) and "third", whose effect names an
    unknown variable, so that every case has a later culprit as well."""
    variables = (Variable("a", ("0", "1")), Variable("b", ("0", "1", "2")))
    actions = (
        Action("first", EMPTY_STATE, PartialState({"a": "1"})),
        Action("second", PartialState(pre or {}), PartialState(eff or {"b": "2"})),
        Action("third", EMPTY_STATE, PartialState({"zz": "1"})),
    )
    init = PartialState(init or {"a": "0", "b": "0"})
    return PlanningInstance(variables, actions, init, PartialState(goal or {}))


CULPRITS = {
    "init unknown": (
        {"init": {"a": "0", "q": "1", "b": "9"}},
        "init references unknown variable 'q'",
    ),
    "init off-domain": (
        {"init": {"a": "5", "b": "0", "q": "1"}},
        "init assigns 'a' the value '5', which is outside its domain",
    ),
    "init missing": (
        {"init": {"b": "1"}},
        "init is not total: missing 'a'",
    ),
    "init unknown and missing": (
        {"init": {"q": "1"}},
        "init references unknown variable 'q'",
    ),
    "init unknown in place of a declared one": (
        {"init": {"q": "1", "b": "0"}},
        "init references unknown variable 'q'",
    ),
    "goal unknown": (
        {"goal": {"q": "1", "b": "9"}},
        "goal references unknown variable 'q'",
    ),
    "goal off-domain": (
        {"goal": {"a": "1", "b": "9", "q": "1"}},
        "goal assigns 'b' the value '9', which is outside its domain",
    ),
    "pre unknown": (
        {"pre": {"a": "1", "q": "1"}},
        "pre of 'second' references unknown variable 'q'",
    ),
    "pre off-domain": (
        {"pre": {"b": "3", "q": "1"}, "eff": {"b": "7"}},
        "pre of 'second' assigns 'b' the value '3', which is outside its domain",
    ),
    "eff unknown": (
        {"pre": {"a": "1"}, "eff": {"b": "1", "q": "1", "a": "7"}},
        "eff of 'second' references unknown variable 'q'",
    ),
    "eff off-domain": (
        {"eff": {"a": "2", "q": "1"}},
        "eff of 'second' assigns 'a' the value '2', which is outside its domain",
    ),
}


@pytest.mark.parametrize("fields, message", CULPRITS.values(), ids=CULPRITS.keys())
def test_instance_names_the_first_culprit(fields, message):
    with pytest.raises(ValueError) as info:
        _instance_with(**fields)
    assert str(info.value) == message


def test_instance_check_reaches_the_last_action():
    with pytest.raises(ValueError) as info:
        _instance_with()
    assert str(info.value) == "eff of 'third' references unknown variable 'zz'"


def test_validate_plan_success_report():
    q = make_query(
        {"a": 2, "b": 2},
        [("one", {}, {"a": "1"}), ("two", {"a": "1"}, {"b": "1"})],
        {"a": "0", "b": "0"},
        {"b": "1"},
        2,
    )
    report = validate_plan(q.instance, ["one", "two"])
    assert report == ValidationReport(True, None, None)
    assert report == ValidationReport(True)


def test_validate_plan_builds_no_partial_states(monkeypatch):
    inst = chain_query(4).instance
    built = []
    original = PartialState.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PartialState, "__init__", counting)
    PartialState(inst.init)
    assert len(built) == 1  # the counter sees a state being built
    built.clear()
    plan = ["m1", "m2", "m3", "g1", "g2", "g3", "g4"]
    assert validate_plan(inst, plan) == ValidationReport(True)
    assert not validate_plan(inst, plan[:-1]).valid
    assert built == []


def test_validate_plan_failures():
    q = make_query(
        {"a": 2},
        [("set", {"a": "1"}, {"a": "1"})],
        {"a": "0"},
        {"a": "1"},
        1,
    )
    unknown = validate_plan(q.instance, ["nope"])
    assert not unknown.valid and unknown.failed_step == 0
    assert "unknown action" in unknown.reason

    violated = validate_plan(q.instance, ["set"])
    assert not violated.valid and violated.failed_step == 0
    assert "precondition violation" in violated.reason

    short = validate_plan(q.instance, [])
    assert not short.valid and short.failed_step is None
    assert "not a goal state" in short.reason


def test_bounded_query_rejects_negative_bound():
    q = make_query({"a": 2}, [], {"a": "0"}, {}, 0)
    with pytest.raises(ValueError):
        BoundedQuery(q.instance, -1)
