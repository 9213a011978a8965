import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sasbp
from sasbp.cli import build_parser, main
from sasbp.fileformat import write_instance
from helpers import chain_query

TRADE = """\
SASBP 1
var a 0 1
var b 0 1
init a=0 b=0
goal a=1 b=1
action fix_a
pre
eff a=1
end
action trade
pre
eff b=1 a=0
end
k 3
"""

GATED = """\
SASBP 1
var g 0 1
var x 0 1
init g=0 x=0
goal x=1
action open
pre
eff g=1
end
action set_x
pre g=1
eff x=1
end
k 2
"""

CHAINED = """\
SASBP 1
var a 0 1
var b 0 1
var c 0 1
init a=0 b=0 c=0
goal a=1 b=1 c=1
action ab
pre
eff a=1 b=1
end
action c1
pre
eff c=1
end
k 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trade_file(tmp_path):
    path = tmp_path / "trade.sasbp"
    path.write_text(TRADE)
    return str(path)


class TestClassify:
    def test_human_output(self, capsys, trade_file):
        code, out, _ = run(capsys, "classify", trade_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "flags: PBS"
        assert lines[1] == "profile: p=0 e=2"
        assert lines[2] == "pe: NP-complete | in FPT | kernel: no unless coNP ⊆ NP/poly"
        assert lines[3].startswith("pubs: ")

    def test_json_output(self, capsys, trade_file):
        code, out, _ = run(capsys, "classify", trade_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"] == "PBS"
        assert payload["max_preconditions"] == 0
        assert payload["max_effects"] == 2
        assert payload["pe"]["classical"] == "NP-complete"
        assert set(payload["pubs"]) == {"classical", "parameterized", "poly_kernel"}

    def test_no_effects_has_no_pe_bucket(self, capsys, tmp_path):
        path = tmp_path / "still.sasbp"
        path.write_text("SASBP 1\nvar x 0 1\ninit x=0\ngoal\nk 0\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "pe: outside classified range (no effects)" in out


class TestSolve:
    def test_yes_writes_a_checkable_plan(self, capsys, tmp_path, trade_file):
        plan_path = tmp_path / "out.plan"
        code, out, _ = run(capsys, "solve", trade_file, "--plan-out", str(plan_path))
        assert code == 0
        assert out.splitlines() == [
            "YES",
            "plan length: 2",
            "method: fpt02",
            f"plan written to {plan_path}",
        ]
        assert plan_path.read_text() == "trade\nfix_a\n"
        code, out, _ = run(capsys, "validate", trade_file, str(plan_path))
        assert code == 0
        assert out == "plan is valid (2 steps, bound 3)\n"

    def test_unwritable_plan_out_prints_no_verdict(self, capsys, tmp_path, trade_file):
        plan_path = tmp_path / "missing" / "trade.plan"
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "solve", trade_file, "--plan-out", str(plan_path), *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and str(plan_path) in err

    def test_no_exits_one(self, capsys, tmp_path):
        path = tmp_path / "no.sasbp"
        path.write_text(TRADE.replace("k 3", "k 1"))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 1
        assert out.splitlines() == ["NO", "method: fpt02"]

    def test_json_payload(self, capsys, trade_file):
        code, out, _ = run(capsys, "solve", trade_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "yes"
        assert payload["length"] == 2
        assert payload["method"] == "fpt02"
        assert payload.keys() == {
            "decision", "length", "method", "explored_states", "dp_table_entries"
        }
        assert payload["dp_table_entries"] is not None

    def test_auto_falls_back_to_oracle_on_preconditions(self, capsys, tmp_path):
        path = tmp_path / "gated.sasbp"
        path.write_text(GATED)
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "oracle"
        assert payload["length"] == 2
        assert payload["explored_states"] >= 3

    def test_state_budget_exhaustion_exits_three(self, capsys, tmp_path):
        path = tmp_path / "gated.sasbp"
        path.write_text(GATED)
        code, _, err = run(capsys, "solve", str(path), "--max-states", "2")
        assert code == 3
        assert "resource limit:" in err

    def test_too_many_terminals_exits_three(self, capsys, tmp_path):
        # 19 terminals remain after the presolve; both the planning and the
        # Steiner front end give up with exit 3 instead of searching
        path = tmp_path / "chain.sasbp"
        path.write_text(write_instance(chain_query(19)))
        steiner = tmp_path / "chain.stp"
        message = (
            "resource limit: work budget of 2000000 exhausted:"
            " 19 terminals remain after presolve and merge"
        )
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (3, "")
        assert message in err
        assert run(capsys, "to-steiner", str(path), "--out", str(steiner))[0] == 0
        code, out, err = run(capsys, "steiner", "solve", str(steiner))
        assert (code, out) == (3, "")
        assert message in err

    def test_work_budget_bounds_the_steiner_table(self, capsys, tmp_path):
        # chain_query(4) answers at the default budget; its table takes 65
        # rows and candidate splits
        path = tmp_path / "chain.sasbp"
        path.write_text(write_instance(chain_query(4)))
        assert run(capsys, "solve", str(path))[0] == 0
        assert run(capsys, "solve", str(path), "--max-states", "65")[0] == 0
        code, out, err = run(capsys, "solve", str(path), "--max-states", "64")
        assert (code, out) == (3, "")
        assert "resource limit: work budget of 64 exhausted: 4 terminals" in err

    def test_repeated_runs_are_byte_identical(self, capsys, trade_file):
        first = run(capsys, "solve", trade_file, "--json")
        second = run(capsys, "solve", trade_file, "--json")
        assert first == second

    def test_two_effect_good_action_is_solved_directly(self, capsys, tmp_path):
        path = tmp_path / "chained.sasbp"
        path.write_text(CHAINED)
        plan = tmp_path / "chained.plan"
        code, out, _ = run(capsys, "solve", str(path), "--json", "--plan-out", str(plan))
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "yes"
        assert payload["length"] == 2
        assert payload["method"] == "fpt02"
        assert plan.read_text() == "c1\nab\n"
        assert run(capsys, "solve", str(path), "--json") == (0, out, "")


class TestValidate:
    def test_goal_miss_is_reported_without_a_step(self, capsys, tmp_path, trade_file):
        plan = tmp_path / "p.plan"
        plan.write_text("fix_a\ntrade\n")
        code, out, _ = run(capsys, "validate", trade_file, str(plan))
        assert code == 1
        assert out.startswith("plan is invalid: final state is not a goal state")

    def test_unknown_action_names_its_step(self, capsys, tmp_path, trade_file):
        plan = tmp_path / "p.plan"
        plan.write_text("trade\nwat\n")
        code, out, _ = run(capsys, "validate", trade_file, str(plan))
        assert code == 1
        assert out.startswith("plan is invalid at step 2: unknown action")

    def test_valid_but_over_bound(self, capsys, tmp_path):
        inst = tmp_path / "tight.sasbp"
        inst.write_text(TRADE.replace("k 3", "k 1"))
        plan = tmp_path / "p.plan"
        plan.write_text("trade\nfix_a\n")
        code, out, _ = run(capsys, "validate", str(inst), str(plan))
        assert code == 1
        assert out == "plan is valid but too long: 2 steps, bound is 1\n"


class TestPreprocess:
    def test_chain_transform_round_trip(self, capsys, tmp_path):
        src = tmp_path / "chained.sasbp"
        src.write_text(CHAINED)
        out_path = tmp_path / "chained.l1.sasbp"
        code, out, _ = run(capsys, "preprocess", str(src), "--out", str(out_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "chain transform: k 2 -> k' 11"
        assert lines[1] == "actions: 2 -> 11"
        assert lines[-1] == f"written to {out_path}"

        # the output leans on reserved names, so plain parsing refuses it
        code, _, err = run(capsys, "classify", str(out_path))
        assert code == 2 and "reserved" in err
        code, out, _ = run(capsys, "solve", str(out_path), "--allow-reserved", "--json")
        assert code == 0
        assert json.loads(out)["decision"] == "yes"

    def test_names_the_dropped_actions(self, capsys, tmp_path):
        # wreck undoes a goal fact and noop writes nothing: neither is chained
        extra = "action wreck\npre\neff c=0\nend\naction noop\npre\neff\nend\n"
        src = tmp_path / "mixed.sasbp"
        src.write_text(CHAINED.replace("k 2\n", extra + "k 2\n"))
        out_path = tmp_path / "mixed.l1.sasbp"
        code, out, _ = run(capsys, "preprocess", str(src), "--out", str(out_path))
        assert code == 0
        assert out.splitlines() == [
            "chain transform: k 2 -> k' 11",
            "actions: 4 -> 11",
            "dropped (bad or effect-free): wreck, noop",
            f"written to {out_path}",
        ]

    def test_reserved_name_is_refused_by_the_transform(self, capsys, tmp_path):
        # the transform itself names the '__' symbol, so no flag can admit it
        src = tmp_path / "reserved.sasbp"
        text = CHAINED.replace("var c 0 1\n", "var c 0 1\nvar __x 0 1\n")
        src.write_text(text.replace("c=0\n", "c=0 __x=0\n"))
        out_path = tmp_path / "reserved.l1.sasbp"
        err = "error: variable '__x' uses the reserved __ prefix\n"
        assert run(capsys, "preprocess", str(src), "--out", str(out_path)) == (2, "", err)
        assert not out_path.exists()
        with pytest.raises(SystemExit) as info:
            main(["preprocess", str(src), "--out", str(out_path), "--allow-reserved"])
        assert info.value.code == 2
        assert "unrecognized arguments: --allow-reserved" in capsys.readouterr().err


class TestSteinerCommands:
    def test_reduction_then_solve(self, capsys, tmp_path, trade_file):
        steiner_path = tmp_path / "trade.steiner"
        code, out, _ = run(capsys, "to-steiner", trade_file, "--out", str(steiner_path))
        assert code == 0
        assert out.splitlines()[0] == "nodes: 3  arcs: 2  terminals: 2  bound: 3"
        text = steiner_path.read_text()
        assert "arc __root a 1  # via fix_a" in text
        assert "arc a b 1  # via trade" in text

        code, out, _ = run(capsys, "steiner", "solve", str(steiner_path))
        assert code == 0
        assert out.splitlines() == ["weight: 2", "arc __root a", "arc a b"]

        code, out, _ = run(capsys, "steiner", "solve", str(steiner_path), "--json")
        assert code == 0
        assert json.loads(out) == {
            "solution": {"weight": 2, "arcs": [["__root", "a"], ["a", "b"]]}
        }

    def test_root_listed_as_a_terminal(self, capsys, tmp_path):
        plain = "node r\nnode t\nroot r\nterminal t\nbound 1\narc r t 1\n"
        rooted = plain.replace("terminal t", "terminal r\nterminal t")
        for extra in ((), ("--json",)):
            answers = []
            for name, text in (("plain", plain), ("rooted", rooted)):
                path = tmp_path / f"{name}.steiner"
                path.write_text(text)
                answers.append(run(capsys, "steiner", "solve", str(path), *extra))
            assert answers[0] == answers[1]
            assert answers[0][0] == 0

    def test_no_tree_within_bound(self, capsys, tmp_path):
        path = tmp_path / "stuck.steiner"
        path.write_text("node r\nnode t\nroot r\nterminal t\nbound 1\n")
        code, out, _ = run(capsys, "steiner", "solve", str(path))
        assert code == 1
        assert out == "no tree within bound 1\n"
        code, out, _ = run(capsys, "steiner", "solve", str(path), "--json")
        assert code == 1
        assert json.loads(out) == {"solution": None}


class TestGenerate:
    def test_ortree_defaults(self, capsys, tmp_path):
        base = tmp_path / "gate.v1.2"
        code, out, _ = run(capsys, "generate", "ortree", "--out", str(base))
        assert code == 0
        # dots in the base name must survive
        sasbp = tmp_path / "gate.v1.2.sasbp"
        truth = tmp_path / "gate.v1.2.truth"
        plan = tmp_path / "gate.v1.2.plan"
        assert sasbp.exists() and truth.exists() and plan.exists()
        assert out.splitlines() == [
            f"wrote {sasbp}",
            f"wrote {truth}",
            f"wrote {plan}",
            "answer: yes",
        ]
        assert truth.read_text() == "answer yes\nnote bits 4\n"
        code, out, _ = run(capsys, "validate", str(sasbp), str(plan))
        assert code == 0

    def test_ortree_no_case_has_no_plan(self, capsys, tmp_path):
        base = tmp_path / "tree"
        code, out, _ = run(capsys, "generate", "ortree", "--bits", "0000", "--out", str(base))
        assert code == 0
        assert "answer: no" in out
        assert not (tmp_path / "tree.plan").exists()
        assert (tmp_path / "tree.truth").read_text() == "answer no\nnote bits 4\n"

    def test_clique_complete(self, capsys, tmp_path):
        base = tmp_path / "cq"
        code, out, _ = run(
            capsys, "generate", "clique", "--edge-prob", "1", "--out", str(base)
        )
        assert code == 0 and "answer: yes" in out
        truth = (tmp_path / "cq.truth").read_text()
        assert "note classes 3" in truth and "note clique" in truth
        code, _, _ = run(
            capsys, "validate", str(tmp_path / "cq.sasbp"), str(tmp_path / "cq.plan")
        )
        assert code == 0

    def test_no_witness_removes_a_stale_plan(self, capsys, tmp_path):
        base = tmp_path / "cq"
        plan = tmp_path / "cq.plan"
        run(capsys, "generate", "clique", "--edge-prob", "1", "--out", str(base))
        assert plan.exists()
        written = [f"wrote {tmp_path / 'cq.sasbp'}", f"wrote {tmp_path / 'cq.truth'}"]
        code, out, _ = run(capsys, "generate", "clique", "--edge-prob", "0", "--out", str(base))
        assert code == 0
        assert out.splitlines() == [*written, f"removed {plan}", "answer: no"]
        assert not plan.exists()
        code, out, _ = run(capsys, "generate", "clique", "--edge-prob", "0", "--out", str(base))
        assert code == 0
        assert out.splitlines() == [*written, "answer: no"]

    def test_clique_help_gives_defaults_and_edge_prob_ends(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "clique", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--classes CLASSES color classes (default 3)" in text
        assert "--per-class PER_CLASS vertices per class (default 2)" in text
        assert (
            "--edge-prob EDGE_PROB chance of each edge between two classes (default 0.5);"
            " 1 is the complete graph (YES), 0 the empty one (NO)"
        ) in text
        assert "--seed SEED seed of the edge draw (default 0)" in text

    def test_clique_random_is_seeded(self, capsys, tmp_path):
        for name in ("r1", "r2"):
            code, _, _ = run(
                capsys, "generate", "clique", "--seed", "9", "--out", str(tmp_path / name)
            )
            assert code == 0
        assert (tmp_path / "r1.sasbp").read_text() == (tmp_path / "r2.sasbp").read_text()

    def test_compositions_solve_back(self, capsys, tmp_path):
        base = tmp_path / "pub"
        code, out, _ = run(capsys, "generate", "compose-pub", "--out", str(base))
        assert code == 0 and "answer: yes" in out
        code, _, _ = run(
            capsys, "validate", str(tmp_path / "pub.sasbp"), str(tmp_path / "pub.plan")
        )
        assert code == 0

        base = tmp_path / "two"
        code, out, _ = run(capsys, "generate", "compose-02", "--out", str(base))
        assert code == 0 and "answer: yes" in out
        code, out, _ = run(capsys, "solve", str(tmp_path / "two.sasbp"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "yes" and payload["method"] == "fpt02"

    def test_explicit_pattern_places_the_yes_inputs(self, capsys, tmp_path):
        base = tmp_path / "two"
        argv = ("--t", "2", "--k", "1", "--pattern", "ny", "--out", str(base))
        code, out, _ = run(capsys, "generate", "compose-02", *argv)
        assert code == 0 and "answer: yes" in out
        code, out, _ = run(capsys, "solve", str(tmp_path / "two.sasbp"), "--allow-reserved")
        assert code == 0
        assert out.splitlines()[:2] == ["YES", "plan length: 20"]

        base = tmp_path / "pub"
        argv = ("--t", "3", "--k", "2", "--pattern", "nny", "--out", str(base))
        code, out, _ = run(capsys, "generate", "compose-pub", *argv)
        assert code == 0 and "answer: yes" in out
        assert "note chosen_input 3\n" in (tmp_path / "pub.truth").read_text()

    def test_compose_pub_at_a_bound_whose_input_limit_has_over_4300_digits(
        self, capsys, tmp_path
    ):
        base = tmp_path / "wide"
        argv = ("--k", "46", "--t", "2", "--out", str(base))
        code, out, err = run(capsys, "generate", "compose-pub", *argv)
        assert (code, err) == (0, "")
        assert "answer: yes" in out
        truth = (tmp_path / "wide.truth").read_text()
        assert truth.splitlines() == [
            "answer yes",
            "note chosen_input 1",
            "note input_bound 46",
            "note t 2",
            "note tree_depth 1",
        ]
        code, _, _ = run(
            capsys, "validate", str(tmp_path / "wide.sasbp"), str(tmp_path / "wide.plan")
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("generate", "ortree", "--bits", "2x"), "nonempty 0/1"),
            (("generate", "ortree", "--bits", ""), "nonempty 0/1"),
            (("generate", "compose-pub", "--k", "0"), "k >= 1"),
            (("generate", "compose-pub", "--pattern", "yy"), "3 characters"),
            (("generate", "compose-02", "--pattern", "zz"), "2 characters"),
            (("generate", "compose-pub", "--t", "0"), "need at least two inputs"),
            (("generate", "compose-02", "--t", "0"), "need at least two inputs"),
            (("generate", "compose-02", "--t", "1"), "need at least two inputs"),
            (("generate", "compose-pub", "--t", "-1"), "need at least two inputs"),
            (("generate", "compose-02", "--t", "-1"), "need at least two inputs"),
            (("generate", "clique", "--edge-prob", "2"), "edge probability must lie in [0, 1]"),
            (("generate", "clique", "--edge-prob", "-1"), "edge probability must lie in [0, 1]"),
            (("generate", "clique", "--per-class", "-2"), "at least one vertex per color class"),
            (("generate", "clique", "--per-class", "0", "--edge-prob", "1"), "at least one vertex"),
        ],
    )
    def test_usage_errors(self, capsys, tmp_path, argv, needle):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 2
        assert needle in err


class TestGoldenOutput:
    """Exact stdout, plan files and exit codes, pinned so that refactoring
    the solve path cannot change a byte of what the CLI prints."""

    @pytest.mark.parametrize(
        "text,extra,code,human,payload,plan",
        [
            (
                TRADE,
                (),
                0,
                "YES\nplan length: 2\nmethod: fpt02\n",
                '{"decision": "yes", "dp_table_entries": 3, "explored_states": null, '
                '"length": 2, "method": "fpt02"}\n',
                "trade\nfix_a\n",
            ),
            (
                TRADE.replace("k 3", "k 1"),
                (),
                1,
                "NO\nmethod: fpt02\n",
                '{"decision": "no", "dp_table_entries": null, "explored_states": null, '
                '"length": null, "method": "fpt02"}\n',
                None,
            ),
            (
                GATED,
                (),
                0,
                "YES\nplan length: 2\nmethod: oracle\n",
                '{"decision": "yes", "dp_table_entries": null, "explored_states": 3, '
                '"length": 2, "method": "oracle"}\n',
                "open\nset_x\n",
            ),
        ],
        ids=["fpt02-yes", "instant-no", "oracle-yes"],
    )
    def test_solve(self, capsys, tmp_path, text, extra, code, human, payload, plan):
        path = tmp_path / "task.sasbp"
        path.write_text(text)
        plan_path = tmp_path / "task.plan"
        argv = ("solve", str(path), *extra, "--plan-out", str(plan_path))
        written = f"plan written to {plan_path}\n" if plan else ""
        assert run(capsys, *argv) == (code, human + written, "")
        assert (plan_path.read_text() if plan_path.exists() else None) == plan
        if plan_path.exists():
            plan_path.unlink()
        assert run(capsys, *argv, "--json") == (code, payload, "")
        assert (plan_path.read_text() if plan_path.exists() else None) == plan

    def test_budget_exhaustion(self, capsys, tmp_path):
        path = tmp_path / "gated.sasbp"
        path.write_text(GATED)
        err = (
            "resource limit: state budget of 2 exhausted at depth 2: "
            "3 states expanded, 3 stored\n"
        )
        for extra in ((), ("--json",)):
            assert run(capsys, "solve", str(path), "--max-states", "2", *extra) == (3, "", err)

    def test_solve_json_over_generated_files(self, capsys, tmp_path):
        # every counter that `solve --json` prints, on generated gadgets and
        # the tasks above; at a budget of 2 the oracle gives up and fpt02 not
        for argv in (
            ("ortree", "--bits", "00"),
            ("ortree", "--bits", "0010"),
            ("ortree", "--bits", "11"),
            ("clique", "--edge-prob", "1"),
            ("clique", "--edge-prob", "0"),
            ("compose-pub",),
            ("compose-02",),
        ):
            name = "-".join(a.strip("-") for a in argv)
            assert run(capsys, "generate", *argv, "--out", str(tmp_path / name))[0] == 0
        for name, text in (("trade", TRADE), ("no", TRADE.replace("k 3", "k 1")), ("gated", GATED)):
            (tmp_path / f"{name}.sasbp").write_text(text)

        answers = {
            "clique-edge-prob-0": (1, '{"decision": "no", "dp_table_entries": null, '
                                   '"explored_states": null, "length": null, '
                                   '"method": "fpt02"}\n'),
            "clique-edge-prob-1": (0, '{"decision": "yes", "dp_table_entries": null, '
                                   '"explored_states": 91, "length": 6, '
                                   '"method": "oracle"}\n'),
            "compose-02": (0, '{"decision": "yes", "dp_table_entries": 32, '
                           '"explored_states": null, "length": 20, '
                           '"method": "fpt02"}\n'),
            "compose-pub": (0, '{"decision": "yes", "dp_table_entries": null, '
                            '"explored_states": 246, "length": 14, '
                            '"method": "oracle"}\n'),
            "gated": (0, '{"decision": "yes", "dp_table_entries": null, '
                      '"explored_states": 3, "length": 2, '
                      '"method": "oracle"}\n'),
            "no": (1, '{"decision": "no", "dp_table_entries": null, '
                   '"explored_states": null, "length": null, '
                   '"method": "fpt02"}\n'),
            "ortree-bits-00": (1, '{"decision": "no", "dp_table_entries": null, '
                               '"explored_states": 8, "length": null, '
                               '"method": "oracle"}\n'),
            "ortree-bits-0010": (0, '{"decision": "yes", "dp_table_entries": null, '
                                 '"explored_states": 887, "length": 12, '
                                 '"method": "oracle"}\n'),
            "ortree-bits-11": (0, '{"decision": "yes", "dp_table_entries": null, '
                               '"explored_states": 15, "length": 6, '
                               '"method": "oracle"}\n'),
            "trade": (0, '{"decision": "yes", "dp_table_entries": 3, '
                      '"explored_states": null, "length": 2, '
                      '"method": "fpt02"}\n'),
        }
        gave_up = {
            "clique-edge-prob-1": "depth 1: 2 states expanded, 13 stored",
            "compose-pub": "depth 1: 2 states expanded, 6 stored",
            "gated": "depth 2: 3 states expanded, 3 stored",
            "ortree-bits-00": "depth 1: 2 states expanded, 3 stored",
            "ortree-bits-0010": "depth 1: 2 states expanded, 7 stored",
            "ortree-bits-11": "depth 1: 2 states expanded, 3 stored",
        }
        paths = sorted(tmp_path.glob("*.sasbp"))
        assert [path.stem for path in paths] == sorted(answers)
        for path in paths:
            code, out = answers[path.stem]
            assert run(capsys, "solve", str(path), "--json") == (code, out, "")
            limited = run(capsys, "solve", str(path), "--json", "--max-states", "2")
            if path.stem in gave_up:
                err = f"resource limit: state budget of 2 exhausted at {gave_up[path.stem]}\n"
                assert limited == (3, "", err)
            else:
                assert limited == (code, out, "")


class TestErrorsAndEntry:
    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.sasbp"))
        assert code == 2
        assert "error:" in err

    def test_malformed_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "truncated.sasbp"
        path.write_text("SASBP 1\nvar x 0\n")
        err = "error: line ?: expected init line after variables\n"
        assert run(capsys, "solve", str(path)) == (2, "", err)

    def test_reserved_root_name_is_a_usage_error(self, capsys, tmp_path):
        # --allow-reserved lets the file parse; the Steiner reduction refuses it
        path = tmp_path / "with_root.sasbp"
        path.write_text("SASBP 1\nvar __root 0 1\ninit __root=0\ngoal __root=1\nk 1\n")
        err = "error: variable name '__root' is reserved for the root and pair nodes\n"
        assert run(capsys, "solve", str(path), "--allow-reserved") == (2, "", err)

    def test_failed_postcondition_is_an_internal_error(self, capsys, monkeypatch, trade_file):
        # an empty extracted plan misses the goal, so solve_02's re-validation
        # raises: a fault of the solver, neither a NO nor a usage error
        monkeypatch.setattr(sasbp.planner02, "extract_plan", lambda artifacts, solution: ())
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "solve", trade_file, *extra)
            assert (code, out) == (4, "")
            assert err.startswith("Traceback (most recent call last):\n")
            assert err.endswith(
                "RuntimeError: extracted plan failed validation: "
                "final state is not a goal state: a=0, goal wants a=1\n"
            )

    def test_bad_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()

    # "command" holds solve alone, the one subcommand with --max-states; it
    # keeps these tests' ids
    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("command", ["solve"])
    def test_state_budget_below_one_is_a_usage_error(self, capsys, trade_file, command, budget):
        with pytest.raises(SystemExit) as info:
            main([command, trade_file, "--max-states", budget])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-states: state budget must be at least 1, got {budget}" in err

    @pytest.mark.parametrize("command", ["solve"])
    def test_state_budget_not_an_int_is_a_usage_error(self, capsys, trade_file, command):
        with pytest.raises(SystemExit) as info:
            main([command, trade_file, "--max-states", "abc"])
        assert info.value.code == 2
        assert "argument --max-states: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve"])
    def test_max_states_help_says_what_the_budget_bounds(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert (
            "--max-states MAX_STATES the work budget of every solver: the oracle's cap on"
            " expanded and on stored states, stored ones checked once per expansion, and"
            " the Steiner subset table's cap on rows plus candidate splits (default 2,000,000)"
        ) in text

    @staticmethod
    def _run_declared_script(*argv):
        """Run the `sasbp` target from `[project.scripts]` the way the
        wrapper that an installer writes does: import `module:attr` in a
        fresh interpreter and pass its return value to `sys.exit`."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "sasbp" in scripts, "pyproject.toml declares no sasbp script"
        module, _, attr = scripts["sasbp"].partition(":")
        assert module and attr, f"malformed entry point {scripts['sasbp']!r}"
        code = (
            f"import sys; from {module} import {attr}; "
            f"sys.exit({attr}())"
        )
        return TestErrorsAndEntry._run_fresh("-c", code, *argv)

    @staticmethod
    def _run_fresh(*args):
        """Run `python *args` in a fresh interpreter that imports the same
        `sasbp` package as this suite."""
        # The directory that holds the `sasbp` package this suite imports.
        src = str(Path(sasbp.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_console_script_is_installed(self, tmp_path):
        proc = self._run_declared_script("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: sasbp")
        assert "bounded plan length planning toolkit" in proc.stdout

        proc = self._run_declared_script("frobnicate")
        assert proc.returncode == 2, proc.stderr

        # argparse exits by itself on --help and on a bad subcommand; a NO
        # answer is the code that `main` returns, so it reaches the process
        # only if the entry point hands it to `sys.exit`.
        path = tmp_path / "gated.sasbp"
        path.write_text(GATED.replace("k 2", "k 1"))
        proc = self._run_declared_script("solve", str(path))
        assert proc.returncode == 1, proc.stderr

    @pytest.mark.parametrize("module", ["sasbp", "sasbp.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        proc = self._run_fresh("-m", module, "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: sasbp")

        # a NO answer must reach the exit status, not end in a silent 0
        path = tmp_path / "gated.sasbp"
        path.write_text(GATED.replace("k 2", "k 1"))
        proc = self._run_fresh("-m", module, "solve", str(path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.startswith("NO"), proc.stdout

    @pytest.mark.skipif(
        shutil.which("sasbp") is None,
        reason="sasbp console script not installed",
    )
    def test_console_script_on_path_runs(self):
        exe = shutil.which("sasbp")
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: sasbp")
        assert "bounded plan length planning toolkit" in proc.stdout


def _subcommands(parser):
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def _option_strings(parser):
    found = {s for action in parser._actions for s in action.option_strings}
    for sub in _subcommands(parser).values():
        found |= _option_strings(sub)
    return found


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sasbp ")]
    commands = _subcommands(build_parser())
    listed = {line.split()[1] for line in lines}
    assert listed == set(commands)
    (generate,) = (line for line in lines if line.split()[1] == "generate")
    kinds = re.search(r"\{([^}]*)\}", generate).group(1).split(",")
    assert kinds == list(_subcommands(commands["generate"]))
    for line in lines:
        options = set(re.findall(r"--[a-z0-9-]+", line))
        assert options <= _option_strings(commands[line.split()[1]]), line
