"""Drive the command line end to end inside a scratch directory.

Generates a clique gadget, classifies it and validates its plan; then
classifies, solves and validates a hand-written instance and runs its
Steiner reduction; and finishes with `sasbp solve --json` on the gadget,
which prints the solver's counters.  Every step runs the `sasbp`
command's entry point (`sasbp.cli:entry`) in a fresh interpreter, so what
you see is what a terminal session would print, and no installed script
is needed.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# what the installed `sasbp` script runs
ENTRY = "from sasbp.cli import entry; entry()"

HAND = """\
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


def child_env():
    """The environment plus a PYTHONPATH that finds this sasbp package."""
    package = Path(importlib.util.find_spec("sasbp").origin).parent
    paths = [str(package.parent), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run(*argv, expect=0):
    print(f"$ sasbp {' '.join(argv)}")
    proc = subprocess.run(
        (sys.executable, "-c", ENTRY) + argv, capture_output=True, text=True, env=child_env()
    )
    for stream in (proc.stdout, proc.stderr):
        for line in stream.splitlines():
            print(f"  {line}")
    if proc.returncode != expect:
        print(f"  unexpected exit code {proc.returncode}, wanted {expect}")
        sys.exit(1)
    print()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        hand = base / "trade.sasbp"
        hand.write_text(HAND)

        run("generate", "clique", "--complete", "--out", str(base / "cq"))
        run("classify", str(base / "cq.sasbp"))
        run("validate", str(base / "cq.sasbp"), str(base / "cq.plan"))

        run("classify", str(hand))
        run("solve", str(hand), "--plan-out", str(base / "trade.plan"))
        run("validate", str(hand), str(base / "trade.plan"))
        run("to-steiner", str(hand), "--out", str(base / "trade.steiner"))
        run("steiner", "solve", str(base / "trade.steiner"))

        run("generate", "ortree", "--bits", "00", "--out", str(base / "stuck"))
        run("solve", str(base / "stuck.sasbp"), expect=1)

        run("solve", str(base / "cq.sasbp"), "--json")


if __name__ == "__main__":
    main()
