"""Speed probe that scales every reported time to one reference speed.

On a shared machine the same Python code runs up to about twice as fast
at some times as at others, and a slow spell can last for minutes.  Raw
wall times from runs a quarter of an hour apart are then not comparable.
So a run times a fixed piece of the benchmark's own work between solves:
it parses ten fixed task texts and runs the reference search on each.  A run
reports each time multiplied by REFERENCE_S / (median probe time), and each
rate divided by that factor.  The probe never calls the package, so no
change to the package can move it.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import reference

# Probe time at the reference speed: about its median on the 2-core machine
# the figures in README.md come from.  A scaled time reads as "milliseconds
# on a machine where the probe takes 1 ms".
REFERENCE_S = 0.001
INTERVAL_S = 0.1


def _texts() -> list[str]:
    """Ten fixed precondition-free tasks, rendered here rather than by the
    package so that their text never changes."""
    rng = random.Random("probe")
    texts = []
    for j in range(10):
        names = [f"v{i}" for i in range(6 + j % 3)]
        lines = ["SASBP 1"] + [f"var {v} 0 1 2" for v in names]
        lines.append("init " + " ".join(f"{v}={rng.randrange(3)}" for v in names))
        goal = sorted(rng.sample(names, 4))
        lines.append("goal " + " ".join(f"{v}={rng.randrange(3)}" for v in goal))
        for a in range(10):
            eff = " ".join(f"{v}={rng.randrange(3)}" for v in sorted(rng.sample(names, 2)))
            lines += [f"action a{a}", "pre", f"eff {eff}", "end"]
        lines.append("k 5")
        texts.append("\n".join(lines) + "\n")
    return texts


class Probe:
    def __init__(self):
        self.texts = _texts()
        self.times: list[float] = []
        self.last = perf_counter()

    def run(self) -> None:
        start = perf_counter()
        for text in self.texts:
            reference.shortest_02(reference.parse(text))
        self.last = perf_counter()
        self.times.append(self.last - start)

    def due(self) -> None:
        """Run the probe when INTERVAL_S has passed since the last one."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.run()

    def scale(self) -> float:
        """Factor from this run's speed to the reference speed."""
        return REFERENCE_S / statistics.median(self.times)
