"""Solver benchmark: one workload per run, checked answers, JSON metrics.

    python3 bench/run.py --workload fpt02-random --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The run builds the workload's corpus from the seed, then solves it in whole
rounds until --seconds have passed and at least MIN_SOLVES were timed.  One
solve is the library path from the README: parse_instance, detect_profile,
then solve_02 for tasks without preconditions and at most two effects per
action, decide_bfs otherwise.  Every answer of the first round is checked
by reference.check, which does not use the solver, and later rounds must
repeat it exactly.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
public function of the package is wrapped (see tracing.py) and the metrics
are per layer.  Times and rates are scaled to a reference speed by the
probe in probe.py.  A wrong answer prints "correct": false and exits 1.
"""

from time import perf_counter

# The clock starts before the imports below, so setup_s includes them.
PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

WORKLOADS = ("fpt02-random", "fpt02-ladder", "oracle-gadgets")
SETUP_REPEATS = 7
MIN_TAIL_BEYOND = 10
# A run keeps solving whole rounds until it has timed at least this many
# solves, so that the median of a small corpus rests on repeated solves.
MIN_SOLVES = 80


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import sasbp from this checkout's src/, never from an installed copy."""
    if not (SRC / "sasbp" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no sasbp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sasbp

    if Path(sasbp.__file__).resolve().parent != SRC / "sasbp":
        sys.exit(f"bench/run.py: imported sasbp from {sasbp.__file__}, not from {SRC}")
    return sasbp


def make_solver(sasbp):
    def solve(text):
        """One timed solve; returns (decision, witness, plan length)."""
        query = sasbp.parse_instance(text, allow_reserved=True)
        profile = sasbp.detect_profile(query.instance)
        if profile.max_preconditions == 0 and profile.max_effects <= 2:
            result = sasbp.solve_02(query)
            return result.decision, result.witness, result.plan_length
        result = sasbp.decide_bfs(query)
        return result.decision, result.witness, result.shortest_length

    return solve


def tail_percentile(least_solves: int) -> int:
    """Highest whole percentile with at least ten of the fewest solves a run
    can make beyond it, so that every run has at least ten beyond it."""
    return math.floor(100 * (1 - MIN_TAIL_BEYOND / least_solves))


def nearest_rank(sorted_values, percentile: int) -> float:
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    sasbp = import_package()
    from sasbp import ResourceLimitError

    import probe
    import reference
    import tracing
    import workloads

    imported = perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    speed = probe.Probe()
    build_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cases = workloads.build(args.workload, args.seed)
        build_times.append(perf_counter() - start)
        speed.run()
    setup_s = (imported - PROCESS_START) + statistics.median(build_times)

    solve = make_solver(sasbp)
    if tracer is not None:
        solve = tracer.wrap("bench.solve", solve)
        tracer.begin_solves()

    times = [[] for _ in cases]
    first = [None] * len(cases)
    attempted = failed = rounds = 0
    mismatches = []
    run_start = perf_counter()
    min_rounds = math.ceil(MIN_SOLVES / len(cases))
    while rounds < min_rounds or perf_counter() - run_start < args.seconds:
        for i, case in enumerate(cases):
            attempted += 1
            start = perf_counter()
            try:
                answer = solve(case.text)
            except (ResourceLimitError, ValueError) as exc:
                failed += 1
                print(f"failed {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times[i].append(perf_counter() - start)
            speed.due()
            if rounds == 0:
                first[i] = answer
            elif answer != first[i]:
                mismatches.append(f"{case.name}: round {rounds + 1} answered differently")
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    solved = [(case, answer) for case, answer in zip(cases, first) if answer is not None]
    errors = mismatches + reference.check(
        args.workload, [c for c, _ in solved], [a for _, a in solved]
    )
    for message in errors:
        print(f"WRONG {message}", file=sys.stderr)

    all_times = sorted(t for per_case in times for t in per_case)
    percentile = tail_percentile(min_rounds * len(cases))
    ms = 1000.0
    if tracer is not None:
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"{args.workload}.spans.csv.gz")
        metrics = tracer.metrics(len(all_times), SETUP_REPEATS)
        metrics["trace.solve_p50_ms"] = statistics.median(all_times) * ms
    else:
        per_case = [statistics.median(t) for t in times if t]
        metrics = {
            "setup_s": setup_s,
            "solve_p50_ms": statistics.median(all_times) * ms,
            "solve_tail_ms": nearest_rank(all_times, percentile) * ms,
            "solve_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in per_case)) * ms,
            "solves_per_s": len(all_times) / math.fsum(all_times),
            "peak_rss_mb": peak_rss_mb,
        }
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"bench/run.py: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    # Times and rates are reported at the probe's reference speed.
    scale = speed.scale()
    for name, unit in units.items():
        if unit == "s" or unit.startswith("ms"):
            metrics[name] *= scale
        elif unit.endswith("/s"):
            metrics[name] /= scale

    print(
        f"workload {args.workload} seed {args.seed}: {len(cases)} cases x {rounds} rounds, "
        f"{len(all_times)} timed solves, tail = p{percentile}; speed scale {scale:.4f} "
        f"from {len(speed.times)} probes (raw median solve "
        f"{statistics.median(all_times) * ms:.4f} ms); "
        f"src_lines {src_lines()}; python {platform.python_version()}"
    )
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
