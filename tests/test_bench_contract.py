"""What the benchmark under bench/ reads from the package.

bench/run.py solves through make_solver, checks answers with reference.py,
and in a traced run wraps the package's public functions by name and reads
result fields and solve_dst's stats_out (see tracing.py).  A rename or a
deleted field there would make a traced run crash or read 0; these tests
fail first.  The bench modules are imported as they are, without writing
bytecode next to them.
"""

import json
import sys
from pathlib import Path

import pytest

import sasbp

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_bench():
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import reference
        import run
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return run, reference, tracing, workloads


run, reference, tracing, workloads = _import_bench()


def _slice(workload, cases):
    """A cheap fixed slice of one round that still reaches every path the
    workload is meant to time."""
    if workload == "fpt02-random":
        small = [c for c in cases if c.name.startswith("small")][:80]
        return small + [c for c in cases if c.name.startswith("large")][:20]
    if workload == "fpt02-ladder":
        return [c for c in cases if c.name.startswith(("ladder.k1.t2.", "ladder.k2.t2."))]
    return [c for c in cases if not c.name.startswith(("clique.3x4", "clique.4x2"))]


def _per_layer_names():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in declared["per_layer"]} - {"trace.solve_p50_ms"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_answers_pass_the_reference_checks(workload):
    cases = _slice(workload, workloads.build(workload, 1))
    solve = run.make_solver(sasbp)
    results = [solve(case.text) for case in cases]
    assert reference.check(workload, cases, results) == []
    assert any(decision for decision, _, _ in results)
    assert not all(decision for decision, _, _ in results)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reads_every_per_layer_metric(workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cases = _slice(workload, workloads.build(workload, 1))
        solve = tracer.wrap("bench.solve", run.make_solver(sasbp))
        tracer.begin_solves()
        results = [solve(case.text) for case in cases]
    finally:
        tracer.uninstall()
    assert reference.check(workload, cases, results) == []
    metrics = tracer.metrics(len(cases), 1)
    assert set(metrics) == _per_layer_names()
    assert metrics["fileformat.parse_ms"] > 0
    assert metrics["fileformat.write_ms"] > 0
    if workload == "fpt02-ladder":
        assert metrics["steiner.table_entries"] > 0
        assert metrics["planner02.graph_nodes"] > 0
    if workload == "oracle-gadgets":
        assert metrics["oracle.states_expanded"] > 0
    assert metrics["planner02.oracle_fallbacks"] == 0
