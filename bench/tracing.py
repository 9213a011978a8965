"""Spans around the package's public functions, for the traced run.

Tracer.install() replaces every public function of the sasbp modules with a
wrapper, under every name a module looks it up by (planner02 calls
solve_dst through its own global, for example), so calls between modules
are caught as well as the benchmark's own.  Each call records a span
(function, start, end, parent span) in memory; a few wrappers also read
counts off the call's arguments or result.  Nothing inside the package is
edited, and a function a later change deletes just reports zero calls.

Spans recorded before begin_solves() belong to corpus generation, the rest
to the timed solves; each solve's root span is the benchmark's own solve
call, so the spans of one solve share that root.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "core",
    "fileformat",
    "gadgets",
    "restrictions",
    "preprocess",
    "steiner",
    "planner02",
    "oracle",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "module.function"
        self.spans: list = []  # (function id, start, end, parent span index)
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_start = 0
        self.current_vars = 0
        self._patched: list = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (fid, start, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sasbp" or n.startswith("sasbp.")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"sasbp.{short}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def begin_solves(self) -> None:
        """Close the set-up phase: later spans and counts belong to solves."""
        self.solve_start = len(self.spans)
        self.counts.clear()

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in microseconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "function", "start_us", "end_us", "parent", "phase"])
            for index, (fid, start, end, parent) in enumerate(self.spans):
                phase = "solve" if index >= self.solve_start else "setup"
                out.writerow(
                    [
                        index,
                        self.names[fid],
                        round((start - origin) * 1e6, 1),
                        round((end - origin) * 1e6, 1),
                        parent,
                        phase,
                    ]
                )

    def metrics(self, solves: int, builds: int) -> dict[str, float]:
        """Per-layer metrics; times are milliseconds per solve (set-up
        figures per corpus build), counts per solve, sizes per call."""
        setup, solve = self.spans[: self.solve_start], self.spans[self.solve_start :]
        module = [name.split(".")[0] for name in self.names]

        # inclusive time per function, self time per module, calls per function
        child = defaultdict(float)
        for fid, start, end, parent in solve:
            if parent >= self.solve_start:
                child[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        module_calls = defaultdict(int)
        for index, (fid, start, end, parent) in enumerate(solve, self.solve_start):
            duration = end - start
            inclusive[self.names[fid]] += duration
            self_time[module[fid]] += duration - child[index]
            calls[self.names[fid]] += 1
            module_calls[module[fid]] += 1

        build_time = 0.0
        write_time = 0.0
        for fid, start, end, parent in setup:
            if self.names[fid] == "fileformat.write_instance":
                write_time += end - start
            outer = parent < 0 or module[setup[parent][0]] != "gadgets"
            if module[fid] == "gadgets" and outer:
                build_time += end - start

        c = self.counts

        def per(total, n):
            return total / n if n else 0.0

        ms = 1000.0
        return {
            "fileformat.parse_ms": per(inclusive["fileformat.parse_instance"], solves) * ms,
            "fileformat.write_ms": per(write_time, builds) * ms,
            "gadgets.build_ms": per(build_time, builds) * ms,
            "restrictions.self_ms": per(self_time["restrictions"], solves) * ms,
            "restrictions.calls_per_solve": per(module_calls["restrictions"], solves),
            "preprocess.self_ms": per(self_time["preprocess"], solves) * ms,
            "preprocess.calls": per(module_calls["preprocess"], solves),
            "preprocess.vars_added": per(
                c["vars_added"], calls["preprocess.lemma1_transform"]
            ),
            "planner02.self_ms": per(self_time["planner02"], solves) * ms,
            "planner02.reduce_ms": per(inclusive["planner02.reduce_to_steiner"], solves) * ms,
            "planner02.extract_ms": per(inclusive["planner02.extract_plan"], solves) * ms,
            "planner02.graph_nodes": per(c["nodes"], calls["planner02.reduce_to_steiner"]),
            "planner02.graph_arcs": per(c["arcs"], calls["planner02.reduce_to_steiner"]),
            "planner02.nodes_per_var": per(
                c["nodes_per_var"], calls["planner02.reduce_to_steiner"]
            ),
            "planner02.oracle_fallbacks": c["fallbacks"],
            "steiner.self_ms": per(self_time["steiner"], solves) * ms,
            "steiner.calls": per(module_calls["steiner"], solves),
            "steiner.terminals": per(c["terminals"], calls["steiner.solve_dst"]),
            "steiner.table_entries": per(c["table_entries"], calls["steiner.solve_dst"]),
            "core.validate_ms": per(inclusive["core.validate_plan"], solves) * ms,
            "core.validate_calls": per(calls["core.validate_plan"], solves),
            "oracle.self_ms": per(self_time["oracle"], solves) * ms,
            "oracle.calls": per(module_calls["oracle"], solves),
            "oracle.states_expanded": per(c["states"], calls["oracle.decide_bfs"]),
            "oracle.states_per_s": per(c["states"], inclusive["oracle.decide_bfs"]),
        }


def _parsed(tracer, args, kwargs, query):
    tracer.current_vars = len(query.instance.variables)


def _solved_02(tracer, args, kwargs, result):
    tracer.counts["fallbacks"] += result.fallback


def _reduced(tracer, args, kwargs, artifacts):
    nodes = len(artifacts.steiner.nodes)
    tracer.counts["nodes"] += nodes
    tracer.counts["arcs"] += len(artifacts.steiner.weights)
    tracer.counts["nodes_per_var"] += nodes / (tracer.current_vars + 1)


def _transformed(tracer, args, kwargs, out):
    query = args[0] if args else kwargs["query"]
    tracer.counts["vars_added"] += len(out.instance.variables) - len(query.instance.variables)


def _steiner_solved(tracer, args, kwargs, solution):
    inst = args[0] if args else kwargs["inst"]
    stats = kwargs.get("stats_out") or (args[1] if len(args) > 1 else None) or {}
    tracer.counts["terminals"] += len(inst.terminals)
    tracer.counts["table_entries"] += stats.get("table_entries", 0)


def _searched(tracer, args, kwargs, result):
    tracer.counts["states"] += result.explored_states


_HOOKS = {
    "fileformat.parse_instance": _parsed,
    "planner02.solve_02": _solved_02,
    "planner02.reduce_to_steiner": _reduced,
    "preprocess.lemma1_transform": _transformed,
    "steiner.solve_dst": _steiner_solved,
    "oracle.decide_bfs": _searched,
}
