"""Spans and counts at the boundary of each gamehedge module.

The traced run replaces the public functions below by wrappers, with
``setattr`` on every gamehedge module that binds them (a ``from .x import
f`` binds ``f`` in the importing module too).  Callers look these names up
as module attributes or globals at call time, so every call passes through
a wrapper.  Spans stay in memory until the run ends; self times and counts
are derived from them afterwards.  Nothing inside the package changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

TARGETS = {
    "cli": ["main"],
    "model": ["result_to_json"],
    "induction": ["price_european", "price_pruned", "price_path_dependent"],
    "verify": ["check_superreplication", "audit_measure", "fuzz_cross_routes"],
    "lp": ["build_problem", "solve_min", "dual_vertex_enumerate"],
    # convex_concave_bound samples the payoff's shape; wrapping it keeps that
    # work out of cli.self_s
    "bounds": ["binomial_price", "nested_compare", "convex_concave_bound"],
    "pde": ["solve"],
}


def _nodes(counts: Counter, args: dict, result) -> None:
    counts["induction.nodes"] += len(result.node_values)


def _paths(counts: Counter, args: dict, result) -> None:
    counts["verify.paths_checked"] += result.paths_checked


def _audited(counts: Counter, args: dict, result) -> None:
    counts["verify.nodes_audited"] += result.nodes_checked


def _trials(counts: Counter, args: dict, result) -> None:
    counts["verify.fuzz_trials"] += result.trials


def _tableau(counts: Counter, args: dict, result) -> None:
    # computed, not measured: solve_min's phase-1 tableau is
    # [A | -A | -I | I | b], rows x (2 cols + 2 rows + 1)
    rows, cols = args["problem"].shape
    counts["lp.tableau_cells"] += rows * (2 * cols + 2 * rows + 1)


def _assignments(counts: Counter, args: dict, result) -> None:
    moves, rounds = args["moves"], args["rounds"]
    internal = (moves.size**rounds - 1) // (moves.size - 1)
    counts["lp.dual_assignments"] += (moves.n_negative * moves.n_positive) ** internal


def _grid(counts: Counter, args: dict, result) -> None:
    grid = args["grid"]
    cells = (grid.n_time + 1) * (grid.n_space + 1)
    counts["pde.grid_cells"] += cells
    counts["pde.field_bytes"] += 8 * cells  # computed: one float64 per cell of the kept field


HOOKS = {
    "induction.price_european": _nodes,
    "induction.price_pruned": _nodes,
    "induction.price_path_dependent": _nodes,
    "verify.check_superreplication": _paths,
    "verify.audit_measure": _audited,
    "verify.fuzz_cross_routes": _trials,
    "lp.solve_min": _tableau,
    "lp.dual_vertex_enumerate": _assignments,
    "pde.solve": _grid,
}

# (name, unit, better); the traced run reports every one of them, per job
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("model.result_to_json.self_s", "s", "lower"),
    ("model.export_bytes", "B", "lower"),
    ("induction.price_european.self_s", "s", "lower"),
    ("induction.price_european.calls", "count", "lower"),
    ("induction.price_pruned.self_s", "s", "lower"),
    ("induction.price_path_dependent.self_s", "s", "lower"),
    ("induction.nodes", "count", "lower"),
    ("verify.check_superreplication.self_s", "s", "lower"),
    ("verify.paths_checked", "count", "lower"),
    ("verify.audit_measure.self_s", "s", "lower"),
    ("verify.nodes_audited", "count", "lower"),
    ("verify.fuzz_cross_routes.self_s", "s", "lower"),
    ("verify.fuzz_trials", "count", "higher"),
    ("lp.build_problem.self_s", "s", "lower"),
    ("lp.build_problem.calls", "count", "lower"),
    ("lp.solve_min.self_s", "s", "lower"),
    ("lp.tableau_cells", "count", "lower"),
    ("lp.dual_vertex_enumerate.self_s", "s", "lower"),
    ("lp.dual_assignments", "count", "lower"),
    ("bounds.binomial_price.self_s", "s", "lower"),
    ("bounds.binomial_price.calls", "count", "lower"),
    ("bounds.nested_compare.self_s", "s", "lower"),
    ("pde.solve.self_s", "s", "lower"),
    ("pde.grid_cells", "count", "lower"),
    ("pde.field_bytes", "B", "lower"),
    *((f"{module}.errors", "count", "lower") for module in TARGETS),
    ("trace.jobs_per_s_ratio", "ratio", "higher"),
]


class Tracer:
    """Wraps the TARGETS functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, job
        self.counts: Counter = Counter()
        self.job = -1
        self._open: list[tuple[int, str]] = []  # (span index, module) of calls in progress
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "gamehedge" or key.startswith("gamehedge.")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"gamehedge.{module_name}")
            for name in names:
                original = getattr(module, name)
                traced = self._wrap(module_name, name, original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _wrap(self, module_name: str, name: str, original):
        span_name = f"{module_name}.{name}"
        hook = HOOKS.get(span_name)
        signature = inspect.signature(original) if hook else None
        spans, opened, counts = self.spans, self._open, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = opened[-1] if opened else (-1, "")
            index = len(spans)
            spans.append(None)
            opened.append((index, module_name))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                if parent[1] != module_name:  # count each error once, where it leaves the module
                    counts[f"{module_name}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                opened.pop()
                spans[index] = (span_name, start, end, parent[0], self.job)
            if hook is not None:
                hook(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Total self seconds per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals

    def calls_by_job(self, job_names: list[str]) -> dict[str, dict[str, float]]:
        """Calls of each wrapped function per execution of each named job."""
        runs = Counter(job_names)
        calls: dict[str, Counter] = {name: Counter() for name in runs}
        for name, _, _, _, job in self.spans:
            calls[job_names[job]][name] += 1
        return {job: {span: n / runs[job] for span, n in sorted(c.items())}
                for job, c in calls.items()}

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Every PER_LAYER metric except the overhead ratio, per job."""
        self_s = self.self_times()
        calls = Counter(name for name, *_ in self.spans)
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric == "trace.jobs_per_s_ratio":
                continue
            if metric == "cli.self_s":
                total = self_s["cli.main"]
            elif metric.endswith(".self_s"):
                total = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".calls"):
                total = calls[metric[: -len(".calls")]]
            else:
                total = self.counts[metric]
            out[metric] = total / jobs
        return out

    def write_spans(self, path, job_names: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job,
                                         "job_name": job_names[job]}) + "\n")
