"""Write a BENCH_<topic>.json from the benchmark records of two checkouts.

    python3 scripts/bench_json.py PARENT_DIR CHANGE_DIR BENCH_pde.json

PARENT_DIR and CHANGE_DIR are source checkouts in which
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
has been run for the same workloads and seeds.  Their
``.perfbench/results/*-trace0.json`` records are read, nothing else.  For
every workload the output holds the seeds, each checkout's per-run value of
every end-to-end metric and the median over the seeds, and the change's
median over the parent's.  Each side also records its commit, the
``src_sha256`` of the source it ran and T; the script refuses records from
more than one source or T per side, or seed sets that differ between the
sides.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def read_side(checkout: Path) -> tuple[dict, dict[str, dict[int, dict]]]:
    """(environment summary, {workload: {seed: end-to-end metrics}}) of one checkout."""
    records = sorted((checkout / ".perfbench" / "results").glob("*-trace0.json"))
    if not records:
        raise SystemExit(f"no *-trace0.json records under {checkout}/.perfbench/results")
    sources, runs = set(), {}
    for path in records:
        record = json.loads(path.read_text())
        env = record["environment"]
        sources.add((env.get("commit"), env["src_sha256"], record["seconds"]))
        runs.setdefault(record["workload"], {})[record["seed"]] = record["result"]["metrics"]
    if len(sources) != 1:
        raise SystemExit(f"{checkout}: records from {len(sources)} different sources")
    (commit, src_sha256, seconds), = sources
    return {"commit": commit, "src_sha256": src_sha256, "seconds": seconds}, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("output", type=Path)
    args = parser.parse_args(argv)

    parent_env, parent_runs = read_side(args.parent)
    change_env, change_runs = read_side(args.change)
    if parent_runs.keys() != change_runs.keys():
        raise SystemExit(f"workloads differ: {sorted(parent_runs)} vs {sorted(change_runs)}")

    workloads = {}
    for workload in sorted(parent_runs):
        seeds = sorted(parent_runs[workload])
        if seeds != sorted(change_runs[workload]):
            raise SystemExit(f"{workload}: the two sides ran different seeds")
        metrics = {}
        for name, first in parent_runs[workload][seeds[0]].items():
            entry = {"unit": first["unit"]}
            for side, runs in (("parent", parent_runs), ("change", change_runs)):
                values = [runs[workload][seed][name]["value"] for seed in seeds]
                entry[f"{side}_runs"] = values
                entry[f"{side}_median"] = statistics.median(values)
            if entry["parent_median"]:
                entry["change_over_parent"] = entry["change_median"] / entry["parent_median"]
            metrics[name] = entry
        workloads[workload] = {"seeds": seeds, "metrics": metrics}

    bench = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "statistic": "median over the seeds of each run's end-to-end metric",
        "parent": parent_env,
        "change": change_env,
        "workloads": workloads,
    }
    args.output.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
