"""gamehedge benchmark: one workload, one run, one JSON line on stdout.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Set-up is timed in four fresh processes that only set up, and in
the measuring process itself, one process at a time; ``setup_s`` is their
median.  The measuring process runs whole cycles of the workload's job mix
until the job time, at the reference machine speed of NOTES.md, reaches
``--seconds`` (at least three cycles).  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.  A fuller record, with the environment, every sample
and every failure, goes to ``.perfbench/results/``; the traced run also
writes its spans to ``.perfbench/``.  See NOTES.md for the workloads and
metric definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # job_s_tail: the highest percentile with this many samples above it

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402

END_TO_END = [
    ("jobs_per_s", "1/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("job_s_tail", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left for another process")
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker exceeded the {DEADLINE_S:.0f}s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),  # None in a checkout without .git; src_sha256 still names the code
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
        "threads_env": {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
    }


def harrell_davis(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  It varies less from run to run than one order
    statistic, which matters on a shared, noisy machine."""
    from scipy.special import betainc

    n = len(sorted_values)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.asarray(sorted_values))


def end_to_end(main: dict, setup: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and details that explain them."""
    samples = [s for s in main["samples"] if not s["traced"]]
    per_job: dict[str, list[float]] = {name: [] for name in main["jobs"]}
    for s in samples:
        per_job[s["job"]].append(s["ref_seconds"])
    latencies = sorted(x for v in per_job.values() for x in v)
    n = len(latencies)
    tail_p = max(0, n - TAIL_BEYOND) / n
    failed = sum(1 for s in samples if s["error"])
    metrics = {
        # closed loop, one client: the mix's jobs over the time one cycle of
        # them takes, each job at its median latency across cycles
        "jobs_per_s": len(per_job) / sum(statistics.median(v) for v in per_job.values()),
        "job_s_p50": harrell_davis(latencies, 0.5),
        "job_s_tail": harrell_davis(latencies, tail_p),
        "ok_ratio": 1.0 - failed / n,
        "setup_s": statistics.median(p["setup_ref_s"] for p in setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    details = {
        "failed_ratio": failed / n,
        "job_s_tail_percentile": 100.0 * tail_p,
        "job_s_tail_samples_beyond": min(n, TAIL_BEYOND),
        "samples": n,
        "cycles": len(main["cycle_seconds"]),
        "wall_jobs_per_s": n / sum(s["seconds"] for s in samples),
        "wall_job_s_median": statistics.median(s["seconds"] for s in samples),
        "probe_s_median": statistics.median(s["probe_s"] for s in samples),
        "setup_s_samples": setup,
        "job_s_median_by_job": {k: statistics.median(v) for k, v in per_job.items()},
    }
    return metrics, details


def check_names(declared: list[dict], produced: list[tuple[str, str, str]], key: str) -> None:
    want = [(m["name"], m["unit"], m["better"]) for m in declared]
    if want != produced:
        raise ChildFailed(f"BENCHMARK.json {key} does not match the metrics run.py reports")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lattice", "certify", "crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        check_names(spec["end_to_end"], END_TO_END, "end_to_end")
        check_names(spec["per_layer"], PER_LAYER, "per_layer")
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scratch", str(OUT / "scratch")]
        setup = [run_child(["--mode", "setup", *common], deadline)
                 for _ in range(SETUP_PROBES)]
        main_run = run_child(["--mode", "measure", *common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
    except (ChildFailed, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    setup.append(main_run["setup"])
    metrics, details = end_to_end(main_run, setup)
    units = dict((name, unit) for name, unit, _ in END_TO_END + PER_LAYER)
    if args.trace:
        reported = dict(main_run["per_layer"])
        reported["trace.jobs_per_s_ratio"] = (statistics.median(main_run["cycle_seconds"])
                                              / statistics.median(main_run["traced_cycle_seconds"]))
    else:
        reported = metrics
    samples = main_run["samples"]
    failed = sum(1 for s in samples if s["error"])
    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(main_run["numpy"]),
        "end_to_end": metrics, "details": details, "result": line,
        "failures": [s for s in samples if s["error"]],
        "samples": samples,
    }
    for key in ("per_layer", "calls_by_job", "spans_file", "span_count", "traced_cycle_seconds"):
        if key in main_run:
            record[key] = main_run[key]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed}: failed_ratio={details['failed_ratio']:.4g}"
          f" ({failed}/{len(samples)}), job_s_tail is p{details['job_s_tail_percentile']:.1f}"
          f" of {details['samples']} samples, record in {path.relative_to(ROOT)}",
          file=sys.stderr)
    for name, value in reported.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    for s in record["failures"][:5]:
        print(f"  FAILED {s['job']}: {s['error']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
