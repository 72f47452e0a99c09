"""One workload in one fresh process; started by run.py, never by hand.

``--mode setup`` imports the package, builds the seeded inputs, finishes
the warm-up job and reports how long that took.  ``--mode measure`` does
the same set-up, then runs whole cycles of the workload's job mix, one job
at a time (a closed loop with one client), checks each job's output after
its timed span, and prints its samples as one JSON line.  With tracing on,
untraced and traced cycles alternate, so that the traced run also measures
its own overhead.
"""
import time

_STARTED = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 3         # untraced run: at least this many cycles, for medians
MIN_TRACED_PAIRS = 2   # traced run: at least this many (untraced, traced) pairs
REFERENCE_PROBE_S = 0.008  # speed_probe() at the reference machine speed
WALL_CAP = 1.5         # a run also ends once wall job time reaches this x --seconds


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop.

    The shared machine's speed drifts by up to 1.7x over tens of seconds, and
    the loop slows down with it.  Each job's latency is rescaled by the
    probes taken just before and just after the job.
    """
    start = time.perf_counter()
    x = 0
    for i in range(60000):
        x = (x * 1103515245 + i) & 0xFFFFFFF
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def execute(job):
    """Run one job; return (seconds, returned value, stdout, stderr, error)."""
    gc.collect()  # start every job from the same heap, outside the timed span
    out, err = io.StringIO(), io.StringIO()
    value = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            value = job.run()
        except Exception as exc:  # a failing job is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, value, out.getvalue(), err.getvalue(), error


def check(job, value, stdout, stderr, error):
    """None when the job's output matches its reference, else the reason."""
    if error is None:
        try:
            job.check(value, stdout)
            return None
        except Exception as exc:  # Mismatch, or output that does not even parse
            error = f"{type(exc).__name__}: {exc}"
    tail = stderr.strip().splitlines()[-1:]
    return error + (f" (stderr: {tail[0]})" if tail else "")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import gamehedge

    if not Path(gamehedge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gamehedge imported from {gamehedge.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    import workloads

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed, scratch)
    warm = execute(jobs[0])
    setup_s = time.perf_counter() - _STARTED
    probe_s = sorted(speed_probe() for _ in range(3))[1]
    setup = {"setup_s": setup_s, "probe_s": probe_s,
             "setup_ref_s": at_reference_speed(setup_s, probe_s)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    problem = check(jobs[0], *warm[1:])
    if problem is not None:
        print(f"warm-up job {jobs[0].name!r} failed: {problem}", file=sys.stderr)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    samples = []     # one per timed job: name, cycle, traced, seconds, error
    executed = []    # job name of every traced execution, by execution index
    cycle_seconds = {False: [], True: []}
    wall_time = ref_time = 0.0

    def run_cycle(traced: bool) -> None:
        nonlocal wall_time, ref_time
        total = 0.0
        probe = speed_probe()
        if traced:
            tracer.install()
        try:
            for job in jobs:
                if traced:
                    tracer.job = len(executed)
                    executed.append(job.name)
                seconds, *output = execute(job)
                after = speed_probe()
                if traced and job.export is not None and job.export.exists():
                    tracer.counts["model.export_bytes"] += job.export.stat().st_size
                ref_seconds = at_reference_speed(seconds, (probe + after) / 2)
                samples.append({"job": job.name, "cycle": len(cycle_seconds[traced]),
                                "traced": traced, "seconds": seconds,
                                "probe_s": (probe + after) / 2, "ref_seconds": ref_seconds,
                                "error": check(job, *output)})
                probe = after
                total += seconds
                ref_time += ref_seconds
        finally:
            if traced:
                tracer.uninstall()
        cycle_seconds[traced].append(total)
        wall_time += total

    def enough(cycles: int, least: int) -> bool:
        # counted in reference-speed time, so the number of cycles does not
        # follow the machine's speed; the wall cap bounds a very slow run
        return cycles >= least and (ref_time >= args.seconds
                                    or wall_time >= WALL_CAP * args.seconds)

    if tracer is None:
        while not enough(len(cycle_seconds[False]), MIN_CYCLES):
            run_cycle(False)
    else:
        while not enough(len(cycle_seconds[True]), MIN_TRACED_PAIRS):
            run_cycle(False)
            run_cycle(True)

    result = {
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [job.name for job in jobs],
        "samples": samples,
        "cycle_seconds": cycle_seconds[False],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        spans_path = scratch.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, executed)
        result["traced_cycle_seconds"] = cycle_seconds[True]
        result["per_layer"] = tracer.layer_metrics(len(executed))
        result["calls_by_job"] = tracer.calls_by_job(executed)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["span_count"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
