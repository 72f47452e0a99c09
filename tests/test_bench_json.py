from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def write_record(checkout: Path, workload: str, seed: int, jobs_per_s: float,
                 src_sha256: str = "aa", commit: str | None = "c0ffee",
                 probe_s: float = 0.01) -> None:
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": 30, "trace": 0,
        "environment": {"commit": commit, "src_sha256": src_sha256},
        "details": {"probe_s_median": probe_s, "samples": 10 * seed, "cycles": seed,
                    "failed_ratio": 0.0},
        "result": {"metrics": {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "ok_ratio": {"value": 1.0, "unit": "ratio"},
            "errors": {"value": 0, "unit": "count"},
        }},
    }
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    # traced records are not read
    (results / f"{workload}-seed{seed}-trace1.json").write_text("not json")


def run(tmp_path: Path) -> dict:
    out = tmp_path / "BENCH_test.json"
    assert bench_json.main([str(tmp_path / "parent"), str(tmp_path / "change"), str(out)]) == 0
    return json.loads(out.read_text())


def test_medians_ratio_and_sources(tmp_path):
    for seed, before, after in ((101, 20.0, 30.0), (102, 24.0, 33.0), (103, 22.0, 36.0)):
        write_record(tmp_path / "parent", "lattice", seed, before, "p" * 64)
        write_record(tmp_path / "change", "lattice", seed, after, "c" * 64, commit=None)
    bench = run(tmp_path)
    assert bench["parent"] == {"commit": "c0ffee", "src_sha256": "p" * 64, "seconds": 30}
    assert bench["change"] == {"commit": None, "src_sha256": "c" * 64, "seconds": 30}
    lattice = bench["workloads"]["lattice"]
    assert lattice["seeds"] == [101, 102, 103]
    jobs = lattice["metrics"]["jobs_per_s"]
    assert jobs["unit"] == "1/s"
    assert jobs["parent_runs"] == [20.0, 24.0, 22.0] and jobs["change_runs"] == [30.0, 33.0, 36.0]
    assert jobs["parent_median"] == 22.0 and jobs["change_median"] == 33.0
    assert jobs["change_over_parent"] == 1.5
    # a zero parent median gives no ratio
    assert "change_over_parent" not in lattice["metrics"]["errors"]


def test_probe_and_run_length_per_seed_and_side(tmp_path):
    for seed, before, after in ((2, 0.011, 0.012), (1, 0.012, 0.013)):
        write_record(tmp_path / "parent", "certify", seed, 20.0, probe_s=before)
        write_record(tmp_path / "change", "certify", seed, 21.0, probe_s=after)
    details = run(tmp_path)["workloads"]["certify"]["details"]
    # in seed order, and only the three details named
    assert details == {
        "probe_s_median": {"parent_runs": [0.012, 0.011], "change_runs": [0.013, 0.012]},
        "samples": {"parent_runs": [10, 20], "change_runs": [10, 20]},
        "cycles": {"parent_runs": [1, 2], "change_runs": [1, 2]},
    }


def test_two_sources_on_one_side_are_refused(tmp_path):
    for seed in (101, 102):
        write_record(tmp_path / "parent", "lattice", seed, 20.0, src_sha256=str(seed))
        write_record(tmp_path / "change", "lattice", seed, 30.0)
    with pytest.raises(SystemExit, match="records from 2 different sources"):
        run(tmp_path)


def test_different_seeds_are_refused(tmp_path):
    write_record(tmp_path / "parent", "lattice", 101, 20.0)
    write_record(tmp_path / "change", "lattice", 102, 30.0)
    with pytest.raises(SystemExit, match="lattice: the two sides ran different seeds"):
        run(tmp_path)


def test_empty_results_are_refused(tmp_path):
    write_record(tmp_path / "parent", "lattice", 101, 20.0)
    (tmp_path / "change" / ".perfbench" / "results").mkdir(parents=True)
    with pytest.raises(SystemExit, match="no \\*-trace0.json records"):
        run(tmp_path)
