from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import gamehedge
from gamehedge import bounds, cli, induction, lp, verify
from gamehedge.cli import main, parse_moves, parse_payoff
from gamehedge import Butterfly, Call, GameSpec, PiecewiseLinear, Put, Side, Sine, price_european

BUTTERFLY = "butterfly(-1/2,1/2,3/2)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# --- argument parsing ---------------------------------------------------------


def test_parse_payoff_shorthand():
    assert parse_payoff("call(1/2)") == Call(0.5)
    assert parse_payoff("put(2)") == Put(2.0)
    assert parse_payoff("Butterfly(-1/2, 1/2, 3/2)") == Butterfly(-0.5, 0.5, 1.5)
    assert parse_payoff("sin(2)") == Sine(2.0)
    assert parse_payoff('{"kind": "call", "strike": 0}') == Call(0.0)
    with pytest.raises(ValueError):
        parse_payoff("gibberish")
    with pytest.raises(ValueError):
        parse_payoff("call(1,2)")


def test_parse_payoff_from_file(tmp_path):
    spec = tmp_path / "payoff.json"
    spec.write_text(json.dumps({"kind": "put", "strike": 1.5}))
    assert parse_payoff(f"@{spec}") == Put(1.5)


def test_parse_moves():
    moves = parse_moves("-1,1,2")
    assert [str(a) for a in moves.members] == ["-1", "1", "2"]
    with pytest.raises(ValueError):
        parse_moves("-1,abc")


# --- price --------------------------------------------------------------------


def test_price_one_step(capsys):
    code, out, _ = run_json(
        capsys, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY
    )
    assert code == 0
    assert out["price"] == pytest.approx(0.25, abs=1e-12)
    assert out["side"] == "upper"
    assert out["moves"] == ["-1", "1", "2"]


def test_price_twenty_rounds_both_sides(capsys):
    base = ["price", "--moves=-1,1,2", "--rounds", "20", "--scale", "diffusive",
            "--payoff", BUTTERFLY]
    code, out, _ = run_json(capsys, *base)
    assert code == 0
    assert out["price"] == pytest.approx(0.3824, abs=5e-5)
    code, out, _ = run_json(capsys, *base, "--side", "lower")
    assert code == 0
    assert out["price"] == pytest.approx(0.1926, abs=5e-5)


def test_price_with_verification(capsys):
    code, out, _ = run_json(
        capsys, "price", "--moves=-1,1,2", "--rounds", "4", "--scale", "diffusive",
        "--payoff", BUTTERFLY, "--verify",
    )
    assert code == 0
    block = out["verification"]
    assert block["superreplicates"] is True
    assert block["measure_ok"] is True
    assert block["paths_checked"] == 3**4
    assert abs(block["min_slack"]) <= 1e-9


def test_price_pruned(capsys):
    code, out, _ = run_json(
        capsys, "price", "--moves=-1,1,2", "--rounds", "20", "--scale", "diffusive",
        "--payoff", BUTTERFLY, "--prune", "5",
    )
    assert code == 0
    assert out["prune_period"] == 5
    assert out["price"] == pytest.approx(0.3527987475979659, abs=1e-12)


def test_price_pruned_rejections(capsys):
    args = ["price", "--moves=-1,1,2", "--rounds", "4", "--payoff", BUTTERFLY]
    code, _, err = run_cli(capsys, *args, "--prune", "2", "--side", "lower")
    assert code == 2 and "upper side" in err
    code, _, err = run_cli(capsys, *args, "--prune", "2", "--verify")
    assert code == 2 and "non-pruned" in err


def test_price_pruned_verify_is_refused_before_any_export(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run_cli(capsys, "price", "--moves=-1,1,2", "--rounds", "4",
                             "--payoff", BUTTERFLY, "--prune", "2", "--verify",
                             "--export-result", str(target))
    assert (code, out) == (2, "") and "non-pruned" in err
    assert not target.exists()


def test_price_prune_zero_is_refused(capsys):
    code, out, err = run_cli(capsys, "price", "--moves=-1,1,2", "--rounds", "4",
                             "--payoff", BUTTERFLY, "--prune", "0")
    assert (code, out, err) == (2, "", "error: prune period must be >= 1\n")


def test_price_export_result(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_json(
        capsys, "price", "--moves=-1,1,2", "--rounds", "2", "--payoff", BUTTERFLY,
        "--export-result", str(target),
    )
    assert code == 0
    dumped = json.loads(target.read_text())
    assert dumped["price"] == out["price"]
    assert dumped["side"] == "upper"
    assert set(dumped) >= {"strategy", "measure", "node_values"}
    assert dumped["strategy"] and dumped["measure"] and dumped["node_values"]


def test_price_export_failing_part_way_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    def failing(result, handle):
        handle.write('{"price": ')
        raise OSError(27, "File too large")

    monkeypatch.setattr(cli, "result_to_json", failing)
    target = tmp_path / "result.json"
    target.write_text("old\n")
    code, out, err = run_cli(capsys, "price", "--moves=-1,1,2", "--rounds", "2",
                             "--payoff", BUTTERFLY, "--export-result", str(target))
    assert (code, out, err) == (2, "", "error: [Errno 27] File too large\n")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("argv", [
    ["--output", "TARGET", "converge", "--moves=-1,1,2", "--payoff", BUTTERFLY,
     "--n-list", ",".join(map(str, range(1, 61)))],  # 4.9 KB of CSV
    ["price", "--moves=-1,1,2", "--rounds", "20", "--payoff", BUTTERFLY,
     "--export-result", "TARGET"],  # a 96 KB export
])
def test_file_size_limit_keeps_the_old_file(tmp_path, argv):
    target = tmp_path / "old.txt"
    target.write_text("old\n")
    argv = [str(target) if arg == "TARGET" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(gamehedge.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "gamehedge.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048)),
    )
    assert proc.returncode == 2 and "File too large" in proc.stderr
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_lp_dump_failing_part_way_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    def failing(problem):
        raise RuntimeError("dump failed")

    monkeypatch.setattr(lp, "dump_dense", failing)
    target = tmp_path / "problem.lp"
    target.write_text("old\n")
    code, out, _ = run_cli(capsys, "lp", "--moves=-1,1,2", "--rounds", "2",
                           "--payoff", BUTTERFLY, "--dump-lp", str(target))
    assert (code, out) == (2, "")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_price_output_file(capsys, tmp_path):
    target = tmp_path / "price.json"
    code, stdout, _ = run_cli(
        capsys, "--output", str(target),
        "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY,
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(target.read_text())["price"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["--output", "", "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY],
    ["price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY, "--export-result", ""],
    ["lp", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY, "--dump-lp", ""],
    ["pde", "--payoff", BUTTERFLY, "--sigma2", "1,2", "--s-range=-2,2", "--ds", "1/2",
     "--dt", "1/10", "--dump-field", ""],
], ids=["output", "export-result", "dump-lp", "dump-field"])
def test_an_empty_output_path_is_refused(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == "" and "the output path is empty" in captured.err
    assert list(tmp_path.iterdir()) == []


# --- pde ----------------------------------------------------------------------


def test_pde_default_grid_hits_the_limit(capsys):
    code, out, _ = run_json(
        capsys, "pde", "--payoff", BUTTERFLY, "--moves=-1,1,2"
    )
    assert code == 0
    assert out["value_at_origin"] == pytest.approx(0.3817, abs=1e-3)
    assert out["sigma_min_sq"] == 1.0 and out["sigma_max_sq"] == 2.0
    code, out, _ = run_json(
        capsys, "pde", "--payoff", BUTTERFLY, "--moves=-1,1,2", "--side", "lower"
    )
    assert code == 0
    assert out["value_at_origin"] == pytest.approx(0.2060, abs=1e-3)


def test_pde_explicit_band_overrides_moves(capsys):
    code, out, _ = run_json(
        capsys, "pde", "--payoff", BUTTERFLY, "--moves=-1,1,2", "--sigma2", "1,1",
        "--dt", "1/250",
    )
    assert code == 0
    assert out["sigma_max_sq"] == 1.0


def test_pde_stability_exit(capsys):
    code, _, err = run_cli(
        capsys, "pde", "--payoff", BUTTERFLY, "--moves=-1,1,2", "--dt", "1/100"
    )
    assert code == 2
    assert "stability" in err


def test_pde_needs_a_band(capsys):
    with pytest.raises(SystemExit):
        main(["pde", "--payoff", BUTTERFLY])
    capsys.readouterr()


def test_pde_dump_field(capsys, tmp_path):
    target = tmp_path / "field.csv"
    code, _, _ = run_json(
        capsys, "pde", "--payoff", BUTTERFLY, "--sigma2", "1,2",
        "--s-range=-2,2", "--ds", "1/2", "--dt", "1/10",
        "--dump-field", str(target),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == ["t", "s", "phi"]
    assert len(rows) == 1 + 11 * 9  # (n_time+1) * (n_space+1)


def test_pde_grid_budget_exit_writes_no_dump(capsys, tmp_path):
    target = tmp_path / "field.csv"
    assert run_cli(capsys, "pde", "--sigma2", "1,2", "--payoff", "call(0)", "--s-range=-1e8,1e8",
                   "--ds", "1/10", "--dt", "1/400", "--horizon", "1/100",
                   "--dump-field", str(target)) == (
        3, "", "error: 2000000001 space nodes exceed the budget of 4194304\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, what", [
    (("--horizon", "1e308", "--dt", "1e-10"), "dt"),
    (("--s-range=-1e308,1e308", "--ds", "1e307"), "ds"),
    (("--s-range=-1e308,1e308", "--ds", "1e300"), "ds"),  # the span itself overflows
])
def test_pde_grids_of_overflowing_cell_counts_exit_two(capsys, grid, what):
    assert run_cli(capsys, "pde", "--sigma2", "1,2", "--payoff", "call(0)", *grid) == (
        2, "", f"error: {what} leaves inf cells on its interval\n")


# sha256 of the CSV written by the original whole-field solver, pinned
# before --dump-field streamed its rows
DUMP_SHA256 = {
    "upper": "738b0934d5b6a82af29de3447a36c49814b1e93003ea63dff6e3a7c78c76ab67",
    "lower": "9dbfd791a924588531aa92a1ef3108a449555bc137cef0186d6de9e532d33309",
}


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_pde_dump_field_bytes_are_pinned(capsys, tmp_path, side):
    target = tmp_path / "field.csv"
    code, out, _ = run_json(
        capsys, "pde", "--payoff", BUTTERFLY, "--moves=-1,1,2", "--s-range=-2,2",
        "--ds", "1/10", "--dt", "1/250", "--side", side, "--dump-field", str(target),
    )
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DUMP_SHA256[side]
    last = target.read_text().splitlines()[-21]  # s = 0 in the horizon row
    assert last == f"1.0,0.0,{out['value_at_origin']!r}"


@pytest.mark.parametrize("argv", [
    ["--moves=-1,1,2", "--payoff", BUTTERFLY, "--dt", "1/100"],  # unstable
    ["--sigma2", "2,1", "--payoff", BUTTERFLY],  # empty band
    ["--sigma2", "1,2", "--payoff", "gibberish"],
])
def test_pde_dump_field_refused_writes_no_file(capsys, tmp_path, argv):
    target = tmp_path / "field.csv"
    code, out, err = run_cli(capsys, "pde", *argv, "--dump-field", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert not target.exists()


NON_FINITE = ["pde", "--sigma2", "1,2", "--payoff", "[[0,1e308]]"]


def test_pde_dump_field_failing_march_leaves_no_partial_file(capsys, tmp_path):
    target = tmp_path / "field.csv"
    with pytest.warns(RuntimeWarning):
        code, out, err = run_cli(capsys, *NON_FINITE, "--dump-field", str(target))
    assert code == 2
    assert out == ""
    assert "field became non-finite at time step 1" in err
    assert list(tmp_path.iterdir()) == []


def test_pde_dump_field_failing_march_keeps_an_existing_file(capsys, tmp_path):
    target = tmp_path / "field.csv"
    target.write_text("kept\n")
    target.chmod(0o640)
    with pytest.warns(RuntimeWarning):
        code, _, _ = run_cli(capsys, *NON_FINITE, "--dump-field", str(target))
    assert code == 2
    assert target.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [target]
    argv = ["pde", "--payoff", BUTTERFLY, "--sigma2", "1,2", "--s-range=-2,2",
            "--ds", "1/2", "--dt", "1/10", "--dump-field", str(target)]
    assert run_cli(capsys, *argv)[0] == 0
    assert target.read_text().startswith("t,s,phi\n")
    assert target.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [target]


def test_pde_dump_field_new_file_has_the_usual_mode(capsys, tmp_path):
    target = tmp_path / "field.csv"
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = ["pde", "--payoff", BUTTERFLY, "--sigma2", "1,2", "--s-range=-2,2",
            "--ds", "1/2", "--dt", "1/10", "--dump-field", str(target)]
    assert run_cli(capsys, *argv)[0] == 0
    assert target.stat().st_mode == plain.stat().st_mode


def test_pde_dump_field_missing_directory_names_the_path(capsys, tmp_path):
    target = tmp_path / "missing" / "field.csv"
    code, out, err = run_cli(capsys, "pde", "--payoff", BUTTERFLY, "--sigma2", "1,2",
                             "--dump-field", str(target))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_pde_dump_field_writes_through_links(capsys, tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    device = tmp_path / "null"
    device.symlink_to("/dev/null")
    argv = ["pde", "--payoff", BUTTERFLY, "--sigma2", "1,2", "--s-range=-2,2",
            "--ds", "1/2", "--dt", "1/10", "--dump-field"]
    assert run_cli(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and real.read_text().startswith("t,s,phi\n")
    assert run_cli(capsys, *argv, str(device))[0] == 0
    with pytest.warns(RuntimeWarning):
        assert run_cli(capsys, *NON_FINITE, "--dump-field", str(device))[0] == 2
    assert device.is_symlink() and device.resolve() == Path("/dev/null")
    assert sorted(tmp_path.iterdir()) == [link, device, real]


# --- converge and sweep-quad ---------------------------------------------------


def test_converge_csv(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--moves=-1,1,2", "--payoff", BUTTERFLY,
        "--n-list", "1,20",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "upper", "lower", "binomial_max", "binomial_min",
                       "pde_upper", "pde_lower"]
    assert [r[0] for r in rows[1:]] == ["1", "20"]
    assert float(rows[1][1]) == pytest.approx(0.25, abs=1e-12)
    assert float(rows[2][1]) == pytest.approx(0.3824, abs=5e-5)
    assert rows[1][5] == "" and rows[1][6] == ""  # no --pde, cells stay empty


def test_converge_with_pde_columns(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--moves=-1,1,2", "--payoff", BUTTERFLY,
        "--n-list", "20",
        "--pde",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][5]) == pytest.approx(0.3817, abs=1e-3)
    assert float(rows[1][6]) == pytest.approx(0.2060, abs=1e-3)


def test_converge_rejects_bad_n(capsys):
    code, _, err = run_cli(
        capsys, "converge", "--moves=-1,1,2", "--payoff", BUTTERFLY, "--n-list", "0,5"
    )
    assert code == 2 and ">= 1" in err
    assert run_cli(capsys, "converge", "--moves=-1,1,2", "--payoff", BUTTERFLY,
                   "--n-list=") == (2, "", "error: no N to price\n")


@pytest.mark.parametrize("option, value, err", [
    ("--n-max", "0", "error: no N to price\n"),
    ("--n-max", "-3", "error: no N to price\n"),
    ("--n-list", "3,0", "error: every N must be >= 1, got 0\n"),
])
def test_sweep_quad_rejects_bad_n(capsys, option, value, err):
    assert run_cli(capsys, "sweep-quad", option, value) == (2, "", err)


def test_sweep_quad(capsys):
    code, out, err = run_cli(
        capsys, "sweep-quad", "--a4-min", "3/2", "--a4-max", "2",
        "--a4-step", "1/2", "--n-list", "1,2",
    )
    assert code == 0
    assert "skipping a4=2: already a move" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a4", "N", "upper"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("", "1"), ("", "2"), ("3/2", "1"), ("3/2", "2")
    ]
    # inserting a move cannot shrink the upper price
    assert float(rows[3][2]) >= float(rows[1][2]) - 1e-12
    assert float(rows[4][2]) >= float(rows[2][2]) - 1e-12


def test_sweep_quad_budget_is_checked_before_any_pricing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("priced before the budget check")

    monkeypatch.setattr(induction, "price_european", refuse)
    # (5 - 1/10) / 10^-10 + 1 a4 values, counted in Fractions
    assert run_cli(capsys, "sweep-quad", "--a4-step", "1/10000000000", "--n-list", "1") == (
        3, "", "error: 49000000001 a4 values at 1 N need 49000000001 pricings, "
               "past the budget of 100000\n")
    # the default sweep needs 50 a4 values times N = 1..50
    monkeypatch.setattr(cli, "_SWEEP_BUDGET", 2499)
    assert run_cli(capsys, "sweep-quad") == (
        3, "", "error: 50 a4 values at 50 N need 2500 pricings, past the budget of 2499\n")
    monkeypatch.undo()
    # the sweep of test_sweep_quad prices 2 a4 values (one skipped) at 2 N
    monkeypatch.setattr(cli, "_SWEEP_BUDGET", 4)
    argv = ["sweep-quad", "--a4-min", "3/2", "--a4-max", "2", "--a4-step", "1/2", "--n-list", "1,2"]
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_SWEEP_BUDGET", 3)
    assert run_cli(capsys, *argv) == (
        3, "", "error: 2 a4 values at 2 N need 4 pricings, past the budget of 3\n")


@pytest.mark.parametrize("n_max", ["1000000000000", "100000000000000000000"])
def test_sweep_quad_counts_n_max_without_building_the_list(capsys, n_max):
    # 1..n_max is counted, never listed, so this is refused at once
    assert run_cli(capsys, "sweep-quad", "--n-max", n_max) == (
        3, "", f"error: 50 a4 values at {n_max} N need {50 * int(n_max)} pricings, "
               "past the budget of 100000\n")


def test_sweep_quad_rejects_bad_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep-quad", "--a4-min", "2", "--a4-max", "1", "--a4-step", "1/2"
    )
    assert code == 2 and "a4" in err


# --- bounds and lp --------------------------------------------------------------


def test_bounds_json(capsys):
    code, out, _ = run_json(
        capsys, "bounds", "--moves=-1,1,2", "--rounds", "20", "--scale", "diffusive",
        "--payoff", BUTTERFLY, "--split", "--nested-outer=-1,1,2,5/2",
    )
    assert code == 0
    assert len(out["pairs"]) == 2
    assert out["binomial_max"]["price"] == pytest.approx(0.3327350740244583, abs=1e-12)
    assert out["binomial_max"]["pair"] == [0, 0]
    assert out["binomial_min"]["price"] == pytest.approx(0.2310160077355719, abs=1e-12)
    assert out["binomial_min"]["pair"] == [0, 1]
    assert out["convex_concave"]["bound"] >= out["binomial_max"]["price"] - 1e-12
    nested = out["nested"]
    assert (nested["lower_outer"] <= nested["lower_inner"]
            <= nested["upper_inner"] <= nested["upper_outer"])


def test_bounds_split_prices_each_pair_once(capsys, monkeypatch):
    calls = []
    binomial_price = bounds.binomial_price

    def spy(*args):
        calls.append(args)
        return binomial_price(*args)

    monkeypatch.setattr(bounds, "binomial_price", spy)
    code, out, _ = run_json(
        capsys, "bounds", "--moves=-1,1/3,1/2,2/3,2", "--rounds", "10",
        "--payoff", BUTTERFLY, "--split",
    )
    assert code == 0
    assert len(calls) == len(out["pairs"]) + 2  # the split bound adds two


def test_lp_builds_the_problem_once(capsys, monkeypatch, tmp_path):
    calls = []
    build_problem = lp.build_problem

    def spy(*args, **kwargs):
        calls.append(args)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(lp, "build_problem", spy)
    for side in ("upper", "lower"):
        calls.clear()
        code, out, _ = run_json(
            capsys, "lp", "--moves=-1,1,2", "--rounds", "2", "--payoff", BUTTERFLY,
            "--side", side, "--check-dual", "--dump-lp", str(tmp_path / "problem.lp"),
        )
        assert code == 0 and out["dual_gap"] <= 1e-9
        assert len(calls) == 1, side


def test_lp_with_dual_check(capsys):
    code, out, _ = run_json(
        capsys, "lp", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY,
        "--check-dual",
    )
    assert code == 0
    assert out["optimum"] == pytest.approx(0.25, abs=1e-9)
    assert out["rows"] == 3 and out["cols"] == 2
    assert out["dual_gap"] <= 1e-9


def test_lp_at_six_rounds_matches_the_induction(capsys):
    # a 729 x 365 LP: its tableau has 365 x 1,095 cells, where the primal's
    # had 729 x 2,189 and took 5-7 s a side
    game = GameSpec.scaled(parse_moves("-1,1,2"), 6)
    want = {side: price_european(game, parse_payoff(BUTTERFLY), side).price for side in Side}
    assert want[Side.UPPER] == pytest.approx(0.374673056, abs=1e-9)
    for side in Side:
        started = time.perf_counter()
        code, out, _ = run_json(capsys, "lp", "--moves=-1,1,2", "--rounds", "6",
                                "--scale", "diffusive", "--payoff", BUTTERFLY,
                                "--side", side.value)
        elapsed = time.perf_counter() - started
        assert code == 0 and (out["rows"], out["cols"]) == (729, 365)
        assert out["optimum"] == pytest.approx(want[side], abs=1e-9)
        assert elapsed < 2.0, side


def test_lp_dump(capsys, tmp_path):
    target = tmp_path / "problem.lp"
    code, _, _ = run_json(
        capsys, "lp", "--moves=-1,1,2", "--rounds", "2", "--payoff", BUTTERFLY,
        "--dump-lp", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("MIN rows=9 cols=5")
    assert "VARS alpha M1 M2|a1 M2|a2 M2|a3" in text


# sha256 of the --dump-lp files written while the matrix was built by a
# Kronecker recursion: the one-pass build writes the same bytes, -0.0 included
LP_DUMP_SHA256 = {
    ("-1,1,2", "3", BUTTERFLY): "e308e1ea64ae402bd9d75daad73d522ab2c3acc046a985ce0050332f9691eb80",
    ("-1,0,1,2", "3", BUTTERFLY): "71e778c3db975ba2a0bf9fc80cf8f39af680a5fe58c2133e620fcb500c93008d",
    ("-1,1/3,1/2,2/3,2", "2", BUTTERFLY):
        "138083571bccdcd23409d0644f7d4c0aaea316e8b8cb8f801cef6120a0a5da96",
    ("-1,1", "6", "call(0)"): "d4fbda926015ff2e2a0c439124f8a8843790df3dbc4e3ceb64c7763a64f06949",
}


@pytest.mark.parametrize("moves, rounds, payoff", list(LP_DUMP_SHA256))
def test_lp_dump_bytes_are_pinned(capsys, tmp_path, moves, rounds, payoff):
    target = tmp_path / "problem.lp"
    code, _, _ = run_json(capsys, "lp", f"--moves={moves}", "--rounds", rounds,
                          "--payoff", payoff, "--dump-lp", str(target))
    assert code == 0
    assert " -0.0 " in target.read_text()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == LP_DUMP_SHA256[moves, rounds, payoff]


@pytest.mark.parametrize("extra, budget, err", [
    ((), 9, "error: 10 lattice nodes after 2 rounds exceed the budget of 9\n"),
    (("--prune", "2"), 10, "error: 19 lattice nodes after 3 rounds exceed the budget of 10\n"),
])
def test_lattice_budget_exit(capsys, monkeypatch, extra, budget, err):
    monkeypatch.setattr(induction, "_LATTICE_BUDGET", budget)
    code, out, got = run_cli(
        capsys, "price", "--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY, *extra,
    )
    assert (code, out, got) == (3, "", err)


def test_lp_budget_exit(capsys, monkeypatch):
    monkeypatch.setattr(lp, "_MAX_ENTRIES", 100)
    assert run_cli(capsys, "lp", "--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY) == (
        3, "", "error: LP of 27 rows x 14 columns: its tableau of 588 cells exceeds 100 entries\n")


def test_lp_budget_counts_tableau_cells(capsys):
    # -1,1 at N=12: a 4096 x 4096 matrix (16.8M entries) but a tableau of
    # 4096 x 8193 cells, past the default budget; N=11 fits (test_lp.py)
    assert run_cli(capsys, "lp", "--moves=-1,1", "--rounds", "12", "--payoff", "call(0)") == (
        3, "", "error: LP of 4096 rows x 4096 columns: its tableau of 33558528 cells "
               "exceeds 20000000 entries\n")
    assert run_cli(capsys, "fuzz", "--max-moves", "2", "--max-rounds", "12") == (
        2, "", "error: max_moves=2 and max_rounds=12 allow games whose LP passes the budget "
               "of 20000000 entries\n")


def test_lp_solver_failure_is_exit_two(capsys, monkeypatch):
    def capped(problem, *args, **kwargs):
        raise RuntimeError("simplex did not terminate within the iteration cap")

    monkeypatch.setattr(lp, "solve_min", capped)
    code, out, err = run_cli(
        capsys, "lp", "--moves=-1,1,2", "--rounds", "2", "--payoff", BUTTERFLY,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "iteration cap" in err


# --- verify and fuzz -------------------------------------------------------------


def test_verify_ok_both_sides(capsys):
    base = ["verify", "--moves=-1,1,2", "--rounds", "3", "--scale", "diffusive",
            "--payoff", BUTTERFLY]
    for side in ("upper", "lower"):
        code, out, _ = run_json(capsys, *base, "--side", side)
        assert code == 0, side
        assert out["superreplicates"] is True
        assert out["measure_audit"]["passed"] is True
        assert out["measure_audit"]["total_probability"] == "1"


def test_lower_verify_replays_the_returned_strategy(capsys, monkeypatch):
    # the lower certificate is replayed as it is, not re-derived by pricing -f
    calls = []
    price_european = induction.price_european

    def spy(*args):
        calls.append(args)
        return price_european(*args)

    monkeypatch.setattr(induction, "price_european", spy)
    base = ["--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY, "--side", "lower"]
    code, out, _ = run_json(capsys, "verify", *base)
    assert code == 0 and out["superreplicates"] is True
    assert len(calls) == 1
    code, out, _ = run_json(capsys, "price", *base, "--verify")
    assert code == 0 and out["verification"]["superreplicates"] is True
    assert len(calls) == 2


def test_verify_underfunded_alpha_fails(capsys):
    code, out, _ = run_json(
        capsys, "verify", "--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY,
        "--alpha", "0.01",
    )
    assert code == 4
    assert out["superreplicates"] is False
    assert out["min_slack"] < -1e-9
    # the replay tolerance is verify._REPLAY_TOL, not an option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY,
              "--alpha", "0.01", "--tolerance", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fuzz_command(capsys):
    code, out, _ = run_json(capsys, "fuzz", "--trials", "5", "--seed", "1")
    assert code == 0
    assert out == {"seed": 1, "trials": 5, "failures": [], "passed": True}


@pytest.mark.parametrize("option, value, err", [
    ("--trials", "-5", "error: trials must be >= 0, got -5\n"),
    ("--max-moves", "1", "error: max_moves must be >= 2, got 1\n"),
    ("--max-rounds", "0", "error: max_rounds must be >= 1, got 0\n"),
])
def test_fuzz_bad_counts_exit_two(capsys, option, value, err):
    assert run_cli(capsys, "fuzz", option, value) == (2, "", err)


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_fuzz_limits_past_the_dual_budget_exit_two(capsys, seed):
    assert run_cli(capsys, "fuzz", "--seed", seed, "--max-moves", "4", "--max-rounds", "3") == (
        2, "", "error: max_moves=4 and max_rounds=3 allow games whose dual enumeration "
               "passes the budget of 1000000 pair assignments\n")


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_fuzz_limits_past_the_lp_budget_exit_two(capsys, seed):
    # one pair, so the dual check passes; the first trial's LP would not
    assert run_cli(capsys, "fuzz", "--seed", seed, "--max-moves", "2", "--max-rounds", "40",
                   "--trials", "5") == (
        2, "", "error: max_moves=2 and max_rounds=40 allow games whose LP passes the budget "
               "of 20000000 entries\n")


@pytest.mark.parametrize("argv", [
    ["price", "--payoff", BUTTERFLY], ["verify", "--payoff", BUTTERFLY],
    ["bounds", "--payoff", BUTTERFLY], ["lp", "--payoff", BUTTERFLY],
])
@pytest.mark.parametrize("rounds", ["0", "-2"])
def test_diffusive_scale_refuses_rounds_below_one(capsys, argv, rounds):
    assert run_cli(capsys, *argv, "--moves=-1,1,2", "--rounds", rounds,
                   "--scale", "diffusive") == (2, "", "error: rounds must be >= 1\n")


# --- plumbing --------------------------------------------------------------------


def test_bad_payoff_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", "gibberish"
    )
    assert code == 2
    assert "cannot parse payoff" in err


@pytest.mark.parametrize("extra", [[], ["--prune", "2"]])
@pytest.mark.parametrize("moves, rounds", [
    ("-1,1/2305843009213693952", "5"),  # 5 * 2^61 wraps the int64 lattice sums
    ("-1,9223372036854775808", "1"),  # a numerator past int64
])
def test_lattice_overflow_is_exit_two(capsys, moves, rounds, extra):
    code, out, err = run_cli(
        capsys, "price", f"--moves={moves}", "--rounds", rounds, "--payoff", "call(0)", *extra
    )
    assert code == 2
    assert out == ""
    assert "int64" in err


ONE_STEP = ["--moves=-1,1", "--rounds", "1"]
PDE_BAND = ["pde", "--sigma2", "1,2", "--payoff", "call(0)"]


@pytest.mark.parametrize("argv, value", [
    ([*PDE_BAND, "--horizon", "1e400"], "1e400"),
    ([*PDE_BAND, "--s-range=-1e400,1e400"], "-1e400"),
    ([*PDE_BAND, "--ds", "1e400"], "1e400"),
    (["pde", "--sigma2", "1e400,1e400", "--payoff", "call(0)"], "1e400"),
    (["price", *ONE_STEP, "--scale", "1e400", "--payoff", "call(0)"], "1e400"),
    (["price", *ONE_STEP, "--payoff", "call(1e400)"], "1e400"),
    (["bounds", *ONE_STEP, "--payoff", "butterfly(0,1,1e400)"], "1e400"),
    (["lp", *ONE_STEP, "--payoff", "put(-1e400)"], "-1e400"),
    (["verify", *ONE_STEP, "--payoff", "call(0)", "--alpha", "1e400"], "1e400"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_options_past_the_float_range_are_exit_two(capsys, argv, value):
    assert run_cli(capsys, *argv) == (2, "", f"error: not a finite float: {value!r}\n")


@pytest.mark.parametrize("command", ["price", "verify", "bounds", "lp", "pde", "converge"])
def test_moves_past_the_float_range_are_exit_two(capsys, command):
    rounds = [] if command in ("pde", "converge") else ["--rounds", "1"]
    assert run_cli(capsys, command, "--moves=-1,1e400", *rounds, "--payoff", "call(0)") == (
        2, "", "error: moves must lie within the float range\n")


@pytest.mark.parametrize("payoff", [
    '{"kind": "call", "strik": 1}',
    '{"kind": "call", "strike": "abc"}',
    '{"kind": "butterfly", "k1": -1, "k2": 0}',
    '{"kind": ["call"], "strike": 1}',
    '{"kind": "call", "strike": Infinity}',
    '{"kind": "piecewise_linear", "breakpoints": [[0, 1]], "left_slope": -Infinity}',
])
def test_malformed_payoff_json_is_exit_two(capsys, payoff):
    code, out, err = run_cli(
        capsys, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", payoff
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["price", "verify", "lp", "bounds"])
def test_non_finite_payoff_values_are_exit_two(capsys, tmp_path, command):
    # call(0) at the leaf sum 6 times 1e308 is inf
    export = ["--export-result", str(tmp_path / "result.json")] if command == "price" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, command, "--moves=-1,1,2", "--rounds", "3", "--scale", "1e308",
                       "--payoff", "call(0)", *export) == (
            2, "", "error: payoff value inf at s = inf is not finite\n")
    assert list(tmp_path.iterdir()) == []


def test_nan_payoff_is_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--moves=-1,1,2", "--rounds", "3",
        "--payoff", '{"kind":"piecewise_linear","breakpoints":[[0,NaN]]}',
    )
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_timing_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "--timing",
        "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY,
    )
    assert code == 0
    assert "elapsed:" in err
    assert "elapsed:" not in out


def test_output_is_deterministic(capsys):
    argv = ["converge", "--moves=-1,1,2", "--payoff", BUTTERFLY, "--n-list", "1,5"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_console_script():
    # without an installed console script, run the module's own entry point
    exe = shutil.which("gamehedge")
    command = [exe] if exe else [sys.executable, "-m", "gamehedge.cli"]
    env = dict(os.environ, PYTHONPATH=str(Path(gamehedge.__file__).parent.parent))
    proc = subprocess.run(
        [*command, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["price"] == pytest.approx(0.25, abs=1e-12)
    proc = subprocess.run([*command, "price", "--moves=-1,1,2", "--rounds", "0",
                           "--payoff", BUTTERFLY], capture_output=True, text=True, timeout=60,
                          env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
