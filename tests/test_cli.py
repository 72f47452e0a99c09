from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess

import pytest

from gamehedge import bounds, induction, lp
from gamehedge.cli import main, parse_moves, parse_payoff
from gamehedge import Butterfly, Call, PiecewiseLinear, Put, Sine

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


def test_price_output_file(capsys, tmp_path):
    target = tmp_path / "price.json"
    code, stdout, _ = run_cli(
        capsys, "--output", str(target),
        "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY,
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(target.read_text())["price"] == pytest.approx(0.25, abs=1e-12)


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


def test_lp_budget_exit(capsys):
    code, _, err = run_cli(
        capsys, "lp", "--moves=-1,1,2", "--rounds", "3", "--payoff", BUTTERFLY,
        "--max-entries", "100",
    )
    assert code == 3
    assert "exceeds 100 entries" in err


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


def test_fuzz_command(capsys):
    code, out, _ = run_json(capsys, "fuzz", "--trials", "5", "--seed", "1")
    assert code == 0
    assert out == {"seed": 1, "trials": 5, "failures": [], "passed": True}


# --- plumbing --------------------------------------------------------------------


def test_bad_payoff_is_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", "gibberish"
    )
    assert code == 2
    assert "cannot parse payoff" in err


@pytest.mark.parametrize("payoff", [
    '{"kind": "call", "strik": 1}',
    '{"kind": "call", "strike": "abc"}',
    '{"kind": "butterfly", "k1": -1, "k2": 0}',
    '{"kind": ["call"], "strike": 1}',
])
def test_malformed_payoff_json_is_exit_two(capsys, payoff):
    code, out, err = run_cli(
        capsys, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", payoff
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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
    exe = shutil.which("gamehedge")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "price", "--moves=-1,1,2", "--rounds", "1", "--payoff", BUTTERFLY],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["price"] == pytest.approx(0.25, abs=1e-12)
