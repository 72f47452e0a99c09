from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from gamehedge import (
    BudgetError,
    GameSpec,
    PathDependent,
    PruneSchedule,
    Side,
    Strategy,
    audit_measure,
    check_superreplication,
    fuzz_cross_routes,
    price_european,
    price_path_dependent,
    price_pruned,
    verify,
)
from gamehedge.model import payoff_value_on_path
from conftest import extract_measure, random_game, random_piecewise


# --- superreplication replay --------------------------------------------------


@pytest.mark.parametrize("rounds", [1, 3, 5, 8])
def test_optimal_strategy_superreplicates_and_is_tight(trinomial, butterfly, rounds):
    game = GameSpec.scaled(trinomial, rounds)
    result = price_european(game, butterfly, Side.UPPER)
    report = check_superreplication(game, butterfly, result.price, result.strategy)
    assert report.paths_checked == 3**rounds
    assert report.passed
    # the optimum leaves no slack to spare on the worst path
    assert -1e-9 <= report.min_slack <= 1e-9


def test_undercapitalized_strategy_fails(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_european(game, butterfly, Side.UPPER)
    for shortfall in (0.01, 1e-5):
        report = check_superreplication(
            game, butterfly, result.price - shortfall, result.strategy
        )
        assert not report.passed
        assert report.min_slack == pytest.approx(-shortfall, abs=1e-9)


def test_zero_strategy_needs_the_maximum(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    paths = list(itertools.product(trinomial.members, repeat=2))
    alpha = max(payoff_value_on_path(butterfly, 1.0, p) for p in paths)
    links = price_european(game, butterfly, Side.UPPER).strategy.links
    strategy = Strategy((np.zeros(1), np.zeros(3)), links)
    report = check_superreplication(game, butterfly, alpha, strategy)
    assert report.passed
    assert report.min_slack == 0.0
    assert payoff_value_on_path(butterfly, 1.0, report.worst_path) == alpha


def test_path_strategy_replays(trinomial):
    def lookback(path: tuple[float, ...]) -> float:
        running = 0.0
        best = 0.0
        for x in path:
            running += x
            best = max(best, running)
        return best

    payoff = PathDependent(lookback, label="lookback")
    game = GameSpec.scaled(trinomial, 3)
    result = price_path_dependent(game, payoff, Side.UPPER)
    report = check_superreplication(game, payoff, result.price, result.strategy)
    assert report.passed
    assert -1e-9 <= report.min_slack <= 1e-9


def test_replay_budget(monkeypatch, trinomial, butterfly):
    game = GameSpec(trinomial, 3, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    monkeypatch.setattr(verify, "_REPLAY_BUDGET", 27)
    assert check_superreplication(game, butterfly, result.price, result.strategy).passed
    monkeypatch.setattr(verify, "_REPLAY_BUDGET", 10)
    with pytest.raises(BudgetError, match="27 paths exceed the budget of 10"):
        check_superreplication(game, butterfly, result.price, result.strategy)


def test_replay_tolerance_is_the_module_constant(monkeypatch, trinomial, butterfly):
    game = GameSpec(trinomial, 3, 1.0)
    for side, sign in ((Side.UPPER, -1.0), (Side.LOWER, 1.0)):
        result = price_european(game, butterfly, side)
        for miss, passed in ((1e-10, True), (1e-8, False)):
            alpha = result.price + sign * miss
            assert verify.check_replication(game, butterfly, alpha, result.strategy,
                                            side).passed is passed
        monkeypatch.setattr(verify, "_REPLAY_TOL", 0.0)
        alpha = result.price + sign * 1e-10
        assert not verify.check_replication(game, butterfly, alpha, result.strategy, side).passed
        monkeypatch.undo()


def test_missing_link_is_reported(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    links = [link.copy() for link in result.strategy.links]
    links[1][1, 2] = -1
    strategy = replace(result.strategy, links=tuple(links))
    with pytest.raises(ValueError, match="no link for a move at round 1"):
        check_superreplication(game, butterfly, result.price, strategy)
    # a strategy of another game does not fit, rather than indexing silently
    longer = GameSpec(trinomial, 3, 1.0)
    with pytest.raises(ValueError, match="the game has 3"):
        check_superreplication(longer, butterfly, result.price, result.strategy)
    links = [link.copy() for link in result.strategy.links]
    links[0][1, 0] = 3
    strategy = replace(result.strategy, links=tuple(links))
    with pytest.raises(ValueError, match="do not fit its nodes and those of round 1"):
        check_superreplication(game, butterfly, result.price, strategy)


def test_nan_positions_fail_the_replay(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    nan = tuple(np.full_like(p, np.nan) for p in result.strategy.positions)
    report = check_superreplication(game, butterfly, result.price,
                                    replace(result.strategy, positions=nan))
    assert math.isnan(report.min_slack)
    assert not report.passed


def test_pruned_strategies_are_refused(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_pruned(game, butterfly, PruneSchedule(2))
    with pytest.raises(ValueError, match="not superhedging certificates"):
        check_superreplication(game, butterfly, result.price, result.strategy)


# --- measure audits -----------------------------------------------------------


def test_audit_one_step(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    audit = audit_measure(game, butterfly, result)
    assert audit.passed
    assert audit.total_probability == 1
    assert audit.nodes_checked == 1
    assert audit.expectation == pytest.approx(0.25, abs=1e-12)


def test_audit_random_games():
    rng = random.Random(71)
    for _ in range(5):
        game = random_game(rng)
        payoff = random_piecewise(rng)
        for side in (Side.UPPER, Side.LOWER):
            result = price_european(game, payoff, side)
            audit = audit_measure(game, payoff, result)
            assert audit.passed, (game, payoff, side)
            assert audit.total_probability == 1


def test_audit_pruned_measure(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_pruned(game, butterfly, PruneSchedule(2))
    audit = audit_measure(game, butterfly, result)
    assert audit.passed
    assert audit.expectation == pytest.approx(result.price, abs=1e-10)


def test_audit_budget(monkeypatch, trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_european(game, butterfly, Side.UPPER)
    supported = len(extract_measure(result, game))
    monkeypatch.setattr(verify, "_AUDIT_BUDGET", supported)
    assert audit_measure(game, butterfly, result).passed
    monkeypatch.setattr(verify, "_AUDIT_BUDGET", supported - 1)
    with pytest.raises(BudgetError, match=f"budget of {supported - 1}"):
        audit_measure(game, butterfly, result)


def test_audit_detects_price_corruption(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 3)
    result = price_european(game, butterfly, Side.UPPER)
    corrupted = replace(result, price=result.price + 1e-3)
    assert not audit_measure(game, butterfly, corrupted).passed
    assert not audit_measure(game, butterfly, replace(result, price=math.nan)).passed


# --- fuzz harness -------------------------------------------------------------


def test_fuzz_clean_run():
    summary = fuzz_cross_routes(seed=0, trials=40)
    assert summary.passed
    assert summary.failures == []
    assert summary.trials == 40


def _corrupt_upper_prices(monkeypatch) -> None:
    """Shift every upper-side induction price the fuzz harness sees by 1e-3."""
    price_european = verify.induction.price_european

    def shifted(game, payoff, side):
        result = price_european(game, payoff, side)
        return replace(result, price=result.price + 1e-3) if side is Side.UPPER else result

    monkeypatch.setattr(verify.induction, "price_european", shifted)


def test_fuzz_detects_corruption(monkeypatch):
    _corrupt_upper_prices(monkeypatch)
    summary = fuzz_cross_routes(seed=0, trials=5)
    assert not summary.passed
    known = {
        "lp_upper", "dual_upper", "reciprocity", "order",
        "binomial_vs_upper", "convex_concave", "convex_exact", "measure_audit",
        "lp_lower", "dual_lower", "binomial_vs_lower",
        "superreplication", "subreplication",
    }
    assert {f["check"] for f in summary.failures} <= known
    # every trial must notice a 1e-3 shift in the upper price
    assert {f["trial"] for f in summary.failures} == set(range(5))


def test_fuzz_zero_trials():
    summary = fuzz_cross_routes(seed=123, trials=0)
    assert summary.passed and summary.trials == 0


def test_fuzz_seed_reproducible(monkeypatch):
    _corrupt_upper_prices(monkeypatch)
    a = fuzz_cross_routes(seed=7, trials=3)
    b = fuzz_cross_routes(seed=7, trials=3)
    assert a.failures == b.failures


def test_fuzz_limits_are_respected():
    summary = fuzz_cross_routes(seed=3, trials=10, max_moves=2, max_rounds=1)
    assert summary.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -5}, "trials must be >= 0, got -5"),
    ({"max_moves": 1}, "max_moves must be >= 2, got 1"),
    ({"max_rounds": 0}, "max_rounds must be >= 1, got 0"),
])
def test_fuzz_refuses_bad_counts(kwargs, message):
    with pytest.raises(ValueError, match=message):
        fuzz_cross_routes(seed=0, **kwargs)


@pytest.mark.parametrize("max_moves, max_rounds", [(4, 3), (6, 2), (3, 4), (10**6, 10**9)])
def test_fuzz_refuses_limits_past_the_dual_budget(monkeypatch, max_moves, max_rounds):
    # no game may be drawn: the refusal comes before the first trial
    monkeypatch.setattr(verify, "_random_move_space", None)
    with pytest.raises(ValueError, match=f"^max_moves={max_moves} and max_rounds={max_rounds} "
                                         "allow games whose dual enumeration passes the budget "
                                         "of 1000000 pair assignments$"):
        fuzz_cross_routes(seed=0, trials=1, max_moves=max_moves, max_rounds=max_rounds)


@pytest.mark.parametrize("budget, value, max_moves, max_rounds, message", [
    # one pair, so the dual check passes; 2**40 x 2**40 LP entries do not
    (None, None, 2, 40, "LP passes the budget of 20000000 entries"),
    (None, None, 2, 13, "LP passes the budget of 20000000 entries"),
    ("_REPLAY_BUDGET", 7, 2, 3, "replay passes the budget of 7 paths"),
    ("_AUDIT_BUDGET", 7, 2, 3, "measure audit passes the budget of 7 supported paths"),
    ("_REPLAY_BUDGET", 10**9, 2, 10**9, "LP passes the budget of 20000000 entries"),
])
def test_fuzz_refuses_limits_past_the_check_budgets(monkeypatch, budget, value, max_moves,
                                                    max_rounds, message):
    if budget is not None:
        monkeypatch.setattr(verify, budget, value)
    # no game may be drawn: the refusal comes before the first trial
    monkeypatch.setattr(verify, "_random_move_space", None)
    with pytest.raises(ValueError, match=f"^max_moves={max_moves} and max_rounds={max_rounds} "
                                         f"allow games whose {message}$"):
        fuzz_cross_routes(seed=0, trials=1, max_moves=max_moves, max_rounds=max_rounds)


def test_fuzz_limits_at_the_check_budgets_run(monkeypatch):
    # the largest (2, 11) game has a 2048 x 2048 LP, whose tableau of 2048 x 4097
    # cells fits the LP budget; only the limits are checked
    fuzz_cross_routes(seed=0, trials=0, max_moves=2, max_rounds=11)
    # the largest (3, 3) game has 27 paths, of which at most 2**3 are supported
    monkeypatch.setattr(verify, "_REPLAY_BUDGET", 27)
    monkeypatch.setattr(verify, "_AUDIT_BUDGET", 8)
    assert fuzz_cross_routes(seed=0, trials=10, max_moves=3, max_rounds=3).passed


def test_fuzz_limits_at_the_dual_budget_run(monkeypatch):
    # the largest (5, 2) game has 2 x 3 pairs and 6 internal nodes: 6**6 assignments
    assert fuzz_cross_routes(seed=0, trials=3, max_moves=5, max_rounds=2).passed
    assert fuzz_cross_routes(seed=0, trials=3, max_moves=4, max_rounds=2).passed
    monkeypatch.setattr(verify.lp, "_DUAL_BUDGET", 6**6)
    fuzz_cross_routes(seed=0, trials=0, max_moves=5, max_rounds=2)
    monkeypatch.setattr(verify.lp, "_DUAL_BUDGET", 6**6 - 1)
    with pytest.raises(ValueError, match="budget of 46655 pair"):
        fuzz_cross_routes(seed=0, trials=0, max_moves=5, max_rounds=2)
