from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from gamehedge import (
    BudgetError,
    FuzzLimits,
    GameSpec,
    PathDependent,
    PruneSchedule,
    Side,
    Strategy,
    audit_measure,
    check_superreplication,
    extract_measure,
    fuzz_cross_routes,
    price_european,
    price_path_dependent,
    price_pruned,
    verify,
)
from gamehedge.model import payoff_value_on_path
from conftest import random_game, random_piecewise


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


def test_replay_budget(trinomial, butterfly):
    game = GameSpec(trinomial, 3, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    with pytest.raises(BudgetError):
        check_superreplication(game, butterfly, result.price, result.strategy, budget=10)


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


def test_fuzz_detects_corruption():
    summary = fuzz_cross_routes(seed=0, trials=5, corrupt_price=1e-3)
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


def test_fuzz_seed_reproducible():
    a = fuzz_cross_routes(seed=7, trials=3, corrupt_price=1e-3)
    b = fuzz_cross_routes(seed=7, trials=3, corrupt_price=1e-3)
    assert a.failures == b.failures


def test_fuzz_limits_are_respected():
    limits = FuzzLimits(max_moves=2, max_rounds=1)
    summary = fuzz_cross_routes(seed=3, trials=10, limits=limits)
    assert summary.passed
