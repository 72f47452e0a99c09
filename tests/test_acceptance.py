"""Acceptance gate: ten pinned criteria, one test (and one PASS line) each.

Every tolerance is frozen here.  Reference values were produced by the
independent routes they are checked against (closed-form binomial sums,
brute-force path replay, exact-rational audits) or measured once from this
implementation and frozen as regressions.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from gamehedge import (
    Butterfly,
    GameSpec,
    GridSpec,
    MoveSpace,
    PruneSchedule,
    Side,
    audit_measure,
    binomial_price,
    binomial_prices,
    check_superreplication,
    fuzz_cross_routes,
    price_european,
    price_pruned,
    solve,
    value_at,
)
from gamehedge.model import piecewise_from_hinges
from conftest import random_move_space, random_piecewise

TRI = MoveSpace.from_moves([-1, 1, 2])
BFLY = Butterfly(-0.5, 0.5, 1.5)

# scaled-game butterfly prices, rounded to 4 decimals (upper, lower)
TABLE1 = {
    1: (0.2500, 0.0000),
    20: (0.3824, 0.1926),
    40: (0.3790, 0.1993),
    60: (0.3820, 0.2012),
    80: (0.3799, 0.2032),
    100: (0.3807, 0.2032),
}


@pytest.fixture(scope="module")
def lattice_prices():
    started = time.perf_counter()
    prices = {
        n: (
            price_european(GameSpec.scaled(TRI, n), BFLY, Side.UPPER).price,
            price_european(GameSpec.scaled(TRI, n), BFLY, Side.LOWER).price,
        )
        for n in TABLE1
    }
    return prices, time.perf_counter() - started


@pytest.fixture(scope="module")
def pde_values():
    grid = GridSpec(-6.0, 6.0, 0.1, 1.0 / 300.0)
    started = time.perf_counter()
    upper = solve(grid, BFLY, Side.UPPER, 1.0, 2.0)
    lower = solve(grid, BFLY, Side.LOWER, 1.0, 2.0)
    elapsed = time.perf_counter() - started
    return (value_at(upper, 0.0), value_at(lower, 0.0)), elapsed


def test_criterion_01_scaled_price_table(lattice_prices):
    prices, elapsed = lattice_prices
    for n, (up_want, lo_want) in TABLE1.items():
        upper, lower = prices[n]
        assert upper == pytest.approx(up_want, abs=5e-5), f"upper at N={n}"
        assert lower == pytest.approx(lo_want, abs=5e-5), f"lower at N={n}"
    assert elapsed < 1.0, f"12 prices took {elapsed:.3f}s"
    print(f"PASS criterion 1: 12 scaled trinomial prices within 5e-5 in {elapsed:.3f}s")


def test_criterion_02_pde_limit_values(pde_values):
    (upper, lower), elapsed = pde_values
    assert upper == pytest.approx(0.3817, abs=1e-3)
    assert lower == pytest.approx(0.2060, abs=1e-3)
    assert elapsed < 0.1, f"two PDE solves took {elapsed:.3f}s"
    print(f"PASS criterion 2: PDE origin values 0.3817/0.2060 within 1e-3 in {elapsed:.3f}s")


def test_criterion_03_lattice_meets_pde(lattice_prices, pde_values):
    prices, _ = lattice_prices
    (pde_upper, pde_lower), _ = pde_values
    upper100, lower100 = prices[100]
    assert abs(upper100 - pde_upper) <= 5e-3
    assert abs(lower100 - pde_lower) <= 5e-3
    print("PASS criterion 3: N=100 prices within 5e-3 of the PDE limit")


def test_criterion_04_fuzz_cross_routes():
    summary = fuzz_cross_routes(seed=0, trials=100)
    assert summary.trials == 100
    assert summary.failures == [], summary.failures[:3]
    print("PASS criterion 4: 100 fuzz trials, all routes agree (LP/dual at 1e-9)")


def _random_convex(rng: random.Random):
    xs = rng.sample([F(k, 2) for k in range(-6, 7)], rng.randint(1, 3))
    hinges = tuple((float(x), rng.uniform(0.05, 0.8)) for x in sorted(xs))
    return piecewise_from_hinges(rng.uniform(-1, 1), rng.uniform(-1, 1), hinges)


def test_criterion_05_convex_payoffs_price_in_closed_form():
    rng = random.Random(50)
    for _ in range(50):
        moves = random_move_space(rng)
        game = GameSpec.scaled(moves, rng.randint(1, 50))
        payoff = _random_convex(rng)
        upper = price_european(game, payoff, Side.UPPER).price
        lower = price_european(game, payoff, Side.LOWER).price
        outermost = (moves.n_negative - 1, moves.n_positive - 1)
        upper_bin = binomial_price(game, outermost, payoff)
        lower_bin = binomial_price(game, (0, 0), payoff)
        assert abs(upper - upper_bin) <= 1e-12 * max(1.0, abs(upper_bin)), (game, payoff)
        assert abs(lower - lower_bin) <= 1e-12 * max(1.0, abs(lower_bin)), (game, payoff)
        if moves.positives[0] == 0:
            # the innermost sub-model collapses onto the zero move
            assert lower_bin == payoff(0.0)
    print("PASS criterion 5: 50 random convex payoffs match their binomial closed forms (1e-12)")


def test_criterion_06_superreplication_is_tight():
    for rounds in range(1, 9):
        game = GameSpec.scaled(TRI, rounds)
        result = price_european(game, BFLY, Side.UPPER)
        report = check_superreplication(game, BFLY, result.price, result.strategy)
        assert report.passed and -1e-9 <= report.min_slack <= 1e-9, rounds
        starved = check_superreplication(
            game, BFLY, result.price - 1e-5, result.strategy
        )
        assert not starved.passed, rounds
    print("PASS criterion 6: strategies superreplicate exactly at the price for N<=8,"
          " and fail from price - 1e-5")


def test_criterion_07_exact_measure_audits():
    for rounds in (1, 2, 3, 5, 7, 10):
        game = GameSpec.scaled(TRI, rounds)
        for side in (Side.UPPER, Side.LOWER):
            result = price_european(game, BFLY, side)
            audit = audit_measure(game, BFLY, result, tolerance=1e-10)
            assert audit.passed, (rounds, side)
            assert audit.total_probability == 1
            assert abs(audit.expectation - result.price) <= 1e-10
    rng = random.Random(70)
    for _ in range(5):
        moves = random_move_space(rng)
        game = GameSpec(moves, rng.randint(1, 10), 1.0)
        payoff = random_piecewise(rng)
        result = price_european(game, payoff, Side.UPPER)
        audit = audit_measure(game, payoff, result, tolerance=1e-10)
        assert audit.passed and audit.total_probability == 1
    print("PASS criterion 7: extremal measures audit exactly (probabilities sum to 1,"
          " E[f] within 1e-10) for N<=10")


def test_criterion_08_structural_inequalities():
    summary = fuzz_cross_routes(seed=8, trials=30)
    assert summary.failures == [], summary.failures[:3]
    inner = {
        n: (
            price_european(GameSpec.scaled(TRI, n), BFLY, Side.LOWER).price,
            price_european(GameSpec.scaled(TRI, n), BFLY, Side.UPPER).price,
        )
        for n in range(1, 51)
    }
    for a4 in (F(1, 2), F(3, 2), F(5, 2)):
        quad = MoveSpace.from_moves([-1, 1, 2, a4])
        for n in range(1, 51):
            game = GameSpec.scaled(quad, n)
            lower_out = price_european(game, BFLY, Side.LOWER).price
            upper_out = price_european(game, BFLY, Side.UPPER).price
            lower_in, upper_in = inner[n]
            assert lower_out <= lower_in + 1e-9, (a4, n)
            assert lower_in <= upper_in + 1e-9, (a4, n)
            assert upper_in <= upper_out + 1e-9, (a4, n)
    print("PASS criterion 8: price interval nesting holds (1e-9) for a4 in"
          " {1/2, 3/2, 5/2} at every N <= 50, plus 30 fuzz trials")


def test_criterion_09_fourth_move_margins():
    up_tri = price_european(GameSpec.scaled(TRI, 50), BFLY, Side.UPPER).price
    assert up_tri == pytest.approx(0.3793672251386073, abs=1e-9)

    def quad_upper(a4):
        quad = MoveSpace.from_moves([-1, 1, 2, a4])
        return price_european(GameSpec.scaled(quad, 50), BFLY, Side.UPPER).price

    mid_margin = quad_upper(F(3, 2)) - up_tri
    assert abs(mid_margin) <= 0.01
    assert mid_margin == pytest.approx(0.0014004951467322946, abs=1e-9)

    out_margin = quad_upper(F(5, 2)) - up_tri
    assert out_margin > 0.01
    assert out_margin == pytest.approx(0.01914333872266738, abs=1e-9)

    assert quad_upper(F(1, 2)) == pytest.approx(0.4948592242987906, abs=1e-9)
    print("PASS criterion 9: inserting a4=3/2 moves the N=50 upper price by <= 0.01;"
          " a4=5/2 and a4=1/2 margins frozen")


def test_criterion_10_pruned_induction_hierarchy():
    game = GameSpec.scaled(TRI, 20)
    exact = price_european(game, BFLY, Side.UPPER).price
    assert price_pruned(game, BFLY, PruneSchedule(1)).price == pytest.approx(
        exact, abs=1e-12
    )
    frozen = {
        2: 0.3746359436692798,
        5: 0.3527987475979659,
        10: 0.3398873032391379,
    }
    for period, want in frozen.items():
        got = price_pruned(game, BFLY, PruneSchedule(period)).price
        assert got <= exact + 1e-12, period
        assert got == pytest.approx(want, abs=1e-12), period
    full = price_pruned(game, BFLY, PruneSchedule(20)).price
    best_binomial = max(binomial_prices(game, BFLY).values())
    assert full == pytest.approx(best_binomial, abs=1e-12)
    assert full <= exact + 1e-12
    print("PASS criterion 10: pruned prices never exceed the exact price;"
          " q=N collapses onto the best binomial sub-model (1e-12)")
