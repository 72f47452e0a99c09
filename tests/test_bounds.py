from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gamehedge import (
    Call,
    GameSpec,
    MoveSpace,
    PiecewiseLinear,
    Side,
    Sine,
    binomial_price,
    binomial_prices,
    convex_concave_bound,
    nested_compare,
    price_european,
    split_convex_concave,
)
from conftest import random_game, random_piecewise


def test_binomial_constant(trinomial):
    game = GameSpec(trinomial, 7, 1.0)
    payoff = PiecewiseLinear(((0.0, 2.5),))
    for pair in trinomial.pairs():
        assert binomial_price(game, pair, payoff) == pytest.approx(2.5, abs=1e-12)


def test_binomial_two_step_by_hand():
    # {-1, 1}, 2 rounds, f(s) = s^2: weights (1/4, 1/2, 1/4) on s in {2, 0, -2}
    moves = MoveSpace.from_moves([-1, 1])
    game = GameSpec(moves, 2, 1.0)
    square = PiecewiseLinear(((-2.0, 4.0), (0.0, 0.0), (2.0, 4.0)), -4.0, 4.0)
    assert binomial_price(game, (0, 0), square) == pytest.approx(
        0.25 * 4 + 0.5 * 0 + 0.25 * 4, abs=1e-12
    )


def test_binomial_unbalanced_weights(trinomial):
    # pair (-1, 2): p_neg = 2/3, p_pos = 1/3; one step, call at 0
    game = GameSpec(trinomial, 1, 1.0)
    assert binomial_price(game, (0, 1), Call(0.0)) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_log_space_weights_match_exact_route(trinomial, butterfly):
    from gamehedge import bounds as bounds_mod

    game = GameSpec.scaled(trinomial, 40)
    exact = binomial_price(game, (0, 1), butterfly)
    original = bounds_mod._EXACT_WEIGHT_LIMIT
    bounds_mod._EXACT_WEIGHT_LIMIT = 0  # force the lgamma route
    try:
        logged = binomial_price(game, (0, 1), butterfly)
    finally:
        bounds_mod._EXACT_WEIGHT_LIMIT = original
    assert logged == pytest.approx(exact, abs=1e-10)


def test_large_round_counts_stay_finite(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 2000)
    value = binomial_price(game, (0, 0), butterfly)
    assert math.isfinite(value)
    assert 0.0 < value < 1.0


def test_bound_envelope_regressions(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 20)
    prices = binomial_prices(game, butterfly)
    low_pair = max(prices, key=prices.get)
    high_pair = min(prices, key=prices.get)
    low, high = prices[low_pair], prices[high_pair]
    assert low == pytest.approx(0.3327350740244583, abs=1e-12)
    assert low_pair == (0, 0)
    assert high == pytest.approx(0.2310160077355719, abs=1e-12)
    assert high_pair == (0, 1)


def test_bounds_sandwich_prices():
    rng = random.Random(41)
    for _ in range(20):
        game = random_game(rng, max_rounds=4)
        payoff = random_piecewise(rng)
        upper = price_european(game, payoff, Side.UPPER).price
        lower = price_european(game, payoff, Side.LOWER).price
        prices = binomial_prices(game, payoff).values()
        assert max(prices) <= upper + 1e-9
        assert lower <= min(prices) + 1e-9


def test_convex_payoff_priced_by_outermost_pair(trinomial):
    # convexity collapses the upper price onto the outermost binomial model
    game = GameSpec.scaled(trinomial, 50)
    payoff = Call(0.0)
    upper = price_european(game, payoff, Side.UPPER).price
    assert binomial_price(game, (0, 1), payoff) == pytest.approx(upper, abs=1e-12)
    lower = price_european(game, payoff, Side.LOWER).price
    assert binomial_price(game, (0, 0), payoff) == pytest.approx(lower, abs=1e-12)


def test_binomial_is_exact_price_for_two_moves(butterfly):
    moves = MoveSpace.from_moves([-1, 1])
    game = GameSpec.scaled(moves, 16)
    only_pair = binomial_price(game, (0, 0), butterfly)
    assert price_european(game, butterfly, Side.UPPER).price == pytest.approx(
        only_pair, abs=1e-12
    )


def test_binomial_scaling_invariance(butterfly):
    tri = MoveSpace.from_moves([-1, 1, 2])
    doubled = MoveSpace.from_moves([-2, 2, 4])
    a = binomial_price(GameSpec(tri, 9, 0.5), (0, 1), butterfly)
    b = binomial_price(GameSpec(doubled, 9, 0.25), (0, 1), butterfly)
    assert a == b  # bit-identical: the weights are the same exact rationals


# --- nested move spaces ------------------------------------------------------


def test_nested_requires_subset(trinomial, butterfly):
    other = MoveSpace.from_moves([-2, 1, 2])
    game = GameSpec.scaled(trinomial, 5)
    with pytest.raises(ValueError):
        nested_compare(other, trinomial, game, butterfly)


def test_nested_chain_widens(trinomial, butterfly):
    outer = MoveSpace.from_moves([-1, 1, 2, F(5, 2)])
    game = GameSpec.scaled(trinomial, 25)
    lo_out, lo_in, up_in, up_out = nested_compare(trinomial, outer, game, butterfly)
    assert lo_out <= lo_in <= up_in <= up_out
    assert up_out > up_in  # 5/2 genuinely enlarges the outermost variance


def test_nested_equal_spaces_collapse(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 10)
    lo_out, lo_in, up_in, up_out = nested_compare(trinomial, trinomial, game, butterfly)
    assert lo_out == lo_in and up_in == up_out


def test_quadnomial_insertions(trinomial, butterfly):
    # a middle insertion barely moves the price; an outside one moves it
    game = GameSpec.scaled(trinomial, 50)
    up_tri = price_european(game, butterfly, Side.UPPER).price
    mid = MoveSpace.from_moves([-1, 1, 2, F(3, 2)])
    out = MoveSpace.from_moves([-1, 1, 2, F(5, 2)])
    up_mid = price_european(replace(game, moves=mid), butterfly, Side.UPPER).price
    up_out = price_european(replace(game, moves=out), butterfly, Side.UPPER).price
    assert abs(up_mid - up_tri) <= 0.01
    assert up_out - up_tri == pytest.approx(0.01914333872266738, abs=1e-9)


# --- convex/concave splitting ------------------------------------------------


def test_split_reconstructs_payoff(butterfly):
    convex, concave = split_convex_concave(butterfly)
    for s in (-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0):
        assert convex(s) + concave(s) == pytest.approx(butterfly(s), abs=1e-12)


def test_split_shapes():
    rng = random.Random(43)
    for _ in range(20):
        payoff = random_piecewise(rng)
        convex, concave = split_convex_concave(payoff)
        xs = [x for x, _ in payoff.breakpoints]
        grid = [min(xs) - 1.0] + xs + [max(xs) + 1.0]
        for a, b, c in zip(grid, grid[1:], grid[2:]):
            mid_left = (convex(a) + convex(b)) / 2
            mid_right = (concave(b) + concave(c)) / 2
            assert convex((a + b) / 2) <= mid_left + 1e-9
            assert concave((b + c) / 2) >= mid_right - 1e-9


def test_convex_concave_bound_dominates_price():
    rng = random.Random(47)
    for _ in range(20):
        game = random_game(rng, max_rounds=4)
        payoff = random_piecewise(rng)
        bound = convex_concave_bound(payoff, game)
        upper = price_european(game, payoff, Side.UPPER).price
        assert upper <= bound + 1e-9


def test_convex_concave_bound_tight_for_pure_shapes(trinomial):
    game = GameSpec.scaled(trinomial, 20)
    # purely convex payoff: the bound is the price itself
    payoff = Call(0.0)
    assert convex_concave_bound(payoff, game) == pytest.approx(
        price_european(game, payoff, Side.UPPER).price, abs=1e-12
    )
    # purely concave payoff: likewise (priced by the innermost pair)
    concave = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)), left_slope=1.0, right_slope=0.0)
    assert convex_concave_bound(concave, game) == pytest.approx(
        price_european(game, concave, Side.UPPER).price, abs=1e-12
    )


def test_convex_concave_bound_rejects_payoffs_without_hinges(trinomial):
    game = GameSpec.scaled(trinomial, 5)
    with pytest.raises(ValueError):
        convex_concave_bound(Sine(1.0), game)


def test_concave_with_zero_move_prices_at_zero(butterfly):
    moves = MoveSpace.from_moves([-1, 0, 1])
    game = GameSpec.scaled(moves, 8)
    concave = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)), left_slope=2.0, right_slope=0.5)
    assert convex_concave_bound(concave, game) == pytest.approx(
        concave(0.0), abs=1e-12
    )


def test_subadditivity():
    rng = random.Random(53)
    from gamehedge.model import payoff_hinges, piecewise_from_hinges

    for _ in range(15):
        game = random_game(rng, max_rounds=3)
        f = random_piecewise(rng)
        g = random_piecewise(rng)
        fi, fs, fh = payoff_hinges(f)
        gi, gs, gh = payoff_hinges(g)
        combined = piecewise_from_hinges(fi + gi, fs + gs, tuple(fh) + tuple(gh))
        up = lambda payoff: price_european(game, payoff, Side.UPPER).price
        assert up(combined) <= up(f) + up(g) + 1e-9
