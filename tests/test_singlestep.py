from __future__ import annotations

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamehedge import (
    GameSpec,
    MoveSpace,
    PiecewiseLinear,
    Side,
    build_problem,
    solve_min,
)
from gamehedge.singlestep import PairTable, best_pair, best_value, replicating_step
from conftest import random_move_space


def step_strategy(moves: MoveSpace, values, side: Side):
    """One-node price, replicating position and extremal measure.

    The position is the extremal pair's chord slope
    M = (v(a_pos) - v(a_neg)) / (a_pos - a_neg), clamped so that with the
    price alpha it satisfies alpha + M*a >= v(a) (<= for LOWER) at every
    move a, binding on the extremal pair (or on the clamping move).  The
    measure's ``pair`` names the extremal pair.
    """
    missing = [a for a in moves.members if a not in values]
    if missing:
        raise ValueError(f"values missing for moves: {missing}")
    pairs = PairTable.of(moves)
    best, index, position = replicating_step(
        np.array([[values[a]] for a in moves.members]), pairs, side
    )
    return float(best[0]), float(position[0]), pairs.nodes[index[0]]


def step_price(moves: MoveSpace, values, side: Side) -> float:
    return step_strategy(moves, values, side)[0]


def quotient_oracle(moves: MoveSpace, values, side: Side) -> float:
    """Independent re-derivation: the price as a max/min of explicit quotients
    (a_pos*v(a_neg) - a_neg*v(a_pos)) / (a_pos - a_neg)."""
    quotients = []
    for i, j in moves.pairs():
        a_neg, a_pos = moves.pair_moves(i, j)
        q = (float(a_pos) * values[a_neg] - float(a_neg) * values[a_pos]) / float(a_pos - a_neg)
        quotients.append(q)
    return max(quotients) if side is Side.UPPER else min(quotients)


def test_butterfly_one_step(trinomial, butterfly):
    values = {a: butterfly(float(a)) for a in trinomial.members}
    price, _, node = step_strategy(trinomial, values, Side.UPPER)
    assert price == pytest.approx(0.25, abs=1e-12)
    assert node.pair == (0, 0)
    assert (node.prob_neg, node.prob_pos) == (F(1, 2), F(1, 2))
    low, _, low_node = step_strategy(trinomial, values, Side.LOWER)
    assert low == pytest.approx(0.0, abs=1e-12)
    assert low_node.pair == (0, 1)


def test_vee_with_zero_move():
    moves = MoveSpace.from_moves([-1, 0, 1])
    values = {F(-1): 1.0, F(0): 0.0, F(1): 1.0}
    price, _, node = step_strategy(moves, values, Side.UPPER)
    assert price == pytest.approx(1.0, abs=1e-15)
    assert node.pair == (0, 1)
    # a zero positive move prices to the value at 0
    low, _, node = step_strategy(moves, values, Side.LOWER)
    assert low == 0.0
    assert node.pair == (0, 0)
    assert node.prob_neg == 0 and node.prob_pos == 1


def test_missing_value_rejected(trinomial):
    with pytest.raises(ValueError):
        step_strategy(trinomial, {F(-1): 0.0, F(1): 1.0}, Side.UPPER)


@given(st.floats(-100, 100, allow_nan=False))
def test_constant_prices_to_constant(c):
    moves = MoveSpace.from_moves([-1, F(1, 3), 2])
    values = {a: c for a in moves.members}
    assert step_price(moves, values, Side.UPPER) == pytest.approx(c, abs=1e-12)
    assert step_price(moves, values, Side.LOWER) == pytest.approx(c, abs=1e-12)


def test_matches_quotient_oracle():
    rng = random.Random(7)
    for _ in range(200):
        moves = random_move_space(rng, max_moves=5)
        values = {a: rng.uniform(-3, 3) for a in moves.members}
        for side in Side:
            got = step_price(moves, values, side)
            assert got == pytest.approx(quotient_oracle(moves, values, side), abs=1e-12)


def test_reciprocity_and_order():
    rng = random.Random(11)
    for _ in range(100):
        moves = random_move_space(rng, max_moves=4)
        values = {a: rng.uniform(-2, 2) for a in moves.members}
        negated = {a: -v for a, v in values.items()}
        upper = step_price(moves, values, Side.UPPER)
        lower = step_price(moves, values, Side.LOWER)
        assert lower == pytest.approx(-step_price(moves, negated, Side.UPPER), abs=1e-12)
        assert lower <= upper + 1e-12


def test_monotone_in_values():
    rng = random.Random(13)
    for _ in range(50):
        moves = random_move_space(rng)
        values = {a: rng.uniform(-2, 2) for a in moves.members}
        bumped = dict(values)
        bump_at = rng.choice(moves.members)
        bumped[bump_at] = bumped[bump_at] + rng.uniform(0, 1)
        assert step_price(moves, bumped, Side.UPPER) >= step_price(moves, values, Side.UPPER) - 1e-12
        assert step_price(moves, bumped, Side.LOWER) >= step_price(moves, values, Side.LOWER) - 1e-12


def test_strategy_superreplicates_single_step():
    rng = random.Random(17)
    for _ in range(100):
        moves = random_move_space(rng, max_moves=4)
        values = {a: rng.uniform(-2, 2) for a in moves.members}
        for side in Side:
            price, slope, _ = step_strategy(moves, values, side)
            sign = 1.0 if side is Side.UPPER else -1.0
            slacks = [sign * (price + slope * float(a) - values[a]) for a in moves.members]
            assert min(slacks) >= -1e-9  # line on the correct side of every value
            assert min(slacks) <= 1e-9  # and binding at some move


def test_tied_pairs_still_replicate():
    # A lone zero positive move makes every pair price to v(0), so the argmax
    # pair is arbitrary and its chord slope can point the wrong way; the
    # returned position must nevertheless replicate against ALL moves.
    moves = MoveSpace.from_moves([-2, F(-5, 3), F(-2, 3), 0])
    values = {F(-2): 1.7, F(-5, 3): 0.9, F(-2, 3): 1.1, F(0): 1.355}
    price, slope, _ = step_strategy(moves, values, Side.UPPER)
    assert price == pytest.approx(1.355, abs=1e-12)
    for a in moves.members:
        assert price + slope * float(a) >= values[a] - 1e-12
    low, low_slope, _ = step_strategy(moves, values, Side.LOWER)
    assert low == pytest.approx(1.355, abs=1e-12)
    for a in moves.members:
        assert low + low_slope * float(a) <= values[a] + 1e-12


def test_agrees_with_lp_one_step():
    # primal-dual agreement against the LP route on one-step games, k <= 6
    rng = random.Random(23)
    for _ in range(20):
        moves = random_move_space(rng, max_moves=6)
        game = GameSpec(moves, 1, 1.0)
        xs = sorted(float(a) for a in moves.members)
        payoff = PiecewiseLinear(
            tuple((x, rng.uniform(-2, 2)) for x in xs),
            rng.uniform(-1, 1),
            rng.uniform(-1, 1),
        )
        values = {a: payoff(float(a)) for a in moves.members}
        lp_value, _ = solve_min(build_problem(game, payoff))
        assert lp_value == pytest.approx(step_price(moves, values, Side.UPPER), abs=1e-9)


SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def first_extremum(column: list[float], side: Side) -> int:
    """Oracle: the first NaN of a column, else its first max (UPPER) or min
    (LOWER), -0.0 and 0.0 counting as equal."""
    if any(v != v for v in column):
        return next(i for i, v in enumerate(column) if v != v)
    return column.index(max(column) if side is Side.UPPER else min(column))


@pytest.mark.parametrize("side", Side)
@pytest.mark.parametrize("moves", ["-1,1,2", "-1,0,1,2"])  # the second has a zero weight
def test_best_value_gathers_the_first_extremal_row(moves, side):
    pairs = PairTable.of(MoveSpace.from_moves(F(p) for p in moves.split(",")))
    rows = len(pairs.nodes)
    neg, pos = np.random.default_rng(5).choice(SPECIALS, size=(2, rows, 3000))
    # ties of the two zeros: -0.0 first, then 0.0 first
    for col, first in ((0, -0.0), (1, 0.0)):
        neg[:, col] = pos[:, col] = -first
        neg[0, col] = pos[0, col] = first
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make NaN
        best, index = best_value(neg, pos, pairs, side)
        values = pairs.w_neg * neg + pairs.w_pos * pos
        paired = best_pair(neg, pos, pairs, side)[0]
    want = [first_extremum(column, side) for column in values.T.tolist()]
    assert index.tolist() == want
    assert np.array_equal(bits(best), bits(values[want, np.arange(len(want))]))
    assert np.signbit(best[:2]).tolist() == [True, False]
    assert np.array_equal(bits(best), bits(paired))
