"""The block replay of ``check_superreplication`` against a path-by-path oracle.

``stack_replay`` is the depth-first replay the block replay replaced: it
pops the last move first, sums each path's moves as Fractions and keeps the
first strictly smaller slack, so among equal slacks it reports the
lexicographically last path.  Both must report bit-identical slacks, worst
paths and path counts.  NaN slacks are left out: the oracle never records
one, while the block replay reports it as the minimum on purpose.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from gamehedge import (
    Call,
    GameSpec,
    MoveSpace,
    PathDependent,
    PiecewiseLinear,
    Side,
    Strategy,
    check_superreplication,
    negate_payoff,
    price_european,
    price_path_dependent,
)
from gamehedge import verify
from gamehedge.model import payoff_value_on_path
from conftest import random_game, random_piecewise
from test_golden import BUTTERFLY, KINKED, _moves, asian_lookback


def stack_replay(game, payoff, alpha, strategy) -> verify.VerificationReport:
    """Replay the strategy path by path, depth first, in Fractions."""
    positions = [p.tolist() for p in strategy.positions]
    children = [link.T.tolist() for link in strategy.links]
    members = game.moves.members
    member_floats = [float(a) for a in members]
    min_slack, worst, checked = math.inf, (), 0
    stack = [(0, 0, (), 0.0)]  # (round, node, path, capital)
    while stack:
        n, i, path, capital = stack.pop()
        if n == game.rounds:
            slack = alpha + capital - payoff_value_on_path(payoff, game.payoff_scale, path)
            checked += 1
            if slack < min_slack:
                min_slack, worst = slack, path
            continue
        for a, fa, child in zip(members, member_floats, children[n][i]):
            stack.append((n + 1, child, path + (a,), capital + positions[n][i] * fa))
    return verify.VerificationReport(min_slack, worst, checked, min_slack >= -1e-9)


def reports(game, payoff, result):
    """Block and stack replays of a result, the lower side negated as
    ``check_replication`` does."""
    new = verify.check_replication(game, payoff, result.price, result.strategy, result.side)
    if result.side is Side.LOWER:
        negated = tuple(-p for p in result.strategy.positions)
        old = stack_replay(game, negate_payoff(payoff), -result.price,
                           replace(result.strategy, positions=negated))
    else:
        old = stack_replay(game, payoff, result.price, result.strategy)
    return new, old


def assert_identical(new, old):
    assert new.min_slack.hex() == old.min_slack.hex()
    assert new.worst_path == old.worst_path
    assert new.paths_checked == old.paths_checked
    assert new.passed == old.passed


# the games of test_golden.py with at most 3^9 paths
GOLDEN = {
    "lattice -1,1,2 N=1": (GameSpec.scaled(_moves("-1,1,2"), 1), BUTTERFLY),
    "lattice -1,1,2 N=5": (GameSpec.scaled(_moves("-1,1,2"), 5), BUTTERFLY),
    "lattice -1,0,1,2 N=6": (GameSpec(_moves("-1,0,1,2"), 6, 0.5), KINKED),
    "lattice -1,1/997,2/991 N=6": (GameSpec(_moves("-1,1/997,2/991"), 6, 1.0), KINKED),
    "tree -1,0,1,2 N=5": (GameSpec.scaled(_moves("-1,0,1,2"), 5), PathDependent(asian_lookback)),
}


def _price(game, payoff, side):
    if isinstance(payoff, PathDependent):
        return price_path_dependent(game, payoff, side)
    return price_european(game, payoff, side)


@pytest.mark.parametrize("block", [verify._BLOCK, 5])
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_games_replay_as_the_oracle(monkeypatch, name, side, block):
    monkeypatch.setattr(verify, "_BLOCK", block)
    game, payoff = GOLDEN[name]
    assert_identical(*reports(game, payoff, _price(game, payoff, side)))


def test_fuzz_drawn_games_replay_as_the_oracle():
    rng = random.Random(2001)
    for _ in range(100):
        game, payoff = random_game(rng, max_rounds=4), random_piecewise(rng)
        for side in Side:
            result = price_european(game, payoff, side)
            assert_identical(*reports(game, payoff, result))
            # an underfunded certificate, so the worst path is a strict minimum
            assert_identical(*reports(game, payoff, replace(result, price=result.price - 0.1)))


@pytest.mark.parametrize("block", [verify._BLOCK, 5, 1])
def test_ties_report_the_lexicographically_last_path(monkeypatch, trinomial, block):
    monkeypatch.setattr(verify, "_BLOCK", block)
    game = GameSpec(trinomial, 4, 1.0)
    constant = PiecewiseLinear(((0.0, 1.0),))
    links = price_european(game, constant, Side.UPPER).strategy.links
    zero = Strategy(tuple(np.zeros(link.shape[1]) for link in links), links)
    new = check_superreplication(game, constant, 1.0, zero)
    assert new.worst_path == (F(2),) * 4
    assert new.min_slack == 0.0 and new.paths_checked == 81
    assert_identical(new, stack_replay(game, constant, 1.0, zero))


def test_sums_past_int64_are_exact():
    # 5 * 2^61 overflows int64: the terminal sums must be kept as Python ints
    moves = MoveSpace.from_moves([F(-1), F(1, 2**61)])
    game, payoff = GameSpec(moves, 5, 1.0), Call(-10.0)
    links = price_path_dependent(game, PathDependent(sum), Side.UPPER).strategy.links
    zero = Strategy(tuple(np.zeros(link.shape[1]) for link in links), links)
    new = check_superreplication(game, payoff, 20.0, zero)
    assert new.min_slack == 10.0  # all-down wrapped to a sum of 3 would read 7
    assert_identical(new, stack_replay(game, payoff, 20.0, zero))
