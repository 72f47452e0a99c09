"""The node pass of ``check_superreplication`` against a path-by-path oracle.

``stack_replay`` replays the strategy path by path, depth first: it pops
the last move first, sums each path's moves as Fractions and keeps the
first strictly smaller slack, so among equal slacks it reports the
lexicographically last path.  Both must report bit-identical minimum
slacks, pass flags and path counts.  The node pass's worst path is checked
by replaying that one path, which must give the minimum slack bit for bit;
on the tree route, where every node has one parent, it must also be the
oracle's.  Elsewhere a tie may pick another path: the node pass takes the
later move into a node, and rounding can absorb noise-sized capital
differences on the way to the leaves.  NaN slacks are left out: the oracle
never records one, while the node pass reports it as the minimum on
purpose.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from gamehedge import (
    Butterfly,
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
from gamehedge import cli, verify
from conftest import payoff_value_on_path, random_game, random_piecewise
from test_golden import BUTTERFLY, KINKED, _moves, asian_lookback


def stack_replay(game, payoff, alpha, strategy) -> verify.VerificationReport:
    """Replay the strategy path by path, depth first, in Fractions."""
    positions = [p.tolist() for p in strategy.positions]
    children = [link.T.tolist() for link in strategy.links]
    members = game.moves.members
    member_floats = [float(a) for a in members]
    min_slack, worst, checked = float("inf"), (), 0
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


def path_slack(game, payoff, alpha, strategy, path) -> float:
    """The slack of one path, replayed alone."""
    node, capital = 0, 0.0
    for n, a in enumerate(path):
        capital = capital + strategy.positions[n][node] * float(a)
        node = strategy.links[n][game.moves.members.index(a), node]
    return alpha + capital - payoff_value_on_path(payoff, game.payoff_scale, path)


def assert_identical(new, game, payoff, alpha, strategy, tree=False):
    """``new`` is the node pass's report of this superreplication problem."""
    old = stack_replay(game, payoff, alpha, strategy)
    assert new.min_slack.hex() == old.min_slack.hex()
    assert new.passed == old.passed
    assert new.paths_checked == old.paths_checked
    assert path_slack(game, payoff, alpha, strategy, new.worst_path).hex() == new.min_slack.hex()
    if tree:
        assert new.worst_path == old.worst_path


def assert_replays_as_the_oracle(game, payoff, result):
    """Check a result's replay, the lower side negated as ``check_replication``
    does."""
    new = verify.check_replication(game, payoff, result.price, result.strategy, result.side)
    alpha, strategy = result.price, result.strategy
    if result.side is Side.LOWER:
        payoff, alpha = negate_payoff(payoff), -alpha
        strategy = replace(strategy, positions=tuple(-p for p in strategy.positions))
    assert_identical(new, game, payoff, alpha, strategy, tree=result.key_kind == "path")


def zero_strategy(links) -> Strategy:
    return Strategy(tuple(np.zeros(link.shape[1]) for link in links), tuple(links))


def with_unreached_nodes(strategy: Strategy, extra: int) -> Strategy:
    """The strategy with ``extra`` nodes put first in every round after the
    first, each with a NaN position and links to child 0; no link reaches
    them."""
    positions, links = list(strategy.positions), list(strategy.links)
    for n in range(1, len(links)):
        positions[n] = np.concatenate([np.full(extra, np.nan), positions[n]])
        links[n] = np.concatenate([np.zeros((len(links[n]), extra), links[n].dtype), links[n]], axis=1)
        links[n - 1] = links[n - 1] + extra
    return Strategy(tuple(positions), tuple(links))


def binomial_lattice(rounds: int) -> list[np.ndarray]:
    """Links of a two-move lattice whose node j of round n has made j up-moves."""
    return [np.stack([np.arange(n + 1), np.arange(n + 1) + 1]) for n in range(rounds)]


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


@pytest.mark.parametrize("unreached", [5, 2**16])
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_games_replay_as_the_oracle(name, side, unreached):
    game, payoff = GOLDEN[name]
    result = _price(game, payoff, side)
    padded = replace(result, strategy=with_unreached_nodes(result.strategy, unreached))
    # nodes that no link reaches lie on no path: the report does not change
    assert verify.check_replication(game, payoff, result.price, padded.strategy, side) == \
        verify.check_replication(game, payoff, result.price, result.strategy, side)
    assert_replays_as_the_oracle(game, payoff, padded)


def test_fuzz_drawn_games_replay_as_the_oracle():
    rng = random.Random(2001)
    for _ in range(100):
        game, payoff = random_game(rng, max_rounds=4), random_piecewise(rng)
        for side in Side:
            result = price_european(game, payoff, side)
            assert_replays_as_the_oracle(game, payoff, result)
            # an underfunded certificate, so the worst path is a strict minimum
            assert_replays_as_the_oracle(game, payoff, replace(result, price=result.price - 0.1))


@pytest.mark.parametrize("unreached", [1, 5, 2**16])
def test_ties_report_the_lexicographically_last_path(trinomial, unreached):
    game = GameSpec(trinomial, 4, 1.0)
    constant = PiecewiseLinear(((0.0, 1.0),))
    links = price_european(game, constant, Side.UPPER).strategy.links
    zero = with_unreached_nodes(zero_strategy(links), unreached)
    new = check_superreplication(game, constant, 1.0, zero)
    # every path ties; the last leaf, the sum 8, is reached only by moving 2
    # at every round, so the last leaf's path is also the lexicographically last
    assert new.worst_path == (F(2),) * 4
    assert new.min_slack == 0.0 and new.paths_checked == 81
    assert_identical(new, game, constant, 1.0, zero)


def test_lattice_ties_pick_the_later_move():
    # the leaf sum 0 alone has the least slack; three equal capitals enter it
    game = GameSpec(MoveSpace.from_moves([-1, 0, 1]), 2, 1.0)
    peak = Butterfly(-1.0, 0.0, 1.0)
    zero = zero_strategy(price_european(game, peak, Side.UPPER).strategy.links)
    new = check_superreplication(game, peak, 1.0, zero)
    assert new.worst_path == (F(-1), F(1))  # the oracle keeps (1, -1)
    assert new.min_slack == 0.0
    assert_identical(new, game, peak, 1.0, zero)


def test_a_nan_capital_is_the_least(trinomial, butterfly):
    game = GameSpec(trinomial, 4, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    positions = [p.copy() for p in result.strategy.positions]
    positions[2][3] = np.nan
    nan = replace(result.strategy, positions=tuple(positions))
    report = check_superreplication(game, butterfly, result.price, nan)
    assert math.isnan(report.min_slack) and not report.passed
    # the worst path runs through the NaN position
    assert math.isnan(path_slack(game, butterfly, result.price, nan, report.worst_path))


@pytest.mark.parametrize("route", ["lattice", "tree"])
def test_redirected_links_raise(trinomial, route):
    game = GameSpec(trinomial, 3, 1.0)
    payoff = Call(0.0) if route == "lattice" else PathDependent(sum)
    strategy = _price(game, payoff, Side.UPPER).strategy
    # move -1 from the first node of round 1 now leads to a node of another state
    links = [link.copy() for link in strategy.links]
    links[1][0, 0] += 1
    with pytest.raises(ValueError, match="^links of round 1 bring two different states"):
        check_superreplication(game, payoff, 10.0, replace(strategy, links=tuple(links)))


def assert_sums_past_int64_are_exact(lattice):
    # 5 * 2^61 overflows int64: the exact sums must be kept as Python ints
    moves = MoveSpace.from_moves([F(-1), F(1, 2**61)])
    game, payoff = GameSpec(moves, 5, 1.0), Call(-10.0)
    if lattice:
        links = binomial_lattice(5)
    else:
        links = price_path_dependent(game, PathDependent(sum), Side.UPPER).strategy.links
    zero = zero_strategy(links)
    new = check_superreplication(game, payoff, 20.0, zero)
    assert new.min_slack == 10.0  # all-down wrapped to a sum of 3 would read 7
    assert_identical(new, game, payoff, 20.0, zero, tree=not lattice)


def test_sums_past_int64_are_exact():
    assert_sums_past_int64_are_exact(lattice=False)


def test_lattice_sums_past_int64_are_exact():
    assert_sums_past_int64_are_exact(lattice=True)


def test_verify_certifies_past_ten_million_paths(capsys):
    code = cli.main(["verify", "--moves=-1,1,2", "--rounds", "15", "--scale", "diffusive",
                     "--payoff", "butterfly(-1/2,1/2,3/2)"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["paths_checked"] == 3**15 and out["superreplicates"] is True
