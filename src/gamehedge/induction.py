"""Backward induction over the move lattice or the full move tree.

European payoffs collapse onto the lattice of exact partial sums, so the
state count per round grows polynomially; path-dependent payoffs price on
the full k^N tree behind an explicit size budget.  A pruned variant
re-selects the extremal pair only every q rounds and inherits it in
between, trading exactness for fewer distinct decisions.

Every route holds one round as arrays and hands each backward step to the
``singlestep`` kernel; what differs between routes is only how it numbers
the nodes of a round and so links a node to its children.  All exact sums
are tracked as integers on a common-denominator rescaling of the moves
(one-step weights do not change under a positive rescaling), and every
route renders its export keys from the integers it holds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BudgetError,
    GameSpec,
    MoveSpace,
    Payoff,
    PriceResult,
    Side,
    Strategy,
    is_path_dependent,
    leaf_payoffs,
    path_payoff_vector,
)
from .singlestep import PairTable, best_pair, best_value, replicating_step


@dataclass(frozen=True)
class PruneSchedule:
    """Re-optimize the pair at rounds n with n % period == 0."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("prune period must be >= 1")


def _result(side: Side, pairs: PairTable, terminal: np.ndarray, steps: list, keys,
            key_kind: str, prune_period: int | None = None) -> PriceResult:
    """The PriceResult of the (values, pair rows, positions, links) ``steps``
    of each round, collected from the last round back, with the export keys
    ``keys``; its price is the value of the root, node 0 of round 0."""
    values, rows, positions, links = zip(*reversed(steps))
    return PriceResult(
        price=float(values[0][0]),
        side=side,
        strategy=Strategy(positions, links),
        measure=rows,
        node_values=values + (terminal,),
        pairs=pairs.nodes,
        keys=keys,
        key_kind=key_kind,
        prune_period=prune_period,
    )


# Each forward lattice stops with BudgetError once it keeps more nodes than
# this: the trinomial prices up to N of about 6,700 (N=5,000 keeps 37.5M
# nodes, 2.4 GB of result arrays).
_LATTICE_BUDGET = 1 << 26

# Leaves the full move tree of price_path_dependent may have.
_TREE_BUDGET = 10**7

# A round's distinct sums come from a bitmap over their range when that
# range is at most this many times the number of candidate sums.
_DENSE = 4


def _union(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the int64 ``candidates`` in ascending order,
    and the position of each candidate among them (in its shape)."""
    low, high = int(candidates.min()), int(candidates.max())
    if high - low >= _DENSE * candidates.size:
        level, rank = np.unique(candidates, return_inverse=True)
        return level, rank.reshape(candidates.shape)
    offsets = candidates - low
    hit = np.zeros(high - low + 1, dtype=bool)
    hit[offsets] = True
    return np.flatnonzero(hit) + low, (np.cumsum(hit) - 1)[offsets]


def _keep(kept: int, rounds: int) -> None:
    """Refuse ``kept`` nodes after ``rounds`` rounds past _LATTICE_BUDGET."""
    if kept > _LATTICE_BUDGET:
        raise BudgetError(f"{kept} lattice nodes after {rounds} rounds exceed "
                          f"the budget of {_LATTICE_BUDGET}")


def _forward_lattice(moves: MoveSpace, rounds: int):
    """The integer lattice of ``rounds`` rounds of ``moves``.

    Returns (denom, levels, links): the common denominator of the moves,
    and per round its reachable sums in ascending order (``levels[n]``)
    and the position in ``levels[n+1]`` of each sum plus each move
    (``links[n]``, of shape (moves, nodes)).

    Raises ValueError when a sum could leave int64, and BudgetError as soon
    as the rounds kept hold more than _LATTICE_BUDGET nodes.
    """
    denom = math.lcm(*(a.denominator for a in moves.members))
    deltas = [a.numerator * (denom // a.denominator) for a in moves.members]
    if max(map(abs, deltas)) * rounds >= 2**63:
        raise ValueError(
            f"{rounds} rounds of these moves overflow the lattice's int64 sums "
            f"(common denominator {denom})"
        )
    deltas = np.array(deltas, dtype=np.int64)[:, None]
    levels, links, kept = [np.zeros(1, dtype=np.int64)], [], 1
    for n in range(rounds):
        level, link = _union(levels[n] + deltas)
        kept += len(level)
        _keep(kept, n + 1)
        levels.append(level)
        links.append(link)
    return denom, levels, links


def _sum_keys(n: int, sums: np.ndarray, denom: int, tail: str = "") -> list[str]:
    """``n|sum`` plus ``tail`` for each integer sum of round n, the sum
    divided by ``denom`` and written in lowest terms as str(Fraction) would."""
    head = f"{n}|"
    common = np.gcd(sums, denom)
    nums, dens = (sums // common).tolist(), (denom // common).tolist()
    return [f"{head}{a}/{b}{tail}" if b > 1 else f"{head}{a}{tail}" for a, b in zip(nums, dens)]


def price_european(game: GameSpec, payoff: Payoff, side: Side) -> PriceResult:
    """Exact hedging price of a European payoff on the collapsed lattice.

    The nodes of round n are its reachable sums in ascending order, keyed
    ``n|sum``.
    """
    if is_path_dependent(payoff):
        raise ValueError("use price_path_dependent for path-dependent payoffs")
    moves, rounds = game.moves, game.rounds
    pairs = PairTable.of(moves)
    denom, levels, links = _forward_lattice(moves, rounds)

    terminal = values = leaf_payoffs(game, payoff, levels[rounds])
    steps = []
    for n in range(rounds - 1, -1, -1):
        values, rows, positions = replicating_step(values[links[n]], pairs, side)
        steps.append((values, rows, positions, links[n]))

    return _result(side, pairs, terminal, steps,
                   lambda n: _sum_keys(n, levels[n], denom), "lattice")


def lattice_price(game: GameSpec, payoff: Payoff, side: Side) -> float:
    """``price_european(game, payoff, side).price``, bit for bit, without
    the certificate: no positions or pair rows, and one round of values
    kept at a time."""
    if is_path_dependent(payoff):
        raise ValueError("use price_path_dependent for path-dependent payoffs")
    pairs = PairTable.of(game.moves)
    _, levels, links = _forward_lattice(game.moves, game.rounds)
    values = leaf_payoffs(game, payoff, levels[game.rounds])
    for link in reversed(links):
        children = values[link]
        values, _ = best_value(children[pairs.neg], children[pairs.pos], pairs, side)
    return float(values[0])


def price_path_dependent(game: GameSpec, payoff: Payoff, side: Side) -> PriceResult:
    """Hedging price on the full move tree (works for any payoff).

    The nodes of round n are the move prefixes of length n in
    lexicographic member order, keyed by their moves joined with commas
    (the root by "").  Raises BudgetError when the tree would have more
    than _TREE_BUDGET leaves.
    """
    moves, rounds = game.moves, game.rounds
    k = moves.size
    leaves = k**rounds
    if leaves > _TREE_BUDGET:
        raise BudgetError(f"{leaves} leaves exceed the budget of {_TREE_BUDGET}")
    pairs = PairTable.of(moves)

    terminal = values = path_payoff_vector(game, payoff)
    steps = []
    for n in range(rounds - 1, -1, -1):
        # the children of a prefix are a contiguous block of k, in member order
        links = np.arange(k ** (n + 1)).reshape(-1, k).T
        values, rows, positions = replicating_step(values[links], pairs, side)
        steps.append((values, rows, positions, links))
    strs = [str(a) for a in moves.members]
    return _result(side, pairs, terminal, steps,
                   lambda n: list(map(",".join, itertools.product(strs, repeat=n))), "path")


def price_pruned(game: GameSpec, payoff: Payoff, schedule: PruneSchedule) -> PriceResult:
    """Upper price with pair re-selection only at rounds n % period == 0.

    Between re-selection rounds the inherited pair is kept, so the state is
    (exact sum, inherited pair); at re-selection rounds the value does not
    depend on the inherited pair and the state collapses to (sum, None).
    period=1 reproduces the exact price; period=rounds prices every pair's
    binomial sub-model and takes the best.  Positions are the extremal
    chord slopes, unclamped: a pruned value is no superhedging level, and
    only the extremal pair's two moves are linked.

    The states of round n are rows over the nodes of the exact lattice:
    one row per pair, in pair order, where ``inherits(n)``, else one.  A
    row marks the nodes its states reach, and the states are numbered row
    by row in ascending sum.  They are keyed ``n|sum|i,j`` with (i, j) the
    row's inherited pair, or ``n|sum|remax`` in a round of one row.
    """
    if is_path_dependent(payoff):
        raise ValueError("pruned induction only applies to European payoffs")
    moves, rounds = game.moves, game.rounds
    q = schedule.period
    pairs = PairTable.of(moves)
    every_pair = np.arange(len(pairs.nodes))[:, None]
    denom, levels, links = _forward_lattice(moves, rounds)

    def inherits(n: int) -> bool:
        """Whether round n has one row of states per pair, each offered
        only its pair, rather than one row offered every pair."""
        return n % q != 0 and n != rounds

    def children(n: int):
        """The pair of each state of round n (every pair, as a column, where
        it does not inherit), and the (row, node) cells in round n+1 of the
        pair's negative and positive child."""
        row, node = np.nonzero(reach[n])
        pair = row if inherits(n) else every_pair
        kid_row = pair if inherits(n + 1) else 0
        return pair, [(kid_row, links[n][ends[pair], node]) for ends in (pairs.neg, pairs.pos)]

    reach, kept = [np.ones((1, 1), dtype=bool)], 1
    for n in range(rounds):
        reach.append(np.zeros((len(every_pair) if inherits(n + 1) else 1, len(levels[n + 1])),
                              dtype=bool))
        for cell in children(n)[1]:
            reach[-1][cell] = True
        kept += int(np.count_nonzero(reach[-1]))
        _keep(kept, n + 1)

    leaves = levels[rounds][reach[rounds][0]]
    terminal = values = leaf_payoffs(game, payoff, leaves)
    steps = []
    for n in range(rounds - 1, -1, -1):
        number = (np.cumsum(reach[n + 1]) - 1).reshape(reach[n + 1].shape)
        pair, cells = children(n)
        kid_neg, kid_pos = (number[cell] for cell in cells)
        neg, pos = values[kid_neg], values[kid_pos]
        cols = np.arange(kid_neg.shape[-1])
        if inherits(n):
            best = pairs.w_neg[pair, 0] * neg + pairs.w_pos[pair, 0] * pos
            slope = (pos - neg) / pairs.span[pair, 0]
        else:
            best, pair, slope = best_pair(neg, pos, pairs, Side.UPPER)
            kid_neg, kid_pos = kid_neg[pair, cols], kid_pos[pair, cols]
        link = np.full((moves.size, len(cols)), -1)
        link[pairs.neg[pair], cols], link[pairs.pos[pair], cols] = kid_neg, kid_pos
        steps.append((best, pair, slope, link))
        values = best

    def keys(n: int) -> list[str]:
        tags = ["|{},{}".format(*node.pair) for node in pairs.nodes] if inherits(n) else ["|remax"]
        return [key for row, tag in zip(reach[n], tags)
                for key in _sum_keys(n, levels[n][row], denom, tag)]

    return _result(Side.UPPER, pairs, terminal, steps, keys, "pruned", q)

