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
(one-step weights do not change under a positive rescaling), and are
converted back to Fractions only in the node names used for export.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .model import (
    BudgetError,
    GameSpec,
    MoveSpace,
    Payoff,
    PriceResult,
    RiskNeutralNode,
    Side,
    Strategy,
    evaluate_payoff,
    is_path_dependent,
    path_payoff_vector,
)
from .singlestep import PairTable, best_pair, replicating_step


@dataclass(frozen=True)
class PruneSchedule:
    """Re-optimize the pair at rounds n with n % period == 0."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("prune period must be >= 1")


def _result(side: Side, pairs: PairTable, terminal: np.ndarray, steps: list, names,
            key_kind: str, prune_period: int | None = None) -> PriceResult:
    """The PriceResult of the (values, pair rows, positions, links) ``steps``
    of each round, collected from the last round back; its price is the
    value of the root, node 0 of round 0."""
    values, rows, positions, links = zip(*reversed(steps))
    return PriceResult(
        price=float(values[0][0]),
        side=side,
        strategy=Strategy(positions, links),
        measure=rows,
        node_values=values + (terminal,),
        pairs=pairs.nodes,
        names=names,
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


def _forward_lattice(moves: MoveSpace, rounds: int, grow=None):
    """The integer lattice of ``rounds`` rounds of ``moves``.

    Returns (denom, levels, links): the common denominator of the moves,
    and per round the groups of reachable sums, each sorted, with the
    position of each candidate sum of round n+1 in its group (``links[n][g]``,
    in the candidates' shape).  ``grow(n, groups, deltas)`` gives, from the
    moves times denom (ascending int64), the candidates of round n+1, one
    array per group; by default one group of every node of round n plus
    every move, of shape (moves, nodes).

    Raises ValueError when a sum could leave int64, and BudgetError as soon
    as the groups kept hold more than _LATTICE_BUDGET nodes.
    """
    denom = math.lcm(*(a.denominator for a in moves.members))
    deltas = [a.numerator * (denom // a.denominator) for a in moves.members]
    if max(map(abs, deltas)) * rounds >= 2**63:
        raise ValueError(
            f"{rounds} rounds of these moves overflow the lattice's int64 sums "
            f"(common denominator {denom})"
        )
    deltas = np.array(deltas, dtype=np.int64)
    if grow is None:
        def grow(n, groups, deltas):
            return [groups[0] + deltas[:, None]]
    levels, links, kept = [[np.zeros(1, dtype=np.int64)]], [], 1
    for n in range(rounds):
        level, link = zip(*map(_union, grow(n, levels[n], deltas)))
        kept += sum(map(len, level))
        if kept > _LATTICE_BUDGET:
            raise BudgetError(f"{kept} lattice nodes after {n + 1} rounds exceed "
                              f"the budget of {_LATTICE_BUDGET}")
        levels.append(level)
        links.append(link)
    return denom, levels, links


def _terminal_values(payoff: Payoff, scale: float, sums: list[int], denom: int) -> np.ndarray:
    return np.array([evaluate_payoff(payoff, scale * (s / denom)) for s in sums])


def price_european(game: GameSpec, payoff: Payoff, side: Side) -> PriceResult:
    """Exact hedging price of a European payoff on the collapsed lattice.

    The nodes of round n are its reachable sums in ascending order; they
    are named (round, exact sum).
    """
    if is_path_dependent(payoff):
        raise ValueError("use price_path_dependent for path-dependent payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    pairs = PairTable.of(moves)
    denom, levels, links = _forward_lattice(moves, rounds)

    terminal = values = _terminal_values(payoff, scale, levels[rounds][0].tolist(), denom)
    steps = []
    for n in range(rounds - 1, -1, -1):
        (link,) = links[n]
        values, rows, positions = replicating_step(values[link], pairs, side)
        steps.append((values, rows, positions, link))
    return _result(side, pairs, terminal, steps,
                   lambda n: [(n, Fraction(s, denom)) for s in levels[n][0].tolist()], "lattice")


def price_path_dependent(game: GameSpec, payoff: Payoff, side: Side) -> PriceResult:
    """Hedging price on the full move tree (works for any payoff).

    The nodes of round n are the move prefixes of length n in
    lexicographic member order, and are named by them.  Raises BudgetError
    when the tree would have more than _TREE_BUDGET leaves.
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
    return _result(side, pairs, terminal, steps,
                   lambda n: list(itertools.product(moves.members, repeat=n)), "path")


def price_pruned(game: GameSpec, payoff: Payoff, schedule: PruneSchedule) -> PriceResult:
    """Upper price with pair re-selection only at rounds n % period == 0.

    Between re-selection rounds the inherited pair is kept, so the state is
    (exact sum, inherited pair); at re-selection rounds the value does not
    depend on the inherited pair and the state collapses to (sum, None).
    period=1 reproduces the exact price; period=rounds prices every pair's
    binomial sub-model and takes the best.  Positions are the extremal
    chord slopes, unclamped: a pruned value is no superhedging level, and
    only the extremal pair's two moves are linked.

    The nodes of round n are its groups, each in ascending sum: one per
    pair, in pair order, where ``inherits(n)``, else one.  They are named
    (round, exact sum, inherited pair or None).
    """
    if is_path_dependent(payoff):
        raise ValueError("pruned induction only applies to European payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    q = schedule.period
    pairs = PairTable.of(moves)
    every_pair = range(len(pairs.nodes))
    ends = np.stack([pairs.neg, pairs.pos])

    def inherits(n: int) -> bool:
        """Whether round n keeps an inherited pair: one group of states per
        pair, pair p offered to group p.  Elsewhere (re-selection rounds and
        the leaves) one group is offered every pair."""
        return n % q != 0 and n != rounds

    def offered(n: int, level) -> list[np.ndarray]:
        """The sums each pair is offered to at round n, in pair order."""
        return list(level) if inherits(n) else [level[0]] * len(every_pair)

    def grow(n: int, level, deltas: np.ndarray) -> list[np.ndarray]:
        """Per pair, the (negative, positive move) x node block of its
        children: its group of round n+1, or all joined into the one group."""
        blocks = [sums + deltas[ends[:, p], None] for p, sums in zip(every_pair, offered(n, level))]
        return blocks if inherits(n + 1) else [np.concatenate(blocks, axis=1)]

    denom, levels, links = _forward_lattice(moves, rounds, grow)

    terminal = values = _terminal_values(payoff, scale, levels[rounds][0].tolist(), denom)
    steps = []
    for n in range(rounds - 1, -1, -1):
        starts = np.cumsum([0] + [len(sums) for sums in levels[n + 1]])
        # grow's blocks as nodes of round n+1, stacked to (move, offered pair, node) per group
        children = np.split(np.concatenate([s + link for s, link in zip(starts, links[n])], axis=1),
                            np.cumsum([len(sums) for sums in offered(n, levels[n])])[:-1], axis=1)
        choices = ([([p], pairs.only(p), block[:, None]) for p, block in zip(every_pair, children)]
                   if inherits(n) else [(every_pair, pairs, np.stack(children, axis=1))])
        parts = []
        for numbers, table, kids in choices:
            best, index, slope = best_pair(*values[kids], table, Side.UPPER)
            cols = np.arange(kids.shape[-1])
            link = np.full((moves.size, len(cols)), -1)
            link[table.neg[index], cols], link[table.pos[index], cols] = kids[:, index, cols]
            parts.append((best, np.array(numbers)[index], slope, link))
        steps.append(tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*parts)))
        values = steps[-1][0]

    def names(n: int) -> list[tuple]:
        tags = [pairs.nodes[p].pair for p in every_pair] if inherits(n) else [None]
        return [(n, Fraction(s, denom), tag)
                for tag, sums in zip(tags, levels[n]) for s in sums.tolist()]

    return _result(Side.UPPER, pairs, terminal, steps, names, "pruned", q)


def measure_walk(
    result: PriceResult, game: GameSpec
) -> Iterator[tuple[tuple, Fraction, RiskNeutralNode | None]]:
    """Depth-first walk over the supported paths of the extremal measure.

    Follows the strategy's links from the root.  Yields (prefix,
    probability, node measure) at every internal node on a supported path
    and (path, probability, None) at every supported leaf.
    Zero-probability branches (the negative side of a pair whose positive
    move is 0) are not entered.
    """
    members, n_neg = game.moves.members, game.moves.n_negative
    links = result.strategy.links
    # stack entries: (path, node of round len(path), probability)
    stack: list[tuple[tuple, int, Fraction]] = [((), 0, Fraction(1))]
    while stack:
        path, i, prob = stack.pop()
        n = len(path)
        if n == game.rounds:
            yield path, prob, None
            continue
        node = result.pairs[result.measure[n][i]]
        yield path, prob, node
        neg, pos = node.pair
        for m, weight in ((n_neg - 1 - neg, node.prob_neg), (n_neg + pos, node.prob_pos)):
            if weight > 0:
                stack.append((path + (members[m],), links[n][m, i], prob * weight))

