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
    payoff_value_on_path,
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


def _integer_moves(moves: MoveSpace, rounds: int) -> tuple[int, np.ndarray]:
    """Common denominator of the moves and the moves times it, ascending.

    Raises ValueError when a sum of ``rounds`` of them could leave int64.
    """
    denom = math.lcm(*(a.denominator for a in moves.members))
    deltas = [a.numerator * (denom // a.denominator) for a in moves.members]
    if max(map(abs, deltas)) * rounds >= 2**63:
        raise ValueError(
            f"{rounds} rounds of these moves overflow the lattice's int64 sums "
            f"(common denominator {denom})"
        )
    return denom, np.array(deltas, dtype=np.int64)


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
    denom, deltas = _integer_moves(moves, rounds)
    # sorted reachable integer sums per round
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(rounds):
        levels.append(np.unique(levels[-1][:, None] + deltas))

    terminal = values = _terminal_values(payoff, scale, levels[rounds].tolist(), denom)
    steps = []
    for n in range(rounds - 1, -1, -1):
        links = np.searchsorted(levels[n + 1], levels[n] + deltas[:, None])
        values, rows, positions = replicating_step(values[links], pairs, side)
        steps.append((values, rows, positions, links))
    return _result(side, pairs, terminal, steps,
                   lambda n: [(n, Fraction(s, denom)) for s in levels[n].tolist()], "lattice")


def price_path_dependent(
    game: GameSpec, payoff: Payoff, side: Side, budget: int = 10**7
) -> PriceResult:
    """Hedging price on the full move tree (works for any payoff).

    The nodes of round n are the move prefixes of length n in
    lexicographic member order, and are named by them.  Raises BudgetError
    when the tree would have more than ``budget`` leaves.
    """
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    k = moves.size
    leaves = k**rounds
    if leaves > budget:
        raise BudgetError(f"{leaves} leaves exceed the budget of {budget}")
    members = moves.members
    pairs = PairTable.of(moves)

    terminal = values = np.array([payoff_value_on_path(payoff, scale, path)
                                  for path in itertools.product(members, repeat=rounds)])
    steps = []
    for n in range(rounds - 1, -1, -1):
        # the children of a prefix are a contiguous block of k, in member order
        links = np.arange(k ** (n + 1)).reshape(-1, k).T
        values, rows, positions = replicating_step(values[links], pairs, side)
        steps.append((values, rows, positions, links))
    return _result(side, pairs, terminal, steps,
                   lambda n: list(itertools.product(members, repeat=n)), "path")


def price_pruned(game: GameSpec, payoff: Payoff, schedule: PruneSchedule) -> PriceResult:
    """Upper price with pair re-selection only at rounds n % period == 0.

    Between re-selection rounds the inherited pair is kept, so the state is
    (exact sum, inherited pair); at re-selection rounds the value does not
    depend on the inherited pair and the state collapses to (sum, None).
    period=1 reproduces the exact price; period=rounds prices every pair's
    binomial sub-model and takes the best.  Positions are the extremal
    chord slopes, unclamped: a pruned value is no superhedging level, and
    only the extremal pair's two moves are linked.

    The nodes of round n are its groups in ``groups(n)`` order, each in
    ascending sum; they are named (round, exact sum, inherited pair).
    """
    if is_path_dependent(payoff):
        raise ValueError("pruned induction only applies to European payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    q = schedule.period
    pairs = PairTable.of(moves)
    denom, deltas = _integer_moves(moves, rounds)
    every_pair = range(len(pairs.nodes))

    def groups(n: int) -> list[int | None]:
        """Inherited pair number of each group of states at round n: one
        group None where the pair is re-selected and at the leaves."""
        return [None] if n % q == 0 or n == rounds else list(every_pair)

    def offers(n: int, group: int | None) -> list[tuple[int, int]]:
        """(pair number, group of its children at round n+1) of each pair
        on offer to the states of ``group`` at round n."""
        inherit = len(groups(n + 1)) > 1
        return [(p, p if inherit else 0) for p in (every_pair if group is None else [group])]

    # forward pass: sorted reachable sums per group, per round
    levels = [[np.zeros(1, dtype=np.int64)]]
    for n in range(rounds):
        grown: list[list] = [[] for _ in groups(n + 1)]
        for group, sums in zip(groups(n), levels[n]):
            for p, child in offers(n, group):
                grown[child] += (sums + deltas[pairs.neg[p]], sums + deltas[pairs.pos[p]])
        levels.append([np.unique(np.concatenate(parts)) for parts in grown])

    terminal = values = _terminal_values(payoff, scale, levels[rounds][0].tolist(), denom)
    steps = []
    for n in range(rounds - 1, -1, -1):
        nxt = levels[n + 1]
        starts = np.cumsum([0] + [len(sums) for sums in nxt])
        parts = []
        for group, sums in zip(groups(n), levels[n]):
            offered = offers(n, group)
            table = pairs if group is None else pairs.only(group)
            # (negative, positive move) x offered pair x node: the node of round n+1
            children = np.array([[starts[c] + np.searchsorted(nxt[c], sums + deltas[move[p]])
                                  for p, c in offered] for move in (pairs.neg, pairs.pos)])
            best, index, slope = best_pair(*values[children], table, Side.UPPER)
            cols = np.arange(len(sums))
            links = np.full((moves.size, len(sums)), -1)
            links[table.neg[index], cols], links[table.pos[index], cols] = children[:, index, cols]
            parts.append((best, np.array([p for p, _ in offered])[index], slope, links))
        steps.append(tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*parts)))
        values = steps[-1][0]

    def names(n: int) -> list[tuple]:
        return [(n, Fraction(s, denom), None if group is None else pairs.nodes[group].pair)
                for group, sums in zip(groups(n), levels[n]) for s in sums.tolist()]

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


def extract_measure(result: PriceResult, game: GameSpec) -> dict[tuple, Fraction]:
    """Exact probabilities of the supported paths of the extremal measure.

    Zero-probability branches are omitted, so the keys are exactly the
    support and the probabilities sum to 1 exactly.
    """
    return {path: prob for path, prob, node in measure_walk(result, game) if node is None}
