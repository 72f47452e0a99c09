"""Backward induction over the move lattice or the full move tree.

European payoffs collapse onto the lattice of exact partial sums, so the
state count per round grows polynomially; path-dependent payoffs price on
the full k^N tree behind an explicit size budget.  A pruned variant
re-selects the extremal pair only every q rounds and inherits it in
between, trading exactness for fewer distinct decisions.

Every route holds one round as arrays and hands each backward step to the
``singlestep`` kernel; what differs between routes is only how a node finds
its children.  All exact sums are tracked as integers on a
common-denominator rescaling of the moves (one-step weights do not change
under a positive rescaling), and are converted back to Fractions in the
returned node keys.
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
    evaluate_payoff,
    is_path_dependent,
    node_key,
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


class _Certificate:
    """The node mappings of a PriceResult, filled one round at a time."""

    def __init__(self) -> None:
        self.strategy: dict[tuple, float] = {}
        self.measure: dict[tuple, RiskNeutralNode] = {}
        self.node_values: dict[tuple, float] = {}

    def add(self, keys: list, values: np.ndarray, index: np.ndarray,
            positions: np.ndarray, nodes: tuple[RiskNeutralNode, ...]) -> None:
        self.node_values.update(zip(keys, values.tolist()))
        self.strategy.update(zip(keys, positions.tolist()))
        self.measure.update(zip(keys, [nodes[i] for i in index.tolist()]))

    def result(self, root: np.ndarray, side: Side, key_kind: str,
               prune_period: int | None = None) -> PriceResult:
        """The PriceResult whose price is the single value of the root level."""
        return PriceResult(
            price=float(root[0]),
            side=side,
            strategy=self.strategy,
            measure=self.measure,
            node_values=self.node_values,
            key_kind=key_kind,
            prune_period=prune_period,
        )


def _integer_moves(moves: MoveSpace) -> tuple[int, np.ndarray]:
    """Common denominator of the moves and the moves times it, ascending."""
    denom = math.lcm(*(a.denominator for a in moves.members))
    return denom, np.array(
        [a.numerator * (denom // a.denominator) for a in moves.members], dtype=np.int64
    )


def _terminal_values(payoff: Payoff, scale: float, sums: list[int], denom: int) -> np.ndarray:
    return np.array([evaluate_payoff(payoff, scale * (s / denom)) for s in sums])


def price_european(game: GameSpec, payoff: Payoff, side: Side) -> PriceResult:
    """Exact hedging price of a European payoff on the collapsed lattice."""
    if is_path_dependent(payoff):
        raise ValueError("use price_path_dependent for path-dependent payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    pairs = PairTable.of(moves)
    denom, deltas = _integer_moves(moves)
    # sorted reachable integer sums per round
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(rounds):
        levels.append(np.unique(levels[-1][:, None] + deltas))

    cert = _Certificate()
    sums = levels[rounds].tolist()
    values = _terminal_values(payoff, scale, sums, denom)
    cert.node_values.update(zip([(rounds, Fraction(s, denom)) for s in sums], values.tolist()))
    for n in range(rounds - 1, -1, -1):
        children = values[np.searchsorted(levels[n + 1], levels[n] + deltas[:, None])]
        values, index, positions = replicating_step(children, pairs, side)
        keys = [(n, Fraction(s, denom)) for s in levels[n].tolist()]
        cert.add(keys, values, index, positions, pairs.nodes)
    return cert.result(values, side, "lattice")


def price_path_dependent(
    game: GameSpec, payoff: Payoff, side: Side, budget: int = 10**7
) -> PriceResult:
    """Hedging price on the full move tree (works for any payoff).

    Node keys are the move prefixes themselves.  Raises BudgetError when the
    tree would have more than ``budget`` leaves.
    """
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    k = moves.size
    leaves = k**rounds
    if leaves > budget:
        raise BudgetError(f"{leaves} leaves exceed the budget of {budget}")
    members = moves.members
    pairs = PairTable.of(moves)

    cert = _Certificate()
    paths = list(itertools.product(members, repeat=rounds))
    values = np.array([payoff_value_on_path(payoff, scale, path) for path in paths])
    cert.node_values.update(zip(paths, values.tolist()))
    for n in range(rounds - 1, -1, -1):
        # the children of a prefix are a contiguous block of k, in member order
        values, index, positions = replicating_step(values.reshape(-1, k).T, pairs, side)
        cert.add(list(itertools.product(members, repeat=n)), values, index, positions,
                 pairs.nodes)
    return cert.result(values, side, "path")


def _child_tag(n_next: int, rounds: int, period: int,
               pair: tuple[int, int]) -> tuple[int, int] | None:
    """Inherited-pair tag of a pruned node at round ``n_next`` reached
    through ``pair``: None where the pair is re-selected and at the leaves."""
    return None if (n_next % period == 0 or n_next == rounds) else pair


def price_pruned(game: GameSpec, payoff: Payoff, schedule: PruneSchedule) -> PriceResult:
    """Upper price with pair re-selection only at rounds n % period == 0.

    Between re-selection rounds the inherited pair is kept, so the state is
    (exact sum, inherited pair); at re-selection rounds the value does not
    depend on the inherited pair and the state collapses to (sum, None).
    period=1 reproduces the exact price; period=rounds prices every pair's
    binomial sub-model and takes the best.  Positions are the extremal
    chord slopes, unclamped: a pruned value is no superhedging level.
    """
    if is_path_dependent(payoff):
        raise ValueError("pruned induction only applies to European payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    q = schedule.period
    pairs = PairTable.of(moves)
    denom, deltas = _integer_moves(moves)
    inherited = [(node.pair, pairs.only(p)) for p, node in enumerate(pairs.nodes)]

    def groups(n: int) -> list[tuple[tuple[int, int] | None, PairTable]]:
        """(inherited tag, pairs on offer) of the states at round n."""
        return [(None, pairs)] if n % q == 0 else inherited

    def steps(n: int, table: PairTable):
        """(child tag, negative move, positive move) of each offered pair."""
        tags = [_child_tag(n + 1, rounds, q, node.pair) for node in table.nodes]
        return zip(tags, deltas[table.neg], deltas[table.pos])

    # forward pass: sorted reachable sums per inherited tag, per round
    levels: list[dict] = [{None: np.zeros(1, dtype=np.int64)}]
    for n in range(rounds):
        grown: dict = {}
        for tag, table in groups(n):
            sums = levels[n][tag]
            for child, d_neg, d_pos in steps(n, table):
                grown.setdefault(child, []).extend((sums + d_neg, sums + d_pos))
        levels.append({t: np.unique(np.concatenate(parts)) for t, parts in grown.items()})

    cert = _Certificate()
    sums = levels[rounds][None].tolist()
    values = {None: _terminal_values(payoff, scale, sums, denom)}
    cert.node_values.update(
        zip([(rounds, Fraction(s, denom), None) for s in sums], values[None].tolist())
    )
    for n in range(rounds - 1, -1, -1):
        nxt, values = values, {}
        for tag, table in groups(n):
            sums = levels[n][tag]
            neg, pos = [], []
            for child, d_neg, d_pos in steps(n, table):
                child_sums = levels[n + 1][child]
                neg.append(nxt[child][np.searchsorted(child_sums, sums + d_neg)])
                pos.append(nxt[child][np.searchsorted(child_sums, sums + d_pos)])
            values[tag], index, slope = best_pair(np.stack(neg), np.stack(pos), table, Side.UPPER)
            keys = [(n, Fraction(s, denom), tag) for s in sums.tolist()]
            cert.add(keys, values[tag], index, slope, table.nodes)
    return cert.result(values[None], Side.UPPER, "pruned", q)


def measure_walk(
    result: PriceResult, game: GameSpec
) -> Iterator[tuple[tuple, Fraction, RiskNeutralNode | None]]:
    """Depth-first walk over the supported paths of the extremal measure.

    Yields (prefix, probability, node measure) at every internal node on a
    supported path and (path, probability, None) at every supported leaf.
    Zero-probability branches (the negative side of a pair whose positive
    move is 0) are not entered.
    """
    moves, rounds = game.moves, game.rounds
    # stack entries: (path, exact sum, round, probability, inherited tag)
    stack: list[tuple[tuple, Fraction, int, Fraction, tuple | None]] = [
        ((), Fraction(0), 0, Fraction(1), None)
    ]
    while stack:
        path, s, n, prob, tag = stack.pop()
        if n == rounds:
            yield path, prob, None
            continue
        node = result.measure[node_key(result.key_kind, n, s, path, tag)]
        yield path, prob, node
        a_neg, a_pos = moves.pair_moves(*node.pair)
        child = None
        if result.key_kind == "pruned":
            assert result.prune_period is not None
            child = _child_tag(n + 1, rounds, result.prune_period, node.pair)
        if node.prob_neg > 0:
            stack.append((path + (a_neg,), s + a_neg, n + 1, prob * node.prob_neg, child))
        if node.prob_pos > 0:
            stack.append((path + (a_pos,), s + a_pos, n + 1, prob * node.prob_pos, child))


def extract_measure(result: PriceResult, game: GameSpec) -> dict[tuple, Fraction]:
    """Exact probabilities of the supported paths of the extremal measure.

    Zero-probability branches are omitted, so the keys are exactly the
    support and the probabilities sum to 1 exactly.
    """
    return {path: prob for path, prob, node in measure_walk(result, game) if node is None}
