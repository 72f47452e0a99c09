"""The backward-step kernel shared by every induction route.

The one-step upper price of values v over a move space is the maximum over
(negative, positive) pairs of the two-point expectation

    (a_pos * v(a_neg) - a_neg * v(a_pos)) / (a_pos - a_neg)

and the lower price is the corresponding minimum.  The maximizing (resp.
minimizing) pair carries the extremal zero-mean measure and the optimal
one-step position.  ``best_pair`` evaluates that step for a whole level of
nodes at once and ``clamp_position`` turns the extremal chord slopes into
replicating positions; the lattice, tree and pruned inductions only supply
the child values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MoveSpace, RiskNeutralNode, Side


@dataclass(frozen=True)
class PairTable:
    """The pairs of a move space in ``MoveSpace.pairs()`` order.

    ``moves`` are the members as floats, ascending; ``neg`` and ``pos``
    index each pair's moves in them; ``w_neg``, ``w_pos`` and ``span`` are
    (pairs, 1) columns of the float weights and of a_pos - a_neg.
    """

    moves: tuple[float, ...]
    nodes: tuple[RiskNeutralNode, ...]
    neg: np.ndarray
    pos: np.ndarray
    w_neg: np.ndarray
    w_pos: np.ndarray
    span: np.ndarray

    @classmethod
    def of(cls, moves: MoveSpace) -> "PairTable":
        pairs = list(moves.pairs())
        nodes = tuple(RiskNeutralNode.from_pair(moves, i, j) for i, j in pairs)
        n_neg = moves.n_negative
        index = np.array([(n_neg - 1 - i, n_neg + j) for i, j in pairs])
        floats = np.array([
            (float(node.prob_neg), float(node.prob_pos),
             float(moves.positives[j] - moves.negatives[i]))
            for node, (i, j) in zip(nodes, pairs)
        ])
        return cls(tuple(float(a) for a in moves.members), nodes, index[:, 0], index[:, 1],
                   floats[:, 0:1], floats[:, 1:2], floats[:, 2:3])

    def only(self, p: int) -> "PairTable":
        """The one-row table of pair number ``p``."""
        rows = slice(p, p + 1)
        return PairTable(
            self.moves, self.nodes[rows], self.neg[rows], self.pos[rows],
            self.w_neg[rows], self.w_pos[rows], self.span[rows],
        )


def best_pair(
    neg: np.ndarray, pos: np.ndarray, pairs: PairTable, side: Side
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward step over a level of nodes.

    ``neg`` and ``pos`` hold, per pair (rows) and node (columns), the child
    values at the pair's negative and positive moves.  Returns the best
    two-point expectation per node (max for UPPER, min for LOWER), the row
    of the pair attaining it (the first one on ties) and that pair's chord
    slope (v(a_pos) - v(a_neg)) / (a_pos - a_neg).
    """
    values = pairs.w_neg * neg + pairs.w_pos * pos
    index = values.argmax(axis=0) if side is Side.UPPER else values.argmin(axis=0)
    cols = np.arange(values.shape[1])
    slope = (pos[index, cols] - neg[index, cols]) / pairs.span[index, 0]
    return values[index, cols], index, slope


def clamp_position(
    alpha: np.ndarray,
    slope: np.ndarray,
    moves: tuple[float, ...],
    values: np.ndarray,
    side: Side,
) -> np.ndarray:
    """Project candidate positions into the band that replicates from alpha.

    ``values`` holds, per move (rows, in the order of ``moves``) and node
    (columns), the child value.  Superreplication (UPPER) needs
    alpha + M*a >= v(a) at every move, i.e. M >= (v(a) - alpha)/a for
    positive moves and <= it for negative ones; subreplication (LOWER) swaps
    the directions.  The extremal pair's chord slope always lies in this
    band when the pair is the unique optimum, but ties (guaranteed when the
    smallest positive move is 0, where every pair prices to v(0)) can hand
    back a chord that violates a move outside the pair, so the slope is
    clamped against every move.  The bounds use strict comparisons and keep
    the earlier value on ties, as a scalar max/min does; np.maximum leaves
    the choice between -0.0 and 0.0 to the platform.
    """
    lo, hi = -np.inf, np.inf
    upper = side is Side.UPPER
    for a, v in zip(moves, values):
        if a == 0.0:
            continue
        quotient = (v - alpha) / a
        if (a > 0.0) == upper:
            lo = np.where(quotient > lo, quotient, lo)
        else:
            hi = np.where(quotient < hi, quotient, hi)
    position = np.where(lo > slope, lo, slope)
    return np.where(hi < position, hi, position)


def replicating_step(
    children: np.ndarray, pairs: PairTable, side: Side
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``best_pair`` plus replicating positions over a level of nodes.

    ``children`` holds, per move (rows, ascending) and node (columns), the
    child value.  Returns the best values, the extremal pair rows and the
    clamped positions.
    """
    values, index, slope = best_pair(children[pairs.neg], children[pairs.pos], pairs, side)
    return values, index, clamp_position(values, slope, pairs.moves, children, side)

