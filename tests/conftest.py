from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator

import pytest

from gamehedge import (
    Butterfly,
    GameSpec,
    MoveSpace,
    PathDependent,
    PiecewiseLinear,
    PriceResult,
    RiskNeutralNode,
)
from gamehedge.model import Payoff, evaluate_payoff


@pytest.fixture
def trinomial() -> MoveSpace:
    return MoveSpace.from_moves([-1, 1, 2])


@pytest.fixture
def butterfly() -> Butterfly:
    return Butterfly(-0.5, 0.5, 1.5)


def payoff_value_on_path(payoff: Payoff, scale: float, path: tuple) -> float:
    """Evaluate any payoff on an exact path (tuple of rationals) to a finite
    value: the Fraction oracle of ``model.leaf_payoffs``.

    A European payoff is evaluated at scale * float(exact sum), the
    convention of every pricing route, so that route-agreement comparisons
    are not polluted by differing rounding of the argument.
    """
    if isinstance(payoff, PathDependent):
        scaled = tuple(scale * float(x) for x in path)
        value = payoff.evaluator(scaled)
        if not math.isfinite(value):
            raise ValueError(f"payoff value {value!r} at the path {scaled!r} is not finite")
        return value
    return evaluate_payoff(payoff, scale * float(sum(path, Fraction(0))))


def node_names(result: PriceResult, n: int) -> list[tuple]:
    """``result.keys(n)`` parsed back into exact tuples: (round, sum) on the
    lattice, the tuple of moves of a prefix on the tree ("" being ()), and
    (round, sum, inherited pair or None) for pruned runs."""
    if result.key_kind == "path":
        return [tuple(map(Fraction, key.split(","))) if key else () for key in result.keys(n)]
    names = []
    for key in result.keys(n):
        head, total, *tag = key.split("|")
        name = (int(head), Fraction(total))
        if result.key_kind == "pruned":
            name += (None if tag == ["remax"] else tuple(map(int, tag[0].split(","))),)
        names.append(name)
    return names


def measure_walk(
    result: PriceResult, game: GameSpec
) -> Iterator[tuple[tuple, Fraction, RiskNeutralNode | None]]:
    """Depth-first walk over the supported paths of the extremal measure:
    the path oracle of the node pass in ``verify.audit_measure``.

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
    """Exact probabilities of the supported paths of the extremal measure;
    zero-probability branches are omitted, so the keys are the support."""
    return {path: prob for path, prob, node in measure_walk(result, game) if node is None}


def random_move_space(rng: random.Random, max_moves: int = 3,
                      allow_zero: bool = True) -> MoveSpace:
    """Small random move space with rational moves (shared test helper)."""
    k = rng.randint(2, max_moves)
    n_neg = 1 if k == 2 else rng.randint(1, k - 1)

    def distinct(count: int) -> list[Fraction]:
        out: set[Fraction] = set()
        while len(out) < count:
            out.add(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
        return sorted(out)

    negatives = [-a for a in distinct(n_neg)]
    positives = distinct(k - n_neg)
    if allow_zero and rng.random() < 0.2:
        positives[0] = Fraction(0)
    return MoveSpace.from_moves(negatives + positives)


def random_piecewise(rng: random.Random, max_points: int = 4) -> PiecewiseLinear:
    count = rng.randint(1, max_points)
    xs: set[Fraction] = set()
    while len(xs) < count:
        xs.add(Fraction(rng.randint(-24, 24), 8))
    points = tuple((float(x), rng.uniform(-2.0, 2.0)) for x in sorted(xs))
    return PiecewiseLinear(points, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_game(rng: random.Random, max_rounds: int = 3, max_moves: int = 3) -> GameSpec:
    moves = random_move_space(rng, max_moves=max_moves)
    rounds = rng.randint(1, max_rounds)
    scale = 1.0 if rng.random() < 0.5 else rounds ** -0.5
    return GameSpec(moves, rounds, scale)
