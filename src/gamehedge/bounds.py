"""Closed-form binomial bounds and structural price inequalities.

Restricting Market to a single (negative, positive) pair turns the game
into a binomial sub-model whose price is an explicit binomial sum.  The
maximum of those sums over pairs lower-bounds the upper price (it is exact
for convex payoffs, where the outermost pair wins); nested move spaces give
two-sided sandwiches; and any split f = f1 + f2 with f1 convex and f2
concave yields the subadditive upper bound E(f) <= E(f1) + E(f2) where both
summands are single binomial prices.
"""
from __future__ import annotations

import math
from dataclasses import replace

from .model import (
    GameSpec,
    MoveSpace,
    Payoff,
    Side,
    RiskNeutralNode,
    evaluate_payoff,
    is_path_dependent,
    payoff_hinges,
    piecewise_from_hinges,
)

# exact rational weights up to here; log-space beyond (giant exact binomials)
_EXACT_WEIGHT_LIMIT = 512


def binomial_price(game: GameSpec, pair: tuple[int, int], payoff: Payoff) -> float:
    """Price of a European payoff in the binomial sub-model of one pair.

    With h counting negative moves, this is
    sum_h C(N,h) p_neg^h p_pos^(N-h) f(scale*(h*a_neg + (N-h)*a_pos)).
    """
    if is_path_dependent(payoff):
        raise ValueError("binomial sub-model prices are for European payoffs")
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    i, j = pair
    a_neg, a_pos = moves.pair_moves(i, j)
    node = RiskNeutralNode.from_pair(moves, i, j)

    def leaf(h: int) -> float:
        return evaluate_payoff(payoff, scale * float(h * a_neg + (rounds - h) * a_pos))

    if rounds <= _EXACT_WEIGHT_LIMIT:
        terms = [
            float(math.comb(rounds, h) * node.prob_neg**h * node.prob_pos ** (rounds - h))
            * leaf(h)
            for h in range(rounds + 1)
        ]
        return math.fsum(terms)

    p_neg, p_pos = float(node.prob_neg), float(node.prob_pos)
    if p_neg == 0.0:
        return leaf(0)
    if p_pos == 0.0:  # cannot happen for a valid pair, kept for symmetry
        return leaf(rounds)
    log_n = math.lgamma(rounds + 1)
    terms = [
        math.exp(
            log_n
            - math.lgamma(h + 1)
            - math.lgamma(rounds - h + 1)
            + h * math.log(p_neg)
            + (rounds - h) * math.log(p_pos)
        )
        * leaf(h)
        for h in range(rounds + 1)
    ]
    return math.fsum(terms)


def binomial_prices(game: GameSpec, payoff: Payoff) -> dict[tuple[int, int], float]:
    """Every pair's binomial sub-model price, in ``MoveSpace.pairs()`` order.

    The maximum lower-bounds the upper price and equals it when the payoff
    is convex (the outermost pair attains it); the minimum upper-bounds the
    lower price.  ``max(prices, key=prices.get)`` names the first extremal
    pair.
    """
    return {pair: binomial_price(game, pair, payoff) for pair in game.moves.pairs()}


def nested_compare(
    inner: MoveSpace, outer: MoveSpace, game: GameSpec, payoff: Payoff
) -> tuple[float, float, float, float]:
    """Price sandwich for nested move spaces.

    Returns (lower_outer, lower_inner, upper_inner, upper_outer); a larger
    move space can only widen the price interval, so the quadruple is
    nondecreasing.  ``game`` supplies rounds and scale; its own move space
    is ignored.
    """
    from .induction import price_european

    if not set(inner.members) <= set(outer.members):
        raise ValueError("inner move space must be a subset of the outer one")
    game_in = replace(game, moves=inner)
    game_out = replace(game, moves=outer)
    chain = (
        price_european(game_out, payoff, Side.LOWER).price,
        price_european(game_in, payoff, Side.LOWER).price,
        price_european(game_in, payoff, Side.UPPER).price,
        price_european(game_out, payoff, Side.UPPER).price,
    )
    for a, b in zip(chain, chain[1:]):
        if a > b + 1e-9:
            raise RuntimeError(f"nested price ordering violated: {chain}")
    return chain


def split_convex_concave(payoff: Payoff) -> tuple[Payoff, Payoff]:
    """Split a hinge payoff into a convex and a concave piecewise part.

    The affine part and all positive hinge weights go to the convex piece,
    negative weights to the concave piece; the pieces sum to the payoff.
    """
    intercept, slope, hinges = payoff_hinges(payoff)
    convex = piecewise_from_hinges(intercept, slope, ((x, w) for x, w in hinges if w > 0))
    concave = piecewise_from_hinges(0.0, 0.0, ((x, w) for x, w in hinges if w < 0))
    return convex, concave


def convex_concave_bound(payoff: Payoff, game: GameSpec) -> float:
    """Upper bound E(f1) + E(f2) for the split f = f1 + f2 of a hinge payoff.

    ``split_convex_concave`` makes f1 convex and f2 concave by construction,
    so both summands are exact: the convex piece prices in the outermost
    binomial sub-model, the concave piece in the innermost one (or at f2(0)
    when the smallest positive move is 0).  A payoff with no hinge form
    raises ValueError.
    """
    convex_part, concave_part = split_convex_concave(payoff)
    moves = game.moves
    outermost = (moves.n_negative - 1, moves.n_positive - 1)
    upper_convex = binomial_price(game, outermost, convex_part)
    if moves.positives[0] > 0:
        upper_concave = binomial_price(game, (0, 0), concave_part)
    else:
        upper_concave = evaluate_payoff(concave_part, 0.0)
    return upper_convex + upper_concave
