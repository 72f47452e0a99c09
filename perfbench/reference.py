"""Reference values that share no code with the gamehedge routes they check.

Payoffs are described here by plain data (hinge lists, strikes), and
evaluated by this file's own functions, so a reference never calls into
the package under test:

- ``binomial_price``: the closed-form price of one (negative, positive)
  move pair's binomial sub-model, with exact rational weights;
- ``tree_upper_price``: backward induction on the full move tree, as
  numpy arrays, for path-dependent payoffs;
- ``scipy_lp_price``: the superhedging LP solved by scipy's HiGHS.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def hinge_value(intercept: float, slope: float, hinges, x: float) -> float:
    """intercept + slope*x + sum of w*max(0, x - k) over (k, w) hinges."""
    return intercept + slope * x + sum(w * max(0.0, x - k) for k, w in hinges)


def butterfly_value(k1: float, k2: float, k3: float, x: float) -> float:
    return max(0.0, x - k1) - 2.0 * max(0.0, x - k2) + max(0.0, x - k3)


def pair_weights(a_neg: Fraction, a_pos: Fraction) -> tuple[Fraction, Fraction]:
    """Probabilities of the unique mean-zero measure on {a_neg, a_pos}."""
    span = a_pos - a_neg
    return a_pos / span, -a_neg / span


def binomial_price(a_neg: Fraction, a_pos: Fraction, rounds: int, scale: float, f) -> float:
    """Expectation of f(scale * terminal sum) when every round moves by
    a_neg or a_pos under the pair's mean-zero measure."""
    p_neg, p_pos = pair_weights(a_neg, a_pos)
    total_den = p_neg.denominator**rounds  # p_pos = 1 - p_neg has the same denominator
    terms = []
    for h in range(rounds + 1):
        weight = math.comb(rounds, h) * p_neg.numerator**h * p_pos.numerator ** (rounds - h)
        if weight == 0:
            continue
        x = scale * float(h * a_neg + (rounds - h) * a_pos)
        terms.append((weight / total_den) * f(x))
    return math.fsum(terms)


def tree_upper_price(moves: list[Fraction], rounds: int, scale: float, path_payoff) -> float:
    """Upper hedging price of a path payoff by induction over all k^N paths.

    ``path_payoff`` receives the scaled moves of a path as floats.  Each
    round takes, node by node, the largest chord value at 0 over every
    (negative, nonnegative) pair of moves.
    """
    members = sorted(moves)
    k = len(members)
    values = np.array([
        path_payoff(tuple(scale * float(a) for a in path))
        for path in itertools.product(members, repeat=rounds)
    ])
    pairs = []
    for i, a_neg in enumerate(members):
        for j, a_pos in enumerate(members):
            if a_neg < 0 <= a_pos:
                w_neg, w_pos = pair_weights(a_neg, a_pos)
                pairs.append((i, j, float(w_neg), float(w_pos)))
    for _ in range(rounds):
        children = values.reshape(-1, k)
        values = np.max(
            [w_neg * children[:, i] + w_pos * children[:, j] for i, j, w_neg, w_pos in pairs],
            axis=0,
        )
    return float(values[0])


def scipy_lp_price(moves: list[Fraction], rounds: int, scale: float, f, side: str) -> float:
    """Hedging price from the path-by-path LP, solved by scipy (HiGHS).

    Variables are the initial capital and one position per internal tree
    node.  Upper: least capital whose gains dominate f on every path.
    Lower: greatest capital whose gains stay below f on every path.
    """
    from scipy.optimize import linprog

    members = sorted(moves)
    node_index: dict[tuple, int] = {}
    for n in range(rounds):
        for prefix in itertools.product(range(len(members)), repeat=n):
            node_index[prefix] = 1 + len(node_index)
    paths = list(itertools.product(range(len(members)), repeat=rounds))
    matrix = np.zeros((len(paths), 1 + len(node_index)))
    rhs = np.empty(len(paths))
    for row, path in enumerate(paths):
        matrix[row, 0] = 1.0
        for n, move in enumerate(path):
            matrix[row, node_index[path[:n]]] = float(members[move])
        rhs[row] = f(scale * float(sum((members[m] for m in path), Fraction(0))))
    cost = np.zeros(matrix.shape[1])
    if side == "upper":  # min alpha  s.t.  A x >= f
        cost[0] = 1.0
        result = linprog(cost, A_ub=-matrix, b_ub=-rhs,
                         bounds=[(None, None)] * matrix.shape[1], method="highs")
        sign = 1.0
    else:  # max alpha  s.t.  A x <= f
        cost[0] = -1.0
        result = linprog(cost, A_ub=matrix, b_ub=rhs,
                         bounds=[(None, None)] * matrix.shape[1], method="highs")
        sign = -1.0
    if not result.success:
        raise RuntimeError(f"scipy linprog failed: {result.message}")
    return sign * float(result.fun)
