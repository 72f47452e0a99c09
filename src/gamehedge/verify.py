"""Independent checks: superreplication replays, exact measure audits, and
a seeded fuzz harness that cross-checks every pricing route.

Nothing here reuses the induction shortcut being checked: the
superreplication checker replays the strategy on every path at once,
keeping at each node the least capital of the paths that reach it; the
measure audit recomputes conditional moments in exact arithmetic; and the
fuzz harness compares induction, LP, brute-force dual enumeration, binomial
bounds and the structural inequalities on random games.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from . import induction, lp
from .model import (
    GameSpec,
    MoveSpace,
    Payoff,
    PiecewiseLinear,
    PriceResult,
    Side,
    Strategy,
    leaf_payoffs,
    negate_payoff,
    state_steps,
)


@dataclass(frozen=True)
class VerificationReport:
    """Result of replaying a strategy against every path."""

    min_slack: float
    worst_path: tuple[Fraction, ...]
    paths_checked: int
    passed: bool


@dataclass(frozen=True)
class MeasureAudit:
    """Exact-arithmetic audit of an extremal measure."""

    total_probability: Fraction
    expectation: float
    price: float
    nodes_checked: int
    passed: bool


@dataclass
class FuzzSummary:
    seed: int
    trials: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


# how far the audited measure's expected payoff may lie from the price
_AUDIT_TOL = 1e-10
# how far below zero a replayed slack may lie
_REPLAY_TOL = 1e-9


def _check_links(strategy: Strategy, game: GameSpec) -> None:
    """Refuse a strategy that does not fit the game or has no link for a move."""
    positions, links = strategy.positions, strategy.links
    widths = [len(p) for p in positions] + [math.inf]  # a strategy does not count the leaves
    if len(positions) != game.rounds or len(links) != game.rounds:
        raise ValueError(f"strategy covers {len(links)} rounds, the game has {game.rounds}")
    for n, link in enumerate(links):
        if (link < 0).any():
            raise ValueError(f"strategy has no link for a move at round {n}: "
                             "pruned strategies are not superhedging certificates")
        if link.shape != (game.moves.size, widths[n]) or (link >= widths[n + 1]).any():
            raise ValueError(f"links of round {n} do not fit its nodes and those of round {n + 1}")


def check_superreplication(
    game: GameSpec,
    payoff: Payoff,
    alpha: float,
    strategy: Strategy,
) -> VerificationReport:
    """Replay a strategy on every path and report the worst slack.

    The slack on a path is alpha + sum_n M_n * x_n - f(path); the strategy
    superreplicates from alpha iff the minimum slack is >= -_REPLAY_TOL.
    The replay needs a link for every move, so pruned strategies (a lower
    bound on the upper price, not a superhedging level) are refused.

    One forward pass keeps at each node the least capital of the paths that
    reach it, with a path walk's float operations; rounded addition is
    monotone, so the minimum slack is the path replay's, bit for bit.  A NaN
    counts as the least, so it fails.  f is read only from the leaves' exact
    states, derived from the moves taken: links that bring two states to
    one node raise ValueError.  The worst path ends at the last leaf of
    least slack and walks back through least-capital (move, parent) pairs,
    on ties the later move, then the later parent.
    """
    _check_links(strategy, game)
    members, rounds = game.moves.members, game.rounds
    move_floats = np.array([float(a) for a in members])[:, None]
    mult, steps = state_steps(game, payoff)

    # each round's least-capital (move, parent) into every node of the next,
    # coded move * width + parent, so that the largest code wins a tie
    node, cap, state, best = np.zeros(1, dtype=np.intp), np.zeros(1), np.zeros(1, steps.dtype), []
    for n, width in enumerate(len(p) for p in strategy.positions):
        kid = strategy.links[n][:, node]
        kid_state = state[node] * mult + steps[:, None]
        value = cap[node] + strategy.positions[n][node] * move_floats
        state = np.empty(int(kid.max()) + 1, dtype=steps.dtype)
        state[kid] = kid_state
        if (state[kid] != kid_state).any():
            raise ValueError(f"links of round {n} bring two different states to one node")
        cap = np.full(len(state), np.inf)
        with np.errstate(invalid="ignore"):  # np.minimum keeps a NaN
            np.minimum.at(cap, kid.ravel(), value.ravel())
        least = (value == cap[kid]) | np.isnan(value)  # a NaN value leaves a NaN cap
        code = np.arange(len(members))[:, None] * width + node
        choice = np.zeros(len(cap), dtype=np.intp)
        np.maximum.at(choice, kid[least], code[least])
        best.append((choice, width))
        node = np.flatnonzero(np.bincount(kid.ravel(), minlength=len(cap)))

    slack = alpha + cap[node] - leaf_payoffs(game, payoff, state[node])
    last = len(slack) - 1 - int(np.argmin(slack[::-1]))
    path, at = [], node[last]
    for choice, width in reversed(best):
        move, at = divmod(int(choice[at]), width)
        path.append(members[move])
    min_slack = float(slack[last])
    return VerificationReport(
        min_slack=min_slack,
        worst_path=tuple(reversed(path)),
        paths_checked=game.moves.size**rounds,
        passed=min_slack >= -_REPLAY_TOL,
    )


def check_replication(
    game: GameSpec,
    payoff: Payoff,
    alpha: float,
    strategy: Strategy,
    side: Side,
) -> VerificationReport:
    """Replay a strategy of the given side from alpha on every path.

    An UPPER strategy must superreplicate f.  A LOWER strategy M must
    subreplicate it (alpha + sum M.x <= f everywhere), which is the same
    statement as -M superreplicating -f from -alpha, so that is what is
    replayed; the slacks are reported on that negated problem.
    """
    if side is Side.UPPER:
        return check_superreplication(game, payoff, alpha, strategy)
    negated = replace(strategy, positions=tuple(-p for p in strategy.positions))
    return check_superreplication(game, negate_payoff(payoff), -alpha, negated)


def audit_measure(game: GameSpec, payoff: Payoff, result: PriceResult) -> MeasureAudit:
    """Audit the extremal measure in one forward pass over the nodes.

    Each row of ``result.pairs`` is checked once, exactly: probabilities
    nonnegative, summing to one, with zero mean.  Mass 1 then flows from the
    root along the positive-weight moves of each node's pair, through the
    strategy's links; each node's exact state (its sum on the moves' common
    denominator, or its base-k move prefix for a path-dependent payoff) is
    derived from those moves, not read from the induction.  The audit fails
    when two supported links give one node different states, or when mass
    times f over the supported leaves misses the price by more than
    _AUDIT_TOL.  Raises ValueError for a pair row or link out of range.
    """
    moves, pairs, n_neg = game.moves, result.pairs, game.moves.n_negative
    sums = [node.prob_neg + node.prob_pos for node in pairs]
    ok = all(node.prob_neg >= 0 and node.prob_pos >= 0 and total == 1
             and a_neg * node.prob_neg + a_pos * node.prob_pos == 0
             for node, total in zip(pairs, sums) for a_neg, a_pos in [moves.pair_moves(*node.pair)])
    ends = np.array([(n_neg - 1 - i, n_neg + j) for i, j in (node.pair for node in pairs)])
    weights = np.array([(float(node.prob_neg), float(node.prob_pos)) for node in pairs])
    follow = np.array([(node.prob_neg > 0, node.prob_pos > 0) for node in pairs])

    mult, steps = state_steps(game, payoff)
    # mass and state cover every node of a round; the leaves number len(node_values[-1])
    widths = [len(m) for m in result.measure[1:]] + [len(result.node_values[-1])]
    node, mass, state = np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1, dtype=steps.dtype)
    used, nodes_checked = np.zeros(len(pairs), dtype=bool), 0
    for n, width in enumerate(widths):
        row = result.measure[n][node]
        if ((row < 0) | (row >= len(pairs))).any():
            raise ValueError(f"measure of round {n} names a pair row out of range")
        used[row] = True
        nodes_checked += len(node)
        at, end = np.nonzero(follow[row])
        move, parent = ends[row[at], end], node[at]
        kid = result.strategy.links[n][move, parent]
        if ((kid < 0) | (kid >= width)).any():
            raise ValueError(f"links of round {n} leave the nodes of round {n + 1}")
        kid_state = state[parent] * mult + steps[move]
        state = np.empty(width, dtype=steps.dtype)
        state[kid] = kid_state
        ok = ok and bool((state[kid] == kid_state).all())
        mass = np.bincount(kid, mass[parent] * weights[row[at], end], width)
        node = np.flatnonzero(np.bincount(kid, minlength=width))

    values = leaf_payoffs(game, payoff, state[node]).tolist()
    expectation = math.fsum(m * f for m, f in zip(mass[node].tolist(), values))
    total = next((sums[p] for p in np.flatnonzero(used) if sums[p] != 1), Fraction(1))
    return MeasureAudit(
        total_probability=total,
        expectation=expectation,
        price=result.price,
        nodes_checked=nodes_checked,
        passed=ok and abs(expectation - result.price) <= _AUDIT_TOL,
    )


# ---------------------------------------------------------------------------
# fuzz harness


def _random_move_space(rng: random.Random, max_moves: int) -> MoveSpace:
    k = rng.randint(2, max_moves)
    n_neg = 1 if k == 2 else rng.randint(1, k - 1)
    n_pos = k - n_neg

    def draw_distinct(count: int) -> list[Fraction]:
        seen: set[Fraction] = set()
        while len(seen) < count:
            seen.add(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
        return sorted(seen)

    negatives = tuple(-a for a in draw_distinct(n_neg))  # ascending magnitude
    positives = list(draw_distinct(n_pos))
    if rng.random() < 0.15:
        positives[0] = Fraction(0)  # exercise the a_1+ = 0 branch
    return MoveSpace(negatives=negatives, positives=tuple(positives))


def _random_piecewise(rng: random.Random) -> PiecewiseLinear:
    count = rng.randint(1, 4)
    xs: set[Fraction] = set()
    while len(xs) < count:
        xs.add(Fraction(rng.randint(-24, 24), 8))
    points = tuple((float(x), rng.uniform(-2.0, 2.0)) for x in sorted(xs))
    return PiecewiseLinear(points, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _checks_for_trial(game: GameSpec, payoff: Payoff) -> list[tuple[str, float, float, float]]:
    """Run every cross-route comparison; returns (name, got, want, tol) rows
    for the ones that failed."""
    upper_result = induction.price_european(game, payoff, Side.UPPER)
    lower_result = induction.price_european(game, payoff, Side.LOWER)
    upper, lower = upper_result.price, lower_result.price

    failures: list[tuple[str, float, float, float]] = []

    def expect(name: str, got: float, want: float, tol: float) -> None:
        if not (got <= want + tol and want <= got + tol):
            failures.append((name, got, want, tol))

    def expect_le(name: str, small: float, large: float, tol: float) -> None:
        if small > large + tol:
            failures.append((name, small, large, tol))

    problem = lp.build_problem(game, payoff)
    expect("lp_upper", lp.solve_side(problem, Side.UPPER), upper, 1e-9)
    expect("lp_lower", lp.solve_side(problem, Side.LOWER), lower, 1e-9)

    expect("dual_upper", lp.dual_side(game, problem, Side.UPPER), upper, 1e-9)
    expect("dual_lower", lp.dual_side(game, problem, Side.LOWER), lower, 1e-9)

    negated = induction.price_european(game, negate_payoff(payoff), Side.UPPER).price
    expect("reciprocity", lower, -negated, 1e-12)
    expect_le("order", lower, upper, 1e-12)

    prices = bounds_mod.binomial_prices(game, payoff).values()
    expect_le("binomial_vs_upper", max(prices), upper, 1e-9)
    expect_le("binomial_vs_lower", lower, min(prices), 1e-9)
    expect_le("convex_concave", upper, bounds_mod.convex_concave_bound(payoff, game), 1e-9)

    convex_part, _ = bounds_mod.split_convex_concave(payoff)
    convex_upper = induction.price_european(game, convex_part, Side.UPPER).price
    outer_pair = (game.moves.n_negative - 1, game.moves.n_positive - 1)
    expect(
        "convex_exact",
        convex_upper,
        bounds_mod.binomial_price(game, outer_pair, convex_part),
        1e-9,
    )

    for name, result in (("superreplication", upper_result),
                         ("subreplication", lower_result)):
        replay = check_replication(game, payoff, result.price, result.strategy, result.side)
        if not replay.passed:
            failures.append((name, replay.min_slack, 0.0, _REPLAY_TOL))

    audit = audit_measure(game, payoff, upper_result)
    if not audit.passed:
        failures.append(("measure_audit", audit.expectation, audit.price, _AUDIT_TOL))
    return failures


def fuzz_cross_routes(
    seed: int = 0, trials: int = 100, max_moves: int = 3, max_rounds: int = 3
) -> FuzzSummary:
    """Cross-check all pricing routes on ``trials`` random games of 2 to
    ``max_moves`` moves and 1 to ``max_rounds`` rounds.  Raises ValueError,
    before any trial, for limits whose largest game passes a budget of a
    check: the dual enumeration's or the LP's."""
    for name, value, least in (("trials", trials, 0), ("max_moves", max_moves, 2),
                               ("max_rounds", max_rounds, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    # Every count grows with both limits, so the largest game is the one to
    # check.  With k >= 2 moves (and, for the dual, >= 2 pairs), a game of
    # as many rounds, or internal nodes, as the largest budget has bits
    # passes every budget, so no count is built past that.
    bits = max(lp._DUAL_BUDGET, lp._MAX_ENTRIES).bit_length()
    rounds = min(max_rounds, bits)
    leaves = max_moves**rounds
    internal = (leaves - 1) // (max_moves - 1)
    pairs = (max_moves // 2) * ((max_moves + 1) // 2)
    for count, budget, what, unit in (
        (pairs ** min(internal, bits), lp._DUAL_BUDGET, "dual enumeration", "pair assignments"),
        (lp._tableau_cells(leaves, 1 + internal), lp._MAX_ENTRIES, "LP", "entries"),
    ):
        if count > budget:
            raise ValueError(f"max_moves={max_moves} and max_rounds={max_rounds} allow games whose "
                             f"{what} passes the budget of {budget} {unit}")
    summary = FuzzSummary(seed=seed, trials=trials)
    rng = random.Random(seed)
    for trial in range(trials):
        moves = _random_move_space(rng, max_moves)
        rounds = rng.randint(1, max_rounds)
        scale = 1.0 if rng.random() < 0.5 else 1.0 / math.sqrt(rounds)
        game = GameSpec(moves, rounds, scale)
        payoff = _random_piecewise(rng)
        for name, got, want, tol in _checks_for_trial(game, payoff):
            summary.failures.append(
                {
                    "trial": trial,
                    "check": name,
                    "got": got,
                    "want": want,
                    "tolerance": tol,
                    "moves": [str(a) for a in moves.members],
                    "rounds": rounds,
                    "scale": scale,
                    "payoff": payoff.breakpoints,
                }
            )
    return summary
