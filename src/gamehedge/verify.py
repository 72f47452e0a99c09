"""Independent checks: superreplication by brute force, exact measure
audits, and a seeded fuzz harness that cross-checks every pricing route.

Nothing here reuses the induction shortcut being checked: the
superreplication checker replays the strategy on every path, the measure
audit recomputes conditional moments in exact arithmetic, and the fuzz
harness compares induction, LP, brute-force dual enumeration, binomial
bounds and the structural inequalities on random games.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bounds_mod
from . import induction, lp
from .model import (
    BudgetError,
    GameSpec,
    MoveSpace,
    Payoff,
    PiecewiseLinear,
    PriceResult,
    Side,
    negate_payoff,
    node_key,
    payoff_value_on_path,
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


def _detect_kind(strategy) -> str:
    if () in strategy:
        return "path"
    if (0, Fraction(0)) in strategy:
        return "lattice"
    if (0, Fraction(0), None) in strategy:
        return "pruned"
    raise ValueError("strategy has no recognizable root key")


def check_superreplication(
    game: GameSpec,
    payoff: Payoff,
    alpha: float,
    strategy,
    tolerance: float = 1e-9,
    budget: int = 10**7,
) -> VerificationReport:
    """Replay a strategy on every path and report the worst slack.

    The slack on a path is alpha + sum_n M_n * x_n - f(path); the strategy
    superreplicates from alpha iff the minimum slack is >= -tolerance.
    Strategy keys may be lattice or path shaped (detected from the root
    key); pruned strategies are refused because a pruned value is only a
    lower bound on the upper price, not a superhedging level.
    """
    moves, rounds, scale = game.moves, game.rounds, game.payoff_scale
    leaves = moves.size**rounds
    if leaves > budget:
        raise BudgetError(f"{leaves} paths exceed the budget of {budget}")
    kind = _detect_kind(strategy)
    if kind == "pruned":
        raise ValueError("pruned strategies are not superhedging certificates")
    members = moves.members
    member_floats = [float(a) for a in members]

    min_slack = math.inf
    worst: tuple[Fraction, ...] = ()
    checked = 0
    # stack entries: (round, exact sum, path, capital, inherited pair tag)
    stack: list[tuple[int, Fraction, tuple, float, tuple | None]] = [
        (0, Fraction(0), (), 0.0, None)
    ]
    while stack:
        n, s, path, capital, tag = stack.pop()
        if n == rounds:
            value = payoff_value_on_path(payoff, scale, path)
            slack = alpha + capital - value
            checked += 1
            if slack < min_slack:
                min_slack, worst = slack, path
            continue
        key = node_key(kind, n, s, path, tag)
        try:
            position = strategy[key]
        except KeyError:
            raise ValueError(f"strategy is missing the node key {key!r}") from None
        for a, fa in zip(members, member_floats):
            stack.append((n + 1, s + a, path + (a,), capital + position * fa, None))
    return VerificationReport(
        min_slack=min_slack,
        worst_path=worst,
        paths_checked=checked,
        passed=min_slack >= -tolerance,
    )


def check_replication(
    game: GameSpec,
    payoff: Payoff,
    alpha: float,
    strategy,
    side: Side,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Replay a strategy of the given side from alpha on every path.

    An UPPER strategy must superreplicate f.  A LOWER strategy M must
    subreplicate it (alpha + sum M.x <= f everywhere), which is the same
    statement as -M superreplicating -f from -alpha, so that is what is
    replayed; the slacks are reported on that negated problem.
    """
    if side is Side.UPPER:
        return check_superreplication(game, payoff, alpha, strategy, tolerance)
    negated = {key: -m for key, m in strategy.items()}
    return check_superreplication(game, negate_payoff(payoff), -alpha, negated, tolerance)


def audit_measure(game: GameSpec, payoff: Payoff, result: PriceResult,
                  tolerance: float = 1e-10) -> MeasureAudit:
    """Walk the extremal measure and verify it in exact arithmetic.

    Checks per node: probabilities nonnegative, summing to one exactly,
    with exactly zero mean (hence zero conditional expected capital
    increment).  Checks overall: path probabilities sum to one exactly and
    the measure's expected payoff reproduces the price within tolerance.
    """
    moves, scale = game.moves, game.payoff_scale
    nodes_checked = 0
    total = Fraction(0)
    expectation_terms: list[float] = []
    ok = True

    for path, prob, node in induction.measure_walk(result, game):
        if node is None:
            total += prob
            expectation_terms.append(float(prob) * payoff_value_on_path(payoff, scale, path))
            continue
        a_neg, a_pos = moves.pair_moves(*node.pair)
        nodes_checked += 1
        if node.prob_neg < 0 or node.prob_pos < 0:
            ok = False
        if node.prob_neg + node.prob_pos != 1:
            ok = False
        if a_neg * node.prob_neg + a_pos * node.prob_pos != 0:
            ok = False

    expectation = math.fsum(expectation_terms)
    if total != 1:
        ok = False
    if abs(expectation - result.price) > tolerance:
        ok = False
    return MeasureAudit(
        total_probability=total,
        expectation=expectation,
        price=result.price,
        nodes_checked=nodes_checked,
        passed=ok,
    )


# ---------------------------------------------------------------------------
# fuzz harness


@dataclass(frozen=True)
class FuzzLimits:
    max_moves: int = 3
    max_rounds: int = 3
    max_numerator: int = 6
    max_denominator: int = 4
    dual_budget: int = 10**6


def _random_move_space(rng: random.Random, limits: FuzzLimits) -> MoveSpace:
    k = rng.randint(2, limits.max_moves)
    n_neg = 1 if k == 2 else rng.randint(1, k - 1)
    n_pos = k - n_neg

    def draw_distinct(count: int) -> list[Fraction]:
        seen: set[Fraction] = set()
        while len(seen) < count:
            seen.add(
                Fraction(
                    rng.randint(1, limits.max_numerator),
                    rng.randint(1, limits.max_denominator),
                )
            )
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


def _checks_for_trial(game: GameSpec, payoff: Payoff, limits: FuzzLimits,
                      corrupt_price: float) -> list[tuple[str, float, float, float]]:
    """Run every cross-route comparison; returns (name, got, want, tol) rows
    for the ones that failed."""
    upper_result = induction.price_european(game, payoff, Side.UPPER)
    lower_result = induction.price_european(game, payoff, Side.LOWER)
    upper = upper_result.price + corrupt_price
    lower = lower_result.price

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

    dual_upper = lp.dual_vertex_enumerate(
        game.moves, game.rounds, problem.rhs, budget=limits.dual_budget
    )
    dual_lower = -lp.dual_vertex_enumerate(
        game.moves, game.rounds, -problem.rhs, budget=limits.dual_budget
    )
    expect("dual_upper", dual_upper, upper, 1e-9)
    expect("dual_lower", dual_lower, lower, 1e-9)

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
            failures.append((name, replay.min_slack, 0.0, 1e-9))

    audit = audit_measure(game, payoff, upper_result)
    if not audit.passed:
        failures.append(("measure_audit", audit.expectation, audit.price, 1e-10))
    return failures


def fuzz_cross_routes(
    seed: int = 0,
    trials: int = 100,
    limits: FuzzLimits | None = None,
    corrupt_price: float = 0.0,
) -> FuzzSummary:
    """Cross-check all pricing routes on random small games.

    ``corrupt_price`` deliberately shifts the induction price before the
    comparisons; passing a nonzero value must make trials fail (used to
    prove the harness can detect disagreement).
    """
    limits = limits or FuzzLimits()
    summary = FuzzSummary(seed=seed, trials=trials)
    rng = random.Random(seed)
    for trial in range(trials):
        moves = _random_move_space(rng, limits)
        rounds = rng.randint(1, limits.max_rounds)
        scale = 1.0 if rng.random() < 0.5 else 1.0 / math.sqrt(rounds)
        game = GameSpec(moves, rounds, scale)
        payoff = _random_piecewise(rng)
        for name, got, want, tol in _checks_for_trial(game, payoff, limits, corrupt_price):
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
