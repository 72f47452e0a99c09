from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gamehedge import (
    Butterfly,
    GameSpec,
    MoveSpace,
    PathDependent,
    PiecewiseLinear,
    PruneSchedule,
    Put,
    Side,
    Strategy,
    audit_measure,
    check_superreplication,
    fuzz_cross_routes,
    price_european,
    price_path_dependent,
    price_pruned,
    verify,
)
from conftest import measure_walk, payoff_value_on_path, random_game, random_piecewise
from test_golden import BUTTERFLY, KINKED, _moves, asian_lookback


# --- superreplication replay --------------------------------------------------


@pytest.mark.parametrize("rounds", [1, 3, 5, 8])
def test_optimal_strategy_superreplicates_and_is_tight(trinomial, butterfly, rounds):
    game = GameSpec.scaled(trinomial, rounds)
    result = price_european(game, butterfly, Side.UPPER)
    report = check_superreplication(game, butterfly, result.price, result.strategy)
    assert report.paths_checked == 3**rounds
    assert report.passed
    # the optimum leaves no slack to spare on the worst path
    assert -1e-9 <= report.min_slack <= 1e-9


def test_undercapitalized_strategy_fails(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_european(game, butterfly, Side.UPPER)
    for shortfall in (0.01, 1e-5):
        report = check_superreplication(
            game, butterfly, result.price - shortfall, result.strategy
        )
        assert not report.passed
        assert report.min_slack == pytest.approx(-shortfall, abs=1e-9)


def test_zero_strategy_needs_the_maximum(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    paths = list(itertools.product(trinomial.members, repeat=2))
    alpha = max(payoff_value_on_path(butterfly, 1.0, p) for p in paths)
    links = price_european(game, butterfly, Side.UPPER).strategy.links
    strategy = Strategy((np.zeros(1), np.zeros(3)), links)
    report = check_superreplication(game, butterfly, alpha, strategy)
    assert report.passed
    assert report.min_slack == 0.0
    assert payoff_value_on_path(butterfly, 1.0, report.worst_path) == alpha


def test_path_strategy_replays(trinomial):
    def lookback(path: tuple[float, ...]) -> float:
        running = 0.0
        best = 0.0
        for x in path:
            running += x
            best = max(best, running)
        return best

    payoff = PathDependent(lookback, label="lookback")
    game = GameSpec.scaled(trinomial, 3)
    result = price_path_dependent(game, payoff, Side.UPPER)
    report = check_superreplication(game, payoff, result.price, result.strategy)
    assert report.passed
    assert -1e-9 <= report.min_slack <= 1e-9


def test_replay_tolerance_is_the_module_constant(monkeypatch, trinomial, butterfly):
    game = GameSpec(trinomial, 3, 1.0)
    for side, sign in ((Side.UPPER, -1.0), (Side.LOWER, 1.0)):
        result = price_european(game, butterfly, side)
        for miss, passed in ((1e-10, True), (1e-8, False)):
            alpha = result.price + sign * miss
            assert verify.check_replication(game, butterfly, alpha, result.strategy,
                                            side).passed is passed
        monkeypatch.setattr(verify, "_REPLAY_TOL", 0.0)
        alpha = result.price + sign * 1e-10
        assert not verify.check_replication(game, butterfly, alpha, result.strategy, side).passed
        monkeypatch.undo()


def test_missing_link_is_reported(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    links = [link.copy() for link in result.strategy.links]
    links[1][1, 2] = -1
    strategy = replace(result.strategy, links=tuple(links))
    with pytest.raises(ValueError, match="no link for a move at round 1"):
        check_superreplication(game, butterfly, result.price, strategy)
    # a strategy of another game does not fit, rather than indexing silently
    longer = GameSpec(trinomial, 3, 1.0)
    with pytest.raises(ValueError, match="the game has 3"):
        check_superreplication(longer, butterfly, result.price, result.strategy)
    links = [link.copy() for link in result.strategy.links]
    links[0][1, 0] = 3
    strategy = replace(result.strategy, links=tuple(links))
    with pytest.raises(ValueError, match="do not fit its nodes and those of round 1"):
        check_superreplication(game, butterfly, result.price, strategy)


def test_nan_positions_fail_the_replay(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    nan = tuple(np.full_like(p, np.nan) for p in result.strategy.positions)
    report = check_superreplication(game, butterfly, result.price,
                                    replace(result.strategy, positions=nan))
    assert math.isnan(report.min_slack)
    assert not report.passed


def test_pruned_strategies_are_refused(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_pruned(game, butterfly, PruneSchedule(2))
    with pytest.raises(ValueError, match="not superhedging certificates"):
        check_superreplication(game, butterfly, result.price, result.strategy)


# --- measure audits -----------------------------------------------------------


def test_audit_one_step(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    audit = audit_measure(game, butterfly, result)
    assert audit.passed
    assert audit.total_probability == 1
    assert audit.nodes_checked == 1
    assert audit.expectation == pytest.approx(0.25, abs=1e-12)


def test_audit_random_games():
    rng = random.Random(71)
    for _ in range(5):
        game = random_game(rng)
        payoff = random_piecewise(rng)
        for side in (Side.UPPER, Side.LOWER):
            result = price_european(game, payoff, side)
            audit = audit_measure(game, payoff, result)
            assert audit.passed, (game, payoff, side)
            assert audit.total_probability == 1


def test_audit_pruned_measure(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    result = price_pruned(game, butterfly, PruneSchedule(2))
    audit = audit_measure(game, butterfly, result)
    assert audit.passed
    assert audit.expectation == pytest.approx(result.price, abs=1e-10)


def test_audit_detects_price_corruption(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 3)
    result = price_european(game, butterfly, Side.UPPER)
    corrupted = replace(result, price=result.price + 1e-3)
    assert not audit_measure(game, butterfly, corrupted).passed
    assert not audit_measure(game, butterfly, replace(result, price=math.nan)).passed


def _walk_audit(game, payoff, result) -> tuple[bool, Fraction, float]:
    """(passed, total probability, expectation) of the path-walk audit that
    the node pass replaced: the exact checks at every visited node, and
    f on every supported path at its exact probability."""
    total, terms, passed = Fraction(0), [], True
    for path, prob, node in measure_walk(result, game):
        if node is None:
            total += prob
            terms.append(float(prob) * payoff_value_on_path(payoff, game.payoff_scale, path))
            continue
        a_neg, a_pos = game.moves.pair_moves(*node.pair)
        passed = passed and (node.prob_neg >= 0 and node.prob_pos >= 0
                             and node.prob_neg + node.prob_pos == 1
                             and a_neg * node.prob_neg + a_pos * node.prob_pos == 0)
    expectation = math.fsum(terms)
    passed = passed and total == 1 and abs(expectation - result.price) <= verify._AUDIT_TOL
    return passed, total, expectation


def _every_route(game, payoff, tree: bool = True):
    """Results of the lattice and tree routes on both sides, and of the
    pruned route at q = 1, 2, 3 (European payoffs only on the lattice)."""
    if not isinstance(payoff, PathDependent):
        for side in Side:
            yield price_european(game, payoff, side)
        for q in (1, 2, 3):
            yield price_pruned(game, payoff, PruneSchedule(q))
    for side in Side if tree else ():
        yield price_path_dependent(game, payoff, side)


def _assert_audits_agree(game, payoff, result) -> None:
    audit = audit_measure(game, payoff, result)
    passed, total, expectation = _walk_audit(game, payoff, result)
    assert audit.passed == passed
    assert audit.total_probability == total
    assert abs(audit.expectation - expectation) <= 1e-13


GOLDEN_GAMES = {  # the move spaces and payoffs of tests/test_golden.py
    "-1,0,1,2 N=6": (GameSpec(_moves("-1,0,1,2"), 6, 0.5), KINKED),
    "-1,1/3,1/2,2/3,2 N=8": (GameSpec.scaled(_moves("-1,1/3,1/2,2/3,2"), 8), BUTTERFLY),
    "-1,1/997,2/991 N=6": (GameSpec(_moves("-1,1/997,2/991"), 6, 1.0), KINKED),
    "-1,0,1,2 N=5 path": (GameSpec.scaled(_moves("-1,0,1,2"), 5), PathDependent(asian_lookback)),
    "-1,1,2 N=8": (GameSpec.scaled(_moves("-1,1,2"), 8), BUTTERFLY),
    "-1,1/3,1/2,2/3,2 N=5": (GameSpec.scaled(_moves("-1,1/3,1/2,2/3,2"), 5), KINKED),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GAMES))
def test_node_audit_matches_the_walk_on_the_golden_games(name):
    game, payoff = GOLDEN_GAMES[name]
    # the larger trees are left to the lattice
    for result in _every_route(game, payoff, tree=game.moves.size**game.rounds <= 4**6):
        _assert_audits_agree(game, payoff, result)
        assert audit_measure(game, payoff, result).passed


def test_node_audit_matches_the_walk_on_random_games():
    rng = random.Random(23)
    for _ in range(25):
        game = random_game(rng, max_rounds=4, max_moves=4)
        payoff = random_piecewise(rng)
        for result in _every_route(game, payoff):
            _assert_audits_agree(game, payoff, result)
            # a pair row with a nonzero mean fails both audits: mass moves to
            # the negative end, so the row still sums to 1
            node = result.pairs[result.measure[0][0]]
            shifted = replace(node, prob_neg=node.prob_neg + node.prob_pos / 2,
                              prob_pos=node.prob_pos / 2)
            bad = replace(result, pairs=tuple(shifted if p is node else p for p in result.pairs))
            _assert_audits_agree(game, payoff, bad)
            assert not audit_measure(game, payoff, bad).passed


def test_nodes_checked_counts_the_live_internal_nodes(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 6)
    lattice = price_european(game, butterfly, Side.UPPER)
    tree = price_path_dependent(game, butterfly, Side.UPPER)
    internal = [path for path, _, node in measure_walk(lattice, game) if node is not None]
    sums = {(len(path), sum(path)) for path in internal}
    assert audit_measure(game, butterfly, lattice).nodes_checked == len(sums) < len(internal)
    assert audit_measure(game, butterfly, tree).nodes_checked == len(internal)


def _corrupt(result, n, array, index, value):
    """A copy of result with one entry of its round-n measure or links set."""
    measure, links = list(result.measure), list(result.strategy.links)
    arrays = measure if array == "measure" else links
    arrays[n] = arrays[n].copy()
    arrays[n][index] = value
    return replace(result, measure=tuple(measure),
                   strategy=replace(result.strategy, links=tuple(links)))


def test_audit_fails_a_bad_pair_row(butterfly):
    game = GameSpec.scaled(MoveSpace.from_moves([-1, 1, 2, 3]), 3)
    result = price_european(game, butterfly, Side.UPPER)
    used = result.measure[0][0]
    node = result.pairs[used]
    for prob_neg, prob_pos in ((node.prob_neg + Fraction(1, 10), node.prob_pos - Fraction(1, 10)),
                               (node.prob_neg + 1, node.prob_pos - 1),
                               (node.prob_neg, node.prob_pos + Fraction(1, 10)),
                               (2 * node.prob_neg, 2 * node.prob_pos)):  # zero mean, sum 2
        rows = list(result.pairs)
        rows[used] = replace(node, prob_neg=prob_neg, prob_pos=prob_pos)
        audit = audit_measure(game, butterfly, replace(result, pairs=tuple(rows)))
        assert not audit.passed
        assert audit.total_probability == prob_neg + prob_pos
    # every row is checked, used or not, but an unused row moves no mass
    unused = next(p for p in range(len(result.pairs))
                  if all(p not in measure for measure in result.measure))
    node = result.pairs[unused]
    for prob_neg, prob_pos in ((2 * node.prob_neg, 2 * node.prob_pos),  # zero mean, sum 2
                               (node.prob_neg + Fraction(1, 10), node.prob_pos - Fraction(1, 10))):
        rows = list(result.pairs)
        rows[unused] = replace(node, prob_neg=prob_neg, prob_pos=prob_pos)
        audit = audit_measure(game, butterfly, replace(result, pairs=tuple(rows)))
        assert not audit.passed
        assert audit.total_probability == 1


def test_audit_refuses_rows_and_links_out_of_range(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 3)
    result = price_european(game, butterfly, Side.UPPER)
    # numpy would read row -1 as the last pair row
    with pytest.raises(ValueError, match="measure of round 1 names a pair row out of range"):
        audit_measure(game, butterfly, _corrupt(result, 1, "measure", 0, -1))
    with pytest.raises(ValueError, match="measure of round 0 names a pair row out of range"):
        audit_measure(game, butterfly, _corrupt(result, 0, "measure", 0, len(result.pairs)))
    # node 0 of every round is live: the root's pair has a negative move
    for n, value in ((0, len(result.measure[1])), (0, -1), (1, len(result.measure[2])), (2, -1),
                     (2, len(result.node_values[3]))):
        pos_move = trinomial.n_negative + result.pairs[result.measure[n][0]].pair[1]
        bad = _corrupt(result, n, "links", (pos_move, 0), value)
        with pytest.raises(ValueError, match=f"links of round {n} leave the nodes"):
            audit_measure(game, butterfly, bad)


def test_audit_skips_the_links_of_zero_weight_moves():
    # the lower put(0) on -1,0,1 takes the pair (-1, 0), whose -1 has weight 0
    game = GameSpec(MoveSpace.from_moves([-1, 0, 1]), 1, 1.0)
    result = price_european(game, Put(0.0), Side.LOWER)
    assert result.pairs[result.measure[0][0]].prob_neg == 0
    assert audit_measure(game, Put(0.0), _corrupt(result, 0, "links", (0, 0), -1)).passed
    with pytest.raises(ValueError, match="links of round 0 leave the nodes"):
        audit_measure(game, Put(0.0), _corrupt(result, 0, "links", (1, 0), -1))


@pytest.mark.parametrize("payoff", [Butterfly(-0.5, 0.5, 1.5), PiecewiseLinear(((0.0, 1.0),))])
def test_audit_fails_a_redirected_link(trinomial, payoff):
    game = GameSpec.scaled(trinomial, 3)
    for result in (price_european(game, payoff, Side.UPPER),
                   price_path_dependent(game, payoff, Side.UPPER),
                   price_pruned(game, payoff, PruneSchedule(2))):
        i, j = result.pairs[result.measure[0][0]].pair
        neg_move, pos_move = trinomial.n_negative - 1 - i, trinomial.n_negative + j
        # the root's positive move now lands on its negative child
        target = result.strategy.links[0][neg_move, 0]
        bad = _corrupt(result, 0, "links", (pos_move, 0), target)
        assert audit_measure(game, payoff, result).passed
        audit = audit_measure(game, payoff, bad)
        assert not audit.passed
        if isinstance(payoff, PiecewiseLinear):
            # a flat payoff keeps the expectation at the price: only the states differ
            assert abs(audit.expectation - result.price) <= 1e-12


def test_pruned_audit_reads_its_own_price(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 200)
    pruned = price_pruned(game, butterfly, PruneSchedule(5))
    upper = price_european(game, butterfly, Side.UPPER).price
    audit = audit_measure(game, butterfly, pruned)
    assert audit.passed and audit.total_probability == 1
    assert abs(audit.expectation - pruned.price) <= 1e-12
    # a martingale measure of the full game bounds the upper price from below
    assert audit.expectation < upper - 1e-3


def test_audit_sums_past_int64_stay_exact(butterfly):
    # a common denominator of 2**62 takes the sums past int64, so the lattice
    # refuses the game; the tree prices it and the audit sums Python ints
    game = GameSpec(MoveSpace.from_moves([-1, Fraction(1, 2**62), 3]), 3, 1.0)
    with pytest.raises(ValueError, match="overflow the lattice's int64 sums"):
        price_european(game, butterfly, Side.UPPER)
    for side in Side:
        result = price_path_dependent(game, butterfly, side)
        assert audit_measure(game, butterfly, result).passed
        _assert_audits_agree(game, butterfly, result)


# --- fuzz harness -------------------------------------------------------------


def test_fuzz_clean_run():
    summary = fuzz_cross_routes(seed=0, trials=40)
    assert summary.passed
    assert summary.failures == []
    assert summary.trials == 40


def _corrupt_upper_prices(monkeypatch) -> None:
    """Shift every upper-side induction price the fuzz harness sees by 1e-3."""
    price_european = verify.induction.price_european

    def shifted(game, payoff, side):
        result = price_european(game, payoff, side)
        return replace(result, price=result.price + 1e-3) if side is Side.UPPER else result

    monkeypatch.setattr(verify.induction, "price_european", shifted)


def test_fuzz_detects_corruption(monkeypatch):
    _corrupt_upper_prices(monkeypatch)
    summary = fuzz_cross_routes(seed=0, trials=5)
    assert not summary.passed
    known = {
        "lp_upper", "dual_upper", "reciprocity", "order",
        "binomial_vs_upper", "convex_concave", "convex_exact", "measure_audit",
        "lp_lower", "dual_lower", "binomial_vs_lower",
        "superreplication", "subreplication",
    }
    assert {f["check"] for f in summary.failures} <= known
    # every trial must notice a 1e-3 shift in the upper price
    assert {f["trial"] for f in summary.failures} == set(range(5))


def test_fuzz_zero_trials():
    summary = fuzz_cross_routes(seed=123, trials=0)
    assert summary.passed and summary.trials == 0


def test_fuzz_seed_reproducible(monkeypatch):
    _corrupt_upper_prices(monkeypatch)
    a = fuzz_cross_routes(seed=7, trials=3)
    b = fuzz_cross_routes(seed=7, trials=3)
    assert a.failures == b.failures


def test_fuzz_limits_are_respected():
    summary = fuzz_cross_routes(seed=3, trials=10, max_moves=2, max_rounds=1)
    assert summary.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -5}, "trials must be >= 0, got -5"),
    ({"max_moves": 1}, "max_moves must be >= 2, got 1"),
    ({"max_rounds": 0}, "max_rounds must be >= 1, got 0"),
])
def test_fuzz_refuses_bad_counts(kwargs, message):
    with pytest.raises(ValueError, match=message):
        fuzz_cross_routes(seed=0, **kwargs)


@pytest.mark.parametrize("max_moves, max_rounds", [(4, 3), (6, 2), (3, 4), (10**6, 10**9)])
def test_fuzz_refuses_limits_past_the_dual_budget(monkeypatch, max_moves, max_rounds):
    # no game may be drawn: the refusal comes before the first trial
    monkeypatch.setattr(verify, "_random_move_space", None)
    with pytest.raises(ValueError, match=f"^max_moves={max_moves} and max_rounds={max_rounds} "
                                         "allow games whose dual enumeration passes the budget "
                                         "of 1000000 pair assignments$"):
        fuzz_cross_routes(seed=0, trials=1, max_moves=max_moves, max_rounds=max_rounds)


@pytest.mark.parametrize("budget, value, max_moves, max_rounds, message", [
    # one pair, so the dual check passes; 2**40 x 2**40 LP entries do not
    (None, None, 2, 40, "LP passes the budget of 20000000 entries"),
    (None, None, 2, 13, "LP passes the budget of 20000000 entries"),
    (None, None, 2, 10**9, "LP passes the budget of 20000000 entries"),
])
def test_fuzz_refuses_limits_past_the_check_budgets(monkeypatch, budget, value, max_moves,
                                                    max_rounds, message):
    if budget is not None:
        monkeypatch.setattr(verify, budget, value)
    # no game may be drawn: the refusal comes before the first trial
    monkeypatch.setattr(verify, "_random_move_space", None)
    with pytest.raises(ValueError, match=f"^max_moves={max_moves} and max_rounds={max_rounds} "
                                         f"allow games whose {message}$"):
        fuzz_cross_routes(seed=0, trials=1, max_moves=max_moves, max_rounds=max_rounds)


def test_fuzz_limits_at_the_check_budgets_run():
    # the largest (2, 11) game has a 2048 x 2048 LP, whose tableau of 2048 x 4097
    # cells fits the LP budget; only the limits are checked
    fuzz_cross_routes(seed=0, trials=0, max_moves=2, max_rounds=11)
    assert fuzz_cross_routes(seed=0, trials=10, max_moves=3, max_rounds=3).passed


def test_fuzz_limits_at_the_dual_budget_run(monkeypatch):
    # the largest (5, 2) game has 2 x 3 pairs and 6 internal nodes: 6**6 assignments
    assert fuzz_cross_routes(seed=0, trials=3, max_moves=5, max_rounds=2).passed
    assert fuzz_cross_routes(seed=0, trials=3, max_moves=4, max_rounds=2).passed
    monkeypatch.setattr(verify.lp, "_DUAL_BUDGET", 6**6)
    fuzz_cross_routes(seed=0, trials=0, max_moves=5, max_rounds=2)
    monkeypatch.setattr(verify.lp, "_DUAL_BUDGET", 6**6 - 1)
    with pytest.raises(ValueError, match="budget of 46655 pair"):
        fuzz_cross_routes(seed=0, trials=0, max_moves=5, max_rounds=2)
