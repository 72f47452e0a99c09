from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from gamehedge import (
    BudgetError,
    Butterfly,
    Call,
    GameSpec,
    MoveSpace,
    PathDependent,
    PruneSchedule,
    Side,
    binomial_prices,
    build_problem,
    extract_measure,
    price_european,
    price_path_dependent,
    price_pruned,
)
from gamehedge.lp import solve_side
from conftest import random_game, random_piecewise
from test_singlestep import step_strategy


def test_one_step_reduction(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    values = {a: butterfly(float(a)) for a in trinomial.members}
    assert result.price == step_strategy(trinomial, values, Side.UPPER)[0]


def test_butterfly_n20_upper_lower(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 20)
    assert price_european(game, butterfly, Side.UPPER).price == pytest.approx(0.3824, abs=5e-5)
    assert price_european(game, butterfly, Side.LOWER).price == pytest.approx(0.1926, abs=5e-5)


def test_constant_payoff(trinomial):
    from gamehedge import PiecewiseLinear

    payoff = PiecewiseLinear(((0.0, 3.25),))
    game = GameSpec.scaled(trinomial, 12)
    result = price_european(game, payoff, Side.UPPER)
    assert result.price == pytest.approx(3.25, abs=1e-12)
    assert all(abs(m) <= 1e-12 for p in result.strategy.positions for m in p)


def test_node_keys_are_exact_sums(trinomial, butterfly):
    game = GameSpec(trinomial, 2, 1.0)
    result = price_european(game, butterfly, Side.UPPER)
    assert result.names(0) == [(0, F(0))]
    assert (1, F(-1)) in result.names(1) and (1, F(2)) in result.names(1)
    assert (2, F(4)) in result.names(2)
    # collapsed lattice: 2 rounds of {-1,1,2} reach 6 sums at round 2
    assert len(result.node_values[2]) == 6
    # the root's move 2 leads to the node named (1, 2)
    assert result.names(1)[result.strategy.links[0][2, 0]] == (1, F(2))


def test_path_dependent_product():
    moves = MoveSpace.from_moves([-1, 1])
    game = GameSpec(moves, 2, 1.0)
    payoff = PathDependent(lambda p: p[0] * p[1])
    up = price_path_dependent(game, payoff, Side.UPPER)
    lo = price_path_dependent(game, payoff, Side.LOWER)
    assert up.price == pytest.approx(0.0, abs=1e-12)
    assert lo.price == pytest.approx(0.0, abs=1e-12)
    assert up.key_kind == "path"
    assert up.names(0) == [()]
    assert (F(-1), F(1)) in up.names(2)


def test_links_lead_to_the_node_of_each_move(butterfly):
    moves = MoveSpace.from_moves([-1, F(1, 3), F(1, 2), 2])
    game = GameSpec.scaled(moves, 4)
    pruned = price_pruned(game, butterfly, PruneSchedule(3))
    for result in (price_european(game, butterfly, Side.LOWER),
                   price_path_dependent(game, butterfly, Side.UPPER), pruned):
        for n, links in enumerate(result.strategy.links):
            parents, children = result.names(n), result.names(n + 1)
            for m, a in enumerate(moves.members):
                for parent, j in zip(parents, links[m].tolist()):
                    if j < 0:
                        continue
                    if result.key_kind == "path":
                        assert children[j] == parent + (a,)
                    else:
                        assert children[j][:2] == (n + 1, parent[1] + a)
    # a pruned node links exactly its extremal pair's two moves, into that
    # pair's group where the next round inherits it
    for n, links in enumerate(pruned.strategy.links):
        inherits = (n + 1) % 3 != 0 and n + 1 < game.rounds
        for i, row in enumerate(pruned.measure[n].tolist()):
            pair = pruned.pairs[row].pair
            linked = [m for m in range(moves.size) if links[m, i] >= 0]
            assert linked == [moves.n_negative - 1 - pair[0], moves.n_negative + pair[1]]
            for m in linked:
                assert pruned.names(n + 1)[links[m, i]][2] == (pair if inherits else None)


def test_path_dependent_budget():
    moves = MoveSpace.from_moves([-1, 1, 2])
    game = GameSpec(moves, 20, 1.0)
    payoff = PathDependent(lambda p: 0.0)
    with pytest.raises(BudgetError):
        price_path_dependent(game, payoff, Side.UPPER, budget=10**6)


def test_european_on_full_tree_collapses(trinomial, butterfly):
    # pricing a European claim on the full tree must match the lattice
    game = GameSpec.scaled(trinomial, 8)
    lattice = price_european(game, butterfly, Side.UPPER).price
    tree = price_path_dependent(game, butterfly, Side.UPPER).price
    assert tree == pytest.approx(lattice, abs=1e-12)

    rng = random.Random(3)
    for _ in range(5):
        payoff = random_piecewise(rng)
        game = random_game(rng, max_rounds=5)
        a = price_european(game, payoff, Side.LOWER).price
        b = price_path_dependent(game, payoff, Side.LOWER).price
        assert a == pytest.approx(b, abs=1e-12)


def test_european_rejects_path_dependent(trinomial):
    game = GameSpec(trinomial, 2, 1.0)
    with pytest.raises(ValueError):
        price_european(game, PathDependent(lambda p: 0.0), Side.UPPER)


def test_reciprocity():
    from gamehedge import negate_payoff

    rng = random.Random(5)
    for _ in range(25):
        game = random_game(rng, max_rounds=4)
        payoff = random_piecewise(rng)
        lower = price_european(game, payoff, Side.LOWER).price
        upper_neg = price_european(game, negate_payoff(payoff), Side.UPPER).price
        assert lower == pytest.approx(-upper_neg, abs=1e-12)


def test_lower_never_exceeds_upper():
    rng = random.Random(9)
    for _ in range(25):
        game = random_game(rng, max_rounds=4)
        payoff = random_piecewise(rng)
        assert (
            price_european(game, payoff, Side.LOWER).price
            <= price_european(game, payoff, Side.UPPER).price + 1e-12
        )


def test_agrees_with_lp(trinomial, butterfly):
    for rounds in (1, 2, 3):
        game = GameSpec.scaled(trinomial, rounds)
        for side in Side:
            assert price_european(game, butterfly, side).price == pytest.approx(
                solve_side(build_problem(game, butterfly), side), abs=1e-9
            )


def test_extract_measure_one_step(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    measure = extract_measure(price_european(game, butterfly, Side.UPPER), game)
    # the argmax pair is (-1, 1) with exact half-half weights; 2 is unsupported
    assert measure == {(F(-1),): F(1, 2), (F(1),): F(1, 2)}


def test_extract_measure_is_probability():
    rng = random.Random(21)
    for _ in range(10):
        game = random_game(rng, max_rounds=4)
        payoff = random_piecewise(rng)
        result = price_european(game, payoff, Side.UPPER)
        measure = extract_measure(result, game)
        assert sum(measure.values(), F(0)) == 1
        expectation = math.fsum(
            float(p) * payoff(game.payoff_scale * float(sum(path, F(0))))
            for path, p in measure.items()
        )
        assert expectation == pytest.approx(result.price, abs=1e-10)


def test_extract_measure_path_and_pruned_kinds(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 4)
    for result in (
        price_path_dependent(game, butterfly, Side.UPPER),
        price_pruned(game, butterfly, PruneSchedule(2)),
    ):
        measure = extract_measure(result, game)
        assert sum(measure.values(), F(0)) == 1
        expectation = math.fsum(
            float(p) * butterfly(game.payoff_scale * float(sum(path, F(0))))
            for path, p in measure.items()
        )
        assert expectation == pytest.approx(result.price, abs=1e-10)


# --- pruned induction -------------------------------------------------------


def test_pruned_period_one_is_exact(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 10)
    exact = price_european(game, butterfly, Side.UPPER).price
    pruned = price_pruned(game, butterfly, PruneSchedule(1))
    assert pruned.price == exact
    assert pruned.prune_period == 1


def test_pruned_never_exceeds_exact(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 20)
    exact = price_european(game, butterfly, Side.UPPER).price
    for q in (2, 3, 5, 10):
        assert price_pruned(game, butterfly, PruneSchedule(q)).price <= exact + 1e-12


def test_pruned_regression_values(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 20)
    expected = {
        2: 0.3746359436692798,
        5: 0.3527987475979659,
        10: 0.3398873032391379,
    }
    for q, value in expected.items():
        assert price_pruned(game, butterfly, PruneSchedule(q)).price == pytest.approx(
            value, abs=1e-12
        )


def test_pruned_full_period_is_best_binomial(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 20)
    bound = max(binomial_prices(game, butterfly).values())
    assert price_pruned(game, butterfly, PruneSchedule(20)).price == pytest.approx(
        bound, abs=1e-12
    )

    rng = random.Random(29)
    for _ in range(10):
        game = random_game(rng, max_rounds=5)
        payoff = random_piecewise(rng)
        bound = max(binomial_prices(game, payoff).values())
        full = price_pruned(game, payoff, PruneSchedule(game.rounds)).price
        assert full == pytest.approx(bound, abs=1e-12)


def test_prune_schedule_validation(trinomial, butterfly):
    with pytest.raises(ValueError):
        PruneSchedule(0)
    game = GameSpec(trinomial, 2, 1.0)
    with pytest.raises(ValueError):
        price_pruned(game, PathDependent(lambda p: 0.0), PruneSchedule(1))


# --- lattice levels ----------------------------------------------------------


def _states_per_round(result, rounds: int) -> list[int]:
    counts = [len(values) for values in result.node_values]
    assert len(counts) == rounds + 1
    return counts


def test_levels_count_bound():
    # generic (incommensurable) moves meet the stars-and-bars count exactly
    moves = MoveSpace.from_moves([F(-1), F(1, 7), F(9, 11)])
    game = GameSpec(moves, 4, 1.0)
    result = price_european(game, Call(0.0), Side.UPPER)
    for n, count in enumerate(_states_per_round(result, game.rounds)):
        assert count == math.comb(n + moves.size - 1, moves.size - 1)

    # commensurable moves can only collide down from that bound
    tri = MoveSpace.from_moves([-1, 1, 2])
    game = GameSpec(tri, 6, 1.0)
    result = price_european(game, Call(0.0), Side.UPPER)
    for n, count in enumerate(_states_per_round(result, game.rounds)):
        assert count <= math.comb(n + 2, 2)


def test_lattice_sums_past_int64_are_refused():
    # 5 * 2^61 would wrap the all-down sum to 3; the tree route keeps such
    # sums exact (test_replay.py::test_sums_past_int64_are_exact)
    moves = MoveSpace.from_moves([F(-1), F(1, 2**61)])
    game = GameSpec(moves, 5, 1.0)
    with pytest.raises(ValueError, match="int64"):
        price_european(game, Call(0.0), Side.UPPER)
    with pytest.raises(ValueError, match="int64"):
        price_pruned(game, Call(0.0), PruneSchedule(2))
    # 3 * 2^61 still fits
    result = price_european(GameSpec(moves, 3, 1.0), Call(0.0), Side.UPPER)
    assert result.names(3)[0] == (3, F(-3))
