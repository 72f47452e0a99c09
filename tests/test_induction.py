from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
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
    price_european,
    price_path_dependent,
    price_pruned,
)
from gamehedge import induction
from gamehedge.lp import solve_side
from gamehedge.singlestep import PairTable, best_pair
from conftest import extract_measure, node_names, random_game, random_piecewise
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
    assert node_names(result, 0) == [(0, F(0))]
    assert (1, F(-1)) in node_names(result, 1) and (1, F(2)) in node_names(result, 1)
    assert (2, F(4)) in node_names(result, 2)
    # collapsed lattice: 2 rounds of {-1,1,2} reach 6 sums at round 2
    assert len(result.node_values[2]) == 6
    # the root's move 2 leads to the node named (1, 2)
    assert node_names(result, 1)[result.strategy.links[0][2, 0]] == (1, F(2))


def test_path_dependent_product():
    moves = MoveSpace.from_moves([-1, 1])
    game = GameSpec(moves, 2, 1.0)
    payoff = PathDependent(lambda p: p[0] * p[1])
    up = price_path_dependent(game, payoff, Side.UPPER)
    lo = price_path_dependent(game, payoff, Side.LOWER)
    assert up.price == pytest.approx(0.0, abs=1e-12)
    assert lo.price == pytest.approx(0.0, abs=1e-12)
    assert up.key_kind == "path"
    assert node_names(up, 0) == [()]
    assert (F(-1), F(1)) in node_names(up, 2)


def test_links_lead_to_the_node_of_each_move(butterfly):
    moves = MoveSpace.from_moves([-1, F(1, 3), F(1, 2), 2])
    game = GameSpec.scaled(moves, 4)
    pruned = price_pruned(game, butterfly, PruneSchedule(3))
    for result in (price_european(game, butterfly, Side.LOWER),
                   price_path_dependent(game, butterfly, Side.UPPER), pruned):
        for n, links in enumerate(result.strategy.links):
            parents, children = node_names(result, n), node_names(result, n + 1)
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
                assert node_names(pruned, n + 1)[links[m, i]][2] == (pair if inherits else None)


def test_path_dependent_budget(monkeypatch):
    moves = MoveSpace.from_moves([-1, 1, 2])
    payoff = PathDependent(lambda p: 0.0)
    with pytest.raises(BudgetError, match="budget of 10000000"):
        price_path_dependent(GameSpec(moves, 15, 1.0), payoff, Side.UPPER)
    monkeypatch.setattr(induction, "_TREE_BUDGET", 3**4)
    assert price_path_dependent(GameSpec(moves, 4, 1.0), payoff, Side.UPPER).price == 0.0
    with pytest.raises(BudgetError, match="243 leaves exceed the budget of 81"):
        price_path_dependent(GameSpec(moves, 5, 1.0), payoff, Side.UPPER)


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
    assert node_names(result, 3)[0] == (3, F(-3))


# --- forward lattice builder -------------------------------------------------

LATTICE_SPACES = {
    "tri": [-1, 1, 2],
    "five": [-1, F(1, 3), F(1, 2), F(2, 3), 2],
    "zero": [-1, 0, 1, 2],
    "sparse": [-1, F(1, 997), F(2, 991)],
}
# _DENSE values that send every round through one branch of the union
BRANCHES = {"auto": induction._DENSE, "bitmap": 10**12, "unique": 0}


def _oracle_union(candidates):
    """The construction the bitmap union replaced: np.unique, then searchsorted."""
    level = np.unique(candidates)
    return level, np.searchsorted(level, candidates)


def _oracle_lattice(deltas, rounds):
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(rounds):
        levels.append(np.unique(levels[-1][:, None] + deltas))
    return levels, [np.searchsorted(levels[n + 1], levels[n] + deltas[:, None])
                    for n in range(rounds)]


def _branch_rounds(space: str, branch: str) -> tuple[int, ...]:
    # a bitmap over the sparse space's range grows by ~10^6 cells a round
    return (1, 5) if (space, branch) == ("sparse", "bitmap") else (1, 5, 50)


def _assert_same_result(got, want):
    assert got.price.hex() == want.price.hex()
    assert got.key_kind == want.key_kind and got.prune_period == want.prune_period
    float_arrays = zip(got.node_values + got.strategy.positions,
                       want.node_values + want.strategy.positions)
    for a, b in float_arrays:
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    for a, b in zip(got.measure + got.strategy.links, want.measure + want.strategy.links):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for n in range(len(want.node_values)):
        assert got.keys(n) == want.keys(n)


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("space", LATTICE_SPACES)
def test_forward_lattice_matches_unique_and_searchsorted(monkeypatch, space, branch):
    monkeypatch.setattr(induction, "_DENSE", BRANCHES[branch])
    moves = MoveSpace.from_moves(LATTICE_SPACES[space])
    rounds = max(_branch_rounds(space, branch))
    denom, levels, links = induction._forward_lattice(moves, rounds)
    assert denom == math.lcm(*(a.denominator for a in moves.members))
    deltas = np.array([int(a * denom) for a in moves.members], dtype=np.int64)
    want_levels, want_links = _oracle_lattice(deltas, rounds)
    assert len(levels) == rounds + 1 and len(links) == rounds
    for level, want in zip(levels, want_levels):
        assert level.dtype == want.dtype and np.array_equal(level, want)
    for link, want in zip(links, want_links):
        assert link.dtype == want.dtype and np.array_equal(link, want)


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("space", LATTICE_SPACES)
def test_prices_match_the_unique_construction(monkeypatch, space, branch, butterfly):
    moves = MoveSpace.from_moves(LATTICE_SPACES[space])
    for rounds in _branch_rounds(space, branch):
        game = GameSpec.scaled(moves, rounds)
        periods = sorted({1, 3, rounds})
        monkeypatch.setattr(induction, "_union", _oracle_union)
        want = [price_european(game, butterfly, side) for side in Side]
        want += [price_pruned(game, butterfly, PruneSchedule(q)) for q in periods]
        monkeypatch.undo()
        monkeypatch.setattr(induction, "_DENSE", BRANCHES[branch])
        got = [price_european(game, butterfly, side) for side in Side]
        got += [price_pruned(game, butterfly, PruneSchedule(q)) for q in periods]
        for a, b in zip(got, want):
            _assert_same_result(a, b)


def test_pruned_route_reads_the_builders_links(monkeypatch, butterfly):
    """The pruned backward pass finds no child by search: it reads the
    links the forward-lattice builder returned for grow's blocks."""
    games = [GameSpec.scaled(MoveSpace.from_moves(moves), 7) for moves in LATTICE_SPACES.values()]
    periods = (1, 2, 3, 7)
    want = [price_pruned(game, butterfly, PruneSchedule(q)) for game in games for q in periods]

    def refuse(*args, **kwargs):
        raise AssertionError("np.searchsorted called")

    monkeypatch.setattr(np, "searchsorted", refuse)
    got = [price_pruned(game, butterfly, PruneSchedule(q)) for game in games for q in periods]
    for a, b in zip(got, want):
        _assert_same_result(a, b)


def _grown_lattice(moves, rounds, grow):
    """The forward lattice as node groups: ``grow(n, groups, deltas)``
    gives the candidate sums of round n+1, one array per group; returns
    (denom, levels, links), per round the groups' sorted sums and each
    candidate's position in its group."""
    denom = math.lcm(*(a.denominator for a in moves.members))
    deltas = np.array([int(a * denom) for a in moves.members], dtype=np.int64)
    levels, links = [[np.zeros(1, dtype=np.int64)]], []
    for n in range(rounds):
        level, link = zip(*map(induction._union, grow(n, levels[n], deltas)))
        levels.append(level)
        links.append(link)
    return denom, levels, links


def _grouped_pruned(game, payoff, schedule):
    """The pruned route as it was before its states became rows over the
    exact lattice: the builder grows one group of sums per inherited pair,
    and each group's pair is priced with a one-row pair table."""
    moves, rounds = game.moves, game.rounds
    q = schedule.period
    pairs = PairTable.of(moves)
    every_pair = range(len(pairs.nodes))
    ends = np.stack([pairs.neg, pairs.pos])

    def only(p):
        rows = slice(p, p + 1)
        return dataclasses.replace(pairs, nodes=pairs.nodes[rows], neg=pairs.neg[rows],
                                   pos=pairs.pos[rows], w_neg=pairs.w_neg[rows],
                                   w_pos=pairs.w_pos[rows], span=pairs.span[rows])

    def inherits(n):
        return n % q != 0 and n != rounds

    def offered(n, level):
        return list(level) if inherits(n) else [level[0]] * len(every_pair)

    def grow(n, level, deltas):
        blocks = [sums + deltas[ends[:, p], None] for p, sums in zip(every_pair, offered(n, level))]
        return blocks if inherits(n + 1) else [np.concatenate(blocks, axis=1)]

    denom, levels, links = _grown_lattice(moves, rounds, grow)

    terminal = values = induction.leaf_payoffs(game, payoff, levels[rounds][0])
    steps = []
    for n in range(rounds - 1, -1, -1):
        starts = np.cumsum([0] + [len(sums) for sums in levels[n + 1]])
        children = np.split(np.concatenate([s + link for s, link in zip(starts, links[n])], axis=1),
                            np.cumsum([len(sums) for sums in offered(n, levels[n])])[:-1], axis=1)
        choices = ([([p], only(p), block[:, None]) for p, block in zip(every_pair, children)]
                   if inherits(n) else [(every_pair, pairs, np.stack(children, axis=1))])
        parts = []
        for numbers, table, kids in choices:
            best, index, slope = best_pair(*values[kids], table, Side.UPPER)
            cols = np.arange(kids.shape[-1])
            link = np.full((moves.size, len(cols)), -1)
            link[table.neg[index], cols], link[table.pos[index], cols] = kids[:, index, cols]
            parts.append((best, np.array(numbers)[index], slope, link))
        steps.append(tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*parts)))
        values = steps[-1][0]

    def keys(n):
        tags = ["{},{}".format(*node.pair) for node in pairs.nodes] if inherits(n) else ["remax"]
        return [f"{n}|{F(s, denom)}|{tag}"
                for tag, sums in zip(tags, levels[n]) for s in sums.tolist()]

    return induction._result(Side.UPPER, pairs, terminal, steps, keys, "pruned", q)


@pytest.mark.parametrize("space, rounds", [(space, rounds) for space in LATTICE_SPACES
                                           for rounds in (1, 2, 5, 12)] + [("tri", 50)])
def test_pruned_rows_match_the_node_groups(space, rounds, butterfly):
    game = GameSpec.scaled(MoveSpace.from_moves(LATTICE_SPACES[space]), rounds)
    for q in sorted({1, 2, 3, rounds}):
        schedule = PruneSchedule(q)
        _assert_same_result(price_pruned(game, butterfly, schedule),
                            _grouped_pruned(game, butterfly, schedule))


def test_union_branch_follows_density(monkeypatch, butterfly):
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: calls.append(1) or unique(*args, **kwargs))
    for space in ("tri", "five", "zero"):
        price_european(GameSpec.scaled(MoveSpace.from_moves(LATTICE_SPACES[space]), 50),
                       butterfly, Side.UPPER)
    assert calls == []
    price_european(GameSpec.scaled(MoveSpace.from_moves(LATTICE_SPACES["sparse"]), 5),
                   butterfly, Side.UPPER)
    assert len(calls) == 5


def test_lattice_budget(monkeypatch, trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 3)
    for price in (lambda: price_european(game, butterfly, Side.UPPER),
                  lambda: price_pruned(game, butterfly, PruneSchedule(2))):
        kept = sum(map(len, price().node_values))
        monkeypatch.setattr(induction, "_LATTICE_BUDGET", kept)
        price()
        monkeypatch.setattr(induction, "_LATTICE_BUDGET", kept - 1)
        # the forward pass stops before any payoff is evaluated
        monkeypatch.setattr(induction, "leaf_payoffs", None)
        with pytest.raises(BudgetError,
                           match=f"^{kept} lattice nodes after 3 rounds exceed the budget of {kept - 1}$"):
            price()
        monkeypatch.undo()


def test_lattice_budget_counts_the_exact_lattice_of_the_pruned_route(monkeypatch, butterfly):
    # at q=N the five-move game keeps 102 pruned states over an exact
    # lattice of 221 nodes: the lattice the pruned rows lie on is refused
    game = GameSpec.scaled(MoveSpace.from_moves(LATTICE_SPACES["five"]), 6)
    pruned = sum(map(len, price_pruned(game, butterfly, PruneSchedule(6)).node_values))
    exact = np.cumsum([len(v) for v in price_european(game, butterfly, Side.UPPER).node_values])
    assert (pruned, exact[-1]) == (102, 221)
    monkeypatch.setattr(induction, "_LATTICE_BUDGET", pruned)
    n = int(np.argmax(exact > pruned))
    with pytest.raises(BudgetError,
                       match=f"^{exact[n]} lattice nodes after {n} rounds exceed the budget of {pruned}$"):
        price_pruned(game, butterfly, PruneSchedule(6))
