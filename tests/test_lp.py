from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from gamehedge import (
    BudgetError,
    Call,
    GameSpec,
    InfeasibleError,
    LpProblem,
    MoveSpace,
    PiecewiseLinear,
    Side,
    UnboundedError,
    build_matrix,
    build_problem,
    dual_vertex_enumerate,
    negate_payoff,
    price_european,
    solve_min,
)
from gamehedge import lp, verify
from gamehedge.lp import dump_dense, solve_side
from gamehedge.model import path_payoff_vector
from conftest import random_game, random_piecewise


def test_one_step_matrix(trinomial):
    problem = build_matrix(trinomial, 1)
    assert problem.variable_names == ["alpha", "M1"]
    np.testing.assert_allclose(
        problem.constraints, [[1, -1], [1, 1], [1, 2]]
    )


def test_two_step_matrix_rows(trinomial):
    problem = build_matrix(trinomial, 2)
    assert problem.shape == (9, 5)
    assert problem.variable_names == ["alpha", "M1", "M2|a1", "M2|a2", "M2|a3"]
    rows = problem.constraints
    # path (a1, a1): alpha + M1*a1 + M2|a1*a1
    np.testing.assert_allclose(rows[0], [1, -1, -1, 0, 0])
    # path (a2, a1): alpha + M1*a2 + M2|a2*a1
    np.testing.assert_allclose(rows[3], [1, 1, 0, -1, 0])
    # path (a3, a3): alpha + M1*a3 + M2|a3*a3
    np.testing.assert_allclose(rows[8], [1, 2, 0, 0, 2])


def test_matrix_shape_formula():
    for k, rounds in [(2, 4), (3, 3), (4, 3)]:
        members = [F(-1)] + [F(t) for t in range(1, k)]
        moves = MoveSpace.from_moves(members)
        problem = build_matrix(moves, rounds)
        assert problem.shape == (k**rounds, 1 + (k**rounds - 1) // (k - 1))


def test_square_binomial_system():
    moves = MoveSpace.from_moves([-1, 1])
    problem = build_matrix(moves, 10)
    assert problem.shape == (1024, 1024)


def test_matrix_budget():
    moves = MoveSpace.from_moves([-1, 1, 2])
    with pytest.raises(BudgetError):
        build_matrix(moves, 13)
    # the budget counts tableau cells: 2048 x (2048 + 2048 + 1) fit in 2e7,
    # 4096 x (4096 + 4096 + 1) do not, though the 4096 x 4096 matrix would
    binomial = MoveSpace.from_moves([-1, 1])
    assert build_matrix(binomial, 11).shape == (2048, 2048)
    with pytest.raises(BudgetError, match="tableau of 33558528 cells exceeds 20000000"):
        build_matrix(binomial, 12)


def test_solve_one_step_butterfly(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    optimum, x = solve_min(build_problem(game, butterfly))
    assert optimum == pytest.approx(0.25, abs=1e-9)
    # alpha is the first variable
    assert x[0] == pytest.approx(0.25, abs=1e-9)


def test_constant_rhs_prices_to_constant(trinomial):
    problem = build_matrix(trinomial, 2)
    problem.rhs = np.full(9, 1.75)
    optimum, x = solve_min(problem)
    assert optimum == pytest.approx(1.75, abs=1e-9)
    assert np.allclose(x[1:], 0.0, atol=1e-9)


def test_unbounded_detected():
    # all-positive move column: pushing M up drives alpha to -infinity
    problem = LpProblem(
        objective=np.array([1.0, 0.0]),
        constraints=np.array([[1.0, 1.0], [1.0, 2.0]]),
        rhs=np.array([0.0, 0.0]),
        variable_names=["alpha", "M1"],
    )
    with pytest.raises(UnboundedError):
        solve_min(problem)


def test_infeasible_detected():
    problem = LpProblem(
        objective=np.array([0.0]),
        constraints=np.array([[0.0]]),
        rhs=np.array([1.0]),
        variable_names=["x"],
    )
    with pytest.raises(InfeasibleError):
        solve_min(problem)


def test_redundant_rows_are_harmless(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    base = build_problem(game, butterfly)
    doubled = LpProblem(
        objective=base.objective,
        constraints=np.vstack([base.constraints, base.constraints[:1]]),
        rhs=np.concatenate([base.rhs, base.rhs[:1]]),
        variable_names=base.variable_names,
    )
    optimum, _ = solve_min(doubled)
    assert optimum == pytest.approx(0.25, abs=1e-9)


def test_lp_matches_induction(trinomial, butterfly):
    for rounds in (1, 2, 3):
        game = GameSpec.scaled(trinomial, rounds)
        want_up = price_european(game, butterfly, Side.UPPER).price
        want_lo = price_european(game, butterfly, Side.LOWER).price
        problem = build_problem(game, butterfly)
        assert solve_side(problem, Side.UPPER) == pytest.approx(want_up, abs=1e-9)
        assert solve_side(problem, Side.LOWER) == pytest.approx(want_lo, abs=1e-9)


def test_lower_side_is_the_lp_of_the_negated_payoff():
    # negating a piecewise-linear payoff is exact, so solving the built
    # problem with rhs negated is the LP of -f bit for bit
    rng = random.Random(41)
    for _ in range(10):
        game = random_game(rng, max_rounds=3)
        payoff = random_piecewise(rng)
        lower = solve_side(build_problem(game, payoff), Side.LOWER)
        negated, _ = solve_min(build_problem(game, negate_payoff(payoff)))
        assert lower == -negated


NOISE_GAMES = [
    # tableau column entries of ~1.6e-11, just above pivot_tol: pivoting on
    # them returned a point 2e-3 infeasible
    (
        [-6, -5, F(3, 2)], 3,
        PiecewiseLinear(
            ((-1.125, 0.9315010606917724), (-0.25, 1.561538338360971),
             (0.25, 0.8968592978145686), (2.0, 0.5856488194993603)),
            0.7628364080102563, -0.4866790256438014,
        ),
        Side.UPPER, -0.8746250491904568,
    ),
    # a reduced cost of noise size entered the basis: the parent returned an
    # infeasible point, a floor on the pivot alone a false unbounded verdict
    (
        [F(-1, 2), 0, 1, 4], 4,
        PiecewiseLinear(
            ((-1.0, 1.6867347710795415), (1.625, -1.2223082412178186)),
            -0.4780725241993453, 0.46787373856799475,
        ),
        Side.LOWER, 0.4540569289797345,
    ),
]


@pytest.mark.parametrize("members, rounds, payoff, side, want", NOISE_GAMES)
def test_simplex_ignores_noise_sized_entries(members, rounds, payoff, side, want):
    game = GameSpec(MoveSpace.from_moves(members), rounds, 1.0)
    assert price_european(game, payoff, side).price == want
    assert solve_side(build_problem(game, payoff), side) == pytest.approx(want, abs=1e-9)


def test_lp_matches_scipy_linprog():
    # scipy is an independent implementation; use it as an extra oracle
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(31)
    for _ in range(10):
        game = random_game(rng, max_rounds=3)
        payoff = random_piecewise(rng)
        problem = build_problem(game, payoff)
        ours, _ = solve_min(problem)
        reference = linprog(
            problem.objective,
            A_ub=-problem.constraints,
            b_ub=-problem.rhs,
            bounds=[(None, None)] * problem.shape[1],
            method="highs",
        )
        assert reference.success
        assert ours == pytest.approx(reference.fun, abs=1e-9)


def test_dual_enumeration_matches_primal():
    rng = random.Random(37)
    for _ in range(10):
        game = random_game(rng, max_rounds=3)
        payoff = random_piecewise(rng)
        values = path_payoff_vector(game, payoff)
        dual = dual_vertex_enumerate(game.moves, game.rounds, values)
        primal, _ = solve_min(build_problem(game, payoff))
        assert dual == pytest.approx(primal, abs=1e-9)


def test_dual_enumeration_binomial_is_single_assignment():
    moves = MoveSpace.from_moves([-1, 1])
    game = GameSpec(moves, 3, 1.0)
    payoff = Call(0.0)
    values = path_payoff_vector(game, payoff)
    dual = dual_vertex_enumerate(moves, 3, values)
    # only one pair exists, so this is the plain binomial expectation
    from gamehedge import binomial_price

    assert dual == pytest.approx(binomial_price(game, (0, 0), payoff), abs=1e-12)


def test_budget_counts_tableau_cells(trinomial, monkeypatch):
    # the 3 x 2 matrix has a tableau of 2 rows and 3 + 2 + 1 columns
    monkeypatch.setattr(lp, "_MAX_ENTRIES", 2 * 6)
    assert build_matrix(trinomial, 1).shape == (3, 2)
    monkeypatch.setattr(lp, "_MAX_ENTRIES", 11)
    with pytest.raises(BudgetError, match="^LP of 3 rows x 2 columns: its tableau of 12 "
                                          "cells exceeds 11 entries$"):
        build_matrix(trinomial, 1)


def test_dual_enumeration_guards(monkeypatch):
    moves = MoveSpace.from_moves([-1, 1, 2])
    with pytest.raises(ValueError):
        dual_vertex_enumerate(moves, 2, np.zeros(5))
    with pytest.raises(BudgetError, match="budget of 1000000"):
        dual_vertex_enumerate(moves, 4, np.zeros(3**4))
    # two pairs and 4 internal nodes at N=2: 16 assignments
    monkeypatch.setattr(lp, "_DUAL_BUDGET", 16)
    assert dual_vertex_enumerate(moves, 2, np.zeros(9)) == 0.0
    monkeypatch.setattr(lp, "_DUAL_BUDGET", 15)
    with pytest.raises(BudgetError, match="16 pair assignments exceed the budget of 15"):
        dual_vertex_enumerate(moves, 2, np.zeros(9))


def test_solution_satisfies_constraints(trinomial, butterfly):
    game = GameSpec.scaled(trinomial, 3)
    problem = build_problem(game, butterfly)
    optimum, x = solve_min(problem)
    slack = problem.constraints @ x - problem.rhs
    assert slack.min() >= -1e-9
    assert optimum == pytest.approx(x[0], abs=1e-12)


def test_dump_dense(trinomial, butterfly):
    game = GameSpec(trinomial, 1, 1.0)
    text = dump_dense(build_problem(game, butterfly))
    lines = text.strip().splitlines()
    assert lines[0] == "MIN rows=3 cols=2"
    assert lines[1] == "VARS alpha M1"
    assert len(lines) == 2 + 1 + 3  # header, vars, obj, three rows
    assert all(line.startswith("GE ") for line in lines[3:])


# --- the block pivot against the row loop it replaced ------------------------


def _loop_pivot(tableau, basis, row, col):
    """The dense row loop that lp._pivot replaced, kept as its oracle."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _scan_simplex(tableau, basis, cost, max_iter):
    """lp._simplex as it was: a ratio test over every row, pivots by _loop_pivot."""
    n_cost = cost.shape[0]
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ tableau[:, :n_cost]
        candidates = np.nonzero(reduced < -lp._noise_floor(reduced))[0]
        if candidates.size == 0:
            return
        entering = int(candidates[0])
        column = tableau[:, entering]
        floor = lp._noise_floor(column)
        best_row = -1
        best_ratio = np.inf
        for r in range(tableau.shape[0]):
            coef = column[r]
            if coef > floor:
                ratio = tableau[r, -1] / coef
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (best_row < 0 or basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row < 0:
            raise UnboundedError("objective is unbounded below")
        lp._pivot(tableau, basis, best_row, entering)
    raise RuntimeError("simplex did not terminate within the iteration cap")


def _traced_solve(problem, side, oracle):
    """(pivots, float.hex of the optimum, float.hex of every entry of x) of
    one side, by lp's simplex or by the oracle's."""
    pivots = []
    pivot = _loop_pivot if oracle else lp._pivot

    def traced(tableau, basis, row, col):
        pivots.append((row, col))
        pivot(tableau, basis, row, col)

    rhs = problem.rhs if side is Side.UPPER else -problem.rhs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_pivot", traced)
        if oracle:
            patch.setattr(lp, "_simplex", _scan_simplex)
        optimum, x = solve_min(LpProblem(problem.objective, problem.constraints, rhs,
                                         problem.variable_names))
    return pivots, optimum.hex(), [float(v).hex() for v in x]


def _fuzz_problems(seed, trials=100):
    """The LPs of the fuzz harness's games, drawn as fuzz_cross_routes draws them."""
    rng = random.Random(seed)
    for _ in range(trials):
        moves = verify._random_move_space(rng, 3)
        rounds = rng.randint(1, 3)
        scale = 1.0 if rng.random() < 0.5 else 1.0 / math.sqrt(rounds)
        yield build_problem(GameSpec(moves, rounds, scale), verify._random_piecewise(rng))


def _assert_same_solves(problems):
    for problem in problems:
        for side in Side:
            got = _traced_solve(problem, side, oracle=False)
            assert got == _traced_solve(problem, side, oracle=True)
            assert got[0], "no pivot was made"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_pivot_matches_row_loop_on_fuzz_games(seed):
    _assert_same_solves(_fuzz_problems(seed))


# the benchmark's crosscheck LP payoff (seed 101) on the trinomial, diffusive scale
MIXED = PiecewiseLinear(((-0.5, 0.4375), (0.25, 1.421875), (1.0, 0.4375)), -0.4375, 0.0)


@pytest.mark.parametrize("rounds", [2, 3, 4, 5])
def test_block_pivot_matches_row_loop_on_mixed_payoff(trinomial, rounds):
    _assert_same_solves([build_problem(GameSpec.scaled(trinomial, rounds), MIXED)])


@pytest.mark.parametrize("members, rounds, payoff, side, want", NOISE_GAMES)
def test_block_pivot_matches_row_loop_on_noise_games(members, rounds, payoff, side, want):
    _assert_same_solves([build_problem(GameSpec(MoveSpace.from_moves(members), rounds, 1.0),
                                       payoff)])


@pytest.mark.parametrize("group_cells", [1, 9, 1 << 14])
def test_block_pivot_on_a_hand_built_tableau(monkeypatch, group_cells):
    # 1 and 9 cells put one and two rows in a group: the later groups read
    # their pivot-column entries after the earlier groups were written
    monkeypatch.setattr(lp, "_PIVOT_CELLS", group_cells)
    # Signed zeros as -np.eye and -matrix make them, exact zeros in the pivot
    # row (columns 1, 3 and 5) and in the pivot column (row 3), and a -0.0
    # rhs in the pivot row.  The block pivot skips the columns where the
    # pivot row is +-0; the loop subtracts a signed zero there, which can
    # only turn a -0.0 into +0.0, never change a value.  So every entry is
    # == to the loop's, and no decision of the simplex can differ: each test
    # it makes treats +-0 alike (!= 0.0, np.nonzero, > floor, < -floor,
    # abs(...) > _PIVOT_TOL, the ratio comparisons).  The rhs column, where
    # x is read, is updated in every row the loop updates, signs included.
    tableau = np.array([
        [2.0, -0.0, 1.5, 0.0, -3.0, -0.0, -0.0],
        [3.0, -0.0, -1.0, -0.0, 0.5, 1.0, -0.0],
        [-4.0, 1.0, -0.0, 2.0, -0.0, -1.0, 2.0],
        [0.0, -0.0, 7.0, -1.0, 1.0, -0.0, 3.0],
        [-0.0, 2.5, 1.0, -0.0, -0.0, 0.0, -0.0],
    ])
    for row, col in [(0, 0), (1, 2), (2, 3), (4, 1)]:
        got, want = tableau.copy(), tableau.copy()
        got_basis, want_basis = [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]
        lp._pivot(got, got_basis, row, col)
        _loop_pivot(want, want_basis, row, col)
        assert got_basis == want_basis
        assert (got == want).all()
        assert (np.signbit(got[:, -1]) == np.signbit(want[:, -1])).all()
    # pivoting on (0, 0), the loop makes +0.0 of row 1's -0.0 in column 1
    # (-0.0 - 3 * -0.0) and in the rhs; the block pivot leaves column 1 as it
    # was and makes the same +0.0 in the rhs
    got, want = tableau.copy(), tableau.copy()
    lp._pivot(got, [0] * 5, 0, 0)
    _loop_pivot(want, [0] * 5, 0, 0)
    assert np.signbit(got[1, 1]) and not np.signbit(want[1, 1])
    assert not np.signbit(got[1, -1]) and not np.signbit(want[1, -1])


# --- the dual-form solve against the primal it replaced ----------------------


def _primal_solve_min(problem):
    """lp.solve_min as it was, kept as the oracle of the dual form: the primal
    itself, each free variable split as x = u - v and a surplus per row,
    giving [A | -A | -I] z = b with z >= 0 and one artificial per row."""
    matrix = np.asarray(problem.constraints, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    obj = np.asarray(problem.objective, dtype=float)
    n_rows, n_free = matrix.shape
    max_iter = 2000 + 50 * (n_rows + 2 * n_free)

    n_std = 2 * n_free + n_rows  # u, v, surplus
    system = np.hstack([matrix, -matrix, -np.eye(n_rows)])
    cost = np.concatenate([obj, -obj, np.zeros(n_rows)])

    flip = rhs < 0
    system[flip] *= -1.0
    b = np.where(flip, -rhs, rhs)

    tableau = np.hstack([system, np.eye(n_rows), b.reshape(-1, 1)])
    basis = [n_std + r for r in range(n_rows)]
    phase1_cost = np.concatenate([np.zeros(n_std), np.ones(n_rows)])
    lp._simplex(tableau, basis, phase1_cost, max_iter)
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-9:
        raise InfeasibleError("phase 1 ended with positive artificial mass")

    keep = []
    for r in range(tableau.shape[0]):
        if basis[r] >= n_std:
            col = next(
                (j for j in range(n_std) if abs(tableau[r, j]) > lp._PIVOT_TOL), None
            )
            if col is None:
                continue
            lp._pivot(tableau, basis, r, col)
        keep.append(r)
    tableau = tableau[keep]
    basis = [basis[r] for r in keep]

    tableau = np.hstack([tableau[:, :n_std], tableau[:, -1:]])
    lp._simplex(tableau, basis, cost, max_iter)

    z = np.zeros(n_std)
    for r, b_var in enumerate(basis):
        z[b_var] = tableau[r, -1]
    x = z[:n_free] - z[n_free : 2 * n_free]

    slack = matrix @ x - rhs
    if slack.min(initial=0.0) < -1e-9:
        raise RuntimeError(f"solver returned an infeasible point (slack {slack.min()})")
    return float(obj @ x), x


def _solve_with_measure(problem):
    """(optimum, x, p) of solve_min, p the dual's optimal weights, one per
    row, read from the tableau of the last simplex phase."""
    final = []
    simplex = lp._simplex

    def spy(tableau, basis, cost, max_iter):
        simplex(tableau, basis, cost, max_iter)
        final[:] = [tableau, basis]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_simplex", spy)
        optimum, x = solve_min(problem)
    tableau, basis = final
    p = np.zeros(problem.shape[0])
    p[basis] = tableau[:, -1]
    return optimum, x, p


def _assert_dual_matches_primal(problems):
    for problem in problems:
        for side in Side:
            rhs = problem.rhs if side is Side.UPPER else -problem.rhs
            sided = LpProblem(problem.objective, problem.constraints, rhs,
                              problem.variable_names)
            optimum, x, p = _solve_with_measure(sided)
            assert optimum == pytest.approx(_primal_solve_min(sided)[0], rel=1e-12)
            assert optimum == pytest.approx(x[0], abs=1e-12)
            # p is a martingale measure on the paths: A^T p = e_0, p >= 0
            assert p.min() >= -1e-15
            assert np.abs(problem.constraints.T @ p - problem.objective).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_form_matches_primal_on_random_games(seed):
    rng = random.Random(seed)
    _assert_dual_matches_primal(
        build_problem(random_game(rng, max_rounds=4), random_piecewise(rng)) for _ in range(25)
    )


@pytest.mark.parametrize("rounds", [4, 5])
def test_dual_form_matches_primal_on_mixed_payoff(trinomial, rounds):
    _assert_dual_matches_primal([build_problem(GameSpec.scaled(trinomial, rounds), MIXED)])


# --- the one-pass matrix against the Kronecker recursion it replaced ---------


def _kronecker_matrix(moves, rounds):
    """build_matrix's matrix and names as they were built before, kept as its
    oracle: A_1 = [1 | a] and A_N = [1 | Ahat_{N-1} (x) 1_k | I_{k^{N-1}} (x) a],
    where a is the column of moves and Ahat drops the leading 1-column."""
    k = moves.size
    a = np.array([float(x) for x in moves.members]).reshape(k, 1)
    labels = [f"a{t + 1}" for t in range(k)]
    matrix = np.hstack([np.ones((k, 1)), a])
    names = ["alpha", "M1"]
    for n in range(2, rounds + 1):
        matrix = np.hstack([
            np.ones((k**n, 1)),
            np.kron(matrix[:, 1:], np.ones((k, 1))),
            np.kron(np.eye(k ** (n - 1)), a),
        ])
        names = names + [
            "M%d|%s" % (n, "".join(labels[c] for c in prefix))
            for prefix in itertools.product(range(k), repeat=n - 1)
        ]
    return matrix, names


@pytest.mark.parametrize("members, rounds", [
    ("-1,1,2", 1), ("-1,1,2", 4), ("-1,0,1,2", 3), ("-1,1/3,1/2,2/3,2", 3),
    ("-1,1", 10), ("-1,1,2", 7), ("-2,-1/2,0,3", 4), ("-1/3,5/7", 8),
])
def test_matrix_matches_the_kronecker_recursion(members, rounds):
    moves = MoveSpace.from_moves(members.split(","))
    problem = build_matrix(moves, rounds)
    matrix, names = _kronecker_matrix(moves, rounds)
    # bit for bit: from N=2 on, 0 x a is -0.0 under a negative move, in both
    assert np.array_equal(problem.constraints.view(np.int64), matrix.view(np.int64))
    assert rounds == 1 or (np.signbit(matrix) & (matrix == 0.0)).any()
    assert problem.variable_names == names
    assert problem.objective.tolist() == [1.0] + [0.0] * (len(names) - 1)
    assert problem.rhs.tolist() == [0.0] * matrix.shape[0]
