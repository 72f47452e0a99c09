from __future__ import annotations

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
from gamehedge.lp import dump_dense, path_payoff_vector, solve_side
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


@pytest.mark.parametrize("members, rounds, payoff, side, want", [
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
])
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


def test_dual_enumeration_guards():
    moves = MoveSpace.from_moves([-1, 1, 2])
    with pytest.raises(BudgetError):
        dual_vertex_enumerate(moves, 5, np.zeros(3**5), budget=10**3)
    with pytest.raises(ValueError):
        dual_vertex_enumerate(moves, 2, np.zeros(5))


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
