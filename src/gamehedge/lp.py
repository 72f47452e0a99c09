"""Direct linear-programming pricing route.

The upper price is the optimum of

    minimize alpha  subject to  alpha + sum_n M_n(history) * x_n >= f(path)

with one constraint per terminal path and one free variable per decision
node.  The constraint matrix is assembled by a Kronecker recursion:

    A_1 = [1 | a],    A_N = [1 | Ahat_{N-1} (x) 1_k | I_{k^{N-1}} (x) a]

where a is the column of moves, Ahat drops the leading 1-column, and rows
are ordered lexicographically by path.  Solved by a self-contained dense
two-phase simplex with Bland's rule; no external LP solver is involved.

``dual_vertex_enumerate`` is the matching brute-force dual bound: the
maximum of E_P[f] over every product measure built by choosing one basic
two-point measure per tree node.  It shares nothing with the induction
route, which is the point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    BudgetError,
    GameSpec,
    MoveSpace,
    Payoff,
    RiskNeutralNode,
    Side,
    payoff_value_on_path,
)


class InfeasibleError(RuntimeError):
    """The LP has no feasible point."""


class UnboundedError(RuntimeError):
    """The LP objective is unbounded below."""


@dataclass
class LpProblem:
    """min objective . x  subject to  constraints . x >= rhs, x free."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    variable_names: list[str]

    @property
    def shape(self) -> tuple[int, int]:
        return self.constraints.shape


def _move_labels(moves: MoveSpace) -> list[str]:
    return [f"a{t + 1}" for t in range(moves.size)]


def build_matrix(moves: MoveSpace, rounds: int, max_entries: int = 2 * 10**7) -> LpProblem:
    """Constraint matrix (rhs left at zero) for a ``rounds``-step game.

    Shape is k^N rows by 1 + (k^N - 1)/(k - 1) columns; raises BudgetError
    when rows*columns exceeds ``max_entries``.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    k = moves.size
    n_rows = k**rounds
    n_cols = 1 + (n_rows - 1) // (k - 1)
    if n_rows * n_cols > max_entries:
        raise BudgetError(
            f"LP of {n_rows} rows x {n_cols} columns exceeds {max_entries} entries"
        )
    # floats enter here, at the last moment; everything upstream is exact
    a = np.array([float(x) for x in moves.members]).reshape(k, 1)
    labels = _move_labels(moves)

    matrix = np.hstack([np.ones((k, 1)), a])
    names = ["alpha", "M1"]
    for n in range(2, rounds + 1):
        rows = k**n
        hollowed = matrix[:, 1:]
        matrix = np.hstack(
            [
                np.ones((rows, 1)),
                np.kron(hollowed, np.ones((k, 1))),
                np.kron(np.eye(k ** (n - 1)), a),
            ]
        )
        names = names + [
            "M%d|%s" % (n, "".join(labels[c] for c in prefix))
            for prefix in itertools.product(range(k), repeat=n - 1)
        ]
    return LpProblem(
        objective=np.eye(1, matrix.shape[1], 0).ravel(),
        constraints=matrix,
        rhs=np.zeros(matrix.shape[0]),
        variable_names=names,
    )


def path_payoff_vector(game: GameSpec, payoff: Payoff) -> np.ndarray:
    """Payoff at every terminal path, in the matrix row (lexicographic) order."""
    return np.array(
        [
            payoff_value_on_path(payoff, game.payoff_scale, path)
            for path in itertools.product(game.moves.members, repeat=game.rounds)
        ]
    )


def build_problem(game: GameSpec, payoff: Payoff, max_entries: int = 2 * 10**7) -> LpProblem:
    """Full upper-price LP for a game and payoff."""
    problem = build_matrix(game.moves, game.rounds, max_entries=max_entries)
    problem.rhs = path_payoff_vector(game, payoff)
    return problem


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _noise_floor(values: np.ndarray, pivot_tol: float) -> float:
    """Magnitude up to which entries of ``values`` count as zero.

    Elimination leaves noise of about pivot_tol times the largest entry;
    entering on a noise reduced cost, or pivoting on a noise coefficient,
    wrecks the tableau (an infeasible point, a false unbounded verdict, or
    no termination).
    """
    return 100.0 * pivot_tol * max(1.0, float(np.abs(values).max()))


def _simplex(
    tableau: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    pivot_tol: float,
    max_iter: int,
) -> None:
    """Primal simplex on a canonical tableau, Bland's rule (cannot cycle)."""
    n_cost = cost.shape[0]
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ tableau[:, :n_cost]
        candidates = np.nonzero(reduced < -_noise_floor(reduced, pivot_tol))[0]
        if candidates.size == 0:
            return
        entering = int(candidates[0])  # Bland: smallest improving index
        column = tableau[:, entering]
        floor = _noise_floor(column, pivot_tol)
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
        _pivot(tableau, basis, best_row, entering)
    raise RuntimeError("simplex did not terminate within the iteration cap")


def solve_min(
    problem: LpProblem, pivot_tol: float = 1e-11, max_iter: int | None = None
) -> tuple[float, np.ndarray]:
    """Solve min c.x s.t. A x >= b (x free); returns (optimum, x).

    Transcription to standard form: each free variable splits as x = u - v
    with u, v >= 0, each row gets a surplus variable, giving the equality
    system [A | -A | -I] z = b with z >= 0.  Phase 1 minimizes the sum of
    artificials to find a basic feasible point (rows with negative rhs are
    flipped first); artificials still basic at zero level are pivoted out
    or their rows dropped as redundant.  Phase 2 minimizes the objective
    with Bland's rule throughout.
    """
    matrix = np.asarray(problem.constraints, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    obj = np.asarray(problem.objective, dtype=float)
    n_rows, n_free = matrix.shape
    if max_iter is None:
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
    _simplex(tableau, basis, phase1_cost, pivot_tol, max_iter)
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-9:
        raise InfeasibleError("phase 1 ended with positive artificial mass")

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = []
    for r in range(tableau.shape[0]):
        if basis[r] >= n_std:
            col = next(
                (j for j in range(n_std) if abs(tableau[r, j]) > pivot_tol), None
            )
            if col is None:
                continue  # all-zero row: redundant constraint
            _pivot(tableau, basis, r, col)
        keep.append(r)
    tableau = tableau[keep]
    basis = [basis[r] for r in keep]

    tableau = np.hstack([tableau[:, :n_std], tableau[:, -1:]])
    _simplex(tableau, basis, cost, pivot_tol, max_iter)

    z = np.zeros(n_std)
    for r, b_var in enumerate(basis):
        z[b_var] = tableau[r, -1]
    x = z[:n_free] - z[n_free : 2 * n_free]

    slack = matrix @ x - rhs
    if slack.min(initial=0.0) < -1e-9:
        raise RuntimeError(f"solver returned an infeasible point (slack {slack.min()})")
    return float(obj @ x), x


def solve_side(problem: LpProblem, side: Side) -> float:
    """Hedging price of one side from the built upper-price LP.

    The lower price of f is minus the upper price of -f, whose LP is the
    same problem with the right-hand side negated.
    """
    if side is Side.UPPER:
        return solve_min(problem)[0]
    return -solve_min(replace(problem, rhs=-problem.rhs))[0]


def dual_vertex_enumerate(
    moves: MoveSpace, rounds: int, values, budget: int = 10**6
) -> float:
    """Max of E_P[f] over all products of basic two-point node measures.

    ``values`` lists f at the k^N terminal paths in lexicographic member
    order.  Every internal node of the full tree independently picks one of
    the l*m basic pairs, so (l*m)^{#internal nodes} assignments are scanned
    (in vectorized chunks); BudgetError if that count exceeds ``budget``.
    """
    k = moves.size
    n_pairs = moves.n_negative * moves.n_positive
    n_internal = (k**rounds - 1) // (k - 1)
    total = n_pairs**n_internal
    if total > budget:
        raise BudgetError(
            f"{total} pair assignments exceed the budget of {budget}"
        )
    leaf = np.asarray(values, dtype=float)
    if leaf.shape != (k**rounds,):
        raise ValueError(f"expected {k**rounds} terminal values, got {leaf.shape}")

    w_neg = np.empty(n_pairs)
    w_pos = np.empty(n_pairs)
    i_neg = np.empty(n_pairs, dtype=np.intp)
    i_pos = np.empty(n_pairs, dtype=np.intp)
    for t, (i, j) in enumerate(moves.pairs()):
        node = RiskNeutralNode.from_pair(moves, i, j)
        w_neg[t] = float(node.prob_neg)
        w_pos[t] = float(node.prob_pos)
        i_neg[t] = moves.n_negative - 1 - i
        i_pos[t] = moves.n_negative + j

    # breadth-first node numbering: node t at level n has offset (k^n-1)/(k-1)
    best = -np.inf
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        level_values = np.broadcast_to(leaf, (ids.shape[0], leaf.shape[0])).copy()
        for n in range(rounds - 1, -1, -1):
            offset = (k**n - 1) // (k - 1)
            width = k**n
            parent = np.empty((ids.shape[0], width))
            rows = np.arange(ids.shape[0])
            for pos in range(width):
                choice = (ids // (n_pairs ** (offset + pos))) % n_pairs
                down = level_values[rows, pos * k + i_neg[choice]]
                up = level_values[rows, pos * k + i_pos[choice]]
                parent[:, pos] = w_neg[choice] * down + w_pos[choice] * up
            level_values = parent
        best = max(best, float(level_values[:, 0].max()))
    return best


def dump_dense(problem: LpProblem) -> str:
    """Plain-text dump: a header line, variable names, then dense rows."""
    n_rows, n_cols = problem.shape
    lines = [f"MIN rows={n_rows} cols={n_cols}"]
    lines.append("VARS " + " ".join(problem.variable_names))
    lines.append("OBJ " + " ".join(repr(c) for c in problem.objective.tolist()))
    for r in range(n_rows):
        row = " ".join(repr(c) for c in problem.constraints[r].tolist())
        lines.append(f"GE {row} >= {problem.rhs[r]!r}")
    return "\n".join(lines) + "\n"
