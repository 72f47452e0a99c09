"""Direct linear-programming pricing route.

The upper price is the optimum of

    minimize alpha  subject to  alpha + sum_n M_n(history) * x_n >= f(path)

with one constraint per terminal path and one free variable per decision
node.  Rows are the paths in lexicographic order.  Column 0 (alpha) is all
ones.  Round n = 0, ..., N-1 has a block of k^n columns, one per move
prefix of length n; a path's row holds its move at round n in the column of
its own prefix and 0 times that move (-0.0 under a negative move) in the
others.  The matrix is written block by block in one pass.  Solved in its
dual standard form,

    maximize f . p  subject to  A^T p = e_0,  p >= 0,

the same price read from the measure side (one weight per path, summing to
one, with zero mean at every decision node), by a self-contained dense
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
    path_payoff_vector,
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


# tableau cells one LP's simplex may build (see _tableau_cells)
_MAX_ENTRIES = 2 * 10**7


def _tableau_cells(n_rows: int, n_cols: int) -> int:
    """Cells of the simplex tableau of an LP of ``n_rows`` x ``n_cols``: one
    row per column of the matrix, one column per row and per artificial,
    and the rhs."""
    return n_cols * (n_rows + n_cols + 1)


def build_matrix(moves: MoveSpace, rounds: int) -> LpProblem:
    """Constraint matrix (rhs left at zero) for a ``rounds``-step game.

    Shape is k^N rows by 1 + (k^N - 1)/(k - 1) columns; raises BudgetError
    when the tableau that solve_min builds for it has more than _MAX_ENTRIES
    cells.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    k = moves.size
    n_rows = k**rounds
    n_cols = 1 + (n_rows - 1) // (k - 1)
    cells = _tableau_cells(n_rows, n_cols)
    if cells > _MAX_ENTRIES:
        raise BudgetError(
            f"LP of {n_rows} rows x {n_cols} columns: its tableau of {cells} cells "
            f"exceeds {_MAX_ENTRIES} entries"
        )
    # floats enter here, at the last moment; everything upstream is exact
    a = np.array([float(x) for x in moves.members])
    matrix = np.ones((n_rows, n_cols))
    paths = np.arange(n_rows)
    for n in range(rounds):
        # each path's node (its first n moves) and its move at round n
        node, move = np.divmod(paths // k ** (rounds - 1 - n), k)
        start = 1 + (k**n - 1) // (k - 1)
        block = matrix[:, start : start + k**n]
        block[:] = 0.0 * a[move, None]  # 0 x move off the node: -0.0 under a negative move
        block[paths, node] = a[move]
    names = ["alpha", "M1"] + [
        f"M{n + 1}|" + "".join(f"a{t + 1}" for t in prefix)
        for n in range(1, rounds) for prefix in itertools.product(range(k), repeat=n)
    ]
    return LpProblem(
        objective=np.eye(1, n_cols, 0).ravel(),
        constraints=matrix,
        rhs=np.zeros(n_rows),
        variable_names=names,
    )


def build_problem(game: GameSpec, payoff: Payoff) -> LpProblem:
    """Full upper-price LP for a game and payoff."""
    problem = build_matrix(game.moves, game.rounds)
    problem.rhs = path_payoff_vector(game, payoff)
    return problem


# relative size of the noise that elimination leaves (see _noise_floor)
_PIVOT_TOL = 1e-11


# cells one group of a pivot's update may span: at N=6 on -1,1,2, updating
# each pivot's whole block at once (temporaries of ~1.4 MB) was slower than
# the row loop it replaced
_PIVOT_CELLS = 1 << 14


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Normalise ``row`` on ``col`` and eliminate ``col`` from the other rows.

    Writes only the rows with a nonzero entry in ``col``, in the columns
    where the pivot row is nonzero and in the rhs column, with the float
    operations of a dense row update.  A skipped entry would only have had a
    signed zero subtracted, which can turn -0.0 into +0.0 but changes no
    value; the rhs column, where the solution is read, is always written.
    The rows go in groups of at most _PIVOT_CELLS cells, each gathered and
    scattered through flat indices, which costs less than a 2-D index.
    """
    tableau[row] /= tableau[row, col]
    width = tableau.shape[1]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    cols = np.append(np.flatnonzero(tableau[row, :-1]), width - 1)
    pivot_row, flat = tableau[row, cols], tableau.reshape(-1, copy=False)
    step = max(1, _PIVOT_CELLS // cols.size)
    for start in range(0, rows.size, step):
        group = rows[start : start + step]
        cells = np.add.outer(group * width, cols).ravel()
        flat[cells] -= np.outer(tableau[group, col], pivot_row).ravel()
    basis[row] = col


def _noise_floor(values: np.ndarray) -> float:
    """Magnitude up to which entries of ``values`` count as zero.

    Elimination leaves noise of about _PIVOT_TOL times the largest entry;
    entering on a noise reduced cost, or pivoting on a noise coefficient,
    wrecks the tableau (an infeasible point, a false unbounded verdict, or
    no termination).  An empty ``values`` (a tableau with no rows left) has
    the floor of a unit entry.
    """
    return 100.0 * _PIVOT_TOL * float(np.abs(values).max(initial=1.0))


def _simplex(tableau: np.ndarray, basis: list[int], cost: np.ndarray, max_iter: int) -> None:
    """Primal simplex on a canonical tableau, Bland's rule (cannot cycle)."""
    n_cost = cost.shape[0]
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ tableau[:, :n_cost]
        candidates = np.nonzero(reduced < -_noise_floor(reduced))[0]
        if candidates.size == 0:
            return
        entering = int(candidates[0])  # Bland: smallest improving index
        column = tableau[:, entering]
        rows = np.flatnonzero(column > _noise_floor(column))
        ratios = tableau[rows, -1] / column[rows]
        best_row = -1
        best_ratio = np.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12
                and (best_row < 0 or basis[r] < basis[best_row])
            ):
                best_row, best_ratio = r, ratio
        if best_row < 0:
            raise UnboundedError("objective is unbounded below")
        _pivot(tableau, basis, best_row, entering)
    raise RuntimeError("simplex did not terminate within the iteration cap")


def solve_min(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Solve min c.x s.t. A x >= b (x free); returns (optimum, x).

    Solved through the dual, max b.p s.t. A^T p = c, p >= 0, which is
    already in standard form: one weight per row of A (for the pricing LP,
    a martingale measure on the paths).  Phase 1 minimizes the sum of one
    artificial per column of A, after flipping the rows of A^T where c < 0;
    artificials still basic at zero level are pivoted out or their rows
    dropped as redundant.  Phase 2 minimizes -b.p, with Bland's rule
    throughout, and b.p is the optimum.  The rows of A x >= b whose weights
    are basic hold with equality at the optimum, and x solves them.  A dual
    with no feasible point means an unbounded primal; an unbounded dual, an
    infeasible one.
    """
    matrix = np.asarray(problem.constraints, dtype=float)
    rhs = np.asarray(problem.rhs, dtype=float)
    obj = np.asarray(problem.objective, dtype=float)
    n_rows, n_free = matrix.shape
    max_iter = 2000 + 50 * (n_rows + n_free)

    tableau = np.zeros((n_free, n_rows + n_free + 1))
    tableau[:, :n_rows] = matrix.T
    tableau[:, -1] = obj
    tableau[obj < 0] *= -1.0
    tableau[:, n_rows:-1] = np.eye(n_free)
    basis = [n_rows + r for r in range(n_free)]
    phase1_cost = np.concatenate([np.zeros(n_rows), np.ones(n_free)])
    _simplex(tableau, basis, phase1_cost, max_iter)
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-9:
        raise UnboundedError("objective is unbounded below")

    # drive leftover artificials out of the basis (or drop redundant rows)
    keep = []
    for r in range(tableau.shape[0]):
        if basis[r] >= n_rows:
            col = next(
                (j for j in range(n_rows) if abs(tableau[r, j]) > _PIVOT_TOL), None
            )
            if col is None:
                continue  # all-zero row: redundant constraint
            _pivot(tableau, basis, r, col)
        keep.append(r)
    # one copy of the rows kept, without the artificial columns
    tableau = tableau[np.ix_(keep, [*range(n_rows), -1])]
    basis = [basis[r] for r in keep]

    try:
        _simplex(tableau, basis, -rhs, max_iter)
    except UnboundedError:
        raise InfeasibleError("no point satisfies the constraints") from None

    optimum = float(rhs[basis] @ tableau[:, -1])
    x = np.linalg.lstsq(matrix[basis], rhs[basis], rcond=None)[0]
    slack = matrix @ x - rhs
    if slack.min(initial=0.0) < -1e-9:
        raise RuntimeError(f"solver returned an infeasible point (slack {slack.min()})")
    if abs(optimum - float(obj @ x)) > 1e-9:
        raise RuntimeError(f"solver returned a point of value {float(obj @ x)}, "
                           f"not the optimum {optimum}")
    return optimum, x


def solve_side(problem: LpProblem, side: Side) -> float:
    """Hedging price of one side from the built upper-price LP.

    The lower price of f is minus the upper price of -f, whose LP is the
    same problem with the right-hand side negated.
    """
    if side is Side.UPPER:
        return solve_min(problem)[0]
    return -solve_min(replace(problem, rhs=-problem.rhs))[0]


# pair assignments one dual enumeration may scan
_DUAL_BUDGET = 10**6


def dual_side(game: GameSpec, problem: LpProblem, side: Side) -> float:
    """Dual enumeration of one side's price on the built upper-price LP,
    negating the right-hand side for the lower side as ``solve_side`` does."""
    if side is Side.UPPER:
        return dual_vertex_enumerate(game.moves, game.rounds, problem.rhs)
    return -dual_vertex_enumerate(game.moves, game.rounds, -problem.rhs)


def dual_vertex_enumerate(moves: MoveSpace, rounds: int, values) -> float:
    """Max of E_P[f] over all products of basic two-point node measures.

    ``values`` lists f at the k^N terminal paths in lexicographic member
    order.  Every internal node of the full tree independently picks one of
    the l*m basic pairs, so (l*m)^{#internal nodes} assignments are scanned
    (in vectorized chunks); BudgetError if that count exceeds _DUAL_BUDGET.
    """
    k = moves.size
    n_pairs = moves.n_negative * moves.n_positive
    n_internal = (k**rounds - 1) // (k - 1)
    total = n_pairs**n_internal
    if total > _DUAL_BUDGET:
        raise BudgetError(f"{total} pair assignments exceed the budget of {_DUAL_BUDGET}")
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
