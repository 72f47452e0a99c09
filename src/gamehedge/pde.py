"""Explicit finite-difference solver for the additive volatility-band PDE.

The scaled-game prices converge, as the number of rounds grows, to the
solution of

    phi_t = (sigma(phi_ss)^2 / 2) * phi_ss,    phi(s, 0) = f(s)

where sigma^2 switches between the extreme one-step variances according to
the sign of the second derivative: the upper solution takes sigma_max^2
where phi_ss >= 0 and sigma_min^2 where it is negative, the lower solution
swaps them.  The scheme is the forward-Euler central-difference update

    phi[n+1, i] = phi[n, i] + (sigma2 * dt / (2 ds^2)) * d2 phi[n, i]

with the switch decided per node by the sign of the discrete second
difference (ties count as nonnegative), Dirichlet boundaries frozen at the
initial payoff, and the usual stability requirement
(sigma_max^2 / 2) * dt / ds^2 <= 1/2.

The march writes each step into two rows that swap roles (the boundary
values never change) and two work rows, so a step allocates nothing.  It
stops with RuntimeError at the first time step whose row is not finite;
solve checks once per block of _BLOCK steps and replays a failed block
step by step to name that time step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import BudgetError, Payoff, Side, evaluate_payoff, is_path_dependent

# Space nodes a grid may have: a march of 4*10^6 nodes peaks near 0.2 GB
# RSS, most of it the payoff row built as a list.
_GRID_BUDGET = 1 << 22

# Time steps solve makes between two finiteness checks.
_BLOCK = 64


class StabilityError(ValueError):
    """The explicit scheme's stability bound is violated."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid on [s_min, s_max] x [0, horizon]."""

    s_min: float
    s_max: float
    ds: float
    dt: float
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if not (self.s_min < self.s_max):
            raise ValueError("need s_min < s_max")
        if self.ds <= 0 or self.dt <= 0 or self.horizon <= 0:
            raise ValueError("ds, dt and horizon must be positive")
        for span, step, what in (
            (self.s_max - self.s_min, self.ds, "ds"),
            (self.horizon, self.dt, "dt"),
        ):
            cells = span / step
            if not np.isfinite(cells):
                raise ValueError(f"{what} leaves {cells} cells on its interval")
            if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
                raise ValueError(f"{what} must divide its interval evenly")

    @property
    def n_space(self) -> int:
        return round((self.s_max - self.s_min) / self.ds)

    @property
    def n_time(self) -> int:
        return round(self.horizon / self.dt)

    def s_values(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n_space + 1)


@dataclass(frozen=True)
class GridSolution:
    """The solution at the horizon: one value per space node."""

    grid: GridSpec
    values: np.ndarray


def march(
    grid: GridSpec,
    payoff: Payoff,
    side: Side,
    sigma_min_sq: float,
    sigma_max_sq: float,
) -> Iterator[np.ndarray]:
    """Check the arguments, then return an iterator over the scheme's rows.

    Row 0 is the payoff on the grid's space nodes and row n the solution
    after n time steps.  Each row is a fresh array, so a caller may keep it.
    Between steps only the march's two rows and two work rows are held.
    """
    return _rows(*_start(grid, payoff, side, sigma_min_sq, sigma_max_sq))


def solve(
    grid: GridSpec,
    payoff: Payoff,
    side: Side,
    sigma_min_sq: float,
    sigma_max_sq: float,
) -> GridSolution:
    """March the explicit scheme to the horizon and keep the last row.

    Finiteness is checked once per block of _BLOCK steps.  A failed block
    is replayed from its kept start row with a check per step, so solve
    raises the RuntimeError that march raises, at the same time step.
    """
    start, steps, w_convex, w_concave = _start(grid, payoff, side, sigma_min_sq, sigma_max_sq)
    a, b, t, q = _buffers(start)
    for first in range(0, steps, _BLOCK):
        last = min(first + _BLOCK, steps)
        np.copyto(start, a)
        for _ in range(first, last):
            _step(a, b, t, q, w_convex, w_concave)
            a, b = b, a
        if not np.isfinite(a).all():
            # a non-finite node stays non-finite, so the replay raises
            for _ in _checked(start, b, t, q, w_convex, w_concave, first, last):
                pass
    return GridSolution(grid, a)


def _start(grid: GridSpec, payoff: Payoff, side: Side, sigma_min_sq: float,
           sigma_max_sq: float) -> tuple[np.ndarray, int, float, float]:
    """Check the arguments of march or solve; return the payoff row, the
    step count and the step weights where phi_ss >= 0 and where it is < 0.
    Raises BudgetError past _GRID_BUDGET space nodes."""
    if is_path_dependent(payoff):
        raise ValueError("the PDE limit is for European payoffs")
    if not (0 <= sigma_min_sq <= sigma_max_sq) or sigma_max_sq <= 0:
        raise ValueError("need 0 <= sigma_min_sq <= sigma_max_sq with sigma_max_sq > 0")
    ratio = sigma_max_sq * grid.dt / (2.0 * grid.ds * grid.ds)
    if ratio > 0.5 + 1e-12:
        raise StabilityError(
            f"(sigma_max^2/2)*dt/ds^2 = {ratio:.6g} exceeds the stability bound 1/2"
        )
    if sigma_min_sq == 0.0:
        warnings.warn(
            "sigma_min_sq = 0 degenerates the PDE; the scheme stays monotone "
            "but no convergence rate is claimed",
            stacklevel=3,  # the caller of march or solve
        )

    if grid.n_space + 1 > _GRID_BUDGET:
        raise BudgetError(f"{grid.n_space + 1} space nodes exceed the budget of {_GRID_BUDGET}")
    row = np.array([evaluate_payoff(payoff, x) for x in grid.s_values()], dtype=float)
    coef = grid.dt / (2.0 * grid.ds * grid.ds)
    if side is Side.UPPER:
        return row, grid.n_time, coef * sigma_max_sq, coef * sigma_min_sq
    return row, grid.n_time, coef * sigma_min_sq, coef * sigma_max_sq


def _rows(row: np.ndarray, steps: int, w_convex: float, w_concave: float) -> Iterator[np.ndarray]:
    yield row
    for current in _checked(*_buffers(row), w_convex, w_concave, 0, steps):
        yield current.copy()


def _buffers(row: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The march's two rows, both starting as row, and its two work rows."""
    return row.copy(), row.copy(), np.empty(row.size - 2), np.empty(row.size - 2)


def _checked(a: np.ndarray, b: np.ndarray, t: np.ndarray, q: np.ndarray, w_convex: float,
             w_concave: float, first: int, last: int) -> Iterator[np.ndarray]:
    """Step a from time step first to last, yielding each new row (a buffer
    that the step after next overwrites); raise at the first non-finite row."""
    for n in range(first, last):
        _step(a, b, t, q, w_convex, w_concave)
        a, b = b, a
        if not np.isfinite(a).all():
            raise RuntimeError(f"field became non-finite at time step {n + 1}")
        yield a


def _step(a: np.ndarray, b: np.ndarray, t: np.ndarray, q: np.ndarray,
          w_convex: float, w_concave: float) -> None:
    """One time step from row a into row b, whose boundary values equal a's;
    t and q are interior-sized work rows.

    The second difference takes w_convex where it is >= 0, else w_concave:
    the larger product when w_convex >= w_concave, else the smaller.
    Rounded multiplication by a nonnegative weight is monotone, so that is
    the chosen weight's product, signed zeros and NaN included; only an
    infinite difference beside a zero weight gives NaN where that is +-inf.
    """
    np.multiply(a[1:-1], 2.0, out=t)
    np.subtract(a[2:], t, out=t)
    np.add(t, a[:-2], out=t)
    np.multiply(t, w_convex, out=q)
    np.multiply(t, w_concave, out=t)
    (np.maximum if w_convex >= w_concave else np.minimum)(q, t, out=q)
    np.add(a[1:-1], q, out=b[1:-1])


def value_at(solution: GridSolution, s: float) -> float:
    """Linear interpolation of the horizon row at s."""
    g = solution.grid
    eps = 1e-9
    if not (g.s_min - eps <= s <= g.s_max + eps):
        raise ValueError(f"s = {s} is outside the grid")
    x = min(max((s - g.s_min) / g.ds, 0.0), float(g.n_space))
    i0 = min(int(x), g.n_space - 1)
    fx = x - i0
    v = solution.values
    return float((1 - fx) * v[i0] + fx * v[i0 + 1])
