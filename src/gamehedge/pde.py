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
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import Payoff, Side, evaluate_payoff, is_path_dependent


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
    side: Side
    sigma_min_sq: float
    sigma_max_sq: float


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
    Only one row is held between steps.
    """
    return _rows(*_start(grid, payoff, side, sigma_min_sq, sigma_max_sq))


def solve(
    grid: GridSpec,
    payoff: Payoff,
    side: Side,
    sigma_min_sq: float,
    sigma_max_sq: float,
) -> GridSolution:
    """March the explicit scheme to the horizon and keep the last row."""
    for row in _rows(*_start(grid, payoff, side, sigma_min_sq, sigma_max_sq)):
        pass
    return GridSolution(grid, row, side, sigma_min_sq, sigma_max_sq)


def _start(grid: GridSpec, payoff: Payoff, side: Side, sigma_min_sq: float,
           sigma_max_sq: float) -> tuple[np.ndarray, int, float, float]:
    """Check the arguments of march or solve; return the payoff row, the
    step count and the step weights where phi_ss >= 0 and where it is < 0."""
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

    row = np.array([evaluate_payoff(payoff, x) for x in grid.s_values()], dtype=float)
    coef = grid.dt / (2.0 * grid.ds * grid.ds)
    if side is Side.UPPER:
        return row, grid.n_time, coef * sigma_max_sq, coef * sigma_min_sq
    return row, grid.n_time, coef * sigma_min_sq, coef * sigma_max_sq


def _rows(
    row: np.ndarray, steps: int, w_convex: float, w_concave: float
) -> Iterator[np.ndarray]:
    yield row
    for n in range(steps):
        second = row[2:] - 2.0 * row[1:-1] + row[:-2]
        row = row.copy()
        row[1:-1] += np.where(second >= 0.0, w_convex, w_concave) * second
        if not np.isfinite(row).all():
            raise RuntimeError(f"field became non-finite at time step {n + 1}")
        yield row


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
