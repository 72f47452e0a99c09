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
    """Solved field, indexed [time step, space node]; row 0 is the payoff."""

    grid: GridSpec
    field: np.ndarray
    side: Side
    sigma_min_sq: float
    sigma_max_sq: float


def solve(
    grid: GridSpec,
    payoff: Payoff,
    side: Side,
    sigma_min_sq: float,
    sigma_max_sq: float,
) -> GridSolution:
    """March the explicit scheme over the whole grid."""
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
            stacklevel=2,
        )

    s = grid.s_values()
    steps = grid.n_time
    field = np.empty((steps + 1, s.shape[0]))
    field[0] = [evaluate_payoff(payoff, x) for x in s]
    coef = grid.dt / (2.0 * grid.ds * grid.ds)
    upper = side is Side.UPPER
    for n in range(steps):
        current = field[n]
        second = current[2:] - 2.0 * current[1:-1] + current[:-2]
        if upper:
            sigma2 = np.where(second >= 0.0, sigma_max_sq, sigma_min_sq)
        else:
            sigma2 = np.where(second >= 0.0, sigma_min_sq, sigma_max_sq)
        field[n + 1, 0] = current[0]
        field[n + 1, -1] = current[-1]
        field[n + 1, 1:-1] = current[1:-1] + coef * sigma2 * second
        if not np.isfinite(field[n + 1]).all():
            raise RuntimeError(f"field became non-finite at time step {n + 1}")
    return GridSolution(grid, field, side, sigma_min_sq, sigma_max_sq)


def value_at(solution: GridSolution, s: float, t: float) -> float:
    """Bilinear interpolation of the field at (s, t)."""
    g = solution.grid
    eps = 1e-9
    if not (g.s_min - eps <= s <= g.s_max + eps) or not (-eps <= t <= g.horizon + eps):
        raise ValueError(f"({s}, {t}) is outside the grid")
    x = min(max((s - g.s_min) / g.ds, 0.0), float(g.n_space))
    tau = min(max(t / g.dt, 0.0), float(g.n_time))
    i0 = min(int(x), g.n_space - 1)
    n0 = min(int(tau), g.n_time - 1)
    fx, ft = x - i0, tau - n0
    f = solution.field
    return float(
        (1 - ft) * ((1 - fx) * f[n0, i0] + fx * f[n0, i0 + 1])
        + ft * ((1 - fx) * f[n0 + 1, i0] + fx * f[n0 + 1, i0 + 1])
    )

