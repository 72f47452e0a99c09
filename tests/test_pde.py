from __future__ import annotations

import math

import numpy as np
import pytest

from gamehedge import (
    Call,
    GridSpec,
    PiecewiseLinear,
    Side,
    Sine,
    StabilityError,
    solve,
    value_at,
)
from gamehedge.cli import main


WIDE = GridSpec(-6.0, 6.0, 0.1, 1.0 / 300.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(2.0, -2.0, 0.1, 0.001)
    with pytest.raises(ValueError):
        GridSpec(-2.0, 2.0, -0.1, 0.001)
    with pytest.raises(ValueError):
        GridSpec(-2.0, 2.0, 0.3, 0.001)  # 4 / 0.3 is not an integer
    with pytest.raises(ValueError):
        GridSpec(-2.0, 2.0, 0.1, 0.003)  # 1 / 0.003 is not an integer
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    assert grid.n_space == 40
    assert grid.n_time == 250
    assert grid.s_values()[0] == -2.0 and grid.s_values()[-1] == 2.0


def test_stability_guard(butterfly):
    # sigma_max^2 = 2, ds = 0.1, dt = 1/100: ratio = 1 > 1/2
    grid = GridSpec(-2.0, 2.0, 0.1, 0.01)
    with pytest.raises(StabilityError):
        solve(grid, butterfly, Side.UPPER, 1.0, 2.0)


def test_variance_band_validation(butterfly):
    with pytest.raises(ValueError):
        solve(WIDE, butterfly, Side.UPPER, 2.0, 1.0)  # min > max
    with pytest.raises(ValueError):
        solve(WIDE, butterfly, Side.UPPER, 0.0, 0.0)  # empty band


def test_field_shape_and_initial_row(butterfly):
    sol = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    assert sol.field.shape == (WIDE.n_time + 1, WIDE.n_space + 1)
    expected = np.array([butterfly(x) for x in WIDE.s_values()])
    assert np.array_equal(sol.field[0], expected)


def test_limit_values_on_wide_domain(butterfly):
    # the N -> infinity limit of the scaled trinomial game prices
    upper = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    lower = solve(WIDE, butterfly, Side.LOWER, 1.0, 2.0)
    assert value_at(upper, 0.0, 1.0) == pytest.approx(0.3817, abs=1e-3)
    assert value_at(lower, 0.0, 1.0) == pytest.approx(0.2060, abs=1e-3)


def test_narrow_domain_feels_its_boundaries(butterfly):
    # frozen Dirichlet values on [-2, 2] sit visibly below the wide-domain
    # limit: the boundary layer reaches the origin within one time unit
    grid = GridSpec(-2.0, 2.0, 0.1, 1.0 / 300.0)
    upper = solve(grid, butterfly, Side.UPPER, 1.0, 2.0)
    lower = solve(grid, butterfly, Side.LOWER, 1.0, 2.0)
    assert value_at(upper, 0.0, 1.0) == pytest.approx(0.3746, abs=1e-3)
    assert value_at(lower, 0.0, 1.0) == pytest.approx(0.1986, abs=1e-3)


def test_constant_payoff_is_preserved_exactly():
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    flat = PiecewiseLinear(((0.0, 0.7),))
    sol = solve(grid, flat, Side.UPPER, 1.0, 2.0)
    assert np.all(sol.field == 0.7)


def test_linear_payoff_is_nearly_preserved():
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    ramp = PiecewiseLinear(((0.0, 0.0),), 1.0, 1.0)
    sol = solve(grid, ramp, Side.UPPER, 1.0, 2.0)
    drift = np.abs(sol.field[-1] - sol.field[0]).max()
    assert drift < 1e-12


def test_degenerate_band_is_the_heat_equation():
    # sigma_min^2 == sigma_max^2 == 1 and f = sin(s):
    # phi(s, t) = exp(-t/2) sin(s), checked away from the frozen boundary
    grid = GridSpec(-8.0, 8.0, 0.1, 0.005)
    sol = solve(grid, Sine(1.0), Side.UPPER, 1.0, 1.0)
    target = math.exp(-0.5)
    assert value_at(sol, math.pi / 2, 1.0) == pytest.approx(target, rel=1e-2)
    assert value_at(sol, -math.pi / 2, 1.0) == pytest.approx(-target, rel=1e-2)


def test_comparison_principle(butterfly):
    # butterfly(s) <= (s + 0.5)+ pointwise, and the scheme is monotone
    dominating = Call(-0.5)
    small = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    large = solve(WIDE, dominating, Side.UPPER, 1.0, 2.0)
    assert np.all(small.field <= large.field + 1e-12)


def test_upper_dominates_lower(butterfly):
    upper = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    lower = solve(WIDE, butterfly, Side.LOWER, 1.0, 2.0)
    assert np.all(upper.field >= lower.field - 1e-12)


def test_value_at_interpolation(butterfly):
    sol = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    # grid point
    assert value_at(sol, 0.0, 1.0) == pytest.approx(sol.field[-1, 60], abs=1e-12)
    # spatial midpoint at t = 0 averages the neighbours
    mid = 0.5 * (sol.field[0, 10] + sol.field[0, 11])
    assert value_at(sol, -6.0 + 1.05, 0.0) == pytest.approx(mid, abs=1e-9)
    with pytest.raises(ValueError):
        value_at(sol, 7.0, 0.5)
    with pytest.raises(ValueError):
        value_at(sol, 0.0, 1.5)


def test_zero_lower_variance_warns_and_is_monotone_in_time(butterfly):
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    with pytest.warns(UserWarning):
        sol = solve(grid, butterfly, Side.UPPER, 0.0, 2.0)
    # with sigma_min^2 = 0 the upper update is coef * max(d2, 0) >= 0
    assert np.all(np.diff(sol.field, axis=0) >= -1e-15)


def _converge_rows(capsys, payoff: str, n_list: str, *grid: str) -> list[list[float]]:
    """Upper-side (N, lattice price, PDE value, gap) rows of ``converge --pde``."""
    code = main(["converge", "--moves=-1,1,2", "--payoff", payoff, "--n-list", n_list,
                 "--pde", *grid])
    assert code == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    col = {name: i for i, name in enumerate(header)}
    out = []
    for row in rows:
        price, pde_value = float(row[col["upper"]]), float(row[col["pde_upper"]])
        out.append([int(row[col["N"]]), price, pde_value, abs(price - pde_value)])
    return out


def test_converge_rows_for_constant_payoff(capsys):
    rows = _converge_rows(capsys, "[[0, 1]]", "1,5,10", "--s-range=-2,2", "--ds", "0.1",
                          "--dt", "0.004")
    assert [n for n, *_ in rows] == [1, 5, 10]
    for _, price, pde_value, gap in rows:
        assert price == 1.0
        assert pde_value == 1.0
        assert gap == 0.0


def test_converge_rows_near_limit(capsys):
    # the CLI's default grid is WIDE
    rows = _converge_rows(capsys, "butterfly(-1/2,1/2,3/2)", "20,100")
    assert rows[0][2] == rows[1][2]  # one PDE solve serves every row
    # convergence is not monotone (the lattice prices oscillate around the
    # limit), so only the gap magnitudes are pinned
    assert rows[0][3] < 5e-3
    assert rows[1][3] < 5e-3
