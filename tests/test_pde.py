from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from gamehedge import (
    BudgetError,
    Call,
    GridSpec,
    PathDependent,
    PiecewiseLinear,
    Side,
    Sine,
    StabilityError,
    march,
    solve,
    value_at,
)
from gamehedge import pde
from gamehedge.cli import main, parse_payoff
from gamehedge.model import evaluate_payoff


WIDE = GridSpec(-6.0, 6.0, 0.1, 1.0 / 300.0)
NARROW = GridSpec(-2.0, 2.0, 0.1, 1.0 / 300.0)
BFLY = "butterfly(-1/2,1/2,3/2)"


def full_field(grid, payoff, side, sigma_min_sq, sigma_max_sq):
    """Oracle: the whole [time step, space node] field, marched with the
    per-node variance array of the original scheme."""
    s = grid.s_values()
    field = np.empty((grid.n_time + 1, s.shape[0]))
    field[0] = [evaluate_payoff(payoff, x) for x in s]
    coef = grid.dt / (2.0 * grid.ds * grid.ds)
    upper = side is Side.UPPER
    for n in range(grid.n_time):
        current = field[n]
        second = current[2:] - 2.0 * current[1:-1] + current[:-2]
        if upper:
            sigma2 = np.where(second >= 0.0, sigma_max_sq, sigma_min_sq)
        else:
            sigma2 = np.where(second >= 0.0, sigma_min_sq, sigma_max_sq)
        field[n + 1, 0] = current[0]
        field[n + 1, -1] = current[-1]
        field[n + 1, 1:-1] = current[1:-1] + coef * sigma2 * second
    return field


def bilinear_at_horizon(grid, field, s):
    """Oracle: the original bilinear interpolation of the field at (s, horizon)."""
    x = min(max((s - grid.s_min) / grid.ds, 0.0), float(grid.n_space))
    tau = min(max(grid.horizon / grid.dt, 0.0), float(grid.n_time))
    i0 = min(int(x), grid.n_space - 1)
    n0 = min(int(tau), grid.n_time - 1)
    fx, ft = x - i0, tau - n0
    f = field
    return float(
        (1 - ft) * ((1 - fx) * f[n0, i0] + fx * f[n0, i0 + 1])
        + ft * ((1 - fx) * f[n0 + 1, i0] + fx * f[n0 + 1, i0 + 1])
    )


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


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
    rows = list(march(WIDE, butterfly, Side.UPPER, 1.0, 2.0))
    assert len(rows) == WIDE.n_time + 1
    assert all(row.shape == (WIDE.n_space + 1,) for row in rows)
    expected = np.array([butterfly(x) for x in WIDE.s_values()])
    assert np.array_equal(rows[0], expected)


CASES = {
    "wide upper": (WIDE, "butterfly", Side.UPPER, 1.0, 2.0),
    "wide lower": (WIDE, "butterfly", Side.LOWER, 1.0, 2.0),
    "narrow upper": (NARROW, "butterfly", Side.UPPER, 1.0, 2.0),
    "narrow lower": (NARROW, "butterfly", Side.LOWER, 1.0, 2.0),
    "zero sigma_min upper": (GridSpec(-2.0, 2.0, 0.1, 0.004), "butterfly", Side.UPPER, 0.0, 2.0),
    "zero sigma_min lower": (GridSpec(-2.0, 2.0, 0.1, 0.004), "butterfly", Side.LOWER, 0.0, 2.0),
    "heat equation": (GridSpec(-8.0, 8.0, 0.1, 0.005), Sine(1.0), Side.UPPER, 1.0, 1.0),
}


@pytest.mark.filterwarnings("ignore:sigma_min_sq = 0")
@pytest.mark.parametrize("case", CASES)
def test_march_is_bit_identical_to_the_full_field(case, butterfly):
    grid, payoff, side, lo, hi = CASES[case]
    payoff = butterfly if payoff == "butterfly" else payoff
    field = full_field(grid, payoff, side, lo, hi)
    rows = list(march(grid, payoff, side, lo, hi))  # kept rows must not alias
    assert np.array_equal(bits(rows), bits(field))
    assert np.array_equal(bits(solve(grid, payoff, side, lo, hi).values), bits(field[-1]))


@pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
def test_value_at_is_the_bilinear_form_at_the_horizon(side, butterfly):
    # horizon / dt is exactly n_time on WIDE, so the old form's time weight
    # is 1 and the row before the horizon drops out; the sign of zero agrees
    # too, which the bit comparison pins
    field = full_field(WIDE, butterfly, side, 1.0, 2.0)
    sol = solve(WIDE, butterfly, side, 1.0, 2.0)
    for s in np.linspace(-6.0, 6.0, 50).tolist():
        assert bits(value_at(sol, s)) == bits(bilinear_at_horizon(WIDE, field, s))


def test_march_checks_its_arguments_when_called(butterfly):
    # no row is asked for: every refusal comes from the call itself
    with pytest.raises(StabilityError):
        march(GridSpec(-2.0, 2.0, 0.1, 0.01), butterfly, Side.UPPER, 1.0, 2.0)
    with pytest.raises(ValueError):
        march(WIDE, butterfly, Side.UPPER, 2.0, 1.0)
    with pytest.raises(ValueError, match="European"):
        march(WIDE, PathDependent(sum), Side.UPPER, 1.0, 2.0)
    with pytest.warns(UserWarning):
        march(WIDE, butterfly, Side.UPPER, 0.0, 2.0)


def test_grid_budget_counts_space_nodes_before_the_payoff_row(monkeypatch, butterfly):
    # 2*10^6 + 1 nodes (-1e5..1e5 at ds 1/10) fit the default budget
    assert GridSpec(-1e5, 1e5, 0.1, 0.0025, 0.01).n_space + 1 <= pde._GRID_BUDGET
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)  # 41 space nodes
    monkeypatch.setattr(pde, "_GRID_BUDGET", 41)
    solve(grid, butterfly, Side.UPPER, 1.0, 2.0)
    monkeypatch.setattr(pde, "_GRID_BUDGET", 40)
    monkeypatch.setattr(pde, "evaluate_payoff", None)
    for run in (solve, march):
        with pytest.raises(BudgetError, match="^41 space nodes exceed the budget of 40$"):
            run(grid, butterfly, Side.UPPER, 1.0, 2.0)


def test_march_stops_at_the_first_non_finite_row():
    rows = march(NARROW, PiecewiseLinear(((0.0, 1e308),)), Side.UPPER, 1.0, 2.0)
    assert np.all(next(rows) == 1e308)
    with pytest.warns(RuntimeWarning), pytest.raises(
        RuntimeError, match="field became non-finite at time step 1"
    ):
        next(rows)


def _fault_at(monkeypatch, step):
    """Make pde._step write NaN into the middle of its new row whenever it
    steps from the start row of WIDE upper time step ``step``, so that a
    replay of that step meets the same fault."""
    start = list(march(WIDE, parse_payoff(BFLY), Side.UPPER, 1.0, 2.0))[step - 1]
    real_step = pde._step

    def faulty(a, b, *rest):
        real_step(a, b, *rest)
        if np.array_equal(a, start):
            b[b.size // 2] = np.nan

    monkeypatch.setattr(pde, "_step", faulty)


# 70 lies inside solve's second block; 300, WIDE's last step, ends a block
# shorter than the others
@pytest.mark.parametrize("step", [70, WIDE.n_time])
def test_every_route_names_the_first_non_finite_step(monkeypatch, capsys, step):
    assert step % pde._BLOCK not in (0, 1)
    _fault_at(monkeypatch, step)
    message = f"^field became non-finite at time step {step}$"
    with pytest.raises(RuntimeError, match=message):
        solve(WIDE, parse_payoff(BFLY), Side.UPPER, 1.0, 2.0)
    rows = march(WIDE, parse_payoff(BFLY), Side.UPPER, 1.0, 2.0)
    for _ in range(step):
        assert np.isfinite(next(rows)).all()
    with pytest.raises(RuntimeError, match=message):
        next(rows)
    code = main(["pde", "--sigma2", "1,2", "--payoff", BFLY, "--s-range=-6,6", "--ds", "1/10",
                 "--dt", "1/300", "--side", "upper"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: field became non-finite at time step {step}\n"


@pytest.mark.filterwarnings("ignore:sigma_min_sq = 0")
@pytest.mark.parametrize("side", [Side.UPPER, Side.LOWER])
@pytest.mark.parametrize("sigma_min_sq", [0.0, 2.0])
def test_step_weighs_the_second_difference_as_the_where_form(side, sigma_min_sq):
    # signed zero second differences, NaN, +-inf, and 1e308 neighbours
    # whose second difference overflows
    nan, inf = np.nan, np.inf
    row = np.array([0.0, 1.0, 2.0, 3.0, 0.5, -0.0, 0.0, -0.0, 0.0, 0.0, 1.0, nan, 0.0,
                    inf, 0.0, -inf, 5.0, 1e308, -1e308, 1e308, 2.0, 2.0, -2.0, 7.0, 1.5])
    flat = PiecewiseLinear(((0.0, 0.0),))
    _, _, w_convex, w_concave = pde._start(WIDE, flat, side, sigma_min_sq, 2.0)
    a, b = row.copy(), row.copy()
    t, q = np.empty(row.size - 2), np.empty(row.size - 2)
    with np.errstate(all="ignore"):
        pde._step(a, b, t, q, w_convex, w_concave)
        second = row[2:] - 2.0 * row[1:-1] + row[:-2]
        want = row[1:-1] + np.where(second >= 0.0, w_convex, w_concave) * second
    assert np.array_equal(bits(a), bits(row))  # the step reads a, writes only b
    assert bits(b[0]) == bits(row[0]) and bits(b[-1]) == bits(row[-1])
    assert {float.hex(x) for x in second} >= {"0x0.0p+0", "-0x0.0p+0", "nan", "inf", "-inf"}
    # only an infinite second difference times a zero weight differs: NaN
    # in the kernel, +-inf in the where form, so the row is not finite
    # either way
    differs = bits(b[1:-1]) != bits(want)
    assert np.isinf(second[differs]).all() and np.isnan(b[1:-1][differs]).all()
    assert np.isinf(want[differs]).all()
    assert differs.any() == (sigma_min_sq == 0.0)


@pytest.mark.parametrize("ds, dt, upper, lower", [
    ("1/40", "1/4000", "0x1.866a467fd0adbp-2", "0x1.a6899eab7fcc1p-3"),
    ("1/80", "1/16000", "0x1.86654716e07cdp-2", "0x1.a692e8cb8ac11p-3"),
])
def test_benchmark_grids_are_pinned_bit_for_bit(capsys, ds, dt, upper, lower):
    for side, want in (("upper", upper), ("lower", lower)):
        code = main(["pde", "--moves=-1,1,2", "--payoff", BFLY, "--ds", ds, "--dt", dt,
                     "--side", side])
        assert code == 0
        assert float.hex(json.loads(capsys.readouterr().out)["value_at_origin"]) == want


def test_converge_with_the_pde_is_pinned_byte_for_byte(capsys):
    code = main(["converge", "--moves=-1,1,2", "--payoff", BFLY, "--n-list", "100,200",
                 "--pde"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "5b68ecdeb4aa652ef63affc0c71c59b9df3f90a038c2e038db8a905d6128da3f")


def test_solve_holds_one_row(butterfly):
    field_bytes = 8 * (WIDE.n_time + 1) * (WIDE.n_space + 1)  # about 290 KB
    solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)  # warm up imports and caches
    tracemalloc.start()
    try:
        solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field_bytes / 10


def test_limit_values_on_wide_domain(butterfly):
    # the N -> infinity limit of the scaled trinomial game prices
    upper = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    lower = solve(WIDE, butterfly, Side.LOWER, 1.0, 2.0)
    assert value_at(upper, 0.0) == pytest.approx(0.3817, abs=1e-3)
    assert value_at(lower, 0.0) == pytest.approx(0.2060, abs=1e-3)


def test_narrow_domain_feels_its_boundaries(butterfly):
    # frozen Dirichlet values on [-2, 2] sit visibly below the wide-domain
    # limit: the boundary layer reaches the origin within one time unit
    upper = solve(NARROW, butterfly, Side.UPPER, 1.0, 2.0)
    lower = solve(NARROW, butterfly, Side.LOWER, 1.0, 2.0)
    assert value_at(upper, 0.0) == pytest.approx(0.3746, abs=1e-3)
    assert value_at(lower, 0.0) == pytest.approx(0.1986, abs=1e-3)


def test_constant_payoff_is_preserved_exactly():
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    flat = PiecewiseLinear(((0.0, 0.7),))
    assert all(np.all(row == 0.7) for row in march(grid, flat, Side.UPPER, 1.0, 2.0))


def test_linear_payoff_is_nearly_preserved():
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    ramp = PiecewiseLinear(((0.0, 0.0),), 1.0, 1.0)
    rows = list(march(grid, ramp, Side.UPPER, 1.0, 2.0))
    drift = np.abs(rows[-1] - rows[0]).max()
    assert drift < 1e-12


def test_degenerate_band_is_the_heat_equation():
    # sigma_min^2 == sigma_max^2 == 1 and f = sin(s):
    # phi(s, t) = exp(-t/2) sin(s), checked away from the frozen boundary
    grid = GridSpec(-8.0, 8.0, 0.1, 0.005)
    sol = solve(grid, Sine(1.0), Side.UPPER, 1.0, 1.0)
    target = math.exp(-0.5)
    assert value_at(sol, math.pi / 2) == pytest.approx(target, rel=1e-2)
    assert value_at(sol, -math.pi / 2) == pytest.approx(-target, rel=1e-2)


def test_comparison_principle(butterfly):
    # butterfly(s) <= (s + 0.5)+ pointwise, and the scheme is monotone
    dominating = Call(-0.5)
    small = march(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    large = march(WIDE, dominating, Side.UPPER, 1.0, 2.0)
    assert all(np.all(a <= b + 1e-12) for a, b in zip(small, large, strict=True))


def test_upper_dominates_lower(butterfly):
    upper = march(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    lower = march(WIDE, butterfly, Side.LOWER, 1.0, 2.0)
    assert all(np.all(a >= b - 1e-12) for a, b in zip(upper, lower, strict=True))


def test_value_at_interpolation(butterfly):
    sol = solve(WIDE, butterfly, Side.UPPER, 1.0, 2.0)
    # grid point
    assert value_at(sol, 0.0) == pytest.approx(sol.values[60], abs=1e-12)
    # spatial midpoint averages the neighbours
    mid = 0.5 * (sol.values[10] + sol.values[11])
    assert value_at(sol, -6.0 + 1.05) == pytest.approx(mid, abs=1e-9)
    with pytest.raises(ValueError):
        value_at(sol, 7.0)


def test_zero_lower_variance_warns_and_is_monotone_in_time(butterfly):
    grid = GridSpec(-2.0, 2.0, 0.1, 0.004)
    with pytest.warns(UserWarning):
        rows = list(march(grid, butterfly, Side.UPPER, 0.0, 2.0))
    # with sigma_min^2 = 0 the upper update is coef * max(d2, 0) >= 0
    assert np.all(np.diff(rows, axis=0) >= -1e-15)


@pytest.mark.parametrize("route", [march, solve])
def test_zero_lower_variance_warning_names_the_caller(butterfly, route):
    with pytest.warns(UserWarning, match="sigma_min_sq = 0") as record:
        route(NARROW, butterfly, Side.UPPER, 0.0, 2.0)
    assert record[0].filename == __file__


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
