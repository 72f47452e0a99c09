"""Command-line interface.

Subcommands: price, pde, converge, sweep-quad, bounds, lp, verify, fuzz.
Primary output (JSON or CSV) goes to stdout or --output and is
deterministic; timings go to stderr behind --timing.  Exit codes: 0 ok,
2 invalid input, 3 budget exceeded, 4 verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import re
import stat
import sys
import tempfile
import time
from dataclasses import fields

from . import bounds as bounds_mod
from . import induction, lp, pde, verify
from .model import (
    _PAYOFF_KINDS,
    BudgetError,
    GameSpec,
    MoveSpace,
    Payoff,
    Side,
    parse_rational,
    payoff_from_json,
    payoff_to_json,
    result_to_json,
    variances,
)

_SHORTHAND = re.compile(r"^(call|put|butterfly|sine|sin)\s*\((.*)\)$", re.IGNORECASE)

# a4 values times N values one sweep-quad may price (the default sweep needs 2,500)
_SWEEP_BUDGET = 10**5


def _finite(text: str) -> float:
    """The rational ``text`` as a float; ValueError naming it when it lies
    beyond the float range."""
    try:
        return float(parse_rational(text))
    except OverflowError:
        raise ValueError(f"not a finite float: {text!r}") from None


def parse_payoff(text: str) -> Payoff:
    """Parse a payoff: shorthand call(k)/put(k)/butterfly(k1,k2,k3)/sin(w),
    inline JSON, or @file.json."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return payoff_from_json(json.load(handle))
    if text[:1] in "[{":
        return payoff_from_json(json.loads(text))
    match = _SHORTHAND.match(text)
    if not match:
        raise ValueError(f"cannot parse payoff {text!r}")
    name = match.group(1).lower()
    cls = _PAYOFF_KINDS["sine" if name == "sin" else name]
    args = [_finite(p) for p in match.group(2).split(",") if p.strip()]
    if len(args) != len(fields(cls)):
        raise ValueError(f"wrong number of arguments in payoff {text!r}")
    return cls(*args)


def parse_moves(text: str) -> MoveSpace:
    return MoveSpace.from_moves(parse_rational(p) for p in text.split(","))


def _game_from_args(args) -> GameSpec:
    moves = parse_moves(args.moves)
    if args.scale == "diffusive":
        return GameSpec.scaled(moves, args.rounds)
    return GameSpec(moves, args.rounds, _finite(args.scale))


def _n_list(text: str, n_max: int = 0) -> list[int] | range:
    """The N values of a comma-separated list, or the range 1..n_max when
    it is empty; refuses an empty result and any N < 1."""
    n_list = [int(p) for p in text.split(",")] if text else range(1, n_max + 1)
    if not n_list:
        raise ValueError("no N to price")
    if text and min(n_list) < 1:
        raise ValueError(f"every N must be >= 1, got {min(n_list)}")
    return n_list


def _grid_from_args(args) -> pde.GridSpec:
    lo_s, hi_s = (_finite(p) for p in args.s_range.split(","))
    return pde.GridSpec(
        s_min=lo_s,
        s_max=hi_s,
        ds=_finite(args.ds),
        dt=_finite(args.dt),
        horizon=_finite(args.horizon),
    )


def _output_path(text: str) -> str:
    """An output file option's value; the empty path names no file."""
    if not text:
        raise argparse.ArgumentTypeError("the output path is empty")
    return text


@contextlib.contextmanager
def _replacing(path: str):
    """Open ``path`` for writing text.

    A regular file (or a new one) is written under a temporary name beside
    it and renamed onto it when the block ends without error, so a failure
    leaves ``path`` as it was and no partial file behind.  Anything else (a
    pipe, a terminal, /dev/null) is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    try:
        fd, staged = tempfile.mkstemp(".partial", os.path.basename(target) + ".",
                                      os.path.dirname(target))
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.chmod(staged, stat.S_IMODE(mode))
        os.replace(staged, target)
    except BaseException:
        os.remove(staged)
        raise


def _emit(args, text: str) -> None:
    if args.output != "-":
        with _replacing(args.output) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _emit_csv(args, header: list[str], rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buffer.getvalue())


def _timing(args, started: float) -> None:
    if getattr(args, "timing", False):
        print(f"elapsed: {time.perf_counter() - started:.6f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_price(args) -> int:
    game = _game_from_args(args)
    payoff = parse_payoff(args.payoff)
    side = Side(args.side)
    pruned = args.prune is not None
    if pruned and side is not Side.UPPER:
        raise ValueError("pruned pricing is defined for the upper side only")
    if pruned and args.verify:
        raise ValueError("--verify applies to exact (non-pruned) results")
    started = time.perf_counter()
    if pruned:
        result = induction.price_pruned(game, payoff, induction.PruneSchedule(args.prune))
    else:
        result = induction.price_european(game, payoff, side)
    _timing(args, started)

    if args.export_result is not None:
        with _replacing(args.export_result) as handle:
            result_to_json(result, handle)
            handle.write("\n")

    out = {
        "price": result.price,
        "side": side.value,
        "moves": [str(a) for a in game.moves.members],
        "rounds": game.rounds,
        "scale": game.payoff_scale,
        "payoff": payoff_to_json(payoff),
    }
    if pruned:
        out["prune_period"] = args.prune

    if args.verify:
        report = verify.check_replication(game, payoff, result.price, result.strategy, side)
        audit = verify.audit_measure(game, payoff, result)
        out["verification"] = {
            "min_slack": report.min_slack,
            "paths_checked": report.paths_checked,
            "superreplicates": report.passed,
            "measure_ok": audit.passed,
        }
        _emit_json(args, out)
        return 0 if (report.passed and audit.passed) else 4

    _emit_json(args, out)
    return 0


def _dump_field(path: str, grid: pde.GridSpec, payoff: Payoff, side: Side,
                sig_lo: float, sig_hi: float) -> pde.GridSolution:
    """March the PDE, writing each row to ``path`` as t,s,phi CSV as it is
    made.  A march that fails part-way leaves ``path`` as it was."""
    rows = pde.march(grid, payoff, side, sig_lo, sig_hi)
    s_vals = grid.s_values().tolist()
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t", "s", "phi"])
        for n, row in enumerate(rows):
            writer.writerows(zip(itertools.repeat(n * grid.dt), s_vals, row.tolist()))
    return pde.GridSolution(grid, row)


def cmd_pde(args) -> int:
    payoff = parse_payoff(args.payoff)
    side = Side(args.side)
    grid = _grid_from_args(args)
    if args.sigma2:
        sig_lo, sig_hi = (_finite(p) for p in args.sigma2.split(","))
    else:
        lo, hi = variances(parse_moves(args.moves))
        sig_lo, sig_hi = float(lo), float(hi)
    started = time.perf_counter()
    if args.dump_field is not None:
        solution = _dump_field(args.dump_field, grid, payoff, side, sig_lo, sig_hi)
    else:
        solution = pde.solve(grid, payoff, side, sig_lo, sig_hi)
    _timing(args, started)

    _emit_json(
        args,
        {
            "value_at_origin": pde.value_at(solution, 0.0),
            "side": side.value,
            "sigma_min_sq": sig_lo,
            "sigma_max_sq": sig_hi,
            "grid": {
                "s_min": grid.s_min,
                "s_max": grid.s_max,
                "ds": grid.ds,
                "dt": grid.dt,
                "horizon": grid.horizon,
            },
        },
    )
    return 0


def cmd_converge(args) -> int:
    moves = parse_moves(args.moves)
    payoff = parse_payoff(args.payoff)
    n_list = _n_list(args.n_list)

    started = time.perf_counter()
    pde_upper = pde_lower = None
    if args.pde:
        grid = _grid_from_args(args)
        lo, hi = variances(moves)
        up_sol = pde.solve(grid, payoff, Side.UPPER, float(lo), float(hi))
        lo_sol = pde.solve(grid, payoff, Side.LOWER, float(lo), float(hi))
        pde_upper = pde.value_at(up_sol, 0.0)
        pde_lower = pde.value_at(lo_sol, 0.0)

    rows = []
    for rounds in n_list:
        game = GameSpec.scaled(moves, rounds)
        upper = induction.price_european(game, payoff, Side.UPPER).price
        lower = induction.price_european(game, payoff, Side.LOWER).price
        prices = bounds_mod.binomial_prices(game, payoff).values()
        bino_max, bino_min = max(prices), min(prices)
        rows.append(
            [
                rounds,
                repr(upper),
                repr(lower),
                repr(bino_max),
                repr(bino_min),
                repr(pde_upper) if pde_upper is not None else "",
                repr(pde_lower) if pde_lower is not None else "",
            ]
        )
    _timing(args, started)
    _emit_csv(
        args,
        ["N", "upper", "lower", "binomial_max", "binomial_min", "pde_upper", "pde_lower"],
        rows,
    )
    return 0


def cmd_sweep_quad(args) -> int:
    base = parse_moves(args.base_moves)
    payoff = parse_payoff(args.payoff)
    n_list = _n_list(args.n_list, args.n_max)
    a4_min = parse_rational(args.a4_min)
    a4_max = parse_rational(args.a4_max)
    step = parse_rational(args.a4_step)
    if a4_min <= 0 or step <= 0 or a4_max < a4_min:
        raise ValueError("need 0 < a4-min <= a4-max and a4-step > 0")
    a4_count = (a4_max - a4_min) // step + 1
    n_count = len(n_list) if args.n_list else args.n_max  # len() of a range stops at 2**63
    if a4_count * n_count > _SWEEP_BUDGET:
        raise BudgetError(f"{a4_count} a4 values at {n_count} N need {a4_count * n_count} "
                          f"pricings, past the budget of {_SWEEP_BUDGET}")

    rows = []
    for rounds in n_list:
        game = GameSpec.scaled(base, rounds)
        rows.append(["", rounds, repr(induction.price_european(game, payoff, Side.UPPER).price)])

    members = set(base.members)
    started = time.perf_counter()
    for a4 in (a4_min + k * step for k in range(a4_count)):
        if a4 in members:
            print(f"skipping a4={a4}: already a move", file=sys.stderr)
        else:
            quad = MoveSpace.from_moves(list(base.members) + [a4])
            for rounds in n_list:
                game = GameSpec.scaled(quad, rounds)
                price = induction.price_european(game, payoff, Side.UPPER).price
                rows.append([str(a4), rounds, repr(price)])
    _timing(args, started)
    _emit_csv(args, ["a4", "N", "upper"], rows)
    return 0


def cmd_bounds(args) -> int:
    game = _game_from_args(args)
    payoff = parse_payoff(args.payoff)
    prices = bounds_mod.binomial_prices(game, payoff)
    pair_rows = []
    for pair, price in prices.items():
        a_neg, a_pos = game.moves.pair_moves(*pair)
        pair_rows.append({"pair": list(pair), "neg": str(a_neg), "pos": str(a_pos), "price": price})
    best_pair = max(prices, key=prices.get)
    worst_pair = min(prices, key=prices.get)
    out = {
        "pairs": pair_rows,
        "binomial_max": {"price": prices[best_pair], "pair": list(best_pair)},
        "binomial_min": {"price": prices[worst_pair], "pair": list(worst_pair)},
    }
    if args.split:
        convex_part, concave_part = bounds_mod.split_convex_concave(payoff)
        out["convex_concave"] = {
            "bound": bounds_mod.convex_concave_bound(payoff, game),
            "convex_part": payoff_to_json(convex_part),
            "concave_part": payoff_to_json(concave_part),
        }
    if args.nested_outer:
        outer = parse_moves(args.nested_outer)
        chain = bounds_mod.nested_compare(game.moves, outer, game, payoff)
        out["nested"] = {
            "outer_moves": [str(a) for a in outer.members],
            "lower_outer": chain[0],
            "lower_inner": chain[1],
            "upper_inner": chain[2],
            "upper_outer": chain[3],
        }
    _emit_json(args, out)
    return 0


def cmd_lp(args) -> int:
    game = _game_from_args(args)
    payoff = parse_payoff(args.payoff)
    side = Side(args.side)
    problem = lp.build_problem(game, payoff)
    if args.dump_lp is not None:
        with _replacing(args.dump_lp) as handle:
            handle.write(lp.dump_dense(problem))
    started = time.perf_counter()
    optimum = lp.solve_side(problem, side)
    _timing(args, started)
    out = {
        "optimum": optimum,
        "side": side.value,
        "rows": problem.shape[0],
        "cols": problem.shape[1],
    }
    status = 0
    if args.check_dual:
        dual = lp.dual_side(game, problem, side)
        out["dual_enumeration"] = dual
        out["dual_gap"] = abs(dual - optimum)
        if out["dual_gap"] > 1e-9:
            status = 4
    _emit_json(args, out)
    return status


def cmd_verify(args) -> int:
    game = _game_from_args(args)
    payoff = parse_payoff(args.payoff)
    side = Side(args.side)
    result = induction.price_european(game, payoff, side)
    alpha = result.price if args.alpha is None else _finite(args.alpha)
    report = verify.check_replication(game, payoff, alpha, result.strategy, side)
    audit = verify.audit_measure(game, payoff, result)
    out = {
        "alpha": alpha,
        "side": side.value,
        "min_slack": report.min_slack,
        "worst_path": [str(a) for a in report.worst_path],
        "paths_checked": report.paths_checked,
        "superreplicates": report.passed,
        "measure_audit": {
            "total_probability": str(audit.total_probability),
            "expectation": audit.expectation,
            "price": audit.price,
            "nodes_checked": audit.nodes_checked,
            "passed": audit.passed,
        },
    }
    _emit_json(args, out)
    return 0 if (report.passed and audit.passed) else 4


def cmd_fuzz(args) -> int:
    started = time.perf_counter()
    summary = verify.fuzz_cross_routes(args.seed, args.trials, args.max_moves, args.max_rounds)
    _timing(args, started)
    _emit_json(
        args,
        {
            "seed": summary.seed,
            "trials": summary.trials,
            "failures": summary.failures,
            "passed": summary.passed,
        },
    )
    return 0 if summary.passed else 4


# ---------------------------------------------------------------------------
# parser


def _add_game_options(sub, with_side: bool = True) -> None:
    sub.add_argument("--moves", required=True,
                     help="comma-separated rational moves; use the = form for a leading minus, e.g. --moves=-1,1,2")
    sub.add_argument("--rounds", type=int, required=True)
    sub.add_argument("--scale", default="1", help="payoff scale: a rational, or 'diffusive' for 1/sqrt(rounds)")
    sub.add_argument("--payoff", required=True, help="call(k), put(k), butterfly(k1,k2,k3), sin(w), inline JSON, or @file.json")
    if with_side:
        sub.add_argument("--side", choices=["upper", "lower"], default="upper")


def _add_grid_options(sub) -> None:
    # default domain is wide enough that the frozen boundaries cannot touch
    # values near the origin over a unit horizon (|s_bound| >= 4*sigma_max)
    sub.add_argument("--s-range", default="-6,6", help="spatial interval lo,hi")
    sub.add_argument("--ds", default="1/10")
    sub.add_argument("--dt", default="1/300")
    sub.add_argument("--horizon", default="1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamehedge",
        description="Exact hedging prices in multinomial games, LP cross-checks, "
        "binomial bounds, and the volatility-band PDE limit.",
    )
    parser.add_argument("--output", default="-", type=_output_path,
                        help="write primary output here instead of stdout")
    parser.add_argument("--timing", action="store_true", help="print elapsed time to stderr")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("price", help="exact hedging price by backward induction")
    _add_game_options(sub)
    sub.add_argument("--prune", type=int, metavar="Q",
                     help="re-select the pair only every Q rounds (upper side)")
    sub.add_argument("--verify", action="store_true",
                     help="replay the strategy on every path and audit the measure")
    sub.add_argument("--export-result", metavar="FILE", type=_output_path,
                     help="write the full node-level result as JSON")
    sub.set_defaults(func=cmd_price)

    sub = subs.add_parser("pde", help="explicit finite-difference solve of the PDE limit")
    sub.add_argument("--payoff", required=True)
    sub.add_argument("--side", choices=["upper", "lower"], default="upper")
    sub.add_argument("--moves", help="take the variance band from this move space")
    sub.add_argument("--sigma2", help="explicit variance band lo,hi (overrides --moves)")
    _add_grid_options(sub)
    sub.add_argument("--dump-field", metavar="FILE", type=_output_path,
                     help="write the whole field as CSV")
    sub.set_defaults(func=cmd_pde)

    sub = subs.add_parser("converge", help="scaled-game prices for several N, optionally vs the PDE")
    sub.add_argument("--moves", required=True)
    sub.add_argument("--payoff", required=True)
    sub.add_argument("--n-list", default="1,20,40,60,80,100")
    sub.add_argument("--pde", action="store_true", help="also solve the PDE on the grid options")
    _add_grid_options(sub)
    sub.set_defaults(func=cmd_converge)

    sub = subs.add_parser("sweep-quad", help="upper prices after inserting a fourth move a4")
    sub.add_argument("--base-moves", default="-1,1,2")
    sub.add_argument("--payoff", default="butterfly(-1/2,1/2,3/2)")
    sub.add_argument("--a4-min", default="1/10")
    sub.add_argument("--a4-max", default="5")
    sub.add_argument("--a4-step", default="1/10")
    sub.add_argument("--n-max", type=int, default=50)
    sub.add_argument("--n-list", default="", help="explicit comma-separated N values (overrides --n-max)")
    sub.set_defaults(func=cmd_sweep_quad)

    sub = subs.add_parser("bounds", help="binomial sub-model prices and structural bounds")
    _add_game_options(sub, with_side=False)
    sub.add_argument("--split", action="store_true",
                     help="also compute the convex+concave split bound")
    sub.add_argument("--nested-outer", metavar="MOVES",
                     help="compare against this enclosing move space")
    sub.set_defaults(func=cmd_bounds)

    sub = subs.add_parser("lp", help="price via the direct LP formulation")
    _add_game_options(sub)
    sub.add_argument("--dump-lp", metavar="FILE", type=_output_path,
                     help="write the dense LP as text")
    sub.add_argument("--check-dual", action="store_true",
                     help="cross-check against brute-force dual enumeration")
    sub.set_defaults(func=cmd_lp)

    sub = subs.add_parser("verify", help="superreplication replay and exact measure audit")
    _add_game_options(sub)
    sub.add_argument("--alpha", help="replay from this level instead of the computed price")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("fuzz", help="randomized cross-route consistency checks")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--max-moves", type=int, default=3)
    sub.add_argument("--max-rounds", type=int, default=3)
    sub.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pde" and not (args.moves or args.sigma2):
        parser.error("pde needs --moves or --sigma2")
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
