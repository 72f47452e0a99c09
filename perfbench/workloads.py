"""The three benchmark workloads: a fixed mix of jobs each, inputs from a seed.

A job is one ``gamehedge`` CLI argv run in-process through
``gamehedge.cli.main`` (stdout captured by the caller), or, for the tree
route that the CLI cannot reach, one library call.  Every job carries a
check that compares its output with a reference from ``reference.py`` or
with a value pinned by the acceptance tests; checks run outside the timed
span, and their references are computed once per run.

Jobs pinned to acceptance values use the fixed butterfly payoff; all other
payoffs are drawn from the seed, with dyadic parameters so that the JSON
handed to the CLI holds exactly the numbers the references use.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from gamehedge import cli, induction, verify
from gamehedge.model import GameSpec, MoveSpace, PathDependent, Side

import reference as ref

TRI = "-1,1,2"
FIVE = "-1,1/3,1/2,2/3,2"
ZERO = "-1,0,1,2"
BFLY = "butterfly(-1/2,1/2,3/2)"
BFLY_STRIKES = (-0.5, 0.5, 1.5)

# Pinned by tests/test_acceptance.py: criterion 1 (TABLE1, N=100, 5e-5),
# criterion 2 (PDE at the origin, 1e-3), criterion 3 (lattice vs PDE, 5e-3)
# and criterion 9 (fourth-move margins at N=50, 1e-9).
TABLE1_N100 = {"upper": 0.3807, "lower": 0.2032}
PDE_LIMIT = {"upper": 0.3817, "lower": 0.2060}
TRI_UPPER_N50 = 0.3793672251386073
QUAD_MARGIN = {"3/2": 0.0014004951467322946, "5/2": 0.01914333872266738}
QUAD_UPPER_HALF = 0.4948592242987906


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def expect_close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol * max(1.0, abs(want)),
           f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, str], None]  # (returned value, captured stdout)
    export: Path | None = None


# ---------------------------------------------------------------------------
# seeded payoffs


@dataclass(frozen=True)
class Hinged:
    """intercept + slope*x + sum w*max(0, x - k), all parameters dyadic."""

    intercept: Fraction
    slope: Fraction
    hinges: tuple[tuple[Fraction, Fraction], ...]

    def __call__(self, x: float) -> float:
        return ref.hinge_value(float(self.intercept), float(self.slope),
                               [(float(k), float(w)) for k, w in self.hinges], x)

    def cli(self) -> str:
        """The same payoff as the CLI's inline piecewise-linear JSON."""
        def exact(x: Fraction) -> Fraction:
            return self.intercept + self.slope * x + sum(
                (w * max(Fraction(0), x - k) for k, w in self.hinges), Fraction(0))
        return json.dumps({
            "kind": "piecewise_linear",
            "breakpoints": [[float(k), float(exact(k))] for k, _ in self.hinges],
            "left_slope": float(self.slope),
            "right_slope": float(self.slope + sum(w for _, w in self.hinges)),
        })


def seeded_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


# The seed draws a payoff's weights; its kinks stay fixed.  Evaluation cost
# depends on where the kinks sit, so fixed kinks keep every seed's work the
# same.
CONVEX_KINKS = (Fraction(-1, 2), Fraction(1, 4), Fraction(1))
MIXED_SHAPE = Hinged(Fraction(1, 8), Fraction(-1, 4),
                     ((Fraction(-1, 2), Fraction(1)), (Fraction(1, 4), Fraction(-3, 2)),
                      (Fraction(1), Fraction(3, 4))))


def convex_payoff(rng: random.Random) -> Hinged:
    return Hinged(
        Fraction(rng.randint(-8, 8), 8),
        Fraction(rng.randint(-8, 0), 8),
        tuple((k, Fraction(rng.randint(1, 8), 8)) for k in CONVEX_KINKS),
    )


def mixed_payoff(rng: random.Random) -> Hinged:
    """MIXED_SHAPE, neither convex nor concave, times a seeded positive
    factor.  The simplex's pivots depend on the payoff's shape, and a
    positive factor leaves them unchanged, so every seed does the same work."""
    factor = Fraction(rng.randint(4, 16), 8)
    return Hinged(factor * MIXED_SHAPE.intercept, factor * MIXED_SHAPE.slope,
                  tuple((k, factor * w) for k, w in MIXED_SHAPE.hinges))


@dataclass(frozen=True)
class AsianLookback:
    """w_avg*(mean running sum - k_avg)+ + w_max*(max running sum - k_max)+."""

    k_avg: float
    k_max: float
    w_avg: float
    w_max: float

    def __call__(self, scaled_moves: tuple[float, ...]) -> float:
        running = total = peak = 0.0
        for x in scaled_moves:
            running += x
            total += running
            peak = max(peak, running)
        mean = total / len(scaled_moves)
        return self.w_avg * max(0.0, mean - self.k_avg) + self.w_max * max(0.0, peak - self.k_max)


# ---------------------------------------------------------------------------
# references


def moves_of(text: str) -> list[Fraction]:
    return sorted(Fraction(p) for p in text.split(","))


def diffusive(rounds: int) -> float:
    return 1.0 / rounds**0.5


def pair_price(moves: list[Fraction], rounds: int, f, which: str) -> float:
    """Closed form of the outermost or innermost pair's binomial sub-model."""
    negatives = [a for a in moves if a < 0]
    positives = [a for a in moves if a >= 0]
    if which == "outer":
        a_neg, a_pos = negatives[0], positives[-1]
    else:
        a_neg, a_pos = negatives[-1], positives[0]
    return ref.binomial_price(a_neg, a_pos, rounds, diffusive(rounds), f)


def convex_side_price(moves: list[Fraction], rounds: int, f, side: str) -> float:
    """A convex payoff's upper price is the outermost pair's binomial price,
    its lower price the innermost pair's."""
    return pair_price(moves, rounds, f, "outer" if side == "upper" else "inner")


def butterfly(x: float) -> float:
    return ref.butterfly_value(*BFLY_STRIKES, x)


lazy = functools.cache  # a reference is computed once, when first checked


# ---------------------------------------------------------------------------
# job builders


def cli_job(name: str, argv: list[str], check: Callable[[dict | str], None],
            parse: str = "json", export: Path | None = None) -> Job:
    def run() -> object:
        return cli.main(argv)  # resolved at call time, so a traced run sees its wrapper

    def checked(code: object, stdout: str) -> None:
        expect(code == 0, f"exit code {code}")
        check(json.loads(stdout) if parse == "json" else stdout)

    return Job(name, run, checked, export)


def game_argv(command: str, moves: str, rounds: int, payoff: str, *extra: str) -> list[str]:
    return [command, f"--moves={moves}", "--rounds", str(rounds), "--scale", "diffusive",
            "--payoff", payoff, *extra]


def price_job(moves: str, rounds: int, side: str, payoff: Hinged | None, *extra: str,
              export: Path | None = None) -> Job:
    """Exact price; the reference is TABLE1 for the butterfly, the closed form
    for a seeded convex payoff."""
    text = BFLY if payoff is None else payoff.cli()
    if payoff is None:
        want = lambda: TABLE1_N100[side]  # noqa: E731
        tol = 5e-5
    else:
        want = lazy(lambda: convex_side_price(moves_of(moves), rounds, payoff, side))
        tol = 1e-9

    def check(out: dict) -> None:
        expect_close(out["price"], want(), tol, "price")
        expect(out["side"] == side, "side")
        if export is not None:
            check_export(export, out["price"], rounds)

    argv = game_argv("price", moves, rounds, text, "--side", side, *extra)
    label = "bfly" if payoff is None else "seeded"
    suffix = " export" if export else ""
    return cli_job(f"price {moves} N={rounds} {side} {label}{suffix}", argv, check,
                   export=export)


def check_export(path: Path, price: float, rounds: int) -> None:
    with open(path, encoding="utf-8") as handle:
        exported = json.load(handle)
    expect(exported["price"] == price, "exported price differs from printed price")
    # with moves -1,1,2, round n >= 1 reaches the 3n sums -n..2n except 1-n
    expect(len(exported["node_values"]) == 1 + 3 * rounds * (rounds + 1) // 2,
           "exported node count")
    expect(len(exported["strategy"]) == 1 + 3 * (rounds - 1) * rounds // 2,
           "exported strategy count")


def verify_job(moves: str, rounds: int, side: str, payoff: Hinged) -> Job:
    want = lazy(lambda: convex_side_price(moves_of(moves), rounds, payoff, side))
    paths = len(moves_of(moves)) ** rounds

    def check(out: dict) -> None:
        expect(out["superreplicates"] is True, "superreplicates")
        expect(out["measure_audit"]["passed"] is True, "measure audit passed")
        expect(out["measure_audit"]["total_probability"] == "1", "total probability")
        expect(out["paths_checked"] == paths, "paths checked")
        expect_close(out["alpha"], want(), 1e-9, "alpha")

    argv = game_argv("verify", moves, rounds, payoff.cli(), "--side", side)
    return cli_job(f"verify {moves} N={rounds} {side}", argv, check)


def lp_job(rounds: int, side: str, payoff: Hinged, check_dual: bool = False) -> Job:
    want = lazy(lambda: ref.scipy_lp_price(moves_of(TRI), rounds, diffusive(rounds),
                                           payoff, side))

    def check(out: dict) -> None:
        expect(out["rows"] == 3**rounds, "rows")
        expect(out["cols"] == 1 + (3**rounds - 1) // 2, "cols")
        expect_close(out["optimum"], want(), 1e-9, "optimum vs scipy HiGHS")
        if check_dual:
            expect(out["dual_gap"] <= 1e-9, f"dual gap {out['dual_gap']}")
            expect_close(out["dual_enumeration"], want(), 1e-9, "dual vs scipy HiGHS")

    extra = ["--check-dual"] if check_dual else []
    argv = game_argv("lp", TRI, rounds, payoff.cli(), "--side", side, *extra)
    return cli_job(f"lp N={rounds} {side}{' check-dual' if check_dual else ''}", argv, check)


def pde_job(ds: str, dt: str, side: str) -> Job:
    def check(out: dict) -> None:
        expect_close(out["value_at_origin"], PDE_LIMIT[side], 1e-3, "PDE value at origin")

    argv = ["pde", f"--moves={TRI}", "--payoff", BFLY, "--ds", ds, "--dt", dt, "--side", side]
    return cli_job(f"pde ds={ds} dt={dt} {side}", argv, check)


def check_pair_rows(out: dict, rounds: int, f) -> None:
    for row in out["pairs"]:
        a_neg, a_pos = Fraction(row["neg"]), Fraction(row["pos"])
        want = ref.binomial_price(a_neg, a_pos, rounds, diffusive(rounds), f)
        expect_close(row["price"], want, 1e-9, f"pair {row['pair']} price")


# ---------------------------------------------------------------------------
# workloads


def lattice(seed: int, scratch: Path) -> list[Job]:
    """Large-N European pricing; the backward pass does nearly all the work."""
    tri = convex_payoff(seeded_rng(seed, "lattice/tri"))
    five = convex_payoff(seeded_rng(seed, "lattice/five"))
    jobs = [price_job(TRI, 100, side, None) for side in ("upper", "lower")]
    jobs += [price_job(TRI, n, side, tri) for n in (200, 300) for side in ("upper", "lower")]
    jobs += [price_job(FIVE, n, side, five) for n in (50, 100) for side in ("upper", "lower")]

    # a convex payoff keeps the outermost pair at every re-selection, so
    # pruning leaves the closed-form price unchanged
    want_pruned = lazy(lambda: pair_price(moves_of(TRI), 200, tri, "outer"))
    for q in (5, 10):
        def check_pruned(out: dict, q=q) -> None:
            expect(out["prune_period"] == q, "prune period")
            expect_close(out["price"], want_pruned(), 1e-9, "pruned price")

        argv = game_argv("price", TRI, 200, tri.cli(), "--prune", str(q))
        jobs.append(cli_job(f"price {TRI} N=200 prune={q}", argv, check_pruned))

    def check_converge(text: str) -> None:
        header, *rows = [line.split(",") for line in text.strip().splitlines()]
        expect(header == ["N", "upper", "lower", "binomial_max", "binomial_min",
                          "pde_upper", "pde_lower"], "converge header")
        expect([row[0] for row in rows] == ["100", "200"], "converge N column")
        for row in rows:
            n = int(row[0])
            upper, lower, bino_max, bino_min, pde_up, pde_lo = map(float, row[1:])
            pair_prices = [ref.binomial_price(a_neg, a_pos, n, diffusive(n), butterfly)
                           for a_neg, a_pos in ((Fraction(-1), Fraction(1)),
                                                (Fraction(-1), Fraction(2)))]
            expect_close(bino_max, max(pair_prices), 1e-9, f"binomial_max N={n}")
            expect_close(bino_min, min(pair_prices), 1e-9, f"binomial_min N={n}")
            expect_close(pde_up, PDE_LIMIT["upper"], 1e-3, "pde_upper")
            expect_close(pde_lo, PDE_LIMIT["lower"], 1e-3, "pde_lower")
            expect(bino_max <= upper + 1e-9 and lower <= bino_min + 1e-9,
                   f"binomial sandwich N={n}")
            expect(abs(upper - pde_up) <= 5e-3 and abs(lower - pde_lo) <= 5e-3,
                   f"lattice vs PDE N={n}")
            if n == 100:
                expect_close(upper, TABLE1_N100["upper"], 5e-5, "TABLE1 upper")
                expect_close(lower, TABLE1_N100["lower"], 5e-5, "TABLE1 lower")

    jobs.append(cli_job("converge 100,200 pde",
                        ["converge", f"--moves={TRI}", "--payoff", BFLY,
                         "--n-list", "100,200", "--pde"],
                        check_converge, parse="csv"))

    def check_sweep(text: str) -> None:
        header, *rows = [line.split(",") for line in text.strip().splitlines()]
        expect(header == ["a4", "N", "upper"], "sweep header")
        upper = {row[0]: float(row[2]) for row in rows}
        expect(sorted(upper) == ["", "1/2", "3/2", "5/2"], f"sweep rows {sorted(upper)}")
        expect_close(upper[""], TRI_UPPER_N50, 1e-9, "trinomial N=50 upper")
        for a4, margin in QUAD_MARGIN.items():
            expect_close(upper[a4] - upper[""], margin, 1e-9, f"a4={a4} margin")
        expect_close(upper["1/2"], QUAD_UPPER_HALF, 1e-9, "a4=1/2 upper")

    jobs.append(cli_job("sweep-quad N=50",
                        ["sweep-quad", "--n-list", "50", "--a4-min", "1/2",
                         "--a4-max", "5/2", "--a4-step", "1/2"],
                        check_sweep, parse="csv"))
    return jobs


def certify(seed: int, scratch: Path) -> list[Job]:
    """Certificates: path replay, exact measure audit and JSON export."""
    tri = convex_payoff(seeded_rng(seed, "certify/tri"))
    zero = convex_payoff(seeded_rng(seed, "certify/zero"))
    jobs = [verify_job(TRI, n, side, tri) for n in (8, 9) for side in ("upper", "lower")]
    jobs += [verify_job(ZERO, 7, side, zero) for side in ("upper", "lower")]

    want9 = lazy(lambda: convex_side_price(moves_of(TRI), 9, tri, "upper"))

    def check_price_verify(out: dict) -> None:
        expect_close(out["price"], want9(), 1e-9, "price")
        report = out["verification"]
        expect(report["superreplicates"] is True and report["measure_ok"] is True,
               "verification flags")
        expect(report["paths_checked"] == 3**9, "paths checked")

    jobs.append(cli_job(f"price {TRI} N=9 verify",
                        game_argv("price", TRI, 9, tri.cli(), "--verify"),
                        check_price_verify))
    for n in (100, 150):
        path = scratch / f"export-N{n}.json"
        jobs.append(price_job(TRI, n, "upper", tri, "--export-result", str(path),
                              export=path))

    rng = seeded_rng(seed, "certify/path")
    path_payoff = AsianLookback(rng.randint(-4, 4) / 8, rng.randint(0, 8) / 8,
                                rng.randint(1, 8) / 8, rng.randint(1, 8) / 8)
    game = GameSpec(MoveSpace.from_moves(moves_of(TRI)), 8, diffusive(8))
    want_tree = lazy(lambda: ref.tree_upper_price(moves_of(TRI), 8, diffusive(8), path_payoff))

    def run_tree() -> object:
        payoff = PathDependent(path_payoff, label="asian-lookback")
        result = induction.price_path_dependent(game, payoff, Side.UPPER)
        report = verify.check_superreplication(game, payoff, result.price, result.strategy)
        audit = verify.audit_measure(game, payoff, result)
        return result.price, report, audit

    def check_tree(value: object, stdout: str) -> None:
        price, report, audit = value
        expect_close(price, want_tree(), 1e-9, "tree price")
        expect(report.passed and report.paths_checked == 3**8, "superreplication replay")
        expect(audit.passed and audit.total_probability == 1, "measure audit")

    jobs.append(Job("library tree N=8 replay+audit", run_tree, check_tree))
    return jobs


def crosscheck(seed: int, scratch: Path) -> list[Job]:
    """Independent oracles and the PDE: LP, dual enumeration, closed forms."""
    lp_payoff = mixed_payoff(seeded_rng(seed, "crosscheck/lp"))
    five = convex_payoff(seeded_rng(seed, "crosscheck/five"))
    # Pinned to acceptance criterion 4's seed, not derived from --seed: some
    # derived seeds hit a known simplex defect (NOTES.md, "Known defects").
    fuzz_seed = 0

    jobs = [lp_job(n, side, lp_payoff) for n in (4, 5) for side in ("upper", "lower")]
    jobs += [lp_job(n, "upper", lp_payoff, check_dual=True) for n in (2, 3)]

    def check_fuzz(out: dict) -> None:
        expect(out["passed"] is True and out["failures"] == [], "fuzz failures")
        expect(out["trials"] == 100 and out["seed"] == fuzz_seed, "fuzz trials and seed")

    jobs.append(cli_job("fuzz 100", ["fuzz", "--trials", "100", "--seed", str(fuzz_seed)],
                        check_fuzz))
    jobs += [pde_job(ds, dt, side)
             for ds, dt in (("1/40", "1/4000"), ("1/80", "1/16000"))
             for side in ("upper", "lower")]

    five_moves = moves_of(FIVE)
    want_outer = lazy(lambda: pair_price(five_moves, 1000, five, "outer"))
    want_inner = lazy(lambda: pair_price(five_moves, 1000, five, "inner"))

    def check_split(out: dict) -> None:
        check_pair_rows(out, 1000, five)
        expect_close(out["binomial_max"]["price"], want_outer(), 1e-9, "binomial_max")
        expect_close(out["binomial_min"]["price"], want_inner(), 1e-9, "binomial_min")
        # the concave part of a convex payoff is zero
        expect_close(out["convex_concave"]["bound"], want_outer(), 1e-9, "split bound")

    jobs.append(cli_job(f"bounds {FIVE} N=1000 split",
                        game_argv("bounds", FIVE, 1000, five.cli(), "--split"), check_split))

    def check_nested(out: dict) -> None:
        check_pair_rows(out, 50, butterfly)
        nested = out["nested"]
        chain = [nested[k] for k in ("lower_outer", "lower_inner", "upper_inner", "upper_outer")]
        expect(all(a <= b + 1e-9 for a, b in zip(chain, chain[1:])), f"nested chain {chain}")
        expect_close(nested["upper_inner"], TRI_UPPER_N50, 1e-9, "upper_inner")
        expect_close(nested["upper_outer"] - nested["upper_inner"], QUAD_MARGIN["3/2"],
                     1e-9, "a4=3/2 margin")
        expect(out["convex_concave"]["bound"] >= nested["upper_inner"] - 1e-9, "split bound")

    jobs.append(cli_job(f"bounds {TRI} N=50 split nested",
                        game_argv("bounds", TRI, 50, BFLY, "--split",
                                  "--nested-outer=-1,1,3/2,2"),
                        check_nested))
    return jobs


WORKLOADS = {"lattice": lattice, "certify": certify, "crosscheck": crosscheck}
