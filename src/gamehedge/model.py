"""Domain types for multinomial hedging games.

Moves and single-step probabilities are exact rationals; floats appear only
when a payoff is evaluated or a price is accumulated.  Games are priced on
the unscaled move lattice, with the optional ``payoff_scale`` applied at
payoff evaluation time only (single-step weights are invariant under a
positive rescaling of all moves, so this is equivalent to scaling the moves
themselves).
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, TextIO, Union

import numpy as np


class Side(str, Enum):
    """Which hedging price is being computed."""

    UPPER = "upper"
    LOWER = "lower"


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured size budget."""


def parse_rational(text: str) -> Fraction:
    """Parse ``'p/q'`` or a decimal literal into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"float move {value!r} is not finite")
        # floats are accepted for convenience where they are small rationals:
        # the nearest one of denominator <= 10**6 must round back to the float
        snapped = Fraction(value).limit_denominator(10**6)
        if float(snapped) != value:
            raise ValueError(f"float move {value!r} is no rational of denominator <= 10**6; "
                             "pass it as a Fraction or a string such as '1/3'")
        return snapped
    raise ValueError(f"cannot interpret {value!r} as a rational move")


@dataclass(frozen=True)
class MoveSpace:
    """Market's finite move set, split into negative and nonnegative parts.

    ``negatives`` are strictly negative and ordered decreasing from zero
    (innermost first); ``positives`` are ordered increasing and the first
    one may be zero.  Both parts must be nonempty.
    """

    negatives: tuple[Fraction, ...]
    positives: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.negatives or not self.positives:
            raise ValueError("move space needs at least one negative and one nonnegative move")
        if any(a >= 0 for a in self.negatives):
            raise ValueError("negatives must be strictly negative")
        if any(a < 0 for a in self.positives):
            raise ValueError("positives must be nonnegative")
        if list(self.negatives) != sorted(set(self.negatives), reverse=True):
            raise ValueError("negatives must be distinct and decreasing from zero")
        if list(self.positives) != sorted(set(self.positives)):
            raise ValueError("positives must be distinct and increasing")
        if any(abs(a) > sys.float_info.max for a in self.negatives + self.positives):
            raise ValueError("moves must lie within the float range")

    @classmethod
    def from_moves(cls, moves: Iterable) -> "MoveSpace":
        """Build a MoveSpace from any iterable of rationals (mixed signs)."""
        vals = sorted({_as_rational(a) for a in moves})
        neg = tuple(a for a in reversed(vals) if a < 0)
        pos = tuple(a for a in vals if a >= 0)
        return cls(neg, pos)

    @property
    def members(self) -> tuple[Fraction, ...]:
        """All moves in ascending order."""
        return tuple(reversed(self.negatives)) + self.positives

    @property
    def n_negative(self) -> int:
        return len(self.negatives)

    @property
    def n_positive(self) -> int:
        return len(self.positives)

    @property
    def size(self) -> int:
        return len(self.negatives) + len(self.positives)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All (negative index, positive index) pairs, lexicographic."""
        for i in range(len(self.negatives)):
            for j in range(len(self.positives)):
                yield (i, j)

    def pair_moves(self, i: int, j: int) -> tuple[Fraction, Fraction]:
        return self.negatives[i], self.positives[j]


def variances(moves: MoveSpace) -> tuple[Fraction, Fraction]:
    """Smallest and largest one-step variances over basic two-point measures.

    The variance of the pair (a_i-, a_j+) under its zero-mean weights is
    -a_i- * a_j+, so the extremes come from the innermost and outermost pairs.
    """
    lo = -moves.negatives[0] * moves.positives[0]
    hi = -moves.negatives[-1] * moves.positives[-1]
    return lo, hi


@dataclass(frozen=True)
class RiskNeutralNode:
    """Zero-mean two-point measure supported on one (negative, positive) pair."""

    pair: tuple[int, int]
    prob_neg: Fraction
    prob_pos: Fraction

    @classmethod
    def from_pair(cls, moves: MoveSpace, i: int, j: int) -> "RiskNeutralNode":
        # weights solve p_neg + p_pos = 1 and a_neg*p_neg + a_pos*p_pos = 0
        a_neg, a_pos = moves.pair_moves(i, j)
        span = a_pos - a_neg
        return cls((i, j), a_pos / span, -a_neg / span)


@dataclass(frozen=True)
class GameSpec:
    """A hedging game: move space, number of rounds, payoff scale."""

    moves: MoveSpace
    rounds: int
    payoff_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.payoff_scale > 0):
            raise ValueError("payoff_scale must be positive")

    @classmethod
    def scaled(cls, moves: MoveSpace, rounds: int) -> "GameSpec":
        """Game with the diffusive payoff scale 1/sqrt(rounds)."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        return cls(moves, rounds, 1.0 / math.sqrt(rounds))


# ---------------------------------------------------------------------------
# payoffs


@dataclass(frozen=True)
class Call:
    strike: float

    def __call__(self, s: float) -> float:
        return max(0.0, s - self.strike)


@dataclass(frozen=True)
class Put:
    strike: float

    def __call__(self, s: float) -> float:
        return max(0.0, self.strike - s)


@dataclass(frozen=True)
class Butterfly:
    """(s-k1)+ - 2(s-k2)+ + (s-k3)+ for any k1 < k2 < k3.

    It is 0 up to k1, rises to k2 - k1 at k2, and from k3 on equals
    2*k2 - k1 - k3, which is 0 only where k2 is the midpoint of k1 and k3.
    """

    k1: float
    k2: float
    k3: float

    def __post_init__(self) -> None:
        if not (self.k1 < self.k2 < self.k3):
            raise ValueError("butterfly strikes must satisfy k1 < k2 < k3")

    def __call__(self, s: float) -> float:
        return (
            max(0.0, s - self.k1)
            - 2.0 * max(0.0, s - self.k2)
            + max(0.0, s - self.k3)
        )


@dataclass(frozen=True)
class Sine:
    """sin(frequency * s); bounded, non-convex test payoff."""

    frequency: float

    def __call__(self, s: float) -> float:
        return math.sin(self.frequency * s)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear payoff.

    ``breakpoints`` is a tuple of (x, y) pairs with strictly increasing x;
    values are interpolated between breakpoints and extended with
    ``left_slope`` / ``right_slope`` outside them.
    """

    breakpoints: tuple[tuple[float, float], ...]
    left_slope: float = 0.0
    right_slope: float = 0.0

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ValueError("need at least one breakpoint")
        xs = [x for x, _ in self.breakpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint x values must be strictly increasing")

    def __call__(self, s: float) -> float:
        pts = self.breakpoints
        if s <= pts[0][0]:
            return pts[0][1] + self.left_slope * (s - pts[0][0])
        if s >= pts[-1][0]:
            return pts[-1][1] + self.right_slope * (s - pts[-1][0])
        idx = bisect.bisect_right([x for x, _ in pts], s) - 1
        (x0, y0), (x1, y1) = pts[idx], pts[idx + 1]
        return y0 + (y1 - y0) * (s - x0) / (x1 - x0)


@dataclass(frozen=True)
class PathDependent:
    """Payoff of the whole path.

    ``evaluator`` receives the scaled path as a tuple of floats, i.e.
    (scale*x_1, ..., scale*x_N) component-wise.
    """

    evaluator: Callable[[tuple[float, ...]], float]
    label: str = "path"


Payoff = Union[Call, Put, Butterfly, Sine, PiecewiseLinear, PathDependent]


def is_path_dependent(payoff: Payoff) -> bool:
    return isinstance(payoff, PathDependent)


def evaluate_payoff(payoff: Payoff, s: float) -> float:
    """Evaluate a European payoff at the (already scaled) terminal sum to a finite value."""
    if isinstance(payoff, PathDependent):
        raise ValueError("path-dependent payoff needs the full path, not a terminal sum")
    value = payoff(s)
    if not math.isfinite(value):
        raise ValueError(f"payoff value {value!r} at s = {s!r} is not finite")
    return value


def state_steps(game: GameSpec, payoff: Payoff) -> tuple[int, np.ndarray]:
    """(mult, steps): a node's exact state is its parent's times mult plus
    steps[move], from 0 at the root.  It is the node's sum on the moves'
    common denominator, or its base-k move prefix for a path-dependent
    payoff; steps are Python ints where int64 could wrap."""
    members, rounds = game.moves.members, game.rounds
    if isinstance(payoff, PathDependent):
        mult, steps = len(members), list(range(len(members)))
    else:
        denom = math.lcm(*(a.denominator for a in members))
        mult, steps = 1, [a.numerator * (denom // a.denominator) for a in members]
    wide = max(map(abs, steps)) * mult**rounds * rounds >= 2**63
    return mult, np.array(steps, dtype=object if wide else np.int64)


def leaf_payoffs(game: GameSpec, payoff: Payoff, states: np.ndarray) -> np.ndarray:
    """f at leaves of these exact states (see state_steps); ValueError where
    it is not finite.  A European payoff is evaluated at scale * (sum /
    denom), the correctly rounded float of the exact sum, a path-dependent
    one at the path of scale * float(move) per round."""
    scale, members, rounds = game.payoff_scale, game.moves.members, game.rounds
    if not isinstance(payoff, PathDependent):
        denom = math.lcm(*(a.denominator for a in members))
        return np.array([evaluate_payoff(payoff, scale * (s / denom)) for s in states.tolist()])
    # a leaf code's path is the tuple of its first rounds - tail moves plus
    # that of its last tail moves, each looked up in a table of about
    # sqrt(k^N) tuples, so no leaf's path outlives its evaluation
    scaled = [scale * float(a) for a in members]
    tail = rounds // 2
    heads = list(itertools.product(scaled, repeat=rounds - tail))
    tails = list(itertools.product(scaled, repeat=tail))
    paths = map(divmod, states.tolist(), itertools.repeat(len(tails)))
    values = np.fromiter((payoff.evaluator(heads[h] + tails[t]) for h, t in paths),
                         dtype=np.float64, count=len(states))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        h, t = divmod(int(states[bad[0]]), len(tails))
        raise ValueError(f"payoff value {float(values[bad[0]])!r} at the path "
                         f"{heads[h] + tails[t]!r} is not finite")
    return values


def path_payoff_vector(game: GameSpec, payoff: Payoff) -> np.ndarray:
    """Payoff at every terminal path, in lexicographic member order (the
    order of the LP's rows and of the move tree's leaves)."""
    mult, steps = state_steps(game, payoff)
    states = np.zeros(1, dtype=steps.dtype)
    for _ in range(game.rounds):
        states = (states[:, None] * mult + steps).ravel()
    return leaf_payoffs(game, payoff, states)


# --- hinge form -------------------------------------------------------------
#
# Every piecewise-linear payoff can be written as
#     f(s) = intercept + base_slope*s + sum_i w_i * max(0, s - x_i)
# which makes negation and convex/concave splitting mechanical.


def payoff_hinges(payoff: Payoff) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """Return (intercept, base_slope, ((x, weight), ...)) for a hinge payoff."""
    if isinstance(payoff, Call):
        return 0.0, 0.0, ((payoff.strike, 1.0),)
    if isinstance(payoff, Put):
        # (K-s)+ = K - s + (s-K)+
        return payoff.strike, -1.0, ((payoff.strike, 1.0),)
    if isinstance(payoff, Butterfly):
        return 0.0, 0.0, ((payoff.k1, 1.0), (payoff.k2, -2.0), (payoff.k3, 1.0))
    if isinstance(payoff, PiecewiseLinear):
        pts = payoff.breakpoints
        slopes = [payoff.left_slope]
        slopes += [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        slopes.append(payoff.right_slope)
        hinges = tuple(
            (pts[i][0], slopes[i + 1] - slopes[i])
            for i in range(len(pts))
            if slopes[i + 1] != slopes[i]
        )
        x0, y0 = pts[0]
        return y0 - payoff.left_slope * x0, payoff.left_slope, hinges
    raise ValueError(f"{type(payoff).__name__} has no hinge representation")


def piecewise_from_hinges(
    intercept: float, base_slope: float, hinges: Iterable[tuple[float, float]]
) -> PiecewiseLinear:
    """Inverse of payoff_hinges (up to hinge merging)."""
    merged: dict[float, float] = {}
    for x, w in hinges:
        merged[x] = merged.get(x, 0.0) + w
    items = sorted((x, w) for x, w in merged.items() if w != 0.0)
    if not items:
        return PiecewiseLinear(((0.0, intercept),), base_slope, base_slope)
    xs = [x for x, _ in items]
    ys = [intercept + base_slope * xs[0]]
    slope = base_slope
    for idx in range(len(items) - 1):
        slope += items[idx][1]
        ys.append(ys[-1] + slope * (xs[idx + 1] - xs[idx]))
    right = slope + items[-1][1]
    return PiecewiseLinear(tuple(zip(xs, ys)), base_slope, right)


def negate_payoff(payoff: Payoff) -> Payoff:
    """A payoff representing -f (used for lower prices via reciprocity)."""
    if isinstance(payoff, PiecewiseLinear):
        return PiecewiseLinear(
            tuple((x, -y) for x, y in payoff.breakpoints),
            -payoff.left_slope,
            -payoff.right_slope,
        )
    if isinstance(payoff, Sine):
        return Sine(-payoff.frequency)
    if isinstance(payoff, PathDependent):
        inner = payoff.evaluator
        return PathDependent(lambda path: -inner(path), label=f"-({payoff.label})")
    intercept, slope, hinges = payoff_hinges(payoff)
    return piecewise_from_hinges(-intercept, -slope, ((x, -w) for x, w in hinges))


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Strategy:
    """Positions per round and the links from each node to its children.

    ``positions[n][i]`` is the position held at node i of round n, node 0
    of round 0 being the root.  ``links[n][m, i]`` is the node of round n+1
    that move m (members in ascending order) leads to from there, or -1
    where the route does not follow that move.
    """

    positions: tuple[np.ndarray, ...]
    links: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PriceResult:
    """Outcome of a backward induction: price plus per-round certificates.

    Every route numbers its nodes alike: node i of round n, node 0 of round
    0 being the root.  ``node_values[n]`` holds the values of round n (the
    terminal round included), ``strategy`` the positions and child links of
    rounds 0..N-1, and ``measure[n]`` the row in ``pairs`` (in
    ``MoveSpace.pairs()`` order) of each node's extremal pair.  ``keys(n)``
    gives the export keys of round n, the nodes' one identity, shaped by
    ``key_kind``: ``n|sum`` for "lattice", the moves of the prefix joined
    with commas for "path", ``n|sum|i,j`` (the inherited pair) or
    ``n|sum|remax`` for "pruned", which also has ``prune_period``.  Each
    exact sum and move is written as str(Fraction) writes it.
    """

    price: float
    side: Side
    strategy: Strategy
    measure: tuple[np.ndarray, ...]
    node_values: tuple[np.ndarray, ...]
    pairs: tuple[RiskNeutralNode, ...]
    keys: Callable[[int], list[str]]
    key_kind: str = "lattice"
    prune_period: int | None = None


_ENTRY = ",\n    "  # between the entries of a per-node map


def _json_floats(values: np.ndarray) -> Iterator[str]:
    """The JSON text of each float: its repr, or NaN, Infinity, -Infinity."""
    return map(float.__repr__ if np.isfinite(values).all() else json.dumps, values.tolist())


def result_to_json(result: PriceResult, handle: TextIO) -> None:
    """Write a PriceResult as ``json.dump(..., indent=2)`` writes the dict of
    price, side, key_kind (and prune_period) and the per-node maps strategy,
    measure and node_values, keyed by ``result.keys``, latest round first.
    The maps go out a round at a time, never whole in memory."""
    head = {"price": result.price, "side": result.side.value, "key_kind": result.key_kind}
    if result.prune_period is not None:
        head["prune_period"] = result.prune_period
    keys = [[f"{encode_basestring_ascii(key)}: " for key in result.keys(n)]
            for n in range(len(result.node_values))]
    blocks = [json.dumps({"pair": list(node.pair), "prob_neg": str(node.prob_neg),
                          "prob_pos": str(node.prob_pos)}, indent=2).replace("\n", "\n    ")
              for node in result.pairs]

    def measures(rows: np.ndarray) -> Iterator[str]:
        return map(blocks.__getitem__, rows.tolist())

    handle.write(json.dumps(head, indent=2)[:-2])
    for label, arrays, render in (("strategy", result.strategy.positions, _json_floats),
                                  ("measure", result.measure, measures),
                                  ("node_values", result.node_values, _json_floats)):
        handle.write(f',\n  "{label}": {{\n    ')
        for i, n in enumerate(reversed(range(len(arrays)))):
            entries = map(str.__add__, keys[n], render(arrays[n]))
            handle.write((_ENTRY if i else "") + _ENTRY.join(entries))
        handle.write("\n  }")
    handle.write("\n}")


# ---------------------------------------------------------------------------
# payoff (de)serialization


_PAYOFF_KINDS = {
    "call": Call,
    "put": Put,
    "butterfly": Butterfly,
    "sine": Sine,
    "piecewise_linear": PiecewiseLinear,
}


def payoff_to_json(payoff: Payoff) -> dict:
    """Serializable dict form: the kind, then the fields in declaration
    order; path-dependent payoffs are not serializable."""
    kind = next((k for k, cls in _PAYOFF_KINDS.items() if isinstance(payoff, cls)), None)
    if kind is None:
        raise ValueError(f"{type(payoff).__name__} cannot be serialized")
    values = {f.name: getattr(payoff, f.name) for f in fields(payoff)}
    if "breakpoints" in values:
        values["breakpoints"] = [list(point) for point in values["breakpoints"]]
    return {"kind": kind, **values}


def _json_number(value, field: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"payoff field {field!r} must be a number, not {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"payoff field {field!r} must be finite, not {value!r}")
    return value


def _json_points(value) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(point, (list, tuple)) and len(point) == 2 for point in value
    ):
        raise ValueError("breakpoints must be a list of [x, y] pairs")
    return tuple(
        (float(_json_number(x, "breakpoints")), float(_json_number(y, "breakpoints")))
        for x, y in value
    )


def payoff_from_json(obj) -> Payoff:
    """Parse a payoff from its dict form, or from a bare [[x, y], ...] array
    (shorthand for a flat-extension piecewise-linear payoff).

    Unknown or missing fields and non-numeric values raise ValueError.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if isinstance(obj, (list, tuple)):
        return PiecewiseLinear(_json_points(obj))
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("payoff JSON must be a {'kind': ...} object or a [[x, y], ...] array")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PAYOFF_KINDS:
        raise ValueError(f"unknown payoff kind {kind!r}")
    cls = _PAYOFF_KINDS[kind]
    given = {k: v for k, v in obj.items() if k != "kind"}
    known = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(given) - set(known))
    missing = [k for k, default in known.items() if default is MISSING and k not in given]
    if unknown:
        raise ValueError(f"{kind} payoff has unknown fields {unknown}")
    if missing:
        raise ValueError(f"{kind} payoff is missing the fields {missing}")
    if kind == "piecewise_linear":
        return PiecewiseLinear(
            _json_points(given["breakpoints"]),
            float(_json_number(given.get("left_slope", 0.0), "left_slope")),
            float(_json_number(given.get("right_slope", 0.0), "right_slope")),
        )
    return cls(**{k: _json_number(v, k) for k, v in given.items()})
