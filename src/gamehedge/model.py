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
import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, TextIO, Union

import numpy as np

#: Export name of a node: (round, sum) on the collapsed lattice, a tuple of
#: moves for path-keyed trees, or (round, sum, inherited pair) for pruned runs.
NodeKey = tuple


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
        # floats are accepted for convenience; snap to the nearest small rational
        return Fraction(value).limit_denominator(10**6)
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
    """(s-k1)+ - 2(s-k2)+ + (s-k3)+ with k2 the midpoint of k1, k3."""

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
    """Evaluate a European payoff at the (already scaled) terminal sum."""
    if isinstance(payoff, PathDependent):
        raise ValueError("path-dependent payoff needs the full path, not a terminal sum")
    return payoff(s)


def payoff_value(payoff: Payoff, scale: float, exact_sum) -> float:
    """Evaluate a European payoff at scale * float(exact_sum).

    Every pricing route funnels through this so that route-agreement
    comparisons are not polluted by differing rounding of the argument.
    """
    return evaluate_payoff(payoff, scale * float(exact_sum))


def payoff_value_on_path(payoff: Payoff, scale: float, path: tuple) -> float:
    """Evaluate any payoff on an exact path (tuple of rationals)."""
    if isinstance(payoff, PathDependent):
        return payoff.evaluator(tuple(scale * float(x) for x in path))
    total = sum(path, Fraction(0))
    return payoff_value(payoff, scale, total)


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
    ``MoveSpace.pairs()`` order) of each node's extremal pair.  ``names(n)``
    gives the export keys of round n, shaped by ``key_kind``: (round, exact
    sum) for "lattice", the move prefix for "path", (round, exact sum,
    inherited pair or None) for "pruned", which also has ``prune_period``.
    """

    price: float
    side: Side
    strategy: Strategy
    measure: tuple[np.ndarray, ...]
    node_values: tuple[np.ndarray, ...]
    pairs: tuple[RiskNeutralNode, ...]
    names: Callable[[int], list[NodeKey]]
    key_kind: str = "lattice"
    prune_period: int | None = None


def _key_string(key: NodeKey, kind: str) -> str:
    if kind == "path":
        return ",".join(str(a) for a in key)
    if kind == "pruned":
        n, s, pair = key
        tag = "remax" if pair is None else f"{pair[0]},{pair[1]}"
        return f"{n}|{s}|{tag}"
    n, s = key
    return f"{n}|{s}"


_ENTRY = ",\n    "  # between the entries of a per-node map


def result_to_json(result: PriceResult, handle: TextIO) -> None:
    """Write a PriceResult as ``json.dump(..., indent=2)`` writes the dict of
    price, side, key_kind (and prune_period) and the per-node maps strategy,
    measure and node_values, keyed by the rendered node names, latest round
    first.  The maps go out a round at a time, never whole in memory."""
    head = {"price": result.price, "side": result.side.value, "key_kind": result.key_kind}
    if result.prune_period is not None:
        head["prune_period"] = result.prune_period
    names = [[_key_string(k, result.key_kind) for k in result.names(n)]
             for n in range(len(result.node_values))]
    blocks = [json.dumps({"pair": list(node.pair), "prob_neg": str(node.prob_neg),
                          "prob_pos": str(node.prob_pos)}, indent=2).replace("\n", "\n    ")
              for node in result.pairs]

    def floats(keys: list[str], values: np.ndarray) -> str:
        return json.dumps(dict(zip(keys, values.tolist())), separators=(_ENTRY, ": "))[1:-1]

    def measures(keys: list[str], rows: np.ndarray) -> str:
        return _ENTRY.join(f"{encode_basestring_ascii(key)}: {blocks[row]}"
                           for key, row in zip(keys, rows.tolist()))

    handle.write(json.dumps(head, indent=2)[:-2])
    for label, arrays, render in (("strategy", result.strategy.positions, floats),
                                  ("measure", result.measure, measures),
                                  ("node_values", result.node_values, floats)):
        handle.write(f',\n  "{label}": {{\n    ')
        for i, n in enumerate(reversed(range(len(arrays)))):
            handle.write((_ENTRY if i else "") + render(names[n], arrays[n]))
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
    """Serializable dict form; path-dependent payoffs are not serializable."""
    if isinstance(payoff, Call):
        return {"kind": "call", "strike": payoff.strike}
    if isinstance(payoff, Put):
        return {"kind": "put", "strike": payoff.strike}
    if isinstance(payoff, Butterfly):
        return {"kind": "butterfly", "k1": payoff.k1, "k2": payoff.k2, "k3": payoff.k3}
    if isinstance(payoff, Sine):
        return {"kind": "sine", "frequency": payoff.frequency}
    if isinstance(payoff, PiecewiseLinear):
        return {
            "kind": "piecewise_linear",
            "breakpoints": [[x, y] for x, y in payoff.breakpoints],
            "left_slope": payoff.left_slope,
            "right_slope": payoff.right_slope,
        }
    raise ValueError(f"{type(payoff).__name__} cannot be serialized")


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
