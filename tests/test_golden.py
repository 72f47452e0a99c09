"""Bit-identity of the induction routes against pinned fingerprints.

Each pinned game stores ``price.hex()`` and sha256 digests over the sorted
``(repr(name), value.hex())`` items of the strategy's positions and of
``node_values`` and the sorted ``(repr(name), pair)`` items of ``measure``,
each node named by ``result.names``.  A refactor of the backward pass that
changes a single bit of a value, a name or an extremal pair fails here.

Regenerate the pinned file (only from a commit whose results are the
reference) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from gamehedge import (
    Butterfly,
    GameSpec,
    MoveSpace,
    PathDependent,
    PiecewiseLinear,
    PruneSchedule,
    Side,
    price_european,
    price_path_dependent,
    price_pruned,
)

GOLDEN = Path(__file__).with_name("golden_results.json")

BUTTERFLY = Butterfly(-0.5, 0.5, 1.5)
# several kinks of both signs, so ties and clamped positions occur on -1,0,1,2
KINKED = PiecewiseLinear(((-1.0, 0.5), (0.0, -0.25), (1.0, 1.0)), -0.5, 0.25)


def asian_lookback(path: tuple[float, ...]) -> float:
    """Average of the running sums minus a quarter of their maximum."""
    running, total, peak = 0.0, 0.0, 0.0
    for x in path:
        running += x
        total += running
        peak = max(peak, running)
    return max(0.0, total / len(path) - 0.1) - 0.25 * peak


def _moves(text: str) -> MoveSpace:
    return MoveSpace.from_moves(F(p) for p in text.split(","))


def _cases():
    for rounds in (1, 5, 12):
        for side in Side:
            yield f"lattice -1,1,2 N={rounds} {side.value}", lambda r=rounds, s=side: (
                price_european(GameSpec.scaled(_moves("-1,1,2"), r), BUTTERFLY, s)
            )
    for side in Side:
        yield f"lattice -1,0,1,2 N=6 {side.value}", lambda s=side: (
            price_european(GameSpec(_moves("-1,0,1,2"), 6, 0.5), KINKED, s)
        )
        yield f"lattice -1,1/3,1/2,2/3,2 N=8 {side.value}", lambda s=side: (
            price_european(GameSpec.scaled(_moves("-1,1/3,1/2,2/3,2"), 8), BUTTERFLY, s)
        )
        yield f"lattice -1,1/997,2/991 N=6 {side.value}", lambda s=side: (
            price_european(GameSpec(_moves("-1,1/997,2/991"), 6, 1.0), KINKED, s)
        )
        yield f"tree -1,0,1,2 N=5 {side.value}", lambda s=side: (
            price_path_dependent(
                GameSpec.scaled(_moves("-1,0,1,2"), 5), PathDependent(asian_lookback), s
            )
        )
    for q in (2, 3):
        yield f"pruned -1,1,2 N=10 q={q}", lambda q=q: (
            price_pruned(GameSpec.scaled(_moves("-1,1,2"), 10), BUTTERFLY, PruneSchedule(q))
        )
        yield f"pruned -1,1/3,1/2,2/3,2 N=10 q={q}", lambda q=q: (
            price_pruned(
                GameSpec.scaled(_moves("-1,1/3,1/2,2/3,2"), 10), KINKED, PruneSchedule(q)
            )
        )


CASES = dict(_cases())


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def _named(result, arrays, render):
    """(repr(name), rendered value) of every node of the per-round arrays."""
    return ((repr(key), render(v)) for n, values in enumerate(arrays)
            for key, v in zip(result.names(n), values.tolist()))


def fingerprint(result) -> dict:
    return {
        "price": result.price.hex(),
        "strategy": _digest(_named(result, result.strategy.positions, float.hex)),
        "node_values": _digest(_named(result, result.node_values, float.hex)),
        "measure": _digest(_named(result, result.measure, lambda row: result.pairs[row].pair)),
        "nodes": sum(len(values) for values in result.node_values),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_pinned(name):
    pinned = json.loads(GOLDEN.read_text())
    result = CASES[name]()
    assert fingerprint(result) == pinned[name]
    assert type(result.price) is float
    for arrays in (result.strategy.positions, result.node_values):
        assert all(values.dtype == np.float64 for values in arrays)


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    pinned = {name: fingerprint(run()) for name, run in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} fingerprints to {GOLDEN}")
