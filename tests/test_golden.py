"""Bit-identity of the induction routes against pinned fingerprints.

Each pinned game stores ``price.hex()`` and sha256 digests over the sorted
``(repr(key), value.hex())`` items of ``strategy`` and ``node_values`` and
the sorted ``(repr(key), pair)`` items of ``measure``.  A refactor of the
backward pass that changes a single bit of a value, a key or an extremal
pair fails here.

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


def fingerprint(result) -> dict:
    return {
        "price": result.price.hex(),
        "strategy": _digest((repr(k), v.hex()) for k, v in result.strategy.items()),
        "node_values": _digest((repr(k), v.hex()) for k, v in result.node_values.items()),
        "measure": _digest((repr(k), node.pair) for k, node in result.measure.items()),
        "nodes": len(result.node_values),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_identical_to_pinned(name):
    pinned = json.loads(GOLDEN.read_text())
    result = CASES[name]()
    assert fingerprint(result) == pinned[name]
    assert type(result.price) is float
    for mapping in (result.strategy, result.node_values):
        assert all(type(v) is float for v in mapping.values())


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    pinned = {name: fingerprint(run()) for name, run in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} fingerprints to {GOLDEN}")
