"""Bit-identity of the induction routes against pinned fingerprints.

Each pinned game stores ``price.hex()`` and sha256 digests over the sorted
``(repr(name), value.hex())`` items of the strategy's positions and of
``node_values`` and the sorted ``(repr(name), pair)`` items of ``measure``,
each node named by ``conftest.node_names``, which parses ``result.keys``.  A
refactor of the backward pass that changes a single bit of a value, a key
or an extremal pair fails here.

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
    lattice_price,
    price_european,
    price_path_dependent,
    price_pruned,
)
from conftest import node_names

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


# (moves, rounds, scale or None for the diffusive one, payoff) of each
# European game the pinned cases price, keyed by the name they share
GAMES = {
    **{f"-1,1,2 N={rounds}": ("-1,1,2", rounds, None, BUTTERFLY) for rounds in (1, 5, 12)},
    "-1,0,1,2 N=6": ("-1,0,1,2", 6, 0.5, KINKED),
    "-1,1/3,1/2,2/3,2 N=8": ("-1,1/3,1/2,2/3,2", 8, None, BUTTERFLY),
    "-1,1/997,2/991 N=6": ("-1,1/997,2/991", 6, 1.0, KINKED),
}
PRUNED_GAMES = {
    "-1,1,2 N=10": ("-1,1,2", 10, None, BUTTERFLY),
    "-1,1/3,1/2,2/3,2 N=10": ("-1,1/3,1/2,2/3,2", 10, None, KINKED),
}


def _game(moves: str, rounds: int, scale: float | None, payoff):
    """The GameSpec and payoff of one GAMES entry."""
    if scale is None:
        return GameSpec.scaled(_moves(moves), rounds), payoff
    return GameSpec(_moves(moves), rounds, scale), payoff


def _cases():
    for name, game in GAMES.items():
        for side in Side:
            yield f"lattice {name} {side.value}", lambda g=game, s=side: (
                price_european(*_game(*g), s)
            )
    for side in Side:
        yield f"tree -1,0,1,2 N=5 {side.value}", lambda s=side: (
            price_path_dependent(
                GameSpec.scaled(_moves("-1,0,1,2"), 5), PathDependent(asian_lookback), s
            )
        )
    for name, game in PRUNED_GAMES.items():
        for q in (2, 3):
            yield f"pruned {name} q={q}", lambda g=game, q=q: (
                price_pruned(*_game(*g), PruneSchedule(q))
            )


CASES = dict(_cases())


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def _named(result, arrays, render):
    """(repr(name), rendered value) of every node of the per-round arrays."""
    return ((repr(key), render(v)) for n, values in enumerate(arrays)
            for key, v in zip(node_names(result, n), values.tolist()))


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


@pytest.mark.parametrize("side", Side)
@pytest.mark.parametrize("name", sorted(GAMES))
def test_lattice_price_is_the_pinned_price(name, side):
    assert lattice_price(*_game(*GAMES[name]), side).hex() == (
        json.loads(GOLDEN.read_text())[f"lattice {name} {side.value}"]["price"])


# the pruned cases' games, and the lattice benchmark's move spaces at its largest N
@pytest.mark.parametrize("side", Side)
@pytest.mark.parametrize("game", [
    *PRUNED_GAMES.values(),
    *((moves, rounds, None, payoff) for moves, rounds in (("-1,1,2", 300),
                                                          ("-1,1/3,1/2,2/3,2", 100))
      for payoff in (BUTTERFLY, KINKED)),
], ids=lambda g: f"{g[0]} N={g[1]} {type(g[3]).__name__}")
def test_lattice_price_is_the_certified_price(game, side):
    game, payoff = _game(*game)
    assert lattice_price(game, payoff, side).hex() == price_european(game, payoff, side).price.hex()


def test_lattice_price_refuses_a_path_dependent_payoff():
    game = GameSpec.scaled(_moves("-1,0,1,2"), 5)
    with pytest.raises(ValueError, match="use price_path_dependent"):
        lattice_price(game, PathDependent(asian_lookback), Side.UPPER)


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    pinned = {name: fingerprint(run()) for name, run in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} fingerprints to {GOLDEN}")
