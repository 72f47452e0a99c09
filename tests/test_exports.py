"""Byte-identity of ``price --export-result`` files against pinned digests,
and of ``result_to_json`` against ``json.dumps(..., indent=2)`` of the
export built as one dict.

Each pinned argv stores the sha256 of the exported file's bytes, so a change
to the export's keys, their order or any rendered value fails here.

Regenerate the pinned file (only from a commit whose exports are the
reference) with::

    PYTHONPATH=src python tests/test_exports.py --write
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gamehedge import (
    GameSpec,
    PathDependent,
    PruneSchedule,
    Side,
    price_european,
    price_path_dependent,
    price_pruned,
    result_to_json,
)
from gamehedge.cli import main
from gamehedge.model import _key_string
from test_golden import BUTTERFLY as BUTTERFLY_PAYOFF, KINKED as KINKED_PAYOFF
from test_golden import _moves, asian_lookback

GOLDEN = Path(__file__).with_name("golden_exports.json")

BUTTERFLY = "butterfly(-1/2,1/2,3/2)"
# the KINKED payoff of test_golden.py
KINKED = json.dumps({"kind": "piecewise_linear",
                     "breakpoints": [[-1.0, 0.5], [0.0, -0.25], [1.0, 1.0]],
                     "left_slope": -0.5, "right_slope": 0.25})

ARGVS = {
    "lattice -1,1,2 N=6 upper": ["--moves=-1,1,2", "--rounds", "6", "--scale", "diffusive",
                                 "--payoff", BUTTERFLY, "--side", "upper"],
    "lattice -1,1,2 N=6 lower": ["--moves=-1,1,2", "--rounds", "6", "--scale", "diffusive",
                                 "--payoff", BUTTERFLY, "--side", "lower"],
    "lattice -1,0,1,2 N=5 lower": ["--moves=-1,0,1,2", "--rounds", "5", "--scale", "1/2",
                                   "--payoff", KINKED, "--side", "lower"],
    "pruned -1,1/3,1/2,2/3,2 N=6 q=2": ["--moves=-1,1/3,1/2,2/3,2", "--rounds", "6",
                                        "--scale", "diffusive", "--payoff", BUTTERFLY,
                                        "--prune", "2"],
    "pruned -1,1,2 N=7 q=3": ["--moves=-1,1,2", "--rounds", "7", "--scale", "diffusive",
                              "--payoff", BUTTERFLY, "--prune", "3"],
}


def export_digest(argv: list[str]) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "result.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["price", *argv, "--export-result", str(target)]) == 0
        return hashlib.sha256(target.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_export_is_byte_identical_to_pinned(name):
    assert export_digest(ARGVS[name]) == json.loads(GOLDEN.read_text())[name]


def test_every_export_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ARGVS)


def reference_dict(result) -> dict:
    """The export as one dict, for ``json.dumps(..., indent=2)``: the form
    ``result_to_json`` writes a round at a time."""
    out: dict = {"price": result.price, "side": result.side.value, "key_kind": result.key_kind}
    if result.prune_period is not None:
        out["prune_period"] = result.prune_period
    names = [[_key_string(k, result.key_kind) for k in result.names(n)]
             for n in range(len(result.node_values))]
    pairs = [
        {"pair": list(node.pair), "prob_neg": str(node.prob_neg), "prob_pos": str(node.prob_pos)}
        for node in result.pairs
    ]

    def nodes(arrays, render=lambda v: v) -> dict:
        return {key: render(v) for n in reversed(range(len(arrays)))
                for key, v in zip(names[n], arrays[n].tolist())}

    out["strategy"] = nodes(result.strategy.positions)
    out["measure"] = nodes(result.measure, pairs.__getitem__)
    out["node_values"] = nodes(result.node_values)
    return out


def _signed_zeros():
    result = price_european(GameSpec(_moves("-1,1,2"), 2, 1.0), BUTTERFLY_PAYOFF, Side.UPPER)
    positions = tuple(np.where(p == p[0], -0.0, p) for p in result.strategy.positions)
    values = tuple(np.where(v == v[-1], -0.0, v) for v in result.node_values)
    return replace(result, price=-0.0, node_values=values,
                   strategy=replace(result.strategy, positions=positions))


RESULTS = {
    "tree -1,0,1,2 N=4 lower": lambda: price_path_dependent(
        GameSpec.scaled(_moves("-1,0,1,2"), 4), PathDependent(asian_lookback), Side.LOWER),
    "lattice -1,1,2 N=1": lambda: price_european(
        GameSpec.scaled(_moves("-1,1,2"), 1), BUTTERFLY_PAYOFF, Side.UPPER),
    "lattice -1,0,1,2 N=5 lower": lambda: price_european(
        GameSpec(_moves("-1,0,1,2"), 5, 0.5), KINKED_PAYOFF, Side.LOWER),
    "pruned -1,1/3,1/2,2/3,2 N=6 q=2": lambda: price_pruned(
        GameSpec.scaled(_moves("-1,1/3,1/2,2/3,2"), 6), BUTTERFLY_PAYOFF, PruneSchedule(2)),
    "signed zeros": _signed_zeros,
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_streamed_export_matches_the_dict_export(name):
    result = RESULTS[name]()
    written = io.StringIO()
    result_to_json(result, written)
    assert written.getvalue() == json.dumps(reference_dict(result), indent=2)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_exports.py --write")
    pinned = {name: export_digest(argv) for name, argv in sorted(ARGVS.items())}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {GOLDEN}")
