"""Byte-identity of ``price --export-result`` files against pinned digests.

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
from pathlib import Path

import pytest

from gamehedge.cli import main

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_exports.py --write")
    pinned = {name: export_digest(argv) for name, argv in sorted(ARGVS.items())}
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {GOLDEN}")
