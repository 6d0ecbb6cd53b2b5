"""Seeded `sample` walks are byte-stable.

tests/sample_digests.json holds the sha256 of the stdout and of the -o file
of each case below, recorded before random_walk kept its site list from
step to step.  A walk's choices depend on the length and order of every
step's site list, so any drift there changes these digests.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random

import pytest

from baltri import format_tri
from baltri.cli import main
from baltri.explorer import build_octahedron
from baltri.flips import FlipKind, FlipSite, apply_flip

DIGESTS = pathlib.Path(__file__).with_name("sample_digests.json")

GROWN = "grown201"  # the octahedron grown by bts on random faces to V = 201

CASES = {
    "octahedron-s0": ["octahedron", "--steps", "40", "--seed", "0"],
    "octahedron-s1": ["octahedron", "--steps", "40", "--seed", "1"],
    "octahedron-s2": ["octahedron", "--steps", "40", "--seed", "2"],
    "k333-torus-s0": ["k333-torus", "--steps", "40", "--seed", "0"],
    "k333-torus-s1": ["k333-torus", "--steps", "40", "--seed", "1"],
    "cube-s0": ["cube-subdivision", "--steps", "30", "--seed", "0"],
    "cube-s5": ["cube-subdivision", "--steps", "30", "--seed", "5"],
    "octahedron-cap12": [
        "octahedron", "--steps", "60", "--seed", "3", "--max-vertices", "12",
    ],
    "octahedron-welds": [
        "octahedron", "--steps", "60", "--seed", "4",
        "--kinds", "bts,btw,bes,bew,pc,ps", "--max-vertices", "16",
    ],
    "cube-hexagons": [
        "cube-subdivision", "--steps", "60", "--seed", "7",
        "--kinds", "ps,pc,nflip,p2flip", "--max-vertices", "18",
    ],
    "k333-torus-mixed": [
        "k333-torus", "--steps", "60", "--seed", "7",
        "--kinds", "bts,bes,bew,ps,pc,nflip,p2flip", "--max-vertices", "16",
    ],
    "grown-s0": [GROWN, "--steps", "25", "--seed", "0"],
    "grown-s9": [GROWN, "--steps", "25", "--seed", "9"],
    "grown-kinds": [
        GROWN, "--steps", "25", "--seed", "2", "--kinds", "nflip,ps,pc,p2flip",
    ],
    "grown-cap": [GROWN, "--steps", "25", "--seed", "3", "--max-vertices", "202"],
}


def grown_input(directory):
    t, col = build_octahedron()
    rng = random.Random(1)
    while t.vertex_count < 200:
        t, col = apply_flip(t, FlipSite(FlipKind.BTS, rng.choice(t.faces)), col)
    path = pathlib.Path(directory) / f"{GROWN}.tri"
    path.write_text(format_tri(t, col))
    return str(path)


def sample_digests(name, directory):
    """{"stdout": sha256, "out": sha256} of one case, run in-process."""
    argv = list(CASES[name])
    if argv[0] == GROWN:
        argv[0] = grown_input(directory)
    out = pathlib.Path(directory) / f"{name}.tri"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["sample", *argv, "-o", str(out)])
    if code != 0:
        raise RuntimeError(f"sample {name} exited {code}")
    return {
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "out": hashlib.sha256(out.read_bytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_sample_output_is_byte_stable(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    assert sample_digests(name, tmp_path) == pinned[name]


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)
