"""Shared fixtures: seeded samplers for triangulations, graphs, op sequences.

Sampling is deterministic (seeds are fixed here) so failures reproduce.
Session scope keeps the expensive corpora shared across test modules.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import baltri

from baltri import Coloring, random_walk, validate
from baltri.bipartite import (
    BipGraph,
    BipOp,
    BipOpKind,
    apply_bip,
    is_removable,
    is_smoothable,
)
from baltri.explorer import (
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
)

_BUILDERS = {
    "octahedron": build_octahedron,
    "k333-torus": build_k333_torus,
    "cube-subdivision": build_cube_subdivision,
}

# antipodal quotient of the icosahedron; not balanced, so it has no coloring
PROJECTIVE_PLANE = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


def grid_torus(n):
    """The n x n 6-regular torus with its coloring; n must be a multiple of 3."""

    def v(i, j):
        return (i % n) * n + (j % n)

    faces = []
    for i in range(n):
        for j in range(n):
            faces.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            faces.append((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    col = Coloring({v(i, j): (i - j) % 3 for i in range(n) for j in range(n)})
    return validate(faces), col


def walk_sample(seed, *, steps, max_vertices, start="octahedron", kinds=None):
    t, col = _BUILDERS[start]()
    t, col, _ = random_walk(
        t, col, kinds, steps=steps, seed=seed, max_vertices=max_vertices
    )
    return t, col


@pytest.fixture(scope="session")
def sphere_samples_12():
    """200 seeded random-walk spheres, at most 12 vertices each."""
    return [walk_sample(seed, steps=14, max_vertices=12) for seed in range(200)]


@pytest.fixture(scope="session")
def sphere_samples_9():
    """Walk endpoints capped at 9 vertices; sizes can only be 6, 8 or 9."""
    return [walk_sample(seed, steps=10, max_vertices=9) for seed in range(60)]


@pytest.fixture(scope="session")
def mixed_samples_14():
    """200 samples, at most 14 vertices, half spheres and half tori."""
    out = []
    for seed in range(100):
        out.append(walk_sample(seed, steps=12, max_vertices=14))
        out.append(
            walk_sample(seed, steps=12, max_vertices=14, start="k333-torus")
        )
    return out


@pytest.fixture(scope="session")
def small_samples_50():
    """50 samples kept small so exhaustive per-site work stays cheap."""
    out = []
    for seed in range(25):
        out.append(walk_sample(300 + seed, steps=10, max_vertices=12))
        out.append(
            walk_sample(300 + seed, steps=8, max_vertices=12, start="k333-torus")
        )
    return out


def python_command(code, *flags):
    """argv and environment running code in a fresh interpreter that imports
    baltri from this tree."""
    src = os.path.dirname(os.path.dirname(baltri.__file__))
    return [sys.executable, *flags, "-c", code], dict(os.environ, PYTHONPATH=src)


def run_python(code, *flags):
    """Run code in a fresh interpreter that imports baltri from this tree."""
    argv, env = python_command(code, *flags)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


# test module name -> its python -O pytest run (see test_no_asserts)
OPTIMIZED_RUNS = pytest.StashKey[dict]()


def start_optimized_run(config, module):
    """The python -O pytest run of one test module, started on first call."""
    runs = config.stash.setdefault(OPTIMIZED_RUNS, {})
    if module not in runs:
        tests = os.path.join(os.path.dirname(__file__), module)
        argv, env = python_command(
            "import sys, pytest\n"
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {tests!r}]))",
            "-O",
        )
        runs[module] = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
    return runs[module]


def pytest_collection_finish(session):
    # start the selected python -O runs now, so they overlap the rest of the run
    for item in session.items:
        if getattr(item, "originalname", None) == "test_flip_tests_pass_under_optimization":
            start_optimized_run(session.config, item.callspec.params["module"])


def pytest_sessionfinish(session):
    # only a run whose test was not reached is still going
    for proc in session.config.stash.get(OPTIMIZED_RUNS, {}).values():
        proc.kill()
        proc.wait()


# --- bipartite sampling -------------------------------------------------------


def k33():
    parts = {v: 0 if v < 3 else 1 for v in range(6)}
    return BipGraph(parts, [(i, 3 + j) for i in range(3) for j in range(3)])


def random_bip_base(rng, max_side=4):
    """A random bipartite graph with min degree 3 and 3..max_side a side."""
    while True:
        n0 = rng.randint(3, max_side)
        n1 = rng.randint(3, max_side)
        pairs = [(i, n0 + j) for i in range(n0) for j in range(n1)]
        rng.shuffle(pairs)
        edges = []
        deg = dict.fromkeys(range(n0 + n1), 0)
        for i, j in pairs:
            if min(deg.values()) >= 3 and rng.random() < 0.6:
                break
            edges.append((i, j))
            deg[i] += 1
            deg[j] += 1
        if min(deg.values()) >= 3:
            parts = {v: 0 if v < n0 else 1 for v in range(n0 + n1)}
            return BipGraph(parts, edges)


def applicable_bip_ops(g, fresh):
    """Every operation applicable to g, fresh ids starting at `fresh`."""
    ops = []
    for v in sorted(g.vertices):
        ops.append(BipOp(BipOpKind.ADD_LEAF, (v, fresh)))
    for u, v in sorted(g.edges):
        ops.append(BipOp(BipOpKind.SPLIT_EDGE, (u, v, fresh, fresh + 1)))
        ops.append(BipOp(BipOpKind.SPLIT_EDGE, (v, u, fresh, fresh + 1)))
    for z in sorted(g.vertices):
        nbrs = sorted(g.neighbors(z))
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                ops.append(BipOp(BipOpKind.ADD_CORNER, (x, y, z, fresh)))
    for w in sorted(g.vertices):
        if g.degree(w) == 1:
            ops.append(BipOp(BipOpKind.DEL_LEAF, (w,)))
    for p, q in sorted(g.edges):
        if g.degree(p) == 2 and g.degree(q) == 2 and is_smoothable(g, p, q):
            (u,) = g.neighbors(p) - {q}
            (v,) = g.neighbors(q) - {p}
            ops.append(BipOp(BipOpKind.SMOOTH_PATH, (u, p, q, v)))
    for w in sorted(g.vertices):
        if g.degree(w) == 2 and is_removable(g, w):
            ops.append(BipOp(BipOpKind.DEL_CORNER, (w,)))
    return ops


def random_bip_case(seed, *, max_side=4, max_len=8):
    """(base graph, op sequence) pair; the sequence is applicable to the base."""
    rng = random.Random(seed)
    g = random_bip_base(rng, max_side)
    cur = g
    ops = []
    fresh = max(cur.vertices) + 1
    for _ in range(rng.randint(1, max_len)):
        choices = applicable_bip_ops(cur, fresh)
        op = rng.choice(choices)
        ops.append(op)
        cur = apply_bip(cur, op)
        fresh = max(fresh, max(cur.vertices) + 1)
    return g, ops


@pytest.fixture(scope="session")
def bip_cases_1000():
    return [random_bip_case(seed) for seed in range(1000)]
