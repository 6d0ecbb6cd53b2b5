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
from baltri.flips import FlipKind, FlipSite, apply_flip
from baltri.surface import face_key

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

# PROJECTIVE_PLANE # PROJECTIVE_PLANE: face {0,1,2} dropped from two copies,
# the second copy's other vertices shifted by 3, glued along the hole
KLEIN_BOTTLE = [f for f in PROJECTIVE_PLANE if f != (0, 1, 2)] + [
    tuple(v if v < 3 else v + 3 for v in f) for f in PROJECTIVE_PLANE if f != (0, 1, 2)
]


def connected_sum(faces1, faces2):
    """faces1 # faces2, glued along the first face of each: corner i of
    faces2[0] becomes corner i of faces1[0], and faces2's other vertices
    take ids past faces1's."""
    shift = max(v for f in faces1 for v in f) + 1
    glue = dict(zip(faces2[0], faces1[0]))
    return [*faces1[1:], *(tuple(glue.get(v, v + shift) for v in f) for f in faces2[1:])]


def barycentric(faces):
    """The barycentric subdivision of faces, with its coloring by simplex
    dimension: the vertices keep their ids and color 0, then each edge's
    midpoint (color 1) and each face's barycenter (color 2) take the next
    ids, in sorted order.  Balanced whatever faces is."""
    faces = sorted(tuple(sorted(f)) for f in faces)
    edges = sorted({e for a, b, c in faces for e in ((a, b), (a, c), (b, c))})
    color = {v: 0 for f in faces for v in f}
    first = max(color) + 1
    mid = {e: first + i for i, e in enumerate(edges)}
    out = []
    for i, (a, b, c) in enumerate(faces, first + len(edges)):
        for e in ((a, b), (a, c), (b, c)):
            out += [(v, mid[e], i) for v in e]
        color[i] = 2
    color.update(dict.fromkeys(mid.values(), 1))
    return out, Coloring(color)


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


def link_cycles(t):
    """Each vertex with its link_cycle, in the key order of t's link index."""
    return [(v, t.link_cycle(v)) for v in t._links]


def assert_links_as_walked(t):
    """Each stored link is one cycle around its vertex, as a walk meets it:
    distinct neighbors, each consecutive pair a face with the vertex, as
    many as the vertex has faces; keyed in ascending vertex order."""
    count = {}
    for f in t.faces:
        for v in f:
            count[v] = count.get(v, 0) + 1
    assert list(t._links) == sorted(count)
    for v, link in t._links.items():
        assert len(link) == len(set(link)) == count[v] == t.degree(v)
        assert all(t.has_face(v, link[i - 1], link[i]) for i in range(len(link)))


def assert_thirds_indexed(t):
    """Each key of the edge index is an edge u < v whose value is the two
    thirds of its faces, sorted and distinct, each making a face of t with
    uv; with 2E = 3F, that lists every edge of every face once."""
    faces = set(t.faces)
    for (u, v), (y, z) in t._thirds.items():
        assert u < v and y < z
        assert face_key(u, v, y) in faces and face_key(u, v, z) in faces
    assert 2 * len(t._thirds) == 3 * len(t.faces)


def sparse_relabeled(t, col, seed):
    """t and col on shuffled ids from 65,536 up, with gaps between them."""
    rng = random.Random(seed)
    vs = sorted(t.vertices)
    image = rng.sample(range(65536, 65536 + 40 * len(vs)), len(vs))
    phi = dict(zip(vs, image))
    t2 = validate([tuple(phi[v] for v in f) for f in t.faces])
    return t2, Coloring({phi[v]: col[v] for v in vs})


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
def non_orientable_samples():
    """The balanced subdivisions of PROJECTIVE_PLANE and KLEIN_BOTTLE, each
    followed by three seeded walks from it, at most 4 vertices larger."""
    out = []
    for faces in (PROJECTIVE_PLANE, KLEIN_BOTTLE):
        subdivided, col = barycentric(faces)
        t = validate(subdivided)
        out.append((t, col))
        for seed in range(3):
            walked = random_walk(
                t, col, steps=12, seed=seed, max_vertices=t.vertex_count + 4
            )
            out.append(walked[:2])
    return out


@pytest.fixture(scope="session")
def genus_two():
    """Two k333-torus copies glued along a face, each corner onto itself, so
    colors match: chi = -2, and each glued vertex has degree 6 + 6 - 2."""
    t, col = build_k333_torus()
    shift = t.max_vertex_id + 1
    color = col.as_dict()
    color.update({v + shift: c for v, c in col.items() if v not in t.faces[0]})
    return validate(connected_sum(t.faces, t.faces)), Coloring(color)


@pytest.fixture(scope="session")
def three_crosscaps():
    """The balanced subdivision of KLEIN_BOTTLE # PROJECTIVE_PLANE: chi = -1."""
    faces, col = barycentric(connected_sum(KLEIN_BOTTLE, PROJECTIVE_PLANE))
    return validate(faces), col


def grown_by_bts(t, target=800):
    """t with faces picked by random.Random(1) triple-subdivided until
    V >= target: the shape of the benchmark's large inputs."""
    rng = random.Random(1)
    while t.vertex_count < target:
        t, _ = apply_flip(t, FlipSite(FlipKind.BTS, rng.choice(t.faces)))
    return t


@pytest.fixture(scope="session")
def grown_801():
    """The octahedron and the 3x3 grid torus grown by grown_by_bts."""
    return {
        "sphere-801": grown_by_bts(build_octahedron()[0]),
        "torus-801": grown_by_bts(grid_torus(3)[0]),
    }


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
