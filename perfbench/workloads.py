"""The three workloads: seeded inputs, the CLI jobs run on them, and their checks.

Every job is one `baltri.cli.main(argv)` call.  Its check sees the exit
code and captured stdout and returns a problem string, or None when the
output is right.  Checks use the stand-alone code in standalone.py and
networkx, never the package's canon or isomorphism code; they replay
printed moves with the package's apply_flip.  Inputs are made from the
seed with standalone.py, except that the small spheres and tori are
package random walks and expand sites come from enumerate_sites.

search     bfs on the subdivided cube, connect queries between small
           spheres, expand --via budget on hexagon-move sites.
large      sample walks on two V=801 triangulations, canon on two walk end
           states and on the 12 x 12 6-regular torus.
normalize  bip normalize and bip apply on seeded operation scripts.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import standalone as S
from baltri import (
    BaltriError,
    Coloring,
    FlipKind,
    apply_flip,
    enumerate_sites,
    random_walk,
    site_from_str,
    validate,
)

# Sizes of one pass.  A timed run repeats passes until its time is up, and
# a job reports the mean of its runs; jobs that run in the first pass only
# are checks too long or too many to repeat.
CUBE_QUOTA = {12: 12, 11: 9, 10: 4, 9: 2, 8: 1}  # spheres per vertex count
CONNECT_PAIRS = 71  # sphere pairs under split/contract only, first pass only
EXPAND_JOBS = 100
SAMPLE_STEPS = 2
WALKS_PER_START = 3
NORMALIZE_SCRIPTS = 150
MAX_SCRIPT = 128
INVERSE_RATE = 0.05  # inverse ops per script op
SIDES = [(n0, n1) for n0 in range(3, 7) for n1 in range(3, 7)]  # bip base sizes

VERTEX_DELTA = {
    "bts": 3, "btw": -3, "bes": 2, "bew": -2, "ps": 1, "pc": -1, "nflip": 0, "p2flip": 0,
}


@dataclass
class Job:
    id: str  # stable within a seed; keys the golden digests
    kind: str  # latency family the job's time is reported under
    argv: list[str]
    check: Callable[[int, str], str | None]
    ok_codes: tuple[int, ...] = (0,)
    outputs: tuple[str, ...] = ()  # files whose bytes join the golden digest
    before: Callable[[], None] | None = None  # untimed preparation
    fixed: bool = False  # inputs do not depend on the seed
    runs_in: tuple[int, ...] | None = None  # timed passes it runs in; None: all
    sample: str = ""  # jobs doing the same work share it; defaults to id

    def __post_init__(self):
        self.sample = self.sample or self.id


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: list[str]  # argv of the one set-up job
    inputs: list[str]  # files parsed during set-up
    last_out: dict[str, str] = field(default_factory=dict)  # job id -> latest stdout


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _read(path):
    with open(path) as fh:
        return fh.read()


def _sample_small(seed, start, steps, max_vertices):
    """A random-walk triangulation renumbered to 0..V-1, as (faces, colors)."""
    faces, colors = start
    t, col, _ = random_walk(
        validate(faces), Coloring(colors), None,
        steps=steps, seed=seed, max_vertices=max_vertices,
    )
    order = {v: i for i, v in enumerate(t.vertices)}
    return (
        [tuple(order[v] for v in f) for f in t.faces],
        {order[v]: col[v] for v in t.vertices},
    )


def _replay_connect(start_text, target_text, path, kinds=None):
    """Replay a connect path (each site on the canonical form so far)."""
    _, faces, colors = S.parse_tri(start_text)
    faces, colors = S.canonical_form(faces, colors)
    for line in path:
        site = site_from_str(line)
        if kinds is not None and site.kind.value not in kinds:
            return f"site {line} is not among {kinds}"
        try:
            t, col = apply_flip(validate(faces), site, Coloring(colors))
        except BaltriError as exc:
            return f"site {line} does not apply: {exc}"
        faces, colors = S.canonical_form(t.faces, col.as_dict())
    if not S.isomorphic(faces, S.parse_tri(target_text)[1]):
        return "replayed path does not reach the target"
    return None


def check_connect(start, target, kinds=None):
    def check(rc, out):
        if rc == 1:  # NotConnectedWithinCaps is a verdict, not a failure
            return "capped verdict printed a path" if out else None
        return _replay_connect(_read(start), _read(target), out.split(), kinds)

    return check


def check_expand(path, site_text):
    def check(rc, out):
        seq = out.split()
        if not seq:
            return "empty expansion"
        t = validate(S.parse_tri(_read(path))[1])
        want, _ = apply_flip(t, site_from_str(site_text))
        cur = t
        for line in seq:
            try:
                cur, _ = apply_flip(cur, site_from_str(line))
            except BaltriError as exc:
                return f"step {line} does not apply: {exc}"
        if not S.isomorphic(cur.faces, want.faces):
            return "replayed expansion differs from the direct move"
        return None

    return check


def check_bfs(out_dir, max_vertices):
    def check(rc, out):
        lines = out.split("\n")
        states, edges = int(lines[0].split()[1]), int(lines[1].split()[1])
        if lines[2] != "truncated no":
            return "truncated"
        index = _read(os.path.join(out_dir, "index.tsv")).splitlines()[1:]
        if len(index) != states:
            return f"index.tsv lists {len(index)} states, stdout says {states}"
        if len(_read(os.path.join(out_dir, "edges.tsv")).splitlines()) - 1 != edges:
            return "edges.tsv disagrees with stdout"
        for row in index:
            name, nv, _, nf, *_ = row.split("\t")
            got_nv, faces, colors = S.parse_tri(_read(os.path.join(out_dir, "states", name + ".tri")))
            problem = S.surface_problem(faces) or S.coloring_problem(faces, colors)
            if problem or got_nv != int(nv) or len(faces) != int(nf) or got_nv > max_vertices:
                return f"state {name}: {problem or 'counts disagree with index.tsv'}"
        return None

    return check


def check_sample(start, out_path, steps):
    def check(rc, out):
        taken = out.split()
        if len(taken) > steps:
            return f"{len(taken)} sites printed for {steps} steps"
        nv, faces, colors = S.parse_tri(_read(out_path))
        problem = S.surface_problem(faces) or S.coloring_problem(faces, colors)
        if problem:
            return problem
        want = S.parse_tri(_read(start))[0] + sum(VERTEX_DELTA[s.split(":")[0]] for s in taken)
        if len({v for f in faces for v in f}) != nv or nv != want:
            return f"walk ends at {nv} vertices, its printed kinds give {want}"
        return None

    return check


def check_canon_hex(rc, out):
    text = out.strip()
    if out.count("\n") != 1 or not text or len(text) % 2:
        return "canon did not print one hex code"
    try:
        bytes.fromhex(text)
    except ValueError:
        return "canon output is not hex"
    return None


def check_same_code(partner_output):
    """The code of a relabeled copy must equal the original's."""
    def check(rc, out):
        return check_canon_hex(rc, out) or (
            None if out == partner_output() else "code changed under relabeling"
        )

    return check


def check_normalize(base, ops):
    def check(rc, out):
        got = S.parse_ops(out)
        if any(name not in S.FORWARD for name, _ in got):
            return "normalized script keeps an inverse op"
        if len(got) > len(ops):
            return f"normalized script grew from {len(ops)} to {len(got)} ops"
        try:
            result = S.apply_ops(*base, got)
        except ValueError as exc:
            return f"normalized script does not apply: {exc}"
        if not S.bip_isomorphic(result, S.apply_ops(*base, ops)):
            return "normalized result is not isomorphic to the direct one"
        return None

    return check


def check_bip_apply(base, ops):
    want = S.format_bip(*S.apply_ops(*base, ops))
    return lambda rc, out: None if out == want else "bip apply result differs"


# -- the workloads ---------------------------------------------------------------

def search(seed, work):
    cube = _write(os.path.join(work, "cube.tri"), S.format_tri(*S.cube_subdivision()))
    octa = _write(os.path.join(work, "octahedron.tri"), S.format_tri(*S.octahedron()))
    bfs_dir = os.path.join(work, "bfs")
    jobs = [
        Job(
            "bfs", "bfs",
            ["bfs", cube, "--kinds", "bts,btw,bes,bew,ps,pc",
             "--max-vertices", "16", "--max-states", "400", "--out", bfs_dir],
            check_bfs(bfs_dir, 16),
            outputs=(os.path.join(bfs_dir, "index.tsv"), os.path.join(bfs_dir, "edges.tsv")),
            fixed=True, runs_in=(0,),
        ),
        Job(
            "connect-octahedron", "connect",
            ["connect", octa, cube, "--max-vertices", "14", "--max-states", "3000"],
            check_connect(octa, cube), ok_codes=(0, 1), fixed=True,
        ),
    ]
    rng = S.seeded(seed, "search")
    # stratified by vertex count, which mostly decides a query's cost
    spheres = {nv: [] for nv in CUBE_QUOTA}
    while any(len(spheres[nv]) < n for nv, n in CUBE_QUOTA.items()):
        faces, colors = _sample_small(rng.randrange(2**31), S.octahedron(), 14, 12)
        if len(colors) in spheres and len(spheres[len(colors)]) < CUBE_QUOTA[len(colors)]:
            spheres[len(colors)].append((faces, colors))
    paths = [
        _write(os.path.join(work, f"sphere{i}.tri"), S.format_tri(*sphere))
        for i, sphere in enumerate(s for group in spheres.values() for s in group)
    ]
    queries = [
        Job(
            f"connect-cube{i}", "connect",
            ["connect", path, cube, "--max-vertices", "15", "--max-states", "4000"],
            check_connect(path, cube), ok_codes=(0, 1),
        )
        for i, path in enumerate(paths)
    ]
    for i in range(CONNECT_PAIRS):
        a, b = rng.sample(paths, 2)
        queries.append(Job(
            f"connect-pair{i}", "connect_pair",
            ["connect", a, b, "--kinds", "ps,pc", "--max-vertices", "15", "--max-states", "4000"],
            check_connect(a, b, ("ps", "pc")), ok_codes=(0, 1), runs_in=(0,),
        ))
    rng.shuffle(queries)
    # spheres and tori alternate, and each gets up to two sites of each kind
    expands, small = [], 0
    while len(expands) < EXPAND_JOBS:
        start = S.grid_torus(3) if small % 2 else S.octahedron()
        small += 1
        faces, colors = _sample_small(rng.randrange(2**31), start, 10, 12)
        path = _write(os.path.join(work, f"small{len(expands)}.tri"), S.format_tri(faces, colors))
        sites = []
        for kind in (FlipKind.NFLIP, FlipKind.P2FLIP):
            found = enumerate_sites(validate(faces), [kind])
            sites += rng.sample(found, min(2, len(found)))
        for site in map(str, sites):
            expands.append(Job(
                f"expand{len(expands)}", "expand", ["expand", path, site, "--via", "budget"],
                check_expand(path, site),
            ))
    # one closed loop alternates the two query families
    for i in range(max(len(queries), len(expands))):
        jobs.extend(queries[i:i + 1] + expands[i:i + 1])
    inputs = sorted({a for j in jobs for a in j.argv if a.endswith(".tri")})
    return Workload("search", jobs, expands[0].argv, inputs)


def large(seed, work):
    rng = S.seeded(seed, "large")
    starts = {
        "sphere": S.grown(*S.octahedron(), 800, rng),
        "torus": S.grown(*S.grid_torus(3), 800, rng),
    }
    workload = Workload("large", [], [], [])
    last = workload.last_out
    walks = {name: [] for name in starts}
    codes = []
    for name, (faces, colors) in starts.items():
        path = _write(os.path.join(work, f"{name}.tri"), S.format_tri(faces, colors))
        workload.inputs.append(path)
        for i in range(WALKS_PER_START):
            end = os.path.join(work, f"walk-{name}{i}.tri")
            walks[name].append(Job(
                f"sample-{name}{i}", "sample",
                ["sample", path, "--steps", str(SAMPLE_STEPS),
                 "--seed", str(rng.randrange(2**31)), "-o", end],
                check_sample(path, end, SAMPLE_STEPS), outputs=(end,),
            ))
        end = walks[name][0].outputs[0]
        moved = os.path.join(work, f"walk-{name}-relabeled.tri")
        relabel_seed = rng.randrange(2**31)
        codes.append(Job(f"canon-{name}", "canon_large", ["canon", end], check_canon_hex))
        codes.append(Job(
            f"canon-{name}-relabeled", "canon_large", ["canon", moved],
            check_same_code(lambda name=name: last.get(f"canon-{name}")),
            before=lambda end=end, moved=moved, seed=relabel_seed: _write(
                moved, S.relabel_tri(_read(end), random.Random(seed))
            ),
            runs_in=(0,), sample=f"canon-{name}",
        ))
    grid = _write(os.path.join(work, "grid12.tri"), S.format_tri(*S.grid_torus(12)))
    moved = _write(os.path.join(work, "grid12-relabeled.tri"), S.relabel_tri(_read(grid), rng))
    workload.inputs += [grid, moved]
    codes += [
        Job("canon-grid12", "canon_symmetric", ["canon", grid], check_canon_hex, fixed=True),
        Job(
            "canon-grid12-relabeled", "canon_symmetric", ["canon", moved],
            check_same_code(lambda: last.get("canon-grid12")), runs_in=(0,), sample="canon-grid12",
        ),
    ]
    # Every pass alternates sphere and torus walks, then codes the first
    # walk of each and the 12 x 12 torus; the first pass also codes each
    # code's relabeled twin right after it.
    walks = [j for pair in zip(*walks.values()) for j in pair]
    workload.jobs = walks + codes
    workload.warmup = ["sample", workload.inputs[0], "--steps", "1"]
    return workload


def normalize(seed, work):
    rng = S.seeded(seed, "normalize")
    pairs, inputs = [], []
    for i in range(NORMALIZE_SCRIPTS):
        # lengths stratified over 1..MAX_SCRIPT, side sizes cycled through
        # 3..6 and a fixed share of inverse ops: uniform, but every run sees
        # the same spread of script costs
        length = 1 + int((i + rng.random()) * MAX_SCRIPT / NORMALIZE_SCRIPTS)
        base = S.random_base(rng, 6, SIDES[i % len(SIDES)])
        ops = S.random_script(rng, base, length, round(INVERSE_RATE * length))
        graph = _write(os.path.join(work, f"base{i}.bip"), S.format_bip(*base))
        script = _write(os.path.join(work, f"script{i}.ops"), S.format_ops(ops))
        inputs += [graph, script]
        pairs.append([
            Job(f"normalize{i}", "normalize", ["bip", "normalize", graph, script],
                check_normalize(base, ops)),
            Job(f"apply{i}", "bip_apply", ["bip", "apply", graph, script],
                check_bip_apply(base, ops)),
        ])
    shortest = pairs[0][0].argv
    rng.shuffle(pairs)
    return Workload("normalize", [j for p in pairs for j in p], shortest, inputs)


WORKLOADS = {"search": search, "large": large, "normalize": normalize}
