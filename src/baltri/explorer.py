"""Searching the flip graph of balanced triangulations.

States are canonical codes (colors up to permutation), so isomorphic
triangulations collapse to one node.  Because of that, a path is a list
of sites with replay semantics: each site applies to the canonical form
of the previous result, not to the raw vertex ids the previous flip
produced.  replay_path implements exactly that convention.

States are codes up to color permutation, and a balanced triangulation
has one coloring up to it, so bfs, connect and replay_path find their own
coloring.  random_walk carries one along, checked by surface's gate.

bfs and connect apply one site per orbit of the automorphisms canonicalizing
a state finds (McKay, Isomorph-free exhaustive generation, J. Algorithms 26,
1998): an automorphism carries a site to one with an isomorphic child, so of
the same code and kind.  In enumerate_sites order, each site not yet covered
is applied and covers its listed images, so the first site reaching each
child, and with it every edge, state, truncation and path, is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import CanonicalCode, ColorMode, canonical_form, is_isomorphic
from .canon import _canonical, _relabel
from .embeddings import cube_embedding, face_subdivision
from .errors import NotConnectedWithinCaps, SurfaceMismatch
from .flips import (
    FlipKind,
    FlipSite,
    _map_site,
    _sites_after,
    apply_flip,
    enumerate_sites,
    inverse_site,
)
from .surface import Coloring, Triangulation, find_coloring, surface_id, validate
from .surface import _coloring


# -- stock triangulations ------------------------------------------------------

def build_octahedron() -> tuple[Triangulation, Coloring]:
    """Three antipodal pairs, one vertex from each pair per face."""
    faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return validate(faces), Coloring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})


def build_k333_torus() -> tuple[Triangulation, Coloring]:
    """The complete tripartite graph on 3+3+3 vertices, laid on the torus."""

    def v(i: int, j: int) -> int:
        return 3 * (i % 3) + (j % 3)

    faces = set()
    for i in range(3):
        for j in range(3):
            faces.add(tuple(sorted((v(i, j), v(i + 1, j), v(i, j + 1)))))
            faces.add(tuple(sorted((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))))
    tri = validate(sorted(faces))
    col = Coloring({3 * i + j: (i - j) % 3 for i in range(3) for j in range(3)})
    return tri, col


def build_cube_subdivision() -> tuple[Triangulation, Coloring]:
    return face_subdivision(cube_embedding())


def classify(t: Triangulation) -> dict[str, bool]:
    """Cheap structural facts that decide which moves can ever apply."""
    octa, _ = build_octahedron()
    return {
        "is_octahedron": is_isomorphic(t, octa),
        "ps_applicable": bool(enumerate_sites(t, [FlipKind.PS])),
        "pc_applicable": bool(enumerate_sites(t, [FlipKind.PC])),
        "all_degrees_four": all(t.degree(v) == 4 for v in t.vertices),
    }


# -- breadth-first exploration --------------------------------------------------

_MODE = ColorMode.UP_TO_PERMUTATION  # search states are codes up to color permutation


@dataclass
class FlipGraphView:
    """A finite window of the flip graph: canonical states and flip edges."""

    start: CanonicalCode
    states: dict[CanonicalCode, tuple[Triangulation, Coloring]]
    edges: tuple[tuple[CanonicalCode, FlipKind, CanonicalCode], ...]
    truncated: bool = False

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _norm_kinds(kinds: Iterable[FlipKind] | None) -> tuple[FlipKind, ...]:
    if kinds is None:
        return tuple(FlipKind)
    return tuple(dict.fromkeys(kinds))


def _form_automorphisms(gens, labels: dict[int, int]) -> list[dict[int, int]]:
    """Automorphisms in raw ids, rewritten on the form's ids."""
    return [{labels[x]: labels[y] for x, y in g.items()} for g in gens]


def _children(cur: Triangulation, ccol: Coloring, gens, kinds, max_vertices: int):
    """(site, child, child coloring, code, labels, perm, child automorphisms)
    per child within the cap, applying only the first site of each orbit of
    cur's automorphisms gens."""
    sites = enumerate_sites(cur, kinds)
    listed = set(sites) if gens else ()
    covered: set[FlipSite] = set()
    for site in sites:
        if cur.vertex_count + site.kind.delta > max_vertices or site in covered:
            continue
        orbit = [site]
        for s in orbit:  # grows as it is read; an unlisted image starts its own
            for g in gens:
                image = _map_site(s, g)
                if image in listed and image not in covered:
                    covered.add(image)
                    orbit.append(image)
        child, childcol = apply_flip(cur, site, ccol)
        yield (site, child, childcol, *_canonical(child, childcol, _MODE))


def bfs(
    t: Triangulation,
    *,
    kinds: Iterable[FlipKind] | None = None,
    max_vertices: int,
    max_states: int,
) -> FlipGraphView:
    """Explore flips outward from t, bounded in vertices and state count.

    Children above the vertex cap are not generated at all.  Hitting the
    state cap stops discovery of new states but still records edges among
    known ones, and sets the truncated flag.
    """
    kinds = _norm_kinds(kinds)
    col = find_coloring(t)
    start, labels, perm, gens = _canonical(t, col, _MODE)
    states: dict[CanonicalCode, tuple[Triangulation, Coloring]] = {}
    states[start] = _relabel(t, col, labels, perm)
    auts = {start: _form_automorphisms(gens, labels)}  # per state, on its form
    edges: set[tuple[CanonicalCode, FlipKind, CanonicalCode]] = set()
    frontier = [start]
    truncated = False
    while frontier:
        nxt: list[CanonicalCode] = []
        for code in sorted(frontier):
            cur, ccol = states[code]
            for site, child, childcol, ccode, labels, perm, gens in _children(
                cur, ccol, auts[code], kinds, max_vertices
            ):
                if ccode not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[ccode] = _relabel(child, childcol, labels, perm)
                    auts[ccode] = _form_automorphisms(gens, labels)
                    nxt.append(ccode)
                edges.add((code, site.kind, ccode))
        frontier = nxt
    ordered = sorted(edges, key=lambda e: (e[0], e[1].value, e[2]))
    return FlipGraphView(start, states, tuple(ordered), truncated)


# -- path search ----------------------------------------------------------------

def replay_path(
    t: Triangulation, steps: Sequence[FlipSite]
) -> tuple[Triangulation, Coloring]:
    """Apply steps where each one addresses the canonical form so far."""
    cur, ccol, _ = canonical_form(t, find_coloring(t), _MODE)
    for site in steps:
        cur, ccol, _ = canonical_form(*apply_flip(cur, site, ccol), _MODE)
    return cur, ccol


def _path_to_start(side: dict, code: CanonicalCode) -> list[FlipSite]:
    """The sites recorded on the parent links from code back to the side's start."""
    steps: list[FlipSite] = []
    while side[code][1] is not None:
        _, code, site = side[code]
        steps.append(site)
    return steps


def connect(
    t1: Triangulation,
    t2: Triangulation,
    *,
    kinds: Iterable[FlipKind] | None = None,
    max_vertices: int,
    max_states: int,
) -> list[FlipSite]:
    """A flip path from t1 to t2 (replay semantics), or an error.

    Bidirectional search: one ball grows from t1 under the given kinds,
    the other from t2 under their inverses, and a state known to both
    sides yields the path.  Caps apply to each side separately.
    SurfaceMismatch and NotConnectedWithinCaps report the two failure
    modes; the latter never proves disconnection.
    """
    kinds = _norm_kinds(kinds)
    back_kinds = tuple(dict.fromkeys(k.inverse for k in kinds))
    col1, col2 = find_coloring(t1), find_coloring(t2)
    if surface_id(t1) != surface_id(t2):
        raise SurfaceMismatch(
            "no flip changes the underlying surface, the inputs lie on two"
        )

    # side 0 entry: (state, parent code, site on the parent form reaching here)
    # side 1 entry: (state, parent code, site on THIS form stepping toward t2)
    sides: list[dict[CanonicalCode, tuple]] = [{}, {}]
    frontiers: list[list[CanonicalCode]] = [[], []]
    auts = {}  # per state of either side, on its form
    for idx, (t, col) in enumerate(((t1, col1), (t2, col2))):
        code, labels, perm, gens = _canonical(t, col, _MODE)
        sides[idx][code] = (_relabel(t, col, labels, perm), None, None)
        auts[code] = _form_automorphisms(gens, labels)
        frontiers[idx] = [code]

    def assemble(meet: CanonicalCode) -> list[FlipSite]:
        return _path_to_start(sides[0], meet)[::-1] + _path_to_start(sides[1], meet)

    start1 = frontiers[0][0]
    if start1 in sides[1]:
        return assemble(start1)

    stopped: list[str | None] = [None, None]  # the cap that stopped each side
    while None in stopped:
        # grow the smaller live frontier first
        idx = min((0, 1), key=lambda i: (stopped[i] is not None, len(sides[i])))
        use_kinds = kinds if idx == 0 else back_kinds
        here, there = sides[idx], sides[1 - idx]
        nxt: list[CanonicalCode] = []
        for code in sorted(frontiers[idx]):
            cur, ccol = here[code][0]
            for site, raw, rawcol, ccode, labels, perm, gens in _children(
                cur, ccol, auts[code], use_kinds, max_vertices
            ):
                if ccode in here:
                    continue
                # a state closing the path is admitted even past the cap
                if len(here) >= max_states and ccode not in there:
                    continue
                state = _relabel(raw, rawcol, labels, perm)
                auts[ccode] = _form_automorphisms(gens, labels)
                if idx == 0:
                    here[ccode] = (state, code, site)
                else:
                    back = inverse_site(cur, site)
                    mapped = FlipSite(
                        back.kind, tuple(labels[v] for v in back.vertices)
                    )
                    here[ccode] = (state, code, mapped)
                if ccode in there:
                    return assemble(ccode)
                nxt.append(ccode)
        frontiers[idx] = nxt
        if len(here) >= max_states:
            stopped[idx] = "state cap reached"
        elif not nxt:
            stopped[idx] = "frontier empty under the vertex cap"
    raise NotConnectedWithinCaps(
        f"no path within {max_vertices} vertices and {max_states} states per "
        f"side; states reached: {len(sides[0])} from the first input "
        f"({stopped[0]}), {len(sides[1])} from the second ({stopped[1]})"
    )


def random_walk(
    t: Triangulation,
    col: Coloring | None = None,
    kinds: Iterable[FlipKind] | None = None,
    steps: int = 10,
    seed: int = 0,
    max_vertices: int | None = None,
) -> tuple[Triangulation, Coloring, list[FlipSite]]:
    """Take uniformly random applicable flips; stops early if none remain.

    Unlike connect, the returned sites replay directly with apply_flip:
    no canonicalization happens between steps.  col is found when None and
    raises NotBalanced when it is not a proper coloring of t.
    """
    kinds = _norm_kinds(kinds)
    col = _coloring(t, col)
    rng = random.Random(seed)
    taken: list[FlipSite] = []
    prev, sites = None, []
    for _ in range(steps):
        # after the first step only the sites near the last move change
        if prev is None:
            sites = enumerate_sites(t, kinds)
        else:
            sites = _sites_after(prev, t, sites, kinds)
        pool = sites
        if max_vertices is not None:
            pool = [s for s in sites if t.vertex_count + s.kind.delta <= max_vertices]
        if not pool:
            break
        site = rng.choice(pool)
        prev = t
        t, col = apply_flip(t, site, col)
        taken.append(site)
    return t, col, taken
