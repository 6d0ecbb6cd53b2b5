"""Searching the flip graph of balanced triangulations.

States are canonical codes (colors up to permutation), so isomorphic
triangulations collapse to one node.  Because of that, a path is a list
of sites with replay semantics: each site applies to the canonical form
of the previous result, not to the raw vertex ids the previous flip
produced.  replay_path implements exactly that convention.

A state's form is a function of its code (see canon), so the searches keep
codes and decode a state's form only when they expand it: a state costs its
code, plus its automorphisms until it is expanded.  FlipGraphView.states
decodes a fresh validated form on each read.

States are codes up to color permutation, whose suffix the face stream
forces (see canon), so bfs, connect and replay_path carry no coloring, and
canonicalizing an input checks that it is balanced.  random_walk carries a
coloring along, checked by surface's gate.

Children are certified by code.  _child runs the move's rule once and builds
only what canon reads, each patched from the parent: the sorted faces, the
edge index (_swap_edges, which checks the touched edges) and the degrees.
No link is walked and no Triangulation or Coloring built.  A child whose
code equals a known state's is that state's face set, as the code rebuilds
the face set; a new code is validated by _decode before it is expanded, and
connect decodes its meeting state before it returns a path.

bfs and connect apply one site per orbit of the automorphisms canonicalizing
a state finds (McKay, Isomorph-free exhaustive generation, J. Algorithms 26,
1998): an automorphism carries a site to one with an isomorphic child, so of
the same code and kind.  In enumerate_sites order, each site not yet covered
is applied and covers its listed images, so the first site reaching each
child, and with it every edge, state, truncation and path, is unchanged.

Moves come in inverse pairs (bts/btw, bes/bew, ps/pc), so a search edge
P->C also proves C->P: if the inverse kind is searched and C is not yet
expanded, _level records the undo site on C's form with P's code, for bfs
and connect alike.  Expanding C, an orbit holding a recorded site yields P
unapplied.  The site's child is isomorphic to P, and so is each listed
image's; P is already a state, so no state, state order, truncation or path
changes.  The cap test comes first, so a record above the cap yields nothing.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .canon import CanonicalCode, ColorMode, is_isomorphic
from .canon import _canonical, _canonical_parts, _decode
from .embeddings import cube_embedding, face_subdivision
from .errors import NotConnectedWithinCaps, SurfaceMismatch
from .flips import FlipKind, FlipSite, _exchange, _map_site, _sites_after
from .flips import apply_flip, enumerate_sites
from .surface import Coloring, Triangulation, surface_id, validate
from .surface import _coloring, _swap_edges, _swapped


# -- stock triangulations ------------------------------------------------------

def build_octahedron() -> tuple[Triangulation, Coloring]:
    """Three antipodal pairs, one vertex from each pair per face."""
    faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return validate(faces), Coloring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})


def build_k333_torus() -> tuple[Triangulation, Coloring]:
    """The complete tripartite graph on 3+3+3 vertices, laid on the torus."""

    def v(i: int, j: int) -> int:
        return 3 * (i % 3) + (j % 3)

    faces = [
        f for i in range(3) for j in range(3)
        for f in ((v(i, j), v(i + 1, j), v(i, j + 1)), (v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    ]
    col = Coloring({3 * i + j: (i - j) % 3 for i in range(3) for j in range(3)})
    return validate(faces), col


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


class _Forms(Mapping):
    """Codes in discovery order; each read decodes the code's form."""

    def __init__(self, codes: dict[CanonicalCode, CanonicalCode]):
        self._codes = codes

    def __getitem__(self, code: CanonicalCode) -> tuple[Triangulation, Coloring]:
        if code not in self._codes:
            raise KeyError(code)
        return _decode(code)

    def __contains__(self, code) -> bool:
        return code in self._codes

    def __iter__(self):
        return iter(self._codes)

    def __len__(self) -> int:
        return len(self._codes)


@dataclass
class FlipGraphView:
    """A finite window of the flip graph: canonical states and flip edges.

    states is read-only, and each read decodes a fresh validated form."""

    start: CanonicalCode
    states: Mapping[CanonicalCode, tuple[Triangulation, Coloring]]
    edges: tuple[tuple[CanonicalCode, FlipKind, CanonicalCode], ...]
    truncated: bool = False

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _norm_kinds(kinds: Iterable[FlipKind] | None) -> tuple[FlipKind, ...]:
    return tuple(FlipKind) if kinds is None else tuple(dict.fromkeys(kinds))


def _form_automorphisms(gens, labels: dict[int, int]) -> list[dict[int, int]]:
    """Automorphisms in raw ids, rewritten on the form's ids."""
    return [{labels[x]: labels[y] for x, y in g.items()} for g in gens]


def _child(cur: Triangulation, deg: dict[int, int], site: FlipSite):
    """(code, labels, automorphisms, undo site on cur) of site's child, from
    only what canon reads: faces, edges and cur's degrees deg, each patched.
    No link is walked (that waits for _decode) and no Triangulation built."""
    rem, _, add, _, undo = _exchange(cur, site)
    add = sorted(add)
    edge_faces, deg = dict(cur._edge_faces), dict(deg)
    _swap_edges(edge_faces, rem, add)
    for v in chain.from_iterable(add):
        deg[v] = deg.get(v, 0) + 1
    for v in chain.from_iterable(rem):
        deg[v] -= 1
        if not deg[v]:  # left without faces
            del deg[v]
    faces = _swapped(cur, rem, add, len(deg), edge_faces)
    code, labels, gens = _canonical_parts(faces, edge_faces, deg, None, _MODE)
    return code, labels, gens, tuple.__new__(FlipSite, (site.kind.inverse, undo))


def _level(frontier, auts, undo, kinds, max_vertices: int):
    """Expand frontier's codes in sorted order, popping their automorphisms
    from auts and undo records (site -> code) from undo.  Per orbit, yields
    (code, site, child code, child automorphisms, undo site), the last two
    on the child's form; an orbit holding a record yields its code, None,
    None unapplied.  A child the caller left in auts gets its undo recorded."""
    for code in sorted(frontier):
        cur = _decode(code)[0]
        gens, back_to = auts.pop(code), undo.pop(code, {})
        deg = {v: len(link) for v, link in cur._links.items()}
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
            parent = next((back_to[s] for s in orbit if s in back_to), None)
            if parent is not None:
                yield code, site, parent, None, None
                continue
            ccode, labels, cgens, back = _child(cur, deg, site)
            mapped = tuple.__new__(FlipSite, (back.kind, tuple(labels[v] for v in back.vertices)))
            yield code, site, ccode, _form_automorphisms(cgens, labels), mapped
            if ccode in auts and back.kind in kinds:
                undo.setdefault(ccode, {})[_map_site(back, labels)] = code


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
    start, labels, gens = _canonical(t, None, _MODE)
    states = {start: start}  # each code to itself, in discovery order
    auts = {start: _form_automorphisms(gens, labels)}  # per state not yet expanded
    undo: dict[CanonicalCode, dict[FlipSite, CanonicalCode]] = {}
    edges: set[tuple[CanonicalCode, FlipKind, CanonicalCode]] = set()
    frontier = [start]
    truncated = False
    while frontier:
        nxt: list[CanonicalCode] = []
        for code, site, ccode, cauts, _ in _level(frontier, auts, undo, kinds, max_vertices):
            if ccode not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[ccode] = ccode
                auts[ccode] = cauts
                nxt.append(ccode)
            edges.add((code, site.kind, states[ccode]))  # one object per code
        frontier = nxt
    ordered = sorted(edges, key=lambda e: (e[0], e[1].value, e[2]))
    return FlipGraphView(start, _Forms(states), tuple(ordered), truncated)


# -- path search ----------------------------------------------------------------

def replay_path(
    t: Triangulation, steps: Sequence[FlipSite]
) -> tuple[Triangulation, Coloring]:
    """Apply steps where each one addresses the canonical form so far."""
    # canonical_form with the suffix forced, so no coloring is walked
    cur, ccol = _decode(_canonical(t, None, _MODE)[0])
    for site in steps:
        cur, ccol = _decode(_canonical(apply_flip(cur, site)[0], None, _MODE)[0])
    return cur, ccol


def _path_to_start(side: dict, code: CanonicalCode) -> list[FlipSite]:
    """The sites recorded on the parent links from code back to the side's start."""
    steps: list[FlipSite] = []
    while side[code][0] is not None:
        code, site = side[code]
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
    # canonicalizing both inputs first raises NotBalanced before SurfaceMismatch
    starts = [_canonical(t, None, _MODE) for t in (t1, t2)]
    if surface_id(t1) != surface_id(t2):
        raise SurfaceMismatch(
            "no flip changes the underlying surface, the inputs lie on two"
        )

    # side 0 entry: (parent code, site on the parent form reaching here)
    # side 1 entry: (parent code, site on THIS form stepping toward t2)
    sides: list[dict[CanonicalCode, tuple]] = [{s[0]: (None, None)} for s in starts]
    frontiers: list[list[CanonicalCode]] = [[s[0]] for s in starts]
    # per state of either side not yet expanded, on its form
    auts = {code: _form_automorphisms(gens, labels) for code, labels, gens in starts}
    undo: dict[CanonicalCode, dict[FlipSite, CanonicalCode]] = {}

    def assemble(meet: CanonicalCode) -> list[FlipSite]:
        return _path_to_start(sides[0], meet)[::-1] + _path_to_start(sides[1], meet)

    if frontiers[0][0] in sides[1]:
        return assemble(frontiers[0][0])

    stopped: list[str | None] = [None, None]  # the cap that stopped each side
    while None in stopped:
        # grow the smaller live frontier first
        idx = min((0, 1), key=lambda i: (stopped[i] is not None, len(sides[i])))
        use_kinds = kinds if idx == 0 else back_kinds
        here, there = sides[idx], sides[1 - idx]
        nxt: list[CanonicalCode] = []
        for code, site, ccode, cauts, back in _level(
            frontiers[idx], auts, undo, use_kinds, max_vertices
        ):
            if ccode in here:
                continue
            # a state closing the path is admitted even past the cap
            if len(here) >= max_states and ccode not in there:
                continue
            auts[ccode] = cauts
            here[ccode] = (code, back if idx else site)  # side 1 keeps the undo site
            if ccode in there:
                _decode(ccode)  # a child's code is validated before it is returned
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
