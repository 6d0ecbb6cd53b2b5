"""Validated face-set model of closed-surface triangulations and 3-colorings.

A triangulation is stored as its set of triangular faces over integer vertex
ids.  The complex is simplicial, so the face set alone determines the surface
and no rotation system is needed.  Vertex ids may be any non-negative
integers in memory (local moves create ids above the current maximum and may
delete ids in the middle); the text file format renumbers contiguously.

Instances are immutable.  Construct them through validate(), the only public
constructor.  A move (flips.apply_flip) goes through _swap_faces instead,
which exchanges one disk of faces for another with the same boundary and
re-checks only the edges and vertex links it touches, as validate() would;
the surface type carries over.  So an existing Triangulation is always a
closed surface, and validate() stays the reference the patch is tested
against.

A Triangulation keeps one index per fact: faces (the sorted face tuple),
_thirds (each edge's two thirds, the corners its two faces have off it,
sorted) and _links (each vertex's link cycle as its walk met it, from any
start in either direction; link_cycle() alone rotates it into normal form,
on read).  Vertices, edges, degrees, neighbors and face membership are read
off those: face abc is present when c is a third of ab.  _links is keyed in
ascending vertex order, so vertices comes out sorted and max_vertex_id is
its last key: validate() builds it in that order, and a move only deletes
keys or appends ids above max_vertex_id.

One walker, _walk_link, reads every link by going around the vertex over
_thirds.  validate() indexes the sorted faces in one pass, _build.  A
move patches copies of t's indexes with _index, which swaps some faces for
others in place: its edge half, _swap_edges, checks that each touched edge
keeps two thirds or none (the search patches a child's edges with it alone),
and each touched link is walked.  Only to name a fault _build found does
validate() run _index, on empty indexes with every face.

The two global facts, the 3-coloring and the orientability, are each forced
once one face is fixed, so both are read off one face walk, _crossings,
which crosses every edge of every face breadth first from t.faces[0]:
find_coloring() forces each far third's color, and is_orientable() each
far face's orientation sign.

Calls that check a supplied coloring do so in one gate, _coloring(): it
raises NotBalanced unless is_proper() accepts the coloring, and finds one
with find_coloring() when none is supplied.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DegenerateFace,
    Disconnected,
    DuplicateFace,
    ImpossibleSurface,
    NonManifoldEdge,
    NotBalanced,
    PinchedVertex,
)

Face = tuple[int, int, int]
Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def face_key(a: int, b: int, c: int) -> Face:
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


class Triangulation:
    """A closed-surface triangulation, immutable, its links kept as walked."""

    __slots__ = ("faces", "_thirds", "_links", "_hash", "_orientable")

    def __init__(self, faces, thirds, links):
        # Internal constructor; use validate().  links must be keyed in
        # ascending vertex order (see the module docstring).
        self.faces: tuple[Face, ...] = faces
        self._thirds: dict[Edge, tuple[int, int]] = thirds
        self._links: dict[int, tuple[int, ...]] = links
        self._hash: int | None = None  # hash(faces), on the first __hash__
        self._orientable: bool | None = None

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Triangulation):
            return self.faces == other.faces
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.faces)
        return self._hash

    def __repr__(self):
        return (
            f"Triangulation(V={len(self._links)}, E={len(self._thirds)}, "
            f"F={len(self.faces)})"
        )

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._links)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._thirds))

    @property
    def vertex_count(self) -> int:
        return len(self._links)

    @property
    def edge_count(self) -> int:
        return len(self._thirds)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def max_vertex_id(self) -> int:
        return next(reversed(self._links))

    def degree(self, v: int) -> int:
        return len(self._links[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(self._links[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._thirds

    def has_face(self, a: int, b: int, c: int) -> bool:
        a, b, c = face_key(a, b, c)
        return c in self._thirds.get((a, b), ())

    def edge_opposites(self, u: int, v: int) -> tuple[int, int]:
        """The two vertices completing the faces on edge uv, sorted."""
        return self._thirds[edge_key(u, v)]

    def other_face_third(self, u: int, v: int, w: int) -> int:
        """Third vertex of the face on edge uv other than face uvw."""
        a, b = self._thirds[edge_key(u, v)]
        return b if a == w else a

    def link_cycle(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in cyclic order, canonically rotated.

        Starts at the smallest neighbor and proceeds toward the smaller of
        its two link-neighbors, so equal links compare equal.  _links keeps
        each cycle as its walk met it; this is the one place that rotates.
        """
        cycle = self._links[v]
        i = cycle.index(min(cycle))
        if cycle[i - 1] < cycle[i + 1 - len(cycle)]:
            cycle, i = cycle[::-1], len(cycle) - 1 - i
        return cycle[i:] + cycle[:i]

    def euler_characteristic(self) -> int:
        return len(self._links) - len(self._thirds) + len(self.faces)


def _walk_link(v: int, w: int, thirds: Mapping[Edge, Sequence[int]]) -> tuple[int, ...]:
    """The link of v as walked from its neighbor w, unrotated.

    Each step crosses edge vx to the third of vx it did not come from, so
    thirds must hold two on every edge at v.  The walk closes on the one
    cycle through w: the callers compare its length with v's face count, as
    a shorter one leaves v pinched.
    """
    cycle = [w]
    back, x = w, thirds[edge_key(v, w)][0]
    while x != w:
        cycle.append(x)
        y, z = thirds[(v, x) if v < x else (x, v)]
        back, x = x, (z if y == back else y)
    return tuple(cycle)


def _swap_edges(thirds: dict, rem: Collection[Face], add: Sequence[Face]) -> dict:
    """The edge half of _index, which returns per vertex of a kept touched
    edge its other end.  A touched edge starts from its stored thirds, gains
    those of add and loses those of rem.  The touched edges, those of add
    and then those only rem has, are checked in insertion order: each must
    be left with two thirds, stored sorted, or none, and is dropped; else
    NonManifoldEdge."""
    around: dict[Edge, list[int]] = {}
    for a, b, c in add:
        for e, z in (((a, b), c), ((a, c), b), ((b, c), a)):
            if e not in around:
                around[e] = list(thirds.get(e, ()))
            around[e].append(z)
    for a, b, c in rem:
        for e, z in (((a, b), c), ((a, c), b), ((b, c), a)):
            if e not in around:
                around[e] = list(thirds[e])
            around[e].remove(z)

    neighbor: dict[int, int] = {}
    for e, zs in around.items():
        u, v = e
        if len(zs) != 2:
            if zs:
                raise NonManifoldEdge(
                    f"edge {{{u + 1},{v + 1}}} lies in {len(zs)} face(s), expected 2"
                )
            del thirds[e]
            continue
        y, z = zs
        thirds[e] = (y, z) if y < z else (z, y)
        neighbor[u], neighbor[v] = v, u
    return neighbor


def _index(
    thirds: dict, links: dict, rem: Collection[Face], add: Sequence[Face]
) -> None:
    """Swap the faces rem for the sorted faces add in both indexes, in place:
    _swap_edges patches the edges, then the link of each vertex of rem or add
    is walked in ascending order with _walk_link, PinchedVertex naming the
    first that does not meet all the vertex's faces, or dropped with its last
    face.  rem must be faces in thirds, and a vertex new to links must
    exceed its keys, so that they stay ascending."""
    neighbor = _swap_edges(thirds, rem, add)
    # Past the edge check, a vertex with faces left has a kept edge to start
    # from: one of add, or one between a face of rem and a face that stays.
    count = Counter(chain.from_iterable(add))
    count.subtract(chain.from_iterable(rem))
    for v in sorted(count):
        n = count[v]
        if v in links:
            n += len(links[v])
        if n:
            links[v] = link = _walk_link(v, neighbor[v], thirds)
            if len(link) != n:
                raise PinchedVertex(
                    f"link of vertex {v + 1} splits into more than one cycle"
                )
        else:
            del links[v]


def _build(faces: list[Face]) -> Triangulation | None:
    """The Triangulation on the sorted, distinct face keys faces, or None
    when an edge does not lie on two faces or a link is not one cycle.

    An edge's faces come in sorted order, so its thirds come ascending, and
    with at most two per edge 2E = 3F says none has one.  Each link is
    walked once with _walk_link, from any neighbor; the links meet all 3F
    corners only if no vertex is pinched.
    """
    thirds: dict = {}
    for a, b, c in faces:
        for e, z in (((a, b), c), ((a, c), b), ((b, c), a)):
            x = thirds.setdefault(e, z)
            if x != z:
                if x.__class__ is tuple:
                    return None
                thirds[e] = (x, z)
    if 2 * len(thirds) != 3 * len(faces):
        return None
    start: dict[int, int] = {}
    for u, w in thirds:
        start[u], start[w] = w, u
    links = {v: _walk_link(v, start[v], thirds) for v in sorted(start)}
    if sum(map(len, links.values())) != 3 * len(faces):
        return None
    return Triangulation(tuple(faces), thirds, links)


def validate(face_list: Iterable[Sequence[int]]) -> Triangulation:
    """Check that a face list describes a closed surface and index it.

    Every edge must lie on two faces and the walk around each vertex must
    meet all its faces; on a fault, _index names the first bad edge in the
    order the edges first occur, else the least pinched vertex.  With every
    link one cycle, the surface is connected iff its vertex graph is, so
    that is checked through the links.

    Raises DegenerateFace, DuplicateFace, NonManifoldEdge, PinchedVertex,
    Disconnected or ImpossibleSurface; on success returns the Triangulation
    with its edge thirds and vertex links indexed.
    """
    faces: list[Face] = []
    seen: set[Face] = set()
    for raw in face_list:
        t = tuple(raw)
        if len(t) != 3:
            raise DegenerateFace(f"face {t!r} does not have exactly 3 vertices")
        a, b, c = t
        for x in t:
            if not isinstance(x, int) or x < 0:
                raise DegenerateFace(f"face {t!r} has a non-(non-negative-integer) vertex")
        if a == b or b == c or a == c:
            raise DegenerateFace(f"face {{{a + 1},{b + 1},{c + 1}}} repeats a vertex")
        k = face_key(a, b, c)
        if k in seen:
            raise DuplicateFace(f"face {{{k[0] + 1},{k[1] + 1},{k[2] + 1}}} appears twice")
        seen.add(k)
        faces.append(k)
    if not faces:
        raise DegenerateFace("empty face list")
    faces.sort()
    t = _build(faces)
    if t is None:  # some check fails: name the fault as _index meets it
        t = Triangulation(tuple(faces), {}, {})
        _index(t._thirds, t._links, (), faces)

    # The vertex graph must be connected (one surface at a time).
    links = t._links
    first = next(iter(links))
    reached = {first}
    stack = [first]
    while stack:
        for w in links[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != len(links):
        raise Disconnected(
            f"vertex graph has {len(links) - len(reached)} unreachable vertex(es)"
        )

    # Closed-surface sanity: the classification forces chi <= 2, with even
    # chi on orientable surfaces.
    chi = t.euler_characteristic()
    if chi > 2 or (chi % 2 and is_orientable(t)):
        raise ImpossibleSurface(
            f"no closed surface has Euler characteristic {chi} and this orientability"
        )
    return t


def _swap_faces(t: Triangulation, rem: set[Face], add: Sequence[Face]) -> Triangulation:
    """t with the faces rem exchanged for add, re-indexed only where they lie.

    Every move swaps one disk for another with the same boundary, so the
    surface, its connectivity and its orientability carry over from t.  The
    indexes are copied and patched by _index, which checks the touched edges
    in insertion order (NonManifoldEdge) and walks the touched links
    (PinchedVertex), as validate() does; _swapped checks the Euler
    characteristic.  rem must be faces of t, add must not repeat a face of t
    that stays, and a vertex of add not in t must exceed max_vertex_id.
    """
    thirds, links = dict(t._thirds), dict(t._links)
    _index(thirds, links, rem, sorted(add))
    t2 = Triangulation(_swapped(t, rem, add, len(links), thirds), thirds, links)
    t2._orientable = t._orientable
    return t2


def _swapped(t: Triangulation, rem: Collection[Face], add: Sequence[Face], nv, thirds):
    """t's sorted faces with rem exchanged for add, as a tuple, once nv
    vertices and the patched thirds keep t's Euler characteristic, else
    ImpossibleSurface."""
    faces = list(t.faces)
    for f in rem:
        del faces[bisect_left(faces, f)]
    for f in add:
        insort(faces, f)
    chi, after = t.euler_characteristic(), nv - len(thirds) + len(faces)
    if after != chi:
        raise ImpossibleSurface(
            f"swapping {len(rem)} faces for {len(add)} changes the Euler "
            f"characteristic from {chi} to {after}"
        )
    return tuple(faces)


def _crossings(t: Triangulation) -> Iterator[tuple[Face, int, int, int, Face]]:
    """The face walk: (f, x, y, z, g) for each edge xy of each face f, g
    across it and z the third of xy on g.

    Visits the faces breadth first from t.faces[0], the edges of each sorted
    face f = (a, b, c) in the order ab, ac, bc, so x < y.  On a connected
    surface it reaches every face, crossing every edge once from each side.
    """
    thirds = t._thirds
    order = [t.faces[0]]
    seen = set(order)
    for f in order:
        a, b, c = f
        for x, y, w in ((a, b, c), (a, c, b), (b, c, a)):
            z, u = thirds[(x, y)]
            if z == w:
                z = u
            g = (z, x, y) if z < x else (x, z, y) if z < y else (x, y, z)
            yield f, x, y, z, g
            if g not in seen:
                seen.add(g)
                order.append(g)


def is_orientable(t: Triangulation) -> bool:
    """Whether the faces admit globally consistent orientations.

    Gives each sorted face a sign, +1 for a -> b -> c and -1 for the reverse,
    starting with +1 on t.faces[0], and propagates it along the face walk
    _crossings: the two faces on an edge must run it in opposite directions,
    and an edge x < y runs backward in a sorted face exactly when that face's
    third corner, its middle one, lies between x and y.  A conflict anywhere
    means the surface is non-orientable.
    """
    if t._orientable is None:
        sign = {t.faces[0]: 1}
        ok = True
        for f, x, y, _, g in _crossings(t):
            want = -sign[f] if (x != f[1] != y) == (x != g[1] != y) else sign[f]
            if sign.setdefault(g, want) != want:
                ok = False
                break
        t._orientable = ok
    return t._orientable


def surface_id(t: Triangulation) -> tuple[bool, int]:
    """(orientable, genus) for orientable surfaces, else (False, crosscaps)."""
    chi = t.euler_characteristic()
    if is_orientable(t):
        return (True, (2 - chi) // 2)
    return (False, 2 - chi)


def surface_name(t: Triangulation) -> str:
    orientable, count = surface_id(t)
    if orientable:
        if count == 0:
            return "sphere"
        if count == 1:
            return "torus"
        return f"orientable surface of genus {count}"
    if count == 1:
        return "projective plane"
    if count == 2:
        return "Klein bottle"
    return f"non-orientable surface with {count} crosscaps"


class Coloring:
    """A proper 3-coloring of a triangulation's vertices, colors in {0,1,2}.

    Immutable by convention: nothing mutates the wrapped mapping after
    construction and the class exposes no mutators.
    """

    __slots__ = ("_color",)

    def __init__(self, color: Mapping[int, int]):
        self._color = dict(color)

    def __getitem__(self, v: int) -> int:
        return self._color[v]

    def __contains__(self, v: int) -> bool:
        return v in self._color

    def __len__(self) -> int:
        return len(self._color)

    def __iter__(self) -> Iterator[int]:
        return iter(self._color)

    def __eq__(self, other):
        if isinstance(other, Coloring):
            return self._color == other._color
        return NotImplemented

    def __repr__(self):
        return f"Coloring({self._color!r})"

    def items(self):
        return self._color.items()

    def as_dict(self) -> dict[int, int]:
        return dict(self._color)

    def color_class(self, c: int) -> tuple[int, ...]:
        return tuple(sorted(v for v, k in self._color.items() if k == c))

    def permuted(self, perm: Sequence[int]) -> "Coloring":
        """Coloring with color values remapped through perm[old] = new."""
        return Coloring({v: perm[c] for v, c in self._color.items()})

    def updated(self, added: Mapping[int, int], removed: Iterable[int] = ()) -> "Coloring":
        out = dict(self._color)
        for v in removed:
            del out[v]
        out.update(added)
        return Coloring(out)


def is_proper(t: Triangulation, col: Coloring) -> bool:
    """Whether col assigns distinct colors in {0,1,2} across every edge."""
    color = col._color
    for v in t._links:
        if color.get(v) not in (0, 1, 2):
            return False
    return all(color[u] != color[v] for u, v in t._thirds)


def find_coloring(t: Triangulation) -> Coloring:
    """Find the proper 3-coloring, or raise NotBalanced.

    Seeds the lexicographically least face with colors (0, 1, 2) in
    ascending vertex order and propagates along the face walk _crossings:
    crossing edge xy forces 3 - color[x] - color[y], the color neither has,
    onto its far third.  The walk reaches every face, so the
    result is proper; it is unique up to permuting the colors, so canonical.
    """
    color = {v: c for c, v in enumerate(t.faces[0])}
    for _, x, y, z, _ in _crossings(t):
        forced = 3 - color[x] - color[y]
        if color.setdefault(z, forced) != forced:
            raise NotBalanced(
                f"coloring contradiction at vertex {z + 1}: "
                f"needs {forced}, already {color[z]}"
            )
    return Coloring(color)


def _coloring(t: Triangulation, col: Coloring | None) -> Coloring:
    """col once is_proper accepts it on t, or t's own coloring when col is None.

    The one gate a supplied coloring passes: NotBalanced names the first
    vertex without a color in {0, 1, 2}, or else says an edge has one color
    twice.
    """
    if col is None:
        return find_coloring(t)
    if is_proper(t, col):
        return col
    bad = [v for v in t.vertices if v not in col or col[v] not in (0, 1, 2)]
    why = f"vertex {bad[0] + 1} has no color in {{0, 1, 2}}" if bad else (
        "an edge has one color twice"
    )
    raise NotBalanced(f"the coloring is not proper: {why}")
