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

Calls that check a supplied coloring do so in one gate, _coloring(): it
raises NotBalanced unless is_proper() accepts the coloring, and finds one
with find_coloring() when none is supplied.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

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
    """A triangulation of a closed surface, immutable after construction."""

    __slots__ = (
        "faces",
        "vertices",
        "edges",
        "_face_set",
        "_edge_faces",
        "_adjacency",
        "_links",
        "_degrees",
        "_hash",
        "_orientable",
    )

    def __init__(self, faces, vertices, edges, edge_faces, adjacency, links, degrees):
        # Internal constructor; use validate().
        self.faces: tuple[Face, ...] = faces
        self.vertices: tuple[int, ...] = vertices
        self.edges: tuple[Edge, ...] = edges
        self._face_set: frozenset[Face] = frozenset(faces)
        self._edge_faces: dict[Edge, tuple[Face, Face]] = edge_faces
        self._adjacency: dict[int, frozenset[int]] = adjacency
        self._links: dict[int, tuple[int, ...]] = links
        self._degrees: dict[int, int] = degrees
        self._hash = hash(self.faces)
        self._orientable: bool | None = None

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Triangulation):
            return self.faces == other.faces
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"Triangulation(V={len(self.vertices)}, E={len(self.edges)}, "
            f"F={len(self.faces)})"
        )

    # -- basic queries ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def max_vertex_id(self) -> int:
        return self.vertices[-1]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edge_faces

    def has_face(self, a: int, b: int, c: int) -> bool:
        return face_key(a, b, c) in self._face_set

    def edge_opposites(self, u: int, v: int) -> tuple[int, int]:
        """The two vertices completing the faces on edge uv, sorted."""
        f, g = self._edge_faces[edge_key(u, v)]
        a = f[0] + f[1] + f[2] - u - v
        b = g[0] + g[1] + g[2] - u - v
        return (a, b) if a < b else (b, a)

    def other_face_third(self, u: int, v: int, w: int) -> int:
        """Third vertex of the face on edge uv other than face uvw."""
        f, g = self._edge_faces[edge_key(u, v)]
        other = g if w in f else f
        return other[0] + other[1] + other[2] - u - v

    def link_cycle(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in cyclic order, canonically rotated.

        Starts at the smallest neighbor and proceeds toward the smaller of
        its two link-neighbors, so equal links compare equal.
        """
        return self._links[v]

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)


def _link_graphs(faces, vertices) -> dict[int, dict[int, list[int]]]:
    """Each vertex's link graph as adjacency lists.

    Each face contributes, to each of its corners, the link edge between the
    other two; vertices must hold every corner of faces.
    """
    link_adj: dict[int, dict[int, list[int]]] = {v: {} for v in vertices}
    for a, b, c in faces:
        link_adj[a].setdefault(b, []).append(c)
        link_adj[a].setdefault(c, []).append(b)
        link_adj[b].setdefault(a, []).append(c)
        link_adj[b].setdefault(c, []).append(a)
        link_adj[c].setdefault(a, []).append(b)
        link_adj[c].setdefault(b, []).append(a)
    return link_adj


def _link_cycle(v: int, around: dict[int, list[int]]) -> tuple[int, ...]:
    """The link of v as Triangulation.link_cycle gives it, or PinchedVertex.

    around maps each neighbor of v to the link neighbors it has, one per
    face on that edge.
    """
    # 2-regularity of the link graph is already implied by the edge check,
    # but a short guard keeps failure modes separate.
    for w, nbrs in around.items():
        if len(nbrs) != 2:
            raise PinchedVertex(f"link of vertex {v} is not 2-regular at {w}")
    start = min(around)
    prev, cur = start, min(around[start])
    cycle = [start]
    while cur != start:
        cycle.append(cur)
        x, y = around[cur]
        prev, cur = cur, (y if x == prev else x)
    if len(cycle) != len(around):
        raise PinchedVertex(f"link of vertex {v} splits into more than one cycle")
    if len(cycle) < 3:
        raise PinchedVertex(f"link of vertex {v} is shorter than 3")
    return tuple(cycle)


def validate(face_list: Iterable[Sequence[int]]) -> Triangulation:
    """Check that a face list describes a closed surface and index it.

    Raises DegenerateFace, DuplicateFace, NonManifoldEdge, PinchedVertex,
    Disconnected or ImpossibleSurface; on success returns the Triangulation
    with all derived structure (edges, links, adjacency) computed.
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
            raise DegenerateFace(f"face {t!r} repeats a vertex")
        k = face_key(a, b, c)
        if k in seen:
            raise DuplicateFace(f"face {{{k[0]},{k[1]},{k[2]}}} appears twice")
        seen.add(k)
        faces.append(k)
    if not faces:
        raise DegenerateFace("empty face list")
    faces.sort()

    # Every edge must lie in exactly two faces.
    edge_faces: dict[Edge, list[Face]] = {}
    for f in faces:
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            edge_faces.setdefault(e, []).append(f)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise NonManifoldEdge(
                f"edge {{{e[0]},{e[1]}}} lies in {len(fs)} face(s), expected 2"
            )

    vertices = tuple(sorted({v for f in faces for v in f}))

    # Link of every vertex must be a single cycle.  Each incident face
    # contributes one link edge between the other two corners; with every
    # edge in exactly two faces the link graph is 2-regular, so it is a
    # single cycle iff it is connected.
    link_adj = _link_graphs(faces, vertices)
    links = {v: _link_cycle(v, link_adj[v]) for v in vertices}
    degrees = {v: len(link) for v, link in links.items()}

    # Face-adjacency graph must be connected (one surface at a time).
    seen_faces = {faces[0]}
    queue = deque([faces[0]])
    while queue:
        a, b, c = queue.popleft()
        for e in ((a, b), (a, c), (b, c)):
            for g in edge_faces[e]:
                if g not in seen_faces:
                    seen_faces.add(g)
                    queue.append(g)
    if len(seen_faces) != len(faces):
        raise Disconnected(
            f"face-adjacency graph has {len(faces) - len(seen_faces)} unreachable face(s)"
        )

    adjacency = {v: frozenset(link_adj[v]) for v in vertices}
    edges = tuple(sorted(edge_faces))
    ef = {e: (fs[0], fs[1]) for e, fs in edge_faces.items()}
    t = Triangulation(tuple(faces), vertices, edges, ef, adjacency, links, degrees)

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
    edges and vertex links the swap touches are checked as validate() checks
    them (NonManifoldEdge, PinchedVertex), and a changed Euler
    characteristic raises ImpossibleSurface.  rem must be faces of t, and
    add must not repeat a face of t that stays.
    """
    touched = sorted({v for f in (*rem, *add) for v in f})
    star: set[Face] = set()
    for v in touched:
        link = t._links.get(v, ())
        star.update(face_key(v, link[i - 1], link[i]) for i in range(len(link)))
    star = star.difference(rem).union(add)
    link_adj = _link_graphs(star, {v for f in star for v in f})

    edge_faces = dict(t._edge_faces)
    dropped: list[Edge] = []
    created: list[Edge] = []
    for e in sorted({e for a, b, c in (*rem, *add) for e in ((a, b), (a, c), (b, c))}):
        thirds = link_adj.get(e[0], {}).get(e[1], ())
        if not thirds:
            del edge_faces[e]
            dropped.append(e)
            continue
        if len(thirds) != 2:
            raise NonManifoldEdge(
                f"edge {{{e[0]},{e[1]}}} lies in {len(thirds)} face(s), expected 2"
            )
        if e not in edge_faces:
            created.append(e)
        f, g = sorted(face_key(*e, x) for x in thirds)
        edge_faces[e] = (f, g)

    adjacency, links, degrees = dict(t._adjacency), dict(t._links), dict(t._degrees)
    lost: list[int] = []
    born: list[int] = []
    for v in touched:
        around = link_adj.get(v)
        if not around:
            lost.append(v)
            del adjacency[v], links[v], degrees[v]
            continue
        if v not in links:
            born.append(v)
        adjacency[v] = frozenset(around)
        links[v] = _link_cycle(v, around)
        degrees[v] = len(links[v])

    t2 = Triangulation(
        _resorted(t.faces, rem, add),
        _resorted(t.vertices, lost, born),
        _resorted(t.edges, dropped, created),
        edge_faces, adjacency, links, degrees,
    )
    chi = t.euler_characteristic()
    if t2.euler_characteristic() != chi:
        raise ImpossibleSurface(
            f"swapping {len(rem)} faces for {len(add)} changes the Euler "
            f"characteristic from {chi} to {t2.euler_characteristic()}"
        )
    t2._orientable = t._orientable
    return t2


def _resorted(items: tuple, drop, put) -> tuple:
    """The sorted tuple items without drop and with put."""
    out = list(items)
    for x in drop:
        del out[bisect_left(out, x)]
    for x in put:
        insort(out, x)
    return tuple(out)


def is_orientable(t: Triangulation) -> bool:
    """Whether the faces admit globally consistent orientations.

    Orients one face arbitrarily and propagates: across each edge the two
    incident faces must traverse it in opposite directions.  A conflict
    anywhere means the surface is non-orientable.
    """
    if t._orientable is not None:
        return t._orientable
    orientation: dict[Face, tuple[int, int, int]] = {}
    first = t.faces[0]
    orientation[first] = first
    queue = deque([first])
    ok = True
    while queue and ok:
        f = queue.popleft()
        a, b, c = orientation[f]
        for x, y in ((a, b), (b, c), (c, a)):
            g1, g2 = t._edge_faces[edge_key(x, y)]
            g = g2 if g1 == f else g1
            z = next(w for w in g if w != x and w != y)
            want = (y, x, z)
            if g in orientation:
                got = orientation[g]
                # Same cyclic orientation?
                r = got.index(y)
                rotated = (got[r], got[(r + 1) % 3], got[(r + 2) % 3])
                if rotated != want:
                    ok = False
                    break
            else:
                orientation[g] = want
                queue.append(g)
    t._orientable = ok
    return ok


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
    for v in t.vertices:
        if v not in col or col[v] not in (0, 1, 2):
            return False
    return all(col[u] != col[v] for u, v in t.edges)


def find_coloring(t: Triangulation) -> Coloring:
    """Find the proper 3-coloring, or raise NotBalanced.

    Seeds the lexicographically least face with colors (0, 1, 2) in
    ascending vertex order and propagates across face adjacencies; the third
    vertex of each neighboring face is forced.  On a connected triangulation
    the coloring is unique up to permuting the three colors, so this is
    canonical given the face set.
    """
    color: dict[int, int] = {}
    first = t.faces[0]
    for c, v in enumerate(first):
        color[v] = c
    queue = deque([first])
    handled = {first}
    while queue:
        f = queue.popleft()
        a, b, c = f
        for x, y in ((a, b), (a, c), (b, c)):
            g1, g2 = t._edge_faces[(x, y)]
            g = g2 if g1 == f else g1
            z = next(w for w in g if w != x and w != y)
            forced = 3 - color[x] - color[y]
            if z in color:
                if color[z] != forced:
                    raise NotBalanced(
                        f"coloring contradiction at vertex {z}: "
                        f"needs {forced}, already {color[z]}"
                    )
            else:
                color[z] = forced
            if g not in handled:
                handled.add(g)
                queue.append(g)
    col = Coloring(color)
    if not is_proper(t, col):
        raise NotBalanced("propagated coloring is not proper")
    return col


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
    why = f"vertex {bad[0]} has no color in {{0, 1, 2}}" if bad else (
        "an edge has one color twice"
    )
    raise NotBalanced(f"the coloring is not proper: {why}")
