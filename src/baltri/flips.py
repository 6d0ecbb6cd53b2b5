"""The eight local moves that preserve balancedness.

Every move exchanges one disk-shaped patch of faces for another patch with
the same boundary, keeps all vertex degrees even, and extends the proper
3-coloring without any choice: colors of created vertices are copied from a
designated existing vertex.  Applicability is therefore purely combinatorial
and enumerate_sites() never needs a coloring.

 kind    site tuple               vertex delta   patch exchanged
 ----    ----------               ------------   ---------------
 bts     (a,b,c)                  +3             face abc -> its 7-face triple subdivision
 btw     (p,q,r,a,b,c)            -3             inverse of bts; p,q,r interior, x paired
                                                 with the outer vertex it is NOT adjacent to
 bes     (a,b,c,d)                +2             edge ab (opposite corners c,d) -> double
                                                 subdivision with two new vertices
 bew     (p,q)                    -2             inverse of bes; p,q the two interior
                                                 degree-4 vertices
 ps      (v,w,x,y,z)              +1             fan w-x-y-z around v -> split v off a new
                                                 degree-4 vertex over the fan, chord wz
 pc      (u,w,x,y,z,v)            -1             inverse of ps; contract degree-4 u through
                                                 link edge wz into the far vertex v
 nflip   (v1..v6)                  0             re-chord a 4-face hexagon strip
 p2flip  (v1..v5,q,p)              0             slide the degree-4 pair q,p across the
                                                 pentagon v1..v5

FlipKind carries each kind's facts (arity, delta, inverse, rank).  Each
kind's rewrite rule also names the site of its own undo, in its own roles.

New vertices take ids above max_vertex_id in the listed order, so results
are reproducible and inverse_site() can name them before the move runs.

Site strings (CLI and file interchange) are 1-based: "ps:1,2,3,4,5" names
in-memory vertices 0..4.
"""

from __future__ import annotations

import enum
import functools
from bisect import insort
from dataclasses import dataclass
from typing import Callable

from .errors import (
    InvalidSite,
    NotBalanced,
    ParseError,
    WouldCreateDoubleEdge,
    WouldCreateDuplicateFace,
)
from .surface import Coloring, Face, Triangulation, _swap_faces, edge_key, face_key


class FlipKind(enum.Enum):
    """A move kind, valued by its site-string name.

    Each member also carries arity (site tuple length), delta (vertex count
    change), inverse (the kind that undoes it) and rank (definition order,
    which orders site lists).
    """

    BTS = "bts", 3, 3, "btw"
    BTW = "btw", 6, -3, "bts"
    BES = "bes", 4, 2, "bew"
    BEW = "bew", 2, -2, "bes"
    PS = "ps", 5, 1, "pc"
    PC = "pc", 6, -1, "ps"
    NFLIP = "nflip", 6, 0, "nflip"
    P2FLIP = "p2flip", 7, 0, "p2flip"

    def __new__(cls, value: str, arity: int, delta: int, inverse: str):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.arity = arity
        kind.delta = delta
        kind.rank = len(cls.__members__)
        kind._inverse = inverse
        return kind

    @property
    def inverse(self) -> "FlipKind":
        return FlipKind(self._inverse)


@dataclass(frozen=True)
class FlipSite:
    """A move kind with the vertex tuple it acts on."""

    kind: FlipKind
    vertices: tuple[int, ...]

    def __post_init__(self):
        want = self.kind.arity
        if len(self.vertices) != want:
            raise InvalidSite(
                f"{self.kind.value} site needs {want} vertices, "
                f"got {len(self.vertices)}"
            )

    def __lt__(self, other: "FlipSite") -> bool:
        if self.kind is other.kind:
            return self.vertices < other.vertices
        return self.kind.rank < other.kind.rank

    def __str__(self) -> str:
        return site_to_str(self)


def site_to_str(site: FlipSite) -> str:
    """1-based textual form, e.g. "bes:1,2,3,4"."""
    return site.kind.value + ":" + ",".join(str(v + 1) for v in site.vertices)


def site_from_str(text: str) -> FlipSite:
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"site {text!r} lacks a ':' separator")
    try:
        kind = FlipKind(head.strip().lower())
    except ValueError:
        raise ParseError(f"unknown move kind {head.strip()!r}") from None
    parts = [p.strip() for p in rest.split(",")] if rest.strip() else []
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"site {text!r} has a non-integer vertex") from None
    if len(nums) != kind.arity:
        raise ParseError(
            f"{kind.value} site needs {kind.arity} vertices, got {len(nums)}"
        )
    if any(n < 1 for n in nums):
        raise ParseError(f"site {text!r} has a vertex below 1 (sites are 1-based)")
    return FlipSite(kind, tuple(n - 1 for n in nums))


# -- precondition helpers ----------------------------------------------------

def _need_distinct(verts) -> None:
    if len(set(verts)) != len(verts):
        raise InvalidSite(f"site vertices {verts} are not distinct")


def _take(t: Triangulation, *faces: tuple[int, int, int]) -> list[Face]:
    """The keys of faces, each of which must be present, in the given order."""
    keys = []
    for a, b, c in faces:
        k = face_key(a, b, c)
        if k not in t._face_set:
            raise InvalidSite(f"missing face {{{a},{b},{c}}}")
        keys.append(k)
    return keys


def _need_no_edge(t: Triangulation, u: int, v: int) -> None:
    if t.has_edge(u, v):
        raise WouldCreateDoubleEdge(f"edge {{{u},{v}}} already present")


def _need_no_face(t: Triangulation, a: int, b: int, c: int) -> None:
    if t.has_face(a, b, c):
        raise WouldCreateDuplicateFace(f"face {{{a},{b},{c}}} already present")


def _need_degree(t: Triangulation, v: int, want: int) -> None:
    if v not in t._degrees:
        raise InvalidSite(f"no vertex {v}")
    if t.degree(v) != want:
        raise InvalidSite(f"vertex {v} has degree {t.degree(v)}, needs {want}")


# -- rewrite rules ------------------------------------------------------------
#
# Each _rw_* validates the site against t and returns
#   (faces to remove, vertices removed, build)
# where build() gives (faces to add, color sources, undo): color sources maps
# each created vertex id to the existing vertex whose color it copies, and
# undo is the vertex tuple of the kind.inverse site that takes the move back.
# Only apply_flip and inverse_site call build(); enumerate_sites needs just
# the checks.

_Rewrite = tuple[
    list[Face],
    tuple[int, ...],
    Callable[[], tuple[list[Face], dict[int, int], tuple[int, ...]]],
]


def _fan(w: int, x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """The fan w-x-y-z read from its smaller end."""
    return (z, y, x, w) if w > z else (w, x, y, z)


def _hexagon(h: tuple[int, ...]) -> tuple[int, ...]:
    """The hexagon strip h in the lesser of its two rotations by three."""
    return min(h, h[3:] + h[:3])


def _rw_bts(t: Triangulation, verts) -> _Rewrite:
    a, b, c = verts
    _need_distinct(verts)
    rem = _take(t, (a, b, c))
    m = t.max_vertex_id
    p, q, r = m + 1, m + 2, m + 3  # partners of a, b, c
    return rem, (), lambda: ([
        face_key(a, b, r), face_key(a, q, c), face_key(p, b, c),
        face_key(a, q, r), face_key(p, b, r), face_key(p, q, c),
        face_key(p, q, r),
    ], {p: a, q: b, r: c}, (p, q, r, a, b, c))


def _rw_btw(t: Triangulation, verts) -> _Rewrite:
    p, q, r, a, b, c = verts
    _need_distinct(verts)
    for v in (p, q, r):
        _need_degree(t, v, 4)
    rem = _take(
        t, (p, q, r), (a, b, r), (a, q, c), (p, b, c), (a, q, r), (p, b, r), (p, q, c)
    )
    _need_no_face(t, a, b, c)
    return rem, (p, q, r), lambda: ([face_key(a, b, c)], {}, face_key(a, b, c))


def _rw_bes(t: Triangulation, verts) -> _Rewrite:
    a, b, c, d = verts
    if c == d:
        raise InvalidSite("opposite corners coincide")
    rem = _take(t, (a, b, c), (a, b, d))
    m = t.max_vertex_id
    p, q = m + 1, m + 2  # partners of a, b
    return rem, (), lambda: ([
        face_key(a, q, c), face_key(p, b, c), face_key(a, q, d),
        face_key(p, b, d), face_key(p, q, c), face_key(p, q, d),
    ], {p: a, q: b}, (p, q))


def bew_patch(t: Triangulation, p: int, q: int) -> tuple[int, int, int, int]:
    """Recover (a, b, c, d) of the double-subdivision patch from its pair.

    a is the neighbor of q outside the patch interior, b the one of p, and
    c < d are the two shared wing vertices.  Raises InvalidSite when p, q do
    not sit inside such a patch.
    """
    _need_degree(t, p, 4)
    _need_degree(t, q, 4)
    if not t.has_edge(p, q):
        raise InvalidSite(f"vertices {p} and {q} are not adjacent")
    common = t.neighbors(p) & t.neighbors(q)
    if len(common) != 2:
        raise InvalidSite(
            f"vertices {p} and {q} share {len(common)} neighbors, need 2"
        )
    c, d = sorted(common)
    rest_q = t.neighbors(q) - {p, c, d}
    rest_p = t.neighbors(p) - {q, c, d}
    if len(rest_q) != 1 or len(rest_p) != 1:
        raise InvalidSite(f"vertices {p} and {q} do not bound a double subdivision")
    (a,) = rest_q
    (b,) = rest_p
    return a, b, c, d


def _rw_bew(t: Triangulation, verts) -> _Rewrite:
    p, q = verts
    if p == q:
        raise InvalidSite("site vertices coincide")
    a, b, c, d = bew_patch(t, p, q)
    if a == b:
        raise InvalidSite("patch closes up on itself")
    _need_no_edge(t, a, b)
    rem = _take(t, (p, b, c), (p, b, d), (p, q, c), (p, q, d), (q, a, c), (q, a, d))
    return rem, (p, q), lambda: (
        [face_key(a, b, c), face_key(a, b, d)], {}, (*edge_key(a, b), c, d)
    )


def _rw_ps(t: Triangulation, verts) -> _Rewrite:
    v, w, x, y, z = verts
    _need_distinct((w, x, y, z))
    rem = _take(t, (v, w, x), (v, x, y), (v, y, z))
    _need_no_edge(t, w, z)
    n = t.max_vertex_id + 1
    return rem, (), lambda: ([
        face_key(v, w, z), face_key(n, w, x), face_key(n, x, y),
        face_key(n, y, z), face_key(n, w, z),
    ], {n: v}, (n, *_fan(w, x, y, z), v))


def _rw_pc(t: Triangulation, verts) -> _Rewrite:
    u, w, x, y, z, v = verts
    _need_distinct(verts)
    _need_degree(t, u, 4)
    rem = _take(t, (u, w, x), (u, x, y), (u, y, z), (u, w, z), (v, w, z))
    _need_no_edge(t, v, x)
    _need_no_edge(t, v, y)
    return rem, (u,), lambda: (
        [face_key(v, w, x), face_key(v, x, y), face_key(v, y, z)], {},
        (v, *_fan(w, x, y, z)),
    )


def _rw_nflip(t: Triangulation, verts) -> _Rewrite:
    v1, v2, v3, v4, v5, v6 = verts
    _need_distinct(verts)
    rem = _take(t, (v1, v2, v3), (v1, v3, v4), (v1, v4, v6), (v4, v5, v6))
    _need_no_edge(t, v2, v6)
    _need_no_edge(t, v2, v5)
    _need_no_edge(t, v3, v5)
    return rem, (), lambda: ([
        face_key(v1, v2, v6), face_key(v2, v5, v6),
        face_key(v2, v3, v5), face_key(v3, v4, v5),
    ], {}, _hexagon((v2, v1, v6, v5, v4, v3)))


def _rw_p2flip(t: Triangulation, verts) -> _Rewrite:
    v1, v2, v3, v4, v5, q, p = verts
    _need_distinct(verts)
    _need_degree(t, q, 4)
    _need_degree(t, p, 4)
    rem = _take(
        t, (v1, v2, v3), (v1, v3, q), (q, v3, p), (p, v3, v4),
        (p, v4, v5), (q, p, v5), (v1, q, v5),
    )
    _need_no_edge(t, v1, v4)
    m = t.max_vertex_id
    q2, p2 = m + 1, m + 2  # q2 takes v3's color, p2 takes v1's
    return rem, (q, p), lambda: ([
        face_key(v1, v2, q2), face_key(v2, p2, q2), face_key(v2, v3, p2),
        face_key(p2, v3, v4), face_key(q2, p2, v4), face_key(v1, q2, v4),
        face_key(v1, v4, v5),
    ], {q2: v3, p2: v1}, (v1, v5, v4, v3, v2, q2, p2))


_REWRITES = {
    FlipKind.BTS: _rw_bts,
    FlipKind.BTW: _rw_btw,
    FlipKind.BES: _rw_bes,
    FlipKind.BEW: _rw_bew,
    FlipKind.PS: _rw_ps,
    FlipKind.PC: _rw_pc,
    FlipKind.NFLIP: _rw_nflip,
    FlipKind.P2FLIP: _rw_p2flip,
}


def apply_flip(
    t: Triangulation,
    site: FlipSite,
    col: Coloring | None = None,
) -> tuple[Triangulation, Coloring | None]:
    """Apply one move, returning the new triangulation (and coloring).

    Raises InvalidSite (or a subclass) when a precondition fails; in that
    case nothing is modified.  The input tuple may be any orientation the
    rewrite rule accepts, it is not required to be in enumerate_sites()'s
    normalized form.  Only the stars of the vertices on the exchanged faces
    are re-indexed and re-checked; every other index entry carries over.
    col is carried along unchecked, as moves keep a proper coloring proper;
    NotBalanced means it lacks a vertex the move copies a color from or removes.
    """
    rem, gone, build = _REWRITES[site.kind](t, site.vertices)
    add, color_src, _ = build()
    rem = t._face_set.intersection(rem)
    new: set[Face] = set()
    for f in add:
        # the precondition checks should rule this out
        if f in new or (f in t._face_set and f not in rem):
            raise WouldCreateDuplicateFace(f"face {f} already exists")
        new.add(f)
    t2 = _swap_faces(t, rem, add)
    if col is None:
        return t2, None
    try:
        added = {v: col[src] for v, src in color_src.items()}
        return t2, col.updated(added, removed=gone)
    except KeyError as exc:
        raise NotBalanced(f"vertex {exc.args[0]} has no color") from None


def inverse_site(t: Triangulation, site: FlipSite) -> FlipSite:
    """The site that undoes `site`, named before the move is applied.

    Takes the triangulation the move is *about to* act on, because the
    undo site refers both to surviving vertices and to the ids the move
    will create.  Applying site and then the returned site restores a
    triangulation isomorphic to t (identical to t except that moves whose
    undo re-creates vertices use fresh ids for them).
    """
    _, _, build = _REWRITES[site.kind](t, site.vertices)
    return FlipSite(site.kind.inverse, build()[2])


def site_footprint(t: Triangulation, site: FlipSite) -> frozenset[int]:
    """Existing vertices whose star the move changes.

    Covers the site tuple plus, for the double-subdivision inverse, the four
    patch-boundary vertices its two-vertex site leaves implicit.
    """
    _REWRITES[site.kind](t, site.vertices)
    return frozenset(_footprint(t, site))


def _footprint(t: Triangulation, site: FlipSite) -> tuple[int, ...]:
    """The vertices of site_footprint, for a site that applies to t."""
    if site.kind is FlipKind.BEW:
        return site.vertices + bew_patch(t, *site.vertices)
    return site.vertices


# -- site enumeration ---------------------------------------------------------
#
# Each _candidates_* reads candidate tuples off the given faces, edges or
# vertices of t, one element at a time; _scan keeps those the rule accepts.

def _candidates_bts(t: Triangulation, faces):
    yield from faces


def _candidates_btw(t: Triangulation, faces):
    deg = t._degrees
    for f in faces:
        p, q, r = f
        if deg[p] != 4 or deg[q] != 4 or deg[r] != 4:
            continue
        outer = (t.neighbors(p) | t.neighbors(q) | t.neighbors(r)) - {p, q, r}
        if len(outer) != 3:
            continue
        partners = []
        for interior in (p, q, r):
            away = outer - t.neighbors(interior)
            if len(away) != 1:
                break
            partners.append(next(iter(away)))
        else:
            yield (p, q, r, *partners)


def _candidates_bes(t: Triangulation, edges):
    for a, b in edges:
        c, d = t.edge_opposites(a, b)
        yield (a, b, c, d)


def _candidates_bew(t: Triangulation, edges):
    deg = t._degrees
    for p, q in edges:
        if deg[p] == 4 and deg[q] == 4:
            yield (p, q)


def _candidates_ps(t: Triangulation, vertices):
    for v in vertices:
        link = t.link_cycle(v)
        if len(link) < 4:
            continue
        for i in range(len(link)):
            yield (v, *_fan(link[i - 3], link[i - 2], link[i - 1], link[i]))


def _candidates_pc(t: Triangulation, vertices):
    for u in vertices:
        if t.degree(u) != 4:
            continue
        link = t.link_cycle(u)
        for i in range(4):
            w, x, y, z = _fan(link[i], link[i - 1], link[i - 2], link[i - 3])
            v = t.other_face_third(w, z, u)
            yield (u, w, x, y, z, v)


def _candidates_nflip(t: Triangulation, edges):
    for e1, e2 in edges:
        thirds = t.edge_opposites(e1, e2)
        for v1, v4 in ((e1, e2), (e2, e1)):
            for v3 in thirds:
                v6 = thirds[0] if v3 == thirds[1] else thirds[1]
                v2 = t.other_face_third(v1, v3, v4)
                v5 = t.other_face_third(v4, v6, v1)
                yield _hexagon((v1, v2, v3, v4, v5, v6))


def _candidates_p2flip(t: Triangulation, edges):
    deg = t._degrees
    for e1, e2 in edges:
        if deg[e1] != 4 or deg[e2] != 4:
            continue
        thirds = t.edge_opposites(e1, e2)
        for q, p in ((e1, e2), (e2, e1)):
            for v3 in thirds:
                v5 = thirds[0] if v3 == thirds[1] else thirds[1]
                rest_q = t.neighbors(q) - {v3, p, v5}
                rest_p = t.neighbors(p) - {q, v3, v5}
                if len(rest_q) != 1 or len(rest_p) != 1:
                    continue
                (v1,) = rest_q
                (v4,) = rest_p
                if not t.has_face(v1, v3, q):
                    continue
                v2 = t.other_face_third(v1, v3, q)
                yield (v1, v2, v3, v4, v5, q, p)


# kind -> (candidate reader, the elements it reads, radius): every vertex of
# a site's footprint lies within radius edges of a corner of the element
# its tuple is read off.
_CANDIDATES = {
    FlipKind.BTS: (_candidates_bts, "faces", 0),
    FlipKind.BTW: (_candidates_btw, "faces", 1),
    FlipKind.BES: (_candidates_bes, "edges", 1),
    FlipKind.BEW: (_candidates_bew, "edges", 1),
    FlipKind.PS: (_candidates_ps, "vertices", 1),
    FlipKind.PC: (_candidates_pc, "vertices", 2),
    FlipKind.NFLIP: (_candidates_nflip, "edges", 1),
    FlipKind.P2FLIP: (_candidates_p2flip, "edges", 2),
}


# kind -> the normal form its candidate reader emits a site tuple in
_NORMAL_FORMS = {
    FlipKind.BTS: lambda v: face_key(*v),
    # interior triple sorted, each partner kept in step with its vertex
    FlipKind.BTW: lambda v: sum(zip(*sorted(zip(v[:3], v[3:]))), ()),
    FlipKind.BES: lambda v: (*edge_key(v[0], v[1]), *sorted(v[2:])),
    FlipKind.BEW: lambda v: edge_key(*v),
    FlipKind.PS: lambda v: (v[0], *_fan(*v[1:])),
    FlipKind.PC: lambda v: (v[0], *_fan(*v[1:5]), v[5]),
    FlipKind.NFLIP: _hexagon,
    FlipKind.P2FLIP: lambda v: v,
}


def _map_site(site: FlipSite, sigma) -> FlipSite:
    """The image of site under the vertex map sigma, in enumerate_sites' form."""
    image = tuple([sigma[v] for v in site.vertices])
    return FlipSite(site.kind, _NORMAL_FORMS[site.kind](image))


def _scan(t: Triangulation, kinds, source) -> list[FlipSite]:
    """The sites the rules accept among the candidates read off source.

    source(elements, radius) gives the faces, edges or vertices of t to read
    each kind's candidates off.
    """
    if kinds is None:
        want = tuple(FlipKind)
    else:
        want = tuple(sorted(set(kinds), key=lambda kind: kind.rank))
    out: list[FlipSite] = []
    for kind in want:
        candidates, elements, radius = _CANDIDATES[kind]
        rewrite = _REWRITES[kind]
        seen: set[tuple[int, ...]] = set()
        found = []
        for tup in candidates(t, source(elements, radius)):
            if tup in seen:
                continue
            seen.add(tup)
            try:
                rewrite(t, tup)
            except InvalidSite:
                continue
            found.append(tup)
        out.extend(FlipSite(kind, tup) for tup in sorted(found))
    return out


def enumerate_sites(t: Triangulation, kinds=None) -> list[FlipSite]:
    """All applicable sites, normalized, sorted by (kind, vertex tuple).

    A site is listed exactly once per distinct rewrite it denotes; symmetric
    orientations of the same rewrite are collapsed to a normal form (least
    fan end for the splitting moves, least rotation for the hexagon move).
    """
    return _scan(t, kinds, lambda elements, radius: getattr(t, elements))


def _sites_after(
    old: Triangulation, new: Triangulation, sites: list[FlipSite], kinds
) -> list[FlipSite]:
    """enumerate_sites(new, kinds), where new is old after one move and
    sites is enumerate_sites(old, kinds).

    Whether a site applies depends only on the stars of its footprint, and
    the move changed only the stars of the vertices on its faces.  So the
    old sites whose footprint misses those vertices still apply, and every
    other site is read off the elements within its kind's radius of them.
    """
    touched = {v for f in old._face_set ^ new._face_set for v in f}
    rings = [touched.intersection(new._degrees)]
    for _ in range(2):
        rings.append(rings[-1].union(*(new.neighbors(v) for v in rings[-1])))

    @functools.cache
    def near(elements: str, radius: int):
        ring = rings[radius]
        if elements == "vertices":
            return ring
        if elements == "edges":
            return {edge_key(v, w) for v in ring for w in new.neighbors(v)}
        faces = set()
        for v in ring:
            link = new.link_cycle(v)
            faces.update(face_key(v, link[i - 1], link[i]) for i in range(len(link)))
        return faces

    out = [s for s in sites if touched.isdisjoint(_footprint(old, s))]
    for site in _scan(new, kinds, near):
        if not touched.isdisjoint(_footprint(new, site)):
            insort(out, site)
    return out
