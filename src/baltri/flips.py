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
A FlipSite is the plain tuple (kind, vertices) with named fields, equal to it
and hashed as it, so site order is tuple order with kinds ordered by rank.

New vertices take ids above max_vertex_id in the listed order, so results
are reproducible and inverse_site() can name them before the move runs.

Site strings (CLI and file interchange) are 1-based: "ps:1,2,3,4,5" names
in-memory vertices 0..4.
"""

from __future__ import annotations

import enum
import functools
from bisect import insort
from collections import namedtuple

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

    __hash__ = object.__hash__  # identity, as equality is: C-level, unlike Enum's

    def __new__(cls, value: str, arity: int, delta: int, inverse: str):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.arity = arity
        kind.delta = delta
        kind.rank = len(cls.__members__)
        kind.inverse = inverse  # the value until the class exists, then the kind
        return kind

    def __lt__(self, other: "FlipKind") -> bool:
        return self.rank < other.rank


for _kind in FlipKind:
    _kind.inverse = FlipKind(_kind.inverse)


class FlipSite(namedtuple("FlipSite", "kind vertices")):
    """A move kind with the vertex tuple it acts on: the tuple (kind, vertices).

    Raises InvalidSite unless vertices is a sequence of kind.arity ints; the
    site readers and maps build through tuple.__new__, past these checks.
    """

    __slots__ = ()

    def __new__(cls, kind: FlipKind, vertices):
        try:
            vertices = tuple(vertices)
        except TypeError:
            raise InvalidSite(f"{kind.value} site vertices must be a sequence") from None
        if len(vertices) != kind.arity:
            raise InvalidSite(
                f"{kind.value} site needs {kind.arity} vertices, got {len(vertices)}"
            )
        if not all(isinstance(v, int) for v in vertices):
            raise InvalidSite(f"{kind.value} site vertices {vertices} are not all ints")
        return tuple.__new__(cls, (kind, vertices))

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
        if k not in t._edge_faces.get(k[:2], ()):
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
    link = t._links.get(v)
    if link is None:
        raise InvalidSite(f"no vertex {v}")
    if len(link) != want:
        raise InvalidSite(f"vertex {v} has degree {len(link)}, needs {want}")


# -- rewrite rules ------------------------------------------------------------
#
# Each _rw_* validates the site against t and returns
#   (faces to remove, vertices removed, faces to add, color sources, undo)
# where color sources maps each created vertex id to the existing vertex whose
# color it copies, and undo is the vertex tuple of the kind.inverse site that
# takes the move back.
# The rules are the one checker of a supplied site: apply_flip, inverse_site
# and site_footprint run them (and rewrites._checked).  enumerate_sites runs
# none, as its readers list only sites the rules accept.


def _fan(w: int, x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """The fan w-x-y-z read from its smaller end."""
    return (z, y, x, w) if w > z else (w, x, y, z)


def _hexagon(h: tuple[int, ...]) -> tuple[int, ...]:
    """The hexagon strip h in the lesser of its two rotations by three."""
    return min(h, h[3:] + h[:3])


def _rw_bts(t: Triangulation, verts):
    a, b, c = verts
    _need_distinct(verts)
    rem = _take(t, (a, b, c))
    m = t.max_vertex_id
    p, q, r = m + 1, m + 2, m + 3  # partners of a, b, c
    return rem, (), [
        face_key(a, b, r), face_key(a, q, c), face_key(p, b, c),
        face_key(a, q, r), face_key(p, b, r), face_key(p, q, c),
        face_key(p, q, r),
    ], {p: a, q: b, r: c}, (p, q, r, a, b, c)


def _rw_btw(t: Triangulation, verts):
    p, q, r, a, b, c = verts
    _need_distinct(verts)
    for v in (p, q, r):
        _need_degree(t, v, 4)
    rem = _take(
        t, (p, q, r), (a, b, r), (a, q, c), (p, b, c), (a, q, r), (p, b, r), (p, q, c)
    )
    _need_no_face(t, a, b, c)
    return rem, (p, q, r), [face_key(a, b, c)], {}, face_key(a, b, c)


def _rw_bes(t: Triangulation, verts):
    a, b, c, d = verts
    if c == d:
        raise InvalidSite("opposite corners coincide")
    rem = _take(t, (a, b, c), (a, b, d))
    m = t.max_vertex_id
    p, q = m + 1, m + 2  # partners of a, b
    return rem, (), [
        face_key(a, q, c), face_key(p, b, c), face_key(a, q, d),
        face_key(p, b, d), face_key(p, q, c), face_key(p, q, d),
    ], {p: a, q: b}, (p, q)


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


def _rw_bew(t: Triangulation, verts):
    p, q = verts
    if p == q:
        raise InvalidSite("site vertices coincide")
    a, b, c, d = bew_patch(t, p, q)
    if a == b:
        raise InvalidSite("patch closes up on itself")
    _need_no_edge(t, a, b)
    rem = _take(t, (p, b, c), (p, b, d), (p, q, c), (p, q, d), (q, a, c), (q, a, d))
    add = [face_key(a, b, c), face_key(a, b, d)]
    return rem, (p, q), add, {}, (*edge_key(a, b), c, d)


def _rw_ps(t: Triangulation, verts):
    v, w, x, y, z = verts
    _need_distinct((w, x, y, z))
    rem = _take(t, (v, w, x), (v, x, y), (v, y, z))
    _need_no_edge(t, w, z)
    n = t.max_vertex_id + 1
    return rem, (), [
        face_key(v, w, z), face_key(n, w, x), face_key(n, x, y),
        face_key(n, y, z), face_key(n, w, z),
    ], {n: v}, (n, *_fan(w, x, y, z), v)


def _rw_pc(t: Triangulation, verts):
    u, w, x, y, z, v = verts
    _need_distinct(verts)
    _need_degree(t, u, 4)
    rem = _take(t, (u, w, x), (u, x, y), (u, y, z), (u, w, z), (v, w, z))
    _need_no_edge(t, v, x)
    _need_no_edge(t, v, y)
    add = [face_key(v, w, x), face_key(v, x, y), face_key(v, y, z)]
    return rem, (u,), add, {}, (v, *_fan(w, x, y, z))


def _rw_nflip(t: Triangulation, verts):
    v1, v2, v3, v4, v5, v6 = verts
    _need_distinct(verts)
    rem = _take(t, (v1, v2, v3), (v1, v3, v4), (v1, v4, v6), (v4, v5, v6))
    _need_no_edge(t, v2, v6)
    _need_no_edge(t, v2, v5)
    _need_no_edge(t, v3, v5)
    return rem, (), [
        face_key(v1, v2, v6), face_key(v2, v5, v6),
        face_key(v2, v3, v5), face_key(v3, v4, v5),
    ], {}, _hexagon((v2, v1, v6, v5, v4, v3))


def _rw_p2flip(t: Triangulation, verts):
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
    return rem, (q, p), [
        face_key(v1, v2, q2), face_key(v2, p2, q2), face_key(v2, v3, p2),
        face_key(p2, v3, v4), face_key(q2, p2, v4), face_key(v1, q2, v4),
        face_key(v1, v4, v5),
    ], {q2: v3, p2: v1}, (v1, v5, v4, v3, v2, q2, p2)


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
    rem, gone, add, color_src, _ = _REWRITES[site.kind](t, site.vertices)
    rem = set(rem)
    new: set[Face] = set()
    for f in add:
        # the precondition checks should rule this out
        if f in new or (f not in rem and t.has_face(*f)):
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
    undo = _REWRITES[site.kind](t, site.vertices)[4]
    return tuple.__new__(FlipSite, (site.kind.inverse, undo))


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
# Each _sites_* reads the sites of its kind off the given faces, edges or
# vertices of t, one element at a time, in the kind's normal form.  Reading a
# tuple off t puts most of its rule's faces in place (its comment says which
# checks hold so), and it checks only the rest, inline, calling no rule.
# tests/oracles.py keeps the scan that runs the rule on every candidate.

def _sites_bts(t: Triangulation, faces):
    # all hold: a face of t has distinct corners
    yield from faces


def _sites_btw(t: Triangulation, faces):
    # with degree-4 links q r b c, r p c a, q p b a of p, q, r, where a, b, c lie
    # beyond qr, pr, pq: the seven faces and six distinct vertices hold
    links, edge_faces, third = t._links, t._edge_faces, t.other_face_third
    for p, q, r in faces:
        if len(links[p]) != 4 or len(links[q]) != 4 or len(links[r]) != 4:
            continue
        a, b, c = third(q, r, p), third(p, r, q), third(p, q, r)
        k = face_key(a, b, c)
        if k not in edge_faces.get(k[:2], ()):
            yield (p, q, r, a, b, c)


def _sites_bes(t: Triangulation, edges):
    # all hold: the two faces on an edge have distinct thirds
    for a, b in edges:
        yield (a, b, *t.edge_opposites(a, b))


def _sites_bew(t: Triangulation, edges):
    # with degree-4 links q c b d of p and p c a d of q, c and d the thirds of
    # pq: the patch and its six faces hold
    links, edge_faces = t._links, t._edge_faces
    for p, q in edges:
        lp, lq = links[p], links[q]
        if len(lp) != 4 or len(lq) != 4:
            continue
        a, b = lq[lq.index(p) - 2], lp[lp.index(q) - 2]
        if a != b and edge_key(a, b) not in edge_faces:
            yield (p, q)


def _sites_ps(t: Triangulation, vertices):
    # a link window w x y z: the three fan faces hold, and w, x, y, z are
    # distinct in a link of five or more (in a link of four, wz is an edge)
    links, edge_faces = t._links, t._edge_faces
    for v in vertices:
        link = links[v]
        if len(link) < 5:
            continue
        for i in range(len(link)):
            w, z = link[i - 3], link[i]
            if edge_key(w, z) not in edge_faces:
                yield (v, *_fan(w, link[i - 2], link[i - 1], z))


def _sites_pc(t: Triangulation, vertices):
    # a degree-4 link w x y z and v beyond wz: the five faces hold, and the
    # six vertices are distinct once vx and vy are missing (v = x or y would
    # make one of them a link edge of u)
    links, edge_faces = t._links, t._edge_faces
    for u in vertices:
        link = links[u]
        if len(link) != 4:
            continue
        for i in range(4):
            w, x, y, z = _fan(link[i], link[i - 1], link[i - 2], link[i - 3])
            v = t.other_face_third(w, z, u)
            if edge_key(v, x) not in edge_faces and edge_key(v, y) not in edge_faces:
                yield (u, w, x, y, z, v)


def _sites_nflip(t: Triangulation, edges):
    # the faces on v1v4 and beyond v1v3 and v4v6: the four faces hold, and the
    # six vertices are distinct once the chords are missing (v2 = v5, v2 = v6
    # or v3 = v5 would make v3v5 or v2v5 an edge); from v4 first, the same
    # strips come rotated by three
    edge_faces, third = t._edge_faces, t.other_face_third
    for v1, v4 in edges:
        thirds = t.edge_opposites(v1, v4)
        for v3, v6 in (thirds, thirds[::-1]):
            v2 = third(v1, v3, v4)
            v5 = third(v4, v6, v1)
            if (
                edge_key(v2, v6) not in edge_faces
                and edge_key(v2, v5) not in edge_faces
                and edge_key(v3, v5) not in edge_faces
            ):
                yield _hexagon((v1, v2, v3, v4, v5, v6))


def _sites_p2flip(t: Triangulation, edges):
    # with degree-4 links q v3 v4 v5 of p and p v3 v1 v5 of q: the faces hold
    links, edge_faces = t._links, t._edge_faces
    for e1, e2 in edges:
        if len(links[e1]) != 4 or len(links[e2]) != 4:
            continue
        thirds = t.edge_opposites(e1, e2)
        for q, p in ((e1, e2), (e2, e1)):
            lq, lp = links[q], links[p]
            v1, v4 = lq[lq.index(p) - 2], lp[lp.index(q) - 2]
            if edge_key(v1, v4) in edge_faces:
                continue
            for v3, v5 in (thirds, thirds[::-1]):
                v2 = t.other_face_third(v1, v3, q)
                if len({v1, v2, v3, v4, v5, q, p}) == 7:
                    yield (v1, v2, v3, v4, v5, q, p)


# kind -> (site reader, the elements it reads, radius): every vertex of a
# site's footprint lies within radius edges of a corner of the element its
# tuple is read off, and those corners are vertices of the footprint.
_READERS = {
    FlipKind.BTS: (_sites_bts, "faces", 0),
    FlipKind.BTW: (_sites_btw, "faces", 1),
    FlipKind.BES: (_sites_bes, "edges", 1),
    FlipKind.BEW: (_sites_bew, "edges", 1),
    FlipKind.PS: (_sites_ps, "vertices", 1),
    FlipKind.PC: (_sites_pc, "vertices", 2),
    FlipKind.NFLIP: (_sites_nflip, "edges", 1),
    FlipKind.P2FLIP: (_sites_p2flip, "edges", 2),
}


# kind -> the normal form its site reader emits a site tuple in
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
    return tuple.__new__(FlipSite, (site.kind, _NORMAL_FORMS[site.kind](image)))


def _scan(t: Triangulation, kinds, source) -> list[FlipSite]:
    """The sites read off source, deduplicated and in enumerate_sites' order.

    source(elements, radius) gives the faces, edges or vertices of t to read
    each kind's sites off.
    """
    want = FlipKind if kinds is None else sorted(set(kinds))
    out: list[FlipSite] = []
    for kind in want:
        read, elements, radius = _READERS[kind]
        found = set(read(t, source(elements, radius)))
        out.extend([tuple.__new__(FlipSite, (kind, tup)) for tup in sorted(found)])
    return out


def enumerate_sites(t: Triangulation, kinds=None) -> list[FlipSite]:
    """All applicable sites, normalized, sorted by (kind, vertex tuple).

    A site is listed exactly once per distinct rewrite it denotes; symmetric
    orientations of the same rewrite are collapsed to a normal form (least
    fan end for the splitting moves, least rotation for the hexagon move).
    """
    index = {"faces": t.faces, "edges": t._edge_faces, "vertices": t._links}
    return _scan(t, kinds, lambda elements, radius: index[elements])


def _around(t: Triangulation, ring, elements: str):
    """The faces, edges or vertices of t with a corner in ring, a set of
    vertices of t."""
    if elements == "vertices":
        return ring
    if elements == "edges":
        return {edge_key(v, w) for v in ring for w in t._links[v]}
    faces = set()
    for v in ring:
        link = t._links[v]
        faces.update(face_key(v, link[i - 1], link[i]) for i in range(len(link)))
    return faces


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
    touched = {v for f in set(old.faces).symmetric_difference(new.faces) for v in f}
    links = new._links
    rings = [touched.intersection(links)]
    for _ in range(2):
        rings.append(rings[-1].union(*(links[v] for v in rings[-1])))
    near = functools.cache(lambda elements, radius: _around(new, rings[radius], elements))

    # a footprint is the site tuple, but for bew the patch around it too
    bew = FlipKind.BEW
    out = [
        s for s in sites
        if touched.isdisjoint(s.vertices)
        and (s.kind is not bew or touched.isdisjoint(bew_patch(old, *s.vertices)))
    ]
    for site in _scan(new, kinds, near):
        if not touched.isdisjoint(_footprint(new, site)):
            insort(out, site)
    return out
