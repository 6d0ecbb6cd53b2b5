"""Even embeddings of bipartite graphs and their face subdivisions.

An even embedding is recorded combinatorially: a simple bipartite graph
plus the closed walks bounding its faces.  Every walk has even length at
least 4 and every edge lies on exactly two walk slots.  Validity beyond
that bookkeeping is checked by coning each walk and validating the result
as a triangulation, which rejects pinched vertices, repeated traversals,
and disconnected data in one stroke; face_subdivision returns that
triangulation.

Subdividing every face with a cone vertex turns an even embedding into a
balanced triangulation (parts keep colors 0 and 1, cones get color 2);
deleting one color class of a balanced triangulation reverses this, the
links of the deleted vertices becoming the face walks.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .bipartite import BipGraph
from .canon import is_isomorphic
from .errors import InvalidEmbedding, PreconditionViolated, TriangulationError
from .surface import Coloring, Triangulation, find_coloring, surface_id, validate
from .surface import _coloring


def _canonical_walk(walk: Sequence[int]) -> tuple[int, ...]:
    """Least tuple over all rotations and reflections of a closed walk."""
    w = tuple(walk)
    return min(seq[i:] + seq[:i] for seq in (w, w[::-1]) for i in range(len(w)))


class EvenEmbedding:
    """A bipartite graph with the even closed walks bounding its faces."""

    __slots__ = ("graph", "walks", "_subdivision")

    def __init__(self, graph: BipGraph, walks: Iterable[Sequence[int]]):
        self.graph = graph
        self.walks: tuple[tuple[int, ...], ...] = tuple(
            sorted(_canonical_walk(w) for w in walks)
        )
        slots: dict[tuple[int, int], int] = {}
        for walk in self.walks:
            if len(walk) < 4 or len(walk) % 2:
                raise InvalidEmbedding(
                    f"walk {walk} has length {len(walk)}, need even and >= 4"
                )
            for a, b in zip(walk, walk[1:] + walk[:1]):
                if not (a in graph and b in graph and graph.has_edge(a, b)):
                    raise InvalidEmbedding(f"walk step {a}-{b} is not an edge")
                key = (a, b) if a < b else (b, a)
                slots[key] = slots.get(key, 0) + 1
        for e in graph.edges:
            if slots.get(e, 0) != 2:
                raise InvalidEmbedding(
                    f"edge {e} lies on {slots.get(e, 0)} walk slots, need 2"
                )
        if not graph.parts:
            raise InvalidEmbedding("empty graph")
        if graph.min_degree() == 0:
            raise InvalidEmbedding("isolated vertex")
        cone = max(graph.parts) + 1
        faces = []
        colors = {v: graph.part(v) for v in graph.parts}
        for walk in self.walks:
            faces += [(cone, a, b) for a, b in zip(walk, walk[1:] + walk[:1])]
            colors[cone] = 2
            cone += 1
        try:
            tri = validate(faces)
        except TriangulationError as exc:
            raise InvalidEmbedding(f"walks do not close up a surface: {exc}") from exc
        self._subdivision = (tri, Coloring(colors))

    @property
    def walk_count(self) -> int:
        return len(self.walks)

    def euler_characteristic(self) -> int:
        return len(self.graph.parts) - self.graph.edge_count() + len(self.walks)

    def __eq__(self, other):
        if isinstance(other, EvenEmbedding):
            return self.graph == other.graph and self.walks == other.walks
        return NotImplemented

    def __repr__(self):
        return (
            f"EvenEmbedding(V={len(self.graph.parts)}, "
            f"E={self.graph.edge_count()}, W={len(self.walks)})"
        )


def face_subdivision(emb: EvenEmbedding) -> tuple[Triangulation, Coloring]:
    """Cone every face walk; the result is a balanced triangulation.

    Original vertices keep their part as the color, cone vertices get
    color 2 and ids above every graph vertex, one per walk in sorted
    walk order.  The triangulation is the one the embedding was validated as.
    """
    return emb._subdivision


def subdivision_vertex_count(emb: EvenEmbedding) -> int:
    return len(emb.graph.parts) + len(emb.walks)


def delete_color_class(
    tri: Triangulation, col: Coloring, color: int
) -> EvenEmbedding:
    """Remove one color class; links of removed vertices become face walks.

    The two remaining color classes are the parts (smaller color to part
    0).  Every surviving edge lay on two faces whose third vertices had
    the deleted color, so the link walks cover each edge exactly twice.
    col passes surface's gate first: NotBalanced unless it is proper.
    """
    if color not in (0, 1, 2):
        raise PreconditionViolated(f"color {color} not in 0..2")
    col = _coloring(tri, col)
    keep = sorted(c for c in (0, 1, 2) if c != color)
    parts = {v: keep.index(col[v]) for v in tri.vertices if col[v] != color}
    edges = [
        (u, v)
        for u, v in tri.edges
        if col[u] != color and col[v] != color
    ]
    walks = [tri.link_cycle(v) for v in tri.vertices if col[v] == color]
    return EvenEmbedding(BipGraph(parts, edges), walks)


class Verdict(enum.Enum):
    UNREACHABLE = "unreachable"
    INCONCLUSIVE = "inconclusive"


def subdivision_obstruction(t1: Triangulation, t2: Triangulation) -> Verdict:
    """Decide whether no flip sequence can possibly join t1 and t2.

    Different surfaces are immediately unreachable.  Otherwise the test
    is one-sided on whichever triangulation has at least as many
    vertices: if deleting some color class of it leaves minimum degree
    at least 3, every shrinking move on it stays blocked and the smaller
    triangulation cannot be reached.  INCONCLUSIVE promises nothing.
    The deletion is not built: each vertex's link alternates the two
    colors other than its own, so deleting a color leaves it half its
    neighbours, and the test reads degree >= 6 off every vertex of the
    other two colors.  Each input's coloring is found; NotBalanced if one
    has none.
    """
    col1, col2 = find_coloring(t1), find_coloring(t2)
    if is_isomorphic(t1, t2):
        return Verdict.INCONCLUSIVE
    if surface_id(t1) != surface_id(t2):
        return Verdict.UNREACHABLE
    sides = []
    if t1.vertex_count >= t2.vertex_count:
        sides.append((t1, col1))
    if t2.vertex_count >= t1.vertex_count:
        sides.append((t2, col2))
    for tri, col in sides:
        for color in (0, 1, 2):
            if all(tri.degree(v) >= 6 for v in tri.vertices if col[v] != color):
                return Verdict.UNREACHABLE
    return Verdict.INCONCLUSIVE


# -- stock embeddings ----------------------------------------------------------

def cube_embedding() -> EvenEmbedding:
    """The cube: vertices are 3-bit ints, faces fix one coordinate."""
    verts = range(8)
    parts = {v: bin(v).count("1") % 2 for v in verts}
    edges = [(u, v) for u in verts for v in verts if u < v and bin(u ^ v).count("1") == 1]
    walks = []
    for axis in range(3):
        for value in (0, 1):
            lo, hi = [a for a in range(3) if a != axis]
            base = value << axis
            walks.append(
                tuple(base | (x << lo) | (y << hi) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
            )
    return EvenEmbedding(BipGraph(parts, edges), walks)


def hex_prism_embedding() -> EvenEmbedding:
    """Hexagonal prism: two hexagons 0..5 and 6..11 joined by squares."""
    parts = {i: i % 2 for i in range(6)} | {6 + i: (i + 1) % 2 for i in range(6)}
    edges = []
    for i in range(6):
        j = (i + 1) % 6
        edges += [(i, j), (6 + i, 6 + j), (i, 6 + i)]
    walks = [tuple(range(6)), tuple(range(6, 12))]
    for i in range(6):
        j = (i + 1) % 6
        walks.append((i, j, 6 + j, 6 + i))
    return EvenEmbedding(BipGraph(parts, edges), walks)
