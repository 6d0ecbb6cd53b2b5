"""Bipartite graphs under six local operations, and sequence normalization.

Three operations grow a graph: hanging a new leaf off a vertex, splitting an
edge into a three-edge path, and adding a new corner vertex across a path of
length two.  Their three inverses shrink it.  The normalizer rewrites any
mixed sequence applied to a graph of minimum degree >= 3 into a forward-only
sequence with an isomorphic result, never longer than the input.

The rewriting is a local case analysis on the pair (last forward op, first
inverse op).  Soundness leans on one structural fact: before the first
inverse, the sequence is all-forward, and forward ops never lower the degree
of an existing vertex, so any vertex of degree 1 or 2 at that point was
created by the forward prefix itself and its whole neighborhood is known.
Each rewrite is verified on the spot by finding an isomorphism between the
graphs the old and the new pair reach; a relabeling other than the identity
is pushed through the remaining ops.

Ops cost what they change: `apply_bip` patches copies of its input's dicts
and shares every neighbor frozenset it does not touch.  The normalizer
applies the script once, which rejects a script that does not apply, and
caches the graph after each prefix; a rewrite at position i keeps the
prefixes before i and rebuilds later ones only as rewriting reaches them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    NotApplicable,
    PreconditionViolated,
    RewriteBudgetExceeded,
    RewriteUnsound,
    WrongDegree,
)


class BipGraph:
    """A simple bipartite graph: parts[v] in {0, 1}, edges across parts."""

    __slots__ = ("parts", "_adj", "_edges")

    def __init__(self, parts: Mapping[int, int], edges: Iterable[tuple[int, int]]):
        self.parts: dict[int, int] = dict(parts)
        es = set()
        for u, v in edges:
            if u == v:
                raise PreconditionViolated(f"loop at vertex {u}")
            if u not in self.parts or v not in self.parts:
                raise PreconditionViolated(f"edge {{{u},{v}}} uses an unknown vertex")
            if self.parts[u] == self.parts[v]:
                raise PreconditionViolated(
                    f"edge {{{u},{v}}} joins two part-{self.parts[u]} vertices"
                )
            es.add((u, v) if u < v else (v, u))
        self._edges: frozenset[tuple[int, int]] | None = frozenset(es)
        for v, p in self.parts.items():
            if p not in (0, 1):
                raise PreconditionViolated(f"vertex {v} has part {p}, not 0/1")
        adj: dict[int, set[int]] = {v: set() for v in self.parts}
        for u, v in es:
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(n) for v, n in adj.items()}

    @classmethod
    def _trusted(cls, parts: dict[int, int], adj: dict[int, frozenset[int]]) -> BipGraph:
        """A graph on dicts the caller vouches for; nothing is checked or copied."""
        g = cls.__new__(cls)
        g.parts, g._adj, g._edges = parts, adj, None
        return g

    # -- queries --------------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset((u, v) for u, ns in self._adj.items() for v in ns if u < v)
        return self._edges

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.parts))

    def __contains__(self, v: int) -> bool:
        return v in self.parts

    def __eq__(self, other):
        if isinstance(other, BipGraph):
            return self.parts == other.parts and self._adj == other._adj
        return NotImplemented

    def __repr__(self):
        return f"BipGraph(V={len(self.parts)}, E={self.edge_count()})"

    def part(self, v: int) -> int:
        return self.parts[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def min_degree(self) -> int:
        return min((len(n) for n in self._adj.values()), default=0)


class BipOpKind(enum.Enum):
    ADD_LEAF = "add-leaf"        # (v, w): new leaf w on v
    SPLIT_EDGE = "split-edge"    # (u, v, p, q): edge uv -> path u-p-q-v
    ADD_CORNER = "add-corner"    # (x, y, z, w): new w joined to x and y; z witnesses d(x,y)=2
    DEL_LEAF = "del-leaf"        # (w,): remove pendant w
    SMOOTH_PATH = "smooth-path"  # (u, p, q, v): path u-p-q-v -> edge uv
    DEL_CORNER = "del-corner"    # (w,): remove degree-2 w lying on a 4-cycle


OP_ARITY = {
    BipOpKind.ADD_LEAF: 2,
    BipOpKind.SPLIT_EDGE: 4,
    BipOpKind.ADD_CORNER: 4,
    BipOpKind.DEL_LEAF: 1,
    BipOpKind.SMOOTH_PATH: 4,
    BipOpKind.DEL_CORNER: 1,
}

FORWARD_KINDS = frozenset(
    {BipOpKind.ADD_LEAF, BipOpKind.SPLIT_EDGE, BipOpKind.ADD_CORNER}
)


@dataclass(frozen=True)
class BipOp:
    kind: BipOpKind
    args: tuple[int, ...]

    def __post_init__(self):
        if len(self.args) != OP_ARITY[self.kind]:
            raise NotApplicable(
                f"{self.kind.value} takes {OP_ARITY[self.kind]} arguments, "
                f"got {len(self.args)}"
            )

    def is_forward(self) -> bool:
        return self.kind in FORWARD_KINDS

    def created(self) -> tuple[int, ...]:
        if self.kind is BipOpKind.ADD_LEAF:
            return self.args[1:]
        if self.kind is BipOpKind.SPLIT_EDGE:
            return self.args[2:]
        if self.kind is BipOpKind.ADD_CORNER:
            return self.args[3:]
        return ()

    def relabeled(self, mapping: Mapping[int, int]) -> "BipOp":
        return BipOp(self.kind, tuple(mapping.get(a, a) for a in self.args))

    def __str__(self):
        return self.kind.value + " " + " ".join(str(a + 1) for a in self.args)


def is_smoothable(g: BipGraph, p: int, q: int) -> bool:
    """Whether the adjacent degree-2 pair p, q lies on no 4-cycle."""
    if g.degree(p) != 2 or g.degree(q) != 2:
        raise WrongDegree(f"vertices {p}, {q} must both have degree 2")
    if not g.has_edge(p, q):
        raise NotApplicable(f"vertices {p} and {q} are not adjacent")
    (u,) = g.neighbors(p) - {q}
    (v,) = g.neighbors(q) - {p}  # u and v lie in opposite parts
    return not g.has_edge(u, v)


def is_removable(g: BipGraph, w: int) -> bool:
    """Whether the degree-2 vertex w lies on some 4-cycle."""
    if g.degree(w) != 2:
        raise WrongDegree(f"vertex {w} must have degree 2, has {g.degree(w)}")
    x, y = g.neighbors(w)
    return bool((g.neighbors(x) & g.neighbors(y)) - {w})


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise NotApplicable(msg)


def apply_bip(g: BipGraph, op: BipOp) -> BipGraph:
    """Apply one operation, or raise NotApplicable naming the violation."""
    k, a = op.kind, op.args
    # the checks below leave a simple bipartite graph: patch g, skip revalidation
    parts = dict(g.parts)
    adj = dict(g._adj)

    def add_edge(u, v):
        adj[u] = adj.get(u, frozenset()) | {v}
        adj[v] = adj.get(v, frozenset()) | {u}

    def del_vertex(w):
        for v in adj.pop(w):
            adj[v] = adj[v] - {w}
        del parts[w]

    if k is BipOpKind.ADD_LEAF:
        v, w = a
        _need(v in g, f"no vertex {v}")
        _need(w not in g, f"vertex {w} already exists")
        parts[w] = 1 - g.part(v)
        add_edge(v, w)
    elif k is BipOpKind.SPLIT_EDGE:
        u, v, p, q = a
        _need(g.has_edge(u, v), f"no edge {{{u},{v}}}")
        _need(p not in g and q not in g and p != q, f"{p}, {q} must be two new vertices")
        adj[u] = adj[u] - {v}
        adj[v] = adj[v] - {u}
        parts[p] = g.part(v)
        parts[q] = g.part(u)
        add_edge(u, p)
        add_edge(p, q)
        add_edge(q, v)
    elif k is BipOpKind.ADD_CORNER:
        x, y, z, w = a
        _need(x in g and y in g and z in g, f"vertices {x}, {y}, {z} must exist")
        _need(x != y, "corner endpoints coincide")
        _need(g.has_edge(x, z) and g.has_edge(y, z), f"{z} must witness both {x} and {y}")
        _need(not g.has_edge(x, y), f"{x} and {y} must be non-adjacent")
        _need(w not in g, f"vertex {w} already exists")
        parts[w] = 1 - g.part(x)
        add_edge(x, w)
        add_edge(y, w)
    elif k is BipOpKind.DEL_LEAF:
        (w,) = a
        _need(w in g, f"no vertex {w}")
        _need(g.degree(w) == 1, f"vertex {w} has degree {g.degree(w)}, not a leaf")
        del_vertex(w)
    elif k is BipOpKind.SMOOTH_PATH:
        u, p, q, v = a
        _need(len(set(a)) == 4 and all(x in g for x in a), f"{a} must be 4 existing vertices")
        _need(
            g.has_edge(u, p) and g.has_edge(p, q) and g.has_edge(q, v),
            f"no path {u}-{p}-{q}-{v}",
        )
        _need(g.degree(p) == 2 and g.degree(q) == 2, f"{p}, {q} must have degree 2")
        _need(is_smoothable(g, p, q), f"pair {p}, {q} lies on a 4-cycle")
        del_vertex(p)
        del_vertex(q)
        add_edge(u, v)
    else:  # DEL_CORNER
        (w,) = a
        _need(w in g, f"no vertex {w}")
        _need(g.degree(w) == 2, f"vertex {w} has degree {g.degree(w)}, not 2")
        _need(is_removable(g, w), f"vertex {w} lies on no 4-cycle")
        del_vertex(w)
    return BipGraph._trusted(parts, adj)


def apply_sequence(g: BipGraph, ops: Sequence[BipOp]) -> BipGraph:
    for op in ops:
        g = apply_bip(g, op)
    return g


# -- isomorphism --------------------------------------------------------------

def find_isomorphism(g1: BipGraph, g2: BipGraph) -> dict[int, int] | None:
    """Some graph isomorphism g1 -> g2 as a vertex map, or None.

    Parts are not matched explicitly: any graph isomorphism carries one
    valid bipartition to another, which is all the relabeling of later
    operations needs.
    """
    if len(g1.parts) != len(g2.parts) or g1.edge_count() != g2.edge_count():
        return None
    if g1 == g2:
        return {v: v for v in g1.parts}
    # networkx takes ~0.2 s to import, so only a real VF2 search loads it
    from networkx import Graph
    from networkx.algorithms.isomorphism import GraphMatcher

    nx1, nx2 = Graph(), Graph()
    for g, out in ((g1, nx1), (g2, nx2)):
        out.add_nodes_from(g.vertices)
        out.add_edges_from(sorted(g.edges))
    matcher = GraphMatcher(nx1, nx2)
    if matcher.is_isomorphic():
        return dict(matcher.mapping)
    return None


def bip_isomorphic(g1: BipGraph, g2: BipGraph) -> bool:
    """Isomorphism as abstract bipartite graphs (parts may swap)."""
    return find_isomorphism(g1, g2) is not None


# -- sequence normalization ----------------------------------------------------

def _freshen(g: BipGraph, ops: Sequence[BipOp]) -> tuple[list[BipOp], list[BipGraph], int]:
    """Apply ops once, renaming re-created ids so every creation is unique.

    Input sequences may reuse ids (create, delete, re-create); downstream
    rewriting assumes created ids are unique and collision-free.  Ids that
    are already unique are kept as-is, and so is a created id that is still
    live, which apply_bip then rejects just as apply_sequence would.
    Returns the renamed ops, the prefix graphs (prefix[i] is g after the
    first i ops) and the largest id in use.
    """
    used = set(g.parts)
    for op in ops:
        used.update(op.args)
    counter = max(used, default=-1)
    seen = set(g.parts)
    rename: dict[int, int] = {}
    out: list[BipOp] = []
    prefix = [g]
    for op in ops:
        op = op.relabeled(rename)
        for c in op.created():
            if c in seen and c not in prefix[-1]:
                counter += 1
                rename[c] = counter
            seen.add(rename.get(c, c))
        op = op.relabeled(rename)
        out.append(op)
        prefix.append(apply_bip(prefix[-1], op))
    return out, prefix, counter


def _sound(cond: bool, msg: str) -> None:
    if not cond:
        raise RewriteUnsound(msg)


def _rewrite_pair(g_before, f: BipOp, inv: BipOp, fresh) -> list[BipOp]:
    """Replacement for [f, inv] applied to g_before; see the case analysis.

    Returns [] (cancellation), a single equivalent op, a [shrink, grow]
    pair, or [inv, f] commuted.  The caller re-verifies by isomorphism.
    """
    K = BipOpKind
    if inv.kind is K.DEL_LEAF:
        (w,) = inv.args
        if w not in g_before:
            # only a just-added leaf can have degree 1 while being new
            _sound(f.kind is K.ADD_LEAF and f.args[1] == w, "a new leaf must be f's")
            return []
        if f.kind is K.SPLIT_EDGE and w in f.args[:2]:
            # splitting w's pendant edge then dropping w leaves the stub
            # one vertex longer: same as growing the pendant path at w
            return [BipOp(K.ADD_LEAF, (w, fresh()))]
        return [inv, f]

    if inv.kind is K.SMOOTH_PATH:
        u, p, q, v = inv.args
        if p not in g_before or q not in g_before:
            # at least one of the pair was just created, which only a split
            # can do (a new corner's second neighbor would force a chord
            # that the smoothing precondition rules out); whether the split
            # made both, or one plus swallowing an old degree-2 endpoint,
            # the two ops cancel up to renaming
            _sound(f.kind is K.SPLIT_EDGE, "a new smoothing pair must be f's")
            return []
        if f.kind is K.SPLIT_EDGE:
            a, b = f.args[:2]
            if a in (p, q) or b in (p, q) or {a, b} == {u, v}:
                # the split rebuilt the very path (or 4-cycle chord) being
                # smoothed; the two rewrites cancel up to renaming
                return []
            return [inv, f]
        if f.kind is K.ADD_LEAF and f.args[0] in (p, q):
            # the leaf became one smoothing endpoint; dropping the tip of
            # the old pendant path instead reaches an isomorphic graph
            return [BipOp(K.DEL_LEAF, (f.args[0],))]
        return [inv, f]

    _sound(inv.kind is K.DEL_CORNER, f"{inv.kind.value} is not an inverse op")
    (w,) = inv.args
    if w not in g_before:
        _sound(f.kind is K.ADD_CORNER and f.args[3] == w, "a new corner must be f's")
        return []
    if g_before.degree(w) == 1:
        # only a corner added on top of the pendant w gives it degree 2;
        # trimming w and re-hanging a leaf at the far endpoint matches
        _sound(f.kind is K.ADD_CORNER and w in f.args[:2], "w must end f's corner")
        far = f.args[1] if f.args[0] == w else f.args[0]
        return [BipOp(K.DEL_LEAF, (w,)), BipOp(K.ADD_LEAF, (far, f.args[3]))]
    if is_removable(g_before, w):
        if f.kind is K.ADD_CORNER and f.args[2] == w:
            # f's witness is about to disappear; any other common neighbor
            # of its endpoints re-witnesses it (one exists: w is removable)
            x, y = f.args[0], f.args[1]
            s = min((g_before.neighbors(x) & g_before.neighbors(y)) - {w})
            f = BipOp(K.ADD_CORNER, (x, y, s, f.args[3]))
        return [inv, f]
    # w only became removable through f: f must be a corner across w's
    # own neighbors, and that corner replaces w wholesale
    spans = f.kind is K.ADD_CORNER and set(f.args[:2]) == g_before.neighbors(w)
    _sound(spans, "only a corner across w's neighbors makes w removable")
    return []


def normalize_sequence(g: BipGraph, ops: Sequence[BipOp]) -> list[BipOp]:
    """Rewrite ops into a forward-only sequence with an isomorphic result.

    Requires min degree >= 3 on g (PreconditionViolated otherwise) and ops
    that apply to g (NotApplicable otherwise).  The output is never longer
    than the input.  RewriteBudgetExceeded (past |ops|^2 rewriting steps) or
    RewriteUnsound would indicate a bug in the case analysis, not a hard input.
    """
    if g.min_degree() < 3:
        raise PreconditionViolated(
            f"minimum degree {g.min_degree()} < 3; normalization not defined"
        )
    seq, prefix, counter = _freshen(g, ops)

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    budget = max(1, len(seq)) ** 2
    steps = first_inv = 0
    while True:
        start = max(first_inv - 1, 0)  # the ops before the last rewrite are forward
        first_inv = next((i for i in range(start, len(seq)) if not seq[i].is_forward()), None)
        if first_inv is None:
            return seq
        _sound(first_inv > 0, "an inverse op cannot apply to a min-degree-3 graph")
        steps += 1
        if steps > budget:
            raise RewriteBudgetExceeded(
                f"exceeded {budget} rewriting steps on a {len(ops)}-op sequence"
            )
        try:
            while len(prefix) <= first_inv + 1:
                prefix.append(apply_bip(prefix[-1], seq[len(prefix) - 1]))
            before, want = prefix[first_inv - 1], prefix[first_inv + 1]
            replacement = _rewrite_pair(before, seq[first_inv - 1], seq[first_inv], fresh)
            del prefix[first_inv:]
            for op in replacement:
                prefix.append(apply_bip(prefix[-1], op))
        except NotApplicable as exc:
            # the input applied as a whole, so this is the rewrite's fault
            raise RewriteUnsound(f"rewritten script stopped applying: {exc}") from exc
        relabel = find_isomorphism(want, prefix[-1])
        _sound(relabel is not None, "rewrite changed the graph up to isomorphism")
        tail = seq[first_inv + 1 :]
        if any(u != v for u, v in relabel.items()):
            tail = [op.relabeled(relabel) for op in tail]
        seq[first_inv - 1 :] = replacement + tail
