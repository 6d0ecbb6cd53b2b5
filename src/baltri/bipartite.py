"""Bipartite graphs under six local operations, and sequence normalization.

Three operations grow a graph: hanging a new leaf off a vertex, splitting an
edge into a three-edge path, and adding a new corner vertex across a path of
length two.  Their three inverses shrink it.  Each BipOpKind carries its
arity and the argument slot of its first created vertex, so the forward ops
are exactly those that create one.  The normalizer rewrites any
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

Ops cost what they change: one routine checks an op and then patches a
graph's two dicts in place.  `apply_bip` runs it on copies of its input's
dicts, sharing every neighbor frozenset the op does not touch;
`apply_sequence` copies once and patches that owned copy for the whole
script.  A refused op raises NotApplicable naming the op as a script writes
it.  The normalizer checks the script with `apply_sequence`, then caches
the graph after each prefix of the rewritten script, built as rewriting
reaches it; a rewrite at position i keeps the prefixes before i.
A BipOp is the plain tuple (kind, args) with named fields, equal to it.
"""

from __future__ import annotations

import enum
from collections import namedtuple
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

    __slots__ = ("parts", "_adj")

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
        g.parts, g._adj = parts, adj
        return g

    # -- queries --------------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, ns in self._adj.items() for v in ns if u < v)

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
    """An op kind, valued by its script name; each member also carries arity
    (argument count) and created_slot, the argument slot of its first
    created vertex, None for the three inverse ops, which create none."""

    ADD_LEAF = "add-leaf", 2, 1           # (v, w): new leaf w on v
    SPLIT_EDGE = "split-edge", 4, 2       # (u, v, p, q): edge uv -> path u-p-q-v
    ADD_CORNER = "add-corner", 4, 3       # (x, y, z, w): new w on x, y; z witnesses d(x,y)=2
    DEL_LEAF = "del-leaf", 1, None        # (w,): remove pendant w
    SMOOTH_PATH = "smooth-path", 4, None  # (u, p, q, v): path u-p-q-v -> edge uv
    DEL_CORNER = "del-corner", 1, None    # (w,): remove degree-2 w lying on a 4-cycle

    def __new__(cls, value: str, arity: int, created_slot: int | None):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.arity = arity
        kind.created_slot = created_slot
        return kind


class BipOp(namedtuple("BipOp", "kind args")):
    """An operation: the tuple (kind, args); NotApplicable on the wrong arity."""

    __slots__ = ()

    def __new__(cls, kind: BipOpKind, args: Iterable[int]):
        args = tuple(args)
        if len(args) != kind.arity:
            raise NotApplicable(
                f"{kind.value} takes {kind.arity} arguments, got {len(args)}"
            )
        return tuple.__new__(cls, (kind, args))

    def is_forward(self) -> bool:
        """Whether the op grows the graph: it creates a vertex."""
        return self.kind.created_slot is not None

    def created(self) -> tuple[int, ...]:
        slot = self.kind.created_slot
        return () if slot is None else self.args[slot:]

    def relabeled(self, mapping: Mapping[int, int]) -> "BipOp":
        args = tuple([mapping.get(a, a) for a in self.args])
        return tuple.__new__(BipOp, (self.kind, args))

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


def _apply_into(parts: dict[int, int], adj: dict[int, frozenset[int]], op: BipOp) -> None:
    """Apply op to the graph on parts and adj by patching both dicts in place.

    Every check runs before the first write, so a refused op leaves the dicts
    as they were.  The NotApplicable message is built only then: it names op
    and its vertices as a script writes them, 1-based, like str(op).
    """
    k, a = op
    if k is BipOpKind.ADD_LEAF:
        v, w = a
        if v not in parts:
            raise NotApplicable(f"{op}: no vertex {v + 1}")
        if w in parts:
            raise NotApplicable(f"{op}: vertex {w + 1} already exists")
        parts[w] = 1 - parts[v]
        adj[v] = adj[v] | {w}
        adj[w] = frozenset((v,))
    elif k is BipOpKind.SPLIT_EDGE:
        u, v, p, q = a
        if v not in adj.get(u, ()):
            raise NotApplicable(f"{op}: no edge {{{u + 1},{v + 1}}}")
        if p in parts or q in parts or p == q:
            raise NotApplicable(f"{op}: {p + 1}, {q + 1} must be two new vertices")
        parts[p], parts[q] = parts[v], parts[u]
        adj[u] = adj[u] - {v} | {p}
        adj[v] = adj[v] - {u} | {q}
        adj[p] = frozenset((u, q))
        adj[q] = frozenset((p, v))
    elif k is BipOpKind.ADD_CORNER:
        x, y, z, w = a
        if x not in parts or y not in parts or z not in parts:
            raise NotApplicable(f"{op}: vertices {x + 1}, {y + 1}, {z + 1} must exist")
        if x == y:
            raise NotApplicable(f"{op}: corner endpoints coincide")
        if z not in adj[x] or z not in adj[y]:
            raise NotApplicable(f"{op}: {z + 1} must witness both {x + 1} and {y + 1}")
        if y in adj[x]:
            raise NotApplicable(f"{op}: {x + 1} and {y + 1} must be non-adjacent")
        if w in parts:
            raise NotApplicable(f"{op}: vertex {w + 1} already exists")
        parts[w] = 1 - parts[x]
        adj[x] = adj[x] | {w}
        adj[y] = adj[y] | {w}
        adj[w] = frozenset((x, y))
    elif k is BipOpKind.SMOOTH_PATH:
        u, p, q, v = a
        if len({u, p, q, v}) != 4 or not (u in parts and p in parts and q in parts and v in parts):
            raise NotApplicable(f"{op}: its 4 vertices must be distinct and exist")
        if p not in adj[u] or q not in adj[p] or v not in adj[q]:
            raise NotApplicable(f"{op}: no path {u + 1}-{p + 1}-{q + 1}-{v + 1}")
        if len(adj[p]) != 2 or len(adj[q]) != 2:
            raise NotApplicable(f"{op}: {p + 1}, {q + 1} must have degree 2")
        if v in adj[u]:
            raise NotApplicable(f"{op}: pair {p + 1}, {q + 1} lies on a 4-cycle")
        del adj[p], adj[q], parts[p], parts[q]
        adj[u] = adj[u] - {p} | {v}
        adj[v] = adj[v] - {q} | {u}
    else:  # DEL_LEAF, DEL_CORNER
        (w,) = a
        if w not in parts:
            raise NotApplicable(f"{op}: no vertex {w + 1}")
        ns = adj[w]
        if k is BipOpKind.DEL_LEAF:
            if len(ns) != 1:
                raise NotApplicable(f"{op}: vertex {w + 1} has degree {len(ns)}, not a leaf")
        else:  # DEL_CORNER
            if len(ns) != 2:
                raise NotApplicable(f"{op}: vertex {w + 1} has degree {len(ns)}, not 2")
            x, y = ns
            if len(adj[x] & adj[y]) < 2:
                raise NotApplicable(f"{op}: vertex {w + 1} lies on no 4-cycle")
        for v in ns:
            adj[v] = adj[v] - {w}
        del adj[w], parts[w]


def apply_bip(g: BipGraph, op: BipOp) -> BipGraph:
    """Apply one operation, or raise NotApplicable naming op and the violation.

    The result shares every neighbor set op does not touch; g is unchanged.
    """
    parts, adj = dict(g.parts), dict(g._adj)
    _apply_into(parts, adj, op)
    return BipGraph._trusted(parts, adj)


def apply_sequence(g: BipGraph, ops: Sequence[BipOp]) -> BipGraph:
    """Apply ops in order on one copy of g, patched in place; g is unchanged."""
    parts, adj = dict(g.parts), dict(g._adj)
    for op in ops:
        _apply_into(parts, adj, op)
    return BipGraph._trusted(parts, adj)


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
    try:  # the matcher raises the recursion limit to 1.5 V and leaves it there
        return dict(matcher.mapping) if matcher.is_isomorphic() else None
    finally:
        matcher.reset_recursion_limit()


def bip_isomorphic(g1: BipGraph, g2: BipGraph) -> bool:
    """Isomorphism as abstract bipartite graphs (parts may swap)."""
    return find_isomorphism(g1, g2) is not None


# -- sequence normalization ----------------------------------------------------

def _freshen(g: BipGraph, ops: Sequence[BipOp]) -> tuple[list[BipOp], int]:
    """Check that ops apply to g, and rename re-created ids so every creation is unique.

    Input sequences may reuse ids (create, delete, re-create); downstream
    rewriting assumes created ids are unique and collision-free.  The check
    runs on ops as given, so a refusal names the op as the script wrote it.
    An op that applies creates no live id, so a created id seen before is a
    re-creation: it gets the next unused id, which later ops then use.
    Returns the renamed ops and the largest id in use.
    """
    apply_sequence(g, ops)
    seen = set(g.parts)
    counter = max(seen.union(*(op.args for op in ops)), default=-1)
    rename: dict[int, int] = {}
    out: list[BipOp] = []
    for op in ops:
        for c in op.created():
            if c in seen:
                counter += 1
                rename[c] = counter
            seen.add(c)
        out.append(op.relabeled(rename))
    return out, counter


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
    seq, counter = _freshen(g, ops)
    prefix = [g]  # prefix[i] is g after seq[:i], built as rewriting reaches it

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
