"""Brute-force reference implementations the suite checks the library against.

Everything here is written straight from the definitions and on purpose uses
different algorithms than the package: isomorphism by backtracking over vertex
bijections instead of canonical codes, site scans directly off the face list.
The exceptions are reference_canonical, the slow form of the package's own
canonical code, which the fast path must match byte for byte;
eager_canonical, the sweep loop that runs every new least sweep to the end
over t's edge index and prunes flags by a union-find, which the suspending
one over a face index and an orbit set of flags must match in code, label
map and automorphisms; reference_start_flags,
which reads the degree triple of every flag, and which the start flags read
off the faces offering the least sorted degree triple must match flag for
flag;
reference_normalize, the replay-from-scratch normalizer, which shares the
package's rewrite case analysis and must match its output op for op; and
reference_validate, validate as it read links off per-vertex link graphs
and searched the face-adjacency graph, which the link-walking validate must
match index for index and error class for error class; and
reference_parse_tri, the .tri parser that checked every line as it read it,
which the one-pass parser must match in faces and colors, or in error class
and message; and reference_parse_bip_script, the script parser that checked
every line as it read it, which the one-pass parser must match op for op, or
in its ParseError message; and
reference_find_coloring and reference_is_orientable, the two separate face
walks the package once ran, which the one shared walk must match in coloring,
answer and NotBalanced message; and
reference_subdivision_obstruction, which builds each color-class deletion
and reads its minimum degree, and whose verdicts the degree test must
match; and
reference_apply_flip, which shares the package's move rules but rebuilds the
whole triangulation through validate, and which the patching apply_flip must
match field for field; and reference_bew_patch, the double-subdivision patch
found by neighbor-set arithmetic, which the patch read off the two degree-4
links must match pair for pair; and reference_inverse_site, the undo site
written out kind by kind, which the undo tuples the move rules build must
match; and
reference_enumerate_sites, which reads candidate tuples off t and keeps those
the package's move rules accept, and which the inline-checking site readers
must match site for site; and
reference_relabel, which builds a canonical form by renaming the input's
vertices and colors, and which forms decoded from codes must match; and
reference_bfs and reference_connect, the flip-graph searches without orbit
pruning, which keep those relabeled forms, and which the pruned searches
must match edge for edge and path for path.  Slow is fine, the inputs stay
small.  The other functions take plain data (face tuples, dicts, edge
pairs), not package objects, so they cannot accidentally lean on package
internals.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations


def face_set(faces):
    return frozenset(tuple(sorted(f)) for f in faces)


def vertices_of(faces):
    out = set()
    for f in faces:
        out.update(f)
    return out


def edges_of(faces):
    out = set()
    for a, b, c in faces:
        out.add(tuple(sorted((a, b))))
        out.add(tuple(sorted((b, c))))
        out.add(tuple(sorted((a, c))))
    return out


def neighbors_of(faces):
    nbr: dict[int, set[int]] = {}
    for f in faces:
        for v in f:
            nbr.setdefault(v, set()).update(set(f) - {v})
    return nbr


def link_cycle_of(faces, v):
    """The neighbors of v in cyclic order, starting anywhere.

    Assumes the faces triangulate a closed surface, so the link is one cycle.
    """
    around: dict[int, list[int]] = {}
    for f in faces:
        if v not in f:
            continue
        a, b = sorted(set(f) - {v})
        around.setdefault(a, []).append(b)
        around.setdefault(b, []).append(a)
    start = min(around)
    cycle = [start, around[start][0]]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        x, y = around[cur]
        nxt = y if x == prev else x
        if nxt == start:
            return tuple(cycle)
        cycle.append(nxt)


def naive_ps_sites(faces):
    """Every distinct subdivision-split site, scanned from the definition.

    A site is a fan of three consecutive faces around v, taken from every
    rotation and both directions of every link, kept when the fan ends are
    non-adjacent, and normalized to the lesser end first.
    """
    edges = edges_of(faces)
    found = set()
    for v in vertices_of(faces):
        link = link_cycle_of(faces, v)
        d = len(link)
        if d < 4:
            continue
        for direction in (link, link[::-1]):
            for i in range(d):
                w, x, y, z = (direction[(i + j) % d] for j in range(4))
                if len({w, x, y, z}) < 4:
                    continue
                if tuple(sorted((w, z))) in edges:
                    continue
                if w > z:
                    w, x, y, z = z, y, x, w
                found.add((v, w, x, y, z))
    return sorted(found)


def color_permutations():
    return list(permutations((0, 1, 2)))


def _reference_sweep(edge_faces, face, u, v):
    """Label stream of the breadth-first sweep started at flag (face, u->v)."""
    label = {}
    out = []
    visited = {face}
    queue = [(face, u, v)]
    head = 0
    while head < len(queue):
        f, a, b = queue[head]
        head += 1
        c = next(x for x in f if x != a and x != b)
        for x in (a, b, c):
            if x not in label:
                label[x] = len(label)
        out.extend((label[a], label[b], label[c]))
        for x, y in ((a, b), (b, c), (c, a)):
            g1, g2 = edge_faces[tuple(sorted((x, y)))]
            g = g2 if g1 == f else g1
            if g not in visited:
                visited.add(g)
                queue.append((g, y, x))
    return out, label


def _sorted_faces(faces):
    """Faces as sorted triples in sorted order, and each edge's faces."""
    faces = sorted(tuple(sorted(f)) for f in faces)
    edge_faces = {}
    for a, b, c in faces:
        for e in ((a, b), (a, c), (b, c)):
            edge_faces.setdefault(e, []).append((a, b, c))
    return faces, edge_faces


def reference_automorphism_count(faces):
    """|Aut| of the uncolored triangulation, by sweeping every flag.

    An automorphism is fixed by the image of one flag, and a flag's sweep
    matches the first flag's exactly when some automorphism maps one to the
    other, so the count is the number of flags whose stream matches.
    """
    faces, edge_faces = _sorted_faces(faces)
    a, b, _ = faces[0]
    first, _ = _reference_sweep(edge_faces, faces[0], a, b)
    return sum(
        _reference_sweep(edge_faces, f, x, y)[0] == first
        for f in faces
        for x, y in permutations(f, 2)
    )


def reference_canonical(faces, col=None, mode="ignore"):
    """(code bytes, label map, color permutation) by the full sweep.

    Every start flag in the least degree-triple class is swept to the end
    and encoded to bytes, and up to permutation all six color permutations
    are tried on every flag; the least (body, color suffix) wins, the first
    one found on ties.  Flags are taken in the package's order: faces as
    sorted triples in sorted order, six directions per face.
    """
    faces, edge_faces = _sorted_faces(faces)
    deg = {v: len(n) for v, n in neighbors_of(faces).items()}
    best_key, flags = None, []
    for f in faces:
        a, b, c = f
        for x, y, z in (
            (a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)
        ):
            key = (deg[x], deg[y], deg[z])
            if best_key is None or key < best_key:
                best_key, flags = key, [(f, x, y)]
            elif key == best_key:
                flags.append((f, x, y))
    width = 2 if len(faces) < 65536 else 4
    header = b"".join(n.to_bytes(width, "big") for n in (len(deg), len(faces)))
    perms = color_permutations() if mode == "up-to-permutation" else [(0, 1, 2)]
    best = None
    for f, u, v in flags:
        stream, labels = _reference_sweep(edge_faces, f, u, v)
        body = b"".join(x.to_bytes(width, "big") for x in stream)
        if best is not None and body > best[0]:
            continue
        for perm in perms:
            suffix = b""
            if mode != "ignore":
                by_label = [0] * len(labels)
                for x, i in labels.items():
                    by_label[i] = perm[col[x]]
                suffix = bytes(by_label)
            if best is None or (body, suffix) < best[:2]:
                best = (body, suffix, labels, perm)
    body, suffix, labels, perm = best
    return header + body + suffix, labels, perm


def reference_start_flags(faces, deg):
    """The start flags (face, u, v) of the least degree-triple class, by
    reading the degree triple of all six flags of every face.

    Takes sorted faces and a map from each vertex to its degree; the
    package's scan, which keeps only the faces offering the least sorted
    degree triple, must match it flag for flag, in order, with each face
    given by its position in faces.
    """
    best_key, flags = None, []
    for f in faces:
        a, b, c = f
        for u, v, w in (
            (a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)
        ):
            key = (deg[u], deg[v], deg[w])
            if best_key is None or key < best_key:
                best_key, flags = key, [(f, u, v)]
            elif key == best_key:
                flags.append((f, u, v))
    return flags


def color_suffix(label, col, mode):
    """The colors of col in label order as bytes, and the color renaming
    they went through: the identity in FIXED mode, first appearance up to
    permutation; (b"", None) when colors are ignored or col is None."""
    from baltri.canon import ColorMode

    if mode is ColorMode.IGNORE or col is None:
        return b"", None
    colors = [col[v] for v in label]
    perm = {0: 0, 1: 1, 2: 2}
    if mode is not ColorMode.FIXED:
        perm = {c: i for i, c in enumerate(dict.fromkeys(colors))}
    return bytes(map(perm.__getitem__, colors)), perm


def _find(parent, i):
    """Root of i's class; a root is the least flag index in its class."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def _join_images(parent, index, corners, sigma):
    """Join each flag's class with its image's under the automorphism sigma."""
    images = [index[sigma[u], sigma[v], sigma[w]] for u, v, w in corners]
    for j, k in enumerate(images):
        a, b = _find(parent, j), _find(parent, k)
        if a != b:
            parent[max(a, b)] = min(a, b)


def eager_canonical(t, col, mode):
    """_canonical with every sweep that goes below the best run to the end.

    Takes package objects and returns _canonical's (code, label map,
    automorphisms).  Each sweep runs until its first triple larger than the
    least stream so far, or to the end; the suspending _canonical must match
    it in all three, label order and generator order included.  Flags are
    pruned by a union-find over flag indices, built at the first tie: each
    automorphism joins every flag's class with its image's, and a flag is
    skipped unless it is the least index of its class, the rule the
    package's orbit set of flags must reproduce skip for skip.
    """
    import struct
    from itertools import chain

    from baltri.canon import CanonicalCode

    _, edge_faces = _sorted_faces(t.faces)

    def sweep(face, u, v, best):
        label, out, visited, queue, head = {}, [], {face}, [(face, u, v)], 0
        tied = best is not None
        while head < len(queue):
            f, a, b = queue[head]
            head += 1
            c = f[0] + f[1] + f[2] - a - b
            triple = tuple(label.setdefault(x, len(label)) for x in (a, b, c))
            if tied and triple != best[head - 1]:
                if triple > best[head - 1]:
                    return None, label, False
                tied = False
            out.append(triple)
            for x, y in ((a, b), (b, c), (c, a)):
                g1, g2 = edge_faces[(x, y) if x < y else (y, x)]
                g = g2 if g1 == f else g1
                if g not in visited:
                    visited.add(g)
                    queue.append((g, y, x))
        return out, label, tied

    best = best_labels = parent = None
    best_suffix = b""
    gens = []
    flags = reference_start_flags(t.faces, {v: t.degree(v) for v in t.vertices})
    for i, (f, u, v) in enumerate(flags):
        if parent is not None and _find(parent, i) != i:
            continue
        stream, labels, tied = sweep(f, u, v, best)
        if stream is None:
            continue
        suffix = color_suffix(labels, col, mode)[0]
        if not tied or suffix < best_suffix:
            best, best_suffix, best_labels = stream, suffix, labels
        elif suffix == best_suffix:
            if parent is None:
                parent = list(range(len(flags)))
                corners = [(a, b, sum(g) - a - b) for g, a, b in flags]
                index = {c: j for j, c in enumerate(corners)}
            sigma = dict(zip(best_labels, labels))
            gens.append(sigma)
            _join_images(parent, index, corners, sigma)
    nv, nf = len(t.vertices), len(t.faces)
    width = "H" if nf < 65536 else "I"
    body = struct.pack(f">{2 + 3 * nf}{width}", nv, nf, *chain.from_iterable(best))
    code = CanonicalCode(mode.value, body + best_suffix)
    return code, best_labels, gens


def _backtrack(order, candidates, adj1, adj2, faces1_set, faces2_set):
    assign: dict[int, int] = {}
    used: set[int] = set()

    def place(i):
        if i == len(order):
            mapped = face_set(
                (assign[a], assign[b], assign[c]) for a, b, c in faces1_set
            )
            return mapped == faces2_set
        v = order[i]
        for u in candidates[v]:
            if u in used:
                continue
            ok = True
            for w, x in assign.items():
                if (w in adj1[v]) != (x in adj2[u]):
                    ok = False
                    break
            if not ok:
                continue
            assign[v] = u
            used.add(u)
            if place(i + 1):
                return True
            del assign[v]
            used.discard(u)
        return False

    return dict(assign) if place(0) else None


def brute_isomorphism(faces1, faces2, col1=None, col2=None, mode="ignore"):
    """A face-preserving vertex bijection, or None.

    mode "ignore" disregards colors, "fixed" requires col2[phi(v)] == col1[v],
    "up-to-permutation" allows any relabeling of the three colors first.
    """
    f1, f2 = face_set(faces1), face_set(faces2)
    vs1, vs2 = vertices_of(f1), vertices_of(f2)
    if len(vs1) != len(vs2) or len(f1) != len(f2):
        return None
    adj1, adj2 = neighbors_of(f1), neighbors_of(f2)
    deg1 = {v: len(adj1[v]) for v in vs1}
    deg2 = {v: len(adj2[v]) for v in vs2}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return None

    if mode == "up-to-permutation":
        for perm in color_permutations():
            recolored = {v: perm[c] for v, c in col1.items()}
            phi = brute_isomorphism(f1, f2, recolored, col2, "fixed")
            if phi is not None:
                return phi
        return None

    def key1(v):
        return (deg1[v], col1[v]) if mode == "fixed" else (deg1[v],)

    def key2(v):
        return (deg2[v], col2[v]) if mode == "fixed" else (deg2[v],)

    candidates = {v: sorted(u for u in vs2 if key2(u) == key1(v)) for v in vs1}
    if any(not c for c in candidates.values()):
        return None

    # Assign in a connectivity-aware order so the adjacency check bites early.
    start = min(vs1, key=lambda v: (len(candidates[v]), -deg1[v], v))
    order, seen = [start], {start}
    frontier = [start]
    while frontier:
        v = frontier.pop(0)
        for w in sorted(adj1[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                frontier.append(w)
    order.extend(sorted(vs1 - seen))

    return _backtrack(order, candidates, adj1, adj2, f1, f2)


def bip_neighbors(vertices, edges):
    nbr = {v: set() for v in vertices}
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def brute_bip_isomorphism(parts1, edges1, parts2, edges2):
    """A part-respecting bijection preserving the edge set exactly, or None.

    Tries both ways of matching up the two sides.
    """
    vs1, vs2 = set(parts1), set(parts2)
    e1 = {tuple(sorted(e)) for e in edges1}
    e2 = {tuple(sorted(e)) for e in edges2}
    if len(vs1) != len(vs2) or len(e1) != len(e2):
        return None
    adj1 = bip_neighbors(vs1, e1)
    adj2 = bip_neighbors(vs2, e2)
    deg1 = {v: len(adj1[v]) for v in vs1}
    deg2 = {v: len(adj2[v]) for v in vs2}

    for swap in (False, True):
        def side(v):
            p = parts2[v]
            return 1 - p if swap else p

        candidates = {
            v: sorted(
                u for u in vs2 if side(u) == parts1[v] and deg2[u] == deg1[v]
            )
            for v in vs1
        }
        if any(not c for c in candidates.values()):
            continue
        order = sorted(vs1, key=lambda v: (len(candidates[v]), -deg1[v], v))

        assign: dict[int, int] = {}
        used: set[int] = set()

        def place(i):
            if i == len(order):
                mapped = {tuple(sorted((assign[u], assign[v]))) for u, v in e1}
                return mapped == e2
            v = order[i]
            for u in candidates[v]:
                if u in used:
                    continue
                if any((w in adj1[v]) != (x in adj2[u]) for w, x in assign.items()):
                    continue
                assign[v] = u
                used.add(u)
                if place(i + 1):
                    return True
                del assign[v]
                used.discard(u)
            return False

        if place(0):
            return dict(assign)
    return None


def reference_apply_bip(parts, edges, kind, args):
    """One bipartite operation on plain data, written from its definition.

    kind is the operation's name (add-leaf, split-edge, add-corner, del-leaf,
    smooth-path, del-corner).  Returns the new (parts, edges), or None when
    a precondition fails.
    """
    parts = dict(parts)
    edges = {tuple(sorted(e)) for e in edges}
    nbr = bip_neighbors(parts, edges)

    def edge(u, v):
        return tuple(sorted((u, v))) in edges

    def new(*vs):
        return len(set(vs)) == len(vs) and not any(v in parts for v in vs)

    def drop(w):
        for v in nbr[w]:
            edges.discard(tuple(sorted((v, w))))
        del parts[w]

    if kind == "add-leaf":
        v, w = args
        if v not in parts or not new(w):
            return None
        parts[w] = 1 - parts[v]
        edges.add(tuple(sorted((v, w))))
    elif kind == "split-edge":
        u, v, p, q = args
        if not edge(u, v) or not new(p, q):
            return None
        edges.remove(tuple(sorted((u, v))))
        parts[p], parts[q] = parts[v], parts[u]
        edges.update(tuple(sorted(e)) for e in ((u, p), (p, q), (q, v)))
    elif kind == "add-corner":
        x, y, z, w = args
        if not (x != y and edge(x, z) and edge(y, z)) or edge(x, y) or not new(w):
            return None
        parts[w] = 1 - parts[x]
        edges.update(tuple(sorted(e)) for e in ((x, w), (y, w)))
    elif kind == "del-leaf":
        (w,) = args
        if len(nbr.get(w, ())) != 1:
            return None
        drop(w)
    elif kind == "smooth-path":
        u, p, q, v = args
        if len({u, p, q, v}) != 4 or not (edge(u, p) and edge(p, q) and edge(q, v)):
            return None
        if len(nbr[p]) != 2 or len(nbr[q]) != 2 or edge(u, v):
            return None
        drop(p)
        drop(q)
        edges.add(tuple(sorted((u, v))))
    else:
        (w,) = args
        if len(nbr.get(w, ())) != 2:
            return None
        x, y = nbr[w]
        if not (nbr[x] & nbr[y]) - {w}:
            return None
        drop(w)
    return parts, edges


def reference_normalize(g, ops):
    """normalize_sequence by replaying the whole prefix from g at every step.

    Every graph is built through the validating BipGraph constructor from
    reference_apply_bip's plain data; the rewrite case analysis and the
    isomorphism search are the package's.  Takes and returns package
    objects.  Assumes ops apply to g.
    """
    from baltri.bipartite import BipGraph, _rewrite_pair, find_isomorphism

    def replay(h, seq):
        for op in seq:
            out = reference_apply_bip(h.parts, h.edges, op.kind.value, op.args)
            assert out is not None, f"{op} does not apply"
            h = BipGraph(*out)
        return h

    # rename re-created ids, so that every creation is globally unique
    used = set(g.parts)
    for op in ops:
        used.update(op.args)
    counter = max(used, default=-1)
    seen = set(g.parts)
    rename = {}
    seq = []
    for op in ops:
        op = op.relabeled(rename)
        for c in op.created():
            if c in seen:
                counter += 1
                rename[c] = counter
            seen.add(rename.get(c, c))
        seq.append(op.relabeled(rename))

    def fresh():
        nonlocal counter
        counter += 1
        return counter

    while True:
        inverses = [i for i, op in enumerate(seq) if not op.is_forward()]
        if not inverses:
            return seq
        i = inverses[0]
        assert i > 0
        before = replay(g, seq[: i - 1])
        replacement = _rewrite_pair(before, seq[i - 1], seq[i], fresh)
        relabel = find_isomorphism(
            replay(before, seq[i - 1 : i + 1]), replay(before, replacement)
        )
        assert relabel is not None
        seq = seq[: i - 1] + replacement + [op.relabeled(relabel) for op in seq[i + 1 :]]


def _link_graphs(faces, vertices):
    """Each vertex's link graph as adjacency lists.

    Each face contributes, to each of its corners, the link edge between the
    other two; vertices must hold every corner of faces.
    """
    link_adj = {v: {} for v in vertices}
    for a, b, c in faces:
        link_adj[a].setdefault(b, []).append(c)
        link_adj[a].setdefault(c, []).append(b)
        link_adj[b].setdefault(a, []).append(c)
        link_adj[b].setdefault(c, []).append(a)
        link_adj[c].setdefault(a, []).append(b)
        link_adj[c].setdefault(b, []).append(a)
    return link_adj


def _link_cycle(v, around):
    """The link of v as Triangulation.link_cycle gives it, or PinchedVertex.

    around maps each neighbor of v to the link neighbors it has, one per
    face on that edge.
    """
    from baltri.errors import PinchedVertex

    # 2-regularity of the link graph is already implied by the edge check,
    # but a short guard keeps failure modes separate.
    for w, nbrs in around.items():
        if len(nbrs) != 2:
            raise PinchedVertex(f"link of vertex {v + 1} is not 2-regular at {w + 1}")
    start = min(around)
    prev, cur = start, min(around[start])
    cycle = [start]
    while cur != start:
        cycle.append(cur)
        x, y = around[cur]
        prev, cur = cur, (y if x == prev else x)
    if len(cycle) != len(around):
        raise PinchedVertex(f"link of vertex {v + 1} splits into more than one cycle")
    if len(cycle) < 3:
        raise PinchedVertex(f"link of vertex {v + 1} is shorter than 3")
    return tuple(cycle)


def reference_validate(face_list):
    """validate as the package once wrote it: links read off per-vertex link
    graphs, connectivity checked by a face-adjacency search.

    Raises DegenerateFace, DuplicateFace, NonManifoldEdge, PinchedVertex,
    Disconnected or ImpossibleSurface; on success returns the Triangulation
    with its edge faces and vertex links indexed.
    """
    from baltri.errors import (
        DegenerateFace,
        Disconnected,
        DuplicateFace,
        ImpossibleSurface,
        NonManifoldEdge,
    )
    from baltri.surface import Triangulation, face_key, is_orientable

    faces = []
    seen = set()
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

    # Every edge must lie in exactly two faces.
    edge_faces = {}
    for f in faces:
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            edge_faces.setdefault(e, []).append(f)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise NonManifoldEdge(
                f"edge {{{e[0] + 1},{e[1] + 1}}} lies in {len(fs)} face(s), expected 2"
            )

    vertices = sorted({v for f in faces for v in f})

    # Link of every vertex must be a single cycle.  Each incident face
    # contributes one link edge between the other two corners; with every
    # edge in exactly two faces the link graph is 2-regular, so it is a
    # single cycle iff it is connected.
    link_adj = _link_graphs(faces, vertices)
    links = {v: _link_cycle(v, link_adj[v]) for v in vertices}

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

    thirds = {e: tuple(sum(f) - sum(e) for f in fs) for e, fs in edge_faces.items()}
    t = Triangulation(tuple(faces), thirds, links)

    # Closed-surface sanity: the classification forces chi <= 2, with even
    # chi on orientable surfaces.
    chi = t.euler_characteristic()
    if chi > 2 or (chi % 2 and is_orientable(t)):
        raise ImpossibleSurface(
            f"no closed surface has Euler characteristic {chi} and this orientability"
        )
    return t


def reference_parse_tri(text):
    """parse_tri as the package once wrote it: every line checked as it is
    read, through fileio's line helpers, with its own check that a number
    is plain decimal: an optional '-', then ASCII digits."""
    from baltri.errors import ParseError
    from baltri.fileio import _significant_lines, _vertex
    from baltri.surface import Coloring, validate

    def _int_fields(ln, fields, what):
        if not all(f[f.startswith("-"):].isdigit() and f.isascii() for f in fields):
            raise ParseError(f"line {ln}: {what} must be integers, got {fields!r}")
        return [int(f) for f in fields]

    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty input")
    ln, fields = lines[0]
    if len(fields) != 4 or fields[:2] != ["p", "tri"]:
        raise ParseError(f"line {ln}: expected header 'p tri N N', got {' '.join(fields)!r}")
    (nv, nf), rest = _int_fields(ln, fields[2:], "header counts"), lines[1:]
    faces: list[tuple[int, int, int]] = []
    colors: list[int] | None = None
    for ln, fields in rest:
        if fields[0] == "k":
            if colors is not None:
                raise ParseError(f"line {ln}: second 'k' line")
            vals = _int_fields(ln, fields[1:], "colors")
            if len(vals) != nv:
                raise ParseError(f"line {ln}: expected {nv} colors, got {len(vals)}")
            if not all(1 <= c <= 3 for c in vals):
                raise ParseError(f"line {ln}: colors must lie in 1..3")
            colors = vals
        elif fields[0] == "f":
            vals = _int_fields(ln, fields[1:], "face vertices")
            if len(vals) != 3:
                raise ParseError(f"line {ln}: a face needs 3 vertices, got {len(vals)}")
            faces.append(tuple(_vertex(ln, v, nv) for v in vals))
        else:
            raise ParseError(f"line {ln}: unknown record {fields[0]!r}")
    if len(faces) != nf:
        raise ParseError(f"header promises {nf} faces, found {len(faces)}")
    tri = validate(faces)
    if tri.vertex_count != nv:
        raise ParseError(
            f"header promises {nv} vertices, faces use {tri.vertex_count}"
        )
    col = Coloring({v: colors[v] - 1 for v in range(nv)}) if colors else None
    return tri, col


def reference_parse_bip_script(text):
    """parse_bip_script as the package once wrote it: every line checked as
    it is read, with its own check that a number is plain decimal: an
    optional '-', then ASCII digits."""
    from baltri.bipartite import BipOp, BipOpKind
    from baltri.errors import ParseError
    from baltri.fileio import _significant_lines

    kinds = {k.value: k for k in BipOpKind}
    ops = []
    for ln, fields in _significant_lines(text):
        kind = kinds.get(fields[0])
        if kind is None:
            raise ParseError(f"line {ln}: unknown operation {fields[0]!r}")
        args = fields[1:]
        if not all(f[f.startswith("-"):].isdigit() and f.isascii() for f in args):
            raise ParseError(
                f"line {ln}: operation arguments must be integers, got {args!r}"
            )
        vals = [int(f) for f in args]
        if len(vals) != kind.arity:
            raise ParseError(
                f"line {ln}: {kind.value} takes {kind.arity} arguments, "
                f"got {len(vals)}"
            )
        if any(v < 1 for v in vals):
            raise ParseError(f"line {ln}: vertex numbers start at 1")
        ops.append(BipOp(kind, tuple(v - 1 for v in vals)))
    return ops


def reference_is_orientable(t):
    """is_orientable as the package once wrote it: a breadth-first walk that
    stores an oriented tuple per face and compares rotations.  Does not read
    or write t's cached answer."""
    from baltri.surface import edge_key

    _, edge_faces = _sorted_faces(t.faces)
    orientation = {}
    first = t.faces[0]
    orientation[first] = first
    queue = deque([first])
    while queue:
        f = queue.popleft()
        a, b, c = orientation[f]
        for x, y in ((a, b), (b, c), (c, a)):
            g1, g2 = edge_faces[edge_key(x, y)]
            g = g2 if g1 == f else g1
            want = (y, x, g[0] + g[1] + g[2] - x - y)
            if g in orientation:
                got = orientation[g]
                if want not in (got, got[1:] + got[:1], got[2:] + got[:2]):
                    return False  # g is not oriented the same way round
            else:
                orientation[g] = want
                queue.append(g)
    return True


def reference_find_coloring(t):
    """find_coloring as the package once wrote it: its own breadth-first face
    walk with a handled set, forcing each far corner's color; NotBalanced on a
    contradiction or an improper result."""
    from baltri.errors import NotBalanced
    from baltri.surface import Coloring, is_proper

    _, edge_faces = _sorted_faces(t.faces)
    color = {}
    first = t.faces[0]
    for c, v in enumerate(first):
        color[v] = c
    queue = deque([first])
    handled = {first}
    while queue:
        f = queue.popleft()
        a, b, c = f
        for x, y in ((a, b), (a, c), (b, c)):
            g1, g2 = edge_faces[(x, y)]
            g = g2 if g1 == f else g1
            z = next(w for w in g if w != x and w != y)
            forced = 3 - color[x] - color[y]
            if z in color:
                if color[z] != forced:
                    raise NotBalanced(
                        f"coloring contradiction at vertex {z + 1}: "
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


def reference_subdivision_obstruction(t1, t2):
    """subdivision_obstruction as the package once wrote it: each color class
    of the larger side deleted in turn, as an EvenEmbedding, and the minimum
    degree read off the bipartite graph left.  Takes package objects and
    returns a Verdict."""
    from baltri.canon import is_isomorphic
    from baltri.embeddings import Verdict, delete_color_class
    from baltri.surface import find_coloring, surface_id

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
            if delete_color_class(tri, col, color).graph.min_degree() >= 3:
                return Verdict.UNREACHABLE
    return Verdict.INCONCLUSIVE


def reference_apply_flip(t, site, col=None):
    """apply_flip by rebuilding: swap the faces, then validate the whole list.

    The move rule (its checks, the faces it removes and adds, the color
    sources) is the package's; the result comes from the validating
    constructor alone.  Takes and returns package objects.
    """
    from baltri.errors import WouldCreateDuplicateFace
    from baltri.surface import validate

    rem, gone, add, color_src, _ = site.kind._rule(t, site.vertices)
    faces = set(t.faces)
    faces.difference_update(rem)
    for f in add:
        if f in faces:
            raise WouldCreateDuplicateFace(f"face {f} already exists")
        faces.add(f)
    t2 = validate(sorted(faces))
    if col is None:
        return t2, None
    return t2, col.updated({v: col[src] for v, src in color_src.items()}, removed=gone)


def reference_bew_patch(t, p, q):
    """bew_patch as the package once wrote it: the patch (a, b, c, d) around
    the pair p, q found from their neighbor sets, or InvalidSite."""
    from baltri.errors import InvalidSite

    for v in (p, q):
        if v not in t.vertices:
            raise InvalidSite(f"no vertex {v}")
        if t.degree(v) != 4:
            raise InvalidSite(f"vertex {v} has degree {t.degree(v)}, needs 4")
    if not t.has_edge(p, q):
        raise InvalidSite(f"vertices {p} and {q} are not adjacent")
    common = t.neighbors(p) & t.neighbors(q)
    if len(common) != 2:
        raise InvalidSite(f"vertices {p} and {q} share {len(common)} neighbors, need 2")
    c, d = sorted(common)
    rest_q = t.neighbors(q) - {p, c, d}
    rest_p = t.neighbors(p) - {q, c, d}
    if len(rest_q) != 1 or len(rest_p) != 1:
        raise InvalidSite(f"vertices {p} and {q} do not bound a double subdivision")
    (a,) = rest_q
    (b,) = rest_p
    return a, b, c, d


def reference_inverse_site(t, site):
    """inverse_site, one branch per move kind.

    Validates site with the package's rule, then names the undo site from
    the site tuple and the ids the move will create.  Takes and returns
    package objects.
    """
    from baltri.flips import FlipKind, FlipSite
    from baltri.surface import face_key

    site.kind._rule(t, site.vertices)  # validate against t
    m = t.max_vertex_id
    k, v = site.kind, site.vertices
    if k is FlipKind.BTS:
        return FlipSite(FlipKind.BTW, (m + 1, m + 2, m + 3) + v)
    if k is FlipKind.BTW:
        return FlipSite(FlipKind.BTS, face_key(*v[3:]))
    if k is FlipKind.BES:
        return FlipSite(FlipKind.BEW, (m + 1, m + 2))
    if k is FlipKind.BEW:
        a, b, c, d = reference_bew_patch(t, *v)
        if a > b:
            a, b = b, a
        return FlipSite(FlipKind.BES, (a, b, c, d))
    if k is FlipKind.PS:
        vv, w, x, y, z = v
        if w > z:
            w, x, y, z = z, y, x, w
        return FlipSite(FlipKind.PC, (m + 1, w, x, y, z, vv))
    if k is FlipKind.PC:
        u, w, x, y, z, vv = v
        if w > z:
            w, x, y, z = z, y, x, w
        return FlipSite(FlipKind.PS, (vv, w, x, y, z))
    if k is FlipKind.NFLIP:
        v1, v2, v3, v4, v5, v6 = v
        back = (v2, v1, v6, v5, v4, v3)
        return FlipSite(FlipKind.NFLIP, min(back, back[3:] + back[:3]))
    # the last kind, P2FLIP
    v1, v2, v3, v4, v5, _, _ = v
    return FlipSite(FlipKind.P2FLIP, (v1, v5, v4, v3, v2, m + 1, m + 2))


# -- enumerate_sites by candidate and rule ------------------------------------
#
# Each _candidates_* reads candidate tuples off the given faces, edges or
# vertices of t, one element at a time; reference_enumerate_sites keeps
# those the package's rule accepts.  They take package objects.

def _candidates_bts(t, faces):
    yield from faces


def _candidates_btw(t, faces):
    for f in faces:
        p, q, r = f
        if t.degree(p) != 4 or t.degree(q) != 4 or t.degree(r) != 4:
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


def _candidates_bes(t, edges):
    for a, b in edges:
        c, d = t.edge_opposites(a, b)
        yield (a, b, c, d)


def _candidates_bew(t, edges):
    for p, q in edges:
        if t.degree(p) == 4 and t.degree(q) == 4:
            yield (p, q)


def _candidates_ps(t, vertices):
    from baltri.flips import _fan

    for v in vertices:
        link = t.link_cycle(v)
        if len(link) < 4:
            continue
        for i in range(len(link)):
            yield (v, *_fan(link[i - 3], link[i - 2], link[i - 1], link[i]))


def _candidates_pc(t, vertices):
    from baltri.flips import _fan

    for u in vertices:
        if t.degree(u) != 4:
            continue
        link = t.link_cycle(u)
        for i in range(4):
            w, x, y, z = _fan(link[i], link[i - 1], link[i - 2], link[i - 3])
            v = t.other_face_third(w, z, u)
            yield (u, w, x, y, z, v)


def _candidates_nflip(t, edges):
    from baltri.flips import _hexagon

    for e1, e2 in edges:
        thirds = t.edge_opposites(e1, e2)
        for v1, v4 in ((e1, e2), (e2, e1)):
            for v3 in thirds:
                v6 = thirds[0] if v3 == thirds[1] else thirds[1]
                v2 = t.other_face_third(v1, v3, v4)
                v5 = t.other_face_third(v4, v6, v1)
                yield _hexagon((v1, v2, v3, v4, v5, v6))


def _candidates_p2flip(t, edges):
    for e1, e2 in edges:
        if t.degree(e1) != 4 or t.degree(e2) != 4:
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


_CANDIDATES = {
    "bts": (_candidates_bts, "faces"),
    "btw": (_candidates_btw, "faces"),
    "bes": (_candidates_bes, "edges"),
    "bew": (_candidates_bew, "edges"),
    "ps": (_candidates_ps, "vertices"),
    "pc": (_candidates_pc, "vertices"),
    "nflip": (_candidates_nflip, "edges"),
    "p2flip": (_candidates_p2flip, "edges"),
}


def reference_verdicts(t, kind):
    """Each distinct candidate tuple of kind read off all of t's faces, edges
    or vertices, mapped to whether the package's rule accepts it.

    Takes package objects.
    """
    from baltri.errors import InvalidSite

    candidates, elements = _CANDIDATES[kind.value]
    rewrite = kind._rule
    verdicts = {}
    for tup in candidates(t, getattr(t, elements)):
        if tup in verdicts:
            continue
        try:
            rewrite(t, tup)
        except InvalidSite:
            verdicts[tup] = False
        else:
            verdicts[tup] = True
    return verdicts


def reference_enumerate_sites(t, kinds=None):
    """enumerate_sites by running each kind's rule on every candidate tuple:
    the accepted ones, sorted within each kind.

    Takes and returns package objects.
    """
    from baltri.flips import FlipKind, FlipSite

    want = FlipKind if kinds is None else sorted(set(kinds), key=lambda k: k.rank)
    out = []
    for kind in want:
        found = [tup for tup, ok in reference_verdicts(t, kind).items() if ok]
        out.extend(FlipSite(kind, tup) for tup in sorted(found))
    return out


def reference_relabel(t, col, labels, mode):
    """The form under the label map labels, through validate, and col renamed
    as color_suffix renames it in mode (None when that gives no renaming)."""
    from baltri.surface import Coloring, validate

    perm = color_suffix(labels, col, mode)[1]
    faces = [
        tuple(sorted((labels[a], labels[b], labels[c])))
        for a, b, c in t.faces
    ]
    new_col = None
    if perm is not None:
        new_col = Coloring({labels[v]: perm[col[v]] for v in t.vertices})
    return validate(faces), new_col


def reference_bfs(t, col, kinds, *, max_vertices, max_states):
    """bfs without orbit pruning: every listed site of every state is applied.

    Takes and returns package objects, as (start, states, edges, truncated)
    with the fields of bfs's FlipGraphView.
    """
    from baltri.canon import ColorMode, _canonical
    from baltri.flips import apply_flip, enumerate_sites

    mode = ColorMode.UP_TO_PERMUTATION
    start, labels, _ = _canonical(t, col, mode)
    states = {start: reference_relabel(t, col, labels, mode)}
    edges = set()
    frontier = [start]
    truncated = False
    while frontier:
        nxt = []
        for code in sorted(frontier):
            cur, ccol = states[code]
            for site in enumerate_sites(cur, kinds):
                if cur.vertex_count + site.kind.delta > max_vertices:
                    continue
                child, childcol = apply_flip(cur, site, ccol)
                ccode, labels, _ = _canonical(child, childcol, mode)
                if ccode not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[ccode] = reference_relabel(child, childcol, labels, mode)
                    nxt.append(ccode)
                edges.add((code, site.kind, ccode))
        frontier = nxt
    edges = sorted(edges, key=lambda e: (e[0], e[1].value, e[2]))
    return start, states, tuple(edges), truncated


def reference_connect(t1, t2, col1, col2, kinds, *, max_vertices, max_states):
    """connect without orbit pruning: the same bidirectional search, applying
    every listed site.  Returns the path or raises the same error types;
    kinds must be a sequence of FlipKind."""
    from baltri.canon import ColorMode, _canonical
    from baltri.errors import NotConnectedWithinCaps, SurfaceMismatch
    from baltri.flips import FlipSite, apply_flip, enumerate_sites, inverse_site
    from baltri.surface import surface_id

    mode = ColorMode.UP_TO_PERMUTATION
    back_kinds = tuple(dict.fromkeys(k.inverse for k in kinds))
    if surface_id(t1) != surface_id(t2):
        raise SurfaceMismatch("the inputs lie on two surfaces")
    # side entry: (state, parent code, site); side 0's site acts on the
    # parent form, side 1's on this form and steps toward t2
    sides = [{}, {}]
    frontiers = [[], []]
    for idx, (t, col) in enumerate(((t1, col1), (t2, col2))):
        code, labels, _ = _canonical(t, col, mode)
        sides[idx][code] = (reference_relabel(t, col, labels, mode), None, None)
        frontiers[idx] = [code]

    def to_start(side, code):
        steps = []
        while side[code][1] is not None:
            _, code, site = side[code]
            steps.append(site)
        return steps

    def assemble(meet):
        return to_start(sides[0], meet)[::-1] + to_start(sides[1], meet)

    if frontiers[0][0] in sides[1]:
        return assemble(frontiers[0][0])
    stalled = [False, False]
    while not all(stalled):
        idx = sorted((0, 1), key=lambda i: (stalled[i], len(sides[i])))[0]
        here, there = sides[idx], sides[1 - idx]
        nxt = []
        for code in sorted(frontiers[idx]):
            cur, ccol = here[code][0]
            for site in enumerate_sites(cur, kinds if idx == 0 else back_kinds):
                if cur.vertex_count + site.kind.delta > max_vertices:
                    continue
                raw, rawcol = apply_flip(cur, site, ccol)
                ccode, labels, _ = _canonical(raw, rawcol, mode)
                if ccode in here:
                    continue
                if len(here) >= max_states and ccode not in there:
                    continue
                state = reference_relabel(raw, rawcol, labels, mode)
                if idx == 0:
                    here[ccode] = (state, code, site)
                else:
                    back = inverse_site(cur, site)
                    mapped = FlipSite(back.kind, tuple(labels[v] for v in back.vertices))
                    here[ccode] = (state, code, mapped)
                if ccode in there:
                    return assemble(ccode)
                nxt.append(ccode)
        frontiers[idx] = nxt
        if not nxt or len(here) >= max_states:
            stalled[idx] = True
    raise NotConnectedWithinCaps("no path within the caps")
