"""Stand-alone reference code the benchmark uses to make inputs and check outputs.

Nothing here imports baltri.  Triangulations are plain face lists over
integer ids with an optional color dict; bipartite graphs are a parts dict
plus a set of sorted edge pairs; operations are (name, args) with 0-based
args.  The text formats follow the file formats documented in the README,
written from that description rather than from the package's own code.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import networkx as nx


# -- text formats ----------------------------------------------------------------

def _records(text):
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            yield body


def parse_tri(text):
    """(vertex count, faces with 0-based ids, colors dict or None)."""
    records = list(_records(text))
    head = records[0]
    if head[:2] != ["p", "tri"] or len(head) != 4:
        raise ValueError(f"bad header {' '.join(head)!r}")
    nv, nf = int(head[2]), int(head[3])
    faces, colors = [], None
    for rec in records[1:]:
        if rec[0] == "k":
            colors = {v: int(c) - 1 for v, c in enumerate(rec[1:])}
        elif rec[0] == "f":
            faces.append(tuple(int(x) - 1 for x in rec[1:]))
        else:
            raise ValueError(f"unknown record {rec[0]!r}")
    if len(faces) != nf:
        raise ValueError(f"header promises {nf} faces, found {len(faces)}")
    return nv, faces, colors


def format_tri(faces, colors=None):
    """Write faces renumbered to 1..V in sorted id order, faces sorted."""
    order = {v: i for i, v in enumerate(sorted({v for f in faces for v in f}))}
    lines = [f"p tri {len(order)} {len(faces)}"]
    if colors is not None:
        lines.append("k " + " ".join(str(colors[v] + 1) for v in sorted(order)))
    for f in sorted(tuple(sorted(order[v] for v in f)) for f in faces):
        lines.append("f " + " ".join(str(v + 1) for v in f))
    return "\n".join(lines) + "\n"


def relabel_tri(text, rng):
    """The same triangulation under a random vertex, color and face order."""
    nv, faces, colors = parse_tri(text)
    perm = list(range(nv))
    rng.shuffle(perm)
    cperm = [0, 1, 2]
    rng.shuffle(cperm)
    out = [tuple(perm[v] for v in f) for f in faces]
    rng.shuffle(out)
    lines = [f"p tri {nv} {len(out)}"]
    if colors is not None:
        by_new = {perm[v]: cperm[c] for v, c in colors.items()}
        lines.append("k " + " ".join(str(by_new[v] + 1) for v in range(nv)))
    for f in out:
        f = list(f)
        rng.shuffle(f)
        lines.append("f " + " ".join(str(v + 1) for v in f))
    return "\n".join(lines) + "\n"


def format_bip(parts, edges):
    order = {v: i for i, v in enumerate(sorted(parts))}
    lines = [f"p bip {len(parts)} {len(edges)}"]
    lines.append("n " + " ".join(str(parts[v]) for v in sorted(parts)))
    for u, v in sorted(tuple(sorted((order[u], order[v]))) for u, v in edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_ops(text):
    return [(rec[0], tuple(int(x) - 1 for x in rec[1:])) for rec in _records(text)]


def format_ops(ops):
    return "".join(
        name + " " + " ".join(str(a + 1) for a in args) + "\n" for name, args in ops
    )


# -- triangulations --------------------------------------------------------------

def _edge(u, v):
    return (u, v) if u < v else (v, u)


def surface_problem(faces):
    """None when every edge lies on two faces and every link is one cycle."""
    edge_count = Counter(_edge(x, y) for a, b, c in faces for x, y in ((a, b), (b, c), (a, c)))
    for e, n in edge_count.items():
        if n != 2:
            return f"edge {e} lies on {n} faces"
    link = defaultdict(lambda: defaultdict(list))
    for a, b, c in faces:
        for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
            link[v][x].append(y)
            link[v][y].append(x)
    for v, around in link.items():
        if any(len(n) != 2 for n in around.values()):
            return f"link of {v} is not 2-regular"
        start = min(around)
        seen, prev, cur = {start}, None, start
        while True:
            nxt = [w for w in around[cur] if w != prev]
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            seen.add(cur)
        if len(seen) != len(around):
            return f"link of {v} is more than one cycle"
    return None


def coloring_problem(faces, colors):
    if colors is None:
        return "no coloring line"
    for f in faces:
        if len({colors[v] for v in f}) != 3:
            return f"face {f} is not properly colored"
    return None


def canonical_form(faces, colors):
    """The relabeled representative the flag-walk canonical code defines.

    Start flags are the (face, directed edge) pairs with the least
    (degree, degree, degree) triple; each one sweeps the face-adjacency graph
    breadth first, naming vertices in first-touch order and crossing every
    edge in the reverse direction.  The least label stream fixes the faces;
    colors are renamed in first-touch order ("up to permutation").
    Returns (sorted faces on 0..V-1, colors by label).
    """
    faces = [tuple(sorted(f)) for f in faces]
    across = defaultdict(list)
    for f in faces:
        a, b, c = f
        for e in ((a, b), (a, c), (b, c)):
            across[e].append(f)
    deg = Counter(v for f in faces for v in f)
    flags, best_key = [], None
    for f in faces:
        a, b, c = f
        for u, v, w in ((a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)):
            key = (deg[u], deg[v], deg[w])
            if best_key is None or key < best_key:
                best_key, flags = key, []
            if key == best_key:
                flags.append((f, u, v))
    best = None
    for f, u, v in flags:
        label, stream = {}, []
        queue, seen = [(f, u, v)], {f}
        for g, a, b in queue:
            (c,) = set(g) - {a, b}
            for x in (a, b, c):
                label.setdefault(x, len(label))
                stream.append(label[x])
            for x, y in ((a, b), (b, c), (c, a)):
                h1, h2 = across[_edge(x, y)]
                h = h2 if h1 == g else h1
                if h not in seen:
                    seen.add(h)
                    queue.append((h, y, x))
        if best is None or stream < best[0]:
            best = (stream, label)
    stream, label = best
    out_faces = sorted({tuple(sorted(stream[i:i + 3])) for i in range(0, len(stream), 3)})
    order = sorted(label, key=label.get)
    rename = {}
    for v in order:
        rename.setdefault(colors[v], len(rename))
    return out_faces, {label[v]: rename[colors[v]] for v in order}


def incidence_graph(faces):
    g = nx.Graph()
    for i, f in enumerate(faces):
        g.add_node(("f", i), kind="f")
        for v in f:
            g.add_node(("v", v), kind="v")
            g.add_edge(("f", i), ("v", v))
    return g


def isomorphic(faces1, faces2):
    """VF2 on the face-vertex incidence graphs."""
    if len(faces1) != len(faces2):
        return False
    return nx.is_isomorphic(
        incidence_graph(faces1),
        incidence_graph(faces2),
        node_match=lambda x, y: x["kind"] == y["kind"],
    )


def triple_subdivide(faces, colors, face):
    """The bts move: face abc -> seven faces around new partners p, q, r."""
    a, b, c = face
    m = max(colors)
    p, q, r = m + 1, m + 2, m + 3
    faces.remove(face)
    faces.extend(
        tuple(sorted(f))
        for f in ((a, b, r), (a, q, c), (p, b, c), (a, q, r), (p, b, r), (p, q, c), (p, q, r))
    )
    colors.update({p: colors[a], q: colors[b], r: colors[c]})


# -- stock triangulations ----------------------------------------------------------

def octahedron():
    faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return faces, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}


def grid_torus(n):
    """The n x n 6-regular torus; balanced when 3 divides n."""
    def v(i, j):
        return (i % n) * n + (j % n)

    faces = []
    for i in range(n):
        for j in range(n):
            faces.append(tuple(sorted((v(i, j), v(i + 1, j), v(i, j + 1)))))
            faces.append(tuple(sorted((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))))
    return faces, {v(i, j): (i - j) % 3 for i in range(n) for j in range(n)}


def cube_subdivision():
    """The cube with every square face coned off (14 vertices, 24 faces)."""
    squares = []
    for axis in range(3):
        lo, hi = [a for a in range(3) if a != axis]
        for value in (0, 1):
            base = value << axis
            squares.append([base | (x << lo) | (y << hi) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))])
    faces, colors = [], {v: bin(v).count("1") % 2 for v in range(8)}
    for i, sq in enumerate(squares):
        cone = 8 + i
        colors[cone] = 2
        faces.extend(tuple(sorted((sq[k], sq[(k + 1) % 4], cone))) for k in range(4))
    return faces, colors


def grown(faces, colors, target, rng):
    """Triple-subdivide random faces until there are at least target vertices."""
    faces, colors = list(faces), dict(colors)
    while len(colors) < target:
        triple_subdivide(faces, colors, faces[rng.randrange(len(faces))])
    return faces, colors


# -- bipartite graphs and operation scripts ------------------------------------------

FORWARD = ("add-leaf", "split-edge", "add-corner")


def _adjacency(parts, edges):
    adj = {v: set() for v in parts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def apply_op(parts, edges, op):
    """One operation on (parts, edges); raises ValueError when it does not apply."""
    parts, edges = dict(parts), set(edges)
    adj = _adjacency(parts, edges)
    name, a = op

    def need(cond, what):
        if not cond:
            raise ValueError(f"{name} {a}: {what}")

    def fresh(*vs):
        need(all(v not in parts for v in vs) and len(set(vs)) == len(vs), "ids in use")

    if name == "add-leaf":
        v, w = a
        need(v in parts, "no such vertex")
        fresh(w)
        parts[w] = 1 - parts[v]
        edges.add(_edge(v, w))
    elif name == "split-edge":
        u, v, p, q = a
        need(_edge(u, v) in edges, "no such edge")
        fresh(p, q)
        edges.remove(_edge(u, v))
        parts[p], parts[q] = parts[v], parts[u]
        edges.update({_edge(u, p), _edge(p, q), _edge(q, v)})
    elif name == "add-corner":
        x, y, z, w = a
        need(x != y and z in adj.get(x, ()) and z in adj.get(y, ()), "no witness")
        need(y not in adj[x], "endpoints adjacent")
        fresh(w)
        parts[w] = 1 - parts[x]
        edges.update({_edge(x, w), _edge(y, w)})
    elif name == "del-leaf":
        (w,) = a
        need(len(adj.get(w, ())) == 1, "not a leaf")
        edges.discard(_edge(w, next(iter(adj[w]))))
        del parts[w]
    elif name == "smooth-path":
        u, p, q, v = a
        need(
            all(x in parts for x in a) and len(adj[p]) == 2 and len(adj[q]) == 2
            and {u, q} == adj[p] and {p, v} == adj[q] and v not in adj[u],
            "not a smoothable path",
        )
        edges.difference_update({_edge(u, p), _edge(p, q), _edge(q, v)})
        del parts[p], parts[q]
        edges.add(_edge(u, v))
    elif name == "del-corner":
        (w,) = a
        need(len(adj.get(w, ())) == 2, "not degree 2")
        x, y = adj[w]
        need(len((adj[x] & adj[y]) - {w}) > 0, "on no 4-cycle")
        edges.difference_update({_edge(w, x), _edge(w, y)})
        del parts[w]
    else:
        raise ValueError(f"unknown operation {name!r}")
    return parts, edges


def apply_ops(parts, edges, ops):
    for op in ops:
        parts, edges = apply_op(parts, edges, op)
    return parts, edges


def bip_isomorphic(g1, g2):
    def as_nx(parts, edges):
        g = nx.Graph()
        g.add_nodes_from(parts)
        g.add_edges_from(edges)
        return g

    return nx.is_isomorphic(as_nx(*g1), as_nx(*g2))


def random_base(rng, max_side, sides=None):
    """A random bipartite graph with min degree 3 and 3..max_side a side.

    sides, when given, fixes the two side sizes.
    """
    while True:
        n0, n1 = sides or (rng.randint(3, max_side), rng.randint(3, max_side))
        pairs = [(i, n0 + j) for i in range(n0) for j in range(n1)]
        rng.shuffle(pairs)
        deg = Counter()
        edges = set()
        for i, j in pairs:
            if len(deg) == n0 + n1 and min(deg.values()) >= 3 and rng.random() < 0.6:
                break
            edges.add((i, j))
            deg[i] += 1
            deg[j] += 1
        if len(deg) == n0 + n1 and min(deg.values()) >= 3:
            return {v: int(v >= n0) for v in range(n0 + n1)}, edges


def applicable_ops(parts, edges, fresh):
    """Every operation that applies, new vertices numbered from fresh."""
    adj = _adjacency(parts, edges)
    ops = [("add-leaf", (v, fresh)) for v in sorted(parts)]
    for u, v in sorted(edges):
        ops.append(("split-edge", (u, v, fresh, fresh + 1)))
        ops.append(("split-edge", (v, u, fresh, fresh + 1)))
    for z in sorted(parts):
        nbrs = sorted(adj[z])
        for i, x in enumerate(nbrs):
            ops.extend(("add-corner", (x, y, z, fresh)) for y in nbrs[i + 1:] if y not in adj[x])
    ops.extend(("del-leaf", (w,)) for w in sorted(parts) if len(adj[w]) == 1)
    for p, q in sorted(edges):
        if len(adj[p]) == 2 and len(adj[q]) == 2:
            (u,) = adj[p] - {q}
            (v,) = adj[q] - {p}
            if v not in adj[u]:
                ops.append(("smooth-path", (u, p, q, v)))
    for w in sorted(parts):
        if len(adj[w]) == 2:
            x, y = adj[w]
            if (adj[x] & adj[y]) - {w}:
                ops.append(("del-corner", (w,)))
    return ops


def random_script(rng, base, length, inverses):
    """A script that applies to base, with about `inverses` inverse ops.

    Inverse ops are due at stratified random steps (one that finds none
    applicable waits for the next step that has one); every other step
    takes a uniformly random forward op.
    """
    due = sorted(int((k + rng.random()) * length / inverses) for k in range(inverses))
    parts, edges = base
    ops = []
    fresh = max(parts) + 1
    for step in range(length):
        choices = applicable_ops(parts, edges, fresh)
        backward = [op for op in choices if op[0] not in FORWARD]
        if due and due[0] <= step and backward:
            due.pop(0)
            op = rng.choice(backward)
        else:
            op = rng.choice([op for op in choices if op[0] in FORWARD])
        parts, edges = apply_op(parts, edges, op)
        ops.append(op)
        fresh = max(fresh, max(parts) + 1)
    return ops


def seeded(seed, label):
    """An independent random stream per (workload seed, purpose)."""
    return random.Random(f"{seed}:{label}")
