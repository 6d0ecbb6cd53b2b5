"""Canonical codes for triangulations and isomorphism testing.

The code is flag based: a flag is a (face, directed edge of that face) pair.
Starting from a flag, a breadth-first sweep over the face-adjacency graph
relabels vertices in first-touch order and emits each visited face as three
labels; crossing an edge flips the traversal direction, so a fixed local
orientation propagates.  The face stream alone reconstructs the face set, so
two triangulations share a code exactly when some flag-to-flag bijection
matches them up, which is exactly isomorphism.  Taking the lexicographic
minimum over all 6F start flags (both directions of every face edge, which
also covers the two local orientations on non-orientable surfaces) removes
the dependence on vertex numbering.

Each sweep is compared with the least stream so far one face triple at a
time, as in plantri (Brinkmann & McKay 2007): it is dropped at the first
larger triple, and after the first smaller one it stops comparing and
becomes the new least.  Only the winner is encoded.

A sweep that ties the least stream and color suffix to the end proves an
automorphism: the vertex labeled L by the least sweep goes to the one
labeled L by this one.  As in nauty (McKay 1981; McKay & Piperno 2014), each
start flag is joined with its image under it in a union-find, and a flag is
skipped once an earlier flag of its class was swept.  A class shares one
stream and suffix, so the first flag reaching the least is never skipped:
code, label map and color renaming are unchanged, and symmetric inputs sweep
a few flags per orbit, not |Aut| of them.  The union-find is built at the
first tie, so inputs without automorphisms run the plain loop.  _canonical
also returns these automorphisms, one per tie, and the flip-graph search
uses them to apply one flip site per orbit (see explorer).

Color handling appends one byte per relabeled vertex after the face stream;
the stream length is fixed by (V, F), so byte-wise comparison stays
lexicographic on (faces, colors).  Up to permutation, colors are renamed in
order of first appearance along the labels: a proper 3-coloring uses all
three, so this is the unique permutation with the least suffix.

Layout: V, F, then the 3F labels, all big-endian of one width: 2 bytes
while F < 65536 (which bounds V and every label below 65536), else 4.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from itertools import chain

from .errors import MissingColoring
from .surface import Coloring, Triangulation, _coloring, validate


class ColorMode(enum.Enum):
    IGNORE = "ignore"
    FIXED = "fixed"
    UP_TO_PERMUTATION = "up-to-permutation"


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Representation-independent byte form of a triangulation."""

    mode: str
    data: bytes

    def hex(self) -> str:
        return self.data.hex()


def _emit_from_flag(t: Triangulation, face, u: int, v: int, best):
    """Sweep from flag (face, u->v) against the least stream `best` so far.

    Returns (stream of label triples or None if it exceeds best, labels,
    whether it ties best).  With best None nothing is compared.
    """
    label: dict[int, int] = {}
    out: list[tuple[int, int, int]] = []
    visited = {face}
    # queue entries: (face key, entry direction a->b)
    queue = [(face, u, v)]
    head = 0
    edge_faces = t._edge_faces
    setdefault = label.setdefault
    tied = best is not None
    while head < len(queue):
        f, a, b = queue[head]
        head += 1
        c = f[0] + f[1] + f[2] - a - b  # the corner off the entry edge
        triple = (
            setdefault(a, len(label)),
            setdefault(b, len(label)),
            setdefault(c, len(label)),
        )
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


def _start_flags(t: Triangulation):
    """Start flags restricted to the minimal degree-triple class.

    The degree triple (deg a, deg b, deg c) of a flag with entry edge a->b
    and third corner c is isomorphism invariant, so the minimal code over
    flags with the minimal triple equals the minimal code over all flags.
    """
    deg = t._degrees
    best_key = None
    flags = []
    for f in t.faces:
        a, b, c = f
        for u, v, w in (
            (a, b, c), (b, a, c), (a, c, b),
            (c, a, b), (b, c, a), (c, b, a),
        ):
            key = (deg[u], deg[v], deg[w])
            if best_key is None or key < best_key:
                best_key = key
                flags = [(f, u, v)]
            elif key == best_key:
                flags.append((f, u, v))
    return flags


def _color_suffix(label: dict[int, int], col: Coloring, mode: ColorMode):
    """Colors in label order and their renaming, for a proper coloring."""
    colors = [col[v] for v in label]
    perm = {0: 0, 1: 1, 2: 2}
    if mode is not ColorMode.FIXED:
        perm = {c: i for i, c in enumerate(dict.fromkeys(colors))}
    return bytes(map(perm.__getitem__, colors)), perm


def canonical_code(
    t: Triangulation,
    col: Coloring | None = None,
    mode: ColorMode | None = None,
) -> CanonicalCode:
    """Lexicographically least code over all start flags (and color perms).

    Raises NotBalanced when a colored mode gets an improper coloring.
    """
    return _checked(t, col, mode)[0]


def canonical_form(
    t: Triangulation,
    col: Coloring | None = None,
    mode: ColorMode | None = None,
) -> tuple[Triangulation, Coloring | None, dict[int, int]]:
    """Relabeled representative whose code equals t's, plus the label map.

    Returns (triangulation on ids 0..V-1, coloring or None in IGNORE mode,
    map original id -> canonical id).  Isomorphic inputs produce identical
    representatives, which makes the form usable as a search-state key that
    can still be flipped further.  Raises NotBalanced as canonical_code does.
    """
    _, labels, perm, _ = _checked(t, col, mode)
    return (*_relabel(t, col, labels, perm), labels)


def _checked(t, col, mode):
    """_canonical, a colored mode's coloring first passing surface's gate; the
    search skips the gate, as its colorings are found or made by flips."""
    if mode is None:
        mode = ColorMode.IGNORE if col is None else ColorMode.UP_TO_PERMUTATION
    if mode is not ColorMode.IGNORE and col is not None:
        col = _coloring(t, col)
    return _canonical(t, col, mode)


def _relabel(t: Triangulation, col, labels: dict[int, int], perm):
    """The form under a label map, and its coloring renamed by perm (or None)."""
    faces = [
        tuple(sorted((labels[a], labels[b], labels[c])))
        for a, b, c in t.faces
    ]
    new_col = None
    if perm is not None:
        new_col = Coloring({labels[v]: perm[col[v]] for v in t.vertices})
    return validate(faces), new_col


def _canonical(t, col, mode):
    """(code, label map, color renaming or None in IGNORE mode, automorphisms:
    one map per tie, in t's ids, keeping colors up to one permutation)."""
    if mode is not ColorMode.IGNORE and col is None:
        raise MissingColoring(f"mode {mode.value!r} requires a coloring")
    best = best_labels = best_perm = parent = None
    best_suffix = b""
    gens: list[dict[int, int]] = []
    flags = _start_flags(t)
    for i, (f, u, v) in enumerate(flags):
        if parent is not None and _find(parent, i) != i:
            continue  # an earlier flag of its class was swept
        stream, labels, tied = _emit_from_flag(t, f, u, v, best)
        if stream is None:
            continue
        suffix, perm = b"", None
        if mode is not ColorMode.IGNORE:
            suffix, perm = _color_suffix(labels, col, mode)
        if not tied or suffix < best_suffix:
            best, best_suffix = stream, suffix
            best_labels, best_perm = labels, perm
        elif suffix == best_suffix:
            if parent is None:
                parent = list(range(len(flags)))
                corners = [(a, b, sum(g) - a - b) for g, a, b in flags]
                index = {c: j for j, c in enumerate(corners)}
            # label maps list vertices in label order, so zipping them gives
            # the map sending the best sweep onto this one
            sigma = dict(zip(best_labels, labels))
            gens.append(sigma)
            _join_images(parent, index, corners, sigma)
    nv, nf = len(t.vertices), len(t.faces)
    width = "H" if nf < 65536 else "I"
    body = struct.pack(f">{2 + 3 * nf}{width}", nv, nf, *chain.from_iterable(best))
    return CanonicalCode(mode.value, body + best_suffix), best_labels, best_perm, gens


def _find(parent: list[int], i: int) -> int:
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


def is_isomorphic(
    t1: Triangulation,
    t2: Triangulation,
    col1: Coloring | None = None,
    col2: Coloring | None = None,
    mode: ColorMode | None = None,
) -> bool:
    """Code equality; mode defaults to up-to-permutation when colored.

    With no colorings supplied the comparison ignores colors, matching the
    uncolored notion of isomorphism; on balanced triangulations the colored
    and uncolored notions agree because colorings are unique up to
    permutation.
    """
    if mode is None:
        mode = (
            ColorMode.UP_TO_PERMUTATION
            if col1 is not None and col2 is not None
            else ColorMode.IGNORE
        )
    if len(t1.vertices) != len(t2.vertices) or len(t1.faces) != len(t2.faces):
        return False
    return canonical_code(t1, col1, mode) == canonical_code(t2, col2, mode)
