"""Canonical codes for triangulations and isomorphism testing.

The code is flag based: a flag is a face with a directed edge of it.  From a
start flag, a breadth-first sweep over the face-adjacency graph labels
vertices in first-touch order and emits each face as three labels; crossing an
edge reverses its direction, so one local orientation propagates.  The stream
rebuilds the face set, so two triangulations share a code exactly when they
are isomorphic, and the least stream over all 6F start flags (both directions
of each face edge, covering both local orientations on non-orientable
surfaces) does not depend on vertex ids.

Each sweep is compared with the least stream so far one face triple at a time,
as in plantri (Brinkmann & McKay 2007): it is dropped at the first larger
triple, and at the first smaller one it is suspended, not finished, as the new
least.  Later sweeps resume it in doubling chunks as far as they compare, and
a tie compares to the end, so only the winner is finished.  The sweeps run on
a face index built once per call: each face's corner sum and, per corner, the
position of the face across the opposite edge.  Crossing an edge is then one
small-int lookup and one byte test, and a face labels only its third corner,
as the face that queued it labeled the other two.

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
A CanonicalCode is the plain tuple (mode value, these bytes), equal to it.
A code decodes back to its form: the faces are the label triples, the
coloring gives vertex i the suffix's byte i, and the width follows from the
length, as a 4-byte code is longer than any 2-byte one can be.
"""

from __future__ import annotations

import enum
import struct
from collections import namedtuple
from itertools import chain

from .errors import MissingColoring
from .surface import Coloring, Triangulation, _coloring, face_key, validate


class ColorMode(enum.Enum):
    IGNORE = "ignore"
    FIXED = "fixed"
    UP_TO_PERMUTATION = "up-to-permutation"


class CanonicalCode(namedtuple("CanonicalCode", "mode data")):
    """Representation-independent byte form of a triangulation: (mode, data)."""

    __slots__ = ()

    def hex(self) -> str:
        return self.data.hex()


def _emit_from_flag(ix, i: int, u: int, v: int, best):
    """Start the sweep from flag (face position i, u->v), compare with `best`:
    (None, False) at a larger triple, (sweep, True) on a tie to the end, else
    (sweep, False), the new least, suspended after its first smaller triple
    (after its first one when best is None)."""
    seen = bytearray(len(ix[0]))
    seen[i] = 1
    sweep = ({u: 0, v: 1}, [], seen, [(i, u, v)])
    order = _advance(ix, sweep, best, 1 if best is None else len(seen))
    return (None if order > 0 else sweep), order == 0 and best is not None


def _advance(ix, sweep, best, stop: int) -> int:
    """Resume a sweep (labels, triples, visited bytes, queue) over the face
    index ix until it has `stop` triples or has visited every face; the queue
    head is the triple count.  Against a sweep `best`, compare triple by
    triple, resuming best in doubling chunks as this one catches up.  Returns
    1 at a larger triple, -1 after a smaller one (stopping there), else 0."""
    label, out, seen, queue = sweep
    ref = best[1] if best is not None else None
    sums, across = ix
    setdefault, append = label.setdefault, queue.append
    head, order = len(out), 0
    # queue entries: (face position, entry direction a->b), a and b labeled
    while head < len(queue) and head < stop:
        i, a, b = queue[head]
        c = sums[i] - a - b  # the corner off the entry edge
        triple = (label[a], label[b], setdefault(c, len(label)))
        if ref is not None:
            if head == len(ref):
                _advance(ix, best, None, 2 * head)
            if triple != ref[head]:
                if triple > ref[head]:
                    return 1
                ref, stop, order = None, head + 1, -1
        head += 1
        out.append(triple)
        nb = across[i]
        g = nb[c]
        if not seen[g]:
            seen[g] = 1
            append((g, b, a))
        g = nb[a]
        if not seen[g]:
            seen[g] = 1
            append((g, c, b))
        g = nb[b]
        if not seen[g]:
            seen[g] = 1
            append((g, a, c))
    return order


def _face_index(t: Triangulation):
    """Per face of t.faces: its corner sum, and corner -> the face across."""
    pos = {f: i for i, f in enumerate(t.faces)}
    across: list[dict[int, int]] = [{} for _ in pos]
    for (x, y), (f, g) in t._edge_faces.items():
        i, j = pos[f], pos[g]
        across[i][f[0] + f[1] + f[2] - x - y] = j
        across[j][g[0] + g[1] + g[2] - x - y] = i
    return [a + b + c for a, b, c in t.faces], across


def _start_flags(t: Triangulation):
    """Start flags (face position, u, v) in the least degree-triple class.

    The degree triple (deg u, deg v, deg w) of a flag with entry edge u->v
    and third corner w is isomorphism invariant, so the least code over the
    flags with the least triple is the least code over all flags.  Only the
    faces with a corner of the least degree, where that triple starts, count."""
    deg = {v: len(link) for v, link in t._links.items()}
    low, best_key, flags = min(deg.values()), None, []
    for i, (a, b, c) in enumerate(t.faces):
        if low != deg[a] and low != deg[b] and low != deg[c]:
            continue
        for u, v, w in ((a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)):
            if deg[u] == low:
                key = (deg[v], deg[w])
                if best_key is None or key < best_key:
                    best_key, flags = key, [(i, u, v)]
                elif key == best_key:
                    flags.append((i, u, v))
    return flags


def _color_suffix(label: dict[int, int], col: Coloring, mode: ColorMode):
    """Colors in label order and their renaming, for a proper coloring."""
    if mode is ColorMode.IGNORE:
        return b"", None
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
    """Lexicographically least code over all start flags (and color perms);
    raises NotBalanced when a colored mode gets an improper coloring."""
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
    code, labels, _, _ = _checked(t, col, mode)
    return (*_decode(code), labels)


def _checked(t, col, mode):
    """_canonical, a colored mode's coloring first passing surface's gate; the
    search skips the gate, as its colorings are found or made by flips."""
    if mode is None:
        mode = ColorMode.IGNORE if col is None else ColorMode.UP_TO_PERMUTATION
    if mode is not ColorMode.IGNORE and col is not None:
        col = _coloring(t, col)
    return _canonical(t, col, mode)


def _unpack(data: bytes):
    """(V, F, the sorted faces of the label stream, the color suffix)."""
    # a 2-byte code holds 4 + 6F + V bytes or fewer, with F and V below 65536
    w, unit = (4, "I") if len(data) >= 8 + 12 * 65536 else (2, "H")
    nv, nf = struct.unpack_from(f">2{unit}", data)
    labels = struct.unpack_from(f">{3 * nf}{unit}", data, 2 * w)
    faces = sorted(map(face_key, labels[0::3], labels[1::3], labels[2::3]))
    return nv, nf, faces, data[(2 + 3 * nf) * w:]


def _decode(code: CanonicalCode) -> tuple[Triangulation, Coloring | None]:
    """The validated form a code encodes, and its coloring (None without one)."""
    _, _, faces, colors = _unpack(code.data)
    return validate(faces), (Coloring(dict(enumerate(colors))) if colors else None)


def _canonical(t, col, mode):
    """(code, label map, color renaming or None in IGNORE mode, automorphisms:
    one map per tie, in t's ids, keeping colors up to one permutation)."""
    if mode is not ColorMode.IGNORE and col is None:
        raise MissingColoring(f"mode {mode.value!r} requires a coloring")
    best = best_suffix = parent = None
    gens: list[dict[int, int]] = []
    ix, flags = _face_index(t), _start_flags(t)
    for i, (p, u, v) in enumerate(flags):
        if parent is not None and _find(parent, i) != i:
            continue  # an earlier flag of its class was swept
        sweep, tied = _emit_from_flag(ix, p, u, v, best)
        if sweep is None:
            continue
        if not tied:
            best, best_suffix = sweep, None
            continue
        # a tie ran both sweeps to the end, so both label maps are complete
        if best_suffix is None:
            best_suffix = _color_suffix(best[0], col, mode)[0]
        suffix = _color_suffix(sweep[0], col, mode)[0]
        if suffix < best_suffix:
            best, best_suffix = sweep, suffix
        elif suffix == best_suffix:
            if parent is None:
                parent = list(range(len(flags)))
                corners = [(a, b, ix[0][p] - a - b) for p, a, b in flags]
                index = {c: j for j, c in enumerate(corners)}
            # label maps list vertices in label order, so zipping them gives
            # the map sending the best sweep onto this one
            sigma = dict(zip(best[0], sweep[0]))
            gens.append(sigma)
            _join_images(parent, index, corners, sigma)
    nv, nf = t.vertex_count, len(t.faces)
    _advance(ix, best, None, nf)  # only the winner runs to the end
    best_suffix, best_perm = _color_suffix(best[0], col, mode)
    width = "H" if nf < 65536 else "I"
    body = struct.pack(f">{2 + 3 * nf}{width}", nv, nf, *chain.from_iterable(best[1]))
    return CanonicalCode(mode.value, body + best_suffix), best[0], best_perm, gens


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
    """Code equality; mode defaults to up-to-permutation when both inputs are
    colored, else to ignoring colors.  On balanced triangulations the colored
    and uncolored notions agree, as colorings are unique up to permutation."""
    if mode is None:
        both = col1 is not None and col2 is not None
        mode = ColorMode.UP_TO_PERMUTATION if both else ColorMode.IGNORE
    if t1.vertex_count != t2.vertex_count or len(t1.faces) != len(t2.faces):
        return False
    return canonical_code(t1, col1, mode) == canonical_code(t2, col2, mode)
