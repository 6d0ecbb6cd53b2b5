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
a face index built once per call from the sorted faces and each edge's two
thirds, which name its two faces by their sorted keys: each face's corner
sum and, per corner, the position of the face across the opposite edge.
With the vertex degrees, which pick the start flags in one pass reading
each face's three degrees once (see _start_flags), that is all a call reads,
so the search canonicalizes a child from those parts patched, with no
Triangulation built (see explorer).  Crossing an edge is then one small-int
lookup and one stamp test (trial sweeps share one list of visit stamps until
one becomes the least and keeps it), and a face labels only its third
corner, as the face that queued it labeled the other two.

A sweep that ties the least stream (and a FIXED suffix) to the end proves an
automorphism: the vertex labeled L by the least sweep goes to the one
labeled L by this one.  As in nauty (McKay 1981; McKay & Piperno 2014), a
start flag is skipped when the automorphisms found so far map it onto a
flag swept before it, that is when it lies in the orbit set: from the first
tie on, the swept flags as corner triples (u, v, w), closed under those
automorphisms (an image is a start flag again, as automorphisms keep
degrees).  An orbit shares one stream and suffix, so the first flag
reaching the least is never skipped: code and label map are unchanged, and
symmetric inputs sweep a few flags per orbit, not |Aut| of them.
_canonical also returns these automorphisms, one per tie, and the flip-graph
search uses them to apply one flip site per orbit (see explorer).

Color handling appends one byte per relabeled vertex after the face stream;
the stream length is fixed by (V, F), so byte-wise comparison stays
lexicographic on (faces, colors).  Up to permutation, colors are renamed in
order of first appearance along the labels: a proper 3-coloring uses all
three, so this is the unique permutation with the least suffix.  That suffix
is forced by the stream: its first triple is labels 0, 1, 2, and each later
triple was queued across an edge whose two corners are labeled, so a new
third label takes the color they lack.  So it is read off the winner in one
pass that needs no coloring, and checking that every triple has three colors
makes the pass a complete balance check (NotBalanced).  A tie is an
automorphism, which permutes the colors, so ties join at once up to
permutation; only a FIXED coloring is compared suffix against suffix.

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

from .errors import Disconnected, MissingColoring, NotBalanced
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


def _emit_from_flag(ix, i: int, u: int, v: int, best, seen, stamp: int):
    """Sweep from flag (face position i, u->v), stamping visited faces in seen,
    and compare with `best`: (None, False) at a larger triple, (sweep, True)
    on a tie to the end, else (sweep, False), the new least, suspended after
    its first smaller triple (after its first one when best is None)."""
    seen[i] = stamp
    sweep = ({u: 0, v: 1}, [], seen, stamp, [(i, u, v)])
    order = _advance(ix, sweep, best, 1 if best is None else len(seen))
    return (None if order > 0 else sweep), order == 0 and best is not None


def _advance(ix, sweep, best, stop: int) -> int:
    """Resume a sweep (labels, triples, visit stamps, its stamp, queue) over
    the face index ix until it has `stop` triples or has visited every face;
    the queue head is the triple count.  Against a sweep `best`, compare
    triple by triple, resuming best in doubling chunks as this one catches
    up.  1 at a larger triple, -1 after a smaller one (stopping there), else 0."""
    label, out, seen, stamp, queue = sweep
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
        if seen[g] != stamp:
            seen[g] = stamp
            append((g, b, a))
        g = nb[a]
        if seen[g] != stamp:
            seen[g] = stamp
            append((g, c, b))
        g = nb[b]
        if seen[g] != stamp:
            seen[g] = stamp
            append((g, a, c))
    return order


def _face_index(faces, thirds):
    """Per face of faces: its corner sum, and corner -> the face across: the
    two faces on edge xy, at the positions of their sorted keys, are across
    it from each other's third."""
    pos = {f: i for i, f in enumerate(faces)}
    across: list[dict[int, int]] = [{} for _ in pos]
    for (x, y), (z, w) in thirds.items():
        i = pos[(z, x, y) if z < x else (x, z, y) if z < y else (x, y, z)]
        j = pos[(w, x, y) if w < x else (x, w, y) if w < y else (x, y, w)]
        across[i][z] = j
        across[j][w] = i
    return [a + b + c for a, b, c in faces], across


def _start_flags(faces, deg: dict[int, int]):
    """Start flags (face position, u, v) in the least degree-triple class.

    The degree triple (deg u, deg v, deg w) of a flag with entry edge u->v
    and third corner w is isomorphism invariant, so the least code over the
    flags with the least triple is the least code over all flags.  A face
    with a corner of the least degree, low, offers its sorted degree triple
    (low, mid, top), its least flag triple; one pass reads each face's
    degrees once and keeps the faces offering the least triple.  Their flags
    are those with deg u == low and deg v == mid, by face position, then as
    (a,b,c) (b,a,c) (a,c,b) (c,a,b) (b,c,a) (c,b,a): a full scan's order."""
    low, offers = min(deg.values()), []
    best = (len(deg), 0)  # above every pair a face offers
    for i, (a, b, c) in enumerate(faces):
        x, y, z = deg[a], deg[b], deg[c]
        if x == low:  # the sorted degree triple is (low, *key)
            key = (y, z) if y < z else (z, y)
        elif y == low:
            key = (x, z) if x < z else (z, x)
        elif z == low:
            key = (x, y) if x < y else (y, x)
        else:
            continue
        if key < best:
            best, offers = key, [i]
        elif key == best:
            offers.append(i)
    mid, flags = best[0], []
    append = flags.append
    for i in offers:
        a, b, c = faces[i]
        x, y, z = deg[a], deg[b], deg[c]
        if x == low and y == mid:
            append((i, a, b))
        if y == low and x == mid:
            append((i, b, a))
        if x == low and z == mid:
            append((i, a, c))
        if z == low and x == mid:
            append((i, c, a))
        if y == low and z == mid:
            append((i, b, c))
        if z == low and y == mid:
            append((i, c, b))
    return flags


def _forced_suffix(triples) -> bytes:
    """The colors of a stream's labels renamed by first appearance, forced
    along it: the first triple, labels 0, 1, 2, takes colors 0, 1, 2, and a
    new label the color its triple's other two lack.  NotBalanced unless
    every triple has three colors: on every face, a complete balance check."""
    color = bytearray(b"\0\1\2")
    for a, b, c in triples:
        x, y = color[a], color[b]
        if c == len(color) and x != y:
            color.append(3 - x - y)
        if x == y or color[c] != 3 - x - y:
            raise NotBalanced("the faces admit no proper 3-coloring")
    return bytes(color)


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
    code, labels, _ = _checked(t, col, mode)
    return (*_decode(code), labels)


def _checked(t, col, mode):
    """_canonical, a colored mode's coloring first passing surface's gate."""
    if mode is None:
        mode = ColorMode.IGNORE if col is None else ColorMode.UP_TO_PERMUTATION
    if mode is not ColorMode.IGNORE:
        if col is None:
            raise MissingColoring(f"mode {mode.value!r} requires a coloring")
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
    """_canonical_parts on a validated t."""
    deg = {v: len(link) for v, link in t._links.items()}
    return _canonical_parts(t.faces, t._thirds, deg, col, mode)


def _canonical_parts(faces, thirds, deg, col, mode):
    """(code, label map, automorphisms: one map per tie, keeping colors up
    to one permutation) of the sorted faces, each edge's thirds and the
    degrees.  Only FIXED mode needs col; Disconnected if the winning sweep
    misses a face, NotBalanced from a forced suffix."""
    best = orbits = None
    gens: list[dict[int, int]] = []
    ix, flags = _face_index(faces, thirds), _start_flags(faces, deg)
    sums, nf = ix[0], len(faces)
    seen = [0] * nf  # the trial sweeps' visit stamps, until one becomes best
    for stamp, (p, u, v) in enumerate(flags, 1):
        if orbits is not None:
            flag = (u, v, sums[p] - u - v)
            if flag in orbits:
                continue  # the automorphisms found map it onto a flag swept before
            _close(orbits, [flag], gens)
        sweep, tied = _emit_from_flag(ix, p, u, v, best, seen, stamp)
        if sweep is None:
            continue
        # a tie ran both sweeps to the end, so both label maps are complete;
        # up to permutation the suffix is a function of the stream, so only
        # a fixed coloring can break the tie
        if tied and mode is ColorMode.FIXED:
            suffix, least = (bytes(col[v] for v in s[0]) for s in (sweep, best))
            if suffix > least:
                continue
            tied = suffix == least
        if not tied:  # the new least keeps its visit stamps
            best, seen = sweep, [0] * nf
            continue
        # label maps list vertices in label order, so zipping them gives
        # the map sending the best sweep onto this one
        sigma = dict(zip(best[0], sweep[0]))
        gens.append(sigma)
        if orbits is None:  # the first tie: every flag so far was swept
            orbits = {(a, b, sums[q] - a - b) for q, a, b in flags[:stamp]}
        _close(orbits, [(sigma[a], sigma[b], sigma[c]) for a, b, c in orbits], gens)
        if len(orbits) == len(flags):
            break  # every flag left lies in the orbit of a swept one
    _advance(ix, best, None, nf)  # only the winner runs to the end
    if len(best[1]) != nf:
        raise Disconnected(f"a sweep from one face reaches {len(best[1])} of {nf}")
    suffix = b""
    if mode is ColorMode.UP_TO_PERMUTATION:
        suffix = _forced_suffix(best[1])
    elif mode is ColorMode.FIXED:
        suffix = bytes(col[v] for v in best[0])
    width = "H" if nf < 65536 else "I"
    body = struct.pack(f">{2 + 3 * nf}{width}", len(deg), nf, *chain.from_iterable(best[1]))
    return CanonicalCode(mode.value, body + suffix), best[0], gens


def _close(orbits: set, new, gens) -> None:
    """Add the flags new (corner triples) to orbits, closed under gens."""
    todo = [f for f in new if f not in orbits]
    orbits.update(todo)
    for u, v, w in todo:  # todo grows as images are found
        for s in gens:
            f = (s[u], s[v], s[w])
            if f not in orbits:
                orbits.add(f)
                todo.append(f)


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
