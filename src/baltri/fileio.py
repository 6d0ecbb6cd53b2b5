"""Plain-text formats for triangulations, embeddings, graphs, and scripts.

All formats are line based.  '#' starts a comment, blank lines are
ignored, vertices are numbered 1..V on disk and 0..V-1 in memory.

triangulation (.tri)        p tri V F
                            k c1 .. cV          optional, colors in 1..3
                            f i j k             F times

even embedding (.emb)       p emb V E W
                            n b1 .. bV          parts, bits 0/1
                            e i j               E times
                            w v1 .. vk          W times, closed walks

bipartite graph (.bip)      p bip V E
                            n b1 .. bV
                            e i j               E times

operation script (.ops)     one op per line:
                            add-leaf v w        split-edge u v p q
                            add-corner x y z w  del-leaf w
                            smooth-path u p q v del-corner w

Numbers are plain decimal, an optional '-' then ASCII digits.  Parsers
report malformed text as ParseError with a line number; parse_tri and
parse_bip_script read a text in one pass, and go over it line by line only
to name the first bad line.  Semantic failures (a face list that is no
surface, walks that close nothing) keep their own exception types.  Writers
renumber vertices contiguously in sorted order and emit sorted faces and
edges.
"""

from __future__ import annotations

import re
from typing import NoReturn, Sequence

from .bipartite import BipGraph, BipOp, BipOpKind
from .embeddings import EvenEmbedding
from .errors import ParseError
from .surface import Coloring, Triangulation, validate

# a character that int() reads in a number and plain decimal refuses
_NOT_DECIMAL = re.compile(r"[+_]|[^\x00-\x7f\s]")


def _significant_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((ln, body.split()))
    return out


def _plain_ints(fields: Sequence[str]) -> list[int]:
    """fields read as plain decimals; ValueError for the rest int() reads:
    '+', '_', spaces and non-ASCII digits."""
    digits = "".join(fields).replace("-", "")
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{fields!r} are not all plain decimals")
    return list(map(int, fields))


def _int_fields(ln: int, fields: Sequence[str], what: str) -> list[int]:
    try:
        return _plain_ints(fields)
    except ValueError:
        raise ParseError(f"line {ln}: {what} must be integers, got {fields!r}") from None


def _vertex(ln: int, value: int, count: int) -> int:
    if not 1 <= value <= count:
        raise ParseError(f"line {ln}: vertex {value} out of range 1..{count}")
    return value - 1


def _header(lines, tag: str, argc: int) -> tuple[list[int], list]:
    if not lines:
        raise ParseError("empty input")
    ln, fields = lines[0]
    if len(fields) != 2 + argc or fields[0] != "p" or fields[1] != tag:
        raise ParseError(
            f"line {ln}: expected header 'p {tag}{' N' * argc}', got {' '.join(fields)!r}"
        )
    return _int_fields(ln, fields[2:], "header counts"), lines[1:]


# -- triangulations ------------------------------------------------------------

def parse_tri(text: str) -> tuple[Triangulation, Coloring | None]:
    """Parse a .tri document; the optional coloring is returned as given.

    One pass reads the 'f' lines with int() and the one 'k' line, which may
    follow them, past blank lines and comments; one bounds check covers every
    face vertex, and one search every number (_NOT_DECIMAL).  A text it
    rejects goes to _tri_fault to name the bad line.  validate checks the
    surface; properness of the coloring is the caller's.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = filter(None, map(str.split, lines))
    faces: list[tuple[int, int, int]] = []
    colors: list[int] | None = None
    try:
        p, tag, nv, nf = next(rows)
        nv, nf = int(nv), int(nf)
        for fields in rows:
            if fields[0] == "f" and len(fields) == 4:
                faces.append((int(fields[1]) - 1, int(fields[2]) - 1, int(fields[3]) - 1))
            elif fields[0] == "k" and colors is None:
                colors = [int(c) for c in fields[1:]]
            else:
                _tri_fault(text)
    except (StopIteration, ValueError):
        _tri_fault(text)
    if not (
        (p, tag) == ("p", "tri")
        and not _NOT_DECIMAL.search("\n".join(lines))
        and len(faces) == nf
        and (colors is None or len(colors) == nv and set(colors) <= {1, 2, 3})
        and (not faces or min(map(min, faces)) >= 0 and max(map(max, faces)) < nv)
    ):
        _tri_fault(text)
    tri = validate(faces)
    if tri.vertex_count != nv:
        raise ParseError(f"header promises {nv} vertices, faces use {tri.vertex_count}")
    return tri, (Coloring({v: c - 1 for v, c in enumerate(colors)}) if colors else None)


def _tri_fault(text: str) -> NoReturn:
    """Raise the ParseError for a .tri document parse_tri's pass rejected:
    its first bad line in file order, else its face count."""
    (nv, nf), rest = _header(_significant_lines(text), "tri", 2)
    colors: list[int] | None = None
    found = 0
    for ln, fields in rest:
        if fields[0] == "k":
            if colors is not None:
                raise ParseError(f"line {ln}: second 'k' line")
            colors = _int_fields(ln, fields[1:], "colors")
            if len(colors) != nv:
                raise ParseError(f"line {ln}: expected {nv} colors, got {len(colors)}")
            if not all(1 <= c <= 3 for c in colors):
                raise ParseError(f"line {ln}: colors must lie in 1..3")
        elif fields[0] == "f":
            vals = _int_fields(ln, fields[1:], "face vertices")
            if len(vals) != 3:
                raise ParseError(f"line {ln}: a face needs 3 vertices, got {len(vals)}")
            for v in vals:
                _vertex(ln, v, nv)
            found += 1
        else:
            raise ParseError(f"line {ln}: unknown record {fields[0]!r}")
    raise ParseError(f"header promises {nf} faces, found {found}")


def format_tri(tri: Triangulation, col: Coloring | None = None) -> str:
    # tri.vertices and tri.faces come sorted, faces as sorted triples, and
    # numbering the vertices in order keeps both orders
    number = {v: str(i) for i, v in enumerate(tri.vertices, start=1)}
    colors = None if col is None else [col[v] for v in tri.vertices]
    return _tri_text(number, colors, tri.faces)


def _tri_text(number, colors, faces) -> str:
    """The .tri text of faces, v written number[v], colors in vertex order."""
    lines = [f"p tri {len(number)} {len(faces)}"]
    if colors is not None:
        lines.append("k " + " ".join(str(c + 1) for c in colors))
    for a, b, c in faces:
        lines.append(f"f {number[a]} {number[b]} {number[c]}")
    return "\n".join(lines) + "\n"


# -- bipartite graphs ----------------------------------------------------------

def _parse_parts_edges(nv, ne, rest, nw=None):
    """The BipGraph of the 'n' and 'e' records; with nw, also the 'w' walks."""
    parts: list[int] | None = None
    edges: dict[tuple[int, int], None] = {}  # in file order
    walks = []
    for ln, fields in rest:
        if fields[0] == "n":
            if parts is not None:
                raise ParseError(f"line {ln}: second 'n' line")
            vals = _int_fields(ln, fields[1:], "part bits")
            if len(vals) != nv:
                raise ParseError(f"line {ln}: expected {nv} bits, got {len(vals)}")
            if not all(b in (0, 1) for b in vals):
                raise ParseError(f"line {ln}: parts must be 0 or 1")
            parts = vals
        elif fields[0] == "e":
            vals = _int_fields(ln, fields[1:], "edge endpoints")
            if len(vals) != 2:
                raise ParseError(f"line {ln}: an edge needs 2 endpoints")
            u, v = (_vertex(ln, x, nv) for x in vals)
            if (u, v) in edges or (v, u) in edges:
                raise ParseError(f"line {ln}: repeated edge {{{u + 1},{v + 1}}}")
            edges[u, v] = None
        elif fields[0] == "w" and nw is not None:
            vals = _int_fields(ln, fields[1:], "walk vertices")
            if len(vals) < 4:
                raise ParseError(f"line {ln}: a walk needs at least 4 vertices")
            walks.append(tuple(_vertex(ln, v, nv) for v in vals))
        else:
            raise ParseError(f"line {ln}: unknown record {fields[0]!r}")
    if parts is None:
        raise ParseError("missing 'n' parts line")
    if len(edges) != ne:
        raise ParseError(f"header promises {ne} edges, found {len(edges)}")
    if nw is not None and len(walks) != nw:
        raise ParseError(f"header promises {nw} walks, found {len(walks)}")
    return BipGraph({v: parts[v] for v in range(nv)}, edges), walks


def _graph_lines(header: str, g: BipGraph) -> tuple[list[str], dict[int, int]]:
    """header, g's 'n' line and sorted 'e' lines, and the numbering they use."""
    order = {v: i for i, v in enumerate(sorted(g.parts))}
    lines = [header, "n " + " ".join(str(g.part(v)) for v in order)]
    for u, v in sorted(tuple(sorted((order[u], order[v]))) for u, v in g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return lines, order


def parse_bip(text: str) -> BipGraph:
    (nv, ne), rest = _header(_significant_lines(text), "bip", 2)
    return _parse_parts_edges(nv, ne, rest)[0]


def format_bip(g: BipGraph) -> str:
    lines, _ = _graph_lines(f"p bip {len(g.parts)} {g.edge_count()}", g)
    return "\n".join(lines) + "\n"


# -- even embeddings -----------------------------------------------------------

def parse_emb(text: str) -> EvenEmbedding:
    (nv, ne, nw), rest = _header(_significant_lines(text), "emb", 3)
    return EvenEmbedding(*_parse_parts_edges(nv, ne, rest, nw))


def format_emb(emb: EvenEmbedding) -> str:
    g = emb.graph
    head = f"p emb {len(g.parts)} {g.edge_count()} {len(emb.walks)}"
    lines, order = _graph_lines(head, g)
    for walk in emb.walks:
        lines.append("w " + " ".join(str(order[v] + 1) for v in walk))
    return "\n".join(lines) + "\n"


# -- operation scripts ---------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in BipOpKind}


def parse_bip_script(text: str) -> list[BipOp]:
    """Parse operation lines; vertex numbers are 1-based and unbounded
    above (new vertices may use any unused number).

    One pass reads each line's kind and numbers with int(), past blank
    lines and comments, and one search checks every number (_NOT_DECIMAL).
    A text it rejects goes to _script_fault to name the bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    ops = []
    try:
        for fields in filter(None, map(str.split, lines)):
            kind = _KIND_BY_NAME[fields[0]]
            args = tuple([int(f) - 1 for f in fields[1:]])
            if len(args) != kind.arity or min(args) < 0:
                _script_fault(text)
            ops.append(tuple.__new__(BipOp, (kind, args)))
    except (KeyError, ValueError):
        _script_fault(text)
    if _NOT_DECIMAL.search("\n".join(lines)):
        _script_fault(text)
    return ops


def _script_fault(text: str) -> NoReturn:
    """Raise the ParseError for a script parse_bip_script's pass rejected:
    its first bad line."""
    for ln, fields in _significant_lines(text):
        kind = _KIND_BY_NAME.get(fields[0])
        if kind is None:
            raise ParseError(f"line {ln}: unknown operation {fields[0]!r}")
        vals = _int_fields(ln, fields[1:], "operation arguments")
        if len(vals) != kind.arity:
            raise ParseError(
                f"line {ln}: {kind.value} takes {kind.arity} arguments, "
                f"got {len(vals)}"
            )
        if min(vals) < 1:
            raise ParseError(f"line {ln}: vertex numbers start at 1")
    # every text the pass rejects has a line rejected above
    raise ParseError("operation script rejected")


def format_bip_script(ops: Sequence[BipOp]) -> str:
    return "".join(str(op) + "\n" for op in ops)
