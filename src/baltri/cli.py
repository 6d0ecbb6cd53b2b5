"""Command line front end.

Triangulation arguments accept either a .tri file path or one of the
gallery names (octahedron, k333-torus, cube-subdivision).  Sites are
written kind:v1,v2,... with 1-based vertex numbers, matching the numbers
in .tri files; they, the counts and the seed are plain decimals, and no
count is negative.  Exit status: 0 on success, 1 when a domain rule
rejects the request or an unexpected internal error occurs, 2 for
unreadable or malformed input, a negative count included.  Every
subcommand passes a file's coloring through surface's gate, so an
improper 'k' line exits 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from .bipartite import apply_sequence, normalize_sequence
from .canon import ColorMode, _unpack, canonical_code
from .errors import BaltriError, ParseError
from .explorer import (
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
    classify,
    connect,
    random_walk,
)
from .fileio import (
    _plain_ints,
    _tri_text,
    format_bip,
    format_bip_script,
    format_tri,
    parse_bip,
    parse_bip_script,
    parse_tri,
)
from .flips import FlipKind, apply_flip, enumerate_sites, site_from_str
from .rewrites import (
    expand_bes_via_bts_pc,
    expand_bes_via_ps,
    expand_bew_via_ps_btw,
    expand_via_budget,
    verify_expansion,
)
from .surface import Coloring, Triangulation, _coloring, is_orientable, surface_name

GALLERY = {
    "octahedron": build_octahedron,
    "k333-torus": build_k333_torus,
    "cube-subdivision": build_cube_subdivision,
}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_tri(path: str) -> tuple[Triangulation, Coloring | None]:
    name = path.removeprefix("gallery:")
    if name in GALLERY:
        return GALLERY[name]()
    return parse_tri(_read_text(path))


def _kind(text: str) -> FlipKind:
    try:
        return FlipKind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown move {text!r}, expected one of "
            + ",".join(k.value for k in FlipKind)
        )


def _kinds_arg(text: str) -> list[FlipKind]:
    return [_kind(f) for f in text.split(",") if f]


def _decimal(text: str) -> int:
    try:
        return _plain_ints([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a plain decimal") from None


def _count(text: str) -> int:
    n = _decimal(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return n


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommand bodies ----------------------------------------------------------

def _cmd_validate(args) -> None:
    tri, col = _load_tri(args.path)
    _coloring(tri, col)
    print(f"vertices {tri.vertex_count}")
    print(f"edges {tri.edge_count}")
    print(f"faces {tri.face_count}")
    print(f"euler {tri.euler_characteristic()}")
    print(f"orientable {_yesno(is_orientable(tri))}")
    print(f"surface {surface_name(tri)}")
    print(f"coloring {'found' if col is None else 'given'}")
    print("balanced yes")


def _cmd_canon(args) -> None:
    tri, col = _load_tri(args.path)
    mode = ColorMode(args.mode) if args.mode else None
    if mode is ColorMode.IGNORE and col is not None:
        _coloring(tri, col)  # canonical_code checks it in the colored modes
    print(canonical_code(tri, col, mode).hex())


def _cmd_sites(args) -> None:
    tri, col = _load_tri(args.path)
    _coloring(tri, col)
    for site in enumerate_sites(tri, args.kinds):
        print(site)


def _cmd_apply(args) -> None:
    tri, col = _load_tri(args.path)
    col = _coloring(tri, col)
    site = site_from_str(args.site)
    tri, col = apply_flip(tri, site, col)
    _write_out(format_tri(tri, col), args.out)


_EXPANDERS = {
    "two-ps": expand_bes_via_ps,
    "bts-pc": expand_bes_via_bts_pc,
    "ps-btw": expand_bew_via_ps_btw,
    "budget": expand_via_budget,
}
_DEFAULT_VIA = {
    FlipKind.BES: "bts-pc",
    FlipKind.BEW: "ps-btw",
    FlipKind.NFLIP: "budget",
    FlipKind.P2FLIP: "budget",
}


def _cmd_expand(args) -> None:
    tri, col = _load_tri(args.path)
    _coloring(tri, col)
    site = site_from_str(args.site)
    via = args.via or _DEFAULT_VIA.get(site.kind)
    if via is None:
        raise BaltriError(f"no expansion recipe applies to a {site.kind.value} site")
    seq = _EXPANDERS[via](tri, site)
    if not verify_expansion(tri, site, seq):
        raise BaltriError("expansion failed verification")
    for step in seq:
        print(step)


def _search_args(args) -> dict:
    return dict(kinds=args.kinds, max_vertices=args.max_vertices, max_states=args.max_states)


def _cmd_connect(args) -> None:
    t1, c1 = _load_tri(args.path)
    t2, c2 = _load_tri(args.other)
    _coloring(t1, c1)
    _coloring(t2, c2)
    for site in connect(t1, t2, **_search_args(args)):
        print(site)


def _export_view(view, out_dir: str) -> None:
    states_dir = os.path.join(out_dir, "states")
    os.makedirs(states_dir, exist_ok=True)

    def digest(code) -> str:
        return hashlib.sha256(code.data).hexdigest()[:16]

    # every flip keeps the surface, and a form is written off its code
    surface = surface_name(view.states[view.start][0])
    with open(os.path.join(out_dir, "index.tsv"), "w") as fh:
        fh.write("state\tvertices\tedges\tfaces\tsurface\tstart\n")
        for code in sorted(view.states):
            nv, nf, faces, colors = _unpack(code.data)
            name = digest(code)
            fh.write(
                f"{name}\t{nv}\t{3 * nf // 2}\t{nf}\t{surface}\t"
                f"{_yesno(code == view.start)}\n"
            )
            with open(os.path.join(states_dir, name + ".tri"), "w") as sf:
                sf.write(_tri_text([str(v + 1) for v in range(nv)], colors, faces))
    with open(os.path.join(out_dir, "edges.tsv"), "w") as fh:
        fh.write("src\tmove\tdst\n")
        for src, kind, dst in view.edges:
            fh.write(f"{digest(src)}\t{kind.value}\t{digest(dst)}\n")


def _cmd_bfs(args) -> None:
    tri, col = _load_tri(args.path)
    _coloring(tri, col)
    view = bfs(tri, **_search_args(args))
    print(f"states {view.state_count}")
    print(f"edges {view.edge_count}")
    print(f"truncated {_yesno(view.truncated)}")
    if args.out:
        _export_view(view, args.out)


def _cmd_classify(args) -> None:
    tri, col = _load_tri(args.path)
    _coloring(tri, col)
    for key, value in classify(tri).items():
        print(f"{key} {_yesno(value)}")


def _cmd_sample(args) -> None:
    tri, col = _load_tri(args.path)
    tri, col, taken = random_walk(
        tri,
        col,
        args.kinds,
        steps=args.steps,
        seed=args.seed,
        max_vertices=args.max_vertices,
    )
    for site in taken:
        print(site)
    if args.out:
        _write_out(format_tri(tri, col), args.out)


def _cmd_gallery(args) -> None:
    if args.name is None:
        for name in GALLERY:
            print(name)
        return
    name = args.name.removeprefix("gallery:")
    if name not in GALLERY:
        raise ParseError(
            f"unknown gallery entry {args.name!r}, have: " + ", ".join(GALLERY)
        )
    tri, col = GALLERY[name]()
    _write_out(format_tri(tri, col), args.out)


def _load_bip_and_script(args):
    return parse_bip(_read_text(args.graph)), parse_bip_script(_read_text(args.script))


def _cmd_bip_apply(args) -> None:
    g, ops = _load_bip_and_script(args)
    _write_out(format_bip(apply_sequence(g, ops)), args.out)


def _cmd_bip_normalize(args) -> None:
    g, ops = _load_bip_and_script(args)
    sys.stdout.write(format_bip_script(normalize_sequence(g, ops)))


# -- wiring ----------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baltri",
        description="balanced triangulations: validation, flips, and search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = cmd("validate", _cmd_validate, "check a triangulation and report facts")
    p.add_argument("path")

    p = cmd("canon", _cmd_canon, "print the canonical code")
    p.add_argument("path")
    p.add_argument("--mode", choices=[m.value for m in ColorMode])

    p = cmd("sites", _cmd_sites, "list applicable flip sites")
    p.add_argument("path")
    p.add_argument("--kinds", "--kind", "--moves", type=_kinds_arg)

    p = cmd("apply", _cmd_apply, "apply one flip")
    p.add_argument("path")
    p.add_argument("site")
    p.add_argument("-o", "--out")

    p = cmd("expand", _cmd_expand, "express one flip as smaller moves")
    p.add_argument("path")
    p.add_argument("site")
    p.add_argument("--via", choices=sorted(_EXPANDERS))

    p = cmd("connect", _cmd_connect, "search for a flip path between two inputs")
    p.add_argument("path")
    p.add_argument("other")
    p.add_argument("--kinds", "--kind", "--moves", type=_kinds_arg)
    p.add_argument("--max-vertices", type=_count, required=True)
    p.add_argument("--max-states", type=_count, required=True)

    p = cmd("bfs", _cmd_bfs, "explore the flip graph breadth first")
    p.add_argument("path")
    p.add_argument("--kinds", "--kind", "--moves", type=_kinds_arg)
    p.add_argument("--max-vertices", type=_count, required=True)
    p.add_argument("--max-states", type=_count, required=True)
    p.add_argument("--out", help="directory for index.tsv, edges.tsv, states/")

    p = cmd("classify", _cmd_classify, "report structural facts")
    p.add_argument("path")

    p = cmd("sample", _cmd_sample, "take a seeded random flip walk")
    p.add_argument("path")
    p.add_argument("--steps", type=_count, default=10)
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--kinds", "--kind", "--moves", type=_kinds_arg)
    p.add_argument("--max-vertices", type=_count)
    p.add_argument("-o", "--out")

    p = cmd("gallery", _cmd_gallery, "list or print the built-in triangulations")
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--out")

    p = sub.add_parser("bip", help="bipartite graph operations")
    bsub = p.add_subparsers(dest="bip_command", required=True)
    for name, func in (("apply", _cmd_bip_apply), ("normalize", _cmd_bip_normalize)):
        bp = bsub.add_parser(name)
        bp.set_defaults(func=func)
        bp.add_argument("graph")
        bp.add_argument("script")
        if name == "apply":
            bp.add_argument("-o", "--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except BaltriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in baltri itself; still no traceback
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
