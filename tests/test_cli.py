"""The command line: exit codes, output shapes, file round trips."""

import hashlib
import os

import pytest

from baltri import FlipKind, parse_bip, parse_tri, format_tri, surface_name, validate
from baltri import cli
from baltri.cli import GALLERY, _build_parser, main
from baltri.explorer import build_octahedron
from baltri.flips import site_from_str

from conftest import PROJECTIVE_PLANE, run_python
from oracles import reference_bfs


OCTAHEDRON_TEXT = format_tri(*build_octahedron())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def octa_file(tmp_path):
    t, col = build_octahedron()
    p = tmp_path / "octa.tri"
    p.write_text(format_tri(t, col))
    return str(p)


class TestProcess:
    def test_import_leaves_networkx_unloaded(self):
        done = run_python("import sys, baltri.cli; print('networkx' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        argvs = [
            ["validate", "octahedron"],
            ["sites", "octahedron", "--kinds", "zzz"],
            ["canon", "k333-torus", "--mode", "fixed"],
            ["classify", "octahedron"],
            ["gallery"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().out

        reused = [outcome(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            _build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 2, 0, 0, 0]


class TestValidate:
    def test_gallery_entry(self, capsys):
        code, out, _ = run(capsys, "validate", "octahedron")
        assert code == 0
        assert "vertices 6" in out
        assert "edges 12" in out
        assert "faces 8" in out
        assert "euler 2" in out
        assert "orientable yes" in out
        assert "surface sphere" in out
        assert "balanced yes" in out

    def test_gallery_prefix(self, capsys):
        code, out, _ = run(capsys, "validate", "gallery:k333-torus")
        assert code == 0
        assert "surface torus" in out

    def test_file_input(self, capsys, octa_file):
        code, out, _ = run(capsys, "validate", octa_file)
        assert code == 0
        assert "coloring given" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.tri")
        assert code == 2
        assert "io error" in err

    def test_an_open_edge_is_named_as_the_file_numbers_it(self, capsys, tmp_path):
        # with f 2 4 6 moved to f 2 5 6, edge 4-6 lies only on f 1 4 6
        assert "f 2 4 6\n" in OCTAHEDRON_TEXT
        p = tmp_path / "open.tri"
        p.write_text(OCTAHEDRON_TEXT.replace("f 2 4 6\n", "f 2 5 6\n"))
        got = run(capsys, "validate", str(p))
        assert got == (1, "", "error: edge {4,6} lies in 1 face(s), expected 2\n")

    def test_improper_coloring_is_a_domain_error(self, capsys, tmp_path):
        t, col = build_octahedron()
        bad = format_tri(t, col).replace("k 1 1 2 2 3 3", "k 1 1 1 2 3 3")
        p = tmp_path / "bad.tri"
        p.write_text(bad)
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "error" in err

    def test_textual_fault_exits_two(self, capsys, tmp_path):
        p = tmp_path / "broken.tri"
        p.write_text("p tri 6 8\nf 1 2\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["validate", "FILE.tri"], "# a comment\n\n   \n# and no records\n", "empty input"),
            (
                ["bip", "apply", "FILE.bip", "FILE.ops"],
                "p bip 2 1\nn 0 1\nn 0 1\ne 1 2\n",
                "line 3: second 'n' line",
            ),
            (["apply", "octahedron", "bts 1,3,5"], None, "lacks a ':' separator"),
            (["apply", "octahedron", "bts:1,0,5"], None, "vertex below 1"),
            # int() reads these numbers, but a number on disk is plain decimal
            (
                ["validate", "FILE.tri"],
                OCTAHEDRON_TEXT.replace("f 1 3 5", "f +1 3 5"),
                "line 3: face vertices must be integers",
            ),
            (
                ["validate", "FILE.tri"],
                OCTAHEDRON_TEXT.replace("f 2 4 6", "f 2 4 \u0666"),
                "line 10: face vertices must be integers",
            ),
            (
                ["bip", "apply", "FILE.bip", "FILE.ops"],
                "p bip 2 1\nn 0 1\ne 1 +2\n",
                "line 3: edge endpoints must be integers",
            ),
        ],
        ids=[
            "empty-tri", "second-n-line", "no-separator", "vertex-below-1",
            "plus-sign", "arabic-indic-digit", "plus-sign-edge",
        ],
    )
    def test_rare_parse_faults_exit_two(self, capsys, tmp_path, argv, text, message):
        # FILE.tri and FILE.bip hold the text given, FILE.ops a valid script
        paths = {"FILE.tri": text, "FILE.bip": text, "FILE.ops": "add-leaf 1 3\n"}
        for name, body in paths.items():
            (tmp_path / name).write_text(body or "", encoding="utf-8")
        code, out, err = run(
            capsys, *(str(tmp_path / a) if a in paths else a for a in argv)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ") and message in err

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        t, col = build_octahedron()
        p = tmp_path / "octa.tri"
        p.write_bytes(format_tri(t, col).encode() + b"# \xff\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2
        assert err.startswith("parse error:") and "not UTF-8" in err


_CAPS = ("--max-vertices", "9", "--max-states", "20")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "BAD"),
        ("canon", "BAD"),
        ("canon", "BAD", "--mode", "ignore"),
        ("canon", "BAD", "--mode", "fixed"),
        ("canon", "BAD", "--mode", "up-to-permutation"),
        ("sites", "BAD"),
        ("apply", "BAD", "bts:1,3,5"),
        ("expand", "BAD", "bes:1,3,5,6"),
        ("connect", "BAD", "octahedron", *_CAPS),
        ("connect", "octahedron", "BAD", *_CAPS),
        ("bfs", "BAD", *_CAPS),
        ("classify", "BAD"),
        ("sample", "BAD", "--steps", "3"),
    ],
    ids=[
        "validate", "canon", "canon-ignore", "canon-fixed", "canon-up-to-permutation",
        "sites", "apply", "expand", "connect-first", "connect-second", "bfs",
        "classify", "sample",
    ],
)
def test_an_improper_k_line_exits_one_in_every_subcommand(capsys, tmp_path, argv):
    t, col = build_octahedron()
    p = tmp_path / "bad.tri"
    p.write_text(format_tri(t, col).replace("k 1 1 2 2 3 3", "k 1 1 1 2 3 3"))
    code, out, err = run(capsys, *(str(p) if a == "BAD" else a for a in argv))
    assert (code, out) == (1, "")
    assert err == "error: the coloring is not proper: an edge has one color twice\n"


class TestUnexpectedErrors:
    def test_internal_fault_exits_one_without_a_traceback(self, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("int too big to convert")

        monkeypatch.setattr("baltri.cli.canonical_code", overflow)
        code, out, err = run(capsys, "canon", "octahedron")
        assert code == 1
        assert "error" in err
        assert out == ""
        assert err.startswith("error:") and "OverflowError" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1


class TestCanon:
    def test_known_prefix(self, capsys):
        code, out, _ = run(capsys, "canon", "octahedron")
        assert code == 0
        assert out.strip().startswith("000600080000000100020001")

    def test_modes_differ_in_general(self, capsys):
        _, utp, _ = run(capsys, "canon", "octahedron", "--mode", "up-to-permutation")
        _, ign, _ = run(capsys, "canon", "octahedron", "--mode", "ignore")
        assert utp != ign  # the color suffix is present only when colored

    def test_isomorphs_agree(self, capsys, octa_file):
        _, a, _ = run(capsys, "canon", "octahedron")
        _, b, _ = run(capsys, "canon", octa_file)
        assert a == b


class TestSites:
    def test_filter_spellings(self, capsys):
        for flag in ("--kinds", "--kind", "--moves"):
            code, out, _ = run(capsys, "sites", "octahedron", flag, "bes")
            assert code == 0
            lines = out.strip().splitlines()
            assert len(lines) == 12
            assert all(ln.startswith("bes:") for ln in lines)

    def test_empty_result(self, capsys):
        code, out, _ = run(capsys, "sites", "octahedron", "--kinds", "ps,pc")
        assert code == 0
        assert out == ""

    def test_unknown_kind_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sites", "octahedron", "--kinds", "zzz"])
        assert exc.value.code == 2


class TestApply:
    def test_pinned_vector(self, capsys, tmp_path):
        out_file = str(tmp_path / "eight.tri")
        code, _, _ = run(
            capsys, "apply", "octahedron", "bes:1,3,5,6", "-o", out_file
        )
        assert code == 0
        code, out, _ = run(capsys, "sites", out_file, "--kinds", "ps")
        assert code == 0
        assert "ps:5,1,8,7,3" in out.splitlines()

    def test_written_file_revalidates_byte_for_byte(self, capsys, tmp_path):
        out_file = str(tmp_path / "eight.tri")
        run(capsys, "apply", "octahedron", "bes:1,3,5,6", "-o", out_file)
        text = open(out_file).read()
        t, col = parse_tri(text)
        assert format_tri(t, col) == text

    def test_bad_site_kind(self, capsys):
        code, _, err = run(capsys, "apply", "octahedron", "zzz:1,2,3")
        assert code == 2
        assert "parse error" in err

    def test_inapplicable_site(self, capsys):
        code, _, err = run(capsys, "apply", "octahedron", "bes:1,2,3,4")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "path, site, message",
        [
            ("octahedron", "bts:1,2,3", "missing face {1,2,3}"),
            ("octahedron", "ps:1,3,5,2,6", "missing face {1,5,2}"),
            ("octahedron", "bts:1,3,1", "site vertices 1,3,1 are not distinct"),
            ("octahedron", "bew:1,3", "edge {2,4} already present"),
            ("octahedron", "bew:1,2", "vertices 1 and 2 are not adjacent"),
            ("cube-subdivision", "btw:9,2,3,4,5,6", "vertex 2 has degree 6, needs 4"),
        ],
    )
    def test_a_rule_error_names_the_vertices_as_typed(
        self, capsys, path, site, message
    ):
        # the library's ids are 0-based; the rule messages name them 1-based,
        # as the site and the .tri file do
        code, out, err = run(capsys, "apply", path, site)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "site", ["bts:+1,3,5", "bts:\u0661,3,5", "bts:1_0,3,5", "bts:1,3,\uff15"]
    )
    def test_a_vertex_not_plain_decimal_exits_two(self, capsys, tmp_path, site):
        # int() reads each of these, as 1, 1, 10 and 5
        out_file = tmp_path / "out.tri"
        code, out, err = run(capsys, "apply", "octahedron", site, "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == f"parse error: site {site!r} has a vertex that is no plain decimal\n"
        assert not out_file.exists()


class TestExpand:
    def test_default_recipe(self, capsys):
        code, out, _ = run(capsys, "expand", "octahedron", "bes:1,3,5,6")
        assert code == 0
        assert out.splitlines() == ["bts:1,3,5", "pc:9,3,7,8,1,6"]

    def test_blocked_recipe(self, capsys):
        code, _, err = run(
            capsys, "expand", "octahedron", "bes:1,3,5,6", "--via", "two-ps"
        )
        assert code == 1
        assert err == "error: all four orientations of bes:1,3,5,6 have the blocking chord\n"

    @pytest.mark.parametrize(
        "site, via, message",
        [
            ("bes:1,3,1,3", "two-ps", "missing face"),
            ("bes:1,2,3,4", "two-ps", "missing face"),
            ("bes:1,2,3,4", "bts-pc", "missing face"),
            ("bew:1,3", "ps-btw", "already present"),
            ("bew:1,2", "ps-btw", "not adjacent"),
        ],
    )
    def test_invalid_site_gets_the_rule_message(self, capsys, site, via, message):
        # each recipe runs the rule of the move it expands before anything else
        code, out, err = run(capsys, "expand", "octahedron", site, "--via", via)
        assert code == 1
        assert "error" in err
        assert out == ""
        assert message in err and "internal" not in err

    def test_a_sequence_reaching_the_wrong_state_fails_verification(self, capsys, monkeypatch):
        # the recipe's first step alone applies, but stops one move short
        monkeypatch.setitem(
            cli._EXPANDERS, "bts-pc", lambda tri, site: [site_from_str("bts:1,3,5")]
        )
        code, out, err = run(capsys, "expand", "octahedron", "bes:1,3,5,6")
        assert (code, out, err) == (1, "", "error: expansion failed verification\n")

    def test_no_recipe_for_primitive_moves(self, capsys):
        code, _, err = run(capsys, "expand", "octahedron", "bts:1,3,5")
        assert code == 1
        assert "no expansion recipe" in err


class TestConnect:
    def test_octahedron_to_cube_subdivision(self, capsys):
        code, out, _ = run(
            capsys,
            "connect",
            "octahedron",
            "cube-subdivision",
            "--max-vertices",
            "14",
            "--max-states",
            "3000",
        )
        assert code == 0
        kinds = [ln.split(":")[0] for ln in out.strip().splitlines()]
        assert kinds == ["bts", "bes", "bes", "ps"]

    def test_caps_too_small(self, capsys):
        code, out, err = run(
            capsys,
            "connect",
            "octahedron",
            "cube-subdivision",
            "--max-vertices",
            "8",
            "--max-states",
            "50",
        )
        assert code == 1
        assert "error" in err
        assert out == ""
        empty = "frontier empty under the vertex cap"
        assert f"2 from the first input ({empty}), 1 from the second ({empty})" in err


    def test_unbalanced_inputs_fail_at_the_gate_in_input_order(self, capsys, tmp_path):
        # each input passes the coloring gate once, the first input first,
        # so an unbalanced input is named before any surface mismatch
        odd = tmp_path / "odd.tri"
        odd.write_text(format_tri(validate(PROJECTIVE_PLANE), None))
        t, col = build_octahedron()
        bad = tmp_path / "bad.tri"
        bad.write_text(format_tri(t, col).replace("k 1 1 2 2 3 3", "k 1 1 1 2 3 3"))
        forced = "error: coloring contradiction at vertex 5: needs 1, already 0\n"
        improper = "error: the coloring is not proper: an edge has one color twice\n"
        for argv, message in [
            (("connect", odd, bad), forced),
            (("connect", bad, odd), improper),
            (("connect", "k333-torus", odd), forced),
            (("bfs", odd), forced),
        ]:
            got = run(capsys, *map(str, argv), *_CAPS)
            assert got == (1, "", message)


class TestBfs:
    @pytest.mark.parametrize("start, max_vertices, max_states", [
        ("k333-torus", 13, 60), ("cube-subdivision", 16, 40)
    ])
    def test_export_matches_the_oracle_forms(
        self, capsys, tmp_path, start, max_vertices, max_states
    ):
        kinds = "bts,btw,bes,bew,ps,pc"
        code, _, _ = run(
            capsys, "bfs", start, "--kinds", kinds,
            "--max-vertices", str(max_vertices), "--max-states", str(max_states),
            "--out", str(tmp_path),
        )
        assert code == 0
        t, col = GALLERY[start]()
        first, states, edges, _ = reference_bfs(
            t, col, [FlipKind(k) for k in kinds.split(",")],
            max_vertices=max_vertices, max_states=max_states,
        )

        def digest(code):
            return hashlib.sha256(code.data).hexdigest()[:16]

        index = ["state\tvertices\tedges\tfaces\tsurface\tstart"]
        for code in sorted(states):
            tri, tcol = states[code]
            index.append(
                f"{digest(code)}\t{tri.vertex_count}\t{tri.edge_count}\t"
                f"{tri.face_count}\t{surface_name(tri)}\t"
                f"{'yes' if code == first else 'no'}"
            )
            state_file = tmp_path / "states" / f"{digest(code)}.tri"
            assert state_file.read_text() == format_tri(tri, tcol)
        assert (tmp_path / "index.tsv").read_text() == "\n".join(index) + "\n"
        assert len(os.listdir(tmp_path / "states")) == len(states)
        lines = [f"{digest(a)}\t{k.value}\t{digest(b)}" for a, k, b in edges]
        assert (tmp_path / "edges.tsv").read_text() == "\n".join(
            ["src\tmove\tdst", *lines]
        ) + "\n"

    def test_summary_and_export(self, capsys, tmp_path):
        out_dir = str(tmp_path / "view")
        code, out, _ = run(
            capsys,
            "bfs",
            "octahedron",
            "--max-vertices",
            "9",
            "--max-states",
            "200",
            "--out",
            out_dir,
        )
        assert code == 0
        assert "states 3" in out
        assert "edges 8" in out
        assert "truncated no" in out

        index = open(os.path.join(out_dir, "index.tsv")).read().splitlines()
        assert index[0] == "state\tvertices\tedges\tfaces\tsurface\tstart"
        assert len(index) == 4
        assert sum(ln.endswith("\tyes") for ln in index[1:]) == 1

        edges = open(os.path.join(out_dir, "edges.tsv")).read().splitlines()
        assert edges[0] == "src\tmove\tdst"
        assert len(edges) == 9

        states = sorted(os.listdir(os.path.join(out_dir, "states")))
        assert len(states) == 3
        for name in states:
            text = open(os.path.join(out_dir, "states", name)).read()
            t, col = parse_tri(text)
            assert format_tri(t, col) == text


class TestClassify:
    def test_octahedron(self, capsys):
        code, out, _ = run(capsys, "classify", "octahedron")
        assert code == 0
        assert "is_octahedron yes" in out
        assert "ps_applicable no" in out

    def test_cube_subdivision(self, capsys):
        code, out, _ = run(capsys, "classify", "cube-subdivision")
        assert code == 0
        assert "is_octahedron no" in out
        assert "ps_applicable yes" in out


class TestSample:
    def test_reproducible(self, capsys, tmp_path):
        a = str(tmp_path / "a.tri")
        b = str(tmp_path / "b.tri")
        args = ["sample", "octahedron", "--steps", "6", "--seed", "11",
                "--max-vertices", "12"]
        code1, out1, _ = run(capsys, *args, "-o", a)
        code2, out2, _ = run(capsys, *args, "-o", b)
        assert code1 == code2 == 0
        assert out1 == out2
        assert open(a).read() == open(b).read()
        t, col = parse_tri(open(a).read())
        assert t.vertex_count <= 12

    @pytest.mark.parametrize(
        "option, value",
        [("--steps", "+2"), ("--seed", "1_0"), ("--seed", "\u0661"), ("--steps", " 2"),
         ("--max-vertices", "+12")],
    )
    def test_a_count_not_plain_decimal_is_an_argument_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "octahedron", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: {value!r} is not a plain decimal" in err

    @pytest.mark.parametrize(
        "option, value", [("--steps", "-1"), ("--max-vertices", "-1"), ("--steps", "-0012")]
    )
    def test_a_negative_count_is_an_argument_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "octahedron", option, value])
        assert exc.value.code == 2
        assert f"argument {option}: {value!r} is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bfs", "connect"])
    @pytest.mark.parametrize("option", ["--max-vertices", "--max-states"])
    def test_negative_search_caps_are_argument_errors(self, capsys, command, option):
        argv = [command, "octahedron"] + (["octahedron"] if command == "connect" else [])
        caps = {"--max-vertices": "10", "--max-states": "4"} | {option: "-5"}
        with pytest.raises(SystemExit) as exc:
            main(argv + [arg for pair in caps.items() for arg in pair])
        assert exc.value.code == 2
        assert f"argument {option}: '-5' is negative" in capsys.readouterr().err

    def test_zero_counts_and_a_negative_seed_are_accepted(self, capsys):
        code, out, _ = run(capsys, "sample", "octahedron", "--steps", "0", "--seed", "-3")
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "sample", "octahedron", "--steps", "2", "--seed", "-3")
        assert code == 0 and len(out.split()) == 2
        code, out, _ = run(
            capsys, "bfs", "octahedron", "--max-vertices", "0", "--max-states", "0"
        )
        assert code == 0 and "states 1" in out

    @pytest.mark.parametrize("command", ["bfs", "connect"])
    @pytest.mark.parametrize("option", ["--max-vertices", "--max-states"])
    def test_search_caps_take_plain_decimals_only(self, capsys, command, option):
        argv = [command, "octahedron"] + (["octahedron"] if command == "connect" else [])
        caps = {"--max-vertices": "8", "--max-states": "4"} | {option: "1_0"}
        with pytest.raises(SystemExit) as exc:
            main(argv + [arg for pair in caps.items() for arg in pair])
        assert exc.value.code == 2
        assert f"argument {option}: '1_0' is not a plain decimal" in capsys.readouterr().err


class TestGallery:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "gallery")
        assert code == 0
        assert set(out.split()) == {"octahedron", "k333-torus", "cube-subdivision"}

    def test_print_one(self, capsys):
        code, out, _ = run(capsys, "gallery", "octahedron")
        assert code == 0
        t, col = parse_tri(out)
        assert t.vertex_count == 6
        assert col is not None

    def test_write_one(self, capsys, tmp_path):
        p = str(tmp_path / "k.tri")
        code, out, _ = run(capsys, "gallery", "k333-torus", "-o", p)
        assert code == 0
        text = open(p).read()
        t, col = parse_tri(text)
        assert format_tri(t, col) == text

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "gallery", "dodecahedron")
        assert code == 2
        assert "unknown gallery entry" in err


class TestBip:
    K33_TEXT = "p bip 6 9\nn 0 0 0 1 1 1\n" + "".join(
        f"e {i + 1} {j + 4}\n" for i in range(3) for j in range(3)
    )
    SCRIPT = "add-leaf 1 7\nsplit-edge 2 5 8 9\ndel-leaf 7\n"

    def test_apply(self, capsys, tmp_path):
        g = str(tmp_path / "g.bip")
        s = str(tmp_path / "s.ops")
        out_path = str(tmp_path / "h.bip")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write(self.SCRIPT)
        code, _, _ = run(capsys, "bip", "apply", g, s, "-o", out_path)
        assert code == 0
        h = parse_bip(open(out_path).read())
        assert len(h.parts) == 8  # +2 from the split; leaf came and went
        assert h.min_degree() == 2

    def test_normalize(self, capsys, tmp_path):
        g = str(tmp_path / "g.bip")
        s = str(tmp_path / "s.ops")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write(self.SCRIPT)
        code, out, _ = run(capsys, "bip", "normalize", g, s)
        assert code == 0
        assert out.splitlines() == ["split-edge 2 5 8 9"]

    def test_inapplicable_script(self, capsys, tmp_path):
        g = str(tmp_path / "g.bip")
        s = str(tmp_path / "s.ops")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write("del-leaf 1\n")
        code, _, err = run(capsys, "bip", "apply", g, s)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "script",
        [
            "del-leaf 1\nadd-leaf 1 10\n",
            "add-leaf 1 2\n",  # vertex 2 is live
        ],
    )
    def test_normalize_rejects_what_apply_rejects(self, capsys, tmp_path, script):
        g = str(tmp_path / "g.bip")
        s = str(tmp_path / "s.ops")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write(script)
        for command in ("apply", "normalize"):
            code, out, err = run(capsys, "bip", command, g, s)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "internal" not in err

    @pytest.mark.parametrize(
        "script, message",
        [
            ("del-leaf 2\n", "del-leaf 2: vertex 2 has degree 3, not a leaf"),
            ("add-leaf 9 10\n", "add-leaf 9 10: no vertex 9"),
            # normalize renames the re-created 7 inside; the error does not
            ("add-leaf 1 7\ndel-leaf 7\nadd-leaf 2 7\ndel-corner 7\n",
             "del-corner 7: vertex 7 has degree 1, not 2"),
        ],
    )
    def test_a_refused_op_is_named_as_the_script_wrote_it(
        self, capsys, tmp_path, script, message
    ):
        g, s = str(tmp_path / "g.bip"), str(tmp_path / "s.ops")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write(script)
        for command in ("apply", "normalize"):
            assert run(capsys, "bip", command, g, s) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("bad", ["graph", "script"])
    def test_non_utf8_file_exits_two(self, capsys, tmp_path, bad):
        files = {"graph": self.K33_TEXT.encode(), "script": self.SCRIPT.encode()}
        files[bad] = b"\xff" + files[bad]
        g, s = str(tmp_path / "g.bip"), str(tmp_path / "s.ops")
        open(g, "wb").write(files["graph"])
        open(s, "wb").write(files["script"])
        for command in ("apply", "normalize"):
            code, out, err = run(capsys, "bip", command, g, s)
            assert code == 2
            assert out == ""
            assert err.startswith("parse error:") and "not UTF-8" in err

    def test_a_script_number_not_plain_decimal_exits_two(self, capsys, tmp_path):
        # int() reads '1_0' as 10, a script number is plain decimal
        g, s = str(tmp_path / "g.bip"), str(tmp_path / "s.ops")
        open(g, "w").write(self.K33_TEXT)
        open(s, "w").write("add-leaf 1 1_0\n")
        code, out, err = run(capsys, "bip", "apply", g, s)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 1: operation arguments must be integers")

    def test_repeated_edge_exits_two(self, capsys, tmp_path):
        g, s = str(tmp_path / "g.bip"), str(tmp_path / "s.ops")
        open(g, "w").write("p bip 2 2\nn 0 1\ne 1 2\ne 1 2\n")
        open(s, "w").write("")
        code, out, err = run(capsys, "bip", "apply", g, s)
        assert code == 2
        assert out == ""
        assert "line 4: repeated edge" in err
