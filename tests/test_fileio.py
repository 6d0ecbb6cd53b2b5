"""Text formats: round trips, renumbering, and line-addressed errors."""

import random
import re

import pytest

from baltri import (
    Coloring,
    DuplicateFace,
    NonManifoldEdge,
    ParseError,
    cube_embedding,
    delete_color_class,
    format_bip,
    format_bip_script,
    format_emb,
    format_tri,
    parse_bip,
    parse_bip_script,
    parse_emb,
    parse_tri,
    surface_name,
    validate,
)
from baltri import cli
from baltri.bipartite import BipOp, BipOpKind
from baltri.cli import GALLERY
from baltri.errors import BaltriError
from baltri.explorer import build_k333_torus, build_octahedron

from conftest import grid_torus, k33, random_bip_case
from oracles import reference_parse_tri

OCTA_TEXT = """\
# the six-vertex sphere
p tri 6 8
k 1 1 2 2 3 3
f 1 3 5
f 1 3 6
f 1 4 5
f 1 4 6
f 2 3 5
f 2 3 6
f 2 4 5
f 2 4 6
"""


class TestTri:
    def test_parse_the_octahedron(self):
        t, col = parse_tri(OCTA_TEXT)
        octa, ocol = build_octahedron()
        assert t == octa
        assert col == ocol

    def test_round_trip(self, sphere_samples_12):
        for t, col in sphere_samples_12[:20]:
            t2, col2 = parse_tri(format_tri(t, col))
            # writers renumber to 1..V, so compare after one more pass
            assert format_tri(t2, col2) == format_tri(t, col)

    def test_renumbering_is_contiguous(self):
        t = validate([(10, 20, 30), (10, 20, 40), (10, 30, 40), (20, 30, 40)])
        text = format_tri(t)
        assert "p tri 4 4" in text
        t2, _ = parse_tri(text)
        assert sorted(t2.vertices) == [0, 1, 2, 3]

    def test_coloring_is_optional(self):
        text = format_tri(build_octahedron()[0])
        t, col = parse_tri(text)
        assert col is None

    def test_coloring_returned_even_if_improper(self):
        # properness is the caller's concern, the parser only bounds values
        text = OCTA_TEXT.replace("k 1 1 2 2 3 3", "k 1 1 1 2 3 3")
        _, col = parse_tri(text)
        assert col is not None

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_tri("p quux 6 8\n")

    def test_face_count_mismatch(self):
        with pytest.raises(ParseError, match="promises 9 faces"):
            parse_tri(OCTA_TEXT.replace("p tri 6 8", "p tri 6 9"))

    def test_vertex_count_mismatch(self):
        text = OCTA_TEXT.replace("p tri 6 8", "p tri 7 8").replace(
            "k 1 1 2 2 3 3\n", ""
        )
        with pytest.raises(ParseError, match="promises 7 vertices"):
            parse_tri(text)

    def test_vertex_out_of_range_names_the_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_tri(OCTA_TEXT.replace("f 1 3 5", "f 1 3 9"))

    def test_color_out_of_range(self):
        with pytest.raises(ParseError, match="1..3"):
            parse_tri(OCTA_TEXT.replace("k 1 1 2 2 3 3", "k 1 1 2 2 3 4"))

    def test_second_color_line(self):
        with pytest.raises(ParseError, match="second 'k'"):
            parse_tri(OCTA_TEXT.replace("f 1 3 5", "k 1 1 2 2 3 3\nf 1 3 5"))

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_tri(OCTA_TEXT.replace("f 1 3 5", "f 1 3 x"))

    def test_unknown_record(self):
        with pytest.raises(ParseError, match="unknown record"):
            parse_tri(OCTA_TEXT + "q 1 2 3\n")

    def test_semantic_faults_keep_their_own_type(self):
        # a textual parse succeeds, then surface validation speaks
        with pytest.raises(NonManifoldEdge):
            parse_tri("p tri 3 1\nf 1 2 3\n")

    def test_only_comments_and_blank_lines(self):
        with pytest.raises(ParseError, match="^empty input$"):
            parse_tri("# a comment\n\n   \n\t# and no records\n")

    def test_color_line_after_the_faces(self):
        lines = OCTA_TEXT.splitlines()
        t, col = parse_tri("\n".join(lines[:2] + lines[3:] + lines[2:3]))
        assert (t, col) == build_octahedron()

    def test_round_trip_below_zero_chi(self, genus_two, three_crosscaps):
        for (t, col), name in (
            (genus_two, "orientable surface of genus 2"),
            (three_crosscaps, "non-orientable surface with 3 crosscaps"),
        ):
            text = format_tri(t, col)
            t2, col2 = parse_tri(text)
            assert format_tri(t2, col2) == text
            assert surface_name(t2) == name
            want = reference_parse_tri(text)
            assert (t2.faces, col2) == (want[0].faces, want[1])

    def test_comments_and_blank_lines_are_skipped(self):
        text = "\n\n# leading\n" + OCTA_TEXT.replace(
            "f 2 4 6", "f 2 4 6   # inline comment"
        )
        t, col = parse_tri(text)
        assert t.vertex_count == 6
        assert col is not None


class TestBip:
    def test_round_trip(self):
        for seed in range(10):
            g, ops = random_bip_case(seed)
            text = format_bip(g)
            assert format_bip(parse_bip(text)) == text

    def test_known_graph(self):
        text = format_bip(k33())
        assert text.startswith("p bip 6 9\nn 0 0 0 1 1 1\n")
        assert parse_bip(text) == k33()

    def test_missing_parts_line(self):
        with pytest.raises(ParseError, match="missing 'n'"):
            parse_bip("p bip 2 1\ne 1 2\n")

    def test_second_parts_line(self):
        with pytest.raises(ParseError, match="^line 3: second 'n' line$"):
            parse_bip("p bip 2 1\nn 0 1\nn 0 1\ne 1 2\n")

    def test_part_bit_out_of_range(self):
        with pytest.raises(ParseError, match="0 or 1"):
            parse_bip("p bip 2 1\nn 0 2\ne 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="promises 2 edges"):
            parse_bip("p bip 2 2\nn 0 1\ne 1 2\n")

    @pytest.mark.parametrize("again", ["e 1 2", "e 2 1"])
    def test_repeated_edge(self, again):
        with pytest.raises(ParseError, match="line 4: repeated edge"):
            parse_bip(f"p bip 2 2\nn 0 1\ne 1 2\n{again}\n")


class TestEmb:
    def test_round_trip(self):
        emb = cube_embedding()
        text = format_emb(emb)
        assert parse_emb(text) == emb
        assert format_emb(parse_emb(text)) == text

    def test_round_trip_from_deletion(self, sphere_samples_12):
        # writers renumber, so stability holds from the second pass on
        for t, col in sphere_samples_12[:8]:
            emb = delete_color_class(t, col, 1)
            text = format_emb(emb)
            assert format_emb(parse_emb(text)) == text

    def test_walk_count_mismatch(self):
        text = format_emb(cube_embedding()).replace("p emb 8 12 6", "p emb 8 12 7")
        with pytest.raises(ParseError, match="promises 7 walks"):
            parse_emb(text)

    def test_short_walk_line(self):
        with pytest.raises(ParseError, match="at least 4"):
            parse_emb("p emb 2 1 1\nn 0 1\ne 1 2\nw 1 2\n")

    def test_repeated_edge(self):
        with pytest.raises(ParseError, match="line 4: repeated edge"):
            parse_emb("p emb 2 2 0\nn 0 1\ne 1 2\ne 1 2\n")


class TestScripts:
    def test_round_trip(self):
        ops = [
            BipOp(BipOpKind.ADD_LEAF, (0, 6)),
            BipOp(BipOpKind.SPLIT_EDGE, (1, 4, 7, 8)),
            BipOp(BipOpKind.SMOOTH_PATH, (1, 7, 8, 4)),
            BipOp(BipOpKind.DEL_LEAF, (6,)),
        ]
        text = format_bip_script(ops)
        assert parse_bip_script(text) == ops

    def test_rendering_is_one_based(self):
        text = format_bip_script([BipOp(BipOpKind.ADD_LEAF, (0, 6))])
        assert text == "add-leaf 1 7\n"

    def test_unknown_operation(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse_bip_script("grow 1 2\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse_bip_script("add-leaf 1 2 3\n")

    def test_zero_vertex_number(self):
        with pytest.raises(ParseError, match="start at 1"):
            parse_bip_script("add-leaf 0 2\n")


# -- the one-pass .tri parser against the line-by-line one ----------------------

FUZZ_CASES = 2400
# a pattern for each ParseError parse_tri can raise
FAULTS = (
    "^empty input$", "expected header 'p tri N N'", "header counts must be integers",
    "second 'k' line", r"expected \d+ colors", "colors must lie in", "colors must be integers",
    "face vertices must be integers", "a face needs 3 vertices", r"vertex -?\d+ out of range",
    "unknown record", r"^header promises \d+ faces", r"^header promises \d+ vertices",
)
TOKENS = ("0", "-1", "1", "2", "3", "4", "9", "+2", "07", "1_0", "x", "1.5", "", "k", "f", "p")


def _mutated(rng, lines, nv):
    """lines with one edit: a line dropped, duplicated or swapped, a token
    changed, a vertex out of range or not an integer, an extra field, a
    stray 'k' line, the 'k' line moved, a comment, a blank line, a header
    count off by one, a doubled space, or every line commented out."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    how = rng.randrange(14 if rng.random() < 0.1 else 13)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif how == 2 and fields:
        fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
        lines[i] = " ".join(fields)
    elif how in (3, 4) and len(fields) > 1:
        bad = ("0", str(nv + 1), "-3", str(2**70)) if how == 3 else ("x", "1.5", "2a", "")
        fields[rng.randrange(1, len(fields))] = rng.choice(bad)
        lines[i] = " ".join(fields)
    elif how == 5:
        lines[i] += " " + rng.choice(TOKENS[:7])
    elif how == 6:
        count = nv + rng.choice((0, 0, 0, -1, 1))
        colors = " ".join(rng.choice("1231234") for _ in range(count))
        lines.insert(rng.randrange(len(lines) + 1), f"k {colors}".strip())
    elif how == 7:
        ks = [j for j, line in enumerate(lines) if line.startswith("k")]
        if ks:
            lines.insert(rng.randrange(len(lines)), lines.pop(ks[0]))
    elif how == 8:
        if rng.random() < 0.5:
            lines.insert(i, rng.choice(("# note", "#", "  # f 1 2 3", "#k 1 2 3")))
        else:
            lines[i] += rng.choice(("  # trailing", "#", " #f 1 2"))
    elif how == 9:
        lines.insert(i, rng.choice(("", "   ", "\t", " \t ")))
    elif how == 10 and len(fields) == 4 and fields[0] == "p":
        j = rng.choice((2, 3))
        if fields[j].isdigit():
            fields[j] = str(int(fields[j]) + rng.choice((-1, 1)))
            lines[i] = " ".join(fields)
    elif how == 11:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif how == 12:
        lines[i] = lines[i].replace(" ", "  ", 1)
    elif how == 13:
        lines = ["# " + line for line in lines]
    return lines or [""]


@pytest.fixture(scope="module")
def fuzz_texts(mixed_samples_14):
    """FUZZ_CASES seeded .tri texts, mutated from the gallery, grid tori and
    mixed_samples_14, with and without 'k' lines, some with CRLF ends."""
    bases = [build() for build in GALLERY.values()]
    bases += [grid_torus(n) for n in (3, 6)] + mixed_samples_14[::10]
    bases += [(t, None) for t, _ in bases[::2]]
    rng = random.Random(20170502)
    texts = []
    for _ in range(FUZZ_CASES):
        t, col = rng.choice(bases)
        lines = format_tri(t, col).splitlines()
        if rng.random() < 0.3:
            lines.insert(0, "# " + rng.choice(("header", "a surface", "p tri 1 1")))
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            lines = _mutated(rng, lines, t.vertex_count)
        end = "\r\n" if rng.random() < 0.2 else "\n"
        texts.append(end.join(lines) + rng.choice((end, "", end + end)))
    return texts


def _parsed(parse, text):
    """The faces and colors parse reads off text, or its error's class and message."""
    try:
        t, col = parse(text)
    except (ParseError, BaltriError) as exc:
        return type(exc), str(exc)
    return t.faces, None if col is None else col.as_dict()


class TestOnePass:
    """parse_tri must read every text as the line-by-line reference_parse_tri
    does: the same faces and colors, or the same error, line number included."""

    def test_matches_the_reference(self, fuzz_texts):
        outcomes = []
        for text in fuzz_texts:
            want = _parsed(reference_parse_tri, text)
            assert _parsed(parse_tri, text) == want, text
            outcomes.append(want)
        # every check fires somewhere, and many texts still parse
        failed = [o for o in outcomes if isinstance(o[0], type)]
        errors = "\n".join(message for _, message in failed)
        assert all(re.search(m, errors, re.M) for m in FAULTS), errors
        assert len(failed) < FUZZ_CASES * 3 // 4
        assert {kind for kind, _ in failed} >= {ParseError, NonManifoldEdge, DuplicateFace}

    def test_exit_codes_match(self, fuzz_texts, tmp_path, capsys, monkeypatch):
        path = tmp_path / "case.tri"
        for text in fuzz_texts[::12]:
            path.write_bytes(text.encode())
            got = cli.main(["validate", str(path)]), capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_tri", reference_parse_tri)
                want = cli.main(["validate", str(path)]), capsys.readouterr()
            assert got == want, text
