"""Text formats: round trips, renumbering, and line-addressed errors."""

import pytest

from baltri import (
    Coloring,
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
    validate,
)
from baltri.bipartite import BipOp, BipOpKind
from baltri.explorer import build_k333_torus, build_octahedron

from conftest import k33, random_bip_case

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
