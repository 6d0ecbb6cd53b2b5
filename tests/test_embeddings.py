"""Even embeddings, face subdivision, color-class deletion, obstructions."""

import pytest

from baltri import (
    InvalidEmbedding,
    NotBalanced,
    PreconditionViolated,
    Verdict,
    cube_embedding,
    delete_color_class,
    face_subdivision,
    hex_prism_embedding,
    is_isomorphic,
    subdivision_obstruction,
    subdivision_vertex_count,
    surface_name,
)
from baltri.bipartite import BipGraph
from baltri.embeddings import EvenEmbedding
from baltri.explorer import (
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
)


def square():
    return BipGraph(
        {0: 0, 1: 1, 2: 0, 3: 1}, [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


def sphere_square_embedding():
    return EvenEmbedding(square(), [(0, 1, 2, 3), (0, 3, 2, 1)])


class TestConstruction:
    def test_walks_are_canonicalized(self):
        a = sphere_square_embedding()
        b = EvenEmbedding(square(), [(2, 3, 0, 1), (1, 0, 3, 2)])
        assert a == b
        assert a.walk_count == 2

    def test_short_walk_rejected(self):
        with pytest.raises(InvalidEmbedding):
            EvenEmbedding(BipGraph({0: 0, 1: 1}, [(0, 1)]), [(0, 1)])

    def test_odd_walk_rejected(self):
        g = square()
        with pytest.raises(InvalidEmbedding):
            EvenEmbedding(g, [(0, 1, 2, 3), (0, 3, 2, 1, 0, 1)])

    def test_non_edge_step_rejected(self):
        g = square()
        with pytest.raises(InvalidEmbedding, match="not an edge"):
            EvenEmbedding(g, [(0, 1, 2, 3), (0, 2, 1, 3)])

    def test_edge_coverage_must_be_exactly_two(self):
        g = BipGraph({0: 0, 1: 1}, [(0, 1)])
        with pytest.raises(InvalidEmbedding, match="4 walk slots"):
            EvenEmbedding(g, [(0, 1, 0, 1)])

    def test_pinched_walk_system_rejected(self):
        # two squares sharing one vertex close up into a pinched complex
        g = BipGraph(
            {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 0, 6: 1},
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
        )
        with pytest.raises(InvalidEmbedding, match="close up"):
            EvenEmbedding(
                g,
                [(0, 1, 2, 3), (0, 3, 2, 1), (0, 4, 5, 6), (0, 6, 5, 4)],
            )

    def test_euler_characteristic(self):
        assert sphere_square_embedding().euler_characteristic() == 2
        assert cube_embedding().euler_characteristic() == 2
        assert hex_prism_embedding().euler_characteristic() == 2


class TestFaceSubdivision:
    def test_square_sphere_cones_to_the_octahedron(self):
        t, col = face_subdivision(sphere_square_embedding())
        octa, ocol = build_octahedron()
        assert is_isomorphic(t, octa, col, ocol)

    def test_cube_counts(self):
        emb = cube_embedding()
        t, col = face_subdivision(emb)
        assert t.vertex_count == 14
        assert t.face_count == 24
        assert surface_name(t) == "sphere"
        assert subdivision_vertex_count(emb) == 14

    def test_matches_the_stock_builder(self):
        t, col = face_subdivision(cube_embedding())
        t2, col2 = build_cube_subdivision()
        assert t == t2
        assert col == col2

    def test_hex_prism_counts(self):
        emb = hex_prism_embedding()
        assert len(emb.graph.parts) == 12
        assert emb.walk_count == 8
        t, _ = face_subdivision(emb)
        assert t.vertex_count == 20
        assert surface_name(t) == "sphere"

    def test_cone_colors_sit_above_the_parts(self):
        emb = cube_embedding()
        t, col = face_subdivision(emb)
        for v in emb.graph.parts:
            assert col[v] == emb.graph.part(v)
        cones = [v for v in t.vertices if v not in emb.graph.parts]
        assert all(col[v] == 2 for v in cones)
        assert len(cones) == emb.walk_count

    def test_vertex_count_identity(self):
        for emb in (
            sphere_square_embedding(),
            cube_embedding(),
            hex_prism_embedding(),
        ):
            assert (
                subdivision_vertex_count(emb)
                == emb.graph.edge_count() + emb.euler_characteristic()
            )


class TestDeleteColorClass:
    def test_octahedron_leaves_a_doubled_square(self):
        t, col = build_octahedron()
        emb = delete_color_class(t, col, 2)
        assert len(emb.graph.parts) == 4
        assert emb.graph.edge_count() == 4
        assert emb.walk_count == 2

    def test_cube_subdivision_round_trips_exactly(self):
        t, col = build_cube_subdivision()
        assert delete_color_class(t, col, 2) == cube_embedding()

    def test_torus_leaves_k33(self):
        t, col = build_k333_torus()
        emb = delete_color_class(t, col, 0)
        assert len(emb.graph.parts) == 6
        assert emb.graph.edge_count() == 9
        assert emb.walk_count == 3
        assert emb.euler_characteristic() == 0
        assert emb.graph.min_degree() == 3

    def test_bad_color_rejected(self):
        t, col = build_octahedron()
        with pytest.raises(PreconditionViolated):
            delete_color_class(t, col, 5)

    @pytest.mark.parametrize("color", [0, 1, 2])
    def test_an_improper_or_incomplete_coloring_is_not_balanced(self, color):
        t, col = build_octahedron()
        for bad in (col.updated({}, removed=[0]), col.updated({2: 0})):
            with pytest.raises(NotBalanced, match="not proper"):
                delete_color_class(t, bad, color)

    @pytest.mark.parametrize("color", [0, 1, 2])
    def test_round_trip_through_subdivision(self, color, sphere_samples_12):
        for t, col in sphere_samples_12[:15]:
            emb = delete_color_class(t, col, color)
            t2, col2 = face_subdivision(emb)
            assert is_isomorphic(t, t2, col, col2)
            assert subdivision_vertex_count(emb) == t.vertex_count

    def test_subdivision_degrees_double(self, sphere_samples_12):
        for t, col in sphere_samples_12[:10]:
            emb = delete_color_class(t, col, 2)
            t2, _ = face_subdivision(emb)
            for v in emb.graph.parts:
                assert t2.degree(v) == 2 * emb.graph.degree(v)


class TestObstruction:
    def test_isomorphic_inputs_are_inconclusive(self):
        t, _ = build_octahedron()
        assert subdivision_obstruction(t, t) is Verdict.INCONCLUSIVE

    def test_different_surfaces_are_unreachable(self):
        t1, _ = build_octahedron()
        t2, _ = build_k333_torus()
        assert subdivision_obstruction(t1, t2) is Verdict.UNREACHABLE

    def test_subdivision_of_min_degree_three_graph_is_stuck(self):
        t1, _ = build_cube_subdivision()
        t2, _ = build_octahedron()
        assert subdivision_obstruction(t1, t2) is Verdict.UNREACHABLE
        # symmetric call agrees
        assert subdivision_obstruction(t2, t1) is Verdict.UNREACHABLE

    def test_two_stuck_subdivisions(self):
        t1, _ = build_cube_subdivision()
        t2, _ = face_subdivision(hex_prism_embedding())
        assert subdivision_obstruction(t1, t2) is Verdict.UNREACHABLE

    def test_colorings_are_found_when_omitted(self):
        t1, _ = build_cube_subdivision()
        t2, _ = build_octahedron()
        assert subdivision_obstruction(t1, t2) is Verdict.UNREACHABLE

    def test_ordinary_spheres_are_inconclusive(self, sphere_samples_12):
        t2, _ = build_octahedron()
        seen = 0
        for t, col in sphere_samples_12[:30]:
            if t.vertex_count == 6:
                continue
            for color in (0, 1, 2):
                if delete_color_class(t, col, color).graph.min_degree() >= 3:
                    break
            else:
                assert (
                    subdivision_obstruction(t, t2)
                    is Verdict.INCONCLUSIVE
                )
                seen += 1
        assert seen > 0
