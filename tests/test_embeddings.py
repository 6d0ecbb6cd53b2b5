"""Even embeddings, face subdivision, color-class deletion, obstructions."""

from itertools import combinations

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
from baltri import surface
from baltri.bipartite import BipGraph
from baltri.embeddings import EvenEmbedding
from baltri.explorer import (
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
)
from baltri.flips import FlipKind

from oracles import reference_subdivision_obstruction


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
        # the walk is named 1-based, as the walk-step message names its step
        with pytest.raises(
            InvalidEmbedding, match="^walk 1-2 has length 2, need even and >= 4$"
        ):
            EvenEmbedding(BipGraph({0: 0, 1: 1}, [(0, 1)]), [(0, 1)])

    def test_odd_walk_rejected(self):
        g = square()
        with pytest.raises(InvalidEmbedding):
            EvenEmbedding(g, [(0, 1, 2, 3), (0, 3, 2, 1, 0, 1)])
        with pytest.raises(
            InvalidEmbedding, match="^walk 1-2-3-4-5 has length 5, need even and >= 4$"
        ):
            EvenEmbedding(g, [(0, 1, 2, 3, 4)])

    def test_non_edge_step_rejected(self):
        g = square()
        with pytest.raises(InvalidEmbedding, match="^walk step 1-3 is not an edge$"):
            EvenEmbedding(g, [(0, 1, 2, 3), (0, 2, 1, 3)])

    def test_edge_coverage_must_be_exactly_two(self):
        g = BipGraph({0: 0, 1: 1}, [(0, 1)])
        with pytest.raises(
            InvalidEmbedding, match=r"^edge \{1,2\} lies on 4 walk slots, need 2$"
        ):
            EvenEmbedding(g, [(0, 1, 0, 1)])

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidEmbedding, match="^empty graph$"):
            EvenEmbedding(BipGraph({}, []), [])

    def test_isolated_vertex_rejected(self):
        g = BipGraph({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}, square().edges)
        with pytest.raises(InvalidEmbedding, match="^isolated vertex$"):
            EvenEmbedding(g, [(0, 1, 2, 3), (0, 3, 2, 1)])

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

    def test_the_validated_cone_is_returned(self, monkeypatch):
        calls = []
        real = surface.validate
        monkeypatch.setattr(
            "baltri.embeddings.validate", lambda f: calls.append(f) or real(f)
        )
        t, col = build_cube_subdivision()
        assert len(calls) == 1
        assert t == real(calls[0])
        assert face_subdivision(cube_embedding()) == (t, col)

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
        # no colorings are passed: subdivision_obstruction finds its own
        t1, _ = build_cube_subdivision()
        t2, _ = build_octahedron()
        assert subdivision_obstruction(t1, t2) is Verdict.UNREACHABLE
        # symmetric call agrees
        assert subdivision_obstruction(t2, t1) is Verdict.UNREACHABLE

    def test_two_stuck_subdivisions(self):
        t1, _ = build_cube_subdivision()
        t2, _ = face_subdivision(hex_prism_embedding())
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

    def test_degrees_match_the_deleted_classes(
        self, mixed_samples_14, non_orientable_samples
    ):
        # deleting a color halves each other vertex's degree, so the degree
        # test must give the verdicts of building each deletion; each input
        # is set against the smallest one on its surface, both ways round
        inputs = [build_octahedron(), build_k333_torus(), build_cube_subdivision()]
        inputs += [face_subdivision(hex_prism_embedding())]
        inputs += mixed_samples_14 + non_orientable_samples
        by_surface = {}
        for t, _ in inputs:
            by_surface.setdefault(surface_name(t), []).append(t)
        assert len(by_surface) == 4
        verdicts = []
        for group in by_surface.values():
            smallest = min(group, key=lambda t: t.vertex_count)
            for t in group:
                for t1, t2 in ((t, smallest), (smallest, t)):
                    want = reference_subdivision_obstruction(t1, t2)
                    assert subdivision_obstruction(t1, t2) is want
                    verdicts.append(want)
        assert Verdict.UNREACHABLE in verdicts and Verdict.INCONCLUSIVE in verdicts

    @pytest.mark.parametrize("build, states", [
        (build_octahedron, 54), (build_k333_torus, 21)
    ])
    def test_never_unreachable_within_a_stellar_ball(self, build, states):
        # the stellar moves invert each other, so any two states of one ball
        # are joined by flips: the verdict on them must never be UNREACHABLE;
        # cap 14 holds the whole ball, 1,431 pairs on the octahedron and
        # 210 on k333-torus
        stellar = [FlipKind(k) for k in ("bts", "btw", "bes", "bew")]
        view = bfs(build()[0], kinds=stellar, max_vertices=14, max_states=10**4)
        assert not view.truncated and view.state_count == states
        forms = [form for form, _ in view.states.values()]
        pairs = list(combinations(forms, 2))
        assert len(pairs) == states * (states - 1) // 2
        for t1, t2 in pairs:
            assert subdivision_obstruction(t1, t2) is not Verdict.UNREACHABLE
