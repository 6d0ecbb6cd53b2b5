"""Validation, surface classification, and coloring basics."""

import itertools

import pytest

from baltri import (
    Coloring,
    DegenerateFace,
    Disconnected,
    DuplicateFace,
    ImpossibleSurface,
    NonManifoldEdge,
    NotBalanced,
    PinchedVertex,
    find_coloring,
    is_orientable,
    is_proper,
    surface_id,
    surface_name,
    validate,
)
from baltri.explorer import build_k333_torus, build_octahedron
from baltri.surface import _coloring

from conftest import PROJECTIVE_PLANE

TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


class TestValidate:
    def test_octahedron_counts(self):
        t, _ = build_octahedron()
        assert t.vertex_count == 6
        assert t.edge_count == 12
        assert t.face_count == 8

    def test_face_with_repeated_vertex(self):
        with pytest.raises(DegenerateFace):
            validate([(0, 0, 1), (0, 1, 2)])

    def test_face_with_wrong_arity(self):
        with pytest.raises(DegenerateFace):
            validate([(0, 1), (0, 1, 2)])

    def test_face_with_negative_vertex(self):
        with pytest.raises(DegenerateFace):
            validate([(0, 1, -2)])

    def test_repeated_face(self):
        with pytest.raises(DuplicateFace):
            validate(TETRAHEDRON + [(2, 1, 3)])

    def test_boundary_edge(self):
        # a lone triangle has every edge on one face only
        with pytest.raises(NonManifoldEdge):
            validate([(0, 1, 2)])

    def test_overused_edge(self):
        with pytest.raises(NonManifoldEdge):
            validate([(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])

    def test_pinched_vertex(self):
        # two tetrahedra sharing exactly one vertex
        second = [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
        with pytest.raises(PinchedVertex):
            validate(TETRAHEDRON + second)

    def test_disconnected(self):
        second = [(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
        with pytest.raises(Disconnected):
            validate(TETRAHEDRON + second)

    def test_euler_characteristic_check_survives_optimization(self, monkeypatch):
        # no closed surface reaches this check, so fake an orientable
        # projective plane (odd chi)
        monkeypatch.setattr("baltri.surface.is_orientable", lambda t: True)
        with pytest.raises(ImpossibleSurface):
            validate(PROJECTIVE_PLANE)

    def test_vertex_ids_need_not_be_contiguous(self):
        faces = [tuple(10 * v + 3 for v in f) for f in TETRAHEDRON]
        t = validate(faces)
        assert t.vertex_count == 4
        assert t.max_vertex_id == 33

    def test_input_order_is_irrelevant(self):
        t1 = validate(TETRAHEDRON)
        t2 = validate([(2, 3, 1), (3, 0, 2), (1, 3, 0), (2, 0, 1)])
        assert t1 == t2


class TestAccessors:
    def test_link_cycle_is_the_neighbor_set(self):
        t, _ = build_octahedron()
        for v in t.vertices:
            link = t.link_cycle(v)
            assert len(link) == t.degree(v)
            assert set(link) == set(t.neighbors(v))

    def test_link_cycle_consecutive_entries_are_faces(self):
        t, _ = build_k333_torus()
        for v in t.vertices:
            link = t.link_cycle(v)
            for i, w in enumerate(link):
                x = link[(i + 1) % len(link)]
                assert t.has_face(v, w, x)

    def test_edge_opposites(self):
        t = validate(TETRAHEDRON)
        assert set(t.edge_opposites(0, 1)) == {2, 3}

    def test_other_face_third(self):
        t = validate(TETRAHEDRON)
        assert t.other_face_third(0, 1, 2) == 3
        assert t.other_face_third(0, 1, 3) == 2


class TestSurfaces:
    def test_sphere(self):
        t, _ = build_octahedron()
        assert t.euler_characteristic() == 2
        assert is_orientable(t)
        assert surface_id(t) == (True, 0)
        assert surface_name(t) == "sphere"

    def test_torus(self):
        t, _ = build_k333_torus()
        assert all(t.degree(v) == 6 for v in t.vertices)  # complete tripartite
        assert t.euler_characteristic() == 0
        assert surface_id(t) == (True, 1)
        assert surface_name(t) == "torus"

    def test_projective_plane(self):
        t = validate(PROJECTIVE_PLANE)
        assert t.euler_characteristic() == 1
        assert not is_orientable(t)
        assert surface_id(t) == (False, 1)
        assert surface_name(t) == "projective plane"


class TestColoring:
    def test_octahedron_coloring_found_and_proper(self):
        t, col = build_octahedron()
        assert is_proper(t, col)
        assert is_proper(t, find_coloring(t))

    def test_odd_degree_has_no_coloring(self):
        with pytest.raises(NotBalanced):
            find_coloring(validate(TETRAHEDRON))

    def test_is_proper_rejects_monochrome_edge(self):
        t, col = build_octahedron()
        d = col.as_dict()
        v = next(iter(t.vertices))
        w = next(iter(t.neighbors(v)))
        d[w] = d[v]
        assert not is_proper(t, Coloring(d))

    @pytest.mark.parametrize("builder", [build_octahedron, build_k333_torus])
    def test_exactly_six_proper_colorings(self, builder):
        # connected and balanced: one partition into classes, 3! labelings
        t, _ = builder()
        vs = sorted(t.vertices)
        proper = 0
        for assignment in itertools.product((0, 1, 2), repeat=len(vs)):
            col = Coloring(dict(zip(vs, assignment)))
            proper += is_proper(t, col)
        assert proper == 6

    def test_sampled_colorings_unique_up_to_permutation(self, sphere_samples_12):
        for t, col in sphere_samples_12[:40]:
            found = find_coloring(t)
            perm = {}
            for v in t.vertices:
                perm.setdefault(col[v], found[v])
            assert len(set(perm.values())) == 3
            assert all(found[v] == perm[col[v]] for v in t.vertices)

    def test_the_gate_passes_a_proper_coloring_and_finds_a_missing_one(self):
        t, col = build_k333_torus()
        assert _coloring(t, col) is col
        assert _coloring(t, None) == find_coloring(t)

    @pytest.mark.parametrize(
        "change, why",
        [
            ({0: 5}, "vertex 0 has no color in {0, 1, 2}"),
            ({2: 0}, "an edge has one color twice"),
        ],
    )
    def test_the_gate_names_what_is_improper(self, change, why):
        t, col = build_octahedron()  # 0 has color 0, its neighbor 2 color 1
        bad = col.updated(change)
        with pytest.raises(NotBalanced) as err:
            _coloring(t, bad)
        assert str(err.value) == f"the coloring is not proper: {why}"

    def test_color_class_partitions_vertices(self):
        t, col = build_k333_torus()
        classes = [col.color_class(c) for c in range(3)]
        assert sorted(v for cls in classes for v in cls) == sorted(t.vertices)

    def test_permuted(self):
        _, col = build_octahedron()
        swapped = col.permuted((1, 0, 2))
        assert all(swapped[v] == (1, 0, 2)[col[v]] for v in col)

    def test_updated(self):
        _, col = build_octahedron()
        col2 = col.updated({99: 1}, removed=[0])
        assert 0 not in col2
        assert col2[99] == 1
