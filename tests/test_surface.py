"""Validation, surface classification, and coloring basics."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from baltri import (
    Coloring,
    DegenerateFace,
    Disconnected,
    DuplicateFace,
    ImpossibleSurface,
    NonManifoldEdge,
    NotBalanced,
    PinchedVertex,
    TriangulationError,
    find_coloring,
    is_orientable,
    is_proper,
    surface_id,
    surface_name,
    validate,
)
from baltri import surface
from baltri.cli import GALLERY
from baltri.explorer import build_cube_subdivision, build_k333_torus, build_octahedron
from baltri.surface import _coloring, _index

from conftest import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    barycentric,
    grid_torus,
    grown_by_bts,
    sparse_relabeled,
    walk_sample,
)
from oracles import reference_find_coloring, reference_is_orientable, reference_validate

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


def _outcome(check, faces):
    """What check makes of faces: the error class, or the kept indexes with
    their key order."""
    try:
        t = check(list(faces))
    except TriangulationError as exc:
        return type(exc)
    return t.faces, list(t._edge_faces.items()), list(t._links.items())


def assert_validates_as_the_reference(faces):
    want = _outcome(reference_validate, faces)
    assert _outcome(validate, faces) == want
    return want


def _told(check, faces):
    """_outcome, with the error's message beside its class."""
    try:
        t = check(list(faces))
    except TriangulationError as exc:
        return type(exc), str(exc)
    return t.faces, list(t._edge_faces.items()), list(t._links.items())


def _indexed(faces):
    """validate without the one-pass build: _index indexes every face."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_build", lambda keys: None)
        return validate(faces)


def assert_builds_as_indexed(faces):
    """validate's result, the indexes in key order or the error's class and
    message, is the same with _build as with _index alone, and _build gives
    None on exactly the face keys on which _index raises."""
    build, verdicts = surface._build, []

    def checked_build(keys):
        built = build(keys)
        try:
            _index({}, {}, (), keys)
        except TriangulationError:
            verdicts.append(built is None)
        else:
            verdicts.append(built is not None)
        return built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surface, "_build", checked_build)
        got = _told(validate, faces)
    assert got == _told(_indexed, faces)
    assert verdicts in ([], [True])  # [] when the face pass raised
    return got


def _scrambled(faces, rng):
    """faces on sparse shuffled ids, each with its corners permuted, shuffled."""
    vertices = sorted({v for f in faces for v in f})
    label = dict(zip(vertices, rng.sample(range(10 * len(vertices)), len(vertices))))
    out = [tuple(rng.sample([label[v] for v in f], 3)) for f in faces]
    rng.shuffle(out)
    return out


# TestValidate's bad inputs and the empty list, with the error each must raise
BAD_INPUTS = [
    ([(0, 0, 1), (0, 1, 2)], DegenerateFace),
    ([(0, 1), (0, 1, 2)], DegenerateFace),
    ([(0, 1, -2)], DegenerateFace),
    ([], DegenerateFace),
    (TETRAHEDRON + [(2, 1, 3)], DuplicateFace),
    ([(0, 1, 2)], NonManifoldEdge),
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)], NonManifoldEdge),
    (TETRAHEDRON + [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)], PinchedVertex),
    (TETRAHEDRON + [(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)], Disconnected),
]

SURFACES = {
    "tetrahedron": TETRAHEDRON,
    "octahedron": build_octahedron()[0].faces,
    "k333-torus": build_k333_torus()[0].faces,
    "cube-subdivision": build_cube_subdivision()[0].faces,
    "projective-plane": PROJECTIVE_PLANE,
    "walked-sphere": walk_sample(7, steps=12, max_vertices=14)[0].faces,
    "walked-torus": walk_sample(
        7, steps=12, max_vertices=14, start="k333-torus"
    )[0].faces,
}


def _shifted(faces, by):
    return [tuple(v + by for v in f) for f in faces]


def _mutated(faces, kind, rng):
    """faces broken (or not) in one of the ways validate must tell apart."""
    faces = list(faces)
    vertices = sorted({v for f in faces for v in f})
    if kind == "drop":
        del faces[rng.randrange(len(faces))]
    elif kind == "repeat":
        f = list(rng.choice(faces))
        rng.shuffle(f)
        faces.append(tuple(f))
    elif kind == "add":
        faces.append(tuple(rng.sample(range(vertices[-1] + 3), 3)))
    elif kind == "pinch":
        # a second copy glued to the first at one vertex
        by = vertices[-1] + 1
        glue = {rng.choice(vertices) + by: rng.choice(vertices)}
        faces += [tuple(glue.get(v, v) for v in f) for f in _shifted(faces, by)]
    else:  # "union": a second copy beside the first
        faces += _shifted(faces, vertices[-1] + 1)
    return faces


class TestAgainstTheReference:
    @pytest.mark.parametrize("faces, error", BAD_INPUTS)
    def test_bad_inputs(self, faces, error):
        assert assert_validates_as_the_reference(faces) is error
        assert assert_builds_as_indexed(faces)[0] is error

    def test_the_impossible_surface(self, monkeypatch):
        monkeypatch.setattr("baltri.surface.is_orientable", lambda t: True)
        assert assert_validates_as_the_reference(PROJECTIVE_PLANE) is ImpossibleSurface

    def test_samples_shuffled_and_relabeled(self, mixed_samples_14):
        rng = random.Random(0)
        for t, _ in mixed_samples_14[::4]:
            faces = _scrambled(t.faces, rng)
            # still a surface, so the indexes are compared, not an error
            assert isinstance(assert_validates_as_the_reference(faces), tuple)
            assert_builds_as_indexed(faces)

    @settings(max_examples=300, deadline=None)
    @given(
        surface=st.sampled_from(sorted(SURFACES)),
        kinds=st.lists(
            st.sampled_from(["drop", "repeat", "add", "pinch", "union"]),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 10**6),
    )
    def test_mutated_samples(self, surface, kinds, seed):
        rng = random.Random(seed)
        faces = SURFACES[surface]
        for kind in kinds:
            faces = _mutated(faces, kind, rng)
        rng.shuffle(faces)
        assert_validates_as_the_reference(faces)
        assert_builds_as_indexed(faces)

    def test_surfaces_of_each_kind_as_given_and_scrambled(
        self, grown_801, genus_two, three_crosscaps
    ):
        # the one-pass build, the fault-naming path and the reference agree on
        # closed surfaces of each kind, up to V=801
        surfaces = {**SURFACES, "klein-bottle": KLEIN_BOTTLE}
        surfaces.update({k: t.faces for k, t in grown_801.items()})
        for target in (40, 200):
            surfaces[f"sphere-{target}"] = grown_by_bts(build_octahedron()[0], target).faces
            surfaces[f"torus-{target}"] = grown_by_bts(grid_torus(3)[0], target).faces
        for n in (3, 6, 12):
            surfaces[f"grid-torus-{n}"] = grid_torus(n)[0].faces
        surfaces["genus-two"] = genus_two[0].faces
        surfaces["three-crosscaps"] = three_crosscaps[0].faces
        rng = random.Random(3)
        for name, faces in surfaces.items():
            for copy in (list(faces), _scrambled(faces, rng)):
                got = assert_builds_as_indexed(copy)
                assert isinstance(got[0], tuple), name
                assert _outcome(reference_validate, copy) == got, name


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

    def test_has_face_matches_the_face_set(self, mixed_samples_14):
        # has_face finds a face among the two on one of its edges; set(faces)
        # is the plain membership it must agree with
        samples = [t for t, _ in mixed_samples_14[::10]] + [validate(PROJECTIVE_PLANE)]
        for t in samples:
            faces = set(t.faces)
            probes = [(p, True) for f in t.faces for p in itertools.permutations(f)]
            for a, b in t.edges:
                thirds = t.edge_opposites(a, b)
                for x in set(t.link_cycle(a) + t.link_cycle(b)) - {a, b, *thirds}:
                    probes.append(((x, a, b), False))
                probes.append(((a, a, b), False))
                probes.append(((b, a, b), False))
            for a, c in itertools.combinations(t.vertices, 2):
                if not t.has_edge(a, c):
                    probes.extend(((a, c, w), False) for w in t.link_cycle(a))
            for triple, want in probes:
                assert t.has_face(*triple) is want
                assert (tuple(sorted(triple)) in faces) is want

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

    def test_klein_bottle(self):
        # chi is even, so only the face walk tells it from the torus
        t = validate(KLEIN_BOTTLE)
        assert (t.vertex_count, t.face_count) == (9, 18)
        assert t.euler_characteristic() == 0
        assert not is_orientable(t)
        assert surface_id(t) == (False, 2)
        assert surface_name(t) == "Klein bottle"

    @pytest.mark.parametrize(
        "faces, vertex_count, name",
        [(PROJECTIVE_PLANE, 31, "projective plane"), (KLEIN_BOTTLE, 54, "Klein bottle")],
    )
    def test_balanced_subdivisions(self, faces, vertex_count, name):
        subdivided, col = barycentric(faces)
        t = validate(subdivided)
        assert t.vertex_count == vertex_count
        assert is_proper(t, col)
        assert surface_name(t) == name

    def test_genus_two(self, genus_two):
        t, col = genus_two
        assert (t.vertex_count, t.face_count, t.euler_characteristic()) == (15, 34, -2)
        assert sorted(t.degree(v) for v in t.vertices) == [6] * 12 + [10] * 3
        assert is_proper(t, col)
        assert surface_id(t) == (True, 2)
        assert surface_name(t) == "orientable surface of genus 2"

    def test_three_crosscaps(self, three_crosscaps):
        t, col = three_crosscaps
        assert t.euler_characteristic() == -1
        assert is_proper(t, col)
        assert surface_id(t) == (False, 3)
        assert surface_name(t) == "non-orientable surface with 3 crosscaps"

    def test_below_zero_chi_against_the_reference(self, genus_two, three_crosscaps):
        rng = random.Random(1)
        for t, _ in (genus_two, three_crosscaps):
            faces = [tuple(rng.sample(f, 3)) for f in t.faces]
            rng.shuffle(faces)
            assert assert_validates_as_the_reference(faces)[0] == t.faces


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
            ({0: 5}, "vertex 1 has no color in {0, 1, 2}"),
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


def _found_coloring(find, t):
    """find's coloring of t as a dict, or its NotBalanced class and message."""
    try:
        return find(t).as_dict()
    except NotBalanced as exc:
        return type(exc), str(exc)


def _coned(faces, face):
    """faces with face split at a new vertex: a degree-3 vertex, unbalanced."""
    n = max(v for f in faces for v in f) + 1
    a, b, c = face
    return [f for f in faces if f != face] + [(a, b, n), (a, c, n), (b, c, n)]


class TestFaceWalk:
    """find_coloring and is_orientable read one face walk; each must match
    the separate walk it replaced, error message included."""

    def test_matches_the_two_walks(
        self, mixed_samples_14, non_orientable_samples, genus_two, three_crosscaps
    ):
        balanced = [build() for build in GALLERY.values()]
        balanced += [grid_torus(n) for n in (3, 6, 9)]
        balanced += [
            sparse_relabeled(t, col, seed) for seed, (t, col) in enumerate(mixed_samples_14)
        ]
        balanced += non_orientable_samples + [genus_two, three_crosscaps]
        unbalanced = [TETRAHEDRON, PROJECTIVE_PLANE, KLEIN_BOTTLE]
        for t, _ in mixed_samples_14[::20] + non_orientable_samples:
            unbalanced += [_coned(t.faces, t.faces[0]), _coned(t.faces, t.faces[-1])]
        inputs = [t.faces for t, _ in balanced] + unbalanced
        outcomes = set()
        for faces in inputs:
            t = validate(faces)  # a fresh one, so is_orientable is not cached
            want = _found_coloring(reference_find_coloring, t)
            assert _found_coloring(find_coloring, t) == want
            assert is_orientable(t) is reference_is_orientable(t)
            outcomes.add((isinstance(want, dict), is_orientable(t)))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
