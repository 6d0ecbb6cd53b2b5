"""The eight local moves: inventories, soundness, inverses, site handling."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from baltri import (
    ColorMode,
    InvalidSite,
    NonManifoldEdge,
    NotBalanced,
    ParseError,
    PinchedVertex,
    TriangulationError,
    WouldCreateDuplicateFace,
    canonical_code,
    is_orientable,
    is_proper,
    random_walk,
    surface_id,
    validate,
)
from baltri.explorer import (
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
)
from baltri import flips
from baltri.flips import (
    FlipKind,
    FlipSite,
    apply_flip,
    bew_patch,
    enumerate_sites,
    inverse_site,
    site_footprint,
    site_from_str,
    site_to_str,
)

from baltri.surface import _swap_faces, face_key

from conftest import PROJECTIVE_PLANE, grid_torus, run_python, walk_sample
from oracles import (
    naive_ps_sites,
    reference_apply_flip,
    reference_enumerate_sites,
    reference_inverse_site,
    reference_verdicts,
)

# Moves that create vertices first restore the original exactly on a
# round trip; moves that delete first come back with fresh ids, so the
# round trip is only expected to match up to relabeling.
EXACT_ROUND_TRIP = {FlipKind.BTS, FlipKind.BES, FlipKind.PS, FlipKind.NFLIP}


def sites_by_kind(t):
    out = {k: [] for k in FlipKind}
    for s in enumerate_sites(t):
        out[s.kind].append(s)
    return out


class TestTables:
    def test_vertex_deltas(self):
        assert {k: k.delta for k in FlipKind} == {
            FlipKind.BTS: 3,
            FlipKind.BTW: -3,
            FlipKind.BES: 2,
            FlipKind.BEW: -2,
            FlipKind.PS: 1,
            FlipKind.PC: -1,
            FlipKind.NFLIP: 0,
            FlipKind.P2FLIP: 0,
        }

    def test_inverse_pairing_is_an_involution(self):
        for k in FlipKind:
            assert k.inverse.inverse is k
            assert k.delta + k.inverse.delta == 0

    def test_ranks_follow_definition_order(self):
        assert [k.rank for k in FlipKind] == list(range(len(FlipKind)))
        assert FlipKind("bts") is FlipKind.BTS and FlipKind.BTS.value == "bts"


class TestOctahedronInventory:
    def test_site_counts(self):
        t, _ = build_octahedron()
        counts = {k: len(v) for k, v in sites_by_kind(t).items()}
        assert counts == {
            FlipKind.BTS: 8,
            FlipKind.BTW: 0,
            FlipKind.BES: 12,
            FlipKind.BEW: 0,
            FlipKind.PS: 0,
            FlipKind.PC: 0,
            FlipKind.NFLIP: 0,
            FlipKind.P2FLIP: 0,
        }

    def test_every_pair_has_the_patch_but_the_chord_blocks(self):
        # each edge joins two degree-4 vertices, yet the exits are adjacent
        t, _ = build_octahedron()
        for p, q in t.edges:
            a, b, _, _ = bew_patch(t, p, q)
            assert t.has_edge(a, b)


class TestApply:
    def test_missing_face_is_rejected(self):
        t, col = build_octahedron()
        a, b = sorted(t.vertices)[:2]
        c = next(iter(set(t.vertices) - t.neighbors(a) - {a}))
        with pytest.raises(InvalidSite):
            apply_flip(t, FlipSite(FlipKind.BTS, (a, b, c)), col)

    def test_degenerate_quad_is_rejected(self):
        t, col = build_octahedron()
        f = t.faces[0]
        with pytest.raises(InvalidSite):
            apply_flip(t, FlipSite(FlipKind.BES, (f[0], f[1], f[2], f[2])), col)

    def test_new_face_check_survives_optimization(self, monkeypatch):
        # the precondition checks rule this out, so fake a faulty rewrite
        # that adds a face the triangulation already has
        t, col = build_octahedron()
        monkeypatch.setitem(
            flips._REWRITES,
            FlipKind.BTS,
            lambda t, v: ((), (), [t.faces[1]], {}, ()),
        )
        with pytest.raises(WouldCreateDuplicateFace):
            apply_flip(t, FlipSite(FlipKind.BTS, t.faces[0]), col)

    def test_input_is_never_mutated(self):
        t, col = build_octahedron()
        faces_before = tuple(t.faces)
        site = enumerate_sites(t, [FlipKind.BES])[0]
        apply_flip(t, site, col)
        assert tuple(t.faces) == faces_before

    def test_uncolored_apply_returns_none_coloring(self):
        t, _ = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BTS])[0]
        t2, col2 = apply_flip(t, site)
        assert col2 is None
        assert t2.vertex_count == 9

    def test_created_ids_extend_the_max(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BTS])[0]
        t2, _ = apply_flip(t, site, col)
        assert sorted(set(t2.vertices) - set(t.vertices)) == [6, 7, 8]

    def test_new_vertices_copy_their_partners_color(self):
        t, col = build_octahedron()
        for site in enumerate_sites(t, [FlipKind.BES]):
            a, b, _, _ = site.vertices
            t2, col2 = apply_flip(t, site, col)
            p, q = sorted(set(t2.vertices) - set(t.vertices))
            assert col2[p] == col[a]
            assert col2[q] == col[b]

    def test_a_coloring_without_a_source_vertex_is_not_balanced(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        with pytest.raises(NotBalanced, match="vertex 0 has no color"):
            apply_flip(t, site, col.updated({}, removed=[0]))

    def test_a_coloring_without_a_removed_vertex_is_not_balanced(self):
        t, col = build_octahedron()
        t2, col2 = apply_flip(t, enumerate_sites(t, [FlipKind.BES])[0], col)
        weld = enumerate_sites(t2, [FlipKind.BEW])[0]
        p = weld.vertices[0]
        with pytest.raises(NotBalanced, match=f"vertex {p} has no color"):
            apply_flip(t2, weld, col2.updated({}, removed=[p]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_random_flip_soundness(seed, pick):
    t, col = walk_sample(seed % 150, steps=6, max_vertices=12)
    sites = enumerate_sites(t)
    site = sites[pick % len(sites)]
    t2, col2 = apply_flip(t, site, col)
    assert t2.vertex_count == t.vertex_count + site.kind.delta
    assert t2.euler_characteristic() == t.euler_characteristic()
    assert is_orientable(t2) == is_orientable(t)
    assert is_proper(t2, col2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_random_inverse_round_trip(seed, pick):
    t, col = walk_sample(seed % 150, steps=6, max_vertices=12)
    sites = enumerate_sites(t)
    site = sites[pick % len(sites)]
    undo = inverse_site(t, site)
    assert undo.kind == site.kind.inverse
    t2, col2 = apply_flip(t, site, col)
    t3, col3 = apply_flip(t2, undo, col2)
    if site.kind in EXACT_ROUND_TRIP:
        assert t3 == t
        assert col3 == col
    else:
        assert canonical_code(t3, col3, ColorMode.FIXED) == canonical_code(
            t, col, ColorMode.FIXED
        )


@settings(max_examples=60, deadline=None)
@given(
    start=st.sampled_from(["octahedron", "k333-torus", "cube-subdivision"]),
    seed=st.integers(0, 10**6),
    steps=st.integers(0, 14),
)
def test_inverse_site_matches_the_reference(start, seed, steps):
    t, _ = walk_sample(seed, steps=steps, max_vertices=24, start=start)
    for site in enumerate_sites(t):
        assert inverse_site(t, site) == reference_inverse_site(t, site)


class TestEnumeration:
    def test_sites_are_sorted_and_unique(self, sphere_samples_12):
        for t, _ in sphere_samples_12[:25]:
            sites = enumerate_sites(t)
            assert len(sites) == len(set(sites))
            keyed = [(s.kind.value, s.vertices) for s in sites]
            grouped = sorted(keyed, key=lambda kv: kv[0])
            # within one kind the vertex tuples come sorted
            by_kind = {}
            for k, v in keyed:
                by_kind.setdefault(k, []).append(v)
            for vs in by_kind.values():
                assert vs == sorted(vs)

    def test_kind_filter_is_a_restriction(self):
        t, _ = build_k333_torus()
        full = set(enumerate_sites(t))
        for kind in FlipKind:
            only = set(enumerate_sites(t, [kind]))
            assert only == {s for s in full if s.kind is kind}

    def test_every_listed_site_applies(self, sphere_samples_12):
        for t, col in sphere_samples_12[:15]:
            for site in enumerate_sites(t):
                apply_flip(t, site, col)

    def test_ps_scan_matches_the_naive_scan(self, sphere_samples_12):
        for t, _ in sphere_samples_12[:40]:
            lib = [s.vertices for s in enumerate_sites(t, [FlipKind.PS])]
            assert lib == naive_ps_sites(t.faces)

    def test_hexagon_moves_imply_a_split_site(self, sphere_samples_12):
        for t, _ in sphere_samples_12:
            hexes = enumerate_sites(t, [FlipKind.NFLIP, FlipKind.P2FLIP])
            if hexes:
                assert enumerate_sites(t, [FlipKind.PS])


# starts of the differential walks, balanced or not: the site readers never
# look at colors
DIFFERENTIAL_STARTS = {
    "octahedron": lambda: build_octahedron()[0],
    "k333-torus": lambda: build_k333_torus()[0],
    "cube-subdivision": lambda: build_cube_subdivision()[0],
    "grid-torus-3": lambda: grid_torus(3)[0],
    "grid-torus-6": lambda: grid_torus(6)[0],
    "tetrahedron": lambda: validate([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    # its equator edges are the only degree-4 pairs whose far vertices agree
    "bipyramid": lambda: validate(
        [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)]
    ),
    "projective-plane": lambda: validate(PROJECTIVE_PLANE),
}


def reference_walk(start, seed, steps):
    """steps uniformly random moves from a start, chosen among the sites the
    reference lists, without a coloring."""
    rng = random.Random(seed)
    t = DIFFERENTIAL_STARTS[start]()
    for _ in range(steps):
        t, _ = apply_flip(t, rng.choice(reference_enumerate_sites(t)))
    return t


def assert_sites_match_the_reference(t):
    assert enumerate_sites(t) == reference_enumerate_sites(t)
    for kind in FlipKind:
        assert enumerate_sites(t, [kind]) == reference_enumerate_sites(t, [kind])


class TestReadersMatchTheReference:
    @settings(max_examples=80, deadline=None)
    @given(
        start=st.sampled_from(sorted(DIFFERENTIAL_STARTS)),
        seed=st.integers(0, 10**6),
        steps=st.integers(0, 12),
    )
    def test_on_walks(self, start, seed, steps):
        assert_sites_match_the_reference(reference_walk(start, seed, steps))

    def test_on_a_grown_sphere(self):
        t, col = build_octahedron()
        grow = [FlipKind.BTS, FlipKind.BES, FlipKind.PS]
        t, col, _ = random_walk(t, col, grow, steps=400, seed=0, max_vertices=201)
        t, _, _ = random_walk(t, col, None, steps=60, seed=1, max_vertices=201)
        assert t.vertex_count > 190
        assert_sites_match_the_reference(t)

    def test_every_reader_check_meets_both_verdicts(self):
        # the bts and bes readers check nothing, as every face and every
        # edge is a site; each other kind has candidates on both sides
        accepted = dict.fromkeys(FlipKind, 0)
        rejected = dict.fromkeys(FlipKind, 0)
        for start in DIFFERENTIAL_STARTS:
            for seed in range(6):
                t = reference_walk(start, seed, 2 * seed)
                for kind in FlipKind:
                    for ok in reference_verdicts(t, kind).values():
                        (accepted if ok else rejected)[kind] += 1
        assert all(accepted.values()), accepted
        unchecked = {FlipKind.BTS, FlipKind.BES}
        assert {k for k in FlipKind if rejected[k]} == set(FlipKind) - unchecked


class TestSiteStrings:
    def test_round_trip(self, sphere_samples_12):
        for t, _ in sphere_samples_12[:10]:
            for site in enumerate_sites(t):
                assert site_from_str(site_to_str(site)) == site

    def test_rendering_is_one_based(self):
        assert site_to_str(FlipSite(FlipKind.BTS, (0, 2, 4))) == "bts:1,3,5"
        assert site_from_str("bts:1,3,5") == FlipSite(FlipKind.BTS, (0, 2, 4))

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            site_from_str("zzz:1,2,3")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            site_from_str("bts:1,2")

    def test_not_a_number(self):
        with pytest.raises(ParseError):
            site_from_str("bts:1,2,x")

    def test_arities_match_the_table(self, sphere_samples_12):
        for t, _ in sphere_samples_12[:5]:
            for site in enumerate_sites(t):
                assert len(site.vertices) == site.kind.arity


class TestSiteConstruction:
    def test_the_vertices_are_stored_as_a_tuple(self):
        t, col = build_octahedron()
        bes = enumerate_sites(t, [FlipKind.BES])[0]
        p, q = inverse_site(t, bes).vertices
        t, col = apply_flip(t, bes, col)
        site = FlipSite(FlipKind.BEW, [p, q])
        assert site.vertices == (p, q) and type(site.vertices) is tuple
        assert site == FlipSite(FlipKind.BEW, (p, q))
        assert {site: 1}[FlipSite(FlipKind.BEW, iter((p, q)))] == 1
        assert str(site) == f"bew:{p + 1},{q + 1}"
        assert site_footprint(t, site) == {p, q, *bew_patch(t, p, q)}
        assert apply_flip(t, site, col)[0].vertex_count == 6

    @pytest.mark.parametrize("kind", list(FlipKind))
    def test_the_wrong_arity_is_invalid(self, kind):
        for n in (0, kind.arity - 1, kind.arity + 1):
            with pytest.raises(InvalidSite, match=f"needs {kind.arity} vertices"):
                FlipSite(kind, tuple(range(n)))
        assert FlipSite(kind, range(kind.arity)).vertices == tuple(range(kind.arity))

    @pytest.mark.parametrize(
        "vertices", [5, None, "abc", (0, 1, "2"), (0, 1, 2.0), [0, None, 2]]
    )
    def test_a_non_integer_vertex_is_invalid(self, vertices):
        with pytest.raises(InvalidSite):
            FlipSite(FlipKind.BTS, vertices)


class TestValueType:
    # a site is the plain tuple (kind, vertices) with named fields; it keeps
    # the field repr and survives pickling and copying as a FlipSite
    def test_sorting_shuffled_sites_gives_the_listed_order(self, mixed_samples_14):
        rng = random.Random(0)
        kinds = set()
        for t, _ in mixed_samples_14:
            sites = enumerate_sites(t)
            kinds.update(s.kind for s in sites)
            shuffled = rng.sample(sites, len(sites))
            assert sorted(shuffled) == sites
            assert sorted(shuffled, key=lambda s: (s.kind.rank, s.vertices)) == sites
        assert kinds == set(FlipKind)

    def test_a_site_is_its_tuple(self, mixed_samples_14):
        for t, _ in mixed_samples_14[::4]:
            for site in enumerate_sites(t):
                assert site == (site.kind, site.vertices)
                assert hash(site) == hash((site.kind, site.vertices))
                assert repr(site) == (
                    f"FlipSite(kind={site.kind!r}, vertices={site.vertices!r})"
                )
                assert type(site.vertices) is tuple

    def test_pickle_and_copy_round_trip(self, mixed_samples_14):
        for t, _ in mixed_samples_14[::4]:
            sites = enumerate_sites(t)
            copies = [copy.copy(sites), copy.deepcopy(sites)]
            copies += [pickle.loads(pickle.dumps(sites, p)) for p in range(6)]
            for back in copies:
                assert back == sites
                assert all(type(s) is FlipSite for s in back)
                assert [str(s) for s in back] == [str(s) for s in sites]


class TestFootprint:
    def test_footprint_covers_the_site(self, sphere_samples_12):
        for t, _ in sphere_samples_12[:15]:
            for site in enumerate_sites(t):
                fp = site_footprint(t, site)
                assert set(site.vertices) <= fp
                if site.kind is FlipKind.BEW:
                    assert fp == set(site.vertices) | set(
                        bew_patch(t, *site.vertices)
                    )
                else:
                    assert fp == set(site.vertices)


class TestPinnedExample:
    def test_split_after_expansion_lists_the_expected_fan(self):
        t, col = build_octahedron()
        t2, col2 = apply_flip(t, site_from_str("bes:1,3,5,6"), col)
        ps = [site_to_str(s) for s in enumerate_sites(t2, [FlipKind.PS])]
        assert "ps:5,1,8,7,3" in ps


def assert_same_triangulation(got, want):
    """Every index and derived query of the patched result equals the rebuilt
    one's."""
    assert got.faces == want.faces
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got._edge_faces == want._edge_faces
    # the vertex index also keeps validate's (ascending) key order
    assert list(got._links.items()) == list(want._links.items())
    for v in want.vertices:
        assert got.degree(v) == want.degree(v)
        assert got.neighbors(v) == want.neighbors(v)
    assert got.edge_count == want.edge_count
    assert got.max_vertex_id == want.max_vertex_id
    assert all(got.has_face(*f) for f in want.faces)
    assert hash(got) == hash(want)
    assert surface_id(got) == surface_id(want)
    assert got._orientable == want._orientable


class TestPatchedApply:
    @settings(max_examples=60, deadline=None)
    @given(
        start=st.sampled_from(["octahedron", "k333-torus", "cube-subdivision"]),
        seed=st.integers(0, 10**6),
        steps=st.integers(0, 14),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    )
    def test_matches_the_rebuild(self, start, seed, steps, picks):
        t, col = walk_sample(seed, steps=steps, max_vertices=24, start=start)
        if seed % 2:
            is_orientable(t)  # a known orientability is passed on, not recomputed
        sites = enumerate_sites(t)
        for pick in picks:
            site = sites[pick % len(sites)]
            got, gotcol = apply_flip(t, site, col)
            want, wantcol = reference_apply_flip(t, site, col)
            assert_same_triangulation(got, want)
            assert gotcol == wantcol

    def test_equals_and_hashes_as_the_rebuild(self, small_samples_50):
        # the hash is computed on first use, on the patch and the rebuild alike
        for t, col in small_samples_50:
            for site in enumerate_sites(t)[::7]:
                got, _ = apply_flip(t, site, col)
                want = validate(got.faces)
                assert got._hash is None and want._hash is None
                assert got == want and hash(got) == hash(want) == hash(got.faces)
                assert len({got, want}) == 1

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_the_rebuild_on_the_projective_plane(self, seed):
        # non-orientable and not balanced: flips run without a coloring
        rng = random.Random(seed)
        t = validate(PROJECTIVE_PLANE)
        for _ in range(rng.randint(1, 6)):
            t, _ = apply_flip(t, FlipSite(FlipKind.BTS, rng.choice(t.faces)))
        for _ in range(8):
            site = rng.choice(enumerate_sites(t))
            got, gotcol = apply_flip(t, site)
            want, _ = reference_apply_flip(t, site)
            assert gotcol is None
            assert_same_triangulation(got, want)
            assert surface_id(got) == (False, 1)
            t = got


def _dropping_one_face(rule, index):
    """rule with the index-th added face left out: the patch is no disk."""

    def broken(t, verts):
        rem, gone, add, color_src, undo = rule(t, verts)
        return rem, gone, add[:index] + add[index + 1:], color_src, undo

    return broken


class TestPatchSoundness:
    def test_a_holed_patch_is_refused(self, monkeypatch, sphere_samples_12):
        refused = 0
        for t, col in sphere_samples_12[:10]:
            for site in enumerate_sites(t):
                real = flips._REWRITES[site.kind]
                added = len(real(t, site.vertices)[2])
                for index in range(added):
                    monkeypatch.setitem(
                        flips._REWRITES, site.kind, _dropping_one_face(real, index)
                    )
                    # the rebuilt face list names the fault validate finds
                    with pytest.raises(TriangulationError) as want:
                        reference_apply_flip(t, site, col)
                    with pytest.raises(TriangulationError) as got:
                        apply_flip(t, site, col)
                    assert got.type is want.type
                    monkeypatch.setitem(flips._REWRITES, site.kind, real)
                    refused += 1
        assert refused > 500

    def test_a_pinching_patch_is_refused(self):
        # v's star moved onto a vertex u two edges clear of it: every edge
        # still lies on two faces, but u's link becomes two cycles
        t, _ = grid_torus(6)
        v = t.vertices[0]
        near = {w for x in t.link_cycle(v) for w in t.link_cycle(x)}
        u = next(x for x in t.vertices if x not in near)
        link = t.link_cycle(v)
        pairs = [(link[i - 1], link[i]) for i in range(len(link))]
        rem = {face_key(v, a, b) for a, b in pairs}
        add = [face_key(u, a, b) for a, b in pairs]
        with pytest.raises(PinchedVertex):
            validate(sorted(set(t.faces) - rem | set(add)))
        with pytest.raises(PinchedVertex):
            _swap_faces(t, rem, add)

    def test_a_holed_patch_is_refused_under_optimization(self):
        done = run_python(
            "from baltri import flips\n"
            "from baltri.explorer import build_octahedron\n"
            "from baltri.flips import FlipKind, FlipSite, apply_flip\n"
            "real = flips._REWRITES[FlipKind.BES]\n"
            "def broken(t, v):\n"
            "    rem, gone, add, color_src, undo = real(t, v)\n"
            "    return rem, gone, add[1:], color_src, undo\n"
            "flips._REWRITES[FlipKind.BES] = broken\n"
            "t, col = build_octahedron()\n"
            "a, b = t.edges[0]\n"
            "c, d = t.edge_opposites(a, b)\n"
            "try:\n"
            "    apply_flip(t, FlipSite(FlipKind.BES, (a, b, c, d)), col)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
            "else:\n"
            "    print('accepted')\n",
            "-O",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == NonManifoldEdge.__name__
