"""Canonical codes: invariance, modes, agreement with brute force and with
the full-sweep reference, pinned bytes, decoding, and wide codes."""

import copy
import functools
import json
import pickle
import random
from pathlib import Path

import pytest

from baltri import (
    ColorMode,
    Coloring,
    MissingColoring,
    NotBalanced,
    canonical_code,
    canonical_form,
    is_isomorphic,
    is_proper,
    surface_name,
    validate,
)
from baltri import canon, explorer
from baltri.cli import GALLERY
from baltri.explorer import (
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
    random_walk,
)
from baltri.flips import FlipKind, FlipSite, apply_flip, enumerate_sites

from conftest import grid_torus, sparse_relabeled
from oracles import (
    brute_isomorphism,
    color_permutations,
    eager_canonical,
    reference_automorphism_count,
    reference_canonical,
    reference_relabel,
    reference_start_flags,
)


def relabeled(t, col, seed):
    rng = random.Random(seed)
    vs = sorted(t.vertices)
    image = [v + 17 for v in vs]
    rng.shuffle(image)
    phi = dict(zip(vs, image))
    t2 = validate([tuple(phi[v] for v in f) for f in t.faces])
    col2 = Coloring({phi[v]: col[v] for v in vs}) if col is not None else None
    return t2, col2


class TestInvariance:
    @pytest.mark.parametrize("mode", list(ColorMode))
    def test_relabeling_preserves_the_code(self, mode, sphere_samples_12):
        for seed, (t, col) in enumerate(sphere_samples_12[:30]):
            t2, col2 = relabeled(t, col, seed)
            assert canonical_code(t, col, mode) == canonical_code(t2, col2, mode)

    def test_recoloring_invariance_by_mode(self, sphere_samples_12):
        for t, col in sphere_samples_12[:30]:
            for perm in color_permutations():
                col2 = col.permuted(perm)
                assert canonical_code(
                    t, col, ColorMode.UP_TO_PERMUTATION
                ) == canonical_code(t, col2, ColorMode.UP_TO_PERMUTATION)
            assert canonical_code(t, col, ColorMode.IGNORE) == canonical_code(
                t, col.permuted((2, 0, 1)), ColorMode.IGNORE
            )

    def test_fixed_mode_sees_the_recoloring(self, sphere_samples_12):
        # a permutation that changes the class-size vector must change the code
        hits = 0
        for t, col in sphere_samples_12:
            sizes = [len(col.color_class(c)) for c in range(3)]
            for perm in color_permutations():
                if [sizes[perm.index(c)] for c in range(3)] == sizes:
                    continue
                col2 = col.permuted(perm)
                assert canonical_code(t, col, ColorMode.FIXED) != canonical_code(
                    t, col2, ColorMode.FIXED
                )
                hits += 1
            if hits > 50:
                break
        assert hits > 0

    def test_nonisomorphic_codes_differ(self):
        t1, c1 = build_octahedron()
        t2, c2 = build_k333_torus()
        assert canonical_code(t1, c1) != canonical_code(t2, c2)


class TestModes:
    def test_mode_defaults(self):
        t, col = build_octahedron()
        assert canonical_code(t).mode == ColorMode.IGNORE.value
        assert canonical_code(t, col).mode == ColorMode.UP_TO_PERMUTATION.value

    @pytest.mark.parametrize(
        "mode", [ColorMode.FIXED, ColorMode.UP_TO_PERMUTATION]
    )
    def test_colored_modes_require_a_coloring(self, mode):
        t, _ = build_octahedron()
        with pytest.raises(MissingColoring):
            canonical_code(t, None, mode)

    def test_ignore_mode_drops_colors(self):
        t, col = build_octahedron()
        assert canonical_code(t, col, ColorMode.IGNORE) == canonical_code(t)

    @pytest.mark.parametrize(
        "mode", [ColorMode.FIXED, ColorMode.UP_TO_PERMUTATION]
    )
    def test_a_vertex_without_a_color_is_not_balanced(self, mode):
        t, _ = build_octahedron()
        col = Coloring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2})
        with pytest.raises(NotBalanced, match="vertex 6 has no color"):
            canonical_code(t, col, mode)

    @pytest.mark.parametrize(
        "mode", [ColorMode.FIXED, ColorMode.UP_TO_PERMUTATION]
    )
    def test_a_color_outside_0_1_2_is_not_balanced(self, mode):
        t, _ = build_octahedron()
        col = Coloring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 7})
        with pytest.raises(NotBalanced, match="vertex 6 has no color"):
            canonical_code(t, col, mode)

    @pytest.mark.parametrize("entry", [canonical_code, canonical_form])
    @pytest.mark.parametrize(
        "mode", [ColorMode.FIXED, ColorMode.UP_TO_PERMUTATION]
    )
    @pytest.mark.parametrize("build", [build_octahedron, build_k333_torus])
    def test_an_improper_coloring_is_not_balanced(self, entry, mode, build):
        t, col = build()
        one_color = Coloring({v: 0 for v in t.vertices})
        # all three colors, but 0 now shares its color with a neighbor
        clash = col.updated({0: col[min(t.neighbors(0))]})
        for bad in (one_color, clash):
            with pytest.raises(NotBalanced, match="not proper"):
                entry(t, bad, mode)
            entry(t, bad, ColorMode.IGNORE)


class TestCanonicalForm:
    def test_form_is_on_contiguous_ids_and_code_stable(self, sphere_samples_12):
        for t, col in sphere_samples_12[:20]:
            form, fcol, labels = canonical_form(t, col)
            assert sorted(form.vertices) == list(range(t.vertex_count))
            assert canonical_code(form, fcol) == canonical_code(t, col)
            assert sorted(labels) == sorted(t.vertices)
            assert sorted(labels.values()) == list(range(t.vertex_count))

    def test_form_is_idempotent(self, sphere_samples_12):
        for t, col in sphere_samples_12[:20]:
            form, fcol, _ = canonical_form(t, col)
            again, acol, labels = canonical_form(form, fcol)
            assert again == form
            assert acol == fcol
            assert all(labels[v] == v for v in form.vertices)

    def test_labels_carry_faces_onto_form(self, sphere_samples_12):
        t, col = sphere_samples_12[0]
        form, _, labels = canonical_form(t, col)
        mapped = {tuple(sorted(labels[v] for v in f)) for f in t.faces}
        assert mapped == set(form.faces)

    def test_isomorphic_inputs_share_the_form(self):
        t, col = build_k333_torus()
        t2, col2 = relabeled(t, col, 3)
        f1, c1, _ = canonical_form(t, col)
        f2, c2, _ = canonical_form(t2, col2)
        assert f1 == f2
        assert c1 == c2


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "mode", ["ignore", "fixed", "up-to-permutation"]
    )
    def test_matches_brute_force_on_sample_pairs(self, mode, sphere_samples_12):
        samples = sphere_samples_12[:14]
        for i, (t1, c1) in enumerate(samples):
            for t2, c2 in samples[i:]:
                if abs(t1.vertex_count - t2.vertex_count) > 0 and mode == "fixed":
                    continue  # trivially non-isomorphic, skip the slow path
                lib = is_isomorphic(t1, t2, c1, c2, ColorMode(mode))
                ref = (
                    brute_isomorphism(
                        t1.faces, t2.faces, c1.as_dict(), c2.as_dict(), mode
                    )
                    is not None
                )
                assert lib == ref

    def test_matches_brute_force_on_relabelings(self, sphere_samples_12):
        for seed, (t, col) in enumerate(sphere_samples_12[:10]):
            t2, col2 = relabeled(t, col, 100 + seed)
            col3 = col2.permuted((1, 2, 0))
            assert is_isomorphic(t, t2, col, col3, ColorMode.UP_TO_PERMUTATION)
            ref = brute_isomorphism(
                t.faces, t2.faces, col.as_dict(), col3.as_dict(), "up-to-permutation"
            )
            assert ref is not None


def check_against_reference(t, col, mode):
    code, labels, perm = reference_canonical(t.faces, col, mode.value)
    assert canonical_code(t, col, mode).data == code
    form, fcol, got_labels = canonical_form(t, col, mode)
    assert got_labels == labels
    assert form.faces == tuple(
        sorted(tuple(sorted(labels[v] for v in f)) for f in t.faces)
    )
    if mode is ColorMode.IGNORE:
        assert fcol is None
    else:
        assert fcol == Coloring({labels[v]: perm[col[v]] for v in t.vertices})


def grid6_after_bts():
    """The 6x6 torus after one triple subdivision: a small symmetry group."""
    t, col = grid_torus(6)
    return apply_flip(t, FlipSite(FlipKind.BTS, t.faces[0]), col)


class TestReferenceAgreement:
    """The early-abort sweep against the full sweep, byte for byte."""

    @pytest.mark.parametrize("mode", list(ColorMode))
    def test_relabeled_walks(self, mode, mixed_samples_14):
        for seed, (t, col) in enumerate(mixed_samples_14[::4]):
            check_against_reference(t, col, mode)
            check_against_reference(*relabeled(t, col, seed), mode)

    @pytest.mark.parametrize("mode", list(ColorMode))
    @pytest.mark.parametrize(
        "build",
        [
            build_octahedron,
            build_k333_torus,
            build_cube_subdivision,
            lambda: grid_torus(6),
            lambda: grid_torus(9),
            grid6_after_bts,
        ],
        ids=[
            "octahedron", "k333-torus", "cube-subdivision", "grid6", "grid9",
            "grid6-bts",
        ],
    )
    def test_inputs_where_every_sweep_ties(self, mode, build):
        t, col = build()
        check_against_reference(t, col, mode)
        check_against_reference(*relabeled(t, col, 5), mode)

    def test_gallery_codes_are_pinned(self):
        with open(Path(__file__).with_name("gallery_codes.json")) as fh:
            pinned = json.load(fh)
        for name, build in GALLERY.items():
            t, col = build()
            for mode in ColorMode:
                assert canonical_code(t, col, mode).hex() == pinned[name][mode.value]


def count_calls(monkeypatch, name):
    """Wrap canon.<name> so that each call appends to the returned list."""
    calls = []
    real = getattr(canon, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(canon, name, counting)
    return calls


class TestAutomorphismPruning:
    """Ties gather start flags into orbits, and each orbit is swept once."""

    @pytest.mark.parametrize("mode", list(ColorMode))
    @pytest.mark.parametrize("n", [12, 24])
    def test_symmetric_tori_sweep_few_flags(self, monkeypatch, mode, n):
        # all 6F start flags (1,728 and 6,912) share one degree class; the
        # pruned loop sweeps 4 of them in ignore and up-to-permutation mode
        # and 16 in fixed mode, on both tori
        t, col = grid_torus(n)
        sweeps = count_calls(monkeypatch, "_emit_from_flag")
        canonical_code(t, col, mode)
        assert len(sweeps) <= 32

    @pytest.mark.parametrize("mode", list(ColorMode))
    def test_large_torus_matches_its_relabeling(self, mode):
        t, col = grid_torus(24)
        t2, col2 = relabeled(t, col, 11)
        assert canonical_code(t, col, mode) == canonical_code(t2, col2, mode)
        forms = []
        for s, c in ((t, col), (t2, col2)):
            form, fcol, labels = canonical_form(s, c, mode)
            mapped = {tuple(sorted(labels[v] for v in f)) for f in s.faces}
            assert mapped == set(form.faces)
            forms.append((form, fcol))
        assert forms[0] == forms[1]

    def test_the_orbit_set_is_built_only_on_a_tie(
        self, monkeypatch, mixed_samples_14
    ):
        # uncolored, the first tie comes exactly when |Aut| > 1, and the
        # orbit set takes flags only once it is built
        closes = count_calls(monkeypatch, "_close")
        seen = set()
        for t, _ in mixed_samples_14[::5]:
            before = len(closes)
            canonical_code(t)
            symmetric = reference_automorphism_count(t.faces) > 1
            assert (len(closes) > before) == symmetric
            seen.add(symmetric)
        assert seen == {False, True}


@functools.cache
def grown_samples():
    """Spheres and tori triple-subdivided on random faces to V >= 40, 100, 200."""
    out = []
    for build in (build_octahedron, lambda: grid_torus(3)):
        for target in (40, 100, 200):
            t, col = build()
            rng = random.Random(target)
            while t.vertex_count < target:
                site = FlipSite(FlipKind.BTS, rng.choice(t.faces))
                t, col = apply_flip(t, site, col)
            out.append((t, col))
    return out


def as_data(result):
    """_canonical's result as plain data, label and generator order included."""
    code, labels, gens = result
    return code.data, list(labels.items()), [list(g.items()) for g in gens]


class TestSuspendedSweeps:
    """Sweeps below the best are suspended and only the winner is finished."""

    def test_matches_the_eager_loop(self, mixed_samples_14):
        inputs = [build() for build in GALLERY.values()]
        inputs += [grid_torus(n) for n in (3, 6, 12)]
        inputs += grown_samples()
        inputs += mixed_samples_14
        for seed, (t, col) in enumerate(inputs):
            for s, c in ((t, col), relabeled(t, col, seed)):
                for mode in ColorMode:
                    assert as_data(canon._canonical(s, c, mode)) == as_data(
                        eager_canonical(s, c, mode)
                    )

    def test_projective_plane_walks(self, non_orientable_samples):
        # the balanced projective plane and three walks from it
        for seed, (t, col) in enumerate(non_orientable_samples[:4]):
            assert surface_name(t) == "projective plane"
            for s, c in ((t, col), relabeled(t, col, seed)):
                for mode in ColorMode:
                    assert as_data(canon._canonical(s, c, mode)) == as_data(
                        eager_canonical(s, c, mode)
                    )

    def test_negative_euler_characteristic_walks(self, genus_two, three_crosscaps):
        # chi = -2 (orientable) and chi = -1, three seeded walks from each,
        # and relabeled copies of all: the eager loop and the full sweep
        inputs = []
        for t, col in (genus_two, three_crosscaps):
            assert t.euler_characteristic() < 0
            inputs.append((t, col))
            for seed in range(3):
                walked = random_walk(
                    t, col, steps=12, seed=seed, max_vertices=t.vertex_count + 4
                )
                inputs.append(walked[:2])
        for seed, (t, col) in enumerate(inputs):
            for s, c in ((t, col), relabeled(t, col, seed)):
                for mode in ColorMode:
                    got = canon._canonical(s, c, mode)
                    assert as_data(got) == as_data(eager_canonical(s, c, mode))
                    assert got[0].data == reference_canonical(s.faces, c, mode.value)[0]

    def test_only_the_winner_reaches_the_last_face(self, monkeypatch):
        # without automorphisms nothing ties, so each record (a sweep going
        # below the best) used to be swept to the end; now one sweep is
        results = []
        real = canon._emit_from_flag

        def recording(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(canon, "_emit_from_flag", recording)
        for t, col in grown_samples():
            if t.vertex_count > 110:
                continue  # the reference count sweeps all 6F flags
            assert reference_automorphism_count(t.faces) == 1
            for mode in ColorMode:
                results.clear()
                canon._canonical(t, col, mode)
                records = [sweep for sweep, _ in results if sweep is not None]
                finished = [s for s in records if len(s[1]) == t.face_count]
                assert len(finished) == 1 < len(records)


class TestFaceIndex:
    """The sweep runs over a per-call index of face positions; its results
    must not depend on how t's edge index was built or on the vertex ids."""

    def test_start_flags_match_the_full_scan(
        self, monkeypatch, mixed_samples_14, non_orientable_samples, genus_two,
        three_crosscaps, grown_801,
    ):
        inputs = list(mixed_samples_14) + grown_samples() + non_orientable_samples
        inputs += [grid_torus(n) for n in (3, 6, 12)] + [genus_two, three_crosscaps]
        triangulations = [t for t, _ in inputs] + list(grown_801.values())
        parts = [(t.faces, {v: t.degree(v) for v in t.vertices}) for t in triangulations]
        # what _child hands canon in the bench bfs: the start's 4 children and
        # theirs (at 5 states the cap admits no more, so the bfs stops there)
        real = explorer._canonical_parts

        def recording(faces, edge_faces, deg, col, mode):
            parts.append((faces, dict(deg)))
            return real(faces, edge_faces, deg, col, mode)

        monkeypatch.setattr(explorer, "_canonical_parts", recording)
        kinds = [FlipKind(k) for k in ("bts", "btw", "bes", "bew", "ps", "pc")]
        bfs(build_cube_subdivision()[0], kinds=kinds, max_vertices=16, max_states=5)
        assert len(parts) - len(triangulations) == 81
        for faces, deg in parts:
            flags = [(faces[i], u, v) for i, u, v in canon._start_flags(faces, deg)]
            assert flags == reference_start_flags(faces, deg)

    def test_edge_index_order_does_not_matter(self, mixed_samples_14):
        # a move patches the edge index in another order than validate builds
        # it; codes, label maps and automorphisms must not see the difference
        reordered = 0
        for t, col in mixed_samples_14:
            for site in enumerate_sites(t)[::10]:
                child, ccol = apply_flip(t, site, col)
                rebuilt = validate(child.faces)
                reordered += list(child._edge_faces) != list(rebuilt._edge_faces)
                for mode in ColorMode:
                    assert as_data(canon._canonical(child, ccol, mode)) == as_data(
                        canon._canonical(rebuilt, ccol, mode)
                    )
        assert reordered > 0

    def test_sparse_ids_past_65535(self):
        # a grown sphere on wide ids, and walks on wide ids whose welds and
        # contractions delete ids in the middle
        inputs = [sparse_relabeled(*grown_samples()[1], 3)]
        kinds = [FlipKind(k) for k in ("bts", "btw", "bes", "bew", "ps", "pc")]
        deleting = {FlipKind.BTW, FlipKind.BEW, FlipKind.PC}
        for seed, build in enumerate((build_octahedron, build_k333_torus)):
            t, col = sparse_relabeled(*build(), seed)
            t, col, taken = random_walk(
                t, col, kinds, steps=40, seed=seed, max_vertices=30
            )
            assert deleting.intersection(s.kind for s in taken)
            inputs.append((t, col))
        for t, col in inputs:
            assert min(t.vertices) >= 65536
            assert t.max_vertex_id - min(t.vertices) >= t.vertex_count
            for mode in ColorMode:
                got = canon._canonical(t, col, mode)
                assert as_data(got) == as_data(eager_canonical(t, col, mode))
                assert got[0].data == reference_canonical(t.faces, col, mode.value)[0]


def check_automorphisms(t, col, mode):
    """Check every automorphism _canonical returns; return how many."""
    *_, gens = canon._canonical(t, col, mode)
    faces = set(t.faces)
    for g in gens:
        assert sorted(g) == sorted(g.values()) == sorted(t.vertices)
        assert {tuple(sorted(g[v] for v in f)) for f in t.faces} == faces
        if mode is ColorMode.IGNORE:
            continue
        # one color permutation throughout, the identity in fixed mode
        pairs = {(col[v], col[g[v]]) for v in t.vertices}
        assert len(pairs) == len(dict(pairs)) == len(set(dict(pairs).values())) == 3
        if mode is ColorMode.FIXED:
            assert pairs == {(0, 0), (1, 1), (2, 2)}
    return len(gens)


class TestAutomorphismGenerators:
    """The ties' maps that _canonical returns are automorphisms."""

    def test_samples_and_gallery(self, mixed_samples_14):
        found = set()
        inputs = list(mixed_samples_14) + [build() for build in GALLERY.values()]
        for t, col in inputs:
            asymmetric = reference_automorphism_count(t.faces) == 1
            for mode in ColorMode:
                count = check_automorphisms(t, col, mode)
                assert count == 0 or not asymmetric
                found.add(count > 0)
        assert found == {False, True}

    @pytest.mark.parametrize("mode", list(ColorMode))
    @pytest.mark.parametrize("n", [6, 12])
    def test_symmetric_tori(self, mode, n):
        assert check_automorphisms(*grid_torus(n), mode) > 0


def check_decoding(code, want):
    """Both decoding levels of code against the oracle form and coloring."""
    form, fcol = canon._decode(code)
    assert form.faces == want[0].faces and form.vertices == want[0].vertices
    assert fcol == want[1]
    nv, nf, faces, colors = canon._unpack(code.data)
    assert (nv, nf, faces) == (form.vertex_count, form.face_count, list(form.faces))
    assert list(colors) == ([] if fcol is None else [fcol[v] for v in range(nv)])


class TestDecoding:
    """A code decodes to the form the oracle builds by relabeling the input."""

    @pytest.mark.parametrize("build", [build_cube_subdivision, build_k333_torus])
    def test_every_state_of_a_bfs_ball(self, build):
        t, col = build()
        kinds = [FlipKind(k) for k in ("bts", "btw", "bes", "bew", "ps", "pc")]
        view = bfs(t, kinds=kinds, max_vertices=15, max_states=150)
        assert 100 <= view.state_count <= 150
        for i, code in enumerate(view.states):
            # a relabeled copy of the state, so the oracle has work to do
            raw, rawcol = relabeled(*canon._decode(code), i)
            mode = ColorMode.UP_TO_PERMUTATION
            got, labels, _ = canon._canonical(raw, rawcol, mode)
            assert got == code
            check_decoding(code, reference_relabel(raw, rawcol, labels, mode))

    @pytest.mark.parametrize("mode", list(ColorMode))
    def test_canonical_form_in_every_mode(self, mode, sphere_samples_12):
        for t, col in sphere_samples_12:
            form, fcol, labels = canonical_form(t, col, mode)
            code, want_labels, _ = canon._canonical(t, col, mode)
            assert labels == want_labels
            want = reference_relabel(t, col, labels, mode)
            assert (form, fcol) == want and form.vertices == want[0].vertices
            check_decoding(code, want)


class TestCodeValueType:
    # a code is the plain tuple (mode, data) with named fields; it keeps the
    # field repr and survives pickling and copying as a CanonicalCode
    def test_codes_sort_and_compare_as_their_tuples(self, mixed_samples_14):
        codes = [
            canonical_code(t, col, mode)
            for t, col in mixed_samples_14[::2]
            for mode in ColorMode
        ]
        pairs = [(c.mode, c.data) for c in codes]
        rng = random.Random(0)
        shuffled = rng.sample(codes, len(codes))
        assert [(c.mode, c.data) for c in sorted(shuffled)] == sorted(pairs)
        for c, d in zip(codes, shuffled):
            assert c == (c.mode, c.data)
            assert hash(c) == hash((c.mode, c.data))
            assert (c < d) == ((c.mode, c.data) < (d.mode, d.data))
            assert (c == d) == ((c.mode, c.data) == (d.mode, d.data))
            assert repr(c) == f"CanonicalCode(mode={c.mode!r}, data={c.data!r})"
            assert c.hex() == c.data.hex()

    def test_pickle_and_copy_round_trip(self, mixed_samples_14):
        codes = [canonical_code(t, col) for t, col in mixed_samples_14[::8]]
        copies = [copy.copy(codes), copy.deepcopy(codes)]
        copies += [pickle.loads(pickle.dumps(codes, p)) for p in range(6)]
        for back in copies:
            assert back == codes
            assert all(type(c) is canon.CanonicalCode for c in back)


class TestWideCodes:
    def test_past_65535_faces(self):
        # one triple subdivision breaks the torus's symmetry, so only a few
        # start flags reach the least degree triple
        t, col = grid_torus(183)
        t, col = apply_flip(t, FlipSite(FlipKind.BTS, t.faces[0]), col)
        assert t.face_count >= 65536
        code = canonical_code(t, col)
        assert code == canonical_code(*relabeled(t, col, 7))
        assert int.from_bytes(code.data[:4], "big") == t.vertex_count
        assert int.from_bytes(code.data[4:8], "big") == t.face_count
        assert len(code.data) == 8 + 12 * t.face_count + t.vertex_count
        # canonical_form decodes the wide code
        form, fcol, labels = canonical_form(t, col)
        assert (form.vertex_count, form.face_count) == (t.vertex_count, t.face_count)
        assert is_proper(form, fcol)
        assert form.faces == reference_relabel(t, None, labels, None)[0].faces
        assert canon._unpack(code.data)[2] == list(form.faces)
