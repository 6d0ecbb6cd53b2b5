"""End-to-end gate: the headline guarantees, checked at desk scale.

Eleven tests, one per guarantee, each fuzzing against the seeded corpora
from conftest.py and the frozen oracles in oracles.py.  Every test prints
a single summary line (visible with -s, or in captured output) naming the
guarantee and the number of cases it covered.
"""

from __future__ import annotations

import collections
import random

import pytest

from baltri.bipartite import FORWARD_KINDS, apply_bip, normalize_sequence
from baltri.canon import CanonicalCode, ColorMode, canonical_code, is_isomorphic
from baltri.embeddings import (
    Verdict,
    cube_embedding,
    delete_color_class,
    face_subdivision,
    hex_prism_embedding,
    subdivision_obstruction,
    subdivision_vertex_count,
)
from baltri.explorer import (
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
    classify,
    connect,
    random_walk,
    replay_path,
)
from baltri.flips import (
    FlipKind,
    FlipSite,
    apply_flip,
    enumerate_sites,
    inverse_site,
)
from baltri.rewrites import (
    expand_bes_via_bts_pc,
    expand_bes_via_ps,
    expand_bes_via_ps_available,
    expand_bew_via_ps_btw,
    expand_via_budget,
    verify_expansion,
)
from baltri.surface import (
    find_coloring,
    is_orientable,
    is_proper,
    surface_id,
    validate,
)

from conftest import walk_sample
from oracles import brute_bip_isomorphism


def _report(line):
    print(f"PASS {line}")


def _octa_code() -> CanonicalCode:
    t, col = build_octahedron()
    return canonical_code(t, col, ColorMode.UP_TO_PERMUTATION)


@pytest.fixture(scope="module")
def flip_fuzz(mixed_samples_14):
    """At least a thousand (triangulation, coloring, site) draws.

    Per sample, up to two sites of every kind present, chosen by a fixed
    rng.  The draw must cover all eight kinds or the corpus is too thin
    to certify anything.
    """
    rng = random.Random(9001)
    draws = []
    for t, col in mixed_samples_14:
        by_kind: dict[FlipKind, list[FlipSite]] = {}
        for site in enumerate_sites(t):
            by_kind.setdefault(site.kind, []).append(site)
        for kind in sorted(by_kind, key=lambda k: k.value):
            for site in rng.sample(by_kind[kind], min(2, len(by_kind[kind]))):
                draws.append((t, col, site))
    assert len(draws) >= 1000
    assert {site.kind for _, _, site in draws} == set(FlipKind)
    return draws


def test_octahedron_counts_and_split_freeness():
    """Six vertices, twelve edges, eight faces, a sphere, balanced, and
    not a single split or contraction applies."""
    t, col = build_octahedron()
    assert t.vertex_count == 6
    assert t.edge_count == 12
    assert t.face_count == 8
    assert t.euler_characteristic() == 2
    assert surface_id(t) == (True, 0)
    assert is_proper(t, col)
    find_coloring(t)  # balanced: a proper 3-coloring exists
    assert enumerate_sites(t, kinds=[FlipKind.PS]) == []
    assert enumerate_sites(t, kinds=[FlipKind.PC]) == []
    _report("octahedron counts, balance, and split-freeness are exact")


def test_every_move_shifts_vertex_count_by_its_table_delta(flip_fuzz):
    per_kind = collections.Counter()
    for t, col, site in flip_fuzz:
        t2, _ = apply_flip(t, site, col)
        assert t2.vertex_count - t.vertex_count == site.kind.delta
        per_kind[site.kind] += 1
    total = sum(per_kind.values())
    assert total >= 1000
    assert set(per_kind) == set(FlipKind)
    _report(f"vertex deltas held on {total} applications across all 8 kinds")


def test_random_flips_keep_surfaces_valid_and_undo_cleanly(flip_fuzz):
    """Each fuzzed result revalidates from scratch, keeps the surface and
    the coloring, and the named inverse restores the fixed-color code."""
    checked = 0
    for t, col, site in flip_fuzz:
        t2, c2 = apply_flip(t, site, col)
        again = validate(t2.faces)
        assert set(again.faces) == set(t2.faces)
        assert t2.euler_characteristic() == t.euler_characteristic()
        assert is_orientable(t2) == is_orientable(t)
        assert is_proper(t2, c2)
        undo = inverse_site(t, site)
        t3, c3 = apply_flip(t2, undo, c2)
        before = canonical_code(t, col, ColorMode.FIXED)
        after = canonical_code(t3, c3, ColorMode.FIXED)
        assert after == before
        checked += 1
    assert checked >= 1000
    _report(f"{checked} random flips validated, preserved, and inverted")


def test_unblocked_double_splits_factor_into_two_single_splits(mixed_samples_14):
    """Wherever the no-chord hypothesis holds, splitting one endpoint and
    then the new vertex lands on the double subdivision exactly."""
    assert len(mixed_samples_14) == 200
    sites = eligible = 0
    for t, col in mixed_samples_14:
        for site in enumerate_sites(t, kinds=[FlipKind.BES]):
            sites += 1
            if not expand_bes_via_ps_available(t, site):
                continue
            eligible += 1
            seq = expand_bes_via_ps(t, site)
            assert [s.kind for s in seq] == [FlipKind.PS, FlipKind.PS]
            direct, direct_col = apply_flip(t, site, col)
            cur, cur_col = t, col
            for step in seq:
                cur, cur_col = apply_flip(cur, step, cur_col)
            assert canonical_code(cur, cur_col, ColorMode.FIXED) == canonical_code(
                direct, direct_col, ColorMode.FIXED
            )
    assert eligible >= 1000
    _report(f"{eligible} of {sites} double splits factored into two splits")


def test_closed_form_recipes_match_their_direct_moves(mixed_samples_14):
    """Double subdivision as triple-then-contract, and double weld as
    split-then-triple-weld, 200 fuzzed sites each."""
    rng = random.Random(4242)
    bes_done = 0
    for t, col in mixed_samples_14:
        if bes_done >= 200:
            break
        sites = enumerate_sites(t, kinds=[FlipKind.BES])
        for site in rng.sample(sites, min(2, len(sites))):
            seq = expand_bes_via_bts_pc(t, site)
            assert [s.kind for s in seq] == [FlipKind.BTS, FlipKind.PC]
            direct, direct_col = apply_flip(t, site, col)
            cur, cur_col = t, col
            for step in seq:
                cur, cur_col = apply_flip(cur, step, cur_col)
            assert cur == direct and cur_col == direct_col
            bes_done += 1
    assert bes_done >= 200

    # welds are scarce in the wild, so manufacture the shortfall: a double
    # subdivision anywhere leaves its own inverse weld behind
    bew_cases = []
    for t, col in mixed_samples_14:
        for site in enumerate_sites(t, kinds=[FlipKind.BEW]):
            bew_cases.append((t, col, site))
    for t, col in mixed_samples_14:
        if len(bew_cases) >= 200:
            break
        sites = enumerate_sites(t, kinds=[FlipKind.BES])
        for site in rng.sample(sites, min(2, len(sites))):
            undo = inverse_site(t, site)
            t2, c2 = apply_flip(t, site, col)
            bew_cases.append((t2, c2, undo))
    bew_done = 0
    for t, col, site in bew_cases[:250]:
        seq = expand_bew_via_ps_btw(t, site)
        assert [s.kind for s in seq] == [FlipKind.PS, FlipKind.BTW]
        direct, direct_col = apply_flip(t, site, col)
        cur, cur_col = t, col
        for step in seq:
            cur, cur_col = apply_flip(cur, step, cur_col)
        assert canonical_code(cur, cur_col, ColorMode.FIXED) == canonical_code(
            direct, direct_col, ColorMode.FIXED
        )
        bew_done += 1
    assert bew_done >= 200
    _report(f"{bes_done} subdivision and {bew_done} weld recipes matched")


def test_hexagon_moves_decompose_within_their_budgets(small_samples_50):
    """Every edge flip falls to 3 subdivisions, 4 contractions, 1 weld;
    every parallel-path flip to 1 subdivision, 1 weld."""
    assert len(small_samples_50) == 50
    budgets = {
        FlipKind.NFLIP: {FlipKind.BES: 3, FlipKind.PC: 4, FlipKind.BEW: 1},
        FlipKind.P2FLIP: {FlipKind.BES: 1, FlipKind.BEW: 1},
    }
    found = collections.Counter()
    for t, col in small_samples_50:
        for site in enumerate_sites(t, kinds=list(budgets)):
            seq = expand_via_budget(t, site)
            used = collections.Counter(s.kind for s in seq)
            for kind, n in used.items():
                assert n <= budgets[site.kind][kind]
            assert verify_expansion(t, site, seq)
            found[site.kind] += 1
    assert found[FlipKind.NFLIP] >= 50
    assert found[FlipKind.P2FLIP] >= 50
    _report(
        f"{found[FlipKind.NFLIP]} edge flips and {found[FlipKind.P2FLIP]} "
        "parallel-path flips expanded in budget"
    )


def test_operation_scripts_normalize_to_faithful_forward_form(bip_cases_1000):
    """1000 random scripts on min-degree-3 bipartite graphs: the output is
    forward-only, lands on an isomorphic graph, and the edge count grows
    strictly unless the result already matches the base."""
    assert len(bip_cases_1000) == 1000

    def run(g, ops):
        for op in ops:
            g = apply_bip(g, op)
        return g

    grew = returned = 0
    for base, seq in bip_cases_1000:
        out = normalize_sequence(base, seq)
        assert all(op.kind in FORWARD_KINDS for op in out)
        raw = run(base, seq)
        norm = run(base, out)
        assert (
            brute_bip_isomorphism(
                dict(raw.parts), raw.edges, dict(norm.parts), norm.edges
            )
            is not None
        )
        if len(norm.edges) > len(base.edges):
            grew += 1
        else:
            assert (
                brute_bip_isomorphism(
                    dict(norm.parts), norm.edges, dict(base.parts), base.edges
                )
                is not None
            )
            returned += 1
    assert grew + returned == 1000
    _report(f"1000 scripts normalized ({grew} grew, {returned} closed up)")


def test_shrink_free_states_never_reach_the_octahedron():
    """The subdivided cube admits no weld at all, so the ball around it
    under the four subdivision moves stays clear of the octahedron, and
    the one-sided obstruction test says so directly."""
    scube, _ = build_cube_subdivision()
    octa, _ = build_octahedron()
    kinds = (FlipKind.BTS, FlipKind.BTW, FlipKind.BES, FlipKind.BEW)
    for cap in (14, 16):
        view = bfs(scube, kinds=kinds, max_vertices=cap, max_states=10**6)
        assert not view.truncated
        assert _octa_code() not in view.states
    assert subdivision_obstruction(scube, octa) is Verdict.UNREACHABLE
    shex, _ = face_subdivision(hex_prism_embedding())
    assert subdivision_obstruction(scube, shex) is Verdict.UNREACHABLE
    _report("subdivided cube is cut off from the octahedron and the prism")


def test_split_free_spheres_are_exactly_the_octahedron(sphere_samples_12):
    """On spheres: no split available iff octahedron; all degrees four
    forces the octahedron; the 9-vertex torus never splits."""
    assert len(sphere_samples_12) >= 200
    # the long walks all drift upward, so add short seeded walks too;
    # otherwise the split-free side of the iff is never witnessed
    extra = [
        walk_sample(seed, steps=steps, max_vertices=12)
        for seed in range(4)
        for steps in (0, 2)
    ]
    octa = _octa_code()
    split_free_seen = split_seen = 0
    for t, col in list(sphere_samples_12) + extra:
        assert surface_id(t) == (True, 0)
        code = canonical_code(t, col, ColorMode.UP_TO_PERMUTATION)
        split_free = enumerate_sites(t, kinds=[FlipKind.PS]) == []
        assert split_free == (code == octa)
        if all(t.degree(v) == 4 for v in t.vertices):
            assert code == octa
        split_free_seen += split_free
        split_seen += not split_free
    assert split_free_seen and split_seen
    k333, _ = build_k333_torus()
    assert classify(k333)["ps_applicable"] is False
    _report(
        f"{split_free_seen + split_seen} spheres classified "
        f"({split_free_seen} split-free, all of them octahedra)"
    )


def test_sampled_small_spheres_connect_under_split_and_contract(sphere_samples_9):
    """Every distinct sphere seen at nine vertices or fewer reaches every
    other through splits and contractions alone.  The octahedron sits
    outside: it has neither move, so it is its own component."""
    octa = _octa_code()
    distinct: dict[CanonicalCode, tuple] = {}
    for t, col in sphere_samples_9:
        code = canonical_code(t, col, ColorMode.UP_TO_PERMUTATION)
        if code != octa:
            distinct.setdefault(code, (t, col))
    assert len(distinct) >= 2
    kinds = (FlipKind.PS, FlipKind.PC)
    codes = sorted(distinct)
    pairs = 0
    for i, a in enumerate(codes):
        for b in codes[i + 1 :]:
            t1, _ = distinct[a]
            t2, _ = distinct[b]
            path = connect(t1, t2, kinds=kinds, max_vertices=12, max_states=10**5)
            end_t, end_c = replay_path(t1, path)
            assert canonical_code(end_t, end_c, ColorMode.UP_TO_PERMUTATION) == b
            pairs += 1
    _report(f"{len(codes)} distinct small spheres, all {pairs} pairs connected")


def test_color_class_deletion_round_trips_and_counts_track_edges(
    sphere_samples_12, mixed_samples_14
):
    """Deleting any color class and coning the face walks back on gives
    the original surface, and the subdivision vertex count is edge count
    plus Euler characteristic, hence strictly monotone in edges at fixed
    characteristic."""
    embeddings = [cube_embedding(), hex_prism_embedding()]
    rounds = 0
    for t, col in list(sphere_samples_12) + list(mixed_samples_14):
        for color in (0, 1, 2):
            emb = delete_color_class(t, col, color)
            back, back_col = face_subdivision(emb)
            assert is_isomorphic(t, back, col, back_col, ColorMode.UP_TO_PERMUTATION)
            assert subdivision_vertex_count(emb) == t.vertex_count
            embeddings.append(emb)
            rounds += 1
    assert rounds == 3 * (len(sphere_samples_12) + len(mixed_samples_14))
    by_chi: dict[int, list] = {}
    for emb in embeddings:
        chi = emb.euler_characteristic()
        assert subdivision_vertex_count(emb) == emb.graph.edge_count() + chi
        by_chi.setdefault(chi, []).append(emb)
    compared = 0
    for group in by_chi.values():
        group.sort(key=lambda e: e.graph.edge_count())
        for e1, e2 in zip(group, group[1:]):
            if e1.graph.edge_count() < e2.graph.edge_count():
                assert subdivision_vertex_count(e1) < subdivision_vertex_count(e2)
                compared += 1
    assert compared >= 1
    _report(
        f"{rounds} delete-then-cone round trips closed, "
        f"{compared} strict count comparisons held"
    )
