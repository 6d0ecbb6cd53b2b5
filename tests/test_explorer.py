"""Gallery builders, classification, flip-graph search, random walks."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from baltri import canon, explorer
from baltri import (
    ColorMode,
    InvalidSite,
    NotBalanced,
    NotConnectedWithinCaps,
    SurfaceMismatch,
    canonical_code,
    canonical_form,
    expand_bes_via_bts_pc,
    expand_bew_via_ps_btw,
    is_proper,
    subdivision_obstruction,
    surface_name,
    verify_expansion,
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
from baltri.flips import FlipKind, FlipSite, _map_site, apply_flip, enumerate_sites

from conftest import _BUILDERS, grid_torus
from oracles import reference_bfs, reference_connect

SPLITS = (FlipKind.PS, FlipKind.PC)
BENCH_KINDS = tuple(FlipKind(k) for k in ("bts", "btw", "bes", "bew", "ps", "pc"))
PERMUTATIONS = list(itertools.permutations(range(3)))
UTP = ColorMode.UP_TO_PERMUTATION


def outcome(search, *args, **caps):
    """search's path, or the type of the NotConnectedWithinCaps it raised."""
    try:
        return search(*args, **caps)
    except NotConnectedWithinCaps as exc:
        return type(exc)


class TestBuilders:
    def test_octahedron(self):
        t, col = build_octahedron()
        assert t.vertex_count == 6
        assert surface_name(t) == "sphere"
        assert is_proper(t, col)
        assert all(t.degree(v) == 4 for v in t.vertices)

    def test_k333_torus(self):
        t, col = build_k333_torus()
        assert t.vertex_count == 9
        assert t.face_count == 18
        assert surface_name(t) == "torus"
        assert is_proper(t, col)
        assert all(t.degree(v) == 6 for v in t.vertices)

    def test_cube_subdivision(self):
        t, col = build_cube_subdivision()
        assert t.vertex_count == 14
        assert surface_name(t) == "sphere"
        assert is_proper(t, col)


class TestClassify:
    def test_octahedron(self):
        t, _ = build_octahedron()
        assert classify(t) == {
            "is_octahedron": True,
            "ps_applicable": False,
            "pc_applicable": False,
            "all_degrees_four": True,
        }

    def test_torus(self):
        t, _ = build_k333_torus()
        assert classify(t) == {
            "is_octahedron": False,
            "ps_applicable": False,
            "pc_applicable": False,
            "all_degrees_four": False,
        }

    def test_cube_subdivision(self):
        t, _ = build_cube_subdivision()
        assert classify(t) == {
            "is_octahedron": False,
            "ps_applicable": True,
            "pc_applicable": True,
            "all_degrees_four": False,
        }

    def test_only_an_octahedron_sized_input_is_coded(self, monkeypatch):
        calls = []
        real = canon._canonical
        monkeypatch.setattr(
            canon, "_canonical", lambda *args: calls.append(args) or real(*args)
        )
        t, _ = grid_torus(24)
        assert classify(t)["is_octahedron"] is False
        assert calls == []
        assert classify(build_octahedron()[0])["is_octahedron"] is True
        assert len(calls) == 2


class TestBfs:
    def test_small_ball_around_the_octahedron(self):
        t, _ = build_octahedron()
        view = bfs(t, max_vertices=9, max_states=200)
        assert not view.truncated
        assert view.state_count == 3
        sizes = sorted(tt.vertex_count for tt, _ in view.states.values())
        assert sizes == [6, 8, 9]
        assert view.edge_count == 8

    def test_runs_are_deterministic(self):
        t, _ = build_octahedron()
        a = bfs(t, max_vertices=9, max_states=200)
        b = bfs(t, max_vertices=9, max_states=200)
        assert list(a.states) == list(b.states)
        assert a.edges == b.edges

    def test_state_cap_truncates(self):
        t, _ = build_octahedron()
        view = bfs(t, max_vertices=12, max_states=2)
        assert view.truncated
        assert view.state_count == 2

    def test_vertex_cap_is_respected(self):
        t, _ = build_octahedron()
        view = bfs(t, max_vertices=9, max_states=200)
        assert all(tt.vertex_count <= 9 for tt, _ in view.states.values())

    def test_edges_connect_known_states_with_requested_kinds(self):
        t, _ = build_octahedron()
        kinds = (FlipKind.BTS, FlipKind.BES)
        view = bfs(t, kinds=kinds, max_vertices=9, max_states=200)
        for src, kind, dst in view.edges:
            assert src in view.states
            assert dst in view.states
            assert kind in kinds

    def test_start_state_is_recorded(self):
        t, _ = build_octahedron()
        view = bfs(t, max_vertices=6, max_states=10)
        assert view.start in view.states
        assert view.state_count == 1  # nothing else fits under the cap


class TestConnect:
    def test_octahedron_to_cube_subdivision(self):
        t1, _ = build_octahedron()
        t2, c2 = build_cube_subdivision()
        path = connect(t1, t2, max_vertices=14, max_states=3000)
        assert [s.kind for s in path] == [
            FlipKind.BTS,
            FlipKind.BES,
            FlipKind.BES,
            FlipKind.PS,
        ]
        end, endcol = replay_path(t1, path)
        assert canonical_code(end, endcol) == canonical_code(t2, c2)

    def test_isomorphic_endpoints_need_no_moves(self):
        t, _ = build_octahedron()
        assert connect(t, t, max_vertices=6, max_states=10) == []

    def test_surface_mismatch(self):
        t1, _ = build_octahedron()
        t2, _ = build_k333_torus()
        with pytest.raises(SurfaceMismatch):
            connect(t1, t2, max_vertices=12, max_states=100)

    def test_caps_too_small(self):
        t1, _ = build_octahedron()
        t2, _ = build_cube_subdivision()
        with pytest.raises(NotConnectedWithinCaps) as err:
            connect(t1, t2, max_vertices=8, max_states=100)
        # the cube subdivision has 14 vertices, so nothing below 8 is reached
        empty = "frontier empty under the vertex cap"
        assert f"2 from the first input ({empty}), 1 from the second ({empty})" in (
            str(err.value)
        )
        with pytest.raises(NotConnectedWithinCaps) as err:
            connect(t1, t2, max_vertices=14, max_states=3)
        full = "state cap reached"
        assert f"3 from the first input ({full}), 3 from the second ({full})" in (
            str(err.value)
        )

    def test_split_moves_cannot_leave_the_octahedron(self):
        t1, c1 = build_octahedron()
        t2, _ = build_octahedron()
        site = enumerate_sites(t1, [FlipKind.BES])[0]
        t2, c2 = apply_flip(t1, site, c1)
        with pytest.raises(NotConnectedWithinCaps):
            connect(t1, t2, kinds=SPLITS, max_vertices=12, max_states=10**4)

    def test_replay_handles_relabeled_backward_steps(self, sphere_samples_12):
        t2, c2 = build_cube_subdivision()
        hits = 0
        for t, _ in sphere_samples_12[:8]:
            try:
                path = connect(t, t2, max_vertices=15, max_states=4000)
            except NotConnectedWithinCaps:
                continue
            end, endcol = replay_path(t, path)
            assert canonical_code(end, endcol) == canonical_code(t2, c2)
            hits += 1
        assert hits > 0


class TestOrbitPruning:
    """One site per automorphism orbit, against the unpruned searches."""

    @pytest.mark.parametrize(
        "start, kinds, room, max_states",
        [
            ("octahedron", None, 6, 40),
            ("octahedron", "bts,btw,bes,bew,ps,pc", 4, 12),
            ("octahedron", "bts,btw,nflip", 6, 40),
            ("k333-torus", None, 4, 12),
            ("k333-torus", "bts,btw,bes,bew,ps,pc", 6, 40),
            ("k333-torus", "bts,btw,nflip", 3, 400),
            ("cube-subdivision", "bts,btw,bes,bew,ps,pc", 4, 12),
            ("cube-subdivision", "ps,pc,nflip,p2flip", 4, 12),
            ("cube-subdivision", "bts,btw,nflip", 3, 400),
        ],
    )
    def test_bfs_matches_the_unpruned_search(self, start, kinds, room, max_states):
        if isinstance(kinds, str):
            kinds = [FlipKind(k) for k in kinds.split(",")]
        t, col = _BUILDERS[start]()
        caps = dict(max_vertices=t.vertex_count + room, max_states=max_states)
        view = bfs(t, kinds=kinds, **caps)
        want_start, want_states, want_edges, truncated = reference_bfs(
            t, col, kinds, **caps
        )
        assert view.start == want_start
        assert list(view.states) == list(want_states)
        assert view.states == want_states  # forms and colorings
        assert view.edges == want_edges
        assert view.truncated == truncated

    def test_connect_matches_the_unpruned_search(self, sphere_samples_12):
        cube = build_cube_subdivision()
        pairs = [(build_octahedron(), cube, 14, 3000)]
        pairs += [
            (a, b, 13, 150)
            for a, b in zip(sphere_samples_12[:60:2], sphere_samples_12[1:60:2])
        ]
        kind_sets = (tuple(FlipKind), BENCH_KINDS, SPLITS + (FlipKind.NFLIP,))
        verdicts = set()
        for (t1, c1), (t2, c2), cap, states in pairs:
            for kinds in kind_sets:
                caps = dict(max_vertices=cap, max_states=states)
                got = outcome(connect, t1, t2, kinds=kinds, **caps)
                want = outcome(reference_connect, t1, t2, c1, c2, kinds, **caps)
                assert got == want
                verdicts.add(got is NotConnectedWithinCaps)
        assert verdicts == {False, True}

    def test_listed_images_reach_the_same_child(self, mixed_samples_14):
        # the fact the pruning rests on, kind by kind: a site and its listed
        # image under a found automorphism have children of one code
        seen = set()
        for t, col in mixed_samples_14[::8]:
            *_, gens = canon._canonical(t, col, canon.ColorMode.UP_TO_PERMUTATION)
            sites = enumerate_sites(t)
            listed = set(sites)
            for site in sites:
                images = {_map_site(site, g) for g in gens} & listed
                if images:
                    code = canonical_code(*apply_flip(t, site, col))
                for image in images:
                    assert canonical_code(*apply_flip(t, image, col)) == code
                    seen.add(site.kind)
        assert seen == set(FlipKind)

    def test_every_image_of_a_listed_site_is_listed(
        self, sphere_samples_12, mixed_samples_14
    ):
        # _NORMAL_FORMS must write an image as its kind's candidate reader
        # does; an image left in another form is only pruned less, which no
        # search result shows
        inputs = [build() for build in _BUILDERS.values()]
        inputs += [grid_torus(3), grid_torus(6)]
        inputs += sphere_samples_12[:60] + mixed_samples_14
        moved = set()
        for t, col in inputs:
            *_, gens = canon._canonical(t, col, UTP)
            sites = enumerate_sites(t)
            listed = set(sites)
            for g in gens:
                for site in sites:
                    image = _map_site(site, g)
                    assert image in listed, (site, image)
                    if image != site:
                        moved.add(site.kind)
        assert moved == set(FlipKind)

    def test_the_bench_bfs_applies_fewer_sites(self, monkeypatch):
        # unpruned, this ball applies 11,082 sites for its 4,290 edges
        calls = []
        real = explorer.apply_flip
        monkeypatch.setattr(
            explorer, "apply_flip", lambda *args: calls.append(args) or real(*args)
        )
        t, col = build_cube_subdivision()
        view = bfs(t, kinds=BENCH_KINDS, max_vertices=16, max_states=400)
        assert (view.state_count, view.edge_count) == (297, 4290)
        assert len(calls) < 7000


def colored_replay(t, col, steps):
    """replay_path as a colored computation: each site on the form so far."""
    cur, ccol, _ = canonical_form(t, col, UTP)
    for site in steps:
        cur, ccol, _ = canonical_form(*apply_flip(cur, site, ccol), UTP)
    return cur, ccol


def colored_verdict(t, col, site, seq):
    """verify_expansion as a colored computation: colored code equality."""
    direct = apply_flip(t, site, col)
    cur, ccol = t, col
    try:
        for step in seq:
            cur, ccol = apply_flip(cur, step, ccol)
    except InvalidSite:
        return False
    return canonical_code(cur, ccol) == canonical_code(*direct)


class TestOwnColoring:
    """The searches find their own coloring, so under each of the six color
    permutations they answer as the colored computations they replace."""

    @pytest.mark.parametrize("start, room, max_states", [
        ("octahedron", 6, 30), ("k333-torus", 4, 30), ("cube-subdivision", 3, 12)
    ])
    def test_bfs_matches_the_reference_under_every_permutation(
        self, start, room, max_states
    ):
        t, col = _BUILDERS[start]()
        caps = dict(max_vertices=t.vertex_count + room, max_states=max_states)
        view = bfs(t, kinds=BENCH_KINDS, **caps)
        for p in PERMUTATIONS:
            want = reference_bfs(t, col.permuted(p), BENCH_KINDS, **caps)
            assert (view.start, view.states, view.edges, view.truncated) == want
            assert list(view.states) == list(want[1])

    def test_connect_and_replay_match_under_every_permutation(
        self, sphere_samples_12
    ):
        pairs = [(build_octahedron(), build_cube_subdivision(), 14, 3000)]
        pairs += [
            (a, b, 13, 150)
            for a, b in zip(sphere_samples_12[:16:2], sphere_samples_12[1:16:2])
        ]
        verdicts = set()
        for ((t1, c1), (t2, c2), cap, states), kinds in itertools.product(
            pairs, (tuple(FlipKind), SPLITS)
        ):
            caps = dict(max_vertices=cap, max_states=states)
            got = outcome(connect, t1, t2, kinds=kinds, **caps)
            verdicts.add(got is NotConnectedWithinCaps)
            for p, q in zip(PERMUTATIONS, PERMUTATIONS[1:] + PERMUTATIONS[:1]):
                c1p, c2p = c1.permuted(p), c2.permuted(q)
                args = (t1, t2, c1p, c2p, kinds)
                assert got == outcome(reference_connect, *args, **caps)
                if got is not NotConnectedWithinCaps:
                    end = replay_path(t1, got)
                    assert end == colored_replay(t1, c1p, got)
                    assert canonical_code(*end) == canonical_code(t2, c2p)
        assert verdicts == {False, True}

    def test_verify_expansion_matches_colored_codes_under_every_permutation(
        self, sphere_samples_12
    ):
        recipes = {
            FlipKind.BES: expand_bes_via_bts_pc,
            FlipKind.BEW: expand_bew_via_ps_btw,
        }
        verdicts = set()
        for t, col in sphere_samples_12[:6]:
            sites = enumerate_sites(t, list(recipes))
            for site in sites:
                recipe = recipes[site.kind](t, site)
                for seq in (recipe, [sites[0]], [sites[-1]], [site, site]):
                    got = verify_expansion(t, site, seq)
                    verdicts.add(got)
                    for p in PERMUTATIONS:
                        assert got == colored_verdict(t, col.permuted(p), site, seq)
        assert verdicts == {False, True}

    def test_a_stale_coloring_argument_is_a_type_error(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        caps = dict(max_vertices=6, max_states=1)
        with pytest.raises(TypeError):
            bfs(t, col, None, **caps)
        with pytest.raises(TypeError):
            bfs(t, col, **caps)
        with pytest.raises(TypeError):
            connect(t, t, col, col, None, **caps)
        with pytest.raises(TypeError):
            replay_path(t, col, [])
        with pytest.raises(TypeError):
            verify_expansion(t, site, [site], col)
        with pytest.raises(TypeError):
            subdivision_obstruction(t, t, col, col)


class TestRandomWalk:
    def test_same_seed_same_walk(self):
        t, col = build_octahedron()
        a = random_walk(t, col, None, steps=8, seed=5, max_vertices=12)
        b = random_walk(t, col, None, steps=8, seed=5, max_vertices=12)
        assert a[0] == b[0]
        assert a[2] == b[2]

    def test_different_seeds_usually_differ(self):
        t, col = build_octahedron()
        walks = {
            tuple(random_walk(t, col, None, steps=6, seed=s, max_vertices=12)[2])
            for s in range(8)
        }
        assert len(walks) > 1

    def test_path_replays_raw(self):
        t, col = build_octahedron()
        end, endcol, path = random_walk(t, col, None, steps=7, seed=3, max_vertices=12)
        cur, ccol = t, col
        for site in path:
            cur, ccol = apply_flip(cur, site, ccol)
        assert cur == end
        assert ccol == endcol

    def test_vertex_cap_holds_along_the_walk(self):
        t, col = build_octahedron()
        cur, ccol = t, col
        _, _, path = random_walk(t, col, None, steps=20, seed=1, max_vertices=10)
        for site in path:
            cur, ccol = apply_flip(cur, site, ccol)
            assert cur.vertex_count <= 10
        assert is_proper(cur, ccol)
        assert cur.euler_characteristic() == 2

    def test_an_improper_or_incomplete_coloring_is_not_balanced(self):
        t, col = build_octahedron()
        for bad in (col.updated({}, removed=[0]), col.updated({2: 0})):
            with pytest.raises(NotBalanced, match="not proper"):
                random_walk(t, bad, steps=3, seed=1)

    def test_stops_when_no_sites_remain(self):
        t, col = build_octahedron()
        end, _, path = random_walk(t, col, SPLITS, steps=5, seed=0)
        assert path == []
        assert end == t


def grown_octahedron(seed, n):
    """The octahedron grown by bts on seeded random faces to n vertices or more."""
    t, col = build_octahedron()
    rng = random.Random(seed)
    while t.vertex_count < n:
        t, col = apply_flip(t, FlipSite(FlipKind.BTS, rng.choice(t.faces)), col)
    return t, col


def walk_against_enumeration(t, col, kinds, steps, seed, max_vertices):
    """Run random_walk, check the site list it chose from at every step
    against enumerate_sites, and return the kinds those lists held."""
    pools = []

    class Recording(random.Random):
        def choice(self, seq):
            pools.append(list(seq))
            return super().choice(seq)

    with mock.patch.object(explorer, "random", mock.Mock(Random=Recording)):
        _, _, taken = random_walk(
            t, col, kinds, steps=steps, seed=seed, max_vertices=max_vertices
        )
    assert len(pools) == len(taken)
    seen = set()
    for i in range(len(taken) + 1):
        want = [
            s
            for s in enumerate_sites(t, kinds)
            if max_vertices is None
            or t.vertex_count + s.kind.delta <= max_vertices
        ]
        if i == len(taken):
            # the walk stops early only when nothing is left to choose
            assert len(taken) == steps or want == []
            break
        assert pools[i] == want
        seen.update(s.kind for s in want)
        t, col = apply_flip(t, taken[i], col)
    return seen


_WALK_STARTS = {
    "octahedron": build_octahedron,
    "k333-torus": build_k333_torus,
    "cube-subdivision": build_cube_subdivision,
    "grown-octahedron": lambda: grown_octahedron(7, 30),
}


class TestWalkSites:
    @settings(max_examples=40, deadline=None)
    @given(
        start=st.sampled_from(sorted(_WALK_STARTS)),
        kinds=st.none() | st.sets(st.sampled_from(list(FlipKind)), min_size=1),
        steps=st.integers(1, 20),
        seed=st.integers(0, 10**6),
        room=st.none() | st.integers(0, 10),
    )
    def test_the_walk_chooses_from_the_full_site_list(
        self, start, kinds, steps, seed, room
    ):
        t, col = _WALK_STARTS[start]()
        cap = None if room is None else t.vertex_count + room
        walk_against_enumeration(t, col, kinds, steps, seed, cap)

    @pytest.mark.parametrize(
        "start, kinds, cap",
        [
            ("octahedron", "bts,btw,bes,bew,ps,pc", 16),
            ("cube-subdivision", "ps,pc,nflip,p2flip", 18),
            ("k333-torus", "bts,bes,bew,ps,pc,nflip,p2flip", 16),
            ("grown-octahedron", None, None),
        ],
    )
    def test_walks_that_make_degree_four_vertices(self, start, kinds, cap):
        kinds = None if kinds is None else [FlipKind(k) for k in kinds.split(",")]
        t, col = _WALK_STARTS[start]()
        seen = set()
        for seed in range(4):
            seen |= walk_against_enumeration(t, col, kinds, 30, seed, cap)
        # btw, bew, pc and p2flip sites exist only around degree-4 vertices
        assert seen == set(kinds or FlipKind)
