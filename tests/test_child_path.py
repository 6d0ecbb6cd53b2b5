"""The search's child path: each child canonicalized from its rule's face
exchange alone, with its color suffix forced by the code.

The path is checked against apply_flip followed by _canonical, the forced
suffix against the one a coloring gives, and each check it keeps (Euler
characteristic, the sweep's reach, the links at decode and at the meet) is
reached by a fake rule that breaks it.
"""

import pytest

from baltri import canon, explorer
from baltri.canon import ColorMode, _canonical
from baltri.errors import (
    Disconnected,
    ImpossibleSurface,
    InvalidSite,
    NotBalanced,
    NotConnectedWithinCaps,
    PinchedVertex,
)
from baltri.explorer import (
    bfs,
    build_cube_subdivision,
    build_k333_torus,
    build_octahedron,
    connect,
    random_walk,
    replay_path,
)
from baltri.flips import FlipKind, apply_flip, enumerate_sites, inverse_site
from baltri.surface import face_key, find_coloring, validate

from conftest import KLEIN_BOTTLE, PROJECTIVE_PLANE, barycentric
from oracles import color_suffix, reference_bfs, reference_connect

UTP = ColorMode.UP_TO_PERMUTATION
BENCH_KINDS = tuple(FlipKind(k) for k in ("bts", "btw", "bes", "bew", "ps", "pc"))


def outcome(search, *args, **caps):
    """search's path, or the type of the NotConnectedWithinCaps it raised."""
    try:
        return search(*args, **caps)
    except NotConnectedWithinCaps as exc:
        return type(exc)


@pytest.fixture(scope="module")
def child_inputs(sphere_samples_12, mixed_samples_14, genus_two, three_crosscaps):
    """Every tenth walk sample, the Klein bottle's balanced subdivision, the
    chi < 0 fixtures, and a walk from each of those three."""
    faces, col = barycentric(KLEIN_BOTTLE)
    out = sphere_samples_12[::10] + mixed_samples_14[::10]
    for t, col in ((validate(faces), col), genus_two, three_crosscaps):
        out += [(t, col), random_walk(t, col, steps=6, seed=1)[:2]]
    return out


def data(code, labels, gens):
    return code.data, list(labels.items()), [list(g.items()) for g in gens]


class TestAgainstApplyFlip:
    def test_every_listed_site(self, child_inputs):
        kinds = set()
        for t, col in child_inputs:
            deg = {v: t.degree(v) for v in t.vertices}
            for site in enumerate_sites(t):
                code, labels, gens, back = explorer._child(t, deg, site)
                want = _canonical(*apply_flip(t, site, col), UTP)
                assert data(code, labels, gens) == data(*want)
                assert back == inverse_site(t, site)
                kinds.add(site.kind)
        assert kinds == set(FlipKind)

    def test_the_forced_suffix_is_the_colorings(self, child_inputs):
        for t, col in child_inputs:
            children = [apply_flip(t, s, col) for s in enumerate_sites(t)[::7]]
            for s, c in [(t, col)] + children:
                code, labels, gens = _canonical(s, c, UTP)
                suffix, perm = color_suffix(labels, c, UTP)
                assert code.data.endswith(suffix) and len(suffix) == s.vertex_count
                # the renaming takes the first face's colors to 0, 1, 2
                assert perm == {c[v]: i for v, i in zip(labels, range(3))}
                assert data(*_canonical(s, None, UTP)) == data(code, labels, gens)

    def test_an_unbalanced_input_fails_the_forced_suffix(self):
        t = validate(PROJECTIVE_PLANE)
        with pytest.raises(NotBalanced):
            _canonical(t, None, UTP)
        with pytest.raises(NotBalanced):
            bfs(t, max_vertices=20, max_states=10)
        with pytest.raises(NotBalanced):
            replay_path(t, [])

    def test_not_balanced_comes_before_surface_mismatch(self):
        # the projective plane and the torus lie on two surfaces
        odd, torus = validate(PROJECTIVE_PLANE), build_k333_torus()[0]
        for pair in ((odd, torus), (torus, odd)):
            with pytest.raises(NotBalanced):
                connect(*pair, max_vertices=20, max_states=10)


class TestNegativeCharacteristic:
    """The searches against their unpruned references on chi < 0."""

    @pytest.mark.parametrize("fixture, room, max_states", [
        ("genus_two", 3, 40), ("three_crosscaps", 2, 12)
    ])
    def test_bfs(self, request, fixture, room, max_states):
        t, col = request.getfixturevalue(fixture)
        caps = dict(max_vertices=t.vertex_count + room, max_states=max_states)
        view = bfs(t, kinds=BENCH_KINDS, **caps)
        want = reference_bfs(t, col, BENCH_KINDS, **caps)
        assert (view.start, view.states, view.edges, view.truncated) == want
        assert list(view.states) == list(want[1])

    @pytest.mark.parametrize("fixture", ["genus_two", "three_crosscaps"])
    def test_connect(self, request, fixture):
        t1, c1 = request.getfixturevalue(fixture)
        verdicts = set()
        for steps, states in ((1, 60), (3, 3)):
            t2, c2, _ = random_walk(t1, c1, BENCH_KINDS, steps=steps, seed=steps)
            caps = dict(max_vertices=t1.vertex_count + 6, max_states=states)
            got = outcome(connect, t1, t2, kinds=BENCH_KINDS, **caps)
            want = outcome(reference_connect, t1, t2, c1, c2, BENCH_KINDS, **caps)
            assert got == want
            verdicts.add(got is NotConnectedWithinCaps)
        assert verdicts == {False, True}


class TestMidLevelStateCap:
    @pytest.mark.parametrize("max_states", [4, 5, 8, 9])
    def test_a_side_filling_mid_level_matches_the_reference(self, max_states):
        # at these caps a side reaches its cap part way through a level and
        # skips the rest of the level's new children
        t1, c1 = build_octahedron()
        t2, c2 = build_cube_subdivision()
        caps = dict(max_vertices=14, max_states=max_states)
        kinds = tuple(FlipKind)
        got = outcome(connect, t1, t2, kinds=kinds, **caps)
        assert got == outcome(reference_connect, t1, t2, c1, c2, kinds, **caps)
        assert (got is NotConnectedWithinCaps) == (max_states < 8)


# -- fake rules ----------------------------------------------------------------

def handle_rule(t, verts):
    """Glue a tube from the face verts to a face clear of it: every edge
    keeps two faces and every link one cycle, but chi falls by two."""
    a, b, c = verts
    col = find_coloring(t)
    near = {a, b, c}.union(*(t.neighbors(v) for v in (a, b, c)))
    for g in t.faces:
        if near.isdisjoint(g):
            # d, e, f take the colors of c, a, b, so every tube face is proper
            d, e, f = (next(x for x in g if col[x] == col[y]) for y in (c, a, b))
            tube = [(a, b, d), (b, d, e), (b, c, e), (c, e, f), (c, a, f), (a, f, d)]
            return [face_key(a, b, c), g], (), [face_key(*x) for x in tube], {}, verts
    raise InvalidSite("no face clear of the site")


def replacing_rule(faces, kind):
    """A kind's rule exchanging all of t's faces for faces, on ids past t's;
    its undo names the least new ids."""

    def rule(t, verts):
        shift = t.max_vertex_id + 1
        add = [face_key(*(v + shift for v in f)) for f in faces]
        undo = tuple(sorted({v for f in add for v in f}))[: kind.inverse.arity]
        return list(t.faces), t.vertices, add, {}, undo

    return rule


def pinched_sphere():
    """The cube subdivision with two face centers of one color and no common
    neighbor made one vertex: chi = 1, every edge on two faces, and one link
    of two cycles."""
    t, col = build_cube_subdivision()
    centers = [v for v in t.vertices if t.degree(v) == 4]
    u = centers[0]
    w = next(x for x in centers if not t.neighbors(u) & t.neighbors(x) and x != u)
    assert col[u] == col[w]
    return [tuple(u if v == w else v for v in f) for f in t.faces]


def torus_and_sphere():
    """A k333 torus beside an octahedron: chi = 2, but two components."""
    torus, octa = build_k333_torus()[0], build_octahedron()[0]
    shift = torus.max_vertex_id + 1
    return list(torus.faces) + [tuple(v + shift for v in f) for f in octa.faces]


class TestFakeRules:
    def test_a_handle_is_refused_by_apply_flip_and_the_child_path(self, monkeypatch):
        monkeypatch.setattr(FlipKind.BTS, "_rule", handle_rule)
        t, col = build_cube_subdivision()
        site = enumerate_sites(t, [FlipKind.BTS])[0]
        with pytest.raises(ImpossibleSurface):
            apply_flip(t, site, col)
        with pytest.raises(ImpossibleSurface):
            explorer._child(t, {v: t.degree(v) for v in t.vertices}, site)
        with pytest.raises(ImpossibleSurface):
            bfs(t, kinds=[FlipKind.BTS], max_vertices=40, max_states=10)

    def test_two_components_fail_the_sweeps_reach(self, monkeypatch):
        monkeypatch.setattr(FlipKind.BTS, "_rule", replacing_rule(torus_and_sphere(), FlipKind.BTS))
        t, _ = build_octahedron()
        with pytest.raises(Disconnected):
            bfs(t, kinds=[FlipKind.BTS], max_vertices=40, max_states=10)

    def test_a_pinched_state_is_refused_before_it_is_expanded(self, monkeypatch):
        rule = replacing_rule(pinched_sphere(), FlipKind.BTS)
        monkeypatch.setattr(FlipKind.BTS, "_rule", rule)
        t, _ = barycentric(PROJECTIVE_PLANE)
        t = validate(t)
        site = enumerate_sites(t, [FlipKind.BTS])[0]
        with pytest.raises(PinchedVertex):
            apply_flip(t, site)
        # the child path builds no links, so the pinch passes it
        code = explorer._child(t, {v: t.degree(v) for v in t.vertices}, site)[0]
        with pytest.raises(PinchedVertex):
            canon._decode(code)
        with pytest.raises(PinchedVertex):
            bfs(t, kinds=[FlipKind.BTS], max_vertices=100, max_states=10)

    def test_a_pinched_meeting_state_is_refused_by_connect(self, monkeypatch):
        t, col = barycentric(PROJECTIVE_PLANE)
        t1 = validate(t)
        t2, _ = apply_flip(t1, enumerate_sites(t1, [FlipKind.BTS])[0])
        for kind in (FlipKind.BTS, FlipKind.BTW):
            monkeypatch.setattr(kind, "_rule", replacing_rule(pinched_sphere(), kind))
        # side 0 reaches the pinched state by bts, side 1 meets it by btw
        with pytest.raises(PinchedVertex):
            connect(t1, t2, kinds=[FlipKind.BTS], max_vertices=100, max_states=10)
