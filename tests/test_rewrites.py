"""Expansion recipes: closed forms, the budget search, verification."""

import pytest
from hypothesis import given, settings, strategies as st

from baltri import rewrites
from baltri import (
    ColorMode,
    ExpansionNotFound,
    InvalidSite,
    NoEligibleOrientation,
    WouldCreateDoubleEdge,
    canonical_code,
)
from baltri.explorer import build_octahedron
from baltri.flips import FlipKind, FlipSite, _footprint, apply_flip, enumerate_sites
from baltri.rewrites import (
    expand_bes_via_bts_pc,
    expand_bes_via_ps,
    expand_bes_via_ps_available,
    expand_bew_via_ps_btw,
    expand_via_budget,
    verify_expansion,
)

from conftest import walk_sample


def replay(t, col, seq):
    for s in seq:
        t, col = apply_flip(t, s, col)
    return t, col


def fixed_code(t, col):
    return canonical_code(t, col, ColorMode.FIXED)


class TestTwoSplits:
    def test_octahedron_blocks_every_site(self):
        t, _ = build_octahedron()
        sites = enumerate_sites(t, [FlipKind.BES])
        assert len(sites) == 12
        for site in sites:
            assert not expand_bes_via_ps_available(t, site)
            with pytest.raises(NoEligibleOrientation):
                expand_bes_via_ps(t, site)

    def test_composite_matches_direct_where_available(self, sphere_samples_12):
        checked = 0
        for t, col in sphere_samples_12[:30]:
            for site in enumerate_sites(t, [FlipKind.BES]):
                if not expand_bes_via_ps_available(t, site):
                    continue
                seq = expand_bes_via_ps(t, site)
                assert [s.kind for s in seq] == [FlipKind.PS, FlipKind.PS]
                direct = apply_flip(t, site, col)
                composite = replay(t, col, seq)
                assert fixed_code(*composite) == fixed_code(*direct)
                checked += 1
        assert checked > 50

    def test_wrong_site_kind_is_rejected(self):
        t, _ = build_octahedron()
        bts = enumerate_sites(t, [FlipKind.BTS])[0]
        with pytest.raises(InvalidSite):
            expand_bes_via_ps(t, bts)


class TestSiteChecks:
    # (0, 2, 0, 2) repeats vertices; in (0, 1, 2, 3) the antipodes 0 and 1
    # share no edge, so neither is a double subdivision of the octahedron
    @pytest.mark.parametrize("verts", [(0, 2, 0, 2), (0, 1, 2, 3)])
    def test_subdivision_recipes_run_the_rule_first(self, verts):
        t, _ = build_octahedron()
        site = FlipSite(FlipKind.BES, verts)
        for recipe in (
            expand_bes_via_ps,
            expand_bes_via_ps_available,
            expand_bes_via_bts_pc,
        ):
            with pytest.raises(InvalidSite, match="missing face"):
                recipe(t, site)

    def test_weld_recipe_runs_the_rule_first(self):
        t, _ = build_octahedron()
        with pytest.raises(WouldCreateDoubleEdge, match="already present"):
            expand_bew_via_ps_btw(t, FlipSite(FlipKind.BEW, (0, 2)))
        with pytest.raises(InvalidSite, match="coincide"):
            expand_bew_via_ps_btw(t, FlipSite(FlipKind.BEW, (0, 0)))


class TestTripleThenContract:
    def test_composite_equals_direct_exactly(self, sphere_samples_12):
        checked = 0
        for t, col in sphere_samples_12[:25]:
            for site in enumerate_sites(t, [FlipKind.BES]):
                seq = expand_bes_via_bts_pc(t, site)
                assert [s.kind for s in seq] == [FlipKind.BTS, FlipKind.PC]
                dt, dcol = apply_flip(t, site, col)
                ct, ccol = replay(t, col, seq)
                assert ct == dt
                assert ccol == dcol
                checked += 1
        assert checked > 100

    def test_never_blocked_on_the_octahedron(self):
        t, col = build_octahedron()
        for site in enumerate_sites(t, [FlipKind.BES]):
            assert verify_expansion(t, site, expand_bes_via_bts_pc(t, site))


class TestSplitThenTripleWeld:
    def test_composite_matches_direct(self, sphere_samples_12):
        checked = 0
        for t, col in sphere_samples_12:
            for site in enumerate_sites(t, [FlipKind.BEW]):
                seq = expand_bew_via_ps_btw(t, site)
                direct = apply_flip(t, site, col)
                composite = replay(t, col, seq)
                assert fixed_code(*composite) == fixed_code(*direct)
                checked += 1
        assert checked > 20


class TestBudgetSearch:
    def test_hexagon_move_defaults(self, small_samples_50):
        found = 0
        for t, col in small_samples_50:
            for site in enumerate_sites(t, [FlipKind.NFLIP]):
                seq = expand_via_budget(t, site)
                assert verify_expansion(t, site, seq)
                assert len(seq) <= 8
                found += 1
                if found >= 8:
                    return
        assert found > 0

    def test_parallel_pair_defaults(self, small_samples_50):
        found = 0
        for t, col in small_samples_50:
            for site in enumerate_sites(t, [FlipKind.P2FLIP]):
                seq = expand_via_budget(t, site)
                assert [s.kind for s in seq] == [FlipKind.BEW, FlipKind.BES]
                assert verify_expansion(t, site, seq)
                found += 1
                if found >= 5:
                    return
        assert found > 0

    def test_search_is_deterministic(self, small_samples_50):
        for t, col in small_samples_50:
            sites = enumerate_sites(t, [FlipKind.NFLIP])
            if sites:
                assert expand_via_budget(t, sites[0]) == expand_via_budget(
                    t, sites[0]
                )
                return
        pytest.skip("no hexagon site in the corpus")

    def test_insufficient_budget(self, small_samples_50):
        for t, col in small_samples_50:
            sites = enumerate_sites(t, [FlipKind.NFLIP])
            if sites:
                with pytest.raises(ExpansionNotFound):
                    expand_via_budget(t, sites[0], budget={FlipKind.PS: 1})
                return
        pytest.skip("no hexagon site in the corpus")

    def test_no_default_budget_for_primitive_moves(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        with pytest.raises(ExpansionNotFound, match="no default budget"):
            expand_via_budget(t, site)

    def test_explicit_budget_can_cover_a_primitive_move(self):
        # the double subdivision decomposes inside {bts:1, pc:1}
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        seq = expand_via_budget(
            t, site, budget={FlipKind.BTS: 1, FlipKind.PC: 1}
        )
        assert verify_expansion(t, site, seq)

    def test_budget_is_keyword_only(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        with pytest.raises(TypeError):
            expand_via_budget(t, site, {FlipKind.BTS: 1, FlipKind.PC: 1})


@settings(max_examples=40, deadline=None)
@given(
    start=st.sampled_from(["octahedron", "k333-torus"]),
    seed=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
)
def test_the_restricted_scan_lists_the_filtered_sites(start, seed, pick):
    # at every search node, the sites read off the elements inside the
    # allowed vertices are those of the whole list that stay inside them
    t, _ = walk_sample(seed, steps=10, max_vertices=12, start=start)
    sites = enumerate_sites(t, [FlipKind.NFLIP, FlipKind.P2FLIP])
    if not sites:
        return
    site = sites[pick % len(sites)]
    real = rewrites._scan
    nodes = 0

    def checked(cur, kinds, source):
        nonlocal nodes
        nodes += 1
        inside = source("vertices", 0)
        got = real(cur, kinds, source)
        want = enumerate_sites(cur, kinds)
        assert [s for s in got if inside.issuperset(_footprint(cur, s))] == [
            s for s in want if inside.issuperset(_footprint(cur, s))
        ]
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "_scan", checked)
        try:
            expand_via_budget(t, site)
        except ExpansionNotFound:
            pass
    assert nodes > 0


class TestVerifyExpansion:
    def test_rejects_a_sequence_with_the_wrong_result(self):
        t, col = build_octahedron()
        bes = enumerate_sites(t, [FlipKind.BES])[0]
        bts = enumerate_sites(t, [FlipKind.BTS])[0]
        assert not verify_expansion(t, bes, [bts])

    def test_accepts_any_site_of_a_transitive_base(self):
        # every edge of the octahedron looks the same, so another site's
        # single move already reproduces the direct result up to relabeling
        t, col = build_octahedron()
        sites = enumerate_sites(t, [FlipKind.BES])
        assert verify_expansion(t, sites[0], [sites[1]])

    def test_rejects_an_inapplicable_sequence(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        bogus = FlipSite(FlipKind.BTS, (0, 1, 2))
        assert not verify_expansion(t, site, [bogus, bogus])

    def test_accepts_the_direct_move_itself(self):
        t, col = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        assert verify_expansion(t, site, [site])


def eager_isomorphic_to(direct):
    """The isomorphism test as it read before the face and degree shortcuts:
    one code per call for each side."""
    return lambda cur: canonical_code(cur) == canonical_code(direct)


def eager_verify(t, site, seq):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "_isomorphic_to", eager_isomorphic_to)
        return verify_expansion(t, site, seq)


def eager_expand(t, site):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "_isomorphic_to", eager_isomorphic_to)
        return expand_via_budget(t, site)


@pytest.fixture()
def code_calls(monkeypatch):
    """The triangulations rewrites hands to canonical_code, in call order."""
    calls = []

    def spy(t, *args):
        calls.append(t)
        return canonical_code(t, *args)

    monkeypatch.setattr(rewrites, "canonical_code", spy)
    return calls


def degrees(t):
    return sorted(map(len, t._links.values()))


class TestFewerCodes:
    """Face tuples, then vertex count and degrees, decide before any code;
    the verdicts are those of comparing two codes every time."""

    def test_verify_computes_no_code_on_the_direct_faces(self, code_calls, small_samples_50):
        t, _ = build_octahedron()
        site = enumerate_sites(t, [FlipKind.BES])[0]
        assert verify_expansion(t, site, [site])
        checked = 0
        for t, _ in small_samples_50[:10]:
            for site in enumerate_sites(t, [FlipKind.NFLIP, FlipKind.P2FLIP]):
                seq = expand_via_budget(t, site)
                direct = apply_flip(t, site)[0]
                if replay(t, None, seq)[0].faces == direct.faces:
                    del code_calls[:]
                    assert verify_expansion(t, site, seq)
                    checked += 1
                    assert code_calls == []
        assert checked > 0

    def test_verify_codes_a_relabeled_replay_once_per_side(self, code_calls):
        # another edge of the octahedron gives the same result on other ids
        t, _ = build_octahedron()
        sites = enumerate_sites(t, [FlipKind.BES])
        direct, other = (apply_flip(t, s)[0] for s in sites[:2])
        assert direct.faces != other.faces
        assert verify_expansion(t, sites[0], [sites[1]])
        assert [c.faces for c in code_calls] == [direct.faces, other.faces]

    def test_verify_rejects_a_non_isomorph_with_the_same_degrees(
        self, code_calls, small_samples_50
    ):
        found = 0
        for t, _ in small_samples_50:
            for kind in (FlipKind.NFLIP, FlipKind.P2FLIP):
                sites = enumerate_sites(t, [kind])
                for other in sites[1:]:
                    direct, cur = (apply_flip(t, s)[0] for s in (sites[0], other))
                    if degrees(cur) == degrees(direct) and not eager_verify(
                        t, sites[0], [other]
                    ):
                        del code_calls[:]
                        assert not verify_expansion(t, sites[0], [other])
                        assert len(code_calls) == 2
                        found += 1
        assert found > 0

    def test_search_codes_the_direct_result_only_for_a_candidate(
        self, monkeypatch, code_calls, small_samples_50
    ):
        # every state the search builds, in order; the first is the direct result
        states = []
        real = rewrites.apply_flip

        def recording(*args):
            result = real(*args)
            states.append(result[0])
            return result

        monkeypatch.setattr(rewrites, "apply_flip", recording)
        coded = 0
        for t, _ in small_samples_50:
            for site in enumerate_sites(t, [FlipKind.NFLIP, FlipKind.P2FLIP]):
                del states[:], code_calls[:]
                expand_via_budget(t, site)
                direct = states[0]
                candidates = [
                    s for s in states[1:]
                    if s.faces != direct.faces and s.vertex_count == direct.vertex_count
                    and degrees(s) == degrees(direct)
                ]
                assert code_calls == ([direct] + candidates if candidates else [])
                coded += bool(candidates)
        assert coded > 0

    def test_verdicts_equal_the_eager_codes(self, small_samples_50):
        for t, _ in small_samples_50:
            for kind in (FlipKind.NFLIP, FlipKind.P2FLIP):
                sites = enumerate_sites(t, [kind])
                for site in sites:
                    seq = expand_via_budget(t, site)
                    assert seq == eager_expand(t, site)
                    assert verify_expansion(t, site, seq) is eager_verify(t, site, seq) is True
                    for other in sites[:3]:
                        assert verify_expansion(t, site, [other]) is eager_verify(
                            t, site, [other]
                        )
