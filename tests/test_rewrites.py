"""Expansion recipes: closed forms, the budget search, verification."""

import pytest

from baltri import (
    ColorMode,
    ExpansionNotFound,
    InvalidSite,
    NoEligibleOrientation,
    WouldCreateDoubleEdge,
    canonical_code,
)
from baltri.explorer import build_octahedron
from baltri.flips import FlipKind, FlipSite, apply_flip, enumerate_sites
from baltri.rewrites import (
    expand_bes_via_bts_pc,
    expand_bes_via_ps,
    expand_bes_via_ps_available,
    expand_bew_via_ps_btw,
    expand_via_budget,
    verify_expansion,
)


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
