"""Expansion recipes: realizing one move as a sequence of other moves.

Three closed-form recipes cover the subdivision moves, and a bounded search
certifies the two vertex-neutral moves against per-kind move budgets.  Every
expansion is a list of sites to apply in order; the composite result is
isomorphic to the direct move's result (equal canonical codes), usually equal
outright.  verify_expansion() replays a sequence and checks exactly that.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from .canon import canonical_code
from .errors import ExpansionNotFound, InvalidSite, NoEligibleOrientation
from .flips import (
    VERTEX_DELTA,
    FlipKind,
    FlipSite,
    apply_flip,
    bew_patch,
    enumerate_sites,
    site_footprint,
)
from .surface import Coloring, Triangulation


def _as_bes(site: FlipSite) -> tuple[int, int, int, int]:
    if site.kind is not FlipKind.BES:
        raise InvalidSite(f"expected a bes site, got {site.kind.value}")
    return site.vertices


def _two_ps_orientation(t: Triangulation, site: FlipSite) -> tuple[int, ...] | None:
    """(u, x, y, v0, v1) of the first unblocked two-split orientation, or None."""
    a, b, c, d = _as_bes(site)
    for x, y, v0, v1 in ((c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
        u = t.other_face_third(x, v1, v0)
        if u != y and not t.has_edge(u, y):
            return u, x, y, v0, v1
    return None


def expand_bes_via_ps(t: Triangulation, site: FlipSite) -> list[FlipSite]:
    """Realize a double edge subdivision as two single splits.

    With the subdivided edge v0v1 and its opposite corners x, y, the first
    split pivots on v1 with the fan (u, x, v0, y), where u lies beyond the
    edge xv1; that needs the chord uy to be missing.  The four orientations
    (x,y,v0,v1), (y,x,v0,v1), (x,y,v1,v0), (y,x,v1,v0) are tried in order;
    if every one is blocked, NoEligibleOrientation is raised.
    """
    found = _two_ps_orientation(t, site)
    if found is None:
        raise NoEligibleOrientation(
            f"all four orientations of bes site {site.vertices} have the blocking chord"
        )
    u, x, y, v0, v1 = found
    n1 = t.max_vertex_id + 1  # created by the first split
    return [
        FlipSite(FlipKind.PS, (v1, u, x, v0, y)),
        FlipSite(FlipKind.PS, (u, x, n1, y, v1)),
    ]


def expand_bes_via_ps_available(t: Triangulation, site: FlipSite) -> bool:
    """Whether some orientation of the two-split recipe is unblocked."""
    return _two_ps_orientation(t, site) is not None


def expand_bes_via_bts_pc(t: Triangulation, site: FlipSite) -> list[FlipSite]:
    """Realize a double edge subdivision as a triple subdivision plus a
    contraction.

    The triple subdivision of face abc creates partners a', b', c' of its
    corners; contracting c' through the link edge (b, a) into the far corner
    d then erases exactly the c'-material and the original edge ab.  The
    composite equals the direct move's result outright, including the ids of
    the two surviving created vertices.  This recipe is never blocked.
    """
    a, b, c, d = _as_bes(site)
    m = t.max_vertex_id
    ap, bp, cp = m + 1, m + 2, m + 3  # ids the triple subdivision will create
    return [
        FlipSite(FlipKind.BTS, (a, b, c)),
        FlipSite(FlipKind.PC, (cp, b, ap, bp, a, d)),
    ]


def expand_bew_via_ps_btw(t: Triangulation, site: FlipSite) -> list[FlipSite]:
    """Realize a double edge weld as a split plus a triple weld (the mirror
    of expand_bes_via_bts_pc).

    With the patch (a, b, c, d) around the welded pair (p, q), a split
    pivoting on d over the fan (b, p, q, a) creates n and draws the chord
    ab; the triple weld then removes the interior {p, q, n} against the
    partner-ordered boundary (a, b, c).  The chord ab is missing by the
    weld's own precondition, so the split cannot be blocked; the d pivot is
    still retried on c, and failing both falls back to the budget search.
    """
    if site.kind is not FlipKind.BEW:
        raise InvalidSite(f"expected a bew site, got {site.kind.value}")
    p, q = site.vertices
    a, b, c, d = bew_patch(t, p, q)
    n = t.max_vertex_id + 1
    for pivot, spare in ((d, c), (c, d)):
        ps = FlipSite(FlipKind.PS, (pivot, b, p, q, a))
        try:
            apply_flip(t, ps)
        except InvalidSite:
            continue
        interior = sorted(((p, a), (q, b), (n, spare)))
        return [
            ps,
            FlipSite(
                FlipKind.BTW,
                tuple(v for v, _ in interior) + tuple(w for _, w in interior),
            ),
        ]
    return expand_via_budget(
        t, site, budget={FlipKind.PS: 1, FlipKind.BTW: 1}
    )


_DEFAULT_BUDGETS: dict[FlipKind, dict[FlipKind, int]] = {
    FlipKind.NFLIP: {FlipKind.BES: 3, FlipKind.PC: 4, FlipKind.BEW: 1},
    FlipKind.P2FLIP: {FlipKind.BES: 1, FlipKind.BEW: 1},
}

# |faces removed| + |faces added| per move, for the distance prune.
_FACE_CHURN = {k: 8 for k in FlipKind} | {FlipKind.P2FLIP: 14}


def expand_via_budget(
    t: Triangulation,
    site: FlipSite,
    *,
    budget: Mapping[FlipKind, int] | None = None,
) -> list[FlipSite]:
    """Find a move sequence equivalent to `site` within a per-kind budget.

    Depth-first search over applications drawn from the budget.  Candidate
    sites are restricted to touch only the direct site's footprint plus
    vertices created earlier in the sequence, which keeps the branching
    desk-scale.  Returns the lexicographically least sequence in (kind,
    vertex tuple) order, a prefix winning over its extensions; raises
    ExpansionNotFound when the budget cannot realize the move.
    """
    if budget is None:
        budget = _DEFAULT_BUDGETS.get(site.kind)
        if budget is None:
            raise ExpansionNotFound(
                f"no default budget for {site.kind.value}; pass one explicitly"
            )
    remaining = {k: int(n) for k, n in dict(budget).items() if int(n) > 0}

    direct, _ = apply_flip(t, site)
    target_faces = frozenset(direct.faces)
    target_v = direct.vertex_count
    target_degrees = sorted(direct._degrees.values())
    target_code = canonical_code(direct)

    allowed_base = site_footprint(t, site)
    original_vertices = set(t.vertices)
    failed: set[tuple[frozenset, tuple]] = set()

    def signature(rem: dict[FlipKind, int]) -> tuple:
        return tuple(sorted((k.value, n) for k, n in rem.items() if n > 0))

    @cache
    def reachable_deltas(sig: tuple) -> frozenset[int]:
        # Vertex deltas achievable by applying any sub-multiset of sig.
        sums = {0}
        for value, count in sig:
            delta = VERTEX_DELTA[FlipKind(value)]
            sums = {s + i * delta for s in sums for i in range(count + 1)}
        return frozenset(sums)

    def matches_target(cur: Triangulation) -> bool:
        if cur.vertex_count != target_v:
            return False
        if frozenset(cur.faces) == target_faces:
            return True
        if sorted(cur._degrees.values()) != target_degrees:
            return False
        return canonical_code(cur) == target_code

    def dfs(cur: Triangulation, seq: list[FlipSite]) -> list[FlipSite] | None:
        if seq and matches_target(cur):
            return list(seq)
        moves_left = sum(remaining.values())
        if moves_left == 0:
            return None
        if target_v - cur.vertex_count not in reachable_deltas(signature(remaining)):
            return None
        churn = max(_FACE_CHURN[k] for k, n in remaining.items() if n > 0)
        if len(frozenset(cur.faces) ^ target_faces) > churn * moves_left:
            return None
        key = (frozenset(cur.faces), signature(remaining))
        if key in failed:
            return None
        allowed = allowed_base | (set(cur.vertices) - original_vertices)
        kinds = [k for k, n in remaining.items() if n > 0]
        for cand in enumerate_sites(cur, kinds):
            if not site_footprint(cur, cand) <= allowed:
                continue
            nxt, _ = apply_flip(cur, cand)
            remaining[cand.kind] -= 1
            seq.append(cand)
            found = dfs(nxt, seq)
            if found is not None:
                return found
            seq.pop()
            remaining[cand.kind] += 1
        failed.add(key)
        return None

    found = dfs(t, [])
    if found is None:
        total = sum(remaining.values())
        raise ExpansionNotFound(
            f"no sequence within budget "
            f"{{{', '.join(f'{k.value}:{n}' for k, n in sorted(remaining.items(), key=lambda kv: kv[0].value))}}} "
            f"({total} moves) realizes {site}"
        )
    return found


def verify_expansion(
    t: Triangulation,
    site: FlipSite,
    seq: Sequence[FlipSite],
    col: Coloring | None = None,
) -> bool:
    """Replay seq and compare its composite with the direct move by code."""
    direct, direct_col = apply_flip(t, site, col)
    cur, cur_col = t, col
    try:
        for s in seq:
            cur, cur_col = apply_flip(cur, s, cur_col)
    except InvalidSite:
        return False
    return canonical_code(cur, cur_col) == canonical_code(direct, direct_col)
