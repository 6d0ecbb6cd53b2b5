"""Expansion recipes: realizing one move as a sequence of other moves.

Three closed-form recipes cover the subdivision moves, and a bounded search
certifies the two vertex-neutral moves against per-kind move budgets.  Every
expansion is a list of sites to apply in order; the composite result is
isomorphic to the direct move's result, usually equal outright.
verify_expansion() replays a sequence and checks exactly that with the
search's test, _isomorphic_to: face tuples, then vertex count and degrees,
then canonical codes only where those cannot tell.  Each closed-form recipe
first runs the rule of the move it expands, so an invalid site raises that
rule's InvalidSite.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .canon import canonical_code
from .errors import ExpansionNotFound, InvalidSite, NoEligibleOrientation
from .flips import (
    FlipKind,
    FlipSite,
    _around,
    _footprint,
    _scan,
    apply_flip,
    bew_patch,
)
from .surface import Triangulation


def _checked(t: Triangulation, site: FlipSite, kind: FlipKind) -> tuple[int, ...]:
    """The vertices of site, a `kind` site that kind's own rule accepts on t.

    Raises InvalidSite (or the rule's subclass of it) otherwise.
    """
    if site.kind is not kind:
        raise InvalidSite(f"expected a {kind.value} site, got {site.kind.value}")
    kind._rule(t, site.vertices)
    return site.vertices


def _two_ps_orientation(t: Triangulation, site: FlipSite) -> tuple[int, ...] | None:
    """(u, x, y, v0, v1) of the first unblocked two-split orientation, or None."""
    a, b, c, d = _checked(t, site, FlipKind.BES)
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
            f"all four orientations of {site} have the blocking chord"
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
    a, b, c, d = _checked(t, site, FlipKind.BES)
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
    partner-ordered boundary (a, b, c).  Once the weld's own rule accepts
    the site, the fan faces are present and the chord ab is missing, so the
    split cannot be blocked.
    """
    p, q = _checked(t, site, FlipKind.BEW)
    a, b, c, d = bew_patch(t, p, q)
    n = t.max_vertex_id + 1
    interior = sorted(((p, a), (q, b), (n, c)))
    return [
        FlipSite(FlipKind.PS, (d, b, p, q, a)),
        FlipSite(
            FlipKind.BTW,
            tuple(v for v, _ in interior) + tuple(w for _, w in interior),
        ),
    ]


def _isomorphic_to(direct: Triangulation):
    """An exact isomorphism test against direct.  Equal face tuples pass and
    another vertex count or sorted degree sequence fails; only otherwise are
    canonical codes compared, direct's computed once, when first needed."""
    degrees, code = sorted(map(len, direct._links.values())), []

    def test(cur: Triangulation) -> bool:
        if cur.faces == direct.faces:
            return True
        if cur.vertex_count != len(degrees):
            return False
        if sorted(map(len, cur._links.values())) != degrees:
            return False
        if not code:
            code.append(canonical_code(direct))
        return canonical_code(cur) == code[0]

    return test


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

    Depth-first search over applications drawn from the budget, trying each
    state's sites in enumerate_sites order.  Candidate sites are restricted
    to touch only the direct site's footprint plus vertices created earlier
    in the sequence, which keeps the branching desk-scale; they are read
    off only the elements whose corners all lie there.  A path is cut
    once its face set differs from the direct result's by more faces than
    its remaining moves can exchange.  A sequence matches when its result
    is isomorphic to the direct one (_isomorphic_to: equal face tuples,
    else equal vertex count and degrees, then equal canonical codes, the
    direct result's computed at the first such candidate), so the cut can
    also drop a path to an isomorph of the direct result.
    Returns the first match the search meets: the least in (kind, vertex
    tuple) order, a prefix winning over its extensions, among the sequences
    whose every prefix survives the cut, which is not always the least
    valid sequence.  Raises ExpansionNotFound when it meets none.
    """
    if budget is None:
        budget = _DEFAULT_BUDGETS.get(site.kind)
        if budget is None:
            raise ExpansionNotFound(
                f"no default budget for {site.kind.value}; pass one explicitly"
            )
    remaining = {k: int(n) for k, n in dict(budget).items() if int(n) > 0}

    direct, _ = apply_flip(t, site)
    target_faces = set(direct.faces)
    matches_target = _isomorphic_to(direct)

    allowed_base = set(_footprint(t, site))
    original_vertices = set(t.vertices)

    def dfs(cur: Triangulation, seq: list[FlipSite]) -> list[FlipSite] | None:
        if seq and matches_target(cur):
            return list(seq)
        moves_left = sum(remaining.values())
        if moves_left == 0:
            return None
        churn = max(_FACE_CHURN[k] for k, n in remaining.items() if n > 0)
        if len(target_faces.symmetric_difference(cur.faces)) > churn * moves_left:
            return None
        allowed = allowed_base | (cur._links.keys() - original_vertices)
        inside = allowed.intersection(cur._links)

        def source(elements: str, _radius: int):
            # a site is read off an element whose corners are in its footprint
            near = _around(cur, inside, elements)
            return near if elements == "vertices" else [
                e for e in near if inside.issuperset(e)
            ]

        kinds = [k for k, n in remaining.items() if n > 0]
        for cand in _scan(cur, kinds, source):
            if not allowed.issuperset(_footprint(cur, cand)):
                continue
            nxt, _ = apply_flip(cur, cand)
            remaining[cand.kind] -= 1
            seq.append(cand)
            found = dfs(nxt, seq)
            if found is not None:
                return found
            seq.pop()
            remaining[cand.kind] += 1
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
    t: Triangulation, site: FlipSite, seq: Sequence[FlipSite]
) -> bool:
    """Replay seq and test its composite for isomorphism with the direct
    move's result (_isomorphic_to: no code is computed on equal faces).

    Colors are ignored: every move extends the coloring without a choice,
    so on a balanced t the colored codes agree exactly when these do.
    """
    direct, _ = apply_flip(t, site)
    cur = t
    try:
        for s in seq:
            cur, _ = apply_flip(cur, s)
    except InvalidSite:
        return False
    return _isomorphic_to(direct)(cur)
