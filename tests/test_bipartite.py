"""Bipartite graphs, the six operations, and sequence normalization."""

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from baltri import (
    NotApplicable,
    PreconditionViolated,
    RewriteBudgetExceeded,
    RewriteUnsound,
    WrongDegree,
)
from baltri.bipartite import (
    FORWARD_KINDS,
    OP_ARITY,
    BipGraph,
    BipOp,
    BipOpKind,
    apply_bip,
    apply_sequence,
    bip_isomorphic,
    find_isomorphism,
    is_removable,
    is_smoothable,
    normalize_sequence,
)

from conftest import k33, random_bip_case, run_python
from oracles import brute_bip_isomorphism, reference_apply_bip, reference_normalize


def oracle_iso(g1, g2):
    return brute_bip_isomorphism(
        dict(g1.parts), g1.edges, dict(g2.parts), g2.edges
    )


def path4():
    return BipGraph({0: 0, 1: 1, 2: 0, 3: 1}, [(0, 1), (1, 2), (2, 3)])


def random_op(rng, ids):
    """An op of a random kind on ids drawn from ids and two unused ones."""
    pool = sorted(ids) + [max(ids) + 1, max(ids) + 2]
    kind = rng.choice(list(BipOpKind))
    return BipOp(kind, tuple(rng.choice(pool) for _ in range(OP_ARITY[kind])))


def corrupted(rng, g, ops):
    """ops with one op replaced, dropped or repeated."""
    i = rng.randrange(len(ops))
    how = rng.randrange(3)
    if how == 0:
        ids = set(g.parts).union(*(op.args for op in ops))
        return ops[:i] + [random_op(rng, ids)] + ops[i + 1 :]
    if how == 1:
        return ops[:i] + ops[i + 1 :]
    return ops[: i + 1] + ops[i:]


CANCELLING = [BipOp(BipOpKind.ADD_LEAF, (0, 6)), BipOp(BipOpKind.DEL_LEAF, (6,))]
K = BipOpKind


class TestGraph:
    def test_loop_rejected(self):
        with pytest.raises(PreconditionViolated):
            BipGraph({0: 0}, [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PreconditionViolated):
            BipGraph({0: 0, 1: 1}, [(0, 2)])

    def test_same_part_edge_rejected(self):
        with pytest.raises(PreconditionViolated):
            BipGraph({0: 0, 1: 0}, [(0, 1)])

    def test_bad_part_value_rejected(self):
        with pytest.raises(PreconditionViolated):
            BipGraph({0: 0, 1: 2}, [(0, 1)])

    def test_accessors(self):
        g = k33()
        assert g.min_degree() == 3
        assert g.edge_count() == 9
        assert g.degree(0) == 3
        assert g.neighbors(0) == {3, 4, 5}
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        assert not g.has_edge(0, 1)
        assert g.part(0) == 0 and g.part(5) == 1


class TestOps:
    def test_arity_is_enforced(self):
        for kind, arity in OP_ARITY.items():
            BipOp(kind, tuple(range(arity)))
            with pytest.raises(NotApplicable):
                BipOp(kind, tuple(range(arity + 1)))

    def test_the_args_are_stored_as_a_tuple(self):
        op = BipOp(BipOpKind.DEL_LEAF, [3])
        assert op.args == (3,) and type(op.args) is tuple
        assert {op: 1}[BipOp(BipOpKind.DEL_LEAF, (3,))] == 1
        assert op == (BipOpKind.DEL_LEAF, (3,))
        assert hash(op) == hash((BipOpKind.DEL_LEAF, (3,)))
        assert BipOp(BipOpKind.ADD_LEAF, iter([0, 6])).args == (0, 6)
        assert repr(op) == f"BipOp(kind={BipOpKind.DEL_LEAF!r}, args=(3,))"

    def test_pickle_copy_and_relabel_keep_the_type(self):
        ops = [BipOp(kind, tuple(range(arity))) for kind, arity in OP_ARITY.items()]
        copies = [copy.copy(ops), copy.deepcopy(ops)]
        copies += [pickle.loads(pickle.dumps(ops, p)) for p in range(6)]
        copies.append([op.relabeled({0: 7}) for op in ops])
        for back in copies[:-1]:
            assert back == ops
        assert [op.args[0] for op in copies[-1]] == [7] * len(ops)
        for back in copies:
            assert all(type(op) is BipOp for op in back)
            assert all(type(op.args) is tuple for op in back)

    def test_created_ids(self):
        assert BipOp(BipOpKind.ADD_LEAF, (0, 9)).created() == (9,)
        assert BipOp(BipOpKind.SPLIT_EDGE, (0, 3, 9, 10)).created() == (9, 10)
        assert BipOp(BipOpKind.ADD_CORNER, (0, 1, 3, 9)).created() == (9,)
        assert BipOp(BipOpKind.DEL_LEAF, (9,)).created() == ()

    def test_str_is_one_based(self):
        assert str(BipOp(BipOpKind.ADD_LEAF, (0, 8))) == "add-leaf 1 9"

    def test_add_leaf(self):
        g = apply_bip(k33(), BipOp(BipOpKind.ADD_LEAF, (0, 6)))
        assert g.degree(6) == 1
        assert g.part(6) == 1
        assert g.has_edge(0, 6)

    def test_add_leaf_needs_fresh_id(self):
        with pytest.raises(NotApplicable):
            apply_bip(k33(), BipOp(BipOpKind.ADD_LEAF, (0, 5)))

    def test_split_edge(self):
        g = apply_bip(k33(), BipOp(BipOpKind.SPLIT_EDGE, (0, 3, 6, 7)))
        assert not g.has_edge(0, 3)
        assert g.has_edge(0, 6) and g.has_edge(6, 7) and g.has_edge(7, 3)
        assert g.part(6) == 1 and g.part(7) == 0
        assert g.degree(0) == 3 and g.degree(3) == 3

    def test_split_missing_edge(self):
        with pytest.raises(NotApplicable):
            apply_bip(k33(), BipOp(BipOpKind.SPLIT_EDGE, (0, 1, 6, 7)))

    def test_add_corner(self):
        g = apply_bip(k33(), BipOp(BipOpKind.ADD_CORNER, (3, 4, 0, 6)))
        assert g.degree(6) == 2
        assert g.neighbors(6) == {3, 4}
        assert g.part(6) == 0

    def test_add_corner_needs_the_witness(self):
        g = apply_bip(k33(), BipOp(BipOpKind.ADD_LEAF, (0, 6)))
        # 6 is adjacent to 0 only, so 5 cannot witness {6, 3}
        with pytest.raises(NotApplicable):
            apply_bip(g, BipOp(BipOpKind.ADD_CORNER, (6, 3, 5, 7)))

    def test_del_leaf(self):
        g = apply_bip(k33(), BipOp(BipOpKind.ADD_LEAF, (0, 6)))
        back = apply_bip(g, BipOp(BipOpKind.DEL_LEAF, (6,)))
        assert back == k33()

    def test_del_leaf_rejects_non_leaf(self):
        with pytest.raises(NotApplicable):
            apply_bip(k33(), BipOp(BipOpKind.DEL_LEAF, (0,)))

    def test_smooth_path_undoes_split(self):
        g = apply_bip(k33(), BipOp(BipOpKind.SPLIT_EDGE, (0, 3, 6, 7)))
        back = apply_bip(g, BipOp(BipOpKind.SMOOTH_PATH, (0, 6, 7, 3)))
        assert back == k33()

    def test_smooth_path_blocked_by_the_chord(self):
        # smoothing 1-2 in the path 0-1-2-3 plus chord 0-3 is fine, but
        # with the chord 2-... shrink to the 4-cycle where it is not
        square = BipGraph(
            {0: 0, 1: 1, 2: 0, 3: 1}, [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        with pytest.raises(NotApplicable):
            apply_bip(square, BipOp(BipOpKind.SMOOTH_PATH, (0, 1, 2, 3)))

    def test_smooth_path_needs_four_distinct_vertices(self):
        g = apply_bip(k33(), BipOp(BipOpKind.SPLIT_EDGE, (0, 3, 6, 7)))
        # 7-6-7-3 passes the edge checks, but u = q is not a path
        with pytest.raises(NotApplicable):
            apply_bip(g, BipOp(BipOpKind.SMOOTH_PATH, (7, 6, 7, 3)))

    def test_del_corner_undoes_add_corner(self):
        g = apply_bip(k33(), BipOp(BipOpKind.ADD_CORNER, (3, 4, 0, 6)))
        back = apply_bip(g, BipOp(BipOpKind.DEL_CORNER, (6,)))
        assert back == k33()

    def test_del_corner_needs_a_second_witness(self):
        g = apply_bip(path4(), BipOp(BipOpKind.ADD_LEAF, (0, 4)))
        # vertex 1 has degree 2 but its neighbors share no other neighbor
        with pytest.raises(NotApplicable):
            apply_bip(g, BipOp(BipOpKind.DEL_CORNER, (1,)))


class TestPatchedApply:
    """apply_bip patches its input; the definitions rebuild from scratch."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_the_validating_rebuild(self, seed):
        rng = random.Random(seed)
        g, ops = random_bip_case(seed % 4000, max_side=6, max_len=32)
        for op in ops:
            stray = random_op(rng, g.parts)
            want = reference_apply_bip(g.parts, g.edges, stray.kind.value, stray.args)
            if want is None:
                with pytest.raises(NotApplicable):
                    apply_bip(g, stray)
            else:
                assert apply_bip(g, stray) == BipGraph(*want)
            before = dict(g.parts), {v: g.neighbors(v) for v in g.vertices}
            h = apply_bip(g, op)
            parts, edges = reference_apply_bip(g.parts, g.edges, op.kind.value, op.args)
            rebuilt = BipGraph(h.parts, h.edges)
            assert h.parts == parts == rebuilt.parts
            assert h.edges == edges == rebuilt.edges
            assert all(h.neighbors(v) == rebuilt.neighbors(v) for v in h.vertices)
            assert h.edge_count() == len(edges)
            assert h.min_degree() == rebuilt.min_degree()
            # copy on write: the input graph is left as it was
            assert (dict(g.parts), {v: g.neighbors(v) for v in g.vertices}) == before
            g = h


def _snapshot(g):
    return dict(g.parts), {v: g.neighbors(v) for v in g.vertices}


class TestInPlaceSequence:
    """apply_sequence patches one copy of its input for the whole script; a
    per-op replay of the definitions must reach the same graph, or refuse
    the same op with the message apply_bip gives for it alone."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_a_per_op_reference_replay(self, seed):
        rng = random.Random(seed)
        g, ops = random_bip_case(seed % 4000, max_side=6, max_len=32)
        before = _snapshot(g)
        states = [(dict(g.parts), g.edges)]
        for op in ops:
            states.append(reference_apply_bip(*states[-1], op.kind.value, op.args))
        assert apply_sequence(g, ops) == BipGraph(*states[-1])
        # one stray op that fails, anywhere in the script
        i = rng.randrange(len(ops) + 1)
        parts, edges = states[i]
        ids = set(parts).union(*(op.args for op in ops))
        stray = random_op(rng, ids)
        while reference_apply_bip(parts, edges, stray.kind.value, stray.args) is not None:
            stray = random_op(rng, ids)
        with pytest.raises(NotApplicable) as alone:
            apply_bip(BipGraph(parts, edges), stray)
        with pytest.raises(NotApplicable) as err:
            apply_sequence(g, ops[:i] + [stray] + ops[i:])
        assert (type(err.value), str(err.value)) == (type(alone.value), str(alone.value))
        assert str(err.value).startswith(f"{stray}: ")
        assert _snapshot(g) == before

    def test_refusals_name_the_op_one_based(self):
        for op, message in (
            (BipOp(K.DEL_LEAF, (1,)), "del-leaf 2: vertex 2 has degree 3, not a leaf"),
            (BipOp(K.ADD_LEAF, (8, 9)), "add-leaf 9 10: no vertex 9"),
            (BipOp(K.ADD_LEAF, (0, 5)), "add-leaf 1 6: vertex 6 already exists"),
            (BipOp(K.SPLIT_EDGE, (0, 1, 6, 7)), "split-edge 1 2 7 8: no edge {1,2}"),
            (BipOp(K.SMOOTH_PATH, (0, 3, 0, 4)),
             "smooth-path 1 4 1 5: its 4 vertices must be distinct and exist"),
            (BipOp(K.DEL_CORNER, (0,)), "del-corner 1: vertex 1 has degree 3, not 2"),
        ):
            with pytest.raises(NotApplicable) as err:
                apply_sequence(k33(), [op])
            assert str(err.value) == message


class TestPredicates:
    def test_smoothable_wrong_degree(self):
        with pytest.raises(WrongDegree):
            is_smoothable(k33(), 0, 3)

    def test_smoothable_requires_adjacency(self):
        g = BipGraph(
            {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1},
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        )
        assert is_smoothable(g, 1, 2)
        with pytest.raises(NotApplicable):
            is_smoothable(g, 1, 3)

    def test_removable_wrong_degree(self):
        with pytest.raises(WrongDegree):
            is_removable(k33(), 0)


class TestIsomorphism:
    def test_part_swap_counts(self):
        g = k33()
        swapped = BipGraph({v: 1 - p for v, p in g.parts.items()}, g.edges)
        assert bip_isomorphic(g, swapped)

    def test_relabeled_copies_match(self):
        g, ops = random_bip_case(11)
        h = apply_sequence(g, ops)
        shift = {v: v + 100 for v in h.vertices}
        h2 = BipGraph(
            {shift[v]: p for v, p in h.parts.items()},
            [(shift[u], shift[v]) for u, v in h.edges],
        )
        phi = find_isomorphism(h, h2)
        assert phi is not None
        assert oracle_iso(h, h2) is not None

    def test_the_recursion_limit_is_left_as_it_was(self):
        # VF2 raises the limit to 1.5 V while it searches a 700-cycle
        n = 700
        cycle = BipGraph({v: v % 2 for v in range(n)}, [(v, (v + 1) % n) for v in range(n)])
        moved = BipGraph(
            {v + n: v % 2 for v in range(n)}, [(v + n, (v + 1) % n + n) for v in range(n)]
        )
        limit = sys.getrecursionlimit()
        assert find_isomorphism(cycle, moved) is not None
        assert sys.getrecursionlimit() == limit

    def test_against_the_oracle(self):
        cases = [apply_sequence(*random_bip_case(s)) for s in range(14)]
        for i, g1 in enumerate(cases):
            for g2 in cases[i:]:
                assert bip_isomorphic(g1, g2) == (oracle_iso(g1, g2) is not None)


class TestRewriteBranches:
    """Scripts that reach the rewrites random_bip_case scripts miss, pinned
    op for op and held to the replay reference and to apply_sequence."""

    @pytest.mark.parametrize(
        "ops, want",
        [
            # splitting the pendant edge of w = 6, then deleting w, is
            # growing the pendant path at w by a fresh leaf
            (
                [BipOp(K.ADD_LEAF, (0, 6)), BipOp(K.SPLIT_EDGE, (0, 6, 7, 8)),
                 BipOp(K.DEL_LEAF, (6,))],
                [BipOp(K.ADD_LEAF, (0, 6)), BipOp(K.ADD_LEAF, (6, 9))],
            ),
            # the leaf 8 makes the old leaf 7 a smoothing endpoint: deleting
            # 7 instead, which then cancels against its own creation
            (
                [BipOp(K.ADD_LEAF, (0, 6)), BipOp(K.ADD_LEAF, (6, 7)),
                 BipOp(K.ADD_LEAF, (7, 8)), BipOp(K.SMOOTH_PATH, (0, 6, 7, 8))],
                [BipOp(K.ADD_LEAF, (0, 6))],
            ),
            # 6 is re-created: it becomes 7, past every id the script uses
            (
                [BipOp(K.ADD_LEAF, (0, 6)), BipOp(K.DEL_LEAF, (6,)),
                 BipOp(K.ADD_LEAF, (1, 6)), BipOp(K.SPLIT_EDGE, (1, 6, 7, 8))],
                # the split's 7 and 8 are new and kept; 6's second life is 9
                [BipOp(K.ADD_LEAF, (1, 9)), BipOp(K.SPLIT_EDGE, (1, 9, 7, 8))],
            ),
            # 6 is re-created twice, and the later ops follow its last life
            (
                [BipOp(K.ADD_LEAF, (0, 6)), BipOp(K.DEL_LEAF, (6,)),
                 BipOp(K.ADD_LEAF, (1, 6)), BipOp(K.DEL_LEAF, (6,)),
                 BipOp(K.ADD_LEAF, (2, 6)), BipOp(K.ADD_LEAF, (6, 7))],
                [BipOp(K.ADD_LEAF, (2, 9)), BipOp(K.ADD_LEAF, (9, 7))],
            ),
        ],
        ids=["split-then-delete-leaf", "leaf-becomes-smoothing-end", "recreated",
             "recreated-twice"],
    )
    def test_pinned_rewrites(self, ops, want):
        got = normalize_sequence(k33(), ops)
        assert got == want
        assert got == reference_normalize(k33(), ops)
        assert oracle_iso(apply_sequence(k33(), ops), apply_sequence(k33(), got))


class TestNormalize:
    def test_cancellation(self):
        assert normalize_sequence(k33(), CANCELLING) == []

    def test_pinned_example(self):
        ops = [
            BipOp(BipOpKind.ADD_LEAF, (0, 6)),
            BipOp(BipOpKind.SPLIT_EDGE, (1, 4, 7, 8)),
            BipOp(BipOpKind.DEL_LEAF, (6,)),
        ]
        assert normalize_sequence(k33(), ops) == [
            BipOp(BipOpKind.SPLIT_EDGE, (1, 4, 7, 8))
        ]

    def test_forward_sequences_pass_through(self):
        ops = [
            BipOp(BipOpKind.SPLIT_EDGE, (0, 3, 6, 7)),
            BipOp(BipOpKind.ADD_LEAF, (6, 8)),
        ]
        assert normalize_sequence(k33(), ops) == ops

    def test_low_degree_base_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            normalize_sequence(path4(), [BipOp(BipOpKind.ADD_LEAF, (0, 4))])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_normalized_output_is_forward_and_faithful(self, seed):
        g, ops = random_bip_case(seed % 4000)
        normal = normalize_sequence(g, ops)
        assert all(op.kind in FORWARD_KINDS for op in normal)
        want = apply_sequence(g, ops)
        got = apply_sequence(g, normal)
        assert oracle_iso(want, got) is not None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_edge_count_grows_unless_nothing_changed(self, seed):
        g, ops = random_bip_case(seed % 4000)
        normal = normalize_sequence(g, ops)
        result = apply_sequence(g, normal)
        if oracle_iso(result, g) is None:
            assert result.edge_count() > g.edge_count()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), max_len=st.sampled_from([8, 32, 128]))
    def test_matches_the_replay_reference(self, seed, max_len):
        g, ops = random_bip_case(seed % 4000, max_side=6, max_len=max_len)
        assert normalize_sequence(g, ops) == reference_normalize(g, ops)

    def test_scripts_that_do_not_apply_are_rejected(self):
        K = BipOpKind
        for ops in (
            [BipOp(K.DEL_LEAF, (0,)), BipOp(K.ADD_LEAF, (0, 9))],
            [BipOp(K.ADD_LEAF, (0, 1))],  # creates the live vertex 1
        ):
            with pytest.raises(NotApplicable):
                apply_sequence(k33(), ops)
            with pytest.raises(NotApplicable):
                normalize_sequence(k33(), ops)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_rejects_exactly_what_apply_rejects(self, seed):
        g, ops = random_bip_case(seed % 4000, max_len=12)
        ops = corrupted(random.Random(seed), g, ops)
        try:
            want = apply_sequence(g, ops)
        except NotApplicable:
            with pytest.raises(NotApplicable):
                normalize_sequence(g, ops)
        else:
            got = apply_sequence(g, normalize_sequence(g, ops))
            assert oracle_iso(want, got) is not None

    def test_failed_rewrite_check_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr("baltri.bipartite.find_isomorphism", lambda g1, g2: None)
        with pytest.raises(RewriteUnsound):
            normalize_sequence(k33(), CANCELLING)

    def test_a_rewrite_that_never_moves_the_inverse_runs_out_of_budget(
        self, monkeypatch
    ):
        # [f, inv] back unchanged: the graph is kept, but the inverse op
        # never leaves its place, so the |ops|^2 step budget runs out
        monkeypatch.setattr(
            "baltri.bipartite._rewrite_pair", lambda before, f, inv, fresh: [f, inv]
        )
        with pytest.raises(RewriteBudgetExceeded, match="exceeded 4 rewriting steps"):
            normalize_sequence(k33(), CANCELLING)

    def test_a_rewrite_that_stops_applying_is_unsound(self, monkeypatch):
        # [inv] alone deletes the leaf f was to add, which k33 lacks
        monkeypatch.setattr(
            "baltri.bipartite._rewrite_pair", lambda before, f, inv, fresh: [inv]
        )
        with pytest.raises(RewriteUnsound, match="stopped applying") as err:
            normalize_sequence(k33(), CANCELLING)
        assert isinstance(err.value.__cause__, NotApplicable)

    def test_failed_rewrite_check_survives_optimization(self):
        code = (
            "import baltri.bipartite as b\n"
            "from baltri import RewriteUnsound\n"
            "b.find_isomorphism = lambda g1, g2: None\n"
            "g = b.BipGraph({v: v // 3 for v in range(6)},"
            " [(i, j) for i in range(3) for j in range(3, 6)])\n"
            "ops = [b.BipOp(b.BipOpKind.ADD_LEAF, (0, 6)),"
            " b.BipOp(b.BipOpKind.DEL_LEAF, (6,))]\n"
            "try:\n"
            "    b.normalize_sequence(g, ops)\n"
            "except RewriteUnsound:\n"
            "    print('typed')\n"
        )
        done = run_python(code, "-O")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "typed\n"
