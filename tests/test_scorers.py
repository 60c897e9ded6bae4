from functools import reduce

import numpy as np
import pytest

from spandep.autodiff import Graph, ParameterStore, grad_check
from spandep.parts import SpandepError
from spandep.scorers import Scorers

from .oracles import (
    arc_representation,
    frame_vec,
    role_vec,
    score_argument,
    score_cross_task,
    score_head,
    score_labeled,
    score_predicate,
    score_top,
    score_unlabeled,
)


def small_scorers(seed=0, rank=3, label_dim=3, mlp_dim=4, bilstm_dim=6):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    sc = Scorers(store, frames=("F0", "F1"), lus=("run.v", "play.v"),
                 roles=("R0", "R1", "R2"), dep_labels=("a1", "a2"), rng=rng,
                 rank=rank, label_dim=label_dim, mlp_dim=mlp_dim,
                 bilstm_dim=bilstm_dim)
    return sc, store


def unit_scorers():
    """All widths 1 so factor entries can be set by hand."""
    return small_scorers(rank=1, label_dim=1, mlp_dim=1, bilstm_dim=2)


def fake_states(g, n=4, dim=6, seed=2):
    """An (n, dim) matrix node standing in for the encoder's output."""
    rng = np.random.default_rng(seed)
    return g.input(rng.normal(size=(n, dim)))


class TestMultilinearHandCases:
    def test_rank_one_product(self):
        sc, store = unit_scorers()
        store.values["sc.w1"][:] = 1.0
        store.values["sc.w2"][:] = 1.0
        store.values["sc.w3"][:] = 1.0
        g = Graph()
        s = score_predicate(sc, g, g.input([2.0]), g.input([3.0]), g.input([4.0]))
        assert float(s.value) == pytest.approx(24.0)

    def test_rank_two_sums_products(self):
        sc, store = small_scorers(rank=2, label_dim=1, mlp_dim=1, bilstm_dim=2)
        store.values["sc.w1"][:, 0] = [5.0, 3.0]
        store.values["sc.w2"][:, 0] = [1.0, 1.0]
        store.values["sc.w3"][:, 0] = [1.0, -1.0]
        g = Graph()
        s = score_predicate(sc, g, g.input([1.0]), g.input([1.0]), g.input([1.0]))
        assert float(s.value) == pytest.approx(5.0 - 3.0)

    def test_zero_slot_kills_score(self):
        sc, _ = small_scorers()
        g = Graph()
        rng = np.random.default_rng(1)
        s = score_predicate(sc, g, g.input(np.zeros(3)),
                            g.input(rng.normal(size=4)),
                            g.input(rng.normal(size=3)))
        assert float(s.value) == 0.0

    def test_argument_rank_one(self):
        sc, store = unit_scorers()
        for name in ("w1", "w2", "w3", "u1", "u2"):
            store.values[f"sc.{name}"][:] = 1.0
        g = Graph()
        one = g.input([1.0])
        s = score_argument(sc, g, one, one, one, g.input([2.0]), g.input([3.0]))
        assert float(s.value) == pytest.approx(6.0)

    def test_argument_zero_role(self):
        sc, _ = small_scorers()
        g = Graph()
        rng = np.random.default_rng(3)
        s = score_argument(sc, g, g.input(rng.normal(size=3)),
                           g.input(rng.normal(size=4)),
                           g.input(rng.normal(size=3)),
                           g.input(rng.normal(size=4)),
                           g.input(np.zeros(3)))
        assert float(s.value) == 0.0

    def test_cross_task_all_unit(self):
        sc, store = unit_scorers()
        for name in ("w1", "w2", "w3", "u1", "u2", "v1", "v2"):
            store.values[f"sc.{name}"][:] = 1.0
        store.values["sc.ua.w"][:] = 1.0
        g = Graph()
        one = g.input([1.0])
        s = score_cross_task(sc, g, one, one, one, one, one, one)
        assert float(s.value) == pytest.approx(1.0)

    def test_cross_task_zero_arc_rep(self):
        sc, _ = small_scorers()
        g = Graph()
        rng = np.random.default_rng(4)
        v = lambda d: g.input(rng.normal(size=d))
        s = score_cross_task(sc, g, v(3), v(4), v(3), v(4), v(3),
                             g.input(np.zeros(4)))
        assert float(s.value) == 0.0

    def test_doubling_v2_doubles_score(self):
        sc, store = small_scorers()
        g = Graph()
        rng = np.random.default_rng(5)
        args = [g.input(rng.normal(size=d)) for d in (3, 4, 3, 4, 3, 4)]
        before = float(score_cross_task(sc, g, *args).value)
        store.values["sc.v2"] *= 2.0
        g2 = Graph()
        args2 = [g2.input(a.value) for a in args]
        after = float(score_cross_task(sc, g2, *args2).value)
        assert after == pytest.approx(2.0 * before, rel=1e-9)


class TestTensorOracle:
    def test_predicate_equals_order3_contraction(self):
        sc, store = small_scorers()
        rng = np.random.default_rng(6)
        f, t, l = rng.normal(size=3), rng.normal(size=4), rng.normal(size=3)
        g = Graph()
        s = score_predicate(sc, g, g.input(f), g.input(t), g.input(l))
        tensor = np.einsum("ka,kb,kc->abc", store.values["sc.w1"],
                           store.values["sc.w2"], store.values["sc.w3"])
        want = np.einsum("abc,a,b,c->", tensor, f, t, l)
        assert float(s.value) == pytest.approx(want, rel=1e-12)

    def test_argument_equals_order5_contraction(self):
        sc, store = small_scorers()
        rng = np.random.default_rng(7)
        ins = [rng.normal(size=d) for d in (3, 4, 3, 4, 3)]
        g = Graph()
        s = score_argument(sc, g, *(g.input(x) for x in ins))
        tensor = np.einsum("ka,kb,kc,kd,ke->abcde",
                           *(store.values[f"sc.{n}"]
                             for n in ("w1", "w2", "w3", "u1", "u2")))
        want = np.einsum("abcde,a,b,c,d,e->", tensor, *ins)
        assert float(s.value) == pytest.approx(want, rel=1e-12)

    def test_cross_task_equals_order7_contraction(self):
        sc, store = small_scorers(rank=2, label_dim=2, mlp_dim=2, bilstm_dim=2)
        rng = np.random.default_rng(8)
        ins = [rng.normal(size=2) for _ in range(6)]
        g = Graph()
        s = score_cross_task(sc, g, *(g.input(x) for x in ins))
        tensor = np.einsum("ka,kb,kc,kd,ke,kf,kg->abcdefg",
                           *(store.values[f"sc.{n}"]
                             for n in ("w1", "w2", "w3", "u1", "u2", "v1", "v2")))
        want = np.einsum("abcdefg,a,b,c,d,e,f,g->", tensor, ins[0], ins[1],
                         ins[2], ins[3], ins[4], store.values["sc.ua.w"],
                         ins[5])
        assert float(s.value) == pytest.approx(want, rel=1e-12)

    def test_linearity_in_every_slot(self):
        sc, _ = small_scorers()
        rng = np.random.default_rng(9)
        ins = [rng.normal(size=d) for d in (3, 4, 3, 4, 3)]
        g = Graph()
        base = float(score_argument(sc, g, *(g.input(x) for x in ins)).value)
        for slot in range(5):
            g2 = Graph()
            scaled = [g2.input(2.5 * x if k == slot else x)
                      for k, x in enumerate(ins)]
            got = float(score_argument(sc, g2, *scaled).value)
            assert got == pytest.approx(2.5 * base, rel=1e-9)


class TestDependencyScorers:
    def test_zero_final_linear_zeroes_all_parts(self):
        sc, store = small_scorers()
        for tag in ("head", "ua", "lab", "top"):
            store.values[f"sc.{tag}.w"][:] = 0.0
        g = Graph()
        hs = fake_states(g)
        assert float(score_head(sc, g, hs, 0).value) == 0.0
        assert float(score_unlabeled(sc, g, hs, 0, 1).value) == 0.0
        assert float(score_labeled(sc, g, hs, 0, 1, "a1").value) == 0.0
        assert float(score_top(sc, g, hs, 2).value) == 0.0

    def test_order_matters(self):
        sc, _ = small_scorers()
        g = Graph()
        hs = fake_states(g)
        ab = float(score_unlabeled(sc, g, hs, 0, 1).value)
        ba = float(score_unlabeled(sc, g, hs, 1, 0).value)
        assert ab != pytest.approx(ba)

    def test_labels_differ_iff_embeddings_differ(self):
        sc, store = small_scorers()
        store.values["sc.emb.label"][1] = store.values["sc.emb.label"][0]
        g = Graph()
        hs = fake_states(g)
        s1 = float(score_labeled(sc, g, hs, 0, 1, "a1").value)
        s2 = float(score_labeled(sc, g, hs, 0, 1, "a2").value)
        assert s1 == s2
        store.values["sc.emb.label"][1] += 0.5
        g2 = Graph()
        hs2 = fake_states(g2)
        s1 = float(score_labeled(sc, g2, hs2, 0, 1, "a1").value)
        s2 = float(score_labeled(sc, g2, hs2, 0, 1, "a2").value)
        assert s1 != pytest.approx(s2)

    def test_unknown_label_raises(self):
        sc, _ = small_scorers()
        g = Graph()
        hs = fake_states(g)
        with pytest.raises(SpandepError, match="unknown label"):
            score_labeled(sc, g, hs, 0, 1, "nope")
        with pytest.raises(SpandepError, match="unknown label"):
            sc.ids("label", ["nope"])

    def test_part_types_have_disjoint_parameters(self):
        sc, store = small_scorers()

        def all_scores():
            g = Graph()
            hs = fake_states(g)
            return [float(score_unlabeled(sc, g, hs, 0, 1).value),
                    float(score_labeled(sc, g, hs, 0, 1, "a1").value),
                    float(score_top(sc, g, hs, 1).value)]

        before = all_scores()
        for name in ("head.w1", "head.b1", "head.w2", "head.b2", "head.w"):
            store.values[f"sc.{name}"][:] = np.pi
        assert all_scores() == before


class TestBatchEqualsSingle:
    def test_predicates(self):
        sc, _ = small_scorers()
        g = Graph()
        rng = np.random.default_rng(10)
        g_tgt = g.input(rng.normal(size=4))
        g_lu = sc.lu_vec(g, "play.v")
        batch = sc.predicate_scores(g, sc.ids("frame", ["F0", "F1", "F0"]),
                                    sc.target_terms(g, g_tgt, g_lu))
        for k, frame in enumerate(["F0", "F1", "F0"]):
            single = score_predicate(sc, g, frame_vec(sc, g, frame), g_tgt, g_lu)
            assert batch.value[k] == pytest.approx(float(single.value), rel=1e-12)

    def test_arguments_and_cross(self):
        # many-to-many pairs: argument 0 meets arcs 0, 2 and 3, arc 2 meets
        # every argument, and arc 4 meets none
        sc, _ = small_scorers()
        g = Graph()
        rng = np.random.default_rng(11)
        g_tgt = g.input(rng.normal(size=4))
        g_lu = sc.lu_vec(g, "run.v")
        frames = ["F0", "F1", "F1"]
        roles = ["R0", "R2", "R1"]
        span_rows = g.input(rng.normal(size=(3, 4)))
        arc_rows = g.input(rng.normal(size=(5, 4)))
        cross_arg = [0, 2, 1, 0, 2, 0]
        cross_arc = [2, 1, 2, 0, 2, 3]
        terms = sc.target_terms(g, g_tgt, g_lu)
        products = sc.argument_products(
            g, sc.ids("frame", frames), sc.ids("role", roles), span_rows,
            terms)
        args = sc.argument_scores(g, products, terms)
        cross = sc.cross_task_scores(g, products, arc_rows, cross_arg,
                                     cross_arc, terms)

        def slots(k):
            return (frame_vec(sc, g, frames[k]), g_tgt, g_lu,
                    g.select_row(span_rows, k), role_vec(sc, g, roles[k]))

        for k in range(3):
            a = score_argument(sc, g, *slots(k))
            assert args.value[k] == pytest.approx(float(a.value), rel=1e-12)
        assert cross.shape == (len(cross_arg),)
        for k, (a, c) in enumerate(zip(cross_arg, cross_arc)):
            ref = score_cross_task(sc, g, *slots(a), g.select_row(arc_rows, c))
            assert cross.value[k] == pytest.approx(float(ref.value), rel=1e-12)

    @pytest.mark.parametrize("cross_arg, cross_arc", [
        ([2, 0, 2, 1, 2], [3, 3, 0, 3, 1]),   # repeated and unsorted
        ([0, 0, 2], [4, 1, 4]),               # argument 1 meets no arc
        ([1, 0, 2], [2, 2, 2]),               # one arc
        ([], []),                             # no cross parts
    ], ids=["repeated", "some-pairs", "one-arc", "none"])
    def test_cross_pairs_match_oracle(self, cross_arg, cross_arc):
        sc, store = small_scorers()
        g = Graph()
        rng = np.random.default_rng(13)
        g_tgt = g.input(rng.normal(size=4))
        g_lu = sc.lu_vec(g, "play.v")
        frames, roles = ["F1", "F0", "F1"], ["R1", "R1", "R0"]
        span_rows = g.input(rng.normal(size=(3, 4)))
        arc_rows = g.input(rng.normal(size=(5, 4)))
        terms = sc.target_terms(g, g_tgt, g_lu)
        products = sc.argument_products(
            g, sc.ids("frame", frames), sc.ids("role", roles), span_rows,
            terms)
        cross = sc.cross_task_scores(g, products, arc_rows, cross_arg,
                                     cross_arc, terms)
        assert cross.shape == (len(cross_arg),)
        grads = {}
        if cross_arg:
            g.backward(g.sum(cross))
            grads = {k: v.copy() for k, v in store.grads.items()}
            store.zero_grads()
        g_ref = Graph()
        refs = []
        for a, c in zip(cross_arg, cross_arc):
            refs.append(score_cross_task(
                sc, g_ref, frame_vec(sc, g_ref, frames[a]),
                g_ref.input(g_tgt.value), sc.lu_vec(g_ref, "play.v"),
                g_ref.input(span_rows.value[a]), role_vec(sc, g_ref, roles[a]),
                g_ref.input(arc_rows.value[c])))
        np.testing.assert_allclose(cross.value, [float(r.value) for r in refs],
                                   rtol=1e-12, atol=1e-15)
        if refs:
            g_ref.backward(reduce(g_ref.add, refs))
            for name, grad in grads.items():
                np.testing.assert_allclose(grad, store.grads[name],
                                           rtol=1e-12, atol=1e-15)

    def test_dependency_batches(self):
        sc, _ = small_scorers()
        g = Graph()
        hs = fake_states(g)
        tokens = [0, 2, 3]
        pairs = [(0, 1), (2, 0), (3, 1)]
        triples = [(0, 1, "a1"), (0, 1, "a2"), (2, 3, "a1")]
        heads = sc.head_scores(g, hs, tokens)
        reps = sc.arc_representations(g, hs, *zip(*pairs))
        uas = sc.unlabeled_scores(g, reps)
        lh, ld, labels = zip(*triples)
        labs = sc.labeled_scores(g, hs, lh, ld, sc.ids("label", labels))
        tops = sc.top_scores(g, hs, tokens)
        for k, t in enumerate(tokens):
            assert heads.value[k] == pytest.approx(
                float(score_head(sc, g, hs, t).value), rel=1e-12)
            assert tops.value[k] == pytest.approx(
                float(score_top(sc, g, hs, t).value), rel=1e-12)
        for k, (h, d) in enumerate(pairs):
            assert uas.value[k] == pytest.approx(
                float(score_unlabeled(sc, g, hs, h, d).value), rel=1e-12)
            np.testing.assert_allclose(
                reps.value[k], arc_representation(sc, g, hs, h, d).value,
                rtol=1e-12)
        for k, (h, d, label) in enumerate(triples):
            assert labs.value[k] == pytest.approx(
                float(score_labeled(sc, g, hs, h, d, label).value), rel=1e-12)


def test_gradients_through_all_scorers():
    sc, store = small_scorers(rank=2, label_dim=3, mlp_dim=3, bilstm_dim=4)
    g = Graph()
    rng = np.random.default_rng(12)
    hs = g.input(rng.normal(size=(3, 4)))
    g_tgt = g.input(rng.normal(size=3))
    g_lu = sc.lu_vec(g, "play.v")
    span_rows = g.input(rng.normal(size=(2, 3)))
    arc_rows = sc.arc_representations(g, hs, [0, 0], [1, 2])
    frames = sc.ids("frame", ["F0", "F1"])
    roles = sc.ids("role", ["R1", "R0"])
    terms = sc.target_terms(g, g_tgt, g_lu)
    products = sc.argument_products(g, frames, roles, span_rows, terms)
    loss = reduce(g.add, [
        g.sum(sc.predicate_scores(g, frames, terms)),
        g.sum(sc.argument_scores(g, products, terms)),
        g.sum(sc.cross_task_scores(g, products, arc_rows, [1, 0, 1], [0, 1, 1],
                                   terms)),
        g.sum(sc.head_scores(g, hs, [0, 1])),
        g.sum(sc.unlabeled_scores(g, arc_rows)),
        g.sum(sc.labeled_scores(g, hs, [0, 1], [1, 2],
                                sc.ids("label", ["a1", "a2"]))),
        g.sum(sc.top_scores(g, hs, [0, 2])),
    ])
    report = grad_check(g, loss, store, tolerance=1e-4, max_entries=8)
    assert report["pass"], report["per_param"]
