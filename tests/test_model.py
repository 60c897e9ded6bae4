from dataclasses import asdict

import numpy as np
import pytest

import spandep.autodiff
from spandep.autodiff import Graph, collect_grads, grad_check
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    VIRTUAL_ROOT,
    Argument,
    CrossTask,
    Head,
    LabeledArc,
    Ontology,
    Predicate,
    SpaceLimits,
    SpandepError,
    Target,
    UnlabeledArc,
    build_candidate_space,
    make_sentence,
)

from .oracles import (
    arc_representation,
    backward_with_copies,
    concat_affine,
    frame_vec,
    role_vec,
    score_argument,
    score_cross_task,
    score_head,
    score_labeled,
    score_predicate,
    score_top,
    score_unlabeled,
    span_representation,
)

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=3, bilstm_layers=1, bilstm_dim=4)

ONT = Ontology({"sit.v": ("Rest", "Meet")},
               {"Rest": ("Agent",), "Meet": ("Agent", "Place")})

SENT = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                     ["DT", "NN", "VB"])


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return ParserModel.build(TINY, ONT, ("a1", "a2"), [SENT], rng)


def joint_space(**kw):
    limits = SpaceLimits(max_span_len=2, dep_labels=("a1", "a2"), **kw)
    return build_candidate_space(SENT, Target(2, 2, "sit.v"), ONT, limits)


class TestScoreSpace:
    def test_alignment_and_coverage(self):
        model = tiny_model()
        space = joint_space()
        res = model.score_space(Graph(), space)
        assert res.node.value.shape == (len(space.parts),)
        assert np.all(np.isfinite(res.node.value))
        assert res.cross is not None
        np.testing.assert_allclose(
            res.node.value[list(space.cross_ids)], res.cross.value)

    def test_zero_parameters_zero_scores(self):
        model = tiny_model()
        for v in model.store.values.values():
            v[:] = 0.0
        res = model.score_space(Graph(), joint_space())
        np.testing.assert_array_equal(res.node.value,
                                      np.zeros(len(res.node.value)))

    def test_deterministic(self):
        model = tiny_model()
        space = joint_space()
        a = model.scored_space(space)
        b = model.scored_space(space)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_frames_only_space(self):
        model = tiny_model()
        space = joint_space(include_dependencies=False)
        res = model.score_space(Graph(), space)
        assert res.cross is None
        assert res.node.value.shape == (len(space.parts),)
        assert not space.arc_ids and not space.head_ids

    def test_dependencies_only_space(self):
        model = tiny_model()
        limits = SpaceLimits(dep_labels=("a1", "a2"))
        space = build_candidate_space(SENT, None, ONT, limits)
        res = model.score_space(Graph(), space)
        assert res.cross is None
        assert res.node.value.shape == (len(space.parts),)

    def test_cross_scoring_has_no_per_pair_products(self):
        # on the frame space, cross parts outnumber the arguments, the arcs
        # and the labeled parts, and on the dependency space labeled parts
        # outnumber the arcs and the tokens.  No node may hold a row per
        # cross part except the cross score vector itself, and the
        # labeled-arc first layer is one gather_sum over per-token and
        # per-label projections, with no other gather or add holding a row
        # per labeled part
        words = ["sat", "the", "cat", "on", "a", "mat"]
        sent = make_sentence(words, words, ["VB"] + ["NN"] * 5)
        model = ParserModel.build(TINY, ONT, ("a1", "a2"), [sent],
                                  np.random.default_rng(0))
        limits = SpaceLimits(max_span_len=4, dep_labels=("a1", "a2"))
        space = build_candidate_space(sent, Target(0, 0, "sit.v"), ONT,
                                      limits)
        n_cross = len(space.cross_ids)
        assert n_cross > max(len(space.argument_ids), len(space.arc_ids),
                             len(space.labeled_ids))
        g = Graph()
        scores = model.score_space(g, space)
        per_pair = [node for node in g.nodes
                    if node.value.shape[:1] == (n_cross,)]
        assert per_pair == [scores.cross]
        assert scores.cross.op == "pair_dots"

        space = build_candidate_space(sent, None, ONT, limits)
        n_lab = len(space.labeled_ids)
        assert n_lab > max(len(space.arc_ids), len(words))
        g = Graph()
        model.score_space(g, space)
        first = [node for node in g.nodes
                 if node.op in ("add", "gather_sum")
                 and node.value.shape[:1] == (n_lab,)]
        assert [node.op for node in first] == ["gather_sum"]
        assert all(p.value.shape[0] < n_lab for p in first[0].parents)
        assert g.nodes[g.nodes.index(first[0]) + 1].op == "tanh"

    def test_word_dropout_only_under_training(self):
        model = tiny_model()
        model.encoder.word_counts.clear()  # every word count 0: p = 1
        space = joint_space()
        plain = model.score_space(Graph(), space).node.value
        rng = np.random.default_rng(1)
        dropped = model.score_space(Graph(), space, rng=rng,
                                    training=True).node.value
        again = model.score_space(Graph(), space).node.value
        np.testing.assert_array_equal(plain, again)
        assert not np.allclose(plain, dropped)


class TestPerPartCrossCheck:
    def test_batch_scores_match_individual_scorers(self):
        # a frame space, and a dependency space for the other tokens' heads
        # and arcs and the root arcs
        model = tiny_model()
        for space in (joint_space(), build_candidate_space(
                SENT, None, ONT, SpaceLimits(dep_labels=("a1", "a2")))):
            self.check_scores(model, space)

    @staticmethod
    def check_scores(model, space):
        got = model.score_space(Graph(), space).node.value

        g = Graph()
        enc, sc = model.encoder, model.scorers
        hs = enc.encode(g, space.sentence)
        tgt = space.target
        if tgt is not None:
            g_tgt = enc.target_representation(g, hs, tgt)
            g_lu = sc.lu_vec(g, tgt.lu)

        def single(part):
            if isinstance(part, Predicate):
                return score_predicate(sc, g, frame_vec(sc, g, part.frame),
                                       g_tgt, g_lu)
            if isinstance(part, Argument):
                rep = span_representation(enc, g, hs, (part.start, part.end),
                                          tgt.start)
                return score_argument(sc, g, frame_vec(sc, g, part.frame),
                                      g_tgt, g_lu, rep,
                                      role_vec(sc, g, part.role))
            if isinstance(part, Head):
                return score_head(sc, g, hs, part.token)
            if isinstance(part, UnlabeledArc):
                if part.head == VIRTUAL_ROOT:
                    return score_top(sc, g, hs, part.dep)
                return score_unlabeled(sc, g, hs, part.head, part.dep)
            if isinstance(part, LabeledArc):
                return score_labeled(sc, g, hs, part.head, part.dep, part.label)
            assert isinstance(part, CrossTask)
            arg = space.parts[part.arg_id]
            arc = space.parts[part.arc_id]
            rep = span_representation(enc, g, hs, (arg.start, arg.end),
                                      tgt.start)
            arc_rep = arc_representation(sc, g, hs, arc.head, arc.dep)
            return score_cross_task(sc, g, frame_vec(sc, g, arg.frame), g_tgt,
                                    g_lu, rep, role_vec(sc, g, arg.role),
                                    arc_rep)

        for i, part in enumerate(space.parts):
            want = float(single(part).value)
            assert got[i] == pytest.approx(want, rel=1e-10, abs=1e-12), part

    def test_active_set_total_is_sum_of_part_scores(self):
        model = tiny_model()
        space = model.scored_space(joint_space())
        ids = [space.predicate_ids[0], space.argument_ids[1],
               space.head_ids[0], space.arc_ids[1]]
        chosen = [space.parts[i] for i in ids]
        total = float(space.scores[ids].sum())
        assert total == pytest.approx(
            sum(space.scores[space.parts.index(p)] for p in chosen), rel=1e-12)


def test_gradients_through_space_scoring():
    model = tiny_model()
    space = joint_space()
    g = Graph()
    res = model.score_space(g, space)
    loss = g.sum(res.node)
    report = grad_check(g, loss, model.store, tolerance=1e-4, max_entries=4)
    assert report["pass"], report["per_param"]


def test_pruner_sized_preset():
    cfg = ModelConfig.pruner_sized()
    assert (cfg.word_dim, cfg.lemma_dim, cfg.pos_dim) == (32, 16, 16)
    assert (cfg.mlp_dim, cfg.rank) == (32, 32)
    assert (cfg.bilstm_layers, cfg.bilstm_dim) == (1, 64)


def test_config_round_trip():
    cfg = ModelConfig(rank=7)
    assert ModelConfig(**asdict(cfg)) == cfg


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.word_dropout == 1.0
        assert cfg.max_span_len == 20
        assert cfg.joint and cfg.include_cross_task

    def test_space_fields_round_trip(self):
        cfg = ModelConfig(max_span_len=3, joint=False,
                          include_cross_task=False, word_dropout=0.5)
        assert ModelConfig(**asdict(cfg)) == cfg

    @pytest.mark.parametrize("kwargs", [
        {"word_dropout": -1.0},
        {"max_span_len": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(SpandepError):
            ModelConfig(**kwargs)

    def test_limits_follow_flags(self):
        joint = ModelConfig()
        assert joint.fn_limits(("a",)).include_dependencies
        assert joint.fn_limits(("a",)).include_cross_task
        assert joint.fn_limits(("a",)).dep_labels == ("a",)
        basic = ModelConfig(joint=False)
        lim = basic.fn_limits(("a",))
        assert not lim.include_dependencies
        assert not lim.include_cross_task
        assert lim.dep_labels == ()
        no_cross = ModelConfig(include_cross_task=False)
        assert no_cross.fn_limits(("a",)).include_dependencies
        assert not no_cross.fn_limits(("a",)).include_cross_task
        dm = joint.dm_limits(("a", "b"))
        assert dm.include_dependencies and not dm.include_cross_task


def test_shared_frame_terms_are_built_once():
    # the target/lexical-unit slot product and each transposed rank factor
    # appear once in the graph, however many frame-side part types use them
    model = tiny_model()
    g = Graph()
    model.score_space(g, joint_space())
    sc = model.scorers
    params = {id(g.param(sc.store, f"sc.{name}")): name
              for name in ("w1", "w2", "w3", "u1", "u2", "v2")}
    transposed = sorted(params[id(n.parents[0])] for n in g.nodes
                        if n.op == "transpose" and id(n.parents[0]) in params)
    assert transposed == ["u1", "u2", "v2", "w1"]
    slot_uses = [n for n in g.nodes if n.op == "matvec"
                 and params.get(id(n.parents[0])) in ("w2", "w3")]
    assert len(slot_uses) == 2


WORDS = [f"w{i}" for i in range(12)]


def sized_space(n, labels=("a1", "a2"), frame=True, **kw):
    """A joint space over the first n words, target on the last token, or
    without ``frame`` the dependency space over them."""
    sent = make_sentence(WORDS[:n], ["sit"] * n)
    limits = SpaceLimits(max_span_len=3, dep_labels=labels, **kw)
    target = Target(n - 1, n - 1, "sit.v") if frame else None
    return build_candidate_space(sent, target, ONT, limits)


def scores_and_grads(model, space):
    """Scores and the parameter gradients of a fixed random linear loss."""
    g = Graph()
    res = model.score_space(g, space)
    w = np.random.default_rng(len(space.parts)).normal(size=len(space.parts))
    model.store.zero_grads()
    g.backward(g.inner(res.node, g.input(w)))
    grads = collect_grads(model.store)
    model.store.zero_grads()
    return g, res.node.value.copy(), grads


@pytest.mark.parametrize("n,labels,arcs", [
    (1, ("a1", "a2"), None),
    (2, ("a1", "a2"), None),
    (12, ("a1", "a2"), None),
    (5, ("a1",), None),
    (6, ("a1", "a2"), frozenset({(5, 0), (5, 2), (0, 1), (3, 4), (2, 5)})),
])
def test_factorized_first_layers_match_concatenation(n, labels, arcs,
                                                     monkeypatch):
    model = ParserModel.build(TINY, ONT, labels, [make_sentence(WORDS)],
                              np.random.default_rng(3))
    spaces = [sized_space(n, labels, frame=frame, allowed_arcs=arcs)
              for frame in (True, False)]
    got = []
    for space in spaces:
        g, scores, grads = scores_and_grads(model, space)
        got.append((scores, grads))
        # the first layers never materialise a row per part
        assert all(node.value.shape[0] == n for node in g.nodes
                   if node.op == "concat" and node.value.ndim == 2)
    monkeypatch.setattr(spandep.autodiff, "gathered_affine", concat_affine)
    for space, (got_scores, got_grads) in zip(spaces, got):
        _, want, want_grads = scores_and_grads(model, space)
        np.testing.assert_allclose(got_scores, want, rtol=1e-12, atol=1e-15)
        for name, w in want_grads.items():
            np.testing.assert_allclose(
                got_grads[name], w, rtol=1e-12,
                atol=1e-12 * max(np.abs(w).max(initial=0.0), 1e-300),
                err_msg=name)


def test_backward_into_the_store_matches_per_graph_copies():
    model = tiny_model()
    space = joint_space()
    g = Graph()
    res = model.score_space(g, space)
    loss = g.add(g.sum(g.tanh(res.node)), g.sum(g.abs(res.cross)))
    model.store.zero_grads()
    backward_with_copies(g, loss)
    want = collect_grads(model.store)
    model.store.zero_grads()
    g.backward(loss)
    for name, w in want.items():
        assert np.array_equal(model.store.grads[name], w), name
