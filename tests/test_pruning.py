from dataclasses import replace

import numpy as np
import pytest

import spandep.autodiff
from spandep.autodiff import Graph, collect_grads
from spandep.formats import FormatError, load_model
from spandep.model import ModelConfig
from spandep.parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    SpandepError,
    Target,
    enumerate_arcs,
    enumerate_spans,
    make_sentence,
)
from spandep.pruning import (
    PruneConfig,
    PrunerModel,
    load_pruner,
    pretrain_arc_pruner,
    pretrain_span_pruner,
    prune_arcs,
    prune_spans,
    retain_arcs,
    retain_spans,
    save_pruner,
    span_nll,
    span_threshold,
)

from .oracles import concat_affine, marginals_by_enumeration

ONT = Ontology({"sit.v": ("Rest",)}, {"Rest": ("Agent", "Place")})

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)


def fn_sentence(forms, target, args, id="s"):
    parse = FrameParse(Target(*target, "sit.v"), "Rest",
                       frozenset(tuple(a) for a in args))
    return make_sentence(forms, id=id,
                         supervision=FrameAnnotations((parse,)))


def dm_sentence(forms, arcs, top=None, id="s"):
    g = DependencyGraph(frozenset(tuple(a) for a in arcs), top=top)
    return make_sentence(forms, id=id, supervision=g)


class TestGatingRules:
    def test_threshold_formula(self):
        assert span_threshold(2) == 0.25
        assert span_threshold(10) == 0.01

    def test_boundary_posterior_retained(self):
        spans = [(0, 0), (0, 1)]
        post = np.array([0.25, 0.25 - 1e-12])
        assert retain_spans(spans, post, 2, 20) == [(0, 0)]

    def test_length_cap_beats_posterior(self):
        spans = [(0, 20), (0, 19)]
        post = np.array([1.0, 1.0])
        kept = retain_spans(spans, post, 40, 20)
        assert kept == [(0, 19)]
        assert retain_spans([(0, 2)], np.array([1.0]), 4, 2) == []

    def test_retained_subset_of_candidates(self):
        rng = np.random.default_rng(3)
        spans = [(i, j) for i in range(6) for j in range(i, 6)]
        post = rng.uniform(size=len(spans))
        kept = retain_spans(spans, post, 6, 3)
        assert set(kept) <= set(spans)

    def test_arc_top_k_keeps_argmax(self):
        pairs = [(h, d) for h in range(4) for d in range(4) if h != d]
        rng = np.random.default_rng(0)
        post = rng.uniform(size=len(pairs))
        kept = retain_arcs(pairs, post, PruneConfig(arc_top_k=1))
        assert len(kept) == 4
        by_dep = {}
        for (h, d), p in zip(pairs, post):
            if p > by_dep.get(d, (None, -1))[1]:
                by_dep[d] = (h, p)
        assert set(kept) == {(h, d) for d, (h, _) in by_dep.items()}

    def test_arc_k_large_floor_zero_keeps_all(self):
        pairs = [(h, d) for h in range(5) for d in range(5) if h != d]
        post = np.random.default_rng(1).uniform(size=len(pairs))
        kept = retain_arcs(pairs, post, PruneConfig(arc_top_k=4))
        assert sorted(kept) == sorted(pairs)

    def test_arc_tie_breaks_to_lower_head(self):
        pairs = [(2, 0), (1, 0)]
        post = np.array([0.7, 0.7])
        cfg = PruneConfig(arc_top_k=1)
        assert retain_arcs(pairs, post, cfg) == [(1, 0)]

    def test_config_validation(self):
        with pytest.raises(SpandepError):
            PruneConfig(arc_top_k=0)
        # the span cap is the pruner's ModelConfig.max_span_len
        with pytest.raises(TypeError):
            PruneConfig(max_span_len=3)


@pytest.fixture(scope="module")
def toy_fn_corpus():
    return [
        fn_sentence(["the", "cat", "sat", "down"], (2, 2),
                    [(0, 1, "Agent")], id="a"),
        fn_sentence(["dogs", "sat", "there"], (1, 1),
                    [(0, 0, "Agent"), (2, 2, "Place")], id="b"),
    ]


@pytest.fixture(scope="module")
def toy_dm_corpus():
    return [
        dm_sentence(["a", "b", "c"], [(1, 0, "x"), (1, 2, "y")], top=1,
                    id="a"),
        dm_sentence(["d", "e"], [(0, 1, "x")], top=0, id="b"),
    ]


class TestSpanPruner:
    def test_zero_epochs_is_initialization(self, toy_fn_corpus):
        a = pretrain_span_pruner(toy_fn_corpus, epochs=0, seed=5,
                                 model_config=TINY)
        b = PrunerModel.build(toy_fn_corpus, np.random.default_rng(5),
                              config=TINY)
        for name, v in a.store.values.items():
            np.testing.assert_array_equal(v, b.store.values[name])

    def test_nll_nonnegative(self, toy_fn_corpus):
        pruner = PrunerModel.build(toy_fn_corpus, np.random.default_rng(2),
                                   config=TINY)
        for s in toy_fn_corpus:
            parse = s.supervision.parses[0]
            g = Graph()
            loss = span_nll(g, pruner, s, parse)
            assert float(loss.value) >= 0.0

    def test_overfit_posterior_rises_monotonically(self):
        # sampled every 60 epochs; the first steps of a fresh model can dip
        # slightly while the shared encoder unties the span scores
        sent = fn_sentence(["the", "cat", "sat"], (2, 2), [(0, 1, "Agent")])
        history = []
        for epochs in range(0, 360, 60):
            pruner = pretrain_span_pruner([sent], epochs=epochs, lr=0.3,
                                          seed=0, model_config=TINY)
            spans, post = pruner.span_posteriors(sent, Target(2, 2, "sit.v"))
            history.append(post[spans.index((0, 1))])
        assert np.all(np.diff(history) > 0)
        assert history[-1] > 0.9

    def test_overfit_preserves_gold(self):
        sent = fn_sentence(["the", "cat", "sat"], (2, 2), [(0, 1, "Agent")])
        pruner = pretrain_span_pruner([sent], epochs=30, lr=0.3, seed=0,
                                      model_config=TINY)
        res = prune_spans(sent, Target(2, 2, "sit.v"), pruner)
        assert (0, 1) in res.retained
        assert res.report.recall == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(SpandepError, match="empty corpus"):
            pretrain_span_pruner([], model_config=TINY)
        bare = make_sentence(["a"], supervision=FrameAnnotations(()))
        with pytest.raises(SpandepError, match="empty corpus"):
            pretrain_span_pruner([bare], model_config=TINY)

    def test_wrong_supervision_rejected(self, toy_dm_corpus):
        with pytest.raises(SpandepError,
                           match="sentence 'a' carries no frame annotations"):
            pretrain_span_pruner(toy_dm_corpus, model_config=TINY)

    def test_prune_spans_report(self, toy_fn_corpus):
        pruner = PrunerModel.build(toy_fn_corpus, np.random.default_rng(0),
                                   config=TINY)
        sent = toy_fn_corpus[1]
        res = prune_spans(sent, Target(1, 1, "sit.v"), pruner)
        assert set(res.retained) <= set(enumerate_spans(len(sent), 20))
        assert res.report.gold_total == 2
        assert 0.0 <= res.report.recall <= 1.0
        assert res.report.n_tokens == 3

    def test_no_gold_no_report(self, toy_fn_corpus):
        pruner = PrunerModel.build(toy_fn_corpus, np.random.default_rng(0),
                                   config=TINY)
        plain = make_sentence(["the", "cat", "sat"])
        res = prune_spans(plain, Target(2, 2, "sit.v"), pruner)
        assert res.report is None

    def test_length_21_span_never_retained(self):
        forms = [f"w{i}" for i in range(23)]
        sent = fn_sentence(forms, (0, 0), [(1, 21, "Agent")])
        pruner = PrunerModel.build([sent], np.random.default_rng(0),
                                   config=TINY)
        res = prune_spans(sent, Target(0, 0, "sit.v"), pruner)
        assert all(j - i + 1 <= 20 for i, j in res.retained)
        assert res.report.gold_retained == 0

    def test_cap_comes_from_model_config(self):
        sent = fn_sentence(["a", "b", "c", "d", "e"], (4, 4),
                           [(0, 2, "Agent")])
        target = Target(4, 4, "sit.v")
        pruner = PrunerModel.build([sent], np.random.default_rng(0),
                                   config=replace(TINY, max_span_len=2))
        spans, post = pruner.span_posteriors(sent, target)
        assert spans == enumerate_spans(5, 2)
        assert len(post) == len(spans)
        loss = span_nll(Graph(), pruner, sent, sent.supervision.parses[0])
        assert np.isfinite(loss.value) and float(loss.value) >= 0.0
        res = prune_spans(sent, target, pruner)
        assert all(j - i + 1 <= 2 for i, j in res.retained)
        assert res.report.candidate_total == len(spans)
        assert res.report.gold_retained == 0

    @pytest.mark.parametrize("n, cap, args", [
        (1, 20, []),
        (3, 20, [(0, 1, "Agent")]),
        (5, 2, [(0, 1, "Agent"), (3, 3, "Place")]),
        (7, 3, [(0, 2, "Agent"), (4, 5, "Place")]),
        (7, 20, [(1, 5, "Agent")]),
    ], ids=["n1", "n3", "n5-cap2", "n7-cap3", "n7"])
    def test_dp_on_model_scores_matches_enumeration(self, n, cap, args):
        """Posteriors and NLL from the pruner's own span scores, against
        enumerating every segmentation of the spans it enumerates."""
        sent = fn_sentence([f"w{i}" for i in range(n)], (n - 1, n - 1), args)
        target = Target(n - 1, n - 1, "sit.v")
        pruner = PrunerModel.build([sent], np.random.default_rng(n),
                                   config=replace(TINY, max_span_len=cap))
        pruner.store.values["pr.span.w"] *= 20.0  # spread the scores
        spans, post = pruner.span_posteriors(sent, target)
        scores = pruner.span_scores(Graph(), sent, target, spans).value
        assert spans == enumerate_spans(n, cap)
        logz, want = marginals_by_enumeration(spans, scores, n)
        np.testing.assert_allclose(post, want, rtol=0, atol=1e-9)
        loss = span_nll(Graph(), pruner, sent, sent.supervision.parses[0])
        gold = sum(scores[spans.index((i, j))] for i, j, _ in args)
        assert float(loss.value) == pytest.approx(logz - gold, abs=1e-9)


class TestArcPruner:
    def test_overfit_separates_gold_arcs(self, toy_dm_corpus):
        pruner = pretrain_arc_pruner(toy_dm_corpus, epochs=60, lr=0.3,
                                     seed=1, model_config=TINY)
        sent = toy_dm_corpus[0]
        pairs, post = pruner.arc_posteriors(sent)
        gold = {(h, d) for h, d, _ in sent.supervision.arcs}
        gold_min = min(p for pr, p in zip(pairs, post) if pr in gold)
        rest_max = max(p for pr, p in zip(pairs, post) if pr not in gold)
        assert gold_min > rest_max

    def test_prune_arcs_recall_after_overfit(self, toy_dm_corpus):
        pruner = pretrain_arc_pruner(toy_dm_corpus, epochs=60, lr=0.3,
                                     seed=1, model_config=TINY)
        res = prune_arcs(toy_dm_corpus[0], pruner,
                         PruneConfig(arc_top_k=1))
        assert res.report.recall == 1.0
        assert res.report.density == pytest.approx(len(res.retained) / 3)

    def test_k_covers_everything(self, toy_dm_corpus):
        pruner = PrunerModel.build(toy_dm_corpus, np.random.default_rng(4),
                                   config=TINY)
        sent = toy_dm_corpus[0]
        res = prune_arcs(sent, pruner, PruneConfig(arc_top_k=2))
        assert sorted(res.retained) == enumerate_arcs(3)
        assert res.report.recall == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(SpandepError, match="empty corpus"):
            pretrain_arc_pruner([], model_config=TINY)

    def test_single_token_has_no_arcs(self, toy_dm_corpus):
        pruner = PrunerModel.build(toy_dm_corpus, np.random.default_rng(4),
                                   config=TINY)
        res = prune_arcs(dm_sentence(["a"], [], top=0), pruner)
        assert res.retained == ()
        assert res.report.candidate_total == 0

    def test_factorized_heads_match_concatenation(self, monkeypatch):
        forms = [f"w{i}" for i in range(12)]
        sent = dm_sentence(forms, [(0, 1, "a")])
        pruner = PrunerModel.build([sent], np.random.default_rng(6),
                                   config=TINY)
        pairs = enumerate_arcs(12)
        spans = enumerate_spans(12, 4)
        target = Target(3, 3, "sit.v")

        def run():
            g = Graph()
            arcs = pruner.arc_logits(g, sent, pairs)
            span = pruner.span_scores(g, sent, target, spans)
            pruner.store.zero_grads()
            g.backward(g.add(g.sum(g.tanh(arcs)), g.sum(g.tanh(span))))
            grads = collect_grads(pruner.store)
            pruner.store.zero_grads()
            return arcs.value, span.value, grads

        got = run()
        monkeypatch.setattr(spandep.autodiff, "gathered_affine",
                            concat_affine)
        want = run()
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-15)
        for name, w in want[2].items():
            np.testing.assert_allclose(
                got[2][name], w, rtol=1e-12,
                atol=1e-12 * max(np.abs(w).max(initial=0.0), 1e-300),
                err_msg=name)

    def test_wrong_supervision_rejected(self, toy_fn_corpus):
        with pytest.raises(SpandepError, match="no dependency graph"):
            pretrain_arc_pruner(toy_fn_corpus, model_config=TINY)


class TestPrunerCheckpoints:
    def test_round_trip(self, toy_fn_corpus, tmp_path):
        pruner = pretrain_span_pruner(toy_fn_corpus, epochs=1, seed=3,
                                      model_config=TINY, ontology=ONT)
        p = tmp_path / "pruner.ckpt"
        save_pruner(pruner, p)
        back = load_pruner(p)
        for name, v in pruner.store.values.items():
            np.testing.assert_array_equal(back.store.values[name], v)
        sent = toy_fn_corpus[0]
        a = pruner.span_posteriors(sent, Target(2, 2, "sit.v"))
        b = back.span_posteriors(sent, Target(2, 2, "sit.v"))
        np.testing.assert_array_equal(a[1], b[1])

    def test_model_checkpoint_rejected(self, toy_fn_corpus, tmp_path):
        from spandep.model import ParserModel
        model = ParserModel.build(TINY, ONT, ("x",), toy_fn_corpus,
                                  np.random.default_rng(0))
        p = tmp_path / "m.ckpt"
        from spandep.formats import save_model
        save_model(model, p)
        with pytest.raises(FormatError, match="expected 'pruner'"):
            load_pruner(p)

    def test_pruner_rejected_as_model(self, toy_fn_corpus, tmp_path):
        pruner = PrunerModel.build(toy_fn_corpus, np.random.default_rng(0),
                                   config=TINY, ontology=ONT)
        p = tmp_path / "p.ckpt"
        save_pruner(pruner, p)
        with pytest.raises(FormatError, match="kind 'pruner'"):
            load_model(p)

    def test_param_names_disjoint_from_main_model(self, toy_fn_corpus):
        from spandep.model import ParserModel
        pruner = PrunerModel.build(toy_fn_corpus, np.random.default_rng(0),
                                   config=TINY, ontology=ONT)
        model = ParserModel.build(TINY, ONT, ("x",), toy_fn_corpus,
                                  np.random.default_rng(0))
        assert not set(pruner.store.values) & set(model.store.values)
