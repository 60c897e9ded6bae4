import math
from functools import reduce

import numpy as np
import pytest

from spandep.autodiff import Graph, ParameterStore, ShapeError, grad_check
from spandep.encoder import (
    UNK,
    Encoder,
    Vocabulary,
    build_vocabularies,
    discrete_features,
)
from spandep.model import ModelConfig
from spandep.parts import SpandepError, Target, make_sentence

from .oracles import lstm_by_cells, span_representation


def tiny_encoder(store=None, rng=None, pretrained_words=None, **kw):
    store = store if store is not None else ParameterStore()
    rng = rng if rng is not None else np.random.default_rng(0)
    words = Vocabulary(["the", "cat", "sat", "mat"])
    lemmas = Vocabulary(["the", "cat", "sit", "mat"])
    tags = Vocabulary(["DT", "NN", "VB"])
    counts = {"the": 4, "cat": 2, "sat": 1, "mat": 1}
    defaults = dict(word_dim=8, lemma_dim=4, pos_dim=4, bilstm_layers=1,
                    bilstm_dim=8, mlp_dim=6)
    defaults.update(kw)
    return Encoder(store, ModelConfig(**defaults), words, lemmas, tags,
                   counts, rng, pretrained_words=pretrained_words), store


SENT = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                     ["DT", "NN", "VB"])


class TestVocabulary:
    def test_unk_reserved_at_zero(self):
        v = Vocabulary(["a", "b", "a"])
        assert v.tokens == (UNK, "a", "b")
        assert v.index("a") == 1
        assert v.index("never-seen") == 0

    def test_build_from_sentences(self):
        words, lemmas, tags, counts = build_vocabularies([SENT, SENT])
        assert counts["the"] == 2 and counts["cat"] == 2
        assert "sit" in lemmas.tokens and "DT" in tags.tokens
        assert words.index(UNK) == 0


class TestWordDropout:
    def test_zero_count_always_replaced(self):
        enc, _ = tiny_encoder()
        enc.word_counts["cat"] = 0
        rng = np.random.default_rng(1)
        for _ in range(20):
            ids = enc.word_indices(SENT, rng=rng, training=True)
            assert ids[1] == 0  # alpha/(1+0) = 1: certain replacement

    def test_alpha_zero_never_replaces(self):
        enc, _ = tiny_encoder(word_dropout=0.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            ids = enc.word_indices(SENT, rng=rng, training=True)
            assert 0 not in ids

    def test_count_one_replaced_half_the_time(self):
        enc, _ = tiny_encoder()
        rng = np.random.default_rng(3)
        sent = make_sentence(["sat"])  # count 1 -> p = 1/2
        hits = sum(enc.word_indices(sent, rng=rng, training=True)[0] == 0
                   for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_inference_is_deterministic(self):
        enc, _ = tiny_encoder()
        a = enc.encode(Graph(), SENT, training=False)
        b = enc.encode(Graph(), SENT, training=False)
        assert a.value.shape == (3, 8)
        np.testing.assert_array_equal(a.value, b.value)

    def test_oov_maps_to_unk_without_error(self):
        enc, _ = tiny_encoder()
        ids = enc.word_indices(make_sentence(["zebra"]), training=False)
        assert ids == [0]


class TestEmbedding:
    def test_concatenated_width(self):
        enc, _ = tiny_encoder()
        emb = enc.embed(Graph(), SENT)
        assert emb.value.shape == (3, 16)

    def test_default_width_is_200(self):
        enc, _ = tiny_encoder(word_dim=100, lemma_dim=50, pos_dim=50,
                              bilstm_dim=8)
        emb = enc.embed(Graph(), SENT)
        assert emb.value.shape == (3, 200)

    def test_pretrained_rows_copied(self):
        vec = np.arange(8.0)
        enc, store = tiny_encoder(pretrained_words={"cat": vec})
        row = enc.words.index("cat")
        np.testing.assert_array_equal(store.values["enc.word"][row], vec)

    def test_pretrained_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="5-dimensional"):
            tiny_encoder(pretrained_words={"cat": np.zeros(5)})


class TestBiLSTM:
    def test_zero_weights_give_identical_states(self):
        enc, store = tiny_encoder()
        for name in list(store.values):
            if ".lstm" in name:
                store.values[name][:] = 0.0
        hs = enc.encode(Graph(), SENT).value
        assert hs.shape == (3, 8)
        for h in hs:
            np.testing.assert_array_equal(h, hs[0])
            np.testing.assert_array_equal(h, np.zeros(8))

    def test_single_token_sentence(self):
        enc, _ = tiny_encoder()
        hs = enc.encode(Graph(), make_sentence(["cat"], ["cat"], ["NN"])).value
        assert len(hs) == 1
        assert hs[0].shape == (8,)
        assert np.all(np.isfinite(hs[0]))

    def test_reversal_swaps_directions(self):
        enc, store = tiny_encoder()
        store.values["enc.lstm0.bw.w"][:] = store.values["enc.lstm0.fw.w"]
        store.values["enc.lstm0.bw.b"][:] = store.values["enc.lstm0.fw.b"]
        fwd = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                            ["DT", "NN", "VB"])
        rev = make_sentence(["sat", "cat", "the"], ["sit", "cat", "the"],
                            ["VB", "NN", "DT"])
        hs = enc.encode(Graph(), fwd).value
        hs_r = enc.encode(Graph(), rev).value
        half = 4
        for t in range(3):
            mirrored = hs_r[2 - t]
            np.testing.assert_allclose(hs[t][:half], mirrored[half:],
                                       atol=1e-12)
            np.testing.assert_allclose(hs[t][half:], mirrored[:half],
                                       atol=1e-12)

    def test_states_depend_on_whole_sentence(self):
        enc, _ = tiny_encoder(bilstm_layers=2)
        other = make_sentence(["the", "cat", "mat"], ["the", "cat", "mat"],
                              ["DT", "NN", "NN"])
        hs = enc.encode(Graph(), SENT).value
        hs_o = enc.encode(Graph(), other).value
        # only the last token differs, but h_0 still changes (backward pass)
        assert not np.allclose(hs[0], hs_o[0])

    def test_odd_width_rejected(self):
        with pytest.raises(SpandepError, match="even"):
            tiny_encoder(bilstm_dim=7)


class TestDiscreteFeatures:
    def test_formula_case(self):
        np.testing.assert_allclose(discrete_features((2, 4), 1), [2.0, 1.0, 2.0])

    def test_singleton_at_target(self):
        np.testing.assert_allclose(discrete_features((3, 3), 3), [1.0, 0.0, 0.0])

    def test_max_length_span(self):
        np.testing.assert_allclose(
            discrete_features((0, 19), 0),
            [math.log2(21), 0.0, math.log2(20)])

    def test_nonnegative_and_finite(self):
        for i in range(6):
            for j in range(i, 6):
                for t in range(6):
                    f = discrete_features((i, j), t)
                    assert np.all(f >= 0) and np.all(np.isfinite(f))

    def test_joint_shift_invariance(self):
        base = discrete_features((2, 4), 1)
        np.testing.assert_allclose(discrete_features((7, 9), 6), base)

    def test_span_shift_moves_distances_prelog(self):
        a = discrete_features((3, 4), 0)
        b = discrete_features((5, 6), 0)
        # undo the log: distances grow by exactly the 2-token shift
        assert 2 ** b[1] - 2 ** a[1] == pytest.approx(2)
        assert 2 ** b[2] - 2 ** a[2] == pytest.approx(2)


class TestRepresentations:
    def test_zero_weights_zero_output(self):
        enc, store = tiny_encoder()
        for name in ("w1", "b1", "w2", "b2"):
            store.values[f"enc.span.{name}"][:] = 0.0
        g = Graph()
        hs = enc.encode(g, SENT)
        rep = span_representation(enc, g, hs, (0, 2), 1)
        np.testing.assert_array_equal(rep.value, np.zeros(6))

    def test_single_token_span_uses_h_twice(self):
        enc, _ = tiny_encoder()
        g = Graph()
        hs = enc.encode(g, SENT)
        rep = span_representation(enc, g, hs, (1, 1), 0)
        assert rep.value.shape == (6,)
        assert np.all(np.isfinite(rep.value))
        x = rep  # walk back to the concat input
        while x.op != "concat":
            x = x.parents[0]
        np.testing.assert_array_equal(x.parents[0].value, x.parents[1].value)

    def test_deterministic(self):
        enc, _ = tiny_encoder()
        vals = []
        for _ in range(2):
            g = Graph()
            hs = enc.encode(g, SENT)
            vals.append(span_representation(enc, g, hs, (0, 1), 2).value)
        np.testing.assert_array_equal(vals[0], vals[1])

    def test_batch_matches_single(self):
        enc, _ = tiny_encoder()
        g = Graph()
        hs = enc.encode(g, SENT)
        spans = [(0, 0), (0, 2), (1, 2), (2, 2)]
        batch = enc.span_representations(g, hs, spans, 1)
        for k, span in enumerate(spans):
            single = span_representation(enc, g, hs, span, 1)
            np.testing.assert_allclose(batch.value[k], single.value,
                                       rtol=1e-12)

    def test_target_mlp_is_separate(self):
        enc, store = tiny_encoder()
        g = Graph()
        hs = enc.encode(g, SENT)
        before = enc.target_representation(g, hs, Target(1, 1, "sit.v")).value.copy()
        store.values["enc.span.w1"][:] = 0.0
        g2 = Graph()
        hs2 = enc.encode(g2, SENT)
        after = enc.target_representation(g2, hs2, Target(1, 1, "sit.v")).value
        np.testing.assert_array_equal(before, after)

    def test_target_length_feature_single_token(self):
        enc, store = tiny_encoder()
        # wire the MLP to pass the (single) feature entry through:
        # out[0] = tanh(tanh(length)) and length = log2(1+1) = 1
        store.values["enc.tgt.w1"][:] = 0.0
        store.values["enc.tgt.w1"][-1, 0] = 1.0
        store.values["enc.tgt.w2"][:] = 0.0
        store.values["enc.tgt.w2"][0, 0] = 1.0
        g = Graph()
        hs = enc.encode(g, SENT)
        rep = enc.target_representation(g, hs, Target(2, 2, "sit.v"))
        assert rep.value[0] == pytest.approx(math.tanh(math.tanh(1.0)))


def test_gradients_through_whole_encoder():
    enc, store = tiny_encoder(bilstm_layers=2)
    g = Graph()
    hs = enc.encode(g, SENT)
    assert [n.op for n in g.nodes].count("bilstm") == 2
    spans = [(0, 1), (1, 1), (0, 2)]
    loss = g.add(g.add(
        g.sum(enc.span_representations(g, hs, spans, 1)),
        g.sum(span_representation(enc, g, hs, (2, 2), 1))),
        g.sum(enc.target_representation(g, hs, Target(1, 1, "sit.v"))))
    report = grad_check(g, loss, store, tolerance=1e-4, max_entries=10)
    assert report["pass"], report["per_param"]


def test_encode_matches_per_step_cells():
    """The two ``bilstm`` layers against the same stack built from
    ``lstm_cell`` steps, in states and in every parameter gradient."""
    enc, store = tiny_encoder(bilstm_layers=2)
    sent = make_sentence(["the", "cat", "sat", "the", "mat"],
                         ["the", "cat", "sit", "the", "mat"],
                         ["DT", "NN", "VB", "DT", "NN"])
    weights = np.random.default_rng(4).normal(size=(5, 8))

    g = Graph()
    states = enc.encode(g, sent)
    g.backward(g.sum(g.mul(states, g.input(weights))))
    fused = {k: v.copy() for k, v in store.grads.items()}
    store.zero_grads()

    g = Graph()
    emb = enc.embed(g, sent)
    rows = [g.rows(emb, t) for t in range(5)]
    for layer in range(2):
        fw, bw = (lstm_by_cells(g, rows,
                                g.param(store, f"enc.lstm{layer}.{d}.w"),
                                g.param(store, f"enc.lstm{layer}.{d}.b"),
                                reverse=d == "bw")
                  for d in ("fw", "bw"))
        rows = [g.concat(f, b) for f, b in zip(fw, bw)]
    np.testing.assert_allclose(states.value, [r.value for r in rows],
                               rtol=0, atol=1e-12)
    g.backward(reduce(g.add, [g.inner(r, g.input(weights[t]))
                              for t, r in enumerate(rows)]))
    for name, grad in fused.items():
        if ".lstm" in name:
            assert np.any(grad), name
        np.testing.assert_allclose(grad, store.grads[name],
                                   rtol=0, atol=1e-12, err_msg=name)
