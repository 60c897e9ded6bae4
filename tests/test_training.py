import re
from dataclasses import replace

import numpy as np
import pytest

from spandep.autodiff import (
    Graph,
    ParameterStore,
    clip_and_step,
    collect_grads,
    grad_check,
)
from spandep.inference.decode import cost_augment, decode
from spandep.inference.exhaustive import brute_force_map, exhaustive_joint_map
from spandep.inference.factor_graph import build_factor_graph
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    SpaceLimits,
    SpandepError,
    Target,
    build_candidate_space,
    frame_parts,
    make_sentence,
)
from spandep.synthetic import synthetic_corpus
from spandep.training import (
    TrainConfig,
    dm_instances,
    ensemble_scores,
    fn_instances,
    l1_penalty,
    latent_hinge_loss,
    predict_dependencies,
    predict_frames,
    sdp_hinge_loss,
    train,
)

from .oracles import dense_train_epoch, full_frame_space

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)

XOR_ONT = Ontology({"lu.v": ("F0", "F1")}, {"F0": ("R0",), "F1": ("R1",)})
XOR_PARSE = FrameParse(Target(0, 0, "lu.v"), "F0", frozenset())


def xor_fixture():
    """One token, one lexical unit licensing two frames with one role each.

    With all parameters zero the cost-augmented optimum takes the wrong
    predicate plus its argument over the whole sentence (two false
    positives) and misses the gold predicate (one false negative)."""
    sent = make_sentence(["play"], id="xor",
                         supervision=FrameAnnotations((XOR_PARSE,)))
    model = ParserModel.build(TINY, XOR_ONT, (), [sent],
                              np.random.default_rng(0))
    limits = SpaceLimits(max_span_len=20, include_dependencies=False,
                         include_cross_task=False, dep_labels=())
    space = build_candidate_space(sent, Target(0, 0, "lu.v"), XOR_ONT, limits)
    return model, space


def dep_fixture(n=2, labels=("a",), arcs=((0, 1, "a"),), top=0, seed=1):
    gold = DependencyGraph(frozenset(arcs), top=top)
    sent = make_sentence([f"w{t}" for t in range(n)], id="dep",
                         supervision=gold)
    model = ParserModel.build(TINY, Ontology({}, {}), labels, [sent],
                              np.random.default_rng(seed))
    limits = SpaceLimits(max_span_len=20, include_dependencies=True,
                         include_cross_task=False, dep_labels=labels)
    space = build_candidate_space(sent, None, Ontology({}, {}), limits)
    return model, space, gold


def zero_params(model):
    for v in model.store.values.values():
        v[...] = 0.0


def small_corpus(seed=7, n_fn=6, n_dm=6, n_fn_dev=3, n_dm_dev=3):
    return synthetic_corpus(np.random.default_rng(seed), n_fn=n_fn, n_dm=n_dm,
                            n_fn_dev=n_fn_dev, n_dm_dev=n_dm_dev)


def build_model(corpus, seed=0, config=TINY):
    sents = list(corpus["fn_train"]) + list(corpus["dm_train"])
    return ParserModel.build(config, corpus["ontology"],
                             corpus["dep_labels"], sents,
                             np.random.default_rng(seed))


class TestTrainConfig:
    def test_learning_rate_schedule(self):
        cfg = TrainConfig()
        assert cfg.lr_at(0) == 0.33
        assert cfg.lr_at(9) == 0.33
        assert cfg.lr_at(10) == 0.33 * 0.5
        assert cfg.lr_at(19) == 0.33 * 0.5
        assert cfg.lr_at(20) == 0.33 * 0.25
        assert cfg.lr_at(29) == 0.33 * 0.25

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 30
        assert cfg.clip == 1.0
        assert cfg.l2 == 1e-6
        assert cfg.l1_weight == 0.01
        assert cfg.exemplar_fraction == 0.35

    @pytest.mark.parametrize("kwargs", [
        {"lr0": 0.0},
        {"anneal_factor": -1.0},
        {"clip": 0.0},
        {"anneal_every": 0},
        {"exemplar_fraction": 1.5},
        {"l1_weight": -0.01},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(SpandepError):
            TrainConfig(**kwargs)


class TestInstances:
    def test_fn_instances_expand_parses(self):
        c = small_corpus()
        lim = TINY.fn_limits(c["dep_labels"])
        insts = fn_instances(c["fn_train"], c["ontology"], lim)
        assert len(insts) >= len(c["fn_train"])
        assert all("#" in i.id for i in insts)

    def test_fn_instances_reject_dep_supervision(self):
        c = small_corpus()
        lim = TINY.fn_limits(c["dep_labels"])
        with pytest.raises(SpandepError, match="no frame annotations"):
            fn_instances(c["dm_train"], c["ontology"], lim)

    def test_dm_instances_reject_frame_supervision(self):
        c = small_corpus()
        with pytest.raises(SpandepError, match="no dependency graph"):
            dm_instances(c["fn_train"], TINY.dm_limits(c["dep_labels"]))


class TestLatentHinge:
    def test_zero_model_two_frame_value(self):
        # Augmented argmax: wrong predicate and its whole-sentence argument
        # (two false positives at 0.4) against one missed gold predicate
        # (0.6); raw scores are all zero so the loss equals the distance.
        model, space = xor_fixture()
        zero_params(model)
        res = latent_hinge_loss(model, space, XOR_PARSE)
        assert res.value == 0.4 * 2 + 0.6 * 1
        assert res.node is not None
        assert float(res.node.value) == res.value

    def test_subgradient_steps_reach_zero(self):
        # Start from the random initialization: at the all-zero point every
        # score is a product through zero weights, so the gradient vanishes
        # and no step escapes it.
        from spandep.autodiff import clip_and_step
        model, space = xor_fixture()
        reached = False
        for _ in range(120):
            g = Graph()
            res = latent_hinge_loss(model, space, XOR_PARSE, g=g)
            if res.value == 0.0:
                assert res.node is None
                reached = True
                break
            g.backward(res.node)
            clip_and_step(model.store, 0.5, 1.0, 1e-6)
        assert reached

    def test_matches_enumeration_with_cross_scores(self):
        # On enumerable instances the hinge must equal the exhaustive
        # cost-augmented optimum (plus the dropped gold constant) minus the
        # exhaustive best completion of the gold frame parse.  Pinning the
        # completion reuses the same enumerator through large score shifts.
        c = small_corpus(seed=11, n_fn=30)
        lim = TINY.fn_limits(c["dep_labels"])
        sents = [s for s in c["fn_train"] if len(s) <= 4][:5]
        assert len(sents) >= 3
        model = build_model(c, seed=3)
        checked = 0
        for inst in fn_instances(sents, c["ontology"], lim):
            res = latent_hinge_loss(model, inst.space, inst.parse)
            gold = frame_parts(inst.space, inst.parse)
            raw = model.scored_space(inst.space)
            _, aug_val = exhaustive_joint_map(
                cost_augment(raw, inst.space.gold_mask(inst.parse),
                             scope="frames"))
            best_term = aug_val + 0.6 * len(gold)
            m = 1e4
            shift = np.zeros(len(inst.space.parts))
            for i, p in enumerate(inst.space.parts):
                if i in inst.space.predicate_ids or i in inst.space.argument_ids:
                    shift[i] = m if p in gold else -m
            _, pin_val = exhaustive_joint_map(raw.with_scores(raw.scores + shift))
            completion = pin_val - m * len(gold)
            assert res.value == pytest.approx(best_term - completion, abs=1e-6)
            assert res.value >= -1e-9
            checked += 1
        assert checked >= 3

    def test_nonnegative_and_consistent_node(self):
        c = small_corpus(seed=23, n_fn=10)
        lim = TINY.fn_limits(c["dep_labels"])
        model = build_model(c, seed=5)
        for inst in fn_instances(c["fn_train"], c["ontology"], lim)[:6]:
            res = latent_hinge_loss(model, inst.space, inst.parse)
            assert res.value >= 0.0
            if res.node is not None:
                assert float(res.node.value) == pytest.approx(res.value, abs=1e-12)

    def test_bounds_distance_at_plain_argmax(self):
        # The loss never undercuts the frame distance of the model's own
        # (unaugmented) joint prediction.
        from spandep.inference.decode import decode
        from spandep.parts import weighted_hamming
        c = small_corpus(seed=41, n_fn=10)
        lim = TINY.fn_limits(c["dep_labels"])
        model = build_model(c, seed=7)
        for inst in fn_instances(c["fn_train"], c["ontology"], lim)[:6]:
            res = latent_hinge_loss(model, inst.space, inst.parse)
            plain = decode(model.scored_space(inst.space), mode="joint")
            frames = slice(inst.space.head_ids.start)
            gold = inst.space.gold_mask(inst.parse)
            dist = weighted_hamming(plain.active[frames], gold[frames])
            assert res.value >= dist - 1e-9


class TestSdpHinge:
    def test_zero_model_two_token_value(self):
        # The mirror of the gold tree is feasible and all-non-gold: four
        # false positives (arc, label, head, top) and four false negatives.
        model, space, gold = dep_fixture()
        zero_params(model)
        res = sdp_hinge_loss(model, space, gold)
        assert res.value == 0.4 * 4 + 0.6 * 4
        assert res.node is not None

    def test_matches_brute_force(self):
        for n, seed in ((2, 0), (3, 1), (3, 2)):
            arcs = ((0, 1, "a"),) if n == 2 else ((0, 1, "a"), (0, 2, "b"))
            model, space, gold_graph = dep_fixture(
                n=n, labels=("a", "b"), arcs=arcs, top=0, seed=seed)
            res = sdp_hinge_loss(model, space, gold_graph)
            gold = space.gold_mask(gold_graph)
            raw = model.scored_space(space)
            aug = cost_augment(raw, gold, scope="dependencies")
            fg = build_factor_graph(aug, include_frames=False)
            _, aug_val = brute_force_map(fg)
            gold_score = raw.scores @ gold
            expect = aug_val + 0.6 * gold.sum() - gold_score
            assert res.value == pytest.approx(max(expect, 0.0), abs=1e-6)

    def test_invariant_to_root_score_shift(self):
        # Every feasible dependency structure activates exactly one
        # virtual-root arc, so adding a constant to all root-arc scores
        # cancels between the two maxima.
        from spandep.model import SpaceScores
        from spandep.parts import VIRTUAL_ROOT, UnlabeledArc

        class ShiftRoots:
            def __init__(self, base, constant):
                self.base = base
                self.constant = constant

            def score_space(self, g, space, rng=None, training=False):
                res = self.base.score_space(g, space, rng=rng,
                                            training=training)
                shift = np.zeros(len(space.parts))
                for i, p in enumerate(space.parts):
                    if isinstance(p, UnlabeledArc) and p.head == VIRTUAL_ROOT:
                        shift[i] = self.constant
                return SpaceScores(g.add(res.node, g.input(shift)), res.cross)

        model, space, gold = dep_fixture(n=3, labels=("a", "b"),
                                         arcs=((0, 1, "a"), (0, 2, "b")),
                                         top=0, seed=6)
        base = sdp_hinge_loss(model, space, gold).value
        for c in (-2.5, 1.0, 7.25):
            shifted = sdp_hinge_loss(ShiftRoots(model, c), space, gold).value
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_subgradient_steps_reach_zero(self):
        from spandep.autodiff import clip_and_step
        model, space, gold = dep_fixture()
        reached = False
        for _ in range(120):
            g = Graph()
            res = sdp_hinge_loss(model, space, gold, g=g)
            if res.value == 0.0:
                assert res.node is None
                reached = True
                break
            g.backward(res.node)
            clip_and_step(model.store, 0.5, 1.0, 1e-6)
        assert reached


class TestDecodedMasks:
    def test_mask_scores_to_the_objective_in_every_mode(self):
        # the decoded mask covers every part, its pair bits included, so
        # its score is the decoder's objective
        from spandep.inference.decode import decode
        c = small_corpus(seed=17, n_fn=8)
        model = build_model(c, seed=2)
        fn = fn_instances(c["fn_train"], c["ontology"],
                          TINY.fn_limits(c["dep_labels"]))[:5]
        dm = dm_instances(c["dm_train"], TINY.dm_limits(c["dep_labels"]))[:2]
        runs = [(i.space, i.parse, mode) for i in fn for mode in
                ("joint", "dependencies_only", "latent_completion")]
        runs += [(i.space, None, "dependencies_only") for i in dm]
        pairs_on = 0
        for space, parse, mode in runs:
            space = model.scored_space(space)
            res = decode(space, mode=mode, gold_parse=parse)
            assert res.active.dtype == bool
            assert res.active.shape == (len(space.parts),)
            assert space.scores @ res.active == \
                pytest.approx(res.objective, abs=1e-9)
            for i in space.cross_ids:
                c_part = space.parts[i]
                assert res.active[i] == (res.active[c_part.arg_id]
                                         and res.active[c_part.arc_id])
                pairs_on += bool(res.active[i])
            if mode == "latent_completion":
                frames = slice(space.head_ids.start)
                gold = space.gold_mask(parse)
                assert (res.active[frames] == gold[frames]).all()
        assert pairs_on


class TestHingeGradients:
    def fd_end_to_end(self, value_fn, store, entries, h=1e-5, tol=1e-4):
        """Central differences through fresh decodes against the analytic
        subgradient, valid while the argmaxes stay put under the probe."""
        g = Graph()
        node = value_fn(g)
        assert node is not None
        store.zero_grads()
        g.backward(node)
        analytic = collect_grads(store)
        store.zero_grads()
        for name, idx in entries:
            flat = store.values[name].reshape(-1)
            keep = flat[idx]
            flat[idx] = keep + h
            up = float(value_fn(Graph()).value)
            flat[idx] = keep - h
            down = float(value_fn(Graph()).value)
            flat[idx] = keep
            fd = (up - down) / (2.0 * h)
            an = analytic[name].reshape(-1)[idx]
            assert abs(an - fd) / max(1.0, abs(an), abs(fd)) < tol, \
                f"{name}[{idx}]: analytic {an} vs fd {fd}"

    def pick_entries(self, store, rng, k=4):
        names = sorted(store.values)
        out = []
        for name in rng.choice(names, size=k, replace=True):
            size = store.values[name].size
            out.append((name, int(rng.integers(size))))
        return out

    def test_latent_hinge_gradients(self):
        c = small_corpus(seed=31, n_fn=10)
        lim = TINY.fn_limits(c["dep_labels"])
        model = build_model(c, seed=9)
        insts = [i for i in fn_instances(c["fn_train"], c["ontology"], lim)
                 if len(i.sentence) <= 4]
        inst = insts[0]
        g = Graph()
        res = latent_hinge_loss(model, inst.space, inst.parse, g=g)
        assert res.value > 0.0
        report = grad_check(g, res.node, model.store, tolerance=1e-4,
                            max_entries=5)
        assert report["pass"], report
        rng = np.random.default_rng(1)
        self.fd_end_to_end(
            lambda gr: latent_hinge_loss(model, inst.space, inst.parse,
                                         g=gr).node,
            model.store, self.pick_entries(model.store, rng))

    def test_sdp_hinge_gradients(self):
        model, space, gold = dep_fixture(n=3, labels=("a", "b"),
                                         arcs=((0, 1, "a"), (0, 2, "b")),
                                         top=0, seed=4)
        g = Graph()
        res = sdp_hinge_loss(model, space, gold, g=g)
        assert res.value > 0.0
        report = grad_check(g, res.node, model.store, tolerance=1e-4,
                            max_entries=5)
        assert report["pass"], report
        rng = np.random.default_rng(2)
        self.fd_end_to_end(
            lambda gr: sdp_hinge_loss(model, space, gold, g=gr).node,
            model.store, self.pick_entries(model.store, rng))


class TestFrameNeighbourhood:
    """A frame space's dependency side is the target's first token t1: its
    head part, its arcs and their labels.  In the full space every other
    head, arc, label and root arc takes the same value in the cost-augmented
    decode and in the latent completion, so it cancels out of the hinge and
    carries no gradient, and it never reaches the frame parse."""

    @staticmethod
    def hinge(model, space, parse, seed):
        """The training loss on ``space`` (hinge plus the ℓ1 penalty), its
        parameter gradients, and the plain joint decode."""
        g = Graph()
        res = latent_hinge_loss(model, space, parse, g=g, training=True,
                                rng=np.random.default_rng(seed))
        pen = l1_penalty(g, res.cross, TrainConfig().l1_weight)
        model.store.zero_grads()
        g.backward(pen if res.node is None else g.add(res.node, pen))
        grads = collect_grads(model.store)
        model.store.zero_grads()
        return res, grads, decode(model.scored_space(space), mode="joint")

    def test_full_space_gives_the_same_loss_gradient_and_parse(self):
        config = replace(TINY, word_dropout=1.0)
        checked = 0
        for seed in (3, 4, 5):
            c = small_corpus(seed=seed, n_fn=10, n_dm=2)
            model = build_model(c, seed=seed, config=config)
            limits = config.fn_limits(model.dep_labels)
            for k, inst in enumerate(fn_instances(c["fn_train"],
                                                  c["ontology"], limits)):
                full = full_frame_space(inst.space, limits)
                assert len(full.head_ids) == inst.space.n
                (res, grads, plain), (want, want_grads, want_plain) = (
                    self.hinge(model, s, inst.parse, 100 * seed + k)
                    for s in (inst.space, full))
                if res.uncertified or want.uncertified or \
                        "rounded" in (plain.status, want_plain.status):
                    continue
                checked += 1
                assert abs(res.value - want.value) <= 1e-12, inst.id
                assert res.augmented.parse == want.augmented.parse, inst.id
                assert plain.parse == want_plain.parse, inst.id
                assert grads.keys() == want_grads.keys()
                for name, w in want_grads.items():
                    np.testing.assert_allclose(
                        grads[name], w, rtol=0,
                        atol=1e-12 * np.abs(w).max(initial=0.0),
                        err_msg=f"{inst.id}: {name}")
        assert checked >= 25


class TestL1Penalty:
    def test_disabled_cases(self):
        g = Graph()
        assert l1_penalty(g, None, 0.01) is None
        assert l1_penalty(g, g.input(np.array([1.0])), 0.0) is None

    def test_value(self):
        g = Graph()
        pen = l1_penalty(g, g.input(np.array([0.5, -0.25])), 0.01)
        assert float(pen.value) == 0.01 * 0.75

    def test_gradient_is_scaled_sign(self):
        store = ParameterStore()
        store.add("c", (2,), np.random.default_rng(0))
        store.values["c"][:] = [0.5, -0.25]
        g = Graph()
        pen = l1_penalty(g, g.param(store, "c"), 0.01)
        g.backward(pen)
        np.testing.assert_allclose(store.grads["c"], [0.01, -0.01])


class TestTrainLoop:
    def run(self, corpus, cfg, seed=0, config=TINY, **kwargs):
        model = build_model(corpus, seed=seed, config=config)
        return model, train(model, corpus["fn_train"], corpus["dm_train"],
                            config=cfg, **kwargs)

    def test_loss_decreases(self):
        c = small_corpus()
        _, res = self.run(c, TrainConfig(max_epochs=5, seed=0))
        losses = [st.mean_loss for st in res.history]
        assert len(losses) == 5
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_history_follows_annealing(self):
        c = small_corpus(n_fn=2, n_dm=2, n_fn_dev=0, n_dm_dev=0)
        cfg = TrainConfig(max_epochs=3, anneal_every=1, anneal_factor=0.5,
                          seed=0)
        _, res = self.run(c, cfg)
        assert [st.lr for st in res.history] == [0.33, 0.165, 0.0825]

    def test_tsv_log(self, tmp_path):
        c = small_corpus(n_fn=2, n_dm=2)
        path = tmp_path / "log.tsv"
        cfg = TrainConfig(max_epochs=2, seed=0)
        model = build_model(c)
        res = train(model, c["fn_train"], c["dm_train"],
                    fn_dev=c["fn_dev"], dm_dev=c["dm_dev"], config=cfg,
                    log_path=path)
        lines = path.read_text().splitlines()
        assert lines == [st.tsv() for st in res.history]
        pat = re.compile(r"^\d+\t[0-9.]+\t[0-9.+-]+\t[01]\.\d{4}"
                         r"\t[01]\.\d{4}(\t\d+\.\d{3}){4}\t\d+\t\d+\.\d$")
        for line in lines:
            assert len(line.split("\t")) == 11, line
            assert pat.match(line), line
        for st in res.history:
            assert min(st.hinge_s, st.backward_s, st.step_s) > 0.0
            assert st.hinge_s + st.backward_s + st.step_s <= st.seconds

    def test_log_counts_uncertified_training_decodes(self, monkeypatch):
        """Both decodes of a frame instance count, and the one of a
        dependency instance; the dev decodes do not."""
        import spandep.training as tr
        c = small_corpus(n_fn=2, n_dm=2)
        decode = tr.decode
        monkeypatch.setattr(tr, "decode", lambda *a, **k: replace(
            decode(*a, **k), status="rounded"))
        _, res = self.run(c, TrainConfig(max_epochs=1, seed=0),
                          fn_dev=c["fn_dev"], dm_dev=c["dm_dev"])
        n_fn = len(fn_instances(c["fn_train"], c["ontology"],
                                TINY.fn_limits(c["dep_labels"])))
        assert res.history[0].uncertified == 2 * n_fn + len(c["dm_train"])

    def test_empty_training_set_rejected(self):
        c = small_corpus(n_fn=2, n_dm=2)
        model = build_model(c)
        with pytest.raises(SpandepError, match="no training instances"):
            train(model, [], [], config=TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("where", ["fn_train", "fn_exemplar",
                                       "dm_train"])
    def test_gold_outside_the_space_fails_before_training(self, where,
                                                          monkeypatch):
        """A gold argument over the 20-token cap, or a gold arc label the
        model does not know, names its instance before any loss runs."""
        import spandep.training as tr
        ont = Ontology({"lu.v": ("F0",)}, {"F0": ("R0",)})
        target = Target(0, 0, "lu.v")

        def fn(id, args):
            parse = FrameParse(target, "F0", frozenset(args))
            return make_sentence([f"w{t}" for t in range(23)], id=id,
                                 supervision=FrameAnnotations((parse,)))

        def dm(id, label):
            graph = DependencyGraph(frozenset({(0, 1, label)}), top=0)
            return make_sentence(["w0", "w1"], id=id, supervision=graph)

        ok_fn, ok_dm = fn("ok", {(1, 20, "R0")}), dm("ok-dm", "a")
        data = {"fn_train": [ok_fn], "fn_exemplar": [], "dm_train": [ok_dm]}
        if where == "dm_train":
            data[where].append(dm("bad", "b"))
            want = "training instance 'bad': .*LabeledArc"
        else:
            data[where].append(fn("bad", {(1, 22, "R0")}))
            want = r"training instance 'bad#0-0': .*start=1, end=22"
        model = ParserModel.build(TINY, ont, ("a",), [ok_fn, ok_dm],
                                  np.random.default_rng(0))
        before = {k: v.copy() for k, v in model.store.values.items()}
        calls = []
        monkeypatch.setattr(tr, "latent_hinge_loss",
                            lambda *a, **k: calls.append(a))
        monkeypatch.setattr(tr, "sdp_hinge_loss",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(SpandepError, match=want):
            train(model, data["fn_train"], data["dm_train"],
                  fn_exemplar=data["fn_exemplar"],
                  config=TrainConfig(max_epochs=1, exemplar_fraction=1.0))
        assert calls == []
        for k, v in model.store.values.items():
            np.testing.assert_array_equal(v, before[k])

    def test_nonfinite_loss_names_instance(self, monkeypatch):
        import spandep.training as tr
        c = small_corpus(n_fn=2, n_dm=0, n_dm_dev=0)
        model = build_model(c)

        def bad_loss(*args, **kwargs):
            return tr.HingeResult(None, float("nan"), None, None)

        monkeypatch.setattr(tr, "latent_hinge_loss", bad_loss)
        with pytest.raises(SpandepError, match="non-finite loss at instance"):
            tr.train(model, c["fn_train"], [],
                     config=TrainConfig(max_epochs=1, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_cross_score_names_instance(self):
        # an inf in the arc slot's factor makes the cross-task scores that
        # use it non-finite; training stops at the first such instance
        import spandep.training as tr
        c = small_corpus(n_fn=2, n_dm=0, n_dm_dev=0)
        model = build_model(c)
        model.store.values["sc.v2"][0, 0] = np.inf
        with pytest.raises(SpandepError, match="non-finite loss at instance"):
            tr.train(model, c["fn_train"], [],
                     config=TrainConfig(max_epochs=1, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_top_score_stops_before_any_step(self):
        # an inf in the top scorer's weight vector makes top scores
        # infinite; a part whose hinge coefficient is 0 then makes the
        # loss 0 * inf = NaN, so training stops at the first instance and
        # no backward pass ever skips the inf's subtree unnoticed.  Only
        # dependency spaces have root arcs, so the instances are SDP ones
        import spandep.training as tr
        c = small_corpus(n_fn=0, n_dm=2, n_fn_dev=0, n_dm_dev=0)
        model = build_model(c)
        model.store.values["sc.top.w"][0] = np.inf
        before = {k: v.copy() for k, v in model.store.values.items()}
        with pytest.raises(SpandepError, match="non-finite loss at instance"):
            tr.train(model, [], c["dm_train"],
                     config=TrainConfig(max_epochs=1, seed=0))
        for k, v in before.items():
            np.testing.assert_array_equal(model.store.values[k], v)

    def test_basic_configuration_trains(self):
        c = small_corpus(n_fn=3, n_dm=3)
        cfg = TrainConfig(max_epochs=1, seed=0)
        _, res = self.run(c, cfg, config=replace(TINY, joint=False,
                                                 include_cross_task=False))
        assert len(res.history) == 1
        assert np.isfinite(res.history[0].mean_loss)

    def test_exemplar_pool_is_sampled(self):
        c = small_corpus(n_fn=3, n_dm=2)
        pool = small_corpus(seed=9, n_fn=5, n_dm=0, n_fn_dev=0,
                            n_dm_dev=0)["fn_train"]
        cfg = TrainConfig(max_epochs=2, seed=0)
        model = build_model(c)
        res = train(model, c["fn_train"], c["dm_train"], fn_exemplar=pool,
                    config=cfg)
        assert len(res.history) == 2
        assert all(np.isfinite(st.mean_loss) for st in res.history)

    def test_same_seed_reproduces_parameters(self):
        c = small_corpus(n_fn=4, n_dm=3)
        cfg = TrainConfig(max_epochs=2, seed=13)
        dropout = replace(TINY, word_dropout=1.0)
        m1, _ = self.run(c, cfg, seed=2, config=dropout)
        m2, _ = self.run(c, cfg, seed=2, config=dropout)
        for name in m1.store.values:
            np.testing.assert_array_equal(m1.store.values[name],
                                          m2.store.values[name])

    def test_step_uses_config_clip_and_l2(self):
        # one dependency instance, one step, against the same step taken by
        # hand with the config's clip and l2 (neither is the default)
        c = small_corpus(n_fn=0, n_dm=1, n_fn_dev=0, n_dm_dev=0)
        cfg = TrainConfig(max_epochs=1, clip=0.05, l2=0.01)
        trained, _ = self.run(c, cfg)
        manual = build_model(c)
        (inst,) = dm_instances(c["dm_train"],
                               manual.config.dm_limits(manual.dep_labels))
        rng = np.random.default_rng(cfg.seed)
        rng.permutation(1)  # train() shuffles its one instance
        g = Graph()
        res = sdp_hinge_loss(manual, inst.space, inst.graph, g=g, rng=rng,
                             training=True)
        g.backward(res.node)
        assert manual.store.grad_norm() > 0.05  # the clip binds
        clip_and_step(manual.store, cfg.lr0, 0.05, 0.01)
        for name, value in manual.store.values.items():
            np.testing.assert_array_equal(trained.store.values[name], value,
                                          err_msg=name)

    def test_skipping_zero_gradients_is_bit_identical(self, monkeypatch):
        """One epoch against the dense reference backward and the step in
        its original op order: every parameter is equal bit for bit, signed
        zeros included, though steps leave parameters untouched.  With two
        BiLSTM layers the second adds its input's gradient into the first
        layer's node."""
        import spandep.training as tr
        c = small_corpus(n_fn=5, n_dm=4, n_fn_dev=0, n_dm_dev=0)
        cfg = TrainConfig(max_epochs=1, seed=11)
        untouched = []

        def counting_step(store, *args):
            untouched.append(len(store.values) - len(store._touched))
            clip_and_step(store, *args)

        monkeypatch.setattr(tr, "clip_and_step", counting_step)
        for layers in (1, 2):
            config = replace(TINY, word_dropout=0.25, bilstm_layers=layers)
            untouched.clear()
            got, _ = self.run(c, cfg, seed=3, config=config)
            want = build_model(c, seed=3, config=config)
            start = {k: v.copy() for k, v in want.store.values.items()}
            dense_train_epoch(want, c["fn_train"], c["dm_train"], cfg)
            assert len(untouched) > 1 and max(untouched) > 0
            assert any(not np.array_equal(w, start[k])
                       for k, w in want.store.values.items())
            for name, w in want.store.values.items():
                assert got.store.values[name].tobytes() == w.tobytes(), \
                    (layers, name)

    def test_best_epoch_parameters_restored(self):
        # The returned parameters must equal the state right after the best
        # dev epoch, which a shorter run of the same seed reproduces.
        c = small_corpus(n_fn=5, n_dm=3)
        cfg = TrainConfig(max_epochs=4, lr0=0.8, seed=3)
        model = build_model(c, seed=1)
        res = train(model, c["fn_train"], c["dm_train"],
                    fn_dev=c["fn_dev"], dm_dev=c["dm_dev"], config=cfg)
        f1s = [st.dev_fn_f1 for st in res.history]
        assert res.best_epoch == f1s.index(max(f1s))
        assert res.best_dev_fn_f1 == max(f1s)
        short = build_model(c, seed=1)
        train(short, c["fn_train"], c["dm_train"],
              fn_dev=c["fn_dev"], dm_dev=c["dm_dev"],
              config=TrainConfig(max_epochs=res.best_epoch + 1, lr0=0.8,
                                 seed=3))
        for name in model.store.values:
            np.testing.assert_array_equal(model.store.values[name],
                                          short.store.values[name])

    def test_without_dev_keeps_final_parameters(self):
        c = small_corpus(n_fn=3, n_dm=2)
        _, res = self.run(c, TrainConfig(max_epochs=2, seed=0))
        assert res.best_epoch == 1
        assert all(st.dev_fn_f1 == 0.0 for st in res.history)

    def test_sparsity_grows_with_l1_weight(self):
        c = small_corpus(seed=5, n_fn=6, n_dm=2)
        lim = TINY.fn_limits(c["dep_labels"])
        insts = fn_instances(c["fn_train"], c["ontology"], lim)

        def near_zero_cross(weight):
            cfg = TrainConfig(max_epochs=4, l1_weight=weight, seed=0)
            model, _ = self.run(c, cfg, seed=4)
            count = 0
            for inst in insts:
                scores = model.scored_space(inst.space).scores
                ids = list(inst.space.cross_ids)
                count += int(np.sum(np.abs(scores[ids]) <= 1e-3))
            return count

        counts = [near_zero_cross(w) for w in (0.0, 0.01, 0.1)]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0]


class TestEnsembleAndPredict:
    def test_identical_members_match_single(self):
        c = small_corpus(n_fn=3, n_dm=2)
        model = build_model(c)
        lim = TINY.fn_limits(c["dep_labels"])
        inst = fn_instances(c["fn_train"], c["ontology"], lim)[0]
        single = model.scored_space(inst.space).scores
        pair = ensemble_scores([model, model], inst.space).scores
        np.testing.assert_array_equal(single, pair)

    def test_scores_are_averaged(self):
        c = small_corpus(n_fn=3, n_dm=2)
        m1 = build_model(c, seed=0)
        m2 = build_model(c, seed=1)
        lim = TINY.fn_limits(c["dep_labels"])
        inst = fn_instances(c["fn_train"], c["ontology"], lim)[0]
        s1 = m1.scored_space(inst.space).scores
        s2 = m2.scored_space(inst.space).scores
        got = ensemble_scores([m1, m2], inst.space).scores
        np.testing.assert_allclose(got, (s1 + s2) / 2.0, atol=0)

    def test_empty_ensemble_rejected(self):
        c = small_corpus(n_fn=2, n_dm=2)
        lim = TINY.fn_limits(c["dep_labels"])
        inst = fn_instances(c["fn_train"], c["ontology"], lim)[0]
        with pytest.raises(SpandepError, match="empty ensemble"):
            ensemble_scores([], inst.space)

    def test_mismatched_members_rejected(self):
        c = small_corpus(n_fn=2, n_dm=2)
        m1 = build_model(c)
        m2 = ParserModel.build(TINY, c["ontology"], ("other",),
                               list(c["dm_train"]), np.random.default_rng(1))
        lim = TINY.fn_limits(c["dep_labels"])
        inst = fn_instances(c["fn_train"], c["ontology"], lim)[0]
        with pytest.raises(SpandepError, match="disagree"):
            ensemble_scores([m1, m2], inst.space)

    def test_predict_frames_keeps_alignment(self):
        from spandep.evaluation import eval_frames
        c = small_corpus(n_fn=4, n_dm=2)
        gold = list(c["fn_train"])
        gold.append(make_sentence(["bare"], id="no-targets",
                                  supervision=FrameAnnotations(())))
        model = build_model(c)
        pred = predict_frames(model, gold)
        assert len(pred) == len(gold)
        assert pred[-1].supervision.parses == ()
        for g_s, p_s in zip(gold, pred):
            gold_targets = sorted(p.target for p in g_s.supervision.parses)
            pred_targets = sorted(p.target for p in p_s.supervision.parses)
            assert gold_targets == pred_targets
        res = eval_frames(gold, pred, c["ontology"])
        assert 0.0 <= res.f1 <= 1.0

    def test_predict_frames_keys_parses_by_position(self):
        # one sentence object given twice gets its own parses per copy
        c = small_corpus(n_fn=2, n_dm=2)
        s = c["fn_train"][0]
        pred = predict_frames(build_model(c), [s, s])
        gold_targets = [p.target for p in s.supervision.parses]
        for p_s in pred:
            assert [p.target for p in p_s.supervision.parses] == gold_targets

    def test_predict_builds_each_space_just_before_scoring_it(
            self, monkeypatch):
        import spandep.training as tr
        c = small_corpus(n_fn=3, n_dm=3)
        model = build_model(c)
        events = []
        build, score = tr.build_candidate_space, ParserModel.scored_space

        def build_logged(*args, **kwargs):
            events.append("build")
            return build(*args, **kwargs)

        def score_logged(self, space):
            events.append("score")
            return score(self, space)

        monkeypatch.setattr(tr, "build_candidate_space", build_logged)
        monkeypatch.setattr(ParserModel, "scored_space", score_logged)
        fn, dm = list(c["fn_train"]), list(c["dm_train"])
        n_targets = sum(len(s.supervision.parses) for s in fn)
        for predict, sentences, spaces in ((predict_frames, fn, n_targets),
                                           (predict_dependencies, dm, len(dm))):
            events.clear()
            predict(model, sentences)
            assert events == ["build", "score"] * spaces

    def test_predict_dependencies_without_gold(self):
        c = small_corpus(n_fn=2, n_dm=3)
        model = build_model(c)
        bare = [make_sentence(["a", "b", "c"], id="raw")]
        out = predict_dependencies(model, bare)
        assert isinstance(out[0].supervision, DependencyGraph)

    def test_predict_dependencies_round_trip_eval(self):
        from spandep.evaluation import eval_sdp
        c = small_corpus(n_fn=2, n_dm=3)
        model = build_model(c)
        pred = predict_dependencies(model, c["dm_train"])
        res = eval_sdp(list(c["dm_train"]), pred)
        assert 0.0 <= res.f1 <= 1.0
