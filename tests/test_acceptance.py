"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line so a log scrape shows the whole
scorecard at a glance.  Tolerances are pinned in the assertions.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from spandep.autodiff import Graph, grad_check
from spandep.inference.ad3 import ad3_solve
from spandep.inference.decode import decode, drop_sparse_cross_task
from spandep.inference.exhaustive import brute_force_map
from spandep.inference.factor_graph import build_factor_graph
from spandep.inference.semimarkov import semi_markov_map, semi_markov_marginals
from spandep.evaluation import (
    error_breakdown,
    eval_frames,
    eval_sdp,
    length_binned_pr,
)
from spandep.formats import FormatError, load_model, read_sdp, save_model, write_sdp
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Head,
    Ontology,
    SpaceLimits,
    Target,
    UnlabeledArc,
    build_candidate_space,
    make_sentence,
    weighted_hamming,
)
from spandep.pruning import retain_spans
from spandep.synthetic import random_joint_instance, synthetic_corpus
from spandep.training import (
    TrainConfig,
    ensemble_scores,
    dm_instances,
    fn_instances,
    latent_hinge_loss,
    sdp_hinge_loss,
    train,
)

from .oracles import (
    map_by_enumeration,
    marginals_by_enumeration,
    mask_objective,
    mask_of,
)

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({summary})")
        raise
    print(f"criterion {num}: PASS ({summary})")


def tiny_model(corpus, seed=0, config=TINY):
    sents = list(corpus["fn_train"]) + list(corpus["dm_train"])
    return ParserModel.build(config, corpus["ontology"], corpus["dep_labels"],
                             sents, np.random.default_rng(seed))


def test_criterion_01_oracle_equivalence():
    with criterion(1, "decoder matches brute force on 100 joint instances"):
        rng = np.random.default_rng(20240825)
        t0 = time.monotonic()
        n_cross = 0
        for _ in range(100):
            space = random_joint_instance(rng)
            assert space.n <= 6
            assert len(space.frames) <= 2
            n_cross += bool(space.cross_ids)
            fg = build_factor_graph(space)
            got = ad3_solve(fg)
            want_active, want_val = brute_force_map(fg)
            assert abs(got.objective - want_val) <= 1e-6
            if not np.array_equal(got.active, want_active):
                active = np.zeros(len(space.parts), dtype=bool)
                active[:fg.nvars] = got.active
                tie = mask_objective(space, active)
                assert tie == pytest.approx(want_val, abs=1e-6)
        assert n_cross >= 20
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_semi_markov_dp():
    with criterion(2, "segmentation DP matches enumeration on 50 problems"):
        from .oracles import random_span_problem
        rng = np.random.default_rng(7)
        for _ in range(50):
            spans, scores, n = random_span_problem(rng, n_max=8, max_width=4)
            _, got_val = semi_markov_map(spans, scores, n)
            _, want_val = map_by_enumeration(spans, scores, n)
            assert got_val == pytest.approx(want_val, abs=1e-6)
            got_lz, got_post = semi_markov_marginals(spans, scores, n)
            want_lz, want_post = marginals_by_enumeration(spans, scores, n)
            assert got_lz == pytest.approx(want_lz, abs=1e-8)
            np.testing.assert_allclose(got_post, want_post, atol=1e-8)


def test_criterion_03_gradient_correctness():
    with criterion(3, "scorers and both hinges pass finite differences"):
        corpus = synthetic_corpus(np.random.default_rng(31), n_fn=10, n_dm=6,
                                  n_fn_dev=0, n_dm_dev=0)
        model = tiny_model(corpus, seed=9)
        fn = [i for i in fn_instances(corpus["fn_train"], corpus["ontology"],
                                      TINY.fn_limits(corpus["dep_labels"]))
              if len(i.sentence) <= 4][0]
        space = fn.space
        assert space.predicate_ids and space.argument_ids
        assert space.head_ids and space.arc_ids and space.labeled_ids
        assert space.cross_ids

        g = Graph()
        total = g.sum(model.score_space(g, space).node)
        report = grad_check(g, total, model.store, tolerance=1e-4,
                            max_entries=8)
        assert report["pass"], report

        g = Graph()
        res = latent_hinge_loss(model, space, fn.parse, g=g)
        assert res.value > 0.0
        report = grad_check(g, res.node, model.store, tolerance=1e-4,
                            max_entries=6)
        assert report["pass"], report

        dm = dm_instances(corpus["dm_train"],
                          TINY.dm_limits(corpus["dep_labels"]))[0]
        g = Graph()
        res = sdp_hinge_loss(model, dm.space, dm.graph, g=g)
        assert res.value > 0.0
        report = grad_check(g, res.node, model.store, tolerance=1e-4,
                            max_entries=6)
        assert report["pass"], report


def test_criterion_04_weighted_hamming_fixtures():
    with criterion(4, "weighted Hamming reproduces 0.4 / 0.6 / 0.0"):
        space = build_candidate_space(make_sentence(["a", "b"]), None,
                                      Ontology({}, {}), SpaceLimits())
        gold = mask_of(space, {Head(0), UnlabeledArc(0, 1)})
        extra = mask_of(space, {Head(0), UnlabeledArc(0, 1), Head(1)})
        short = mask_of(space, {Head(0)})
        assert weighted_hamming(extra, gold) == 0.4
        assert weighted_hamming(short, gold) == 0.6
        assert weighted_hamming(gold.copy(), gold) == 0.0


def test_criterion_05_pruning_rule_bit_exact():
    with criterion(5, "1/n^2 threshold and the 20-token cap are bit-exact"):
        cap = ModelConfig().max_span_len
        spans = [(0, 0), (0, 1)]
        at = np.array([0.25, 0.25])
        below = np.array([np.nextafter(0.25, 0.0), 0.25])
        assert retain_spans(spans, at, 2, cap) == [(0, 0), (0, 1)]
        assert retain_spans(spans, below, 2, cap) == [(0, 1)]
        capped = retain_spans([(0, 20), (0, 19)], np.array([1.0, 1.0]),
                              30, cap)
        assert capped == [(0, 19)]


def test_criterion_06_sparsity_speedup():
    with criterion(6, "dropping near-zero cross scores speeds decoding"):
        corpus = synthetic_corpus(np.random.default_rng(42), n_fn=24, n_dm=8,
                                  n_fn_dev=0, n_dm_dev=0)
        model = tiny_model(corpus, seed=1)
        cfg = TrainConfig(max_epochs=8, l1_weight=0.01, seed=0)
        train(model, corpus["fn_train"], corpus["dm_train"], config=cfg)

        insts = fn_instances(corpus["fn_train"], corpus["ontology"],
                             TINY.fn_limits(corpus["dep_labels"]))
        spaces = [model.scored_space(i.space) for i in insts]
        total = sum(len(sp.cross_ids) for sp in spaces)
        sparse = sum(int(np.sum(np.abs(sp.scores[list(sp.cross_ids)]) <= 1e-3))
                     for sp in spaces)
        assert total > 0
        assert sparse / total >= 0.5

        def best_pass(batch, reps=2):
            best = float("inf")
            for _ in range(reps):
                t = time.perf_counter()
                for sp in batch:
                    decode(sp)
                best = min(best, time.perf_counter() - t)
            return best

        dropped = [drop_sparse_cross_task(sp, 1e-3) for sp in spaces]
        t_full = best_pass(spaces)
        t_drop = best_pass(dropped)
        assert t_full / t_drop >= 1.5

        tight = [drop_sparse_cross_task(sp, 1e-6) for sp in spaces]
        for sp, tp in zip(spaces, tight):
            structural = slice(sp.cross_ids.start)
            assert np.array_equal(decode(sp).active[structural],
                                  decode(tp).active[structural])


def test_criterion_07_joint_learning_smoke():
    with criterion(7, "Full tracks Basic on the 200+200 synthetic corpus"):
        t0 = time.monotonic()
        corpus = synthetic_corpus(np.random.default_rng(20240825),
                                  n_fn=200, n_dm=200)

        def run(joint, cross):
            model = tiny_model(corpus, seed=0, config=replace(
                TINY, joint=joint, include_cross_task=cross))
            cfg = TrainConfig(max_epochs=5, seed=0)
            return train(model, corpus["fn_train"], corpus["dm_train"],
                         fn_dev=corpus["fn_dev"], dm_dev=corpus["dm_dev"],
                         config=cfg)

        full = run(True, True)
        basic = run(False, False)
        for res in (full, basic):
            losses = [st.mean_loss for st in res.history]
            assert len(losses) == 5
            assert all(b < a for a, b in zip(losses, losses[1:]))
        assert 100 * full.best_dev_fn_f1 >= 100 * basic.best_dev_fn_f1 - 0.5
        assert time.monotonic() - t0 < 600.0


def test_criterion_08_format_fidelity(tmp_path):
    with criterion(8, "byte-exact round trips and located format errors"):
        canonical = ("#s1\n"
                     "1\tthe\tthe\tDT\t-\t-\n"
                     "2\tcat\tcat\tNN\t-\t-\n"
                     "3\tsat\tsit\tVB\t+\t-\n"
                     "\n"
                     "#s2\n"
                     "1\tdogs\tdog\tNN\t-\t+\t_\targ2\n"
                     "2\tbark\tbark\tVB\t+\t+\targ1\t_\n"
                     "\n")
        src = tmp_path / "in.sdp"
        src.write_text(canonical, encoding="utf-8")
        out = tmp_path / "out.sdp"
        write_sdp(read_sdp(src), out)
        assert out.read_bytes() == src.read_bytes()

        corpus = synthetic_corpus(np.random.default_rng(3), n_fn=3, n_dm=3,
                                  n_fn_dev=0, n_dm_dev=0)
        model = tiny_model(corpus)
        ckpt = tmp_path / "m.zip"
        save_model(model, ckpt)
        loaded = load_model(ckpt)
        assert set(loaded.store.values) == set(model.store.values)
        for name, value in model.store.values.items():
            np.testing.assert_array_equal(loaded.store.values[name], value)

        ragged = tmp_path / "bad.sdp"
        ragged.write_text("#x\n1\ta\ta\tX\t-\t-\n2\tb\tb\n\n",
                          encoding="utf-8")
        with pytest.raises(FormatError, match=r"bad\.sdp:3"):
            read_sdp(ragged)
        flag = tmp_path / "flag.sdp"
        flag.write_text("#x\n1\ta\ta\tX\tq\t-\n\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"flag\.sdp:2"):
            read_sdp(flag)
        truncated = tmp_path / "t.zip"
        truncated.write_bytes(ckpt.read_bytes()[:40])
        with pytest.raises(FormatError, match="unreadable checkpoint"):
            load_model(truncated)


ONT9 = Ontology({"sit.v": ("Rest", "Meet"), "run.v": ("Motion",)},
                {"Rest": ("Agent", "Place"), "Meet": ("Agent", "Place"),
                 "Motion": ("Mover", "Path")})


def fn_sent(n, parses, id="s"):
    anns = tuple(FrameParse(Target(ts, te, lu), frame,
                            frozenset(tuple(a) for a in args))
                 for (ts, te, lu), frame, args in parses)
    return make_sentence(["w"] * n, id=id,
                         supervision=FrameAnnotations(anns))


def dm_sent(n, arcs, top=None, id="s"):
    return make_sentence(["w"] * n, id=id,
                         supervision=DependencyGraph(frozenset(arcs), top=top))


SIT = (4, 4, "sit.v")


def test_criterion_09_metric_fixtures():
    with criterion(9, "hand-computed metric fixtures match exactly"):
        g1 = [fn_sent(6, [(SIT, "Rest", [(0, 1, "Agent")])])]
        fixtures_frames = [
            (g1, g1, (1.0, 1.0, 1.0)),
            (g1, [fn_sent(6, [(SIT, "Rest", [(0, 2, "Agent")])])],
             (0.5, 0.5, 0.5)),
            (g1, [fn_sent(6, [(SIT, "Meet", [(0, 1, "Agent")])])],
             (0.5, 0.5, 0.5)),
            (g1, [fn_sent(6, [(SIT, "Rest", [(0, 1, "Agent"),
                                             (2, 3, "Place")])])],
             (2 / 3, 1.0, 0.8)),
            (g1, [fn_sent(6, [(SIT, "Rest", [])])], (1.0, 0.5, 2 / 3)),
        ]
        for gold, pred, (p, r, f) in fixtures_frames:
            res = eval_frames(gold, pred, ONT9)
            assert (res.precision, res.recall, res.f1) == (p, r, f)

        d1 = [dm_sent(3, {(0, 1, "a")}, top=0)]
        fixtures_sdp = [
            (d1, d1, True, (1.0, 1.0, 1.0)),
            (d1, [dm_sent(3, {(0, 1, "a"), (0, 2, "a")}, top=0)], True,
             (2 / 3, 1.0, 0.8)),
            (d1, [dm_sent(3, {(0, 1, "b")}, top=0)], True,
             (0.5, 0.5, 0.5)),
            (d1, [dm_sent(3, {(0, 1, "a")})], True, (1.0, 0.5, 2 / 3)),
            (d1, [dm_sent(3, {(0, 1, "a")})], False, (1.0, 1.0, 1.0)),
        ]
        for gold, pred, top, (p, r, f) in fixtures_sdp:
            res = eval_sdp(gold, pred, include_top=top)
            assert (res.precision, res.recall, res.f1) == (p, r, f)

        g2 = [fn_sent(8, [(SIT, "Rest", [(0, 1, "Agent")])])]
        fixtures_breakdown = [
            (g2, g2, (0, 0, 0, 0, 0, 0)),
            (g2, [fn_sent(8, [(SIT, "Meet", [(0, 1, "Agent")])])],
             (1, 0, 0, 0, 0, 0)),
            (g2, [fn_sent(8, [(SIT, "Rest", [(0, 1, "Place")])])],
             (0, 1, 1, 0, 0, 0)),
            (g2, [fn_sent(8, [(SIT, "Rest", [(0, 2, "Agent")])])],
             (0, 0, 0, 1, 0, 0)),
            (g2, [fn_sent(8, [(SIT, "Rest", [(6, 7, "Place")])])],
             (0, 0, 0, 0, 1, 1)),
        ]
        for gold, pred, want in fixtures_breakdown:
            b = error_breakdown(gold, pred)
            got = (b.frame_errors, b.role_errors, b.role_errors_correct_frame,
                   b.span_errors, b.argument_errors, b.missing_arguments)
            assert got == want

        g3 = [fn_sent(10, [(SIT, "Rest", [(0, 0, "Agent")])])]
        fixtures_bins = [
            (g3, g3, {0: (1.0, 1.0, 1)}),
            (g3, [fn_sent(10, [(SIT, "Rest", [(0, 1, "Agent")])])],
             {0: (0.0, 0.0, 1), 1: (0.0, 0.0, 1)}),
            ([fn_sent(10, [(SIT, "Rest", [(0, 3, "Agent")])])],
             [fn_sent(10, [(SIT, "Rest", [(0, 3, "Agent")])])],
             {2: (1.0, 1.0, 1)}),
            ([fn_sent(10, [(SIT, "Rest", [(0, 7, "Agent")])])],
             [fn_sent(10, [(SIT, "Rest", [(0, 7, "Place")])])],
             {4: (0.0, 0.0, 2)}),
            ([fn_sent(10, [(SIT, "Rest", [(0, 0, "Agent"),
                                          (1, 2, "Place")])])],
             [fn_sent(10, [(SIT, "Rest", [(0, 0, "Agent"),
                                          (1, 2, "Agent")])])],
             {0: (1.0, 1.0, 1), 1: (0.0, 0.0, 2)}),
        ]
        for gold, pred, want in fixtures_bins:
            rows = {row.bin: (row.precision, row.recall, row.count)
                    for row in length_binned_pr(gold, pred)}
            assert rows == want


def test_criterion_10_ensemble_identity(tmp_path):
    with criterion(10, "two identical checkpoints decode like one model"):
        corpus = synthetic_corpus(np.random.default_rng(17), n_fn=30, n_dm=20,
                                  n_fn_dev=0, n_dm_dev=0)
        model = tiny_model(corpus, seed=2)
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        save_model(model, a)
        save_model(model, b)
        members = [load_model(a), load_model(b)]

        spaces = [i.space for i in fn_instances(
            corpus["fn_train"], corpus["ontology"],
            TINY.fn_limits(corpus["dep_labels"]))]
        spaces += [(i.space) for i in dm_instances(
            corpus["dm_train"], TINY.dm_limits(corpus["dep_labels"]))]
        assert len(spaces) >= 50
        for space in spaces[:50]:
            mode = "joint" if space.predicate_ids else "dependencies_only"
            single = decode(model.scored_space(space), mode=mode)
            pair = decode(ensemble_scores(members, space), mode=mode)
            assert np.array_equal(single.active, pair.active)
