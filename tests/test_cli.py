import inspect
import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spandep.cli import cli
from spandep.formats import (
    load_checkpoint,
    load_model,
    model_manifest,
    ontology_to_dict,
    read_frames,
    read_sdp,
    save_checkpoint,
    save_model,
)
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    SpaceLimits,
    Target,
    build_candidate_space,
    make_sentence,
)
from spandep.pruning import (
    load_pruner,
    pretrain_arc_pruner,
    pretrain_span_pruner,
    prune_spans,
)
from spandep.synthetic import synthetic_corpus
from spandep.training import TrainConfig
from spandep.formats import write_frames, write_sdp

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(np.random.default_rng(3), n_fn=3, n_dm=3,
                            n_fn_dev=2, n_dm_dev=2)


@pytest.fixture()
def paths(corpus, tmp_path):
    out = {"dir": tmp_path}
    out["ontology"] = tmp_path / "ontology.json"
    out["ontology"].write_text(
        json.dumps(ontology_to_dict(corpus["ontology"])), encoding="utf-8")
    for name in ("fn_train", "fn_dev"):
        out[name] = tmp_path / f"{name}.jsonl"
        write_frames(corpus[name], out[name])
    for name in ("dm_train", "dm_dev"):
        out[name] = tmp_path / f"{name}.sdp"
        write_sdp(corpus[name], out[name])
    return out


class TestArgumentHandling:
    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_unknown_flag_prints_usage(self, capsys):
        rc = cli(["oracle-check", "--bogus", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage" in err and "error" in err

    def test_missing_subcommand(self, capsys):
        assert cli([]) == 1

    def test_negative_word_dropout_rejected(self, paths, capsys):
        rc = cli(["train", "--fn-train", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(paths["dir"] / "m.zip"),
                  "--word-dropout", "-1"])
        assert rc == 1
        assert "word_dropout" in capsys.readouterr().err

    def test_train_defaults_come_from_the_dataclasses(self, paths,
                                                      monkeypatch, capsys):
        import spandep.cli as cli_mod
        seen = {}

        def fake_train(model, *args, config, **kwargs):
            seen.update(train=config, model=model.config)
            return SimpleNamespace(history=[], best_epoch=0,
                                   best_dev_fn_f1=0.0)

        monkeypatch.setattr(cli_mod, "train", fake_train)
        monkeypatch.setattr(cli_mod, "save_model", lambda model, path: None)
        rc = cli(["train", "--fn-train", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(paths["dir"] / "m.zip")])
        assert rc == 0, capsys.readouterr().err
        assert seen == {"train": TrainConfig(), "model": ModelConfig()}

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m["hyperparameters"].update(future_knob=1), "future_knob"),
        (lambda m: m.pop("vocabularies"), "vocabularies"),
        (lambda m: m["hyperparameters"].update(max_span_len=0),
         "max_span_len"),
        (lambda m: m["hyperparameters"].update(word_dim="x"), "word_dim"),
        (lambda m: m["hyperparameters"].update(bilstm_dim=5), "bilstm_dim"),
        (lambda m: m["hyperparameters"].update(mlp_dim=0), "mlp_dim"),
        (lambda m: m["hyperparameters"].update(joint="no"), "joint"),
    ], ids=["unknown-hyperparameter", "no-vocabularies", "zero-span-cap",
            "string-width", "odd-bilstm-width", "zero-mlp-width",
            "string-switch"])
    def test_bad_manifest_is_a_located_error(self, paths, corpus, capsys,
                                             edit, key):
        model = ParserModel.build(TINY, corpus["ontology"],
                                  tuple(corpus["dep_labels"]),
                                  corpus["dm_train"],
                                  np.random.default_rng(0))
        manifest = model_manifest(model)
        edit(manifest)
        path = paths["dir"] / "bad.zip"
        save_checkpoint(model.store, manifest, path)
        rc = cli(["predict", "--model", str(path),
                  "--input", str(paths["dm_dev"]), "--format", "sdp",
                  "--output", str(paths["dir"] / "out.sdp")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{path}:" in err and key in err

    def test_train_requires_ontology(self, paths, capsys):
        rc = cli(["train", "--fn-train", str(paths["fn_train"]),
                  "--out", str(paths["dir"] / "m.zip")])
        assert rc == 1
        assert "--ontology" in capsys.readouterr().err

    def test_missing_input_file_is_validation_error(self, paths, capsys):
        rc = cli(["evaluate", "--task", "sdp",
                  "--gold", str(paths["dir"] / "absent.sdp"),
                  "--pred", str(paths["dm_train"])])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_internal_error_exits_two(self, paths, capsys, monkeypatch):
        import spandep.cli as cli_mod
        monkeypatch.setattr(cli_mod, "read_sdp",
                            lambda path: (_ for _ in ()).throw(RuntimeError("boom")))
        rc = cli(["evaluate", "--task", "sdp",
                  "--gold", str(paths["dm_train"]),
                  "--pred", str(paths["dm_train"])])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_fn_prints_perfect_f1(self, paths, capsys):
        rc = cli(["evaluate", "--task", "fn",
                  "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F1 1.000" in out
        assert "frame_accuracy 1.000" in out

    def test_identical_sdp_prints_perfect_f1(self, paths, capsys):
        rc = cli(["evaluate", "--task", "sdp",
                  "--gold", str(paths["dm_train"]),
                  "--pred", str(paths["dm_train"])])
        assert rc == 0
        assert "F1 1.000" in capsys.readouterr().out

    def test_fn_requires_ontology(self, paths, capsys):
        rc = cli(["evaluate", "--task", "fn",
                  "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"])])
        assert rc == 1
        assert "--ontology" in capsys.readouterr().err


class TestOracleCheck:
    def test_hundred_instances_within_tolerance(self, capsys):
        rc = cli(["oracle-check", "--n", "100", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"max objective gap (\S+)", out)
        assert m and float(m.group(1)) <= 1e-6
        m = re.search(r"(\d+) of 100 decodes certified exact, (\d+) with "
                      r"zero ADMM iterations", out)
        assert m and 0 < int(m.group(1)) <= 100
        assert 0 <= int(m.group(2)) <= int(m.group(1))

    def test_impossible_tolerance_fails(self, capsys):
        rc = cli(["oracle-check", "--n", "5", "--seed", "0",
                  "--tolerance", "0"])
        out = capsys.readouterr()
        gap = float(re.search(r"max objective gap (\S+)", out.out).group(1))
        assert (rc == 0) == (gap == 0.0)
        assert "of 5 decodes certified exact" in out.out


class TestTrainPredictRoundTrip:
    def train_args(self, paths, out, extra=()):
        return ["train",
                "--fn-train", str(paths["fn_train"]),
                "--fn-dev", str(paths["fn_dev"]),
                "--dm-train", str(paths["dm_train"]),
                "--dm-dev", str(paths["dm_dev"]),
                "--ontology", str(paths["ontology"]),
                "--out", str(out),
                "--epochs", "1", "--seed", "0", "--word-dropout", "0",
                *extra]

    def test_full_workflow(self, paths, capsys):
        model_path = paths["dir"] / "model.zip"
        log_path = paths["dir"] / "log.tsv"
        rc = cli(self.train_args(paths, model_path,
                                 ("--log", str(log_path))))
        assert rc == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert "saved model" in out
        assert model_path.exists()
        assert len(log_path.read_text().splitlines()) == 1

        pred_fn = paths["dir"] / "pred.jsonl"
        rc = cli(["predict", "--model", str(model_path),
                  "--input", str(paths["fn_dev"]), "--format", "fn",
                  "--output", str(pred_fn)])
        assert rc == 0
        model = load_model(model_path)
        assert len(read_frames(pred_fn, model.ontology)) == 2

        rc = cli(["evaluate", "--task", "fn",
                  "--gold", str(paths["fn_dev"]), "--pred", str(pred_fn),
                  "--ontology", str(paths["ontology"])])
        assert rc == 0
        assert re.search(r"F1 [01]\.\d{3}", capsys.readouterr().out)

        pred_sdp = paths["dir"] / "pred.sdp"
        rc = cli(["predict", "--model", str(model_path),
                  "--input", str(paths["dm_dev"]), "--format", "sdp",
                  "--output", str(pred_sdp)])
        assert rc == 0
        assert len(read_sdp(pred_sdp)) == 2

        rc = cli(["evaluate", "--task", "sdp",
                  "--gold", str(paths["dm_dev"]), "--pred", str(pred_sdp)])
        assert rc == 0

        bk = paths["dir"] / "breakdown.csv"
        lb = paths["dir"] / "lengths.csv"
        rc = cli(["export-analysis", "--gold", str(paths["fn_dev"]),
                  "--pred", str(pred_fn),
                  "--ontology", str(paths["ontology"]),
                  "--error-breakdown", str(bk), "--length-bins", str(lb)])
        assert rc == 0
        assert bk.read_text().splitlines()[0] == "category,count,percent"
        assert lb.read_text().splitlines()[0] == "bin,precision,recall,count"

    def test_embeddings_flag(self, paths, corpus, capsys):
        emb = paths["dir"] / "vectors.txt"
        dim = ModelConfig().word_dim
        word = corpus["fn_train"][0].forms[0]
        emb.write_text(f"{word} " + " ".join(["0.01"] * dim) + "\n",
                       encoding="utf-8")
        model_path = paths["dir"] / "emb-model.zip"
        rc = cli(self.train_args(paths, model_path,
                                 ("--embeddings", str(emb), "--no-joint",
                                  "--no-cross-task")))
        assert rc == 0, capsys.readouterr().err
        assert model_path.exists()

    @pytest.mark.parametrize("flag", ["--no-cross-task", "--no-joint"])
    def test_predict_decodes_the_trained_space(self, paths, corpus, flag,
                                               capsys, monkeypatch):
        import spandep.training as training

        model_path = paths["dir"] / "space.zip"
        assert cli(self.train_args(paths, model_path, (flag,))) == 0, \
            capsys.readouterr().err
        real = training.decode
        spaces = []

        def spy(space, *args, **kwargs):
            spaces.append(space)
            return real(space, *args, **kwargs)

        monkeypatch.setattr(training, "decode", spy)
        pred = paths["dir"] / "space.jsonl"
        assert cli(["predict", "--model", str(model_path),
                    "--input", str(paths["fn_dev"]), "--format", "fn",
                    "--output", str(pred)]) == 0
        assert spaces and not any(sp.cross_ids for sp in spaces)
        if flag == "--no-joint":
            assert not any(sp.head_ids or sp.arc_ids or sp.root_arc_ids
                           or sp.labeled_ids for sp in spaces)

        joint = flag != "--no-joint"
        trained = SpaceLimits(
            max_span_len=20, include_dependencies=joint,
            include_cross_task=False,
            dep_labels=tuple(corpus["dep_labels"]) if joint else ())
        model = load_model(model_path)
        got = read_frames(pred, model.ontology)
        for gold_s, pred_s in zip(corpus["fn_dev"], got):
            for gold_p, pred_p in zip(gold_s.supervision.parses,
                                      pred_s.supervision.parses):
                space = build_candidate_space(gold_s, gold_p.target,
                                              model.ontology, trained)
                want = real(model.scored_space(space), mode="joint").parse
                assert pred_p == want


class TestPredictEnsemble:
    def test_requires_exactly_one_source(self, paths, capsys):
        rc = cli(["predict", "--input", str(paths["fn_dev"]),
                  "--format", "fn", "--output", str(paths["dir"] / "x")])
        assert rc == 1
        rc = cli(["predict", "--model", "a", "--ensemble", "a,b",
                  "--input", str(paths["fn_dev"]),
                  "--format", "fn", "--output", str(paths["dir"] / "x")])
        assert rc == 1

    def test_identical_members_match_single_model(self, paths, corpus,
                                                  capsys):
        model = ParserModel.build(
            TINY, corpus["ontology"], corpus["dep_labels"],
            list(corpus["fn_train"]) + list(corpus["dm_train"]),
            np.random.default_rng(0))
        a = paths["dir"] / "a.zip"
        b = paths["dir"] / "b.zip"
        save_model(model, a)
        save_model(model, b)
        single = paths["dir"] / "single.jsonl"
        double = paths["dir"] / "double.jsonl"
        assert cli(["predict", "--model", str(a),
                    "--input", str(paths["fn_dev"]), "--format", "fn",
                    "--output", str(single)]) == 0
        assert cli(["predict", "--ensemble", f"{a},{b}",
                    "--input", str(paths["fn_dev"]), "--format", "fn",
                    "--output", str(double)]) == 0
        assert single.read_bytes() == double.read_bytes()

    def test_members_with_different_spaces_rejected(self, paths, corpus,
                                                    capsys):
        sents = list(corpus["fn_train"]) + list(corpus["dm_train"])
        members = []
        for name, config in (("joint", TINY),
                             ("basic", replace(TINY, joint=False))):
            model = ParserModel.build(config, corpus["ontology"],
                                      corpus["dep_labels"], sents,
                                      np.random.default_rng(0))
            members.append(paths["dir"] / f"{name}.zip")
            save_model(model, members[-1])
        rc = cli(["predict", "--ensemble", ",".join(map(str, members)),
                  "--input", str(paths["fn_dev"]), "--format", "fn",
                  "--output", str(paths["dir"] / "x.jsonl")])
        assert rc == 1
        assert "disagree on the candidate space" in capsys.readouterr().err


class TestPredictCertification:
    def _model(self, paths, corpus):
        model = ParserModel.build(
            TINY, corpus["ontology"], corpus["dep_labels"],
            list(corpus["fn_train"]) + list(corpus["dm_train"]),
            np.random.default_rng(0))
        path = paths["dir"] / "m.zip"
        save_model(model, path)
        return path

    def test_counts_go_to_stderr(self, paths, corpus, capsys):
        model = self._model(paths, corpus)
        for fmt, name in (("fn", "fn_dev"), ("sdp", "dm_dev")):
            rc = cli(["predict", "--model", str(model),
                      "--input", str(paths[name]), "--format", fmt,
                      "--output", str(paths["dir"] / f"out.{fmt}")])
            assert rc == 0
            got = capsys.readouterr()
            assert "not certified" not in got.out
            assert "0 of 2 decodes not certified exact" in got.err

    def test_rounded_decodes_are_counted(self, paths, corpus, capsys,
                                         monkeypatch):
        import dataclasses

        import spandep.training as training

        real = training.decode
        calls = []

        def first_rounded(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(res)
            if len(calls) == 1:
                res = dataclasses.replace(res, status="rounded")
            return res

        monkeypatch.setattr(training, "decode", first_rounded)
        model = self._model(paths, corpus)
        for fmt, name in (("fn", "fn_dev"), ("sdp", "dm_dev")):
            calls.clear()
            rc = cli(["predict", "--model", str(model),
                      "--input", str(paths[name]), "--format", fmt,
                      "--output", str(paths["dir"] / f"out.{fmt}")])
            assert rc == 0 and len(calls) == 2
            assert "1 of 2 decodes not certified exact" \
                in capsys.readouterr().err


FIT_KEYWORDS = ("epochs", "lr", "seed")


def fit_defaults(fn):
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in FIT_KEYWORDS}


class TestPretrainPruner:
    def test_pretraining_functions_share_fit_defaults(self):
        assert fit_defaults(pretrain_span_pruner) == \
            fit_defaults(pretrain_arc_pruner)

    @pytest.mark.parametrize("kind", ["span", "arc"])
    def test_fit_defaults_come_from_the_functions(self, paths, monkeypatch,
                                                  capsys, kind):
        import spandep.cli as cli_mod
        seen = {}

        def fake_pretrain(corpus, **kwargs):
            seen.update({name: kwargs[name] for name in FIT_KEYWORDS})

        monkeypatch.setattr(cli_mod, f"pretrain_{kind}_pruner", fake_pretrain)
        monkeypatch.setattr(cli_mod, "save_pruner", lambda pruner, path: None)
        train = paths["fn_train" if kind == "span" else "dm_train"]
        rc = cli(["pretrain-pruner", "--kind", kind, "--train", str(train),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(paths["dir"] / "p.zip")])
        assert rc == 0, capsys.readouterr().err
        assert seen == fit_defaults(pretrain_span_pruner if kind == "span"
                                    else pretrain_arc_pruner)

    def test_span_cap_survives_the_checkpoint(self, paths, capsys):
        out = paths["dir"] / "span3.zip"
        rc = cli(["pretrain-pruner", "--kind", "span",
                  "--train", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(out), "--epochs", "1", "--max-span-len", "3"])
        assert rc == 0, capsys.readouterr().err
        _, manifest = load_checkpoint(out)
        assert manifest["hyperparameters"]["max_span_len"] == 3
        pruner = load_pruner(out)
        sent = make_sentence([f"w{i}" for i in range(7)])
        target = Target(0, 0, "x.v")
        spans, _ = pruner.span_posteriors(sent, target)
        assert max(j - i + 1 for i, j in spans) == 3
        assert all(j - i + 1 <= 3
                   for i, j in prune_spans(sent, target, pruner).retained)

    def test_default_config_is_the_pruner_preset(self, paths, capsys):
        out = paths["dir"] / "arc-default.zip"
        rc = cli(["pretrain-pruner", "--kind", "arc",
                  "--train", str(paths["dm_train"]), "--out", str(out),
                  "--epochs", "0"])
        assert rc == 0, capsys.readouterr().err
        assert load_pruner(out).config == ModelConfig.pruner_sized()

    def test_span_pruner(self, paths, capsys):
        out = paths["dir"] / "span.zip"
        rc = cli(["pretrain-pruner", "--kind", "span",
                  "--train", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(out), "--epochs", "1"])
        assert rc == 0, capsys.readouterr().err
        pruner = load_pruner(out)
        assert all(name.startswith(("pr.", "enc")) for name in
                   pruner.store.values)

    def test_arc_pruner(self, paths, capsys):
        out = paths["dir"] / "arc.zip"
        rc = cli(["pretrain-pruner", "--kind", "arc",
                  "--train", str(paths["dm_train"]),
                  "--out", str(out), "--epochs", "1"])
        assert rc == 0, capsys.readouterr().err
        load_pruner(out)

    def test_span_requires_ontology(self, paths, capsys):
        rc = cli(["pretrain-pruner", "--kind", "span",
                  "--train", str(paths["fn_train"]),
                  "--out", str(paths["dir"] / "p.zip")])
        assert rc == 1
        assert "--ontology" in capsys.readouterr().err


class TestExportAnalysis:
    def test_requires_an_output(self, paths, capsys):
        rc = cli(["export-analysis", "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"])])
        assert rc == 1
        assert "--error-breakdown" in capsys.readouterr().err

    def test_perfect_prediction_breakdown(self, paths, capsys):
        bk = paths["dir"] / "bk.csv"
        rc = cli(["export-analysis", "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--error-breakdown", str(bk)])
        assert rc == 0
        rows = bk.read_text().splitlines()
        assert all(row.split(",")[1] == "0" for row in rows[1:])
