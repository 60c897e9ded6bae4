import inspect
import json
import operator
import re
import zipfile
from dataclasses import replace
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spandep.cli import cli
from spandep.formats import (
    FormatError,
    load_checkpoint,
    load_embeddings,
    load_model,
    model_manifest,
    ontology_to_dict,
    read_frames,
    read_ontology,
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

from .test_formats import (
    GOOD_RECORD,
    MISTYPED_RECORDS,
    ONT,
    SDP_FIXTURE,
    corrupt,
    mistyped_record,
)

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
        (lambda m: m["ontology"]["lus"].update({"new.v": ["Nope"]}),
         "new.v"),
        (lambda m: m["ontology"]["frames"].update(Bare={}), "roles"),
        (lambda m: m["ontology"].update(lus=["x"]), "lus"),
        (lambda m: m.update(dep_labels=5), "dep_labels"),
    ], ids=["unknown-hyperparameter", "no-vocabularies", "zero-span-cap",
            "string-width", "odd-bilstm-width", "zero-mlp-width",
            "string-switch", "undefined-frame", "frame-without-roles",
            "list-of-lexical-units", "number-of-labels"])
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

    def test_corrupt_deflated_checkpoint_exits_one(self, paths, corpus,
                                                   capsys):
        model = ParserModel.build(TINY, corpus["ontology"],
                                  tuple(corpus["dep_labels"]),
                                  corpus["dm_train"],
                                  np.random.default_rng(0))
        path = paths["dir"] / "bad.zip"
        save_model(model, path)
        corrupt(path, "deflate-block-type")
        rc = cli(["predict", "--model", str(path),
                  "--input", str(paths["dm_dev"]), "--format", "sdp",
                  "--output", str(paths["dir"] / "out.sdp")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{path}:params/" in err and "unreadable checkpoint" in err

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

    @pytest.mark.parametrize("ontology, key", [
        ({"frames": [], "lus": {}}, "'frames'"),
        ({"frames": {}, "lus": ["x"]}, "'lus'"),
        ({"frames": {"Rest": {"roles": 3}}, "lus": {}}, "'roles'"),
    ], ids=["list-of-frames", "list-of-lexical-units", "number-of-roles"])
    def test_malformed_ontology_is_a_located_error(self, paths, capsys,
                                                   ontology, key):
        bad = paths["dir"] / "bad-ontology.json"
        bad.write_text(json.dumps(ontology), encoding="utf-8")
        rc = cli(["evaluate", "--task", "fn",
                  "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"]),
                  "--ontology", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{bad}:1:" in err and key in err

    def test_target_annotated_twice_exits_one(self, paths, capsys):
        lines = paths["fn_train"].read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec["annotations"].append(dict(rec["annotations"][0], arguments=[]))
        bad = paths["dir"] / "twice.jsonl"
        bad.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        rc = cli(["evaluate", "--task", "fn", "--gold", str(bad),
                  "--pred", str(bad), "--ontology", str(paths["ontology"])])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{bad}:1:" in err and "annotated twice" in err

    @pytest.mark.parametrize("case", MISTYPED_RECORDS)
    def test_mistyped_frame_record_exits_one(self, tmp_path, capsys, case):
        ontology = tmp_path / "ontology.json"
        ontology.write_text(json.dumps(ontology_to_dict(ONT)),
                            encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text(mistyped_record(case), encoding="utf-8")
        rc = cli(["evaluate", "--task", "fn", "--gold", str(bad),
                  "--pred", str(bad), "--ontology", str(ontology)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{bad}:1: {MISTYPED_RECORDS[case][1]}" in err

    def test_fn_requires_ontology(self, paths, capsys):
        rc = cli(["evaluate", "--task", "fn",
                  "--gold", str(paths["fn_train"]),
                  "--pred", str(paths["fn_train"])])
        assert rc == 1
        assert "--ontology" in capsys.readouterr().err


# JSON values to put anywhere in a frame record: wrong types, negative and
# out-of-range ints, empty strings, nested lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)

# key paths into GOOD_RECORD; () is the record itself
RECORD_PATHS = [(), ("id",), ("tokens",), ("tokens", 0), ("lemmas",),
                ("pos", 2), ("annotations",), ("annotations", 0)] + [
    ("annotations", 0) + p for p in (
        ("target",), ("target", 1), ("lu",), ("frame",), ("arguments",),
        ("arguments", 0), ("arguments", 0, "start"),
        ("arguments", 0, "end"), ("arguments", 0, "role"))]


def json_edits(paths):
    """Edits of a JSON value at one of ``paths``: see ``edited``."""
    return st.tuples(st.sampled_from(paths),
                     st.sampled_from(("replace", "delete", "add")),
                     JSON_VALUES)


RECORD_EDITS = json_edits(RECORD_PATHS)

# bytes that are not UTF-8: stray continuation and lead bytes, an encoded
# surrogate, a code point past U+10FFFF
BAD_BYTES = st.sampled_from((b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",
                             b"\xf4\x90\x80\x80"))
# where to put them, if anywhere
JUNK = st.none() | st.tuples(st.integers(0, 2000), BAD_BYTES)


def spoiled(text: str, cut, junk) -> bytes:
    """``text`` as UTF-8, truncated at ``cut`` characters, with ``junk``'s
    bytes inserted at its offset (clamped to the end)."""
    data = text[:cut].encode("utf-8")
    if junk is None:
        return data
    at, bad = junk
    return data[:at] + bad + data[at:]


def edited(base, edits) -> dict:
    """A copy of the JSON value ``base`` after ``edits``: each replaces or
    deletes the value at its path, or adds its value to it (a key ``extra``
    of an object, an item of a list).  An edit whose path no longer
    resolves does nothing."""
    box = {"rec": json.loads(json.dumps(base))}
    for path, action, value in edits:
        *where, key = ("rec",) + path
        try:
            parent = reduce(operator.getitem, where, box)
            if action == "replace":
                parent[key] = value
            elif action == "delete":
                del parent[key]
            elif isinstance(parent[key], dict):
                parent[key]["extra"] = value
            elif isinstance(parent[key], list):
                parent[key].append(value)
        except (KeyError, IndexError, TypeError):
            pass
    return box.get("rec", {})


def located_or_read(reader, path, *args):
    """Run ``reader``: it returns, or raises a FormatError that names
    ``path``."""
    try:
        reader(path, *args)
    except FormatError as err:
        assert str(err).startswith(f"{path}:"), err


MUTATION_SETTINGS = settings(
    max_examples=60, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMutatedFrameRecords:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(RECORD_EDITS, min_size=1, max_size=3),
           cut=st.none() | st.integers(0, 200), junk=JUNK)
    def test_read_or_located_error(self, tmp_path, edits, cut, junk):
        # a mutated record, perhaps truncated or not UTF-8, after a good
        # one: the reader returns or raises FormatError, and evaluate exits
        # 0 or 1
        ontology = tmp_path / "ontology.json"
        ontology.write_text(json.dumps(ontology_to_dict(ONT)),
                            encoding="utf-8")
        good = json.dumps(GOOD_RECORD) + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(spoiled(
            good + json.dumps(edited(GOOD_RECORD, edits))[:cut] + "\n",
            None, junk))
        located_or_read(read_frames, bad, ONT)
        rc = cli(["evaluate", "--task", "fn", "--gold", str(bad),
                  "--pred", str(bad), "--ontology", str(ontology)])
        assert rc in (0, 1)


# cell values for SDP tables: flags, ids, labels, separators, blanks
SDP_CELLS = st.sampled_from(("", "+", "-", "_", "0", "1", "2", "4", "#s",
                             "arg1", " ", "\t", "\r")) | st.text(max_size=3)
SDP_EDITS = st.tuples(
    st.integers(0, 12),
    st.sampled_from(("replace", "delete", "add", "drop-line", "copy-line")),
    st.integers(0, 8), SDP_CELLS)


def edited_table(text: str, sep: str, edits) -> str:
    """``text`` after ``edits``, each on one line (by index): insert,
    replace or delete a ``sep``-separated cell (by index, clamped), or drop
    or duplicate the line.  An edit of a line or cell that is not there
    does nothing."""
    lines = [line.split(sep) for line in text.split("\n")]
    for row, action, col, value in edits:
        if row >= len(lines):
            continue
        cells = lines[row]
        col = min(col, len(cells) - 1)
        if action == "drop-line":
            del lines[row]
        elif action == "copy-line":
            lines.insert(row, list(cells))
        elif action == "add":
            cells.insert(col, value)
        elif not cells:
            continue
        elif action == "replace":
            cells[col] = value
        else:
            del cells[col]
    return "\n".join(sep.join(cells) for cells in lines)


class TestMutatedSdpTables:
    @MUTATION_SETTINGS
    @given(edits=st.lists(SDP_EDITS, min_size=1, max_size=3),
           cut=st.none() | st.integers(0, 200), junk=JUNK)
    def test_read_or_located_error(self, tmp_path, edits, cut, junk):
        bad = tmp_path / "bad.sdp"
        bad.write_bytes(spoiled(edited_table(SDP_FIXTURE, "\t", edits),
                                cut, junk))
        located_or_read(read_sdp, bad)
        rc = cli(["evaluate", "--task", "sdp", "--gold", str(bad),
                  "--pred", str(bad)])
        assert rc in (0, 1)


# cells of an embeddings line: words, numbers, spellings of non-finite
# values, separators, blanks
EMBEDDING_CELLS = st.sampled_from(
    ("", " ", "\t", "\r", "a", "sit", "x", "0", "-0.5", "2", "1e400", "nan",
     "inf", "-inf", "0x1", "1_0")) | st.text(max_size=3)
EMBEDDING_EDITS = st.tuples(
    st.integers(0, 3),
    st.sampled_from(("replace", "delete", "add", "drop-line", "copy-line")),
    st.integers(0, 110), EMBEDDING_CELLS)


class TestMutatedEmbeddings:
    @MUTATION_SETTINGS
    @given(edits=st.lists(EMBEDDING_EDITS, min_size=1, max_size=3),
           cut=st.none() | st.integers(0, 2000), junk=JUNK)
    @example(edits=[(1, "replace", 7, "nan")], cut=None, junk=None)
    @example(edits=[(0, "replace", 100, "1e400")], cut=None, junk=None)
    def test_read_or_located_error(self, paths, edits, cut, junk):
        # vectors of the encoder's width for a corpus word and an unknown
        # one; a training run of zero epochs reads them, builds the model
        # and saves it
        width = ModelConfig().word_dim
        text = "\n".join(f"{w} " + " ".join(["0.25"] * width)
                         for w in ("a", "zzz")) + "\n"
        bad = paths["dir"] / "vectors.txt"
        bad.write_bytes(spoiled(edited_table(text, " ", edits), cut, junk))
        try:
            vectors = load_embeddings(bad)
        except FormatError as err:
            assert str(err).startswith(f"{bad}:"), err
        else:
            assert all(np.isfinite(v).all() for v in vectors.values())
        rc = cli(["train", "--fn-train", str(paths["fn_train"]),
                  "--ontology", str(paths["ontology"]),
                  "--out", str(paths["dir"] / "emb.zip"),
                  "--epochs", "0", "--embeddings", str(bad)])
        assert rc in (0, 1)


ONTOLOGY_PATHS = [(), ("frames",), ("frames", "Meet"),
                  ("frames", "Meet", "roles"), ("frames", "Meet", "roles", 1),
                  ("lus",), ("lus", "sit.v"), ("lus", "sit.v", 0),
                  ("lus", "run.v")]


class TestMutatedOntologies:
    @MUTATION_SETTINGS
    @given(edits=st.lists(json_edits(ONTOLOGY_PATHS), min_size=1,
                          max_size=3),
           cut=st.none() | st.integers(0, 200), junk=JUNK)
    def test_read_or_located_error(self, tmp_path, edits, cut, junk):
        bad = tmp_path / "ontology.json"
        text = json.dumps(edited(ontology_to_dict(ONT), edits), indent=1)
        bad.write_bytes(spoiled(text, cut, junk))
        located_or_read(read_ontology, bad)
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
        rc = cli(["evaluate", "--task", "fn", "--gold", str(frames),
                  "--pred", str(frames), "--ontology", str(bad)])
        assert rc in (0, 1)


MANIFEST_PATHS = [
    (), ("format_version",), ("kind",), ("hyperparameters",),
    ("hyperparameters", "word_dim"), ("hyperparameters", "bilstm_layers"),
    ("hyperparameters", "joint"), ("hyperparameters", "word_dropout"),
    ("vocabularies",), ("vocabularies", "words"),
    ("vocabularies", "words", 1), ("vocabularies", "lemmas"),
    ("vocabularies", "pos", 0), ("vocabularies", "word_counts"),
    ("vocabularies", "word_counts", "b"), ("dep_labels",), ("dep_labels", 0),
    ("ontology",), ("ontology", "frames", "Rest"), ("ontology", "lus"),
    ("ontology_hash",), ("notes",)]


class TestMutatedManifests:
    @MUTATION_SETTINGS
    @given(edits=st.lists(json_edits(MANIFEST_PATHS), min_size=1,
                          max_size=3),
           cut=st.none() | st.integers(0, 2000), junk=JUNK)
    def test_load_or_located_error(self, tmp_path, edits, cut, junk):
        model = ParserModel.build(
            TINY, ONT, ("arg1", "arg2"),
            [make_sentence(["a", "b", "c"], ["a", "b", "sit"])],
            np.random.default_rng(0))
        good, bad = tmp_path / "good.zip", tmp_path / "bad.zip"
        save_model(model, good)
        manifest = edited(load_checkpoint(good)[1], edits)
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
            for info in src.infolist():
                data = src.read(info)
                if info.filename == "manifest.json":
                    data = spoiled(json.dumps(manifest, indent=1), cut, junk)
                dst.writestr(info, data)
        located_or_read(load_model, bad)
        requests = tmp_path / "requests.sdp"
        requests.write_text(SDP_FIXTURE, encoding="utf-8")
        rc = cli(["predict", "--model", str(bad), "--input", str(requests),
                  "--format", "sdp", "--output", str(tmp_path / "out.sdp")])
        assert rc in (0, 1)


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

    def test_wrong_width_embeddings_exit_one(self, paths, corpus, capsys):
        emb = paths["dir"] / "vectors.txt"
        word = corpus["fn_train"][0].forms[0]
        emb.write_text(f"{word} 0.1 0.2 0.3\n", encoding="utf-8")
        model_path = paths["dir"] / "emb-model.zip"
        rc = cli(self.train_args(paths, model_path,
                                 ("--embeddings", str(emb))))
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"{emb}:1: vectors are 3-dimensional but the encoder " \
            f"expects {ModelConfig().word_dim}" in err
        assert not model_path.exists()

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
            assert re.search(r"candidate parts per space: mean \d+\.\d, "
                             r"max \d+\n", got.err)

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
