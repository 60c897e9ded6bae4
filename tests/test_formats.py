import io
import json
import re
import struct
import tracemalloc
import warnings
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from spandep.autodiff import ParameterStore
from spandep.formats import (
    FormatError,
    load_checkpoint,
    load_embeddings,
    load_model,
    ontology_hash,
    read_frames,
    read_ontology,
    read_sdp,
    save_checkpoint,
    save_model,
    write_frames,
    write_sdp,
)
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    SpandepError,
    Target,
    make_sentence,
)

ONT = Ontology({"sit.v": ("Rest", "Meet"), "run.v": ("Motion",)},
               {"Rest": ("Agent",), "Meet": ("Agent", "Place"),
                "Motion": ("Mover",)})


SDP_FIXTURE = (
    "#s1\n"
    "1\tthe\tthe\tDT\t-\t-\n"
    "2\tcat\tcat\tNN\t-\t-\n"
    "3\tsat\tsit\tVB\t+\t-\n"
    "\n"
    "#s2\n"
    "1\ta\ta\tDT\t-\t-\n"
    "2\tb\tb\tNN\t-\t-\n"
    "\n"
    "#s3\n"
    "1\tdogs\tdog\tNN\t-\t+\t_\targ2\n"
    "2\tbark\tbark\tVB\t+\t+\targ1\t_\n"
    "\n"
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestSdpRead:
    def test_empty_file(self, tmp_path):
        assert read_sdp(_write(tmp_path, "e.sdp", "")) == []

    def test_two_token_fixture(self, tmp_path):
        text = ("#x\n"
                "1\ta\ta\tX\t-\t+\t_\n"
                "2\tb\tb\tX\t+\t-\targ1\n\n")
        (s,) = read_sdp(_write(tmp_path, "x.sdp", text))
        assert s.id == "x"
        assert s.supervision.arcs == {(0, 1, "arg1")}
        assert s.supervision.top == 1

    def test_fixture_contents(self, tmp_path):
        sents = read_sdp(_write(tmp_path, "f.sdp", SDP_FIXTURE))
        assert [s.id for s in sents] == ["s1", "s2", "s3"]
        assert sents[0].supervision.arcs == frozenset()
        assert sents[0].supervision.top == 2
        assert sents[1].supervision.arcs == frozenset()
        assert sents[1].supervision.top is None
        assert sents[2].supervision.arcs == {(1, 0, "arg2"), (0, 1, "arg1")}

    def test_round_trip_byte_exact(self, tmp_path):
        src = _write(tmp_path, "in.sdp", SDP_FIXTURE)
        out = tmp_path / "out.sdp"
        write_sdp(read_sdp(src), out)
        assert out.read_bytes() == src.read_bytes()

    def test_ragged_row_located(self, tmp_path):
        text = "#x\n1\ta\ta\tX\t-\t-\n2\tb\tb\tX\t-\n\n"
        with pytest.raises(FormatError, match=r":3: ragged"):
            read_sdp(_write(tmp_path, "r.sdp", text))

    def test_bad_flag_located(self, tmp_path):
        text = "1\ta\ta\tX\t?\t-\n\n"
        with pytest.raises(FormatError, match=r":1: bad flag"):
            read_sdp(_write(tmp_path, "b.sdp", text))

    def test_column_count_mismatch(self, tmp_path):
        text = "1\ta\ta\tX\t-\t+\n2\tb\tb\tX\t-\t+\n\n"
        with pytest.raises(FormatError, match="argument columns"):
            read_sdp(_write(tmp_path, "c.sdp", text))

    def test_multiple_tops_rejected(self, tmp_path):
        text = "1\ta\ta\tX\t+\t-\n2\tb\tb\tX\t+\t-\n\n"
        with pytest.raises(FormatError, match=r":2: multiple top"):
            read_sdp(_write(tmp_path, "t.sdp", text))

    def test_self_arc_rejected(self, tmp_path):
        text = "1\ta\ta\tX\t-\t+\targ1\n\n"
        with pytest.raises(FormatError, match="self arc"):
            read_sdp(_write(tmp_path, "s.sdp", text))

    def test_token_id_mismatch(self, tmp_path):
        text = "1\ta\ta\tX\t-\t-\n3\tb\tb\tX\t-\t-\n\n"
        with pytest.raises(FormatError, match=r":2: token id"):
            read_sdp(_write(tmp_path, "i.sdp", text))

    def test_comment_inside_block(self, tmp_path):
        text = "1\ta\ta\tX\t-\t-\n#late\n\n"
        with pytest.raises(FormatError, match="comment inside"):
            read_sdp(_write(tmp_path, "m.sdp", text))

    def test_invalid_utf8_located(self, tmp_path):
        p = tmp_path / "bad.sdp"
        p.write_bytes(SDP_FIXTURE.encode().replace(b"bark", b"b\xffrk"))
        with pytest.raises(FormatError, match=r"bad\.sdp:12: not UTF-8"):
            read_sdp(p)

    def test_missing_final_blank_line_tolerated(self, tmp_path):
        text = "#x\n1\ta\ta\tX\t-\t-\n"
        (s,) = read_sdp(_write(tmp_path, "nb.sdp", text))
        assert len(s) == 1


class TestSdpWrite:
    def test_write_requires_graph(self, tmp_path):
        s = make_sentence(["a"], id="q")
        with pytest.raises(SpandepError, match="no dependency graph"):
            write_sdp([s], tmp_path / "x.sdp")

    def test_duplicate_arc_rejected(self, tmp_path):
        g = DependencyGraph(frozenset({(0, 1, "x"), (0, 1, "y")}))
        s = make_sentence(["a", "b"], id="q", supervision=g)
        with pytest.raises(SpandepError, match="duplicate arc"):
            write_sdp([s], tmp_path / "x.sdp")

    def test_write_read_recovers_arcs(self, tmp_path):
        g = DependencyGraph(frozenset({(2, 0, "A"), (2, 1, "B"), (0, 2, "C")}),
                            top=2)
        s = make_sentence(["a", "b", "c"], id="q", supervision=g)
        p = tmp_path / "x.sdp"
        write_sdp([s], p)
        (back,) = read_sdp(p)
        assert back.supervision == g
        assert back.forms == ("a", "b", "c")


class TestFrames:
    def test_write_requires_frame_annotations(self, tmp_path):
        s = make_sentence(["a"], id="q", supervision=DependencyGraph())
        with pytest.raises(SpandepError,
                           match="sentence 'q' carries no frame annotations"):
            write_frames([s], tmp_path / "x.jsonl")

    def test_round_trip(self, tmp_path):
        parse = FrameParse(Target(2, 2, "sit.v"), "Meet",
                           frozenset({(0, 1, "Agent")}))
        s = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                          ["DT", "NN", "VB"], id="fr1",
                          supervision=FrameAnnotations((parse,)))
        p = tmp_path / "f.jsonl"
        write_frames([s], p)
        (back,) = read_frames(p, ONT)
        assert back.supervision == s.supervision
        assert back.forms == s.forms and back.id == "fr1"

    def test_invalid_utf8_located(self, tmp_path):
        good = json.dumps(GOOD_RECORD).encode() + b"\n"
        p = tmp_path / "bad.jsonl"
        p.write_bytes(good + good.replace(b'"x"', b'"\xc3"'))
        with pytest.raises(FormatError, match=r"bad\.jsonl:2: not UTF-8"):
            read_frames(p, ONT)

    def test_bad_role_names_frame_and_role(self, tmp_path):
        rec = ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], '
               '"annotations": [{"target": [0, 0], "lu": "sit.v", '
               '"frame": "Rest", "arguments": '
               '[{"start": 0, "end": 0, "role": "Place"}]}]}\n')
        with pytest.raises(FormatError, match=r"'Place' not in frame 'Rest'"):
            read_frames(_write(tmp_path, "f.jsonl", rec), ONT)

    def test_unknown_field_rejected(self, tmp_path):
        rec = ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], '
               '"annotations": [], "extra": 1}\n')
        with pytest.raises(FormatError, match=r":1: unknown field 'extra'"):
            read_frames(_write(tmp_path, "f.jsonl", rec), ONT)

    def test_bad_json_located(self, tmp_path):
        good = ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], '
                '"annotations": []}\n')
        with pytest.raises(FormatError, match=r":2: bad JSON"):
            read_frames(_write(tmp_path, "f.jsonl", good + "{oops\n"), ONT)

    def test_unlicensed_frame(self, tmp_path):
        rec = ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], '
               '"annotations": [{"target": [0, 0], "lu": "run.v", '
               '"frame": "Rest", "arguments": []}]}\n')
        with pytest.raises(FormatError, match="not licensed"):
            read_frames(_write(tmp_path, "f.jsonl", rec), ONT)

    def test_overlapping_arguments_located(self, tmp_path):
        rec = ('{"id": "x", "tokens": ["a", "b"], "lemmas": ["a", "b"], '
               '"pos": ["X", "X"], '
               '"annotations": [{"target": [0, 0], "lu": "sit.v", '
               '"frame": "Meet", "arguments": '
               '[{"start": 0, "end": 1, "role": "Agent"}, '
               '{"start": 1, "end": 1, "role": "Place"}]}]}\n')
        with pytest.raises(FormatError, match=r":1: overlapping"):
            read_frames(_write(tmp_path, "f.jsonl", rec), ONT)

    def test_target_annotated_twice_located(self, tmp_path):
        good = ('{"id": "x", "tokens": ["a"], "lemmas": ["a"], "pos": ["X"], '
                '"annotations": []}\n')
        ann = ('{"target": [0, 0], "lu": "sit.v", "frame": "Meet", '
               '"arguments": [%s]}')
        rec = ('{"id": "y", "tokens": ["a", "b"], "lemmas": ["a", "b"], '
               '"pos": ["X", "X"], "annotations": [' + ann % "" + ", "
               + ann % '{"start": 1, "end": 1, "role": "Place"}' + ']}\n')
        with pytest.raises(FormatError,
                           match=r":2: target span \[0, 0\] annotated twice"):
            read_frames(_write(tmp_path, "f.jsonl", good + rec), ONT)

    def test_length_mismatch(self, tmp_path):
        rec = ('{"id": "x", "tokens": ["a", "b"], "lemmas": ["a"], '
               '"pos": ["X", "X"], "annotations": []}\n')
        with pytest.raises(FormatError, match="length mismatch"):
            read_frames(_write(tmp_path, "f.jsonl", rec), ONT)


# a valid frame record: one target with one argument, read against ONT
GOOD_RECORD = {"id": "x", "tokens": ["a", "b", "c"],
               "lemmas": ["a", "b", "sit"], "pos": ["X", "X", "VB"],
               "annotations": [{"target": [2, 2], "lu": "sit.v",
                                "frame": "Meet", "arguments": [
                                    {"start": 0, "end": 1, "role": "Agent"}]}]}


def _annotation(**fields):
    return lambda rec: rec["annotations"][0].update(fields)


def _argument(**fields):
    return lambda rec: rec["annotations"][0]["arguments"][0].update(fields)


# each edit of GOOD_RECORD, and the field its error must name
MISTYPED_RECORDS = {
    "target-triple": (_annotation(target=[0, 0, 1]),
                      "'target' must be a pair of ints"),
    "target-bools": (_annotation(target=[False, True]),
                     "'target' must be a pair of ints"),
    "string-start": (_argument(start="1"), "'start' must be an int"),
    "bool-start": (_argument(start=True), "'start' must be an int"),
    "float-end": (_argument(end=1.0), "'end' must be an int"),
    "list-lu": (_annotation(lu=["sit.v"]), "'lu' must be a string"),
    "list-frame": (_annotation(frame=["Meet"]), "'frame' must be a string"),
    "list-role": (_argument(role=["Agent"]), "'role' must be a string"),
    "string-tokens": (lambda rec: rec.update(tokens="abc", lemmas="abs",
                                             pos="XXV"),
                      "'tokens' must be a list of strings"),
    "number-lemma": (lambda rec: rec["lemmas"].__setitem__(0, 1),
                     "'lemmas' must be a list of strings"),
    "object-annotations": (lambda rec: rec.update(annotations={}),
                           "'annotations' must be a list"),
    "string-arguments": (_annotation(arguments="Agent"),
                         "'arguments' must be a list"),
    "null-id": (lambda rec: rec.update(id=None), "'id' must be a string"),
    "list-id": (lambda rec: rec.update(id=[2]), "'id' must be a string"),
    "int-id": (lambda rec: rec.update(id=1), "'id' must be a string"),
}


def mistyped_record(case) -> str:
    """GOOD_RECORD with ``MISTYPED_RECORDS[case]``'s edit, as a JSON line."""
    rec = json.loads(json.dumps(GOOD_RECORD))
    MISTYPED_RECORDS[case][0](rec)
    return json.dumps(rec) + "\n"


class TestMistypedFrameRecords:
    @pytest.mark.parametrize("case", MISTYPED_RECORDS)
    def test_located_error_names_the_field(self, tmp_path, case):
        path = _write(tmp_path, "f.jsonl", mistyped_record(case))
        want = MISTYPED_RECORDS[case][1]
        with pytest.raises(FormatError, match=rf":1: {re.escape(want)}"):
            read_frames(path, ONT)


class TestOntologyFile:
    GOOD = ('{"frames": {"Rest": {"roles": ["Agent"]}}, '
            '"lus": {"sit.v": ["Rest"]}}')

    def test_reads(self, tmp_path):
        ont = read_ontology(_write(tmp_path, "o.json", self.GOOD))
        assert ont.frames_for("sit.v") == ("Rest",)
        assert ont.roles_for("Rest") == ("Agent",)

    def test_undefined_frame(self, tmp_path):
        bad = '{"frames": {}, "lus": {"sit.v": ["Rest"]}}'
        with pytest.raises(FormatError, match="undefined frame"):
            read_ontology(_write(tmp_path, "o.json", bad))

    def test_unknown_top_level_key(self, tmp_path):
        bad = self.GOOD[:-1] + ', "notes": []}'
        with pytest.raises(FormatError, match="unknown field"):
            read_ontology(_write(tmp_path, "o.json", bad))

    def test_invalid_utf8_located(self, tmp_path):
        text = json.dumps(json.loads(self.GOOD), indent=1)
        p = tmp_path / "bad.json"
        p.write_bytes(text.encode().replace(b"Agent", b"Ag\x80nt"))
        line = next(k for k, row in enumerate(text.splitlines(), start=1)
                    if "Agent" in row)
        with pytest.raises(FormatError, match=rf"bad\.json:{line}: not UTF-8"):
            read_ontology(p)

    def test_unknown_frame_key(self, tmp_path):
        bad = ('{"frames": {"Rest": {"roles": [], "color": 1}}, "lus": {}}')
        with pytest.raises(FormatError, match="unknown field 'color'"):
            read_ontology(_write(tmp_path, "o.json", bad))


class TestEmbeddings:
    def test_basic(self, tmp_path):
        p = _write(tmp_path, "e.txt", "cat 1 2 3\ndog 4 5 6\n")
        emb = load_embeddings(p)
        np.testing.assert_array_equal(emb["cat"], [1, 2, 3])
        np.testing.assert_array_equal(emb["dog"], [4, 5, 6])

    def test_inconsistent_width_located(self, tmp_path):
        p = _write(tmp_path, "e.txt", "cat 1 2 3\ndog 4 5\n")
        with pytest.raises(FormatError, match=r":2: vector of width 2"):
            load_embeddings(p)

    def test_duplicate_last_wins(self, tmp_path):
        p = _write(tmp_path, "e.txt", "cat 1 2\ncat 3 4\n")
        np.testing.assert_array_equal(load_embeddings(p)["cat"], [3, 4])

    def test_non_numeric_located(self, tmp_path):
        p = _write(tmp_path, "e.txt", "cat 1 2\ndog x 4\n")
        with pytest.raises(FormatError, match=r":2: non-numeric"):
            load_embeddings(p)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            load_embeddings(_write(tmp_path, "e.txt", ""))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_located(self, tmp_path, value):
        p = _write(tmp_path, "e.txt", f"cat 1 2\ndog {value} 1\n")
        with pytest.raises(FormatError, match=r"e\.txt:2: non-finite"):
            load_embeddings(p)

    def test_invalid_utf8_located(self, tmp_path):
        # the bad byte lies past the first chunk the text reader decodes
        lines = [f"w{k} 1 2\n".encode() for k in range(3000)]
        lines[2499] = b"w\xed\xa0\x80 1 2\n"  # an encoded surrogate
        p = tmp_path / "bad.txt"
        p.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=r"bad\.txt:2500: not UTF-8"):
            load_embeddings(p)


TINY_CONFIG = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3,
                          rank=2, label_dim=3, bilstm_layers=1, bilstm_dim=4)


def tiny_model(seed=0):
    sent = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                         ["DT", "NN", "VB"])
    return ParserModel.build(TINY_CONFIG, ONT, ("a1", "a2"), [sent],
                             np.random.default_rng(seed))


def _store_of(params):
    store = ParameterStore()
    for k, v in params.items():
        store.add(k, v.shape, init="zeros")[...] = v
    return store


def _add_frame(m, roles, lu=None):
    m["ontology"]["frames"]["Bare"] = {} if roles is None else {"roles": roles}
    if lu is not None:
        m["ontology"]["lus"][lu] = ["Bare"]


BAD_MANIFESTS = {
    "unknown-hyperparameter": (
        lambda m: m["hyperparameters"].update(future_knob=1),
        "hyperparameters", "unknown field 'future_knob'"),
    "no-vocabularies": (lambda m: m.pop("vocabularies"), "manifest",
                        "missing field 'vocabularies'"),
    "no-lexical-units": (lambda m: m["ontology"].pop("lus"), "ontology",
                         "missing field 'lus'"),
    "zero-span-cap": (lambda m: m["hyperparameters"].update(max_span_len=0),
                      "hyperparameters", "max_span_len must be at least 1"),
    "string-width": (lambda m: m["hyperparameters"].update(word_dim="x"),
                     "hyperparameters", "word_dim must be an int, got 'x'"),
    "odd-bilstm-width": (lambda m: m["hyperparameters"].update(bilstm_dim=5),
                         "hyperparameters", "bilstm_dim must be even, got 5"),
    "zero-mlp-width": (lambda m: m["hyperparameters"].update(mlp_dim=0),
                       "hyperparameters", "mlp_dim must be at least 1"),
    "string-switch": (lambda m: m["hyperparameters"].update(joint="no"),
                      "hyperparameters", "joint must be a bool, got 'no'"),
    "undefined-frame": (
        lambda m: m["ontology"]["lus"].update({"new.v": ["Nope"]}),
        "ontology", "lexical unit 'new.v' lists undefined frame 'Nope'"),
    "frame-without-roles": (lambda m: _add_frame(m, None), "ontology",
                            "missing field 'roles'"),
    "frame-with-no-roles": (lambda m: _add_frame(m, [], lu="bare.v"),
                            "ontology",
                            "frame 'Bare' reachable from 'bare.v' has no roles"),
    "list-of-lexical-units": (lambda m: m["ontology"].update(lus=["x"]),
                              "ontology", "'lus' must be an object"),
    "number-of-labels": (lambda m: m.update(dep_labels=5), "manifest",
                         "'dep_labels' must be a list of strings"),
    "repeated-label": (lambda m: m.update(dep_labels=["a1", "a1"]),
                       "manifest", "'dep_labels' repeats a label"),
    "list-of-hyperparameters": (lambda m: m.update(hyperparameters=[]),
                                "manifest",
                                "'hyperparameters' must be an object"),
    "list-of-vocabularies": (lambda m: m.update(vocabularies=["words"]),
                             "manifest", "'vocabularies' must be an object"),
    "number-of-words": (lambda m: m["vocabularies"].update(words=5),
                        "vocabularies", "'words' must be a list of strings"),
    "number-of-tags": (lambda m: m["vocabularies"]["pos"].append(1),
                       "vocabularies", "'pos' must be a list of strings"),
    "list-of-word-counts": (
        lambda m: m["vocabularies"].update(word_counts=[1, 2]),
        "vocabularies", "'word_counts' must be an object of nonnegative ints"),
    "string-word-count": (
        lambda m: m["vocabularies"].update(word_counts={"a": "x"}),
        "vocabularies", "'word_counts' must be an object of nonnegative ints"),
    "bool-word-count": (
        lambda m: m["vocabularies"].update(word_counts={"a": True}),
        "vocabularies", "'word_counts' must be an object of nonnegative ints"),
    "negative-word-count": (
        lambda m: m["vocabularies"].update(word_counts={"a": -1}),
        "vocabularies", "'word_counts' must be an object of nonnegative ints"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
@pytest.mark.parametrize("kind", ["model", "pruner"])
def test_bad_manifest_names_path_and_key(tmp_path, kind, case):
    from spandep.formats import model_manifest
    from spandep.pruning import PrunerModel, load_pruner
    edit, where, message = BAD_MANIFESTS[case]
    if kind == "model":
        model, load = tiny_model(), load_model
    else:
        model = PrunerModel.build([make_sentence(["a", "b"])],
                                  np.random.default_rng(0))
        load = load_pruner
    manifest = model_manifest(model, kind=kind)
    edit(manifest)
    p = tmp_path / f"{kind}.ckpt"
    save_checkpoint(model.store, manifest, p)
    with pytest.raises(FormatError) as err:
        load(p)
    assert (err.value.path, err.value.where) == (str(p), where)
    assert str(err.value) == f"{p}:{where}: {message}"


class TestCheckpoints:
    def test_bitwise_round_trip(self, tmp_path):
        store = ParameterStore()
        rng = np.random.default_rng(1)
        store.add("a.w", (3, 4), rng=rng)
        store.add("b", (5,), init="zeros")[...] = rng.normal(size=5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(store, {"kind": "model"}, p)
        params, manifest = load_checkpoint(p)
        assert manifest["kind"] == "model"
        assert manifest["format_version"] == 1
        for name, value in store.values.items():
            assert params[name].dtype == np.float64
            np.testing.assert_array_equal(params[name], value)

    def test_truncated_rejected(self, tmp_path):
        store = ParameterStore()
        store.add("w", (64, 64), rng=np.random.default_rng(0))
        p = tmp_path / "m.ckpt"
        save_checkpoint(store, {}, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="unreadable checkpoint"):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "m.ckpt"
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", '{"format_version": 99}')
        with pytest.raises(FormatError, match="format version 99,"):
            load_checkpoint(p)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_must_be_the_int(self, tmp_path, version):
        p = tmp_path / "m.ckpt"
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", f'{{"format_version": {version}}}')
        want = {"true": "True"}.get(version, version)
        with pytest.raises(FormatError, match=f"format version {want},"):
            load_checkpoint(p)

    @pytest.mark.parametrize("members", [
        {"README": "x"}, {"manifest.json": "{format_version: 1}"},
    ], ids=["no-manifest", "manifest-not-json"])
    def test_bad_manifest_member_is_named(self, tmp_path, members):
        p = tmp_path / "m.ckpt"
        with zipfile.ZipFile(p, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(FormatError, match="unreadable checkpoint") as err:
            load_checkpoint(p)
        assert err.value.where == "manifest.json"

    @pytest.mark.parametrize("manifest", ["[1]", '"model"', "null"])
    def test_manifest_must_be_an_object(self, tmp_path, manifest):
        p = tmp_path / "m.ckpt"
        with zipfile.ZipFile(p, "w") as zf:
            zf.writestr("manifest.json", manifest)
        with pytest.raises(FormatError) as err:
            load_model(p)
        assert str(err.value) == (
            f"{p}:manifest: the manifest must be an object")

    def test_model_round_trip_scores(self, tmp_path):
        from spandep.parts import SpaceLimits, build_candidate_space
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        back = load_model(p)
        for name in model.store.values:
            np.testing.assert_array_equal(back.store.values[name],
                                          model.store.values[name])
        sent = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                             ["DT", "NN", "VB"])
        space = build_candidate_space(
            sent, Target(2, 2, "sit.v"), ONT,
            SpaceLimits(max_span_len=2, dep_labels=("a1", "a2")))
        np.testing.assert_array_equal(model.scored_space(space).scores,
                                      back.scored_space(space).scores)

    def test_manifest_without_space_fields_loads_defaults(self, tmp_path):
        # Checkpoints written before the space fields joined ModelConfig
        # carry none of them; they load with the defaults and predict over
        # the space prediction always rebuilt for them.
        from spandep.formats import model_manifest, save_checkpoint
        from spandep.parts import FrameAnnotations, FrameParse, SpaceLimits
        from spandep.training import predict_dependencies, predict_frames
        model = tiny_model()
        manifest = model_manifest(model)
        for key in ("max_span_len", "joint", "include_cross_task"):
            del manifest["hyperparameters"][key]
        p = tmp_path / "old.ckpt"
        save_checkpoint(model.store, manifest, p)
        back = load_model(p)
        assert back.config == model.config
        assert back.config.fn_limits(back.dep_labels) == SpaceLimits(
            max_span_len=20, include_dependencies=True,
            include_cross_task=True, dep_labels=("a1", "a2"))

        parse = FrameParse(Target(2, 2, "sit.v"), "Rest", frozenset())
        sent = make_sentence(["the", "cat", "sat"], ["the", "cat", "sit"],
                             ["DT", "NN", "VB"],
                             supervision=FrameAnnotations((parse,)))
        (pred,) = predict_frames(back, [sent])
        (want,) = predict_frames(model, [sent])
        assert pred == want
        bare = make_sentence(["the", "cat", "sat"])
        assert predict_dependencies(back, [bare]) == \
            predict_dependencies(model, [bare])

    def test_pruner_flag_blocks_model_load(self, tmp_path):
        from spandep.formats import model_manifest
        model = tiny_model()
        p = tmp_path / "p.ckpt"
        save_checkpoint(model.store, model_manifest(model, kind="pruner"), p)
        with pytest.raises(FormatError, match="kind 'pruner'"):
            load_model(p)

    def test_ontology_hash_mismatch(self, tmp_path):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        other = Ontology({"x.v": ("F",)}, {"F": ("R",)})
        with pytest.raises(FormatError, match="ontology hash.*load without "
                                              "an ontology"):
            load_model(p, ontology=other)

    def test_matching_ontology_loads_quietly(self, tmp_path):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_model(p, ontology=ONT)

    def test_shape_mismatch_located(self, tmp_path):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        params, manifest = load_checkpoint(p)
        import io as _io
        with zipfile.ZipFile(p, "w") as zf:
            import json as _json
            zf.writestr("manifest.json", _json.dumps(manifest))
            for name, value in params.items():
                if name == "sc.w1":
                    value = value[:, :-1]
                buf = _io.BytesIO()
                np.save(buf, value)
                zf.writestr(f"params/{name}.npy", buf.getvalue())
        with pytest.raises(FormatError, match=r"'sc\.w1' has shape"):
            load_model(p)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_parameter_set_mismatch_located(self, tmp_path, change):
        model = tiny_model()
        params = dict(model.store.values)
        if change == "missing":
            name = "sc.v2"
            del params[name]
        else:
            name = "sc.zz"
            params[name] = np.zeros(2)
        from spandep.formats import model_manifest
        p = tmp_path / "m.ckpt"
        save_checkpoint(_store_of(params), model_manifest(model), p)
        with pytest.raises(FormatError,
                           match=f"parameter set mismatch near '{name}'"):
            load_model(p)

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        # the store takes each checkpoint array as the model adds it, so
        # loading draws no initial value only to overwrite it
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        calls = []
        make_rng = np.random.default_rng

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: Recording(make_rng(*args)))
        back = load_model(p)
        assert calls == []
        assert_same_params(model, back)

    def test_width_mismatch_allocates_nothing_new(self, tmp_path):
        # a manifest width that disagrees with the saved arrays is refused
        # when the model asks for the parameter, before any array of the
        # manifest's width is drawn (one would take 8 MB per vocabulary
        # row here)
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        params, manifest = load_checkpoint(p)
        manifest["hyperparameters"]["word_dim"] = 1_000_000
        save_checkpoint(_store_of(params), manifest, p)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"has shape .*, expected"):
                load_model(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_reloaded_model_trains_like_the_original(self, tmp_path):
        from spandep.parts import build_candidate_space
        from spandep.synthetic import synthetic_corpus
        from spandep.training import TrainConfig, train
        c = synthetic_corpus(np.random.default_rng(7), n_fn=2, n_dm=2,
                             n_fn_dev=0, n_dm_dev=0)
        model = ParserModel.build(
            replace(TINY_CONFIG, max_span_len=4), c["ontology"],
            c["dep_labels"], c["fn_train"] + c["dm_train"],
            np.random.default_rng(0))
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        back = load_model(p)
        back.scored_space(build_candidate_space(
            c["fn_train"][0], c["fn_train"][0].supervision.parses[0].target,
            c["ontology"], back.config.fn_limits(c["dep_labels"])))
        assert back.store._grads == {}     # prediction needs no gradients
        values = list(back.store.values.values())
        assert all(v.flags.writeable for v in values)
        assert not any(np.may_share_memory(a, b)
                       for i, a in enumerate(values) for b in values[i + 1:])
        before = {k: v.copy() for k, v in back.store.values.items()}
        for m in (model, back):
            train(m, c["fn_train"], c["dm_train"],
                  config=TrainConfig(max_epochs=1, seed=0))
        assert any(not np.array_equal(v, before[k])
                   for k, v in back.store.values.items())
        assert_same_params(model, back)

    def test_hash_is_content_addressed(self):
        a = Ontology({"x.v": ("F",)}, {"F": ("R",)})
        b = Ontology({"x.v": ("F",)}, {"F": ("R",)})
        c = Ontology({"x.v": ("F",)}, {"F": ("R", "S")})
        assert ontology_hash(a) == ontology_hash(b)
        assert ontology_hash(a) != ontology_hash(c)


# --- corrupt and older checkpoints --------------------------------------------

def deflate_members(path):
    """Rewrite the checkpoint at ``path`` with every member deflated, the
    way checkpoints were written before members were stored."""
    data = path.read_bytes()
    with zipfile.ZipFile(io.BytesIO(data)) as src, \
            zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as dst:
        for info in src.infolist():
            dst.writestr(info.filename, src.read(info))


def _member_headers(data, index):
    """Offsets of member ``index``'s local header and its central-directory
    record in the zip archive ``data``."""
    record = struct.unpack_from("<I", data, data.rindex(b"PK\x05\x06") + 16)[0]
    for _ in range(index):
        record += 46 + sum(struct.unpack_from("<3H", data, record + 28))
    return struct.unpack_from("<I", data, record + 42)[0], record


def _block_type_bit(data):
    """The bit that turns member 1's first deflate block type into the
    invalid 0b11."""
    local, _ = _member_headers(data, 1)
    start = local + 30 + sum(struct.unpack_from("<2H", data, local + 26))
    block_type = (data[start] >> 1) & 3
    assert block_type in (1, 2)
    return 8 * start + (2 if block_type == 1 else 1)


# Each single-bit flip once escaped ``load_checkpoint`` as a bare exception:
# zlib.error, NotImplementedError and RuntimeError in turn.
CORRUPTIONS = {
    "deflate-block-type": (True, _block_type_bit),
    "compression-method": (False,
                           lambda data: 8 * (_member_headers(data, 1)[1] + 10)),
    "encryption-flag": (False,
                        lambda data: 8 * (_member_headers(data, 1)[1] + 8)),
}


def flip_bit(path, bit):
    data = bytearray(path.read_bytes())
    data[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(data))


def corrupt(path, case):
    """Apply the ``CORRUPTIONS[case]`` flip to the checkpoint at ``path``."""
    deflated, bit = CORRUPTIONS[case]
    if deflated:
        deflate_members(path)
    flip_bit(path, bit(path.read_bytes()))


def assert_same_params(a, b):
    assert a.store.values.keys() == b.store.values.keys()
    for name, value in a.store.values.items():
        assert b.store.values[name].tobytes() == value.tobytes(), name


class TestCorruptCheckpoints:
    def test_members_are_stored(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_model(tiny_model(), p)
        with zipfile.ZipFile(p) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_member_is_named(self, tmp_path, case):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        corrupt(p, case)
        with pytest.raises(FormatError, match="unreadable checkpoint") as err:
            load_model(p)
        first = next(iter(model.store.values))
        assert (err.value.path, err.value.where) == \
            (str(p), f"params/{first}.npy")

    @pytest.mark.parametrize("deflated", [False, True],
                             ids=["stored", "deflated"])
    def test_single_bit_flips_fail_located_or_load_identically(
            self, tmp_path, deflated):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        if deflated:
            deflate_members(p)
        data = p.read_bytes()
        rng = np.random.default_rng(20240825)
        failed = 0
        for bit in rng.choice(8 * len(data), size=200, replace=False):
            p.write_bytes(data)
            flip_bit(p, int(bit))
            try:
                back = load_model(p)
            except FormatError as err:
                assert str(p) in str(err)
                failed += 1
                continue
            assert_same_params(model, back)
        assert 0 < failed < 200

    def test_deflated_model_loads_bit_identically(self, tmp_path):
        model = tiny_model()
        p = tmp_path / "m.ckpt"
        save_model(model, p)
        deflate_members(p)
        with zipfile.ZipFile(p) as zf:
            assert {i.compress_type for i in zf.infolist()} == \
                {zipfile.ZIP_DEFLATED}
        assert_same_params(model, load_model(p))

    def test_deflated_pruner_loads_bit_identically(self, tmp_path):
        from spandep.pruning import PrunerModel, load_pruner, save_pruner
        pruner = PrunerModel.build([make_sentence(["a", "b"])],
                                   np.random.default_rng(0))
        p = tmp_path / "p.ckpt"
        save_pruner(pruner, p)
        deflate_members(p)
        assert_same_params(pruner, load_pruner(p))
