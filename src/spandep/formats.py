"""File formats: dependency corpora, frame corpora, ontology, embeddings,
and model checkpoints.

Every reader either parses the whole input or raises a ``FormatError``
carrying the file path and the offending line or record; nothing is silently
skipped.  Writers emit canonical UTF-8 text with "\\n" separators, chosen so
that reading a written file and writing it again is byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import warnings
import zipfile
import zlib
from dataclasses import fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .autodiff import ParameterStore
from .encoder import Vocabulary
from .model import ModelConfig, ParserModel
from .parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpandepError,
    Target,
    Token,
)

CHECKPOINT_VERSION = 1


class FormatError(SpandepError):
    """A malformed input, located by path and line/record number."""

    def __init__(self, path, where, message):
        self.path = str(path)
        self.where = where
        super().__init__(f"{path}:{where}: {message}")


# --- SDP column format -------------------------------------------------------

def _parse_sdp_block(path, rows, id_line) -> Sentence:
    ncols = len(rows[0][1])
    preds = []
    for k, (lineno, cols) in enumerate(rows, start=1):
        if len(cols) != ncols:
            raise FormatError(path, lineno,
                              f"ragged row: {len(cols)} columns, expected {ncols}")
        if len(cols) < 6:
            raise FormatError(path, lineno, f"too few columns ({len(cols)})")
        if cols[0] != str(k):
            raise FormatError(path, lineno,
                              f"token id {cols[0]!r}, expected {k}")
        for flag in (cols[4], cols[5]):
            if flag not in ("+", "-"):
                raise FormatError(path, lineno, f"bad flag {flag!r}")
        if cols[5] == "+":
            preds.append(k - 1)
    if ncols - 6 != len(preds):
        raise FormatError(path, rows[0][0],
                          f"{ncols - 6} argument columns for {len(preds)} predicates")
    top = None
    arcs = set()
    for k, (lineno, cols) in enumerate(rows, start=1):
        if cols[4] == "+":
            if top is not None:
                raise FormatError(path, lineno, "multiple top tokens")
            top = k - 1
        for p, cell in zip(preds, cols[6:]):
            if cell == "_":
                continue
            if p == k - 1:
                raise FormatError(path, lineno, f"self arc at token {k}")
            arcs.add((p, k - 1, cell))
    tokens = tuple(Token(c[1], c[2], c[3]) for _, c in rows)
    graph = DependencyGraph(frozenset(arcs), top)
    return Sentence(tokens, id=id_line, supervision=graph)


def read_sdp(path) -> list[Sentence]:
    sentences = []
    rows: list[tuple[int, list[str]]] = []
    sent_id = ""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                if rows:
                    raise FormatError(path, lineno, "comment inside a sentence block")
                sent_id = line[1:]
            elif line == "":
                if rows:
                    sentences.append(_parse_sdp_block(path, rows, sent_id))
                    rows, sent_id = [], ""
            else:
                rows.append((lineno, line.split("\t")))
    if rows:
        sentences.append(_parse_sdp_block(path, rows, sent_id))
    return sentences


def write_sdp(sentences: Sequence[Sentence], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sentences:
            graph = s.supervision
            if not isinstance(graph, DependencyGraph):
                raise SpandepError(
                    f"sentence {s.id!r} carries no dependency graph")
            preds = sorted({h for h, _, _ in graph.arcs})
            cells: dict[tuple[int, int], str] = {}
            for h, d, lab in graph.arcs:
                key = (preds.index(h), d)
                if key in cells:
                    raise SpandepError(
                        f"sentence {s.id!r}: duplicate arc {h}->{d}")
                cells[key] = lab
            fh.write(f"#{s.id}\n")
            for t, tok in enumerate(s.tokens):
                cols = [str(t + 1), tok.form, tok.lemma, tok.pos,
                        "+" if graph.top == t else "-",
                        "+" if t in preds else "-"]
                cols += [cells.get((k, t), "_") for k in range(len(preds))]
                fh.write("\t".join(cols) + "\n")
            fh.write("\n")


# --- frame corpus (one JSON record per line) ---------------------------------

def _require_keys(path, where, obj, required, optional=()):
    """Fail on a missing required key, or on a key outside ``required`` and
    ``optional`` unless ``optional`` is None."""
    unknown = (set() if optional is None
               else set(obj) - set(required) - set(optional))
    if unknown:
        raise FormatError(path, where, f"unknown field {sorted(unknown)[0]!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(path, where, f"missing field {missing[0]!r}")


def read_frames(path, ontology: Ontology) -> list[Sentence]:
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                raise FormatError(path, lineno, "blank line")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(path, lineno, f"bad JSON: {e.msg}") from None
            _require_keys(path, lineno, rec,
                          ("id", "tokens", "lemmas", "pos", "annotations"))
            toks, lems, tags = rec["tokens"], rec["lemmas"], rec["pos"]
            if not (len(toks) == len(lems) == len(tags)):
                raise FormatError(path, lineno, "token/lemma/pos length mismatch")
            if not toks:
                raise FormatError(path, lineno, "empty sentence")
            n = len(toks)
            parses = []
            for ann in rec["annotations"]:
                _require_keys(path, lineno, ann,
                              ("target", "lu", "frame", "arguments"))
                ts, te = ann["target"]
                if not 0 <= ts <= te < n:
                    raise FormatError(path, lineno,
                                      f"target span [{ts}, {te}] out of range")
                lu, frame = ann["lu"], ann["frame"]
                if lu not in ontology.lu_to_frames:
                    raise FormatError(path, lineno, f"unknown lexical unit {lu!r}")
                if frame not in ontology.frames_for(lu):
                    raise FormatError(path, lineno,
                                      f"frame {frame!r} not licensed by {lu!r}")
                args = set()
                for a in ann["arguments"]:
                    _require_keys(path, lineno, a, ("start", "end", "role"))
                    if a["role"] not in ontology.roles_for(frame):
                        raise FormatError(
                            path, lineno,
                            f"role {a['role']!r} not in frame {frame!r}")
                    if not 0 <= a["start"] <= a["end"] < n:
                        raise FormatError(
                            path, lineno,
                            f"argument span [{a['start']}, {a['end']}] out of range")
                    args.add((a["start"], a["end"], a["role"]))
                try:
                    parses.append(FrameParse(Target(ts, te, lu), frame,
                                             frozenset(args)))
                except ValueError as e:
                    raise FormatError(path, lineno, str(e)) from None
            tokens = tuple(Token(f, l, p) for f, l, p in zip(toks, lems, tags))
            sentences.append(Sentence(tokens, id=str(rec["id"]),
                                      supervision=FrameAnnotations(tuple(parses))))
    return sentences


def write_frames(sentences: Sequence[Sentence], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in sentences:
            sup = s.supervision
            if not isinstance(sup, FrameAnnotations):
                raise SpandepError(f"sentence {s.id!r} carries no frame annotations")
            anns = []
            for p in sup.parses:
                anns.append({
                    "target": [p.target.start, p.target.end],
                    "lu": p.target.lu,
                    "frame": p.frame,
                    "arguments": [
                        {"start": i, "end": j, "role": r}
                        for i, j, r in sorted(p.arguments)],
                })
            rec = {"id": s.id, "tokens": list(s.forms),
                   "lemmas": list(s.lemmas), "pos": list(s.pos_tags),
                   "annotations": anns}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


# --- ontology ---------------------------------------------------------------

def read_ontology(path) -> Ontology:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(path, e.lineno, f"bad JSON: {e.msg}") from None
    return _ontology(path, 1, data, optional=())


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _ontology(path, where, data, optional) -> Ontology:
    """The ontology in the JSON value ``data``: an object whose ``frames``
    maps each frame to an object with a ``roles`` list, and whose ``lus``
    maps each lexical unit to a list of frames.  Anything else is a
    ``FormatError`` at ``where`` that names the key; ``optional`` is
    ``_require_keys``'s, for the objects ``data`` and each frame."""
    def check(ok, what):
        if not ok:
            raise FormatError(path, where, what)

    check(isinstance(data, dict), "the ontology must be an object")
    _require_keys(path, where, data, ("frames", "lus"), optional)
    frames, lus = data["frames"], data["lus"]
    check(isinstance(frames, dict), "'frames' must be an object")
    check(isinstance(lus, dict), "'lus' must be an object")
    for name, body in frames.items():
        check(isinstance(body, dict), f"frame {name!r} must be an object")
        _require_keys(path, where, body, ("roles",), optional)
        check(_strings(body["roles"]),
              f"'roles' of frame {name!r} must be a list of strings")
    for lu, names in lus.items():
        check(_strings(names),
              f"lexical unit {lu!r} must list its frames as strings")
    try:
        return Ontology(lus, {f: body["roles"] for f, body in frames.items()})
    except ValueError as e:
        raise FormatError(path, where, str(e)) from None


def ontology_to_dict(ontology: Ontology) -> dict:
    return {"frames": {f: {"roles": list(rs)}
                       for f, rs in ontology.frame_to_roles.items()},
            "lus": {lu: list(fs) for lu, fs in ontology.lu_to_frames.items()}}


def ontology_hash(ontology: Ontology) -> str:
    blob = json.dumps(ontology_to_dict(ontology), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --- embeddings --------------------------------------------------------------

def load_embeddings(path) -> dict[str, np.ndarray]:
    """Token-to-vector map.  The first line fixes the dimension; later lines
    must agree.  Repeated tokens keep the last occurrence."""
    out: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields:
                raise FormatError(path, lineno, "blank line")
            try:
                vec = np.array([float(x) for x in fields[1:]])
            except ValueError:
                raise FormatError(path, lineno, "non-numeric value") from None
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise FormatError(path, lineno, "no vector components")
            elif len(vec) != dim:
                raise FormatError(
                    path, lineno,
                    f"vector of width {len(vec)}, expected {dim}")
            out[fields[0]] = vec
    if dim is None:
        raise FormatError(path, 0, "empty embedding file")
    return out


# --- checkpoints --------------------------------------------------------------

L2_NOTE = ("the squared-norm penalty contributes gradient 2*l2*w "
           "to every update")


def save_checkpoint(store: ParameterStore, manifest: dict, path) -> None:
    """Write a zip of uncompressed members: ``manifest.json``, then one
    float64 ``params/<name>.npy`` per parameter."""
    manifest = {"format_version": CHECKPOINT_VERSION, **manifest}
    with zipfile.ZipFile(path, "w") as zf:
        # Key order is preserved on purpose: the ontology and vocabulary
        # entries double as row indices into the embedding tables, so the
        # manifest must come back in exactly the order it was written.
        zf.writestr("manifest.json", json.dumps(manifest, indent=1))
        for name, value in store.values.items():
            buf = io.BytesIO()
            np.save(buf, np.asarray(value, dtype=np.float64))
            zf.writestr(f"params/{name}.npy", buf.getvalue())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read the manifest and each parameter member once; ``ZipFile.read``
    checks its CRC-32.  The deflated members earlier versions wrote load
    unchanged."""
    member = 0
    try:
        with zipfile.ZipFile(path) as zf:
            member = "manifest.json"
            manifest = json.loads(zf.read(member))
            params = {}
            for info in zf.infolist():
                member = info.filename
                if member.startswith("params/"):
                    name = member[len("params/"):-len(".npy")]
                    params[name] = np.load(io.BytesIO(zf.read(info)))
    # zlib.error etc.: a corrupt deflate stream, method field or flag bit
    except (zipfile.BadZipFile, KeyError, EOFError, OSError, ValueError,
            zlib.error, NotImplementedError, RuntimeError) as e:
        raise FormatError(path, member, f"unreadable checkpoint: {e}") from None
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(path, 0,
                          f"format version {version}, expected {CHECKPOINT_VERSION}")
    return params, manifest


def model_manifest(model: ParserModel, kind: str = "model") -> dict:
    return {
        "kind": kind,
        "hyperparameters": model.config.to_dict(),
        "vocabularies": {
            "words": list(model.encoder.words.tokens),
            "lemmas": list(model.encoder.lemmas.tokens),
            "pos": list(model.encoder.pos_tags.tokens),
            "word_counts": dict(model.encoder.word_counts),
        },
        "dep_labels": list(model.dep_labels),
        "ontology": ontology_to_dict(model.ontology),
        "ontology_hash": ontology_hash(model.ontology),
        "notes": {"l2_gradient": L2_NOTE},
    }


def save_model(model: ParserModel, path) -> None:
    save_checkpoint(model.store, model_manifest(model), path)


def _check_restored(store: ParameterStore, params: Mapping[str, np.ndarray],
                    path) -> None:
    """Fail unless the store took every checkpoint array as its value: the
    names must be the same, and each shape the one the model asked for."""
    missing = set(store.values) - set(params)
    extra = set(params) - set(store.values)
    if missing or extra:
        name = sorted(missing or extra)[0]
        raise FormatError(path, 0, f"parameter set mismatch near {name!r}")
    for name, value in params.items():
        if store.values[name].shape != value.shape:
            raise FormatError(
                path, 0, f"parameter {name!r} has shape {value.shape}, "
                f"expected {store.values[name].shape}")


def load_model(path, ontology: Optional[Ontology] = None,
               allow_ontology_mismatch: bool = False) -> ParserModel:
    return _load_from_manifest(ParserModel, path, "model", ontology,
                               allow_ontology_mismatch)


def _load_from_manifest(cls, path, expected_kind: str,
                        ontology: Optional[Ontology] = None,
                        allow_ontology_mismatch: bool = False):
    """Rebuild a ``cls`` (``ParserModel`` or ``PrunerModel``) from a
    checkpoint: its config, ontology and vocabularies from the manifest,
    and its parameters as the arrays read, each taken by the store as the
    model adds it."""
    params, manifest = load_checkpoint(path)
    kind = manifest.get("kind")
    if kind != expected_kind:
        raise FormatError(path, 0,
                          f"checkpoint kind {kind!r}, expected {expected_kind!r}")
    _require_keys(path, "manifest", manifest,
                  ("hyperparameters", "vocabularies", "dep_labels",
                   "ontology", "ontology_hash"), optional=None)
    if ontology is not None and ontology_hash(ontology) != manifest["ontology_hash"]:
        message = f"{path}: ontology hash differs from the checkpoint's"
        if not allow_ontology_mismatch:
            raise FormatError(path, 0, message + " (pass the override to load anyway)")
        warnings.warn(message)
    ont = _ontology(path, "ontology", manifest["ontology"], optional=None)
    if not _strings(manifest["dep_labels"]):
        raise FormatError(path, "manifest",
                          "'dep_labels' must be a list of strings")
    vocab = manifest["vocabularies"]
    _require_keys(path, "vocabularies", vocab,
                  ("words", "lemmas", "pos", "word_counts"), optional=None)
    hyper = manifest["hyperparameters"]
    # every field has a default, so older checkpoints may omit some
    _require_keys(path, "hyperparameters", hyper, (),
                  tuple(f.name for f in fields(ModelConfig)))
    try:
        config = ModelConfig.from_dict(hyper)
    except SpandepError as e:
        raise FormatError(path, "hyperparameters", str(e)) from None
    model = cls(
        config, ont, tuple(manifest["dep_labels"]), Vocabulary(vocab["words"]),
        Vocabulary(vocab["lemmas"]), Vocabulary(vocab["pos"]),
        dict(vocab["word_counts"]), rng=np.random.default_rng(0),
        store=ParameterStore(saved=params))
    _check_restored(model.store, params, path)
    return model
