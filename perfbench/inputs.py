"""Seeded benchmark inputs, written as files in spandep's own formats.

Sentences come from ``spandep.synthetic.synthetic_corpus``.  A share of them
is joined pairwise into two-clause sentences ("<first> and <second>"): the
second sentence's targets, argument spans and arcs are shifted past the
first sentence and the conjunction.  A two-clause frame sentence carries two
targets, so it is the only multi-target input the benchmark has.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spandep import formats
from spandep.parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Sentence,
    Target,
    Token,
)
from spandep.synthetic import synthetic_corpus

CONJUNCTION = Token("and", "and", "CC")


def shift_parse(parse: FrameParse, k: int) -> FrameParse:
    t = parse.target
    return FrameParse(Target(t.start + k, t.end + k, t.lu), parse.frame,
                      frozenset((i + k, j + k, r) for i, j, r in parse.arguments))


def join_clauses(a: Sentence, b: Sentence, sid: str) -> Sentence:
    """One two-clause sentence: ``a``, the conjunction, then ``b`` shifted.

    Both sentences must carry the same kind of supervision.  For dependency
    graphs the first clause keeps the top and the conjunction gets no arcs.
    """
    k = len(a) + 1
    tokens = a.tokens + (CONJUNCTION,) + b.tokens
    sa, sb = a.supervision, b.supervision
    if isinstance(sa, FrameAnnotations) and isinstance(sb, FrameAnnotations):
        sup = FrameAnnotations(sa.parses + tuple(shift_parse(p, k)
                                                 for p in sb.parses))
    elif isinstance(sa, DependencyGraph) and isinstance(sb, DependencyGraph):
        sup = DependencyGraph(
            sa.arcs | frozenset((h + k, d + k, lab) for h, d, lab in sb.arcs),
            top=sa.top)
    else:
        raise TypeError("clauses must carry the same kind of supervision")
    return Sentence(tokens, id=sid, supervision=sup)


def mix_clauses(sentences: list[Sentence], joined_share: float,
                tag: str) -> list[Sentence]:
    """Make ``joined_share`` of the output positions, evenly spaced, two-clause
    sentences joined from consecutive input sentences; keep the rest as they
    are.  Fixed spacing gives every chunk of the output the same mix."""
    out: list[Sentence] = []
    i = 0
    while i < len(sentences):
        k = len(out)
        joined = int((k + 1) * joined_share) > int(k * joined_share)
        if joined and i + 1 < len(sentences):
            out.append(join_clauses(sentences[i], sentences[i + 1],
                                    f"{tag}{k}"))
            i += 2
        else:
            out.append(sentences[i])
            i += 1
    return out


@dataclass(frozen=True)
class Spec:
    """Input sizes for one workload.  Counts are of synthetic sentences
    before joining; ``*_joined`` is the share of positions that take two
    of them."""

    fn_train: int = 0
    fn_exemplar: int = 0
    dm_train: int = 0
    fn_dev: int = 0
    dm_dev: int = 0
    fn_joined: float = 0.0
    dm_joined: float = 0.0


def generate(seed: int, spec: Spec) -> dict:
    """Corpora for one workload, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    corpus = synthetic_corpus(
        rng, n_fn=spec.fn_train + spec.fn_exemplar, n_dm=spec.dm_train,
        n_fn_dev=spec.fn_dev, n_dm_dev=spec.dm_dev)
    fn_all = corpus["fn_train"]
    return {
        "ontology": corpus["ontology"],
        "fn_train": mix_clauses(fn_all[:spec.fn_train], spec.fn_joined,
                                "fnj"),
        "fn_exemplar": fn_all[spec.fn_train:],
        "dm_train": mix_clauses(corpus["dm_train"], spec.dm_joined, "dmj"),
        "fn_dev": corpus["fn_dev"],
        "dm_dev": corpus["dm_dev"],
    }


def write_inputs(corpora: dict, out_dir: Path) -> dict[str, Path]:
    """Write every corpus of ``generate`` plus the ontology; returns paths
    keyed like ``corpora``.  Empty corpora are skipped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"ontology": out_dir / "ontology.json"}
    paths["ontology"].write_text(
        json.dumps(formats.ontology_to_dict(corpora["ontology"]), indent=1)
        + "\n", encoding="utf-8")
    for name, sents in corpora.items():
        if name == "ontology" or not sents:
            continue
        if name.startswith("fn"):
            paths[name] = out_dir / f"{name}.jsonl"
            formats.write_frames(sents, paths[name])
        else:
            paths[name] = out_dir / f"{name}.sdp"
            formats.write_sdp(sents, paths[name])
    return paths


def describe(sentences: list[Sentence]) -> dict:
    """Sentence-length histogram and share of multi-target sentences."""
    lengths = Counter(len(s) for s in sentences)
    multi = sum(1 for s in sentences
                if isinstance(s.supervision, FrameAnnotations)
                and len(s.supervision.parses) > 1)
    return {"sentences": len(sentences),
            "length_hist": {str(n): lengths[n] for n in sorted(lengths)},
            "multi_target_share": multi / len(sentences) if sentences else 0.0}
