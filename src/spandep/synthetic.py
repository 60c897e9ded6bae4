"""Synthetic instances and corpora for solver verification and smoke training.

Two generators live here.  ``random_joint_instance`` emits small scored
candidate spaces whose factor graphs stay within the brute-force search
budget; the equivalence suite and the oracle-check command are built on it.
``synthetic_corpus`` emits a pair of disjoint corpora (frame-annotated and
dependency-annotated sentences) drawn from one underlying grammar whose
argument spans contain exactly the tokens receiving arcs from the verb, so
cross-task parameter sharing has signal to exploit.
"""

from __future__ import annotations

import numpy as np

from .inference.exhaustive import MAX_BRUTE_VARS
from .parts import (
    CandidateSpace,
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpaceLimits,
    Target,
    build_candidate_space,
    enumerate_arcs,
    enumerate_spans,
    make_sentence,
)

_ROLE_POOL = ("R0", "R1", "R2")
_LABEL_POOL = ("a1", "a2")
_SCORE_SCALE = 1.5


def random_joint_instance(rng: np.random.Generator) -> CandidateSpace:
    """A random scored joint instance small enough for exhaustive search.

    Sentence length, frame/role counts, span and arc candidates are
    sampled, then resampled until the constrained variables fit under
    ``MAX_BRUTE_VARS``: in the space's factor graph, those are its structural
    parts less the head parts that no arc leaves.  Scores are normal with
    standard deviation ``_SCORE_SCALE``.
    """
    for _ in range(200):
        n = int(rng.integers(2, 5))
        sent = make_sentence([f"w{i}" for i in range(n)])
        t_start = int(rng.integers(0, n))
        t_end = min(n - 1, t_start + int(rng.integers(0, 2)))
        target = Target(t_start, t_end, "lu.v")

        n_frames = int(rng.integers(1, 3))
        frames = [f"F{k}" for k in range(n_frames)]
        frame_to_roles = {f: list(rng.choice(_ROLE_POOL,
                                             size=int(rng.integers(1, 3)),
                                             replace=False))
                          for f in frames}
        ontology = Ontology({"lu.v": frames}, frame_to_roles)

        all_spans = enumerate_spans(n, 2)
        k_spans = int(rng.integers(2, min(4, len(all_spans)) + 1))
        idx = rng.choice(len(all_spans), size=k_spans, replace=False)
        spans = frozenset(all_spans[i] for i in idx)

        labels = tuple(_LABEL_POOL[:int(rng.integers(1, 3))])
        pairs = enumerate_arcs(n)
        # bias toward a target-to-span arc so cross-task parts exist
        inside = [(t_start, d) for (i, j) in spans
                  for d in range(i, j + 1) if d != t_start]
        k_arcs = int(rng.integers(2, 5))
        chosen = set()
        if inside:
            chosen.add(inside[int(rng.integers(0, len(inside)))])
        while len(chosen) < min(k_arcs, len(pairs)):
            chosen.add(pairs[int(rng.integers(0, len(pairs)))])
        limits = SpaceLimits(max_span_len=2, dep_labels=labels,
                             allowed_spans=spans,
                             allowed_arcs=frozenset(chosen))
        space = build_candidate_space(sent, target, ontology, limits)
        space = space.with_scores(rng.normal(0.0, _SCORE_SCALE,
                                             size=len(space)))
        # an unused draw: it keeps each seed's sequence of spaces, which
        # the tests and oracle-check are written against
        rng.random()
        idle_heads = len(space.head_ids) - len(
            np.unique(space.arc_head[:len(space.arc_ids)]))
        if space.cross_ids.start - idle_heads <= MAX_BRUTE_VARS:
            return space
    raise RuntimeError("failed to sample an instance under the size cap")


# ---------------------------------------------------------------------------
# Disjoint-corpus grammar


_SUBJECTS = ("cat", "dog", "bird", "fox", "girl", "boy")
_TAILS = ("today", "quickly", "loudly", "again")

# verb -> (lu, object nouns or None for intransitive)
_VERBS = {
    "runs": ("run.v", None),
    "walks": ("walk.v", None),
    "eats": ("eat.v", ("fish", "meat", "bread")),
    "devours": ("devour.v", ("fish", "meat", "bread")),
    "sings": ("sing.v", ("song", "tune")),
    "plays": ("play.v", ("song", "tune", "game", "match")),
}

# frame -> (agent role, patient role or None)
_FRAMES = {
    "Motion": ("Mover", None),
    "Ingest": ("Eater", "Food"),
    "Perform": ("Performer", "Piece"),
    "Compete": ("Player", "Game"),
}

_LU_TO_FRAMES = {
    "run.v": ("Motion",),
    "walk.v": ("Motion",),
    "eat.v": ("Ingest",),
    "devour.v": ("Ingest",),
    "sing.v": ("Perform",),
    "play.v": ("Perform", "Compete"),  # disambiguated by the object
}

DEP_LABELS = ("ARG1", "ARG2", "DET", "MOD")


def corpus_ontology() -> Ontology:
    return Ontology(_LU_TO_FRAMES,
                    {f: [r for r in rs if r is not None]
                     for f, rs in _FRAMES.items()})


def _frame_for(lu: str, obj: str | None) -> str:
    frames = _LU_TO_FRAMES[lu]
    if len(frames) == 1:
        return frames[0]
    return "Compete" if obj in ("game", "match") else "Perform"


def _sample_sentence(rng: np.random.Generator, sid: str):
    """One sentence plus both annotation views (only one is attached later)."""
    forms: list[str] = []
    pos: list[str] = []

    def push(form: str, tag: str) -> int:
        forms.append(form)
        pos.append(tag)
        return len(forms) - 1

    subj_det = bool(rng.random() < 0.6)
    if subj_det:
        push("the", "DT")
    subj = push(str(rng.choice(_SUBJECTS)), "NN")

    vform = str(rng.choice(list(_VERBS)))
    lu, objects = _VERBS[vform]
    verb = push(vform, "VB")

    obj_noun = None
    obj = None
    obj_det = False
    if objects is not None:
        obj_det = bool(rng.random() < 0.6)
        if obj_det:
            push("the", "DT")
        obj_noun = str(rng.choice(objects))
        obj = push(obj_noun, "NN")

    tail = None
    if rng.random() < 0.5:
        tail = push(str(rng.choice(_TAILS)), "RB")

    frame = _frame_for(lu, obj_noun)
    agent_role, patient_role = _FRAMES[frame]
    args = {(subj - 1 if subj_det else subj, subj, agent_role)}
    arcs = {(verb, subj, "ARG1")}
    if subj_det:
        arcs.add((subj, subj - 1, "DET"))
    if obj is not None:
        args.add((obj - 1 if obj_det else obj, obj, patient_role))
        arcs.add((verb, obj, "ARG2"))
        if obj_det:
            arcs.add((obj, obj - 1, "DET"))
    if tail is not None:
        arcs.add((verb, tail, "MOD"))

    sent = make_sentence(forms, pos=pos, id=sid)
    parse = FrameParse(Target(verb, verb, lu), frame, frozenset(args))
    graph = DependencyGraph(frozenset(arcs), top=verb)
    return sent, parse, graph


def synthetic_corpus(rng: np.random.Generator, n_fn: int = 200,
                     n_dm: int = 200, n_fn_dev: int = 40, n_dm_dev: int = 40):
    """Disjoint frame and dependency corpora from the shared grammar.

    Returns a dict with keys fn_train, fn_dev, dm_train, dm_dev (lists of
    Sentence), ontology, dep_labels.
    """

    def fn_sent(i: int, tag: str) -> Sentence:
        sent, parse, _ = _sample_sentence(rng, f"{tag}{i}")
        return Sentence(sent.tokens, id=sent.id,
                        supervision=FrameAnnotations((parse,)))

    def dm_sent(i: int, tag: str) -> Sentence:
        sent, _, graph = _sample_sentence(rng, f"{tag}{i}")
        return Sentence(sent.tokens, id=sent.id, supervision=graph)

    return {
        "fn_train": [fn_sent(i, "fn") for i in range(n_fn)],
        "dm_train": [dm_sent(i, "dm") for i in range(n_dm)],
        "fn_dev": [fn_sent(i, "fn-dev") for i in range(n_fn_dev)],
        "dm_dev": [dm_sent(i, "dm-dev") for i in range(n_dm_dev)],
        "ontology": corpus_ontology(),
        "dep_labels": DEP_LABELS,
    }
