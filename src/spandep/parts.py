"""Core domain types: sentences, annotations, the frame ontology, scoreable
parts, and candidate spaces.

Everything here is immutable after construction, so instances can be shared
freely across concurrent decoding workers.

Conventions used throughout the package:
  * token indices are 0-based, spans are inclusive (start, end);
  * a distinguished index ``VIRTUAL_ROOT`` (-1) is the head of top arcs;
  * a candidate space lists its parts grouped by type, in a fixed order
    (predicates, arguments, heads, arcs, root arcs, labeled arcs, cross-task),
    and part ids index both ``parts`` and the parallel ``scores`` array.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

VIRTUAL_ROOT = -1


class SpandepError(Exception):
    """Base class for errors raised by this package."""


@dataclass(frozen=True)
class Token:
    form: str
    lemma: str
    pos: str


@dataclass(frozen=True)
class Target:
    """A frame-evoking span together with its lexical unit (lemma.pos)."""

    start: int
    end: int
    lu: str

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"bad target span ({self.start}, {self.end})")

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class FrameParse:
    """A frame-semantic parse for one target: the evoked frame plus a set of
    non-overlapping (start, end, role) argument spans."""

    target: Target
    frame: str
    arguments: frozenset[tuple[int, int, str]] = frozenset()

    def __post_init__(self):
        spans = sorted((i, j) for i, j, _ in self.arguments)
        for (i1, j1), (i2, j2) in zip(spans, spans[1:]):
            if i2 <= j1:
                raise ValueError(f"overlapping argument spans ({i1},{j1}) and ({i2},{j2})")


@dataclass(frozen=True)
class DependencyGraph:
    """Labeled bilexical dependency arcs plus an optional top token."""

    arcs: frozenset[tuple[int, int, str]] = frozenset()
    top: Optional[int] = None

    def __post_init__(self):
        for h, d, _ in self.arcs:
            if h == d:
                raise ValueError(f"self arc at token {h}")


@dataclass(frozen=True)
class FrameAnnotations:
    parses: tuple[FrameParse, ...]


Supervision = Union[FrameAnnotations, DependencyGraph, None]


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    id: str = ""
    supervision: Supervision = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty sentence")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(t.lemma for t in self.tokens)

    @property
    def pos_tags(self) -> tuple[str, ...]:
        return tuple(t.pos for t in self.tokens)


def make_sentence(forms: Sequence[str], lemmas: Sequence[str] | None = None,
                  pos: Sequence[str] | None = None, id: str = "",
                  supervision: Supervision = None) -> Sentence:
    """Convenience constructor; lemmas default to lowercased forms, POS to 'X'."""
    lemmas = lemmas if lemmas is not None else [f.lower() for f in forms]
    pos = pos if pos is not None else ["X"] * len(forms)
    toks = tuple(Token(f, l, p) for f, l, p in zip(forms, lemmas, pos))
    return Sentence(toks, id=id, supervision=supervision)


class Ontology:
    """Maps lexical units to candidate frames and frames to their role sets."""

    def __init__(self, lu_to_frames: Mapping[str, Iterable[str]],
                 frame_to_roles: Mapping[str, Iterable[str]]):
        self.lu_to_frames = {lu: tuple(dict.fromkeys(fs)) for lu, fs in lu_to_frames.items()}
        self.frame_to_roles = {f: tuple(dict.fromkeys(rs)) for f, rs in frame_to_roles.items()}
        for lu, frames in self.lu_to_frames.items():
            for f in frames:
                if f not in self.frame_to_roles:
                    raise ValueError(f"lexical unit {lu!r} lists undefined frame {f!r}")
                if not self.frame_to_roles[f]:
                    raise ValueError(f"frame {f!r} reachable from {lu!r} has no roles")

    def frames_for(self, lu: str) -> tuple[str, ...]:
        if lu not in self.lu_to_frames:
            raise SpandepError(f"unknown lexical unit: {lu!r}")
        return self.lu_to_frames[lu]

    def roles_for(self, frame: str) -> tuple[str, ...]:
        return self.frame_to_roles[frame]

    @property
    def frames(self) -> tuple[str, ...]:
        return tuple(self.frame_to_roles)

    @property
    def roles(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for rs in self.frame_to_roles.values():
            for r in rs:
                seen.setdefault(r)
        return tuple(seen)

    def is_ambiguous(self, lu: str) -> bool:
        return len(self.lu_to_frames.get(lu, ())) >= 2


# ---------------------------------------------------------------------------
# Parts


@dataclass(frozen=True)
class Predicate:
    target: tuple[int, int]
    lu: str
    frame: str


@dataclass(frozen=True)
class Argument:
    frame: str
    start: int
    end: int
    role: str

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class Head:
    token: int


@dataclass(frozen=True)
class UnlabeledArc:
    head: int
    dep: int

    @property
    def is_root(self) -> bool:
        return self.head == VIRTUAL_ROOT


@dataclass(frozen=True)
class LabeledArc:
    head: int
    dep: int
    label: str


@dataclass(frozen=True)
class CrossTask:
    """Pairs an Argument part with an UnlabeledArc part, both given by part id
    within the same candidate space."""

    arg_id: int
    arc_id: int


Part = Union[Predicate, Argument, Head, UnlabeledArc, LabeledArc, CrossTask]

FRAME_PART_TYPES = (Predicate, Argument)
DEP_PART_TYPES = (Head, UnlabeledArc, LabeledArc)


@dataclass(frozen=True)
class CostConfig:
    """Per-part counting costs for the weighted Hamming distance."""

    false_positive_cost: float = 0.4
    false_negative_cost: float = 0.6

    def __post_init__(self):
        if self.false_positive_cost < 0 or self.false_negative_cost < 0:
            raise ValueError("costs must be nonnegative")


@dataclass(frozen=True)
class SpaceLimits:
    """Knobs controlling candidate enumeration.

    ``allowed_spans`` / ``allowed_arcs`` implement pruning: when given, only
    those (start, end) spans / (head, dep) arcs are enumerated.
    """

    max_span_len: int = 20
    include_cross_task: bool = True
    include_dependencies: bool = True
    dep_labels: tuple[str, ...] = ()
    allowed_spans: Optional[frozenset[tuple[int, int]]] = None
    allowed_arcs: Optional[frozenset[tuple[int, int]]] = None


@dataclass
class CandidateSpace:
    """All scoreable parts for one decoding instance, with parallel scores.

    Index structures are derived once in ``__post_init__`` and never mutated;
    ``with_scores`` produces a scored copy sharing the part list and index.
    """

    sentence: Sentence
    target: Optional[Target]
    frames: tuple[str, ...]
    parts: tuple[Part, ...]
    scores: np.ndarray

    part_to_id: dict = field(init=False, repr=False)
    predicate_ids: tuple[int, ...] = field(init=False, repr=False)
    argument_ids: tuple[int, ...] = field(init=False, repr=False)
    head_ids: tuple[int, ...] = field(init=False, repr=False)
    arc_ids: tuple[int, ...] = field(init=False, repr=False)
    root_arc_ids: tuple[int, ...] = field(init=False, repr=False)
    labeled_ids: tuple[int, ...] = field(init=False, repr=False)
    cross_ids: tuple[int, ...] = field(init=False, repr=False)
    labels_for_arc: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.scores) != len(self.parts):
            raise ValueError("scores length must equal parts length")
        self.part_to_id = {p: i for i, p in enumerate(self.parts)}
        if len(self.part_to_id) != len(self.parts):
            raise ValueError("duplicate parts in candidate space")
        by_type: dict[type, list[int]] = {}
        for i, p in enumerate(self.parts):
            by_type.setdefault(type(p), []).append(i)
        self.predicate_ids = tuple(by_type.get(Predicate, ()))
        self.argument_ids = tuple(by_type.get(Argument, ()))
        self.head_ids = tuple(by_type.get(Head, ()))
        arcs = by_type.get(UnlabeledArc, ())
        self.arc_ids = tuple(i for i in arcs if not self.parts[i].is_root)
        self.root_arc_ids = tuple(i for i in arcs if self.parts[i].is_root)
        self.labeled_ids = tuple(by_type.get(LabeledArc, ()))
        self.cross_ids = tuple(by_type.get(CrossTask, ()))
        arc_of = {(self.parts[i].head, self.parts[i].dep): i for i in arcs}
        self.labels_for_arc = {}
        for i in self.labeled_ids:
            la = self.parts[i]
            arc = arc_of.get((la.head, la.dep))
            if arc is None:
                raise ValueError(f"labeled arc {la} has no unlabeled arc "
                                 "in the space")
            self.labels_for_arc.setdefault(arc, []).append(i)
        for i in self.cross_ids:
            c = self.parts[i]
            arg = self.parts[c.arg_id]
            arc = self.parts[c.arc_id]
            if not isinstance(arg, Argument) or not isinstance(arc, UnlabeledArc):
                raise ValueError(f"cross-task part {i} references wrong part types")
            if arc.head != self.target.start or not arg.start <= arc.dep <= arg.end:
                raise ValueError(f"cross-task part {i} pairs incompatible argument and arc")

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return len(self.sentence)

    def with_scores(self, scores: np.ndarray) -> "CandidateSpace":
        """A copy carrying ``scores`` that shares this space's parts and
        derived index."""
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (len(self.parts),):
            raise ValueError(f"expected {len(self.parts)} scores, got {scores.shape}")
        scored = copy.copy(self)
        scored.scores = scores
        return scored


def enumerate_spans(n: int, max_len: int,
                    allowed: Optional[frozenset[tuple[int, int]]] = None) -> list[tuple[int, int]]:
    spans = [(i, j) for i in range(n) for j in range(i, min(n, i + max_len))]
    if allowed is not None:
        spans = [s for s in spans if s in allowed]
    return spans


def enumerate_arcs(n: int,
                   allowed: Optional[frozenset[tuple[int, int]]] = None) -> list[tuple[int, int]]:
    """Ordered (head, dep) token pairs without self arcs, head-major."""
    arcs = [(h, d) for h in range(n) for d in range(n) if h != d]
    if allowed is not None:
        arcs = [a for a in arcs if a in allowed]
    return arcs


def build_candidate_space(sentence: Sentence, target: Optional[Target],
                          ontology: Ontology, limits: SpaceLimits) -> CandidateSpace:
    """Enumerate every scoreable part for one decoding instance.

    With a target present: one Predicate per candidate frame and one Argument
    per (frame, span, role) with span length <= the cap.  With dependencies
    enabled: Head parts per token, UnlabeledArc/LabeledArc parts for all
    ordered token pairs plus virtual-root arcs carrying the top designation.
    Cross-task parts pair each argument with each arc from the target's first
    token into the argument span.
    """
    n = len(sentence)
    if n == 0:
        raise SpandepError("empty sentence")
    parts: list[Part] = []

    frames: tuple[str, ...] = ()
    if target is not None:
        frames = ontology.frames_for(target.lu)
        if target.end >= n:
            raise SpandepError(f"target span {target.span} out of range for n={n}")
        for f in frames:
            parts.append(Predicate(target.span, target.lu, f))
        spans = enumerate_spans(n, limits.max_span_len, limits.allowed_spans)
        for f in frames:
            for (i, j) in spans:
                for r in ontology.roles_for(f):
                    parts.append(Argument(f, i, j, r))

    if limits.include_dependencies:
        for t in range(n):
            parts.append(Head(t))
        arc_list = enumerate_arcs(n, limits.allowed_arcs)
        for (h, d) in arc_list:
            parts.append(UnlabeledArc(h, d))
        for d in range(n):
            parts.append(UnlabeledArc(VIRTUAL_ROOT, d))
        for (h, d) in arc_list:
            for lab in limits.dep_labels:
                parts.append(LabeledArc(h, d, lab))

    if target is not None and limits.include_dependencies and limits.include_cross_task:
        # Arcs leave the first token of the target and land inside the span.
        ids = {p: i for i, p in enumerate(parts)}
        t1 = target.start
        for arg_id, p in enumerate(parts):
            if not isinstance(p, Argument):
                continue
            for d in range(p.start, p.end + 1):
                arc = UnlabeledArc(t1, d)
                if arc in ids:
                    parts.append(CrossTask(arg_id, ids[arc]))

    return CandidateSpace(sentence, target, frames, tuple(parts),
                          np.zeros(len(parts)))


def weighted_hamming(predicted: Iterable[Part], gold: Iterable[Part],
                     cost: CostConfig = CostConfig()) -> float:
    """Weighted Hamming distance between two part sets: false positives count
    ``false_positive_cost`` each, false negatives ``false_negative_cost``."""
    predicted, gold = set(predicted), set(gold)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    return cost.false_positive_cost * fp + cost.false_negative_cost * fn


def frame_parts(space: CandidateSpace, parse: FrameParse) -> set[Part]:
    """The Predicate/Argument parts realizing ``parse`` in ``space``."""
    parts: set[Part] = {Predicate(parse.target.span, parse.target.lu, parse.frame)}
    for (i, j, r) in parse.arguments:
        parts.add(Argument(parse.frame, i, j, r))
    missing = [p for p in parts if p not in space.part_to_id]
    if missing:
        raise SpandepError(f"gold parts outside candidate space: {sorted(map(str, missing))}")
    return parts


def dep_parts(space: CandidateSpace, graph: DependencyGraph) -> set[Part]:
    """The Head/UnlabeledArc/LabeledArc parts realizing ``graph`` in ``space``."""
    parts: set[Part] = set()
    for (h, d, lab) in graph.arcs:
        parts.add(Head(h))
        parts.add(UnlabeledArc(h, d))
        parts.add(LabeledArc(h, d, lab))
    if graph.top is not None:
        parts.add(UnlabeledArc(VIRTUAL_ROOT, graph.top))
    missing = [p for p in parts if p not in space.part_to_id]
    if missing:
        raise SpandepError(f"gold parts outside candidate space: {sorted(map(str, missing))}")
    return parts


def assemble_structures(space: CandidateSpace, active: Iterable[Part]
                        ) -> tuple[Optional[FrameParse], DependencyGraph]:
    """Turn an active part set into (FrameParse or None, DependencyGraph)."""
    active = set(active)
    frame = None
    args = set()
    arcs = set()
    top = None
    for p in active:
        if isinstance(p, Predicate):
            if frame is not None:
                raise SpandepError("multiple active predicate parts")
            frame = p.frame
        elif isinstance(p, Argument):
            args.add((p.start, p.end, p.role))
        elif isinstance(p, LabeledArc):
            arcs.add((p.head, p.dep, p.label))
        elif isinstance(p, UnlabeledArc) and p.is_root:
            if top is not None:
                raise SpandepError("multiple active top arcs")
            top = p.dep
    parse = None
    if frame is not None:
        parse = FrameParse(space.target, frame, frozenset(args))
    return parse, DependencyGraph(frozenset(arcs), top)
