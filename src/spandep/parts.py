"""Core domain types: sentences, annotations, the frame ontology, scoreable
parts, and candidate spaces.

Everything here is immutable after construction, so instances can be shared
freely across concurrent decoding workers.

Conventions used throughout the package:
  * token indices are 0-based, spans are inclusive (start, end);
  * a distinguished index ``VIRTUAL_ROOT`` (-1) is the head of top arcs;
  * a candidate space lists its parts grouped by type, in a fixed order
    (predicates, arguments, heads, arcs, root arcs, labeled arcs, cross-task),
    so each group is a range of part ids, and part ids index both ``parts``
    and the parallel ``scores`` array;
  * a decoded structure is a boolean mask over a space's parts.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
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


# Weighted Hamming costs: each false-positive part, each false-negative part.
FP_COST = 0.4
FN_COST = 0.6


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


# The type groups of a candidate space, in the order its parts list them.
GROUPS = ("predicate_ids", "argument_ids", "head_ids", "arc_ids",
          "root_arc_ids", "labeled_ids", "cross_ids")
# Group of each part type; a root arc (head VIRTUAL_ROOT) is one further on.
_GROUP_OF = {Predicate: 0, Argument: 1, Head: 2, UnlabeledArc: 3,
             LabeledArc: 5, CrossTask: 6}


@dataclass
class CandidateSpace:
    """All scoreable parts for one decoding instance, with parallel scores.

    The parts come grouped by type in the order of ``GROUPS``, and each
    ``*_ids`` attribute is the ``range`` of ids its group holds; the
    construction raises ``ValueError`` on parts out of that order.
    ``cross_arg`` and ``cross_arc`` hold the argument and arc id of each
    cross-task part.  These indexes are derived once in ``__post_init__``
    and never mutated; ``with_scores`` produces a scored copy sharing them.
    """

    sentence: Sentence
    target: Optional[Target]
    frames: tuple[str, ...]
    parts: tuple[Part, ...]
    scores: np.ndarray

    part_to_id: dict = field(init=False, repr=False)
    predicate_ids: range = field(init=False, repr=False)
    argument_ids: range = field(init=False, repr=False)
    head_ids: range = field(init=False, repr=False)
    arc_ids: range = field(init=False, repr=False)
    root_arc_ids: range = field(init=False, repr=False)
    labeled_ids: range = field(init=False, repr=False)
    cross_ids: range = field(init=False, repr=False)
    cross_arg: np.ndarray = field(init=False, repr=False)
    cross_arc: np.ndarray = field(init=False, repr=False)
    labels_for_arc: dict = field(init=False, repr=False)

    def __post_init__(self):
        parts = self.parts
        if len(self.scores) != len(parts):
            raise ValueError("scores length must equal parts length")
        self.part_to_id = {p: i for i, p in enumerate(parts)}
        if len(self.part_to_id) != len(parts):
            raise ValueError("duplicate parts in candidate space")
        try:
            group = [_GROUP_OF[type(p)]
                     + (type(p) is UnlabeledArc and p.head == VIRTUAL_ROOT)
                     for p in parts]
        except KeyError as e:
            raise ValueError(f"not a part type: {e.args[0].__name__}") from None
        for i in range(1, len(group)):
            if group[i] < group[i - 1]:
                raise ValueError(
                    f"part {i} ({parts[i]}) comes after a "
                    f"{GROUPS[group[i - 1]]} part; parts must be grouped "
                    f"in the order {', '.join(GROUPS)}")
        bounds = [bisect_left(group, k) for k in range(len(GROUPS) + 1)]
        for k, name in enumerate(GROUPS):
            setattr(self, name, range(bounds[k], bounds[k + 1]))

        arc_of = {(parts[i].head, parts[i].dep): i
                  for i in range(self.arc_ids.start, self.root_arc_ids.stop)}
        self.labels_for_arc = {}
        for i in self.labeled_ids:
            la = parts[i]
            arc = arc_of.get((la.head, la.dep))
            if arc is None:
                raise ValueError(f"labeled arc {la} has no unlabeled arc "
                                 "in the space")
            self.labels_for_arc.setdefault(arc, []).append(i)

        cross = parts[self.cross_ids.start:]
        self.cross_arg = np.array([c.arg_id for c in cross], dtype=int)
        self.cross_arc = np.array([c.arc_id for c in cross], dtype=int)
        for i, a, b in zip(self.cross_ids, self.cross_arg.tolist(),
                           self.cross_arc.tolist()):
            if a not in self.argument_ids or b not in self.arc_ids:
                raise ValueError(f"cross-task part {i} references wrong part types")
            arg, arc = parts[a], parts[b]
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

    def mask(self, parts: Iterable[Part]) -> np.ndarray:
        """The boolean mask over ``self.parts`` that is set on ``parts``."""
        active = np.zeros(len(self.parts), dtype=bool)
        active[[self.part_to_id[p] for p in parts]] = True
        return active

    def close_pairs(self, active: np.ndarray) -> np.ndarray:
        """Set each cross-task bit of the mask ``active`` to the AND of its
        argument's and its arc's bits, in place; returns ``active``."""
        active[self.cross_ids.start:] = \
            active[self.cross_arg] & active[self.cross_arc]
        return active


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

    first_head = len(parts)
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
        arc_to = {d: first_head + n + k for k, (h, d) in enumerate(arc_list)
                  if h == target.start}
        for arg_id in range(len(frames), first_head):
            p = parts[arg_id]
            parts.extend(CrossTask(arg_id, arc_to[d])
                         for d in range(p.start, p.end + 1) if d in arc_to)

    return CandidateSpace(sentence, target, frames, tuple(parts),
                          np.zeros(len(parts)))


def weighted_hamming(predicted: np.ndarray, gold: np.ndarray) -> float:
    """Weighted Hamming distance between two part masks: false positives
    count ``FP_COST`` each, false negatives ``FN_COST``."""
    fp = int(np.count_nonzero(predicted & ~gold))
    fn = int(np.count_nonzero(gold & ~predicted))
    return FP_COST * fp + FN_COST * fn


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


def _active_parts(space: CandidateSpace, active: np.ndarray,
                  ids: range) -> list[Part]:
    on = np.flatnonzero(active[ids.start:ids.stop]) + ids.start
    return [space.parts[i] for i in on.tolist()]


def assemble_structures(space: CandidateSpace, active: np.ndarray
                        ) -> tuple[Optional[FrameParse], DependencyGraph]:
    """Turn a part mask into (FrameParse or None, DependencyGraph)."""
    preds = _active_parts(space, active, space.predicate_ids)
    if len(preds) > 1:
        raise SpandepError("multiple active predicate parts")
    tops = _active_parts(space, active, space.root_arc_ids)
    if len(tops) > 1:
        raise SpandepError("multiple active top arcs")
    parse = None
    if preds:
        args = _active_parts(space, active, space.argument_ids)
        parse = FrameParse(space.target, preds[0].frame,
                           frozenset((a.start, a.end, a.role) for a in args))
    arcs = _active_parts(space, active, space.labeled_ids)
    return parse, DependencyGraph(
        frozenset((p.head, p.dep, p.label) for p in arcs),
        tops[0].dep if tops else None)
