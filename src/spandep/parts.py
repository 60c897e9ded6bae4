"""Core domain types: sentences, annotations, the frame ontology, scoreable
parts, and candidate spaces.

Everything here is immutable after construction, so instances can be shared
freely across concurrent decoding workers.

Conventions used throughout the package:
  * token indices are 0-based, spans are inclusive (start, end);
  * a distinguished index ``VIRTUAL_ROOT`` (-1) is the head of top arcs;
  * a candidate space lists its parts grouped by type, in a fixed order
    (predicates, arguments, heads, arcs, root arcs, labeled arcs, cross-task),
    so each group is a range of part ids; it stores them as integer arrays
    per group, and part ids index those, the parallel ``scores`` array and
    the ``parts`` view;
  * a decoded structure is a boolean mask over a space's parts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence, TypeVar, Union

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
    """One parse per target: no (start, end) target span appears twice."""

    parses: tuple[FrameParse, ...]

    def __post_init__(self):
        seen = set()
        for p in self.parses:
            if p.target.span in seen:
                raise ValueError(f"target span [{p.target.start}, "
                                 f"{p.target.end}] annotated twice")
            seen.add(p.target.span)


Supervision = Union[FrameAnnotations, DependencyGraph, None]
_SUPERVISION_NAMES = {FrameAnnotations: "frame annotations",
                      DependencyGraph: "dependency graph"}
_Kind = TypeVar("_Kind", FrameAnnotations, DependencyGraph)


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


def supervision(sentence: Sentence, kind: type[_Kind]) -> _Kind:
    """The sentence's supervision, which must be a ``kind``
    (``FrameAnnotations`` or ``DependencyGraph``)."""
    sup = sentence.supervision
    if not isinstance(sup, kind):
        raise SpandepError(f"sentence {sentence.id!r} carries no "
                           f"{_SUPERVISION_NAMES[kind]}")
    return sup


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


@dataclass(frozen=True)
class Head:
    token: int


@dataclass(frozen=True)
class UnlabeledArc:
    head: int
    dep: int


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
# The integer arrays that hold a candidate space's parts (see CandidateSpace).
SPACE_ARRAYS = ("pred_frame", "arg_frame", "arg_start", "arg_end",
                "arg_role", "head_token", "arc_head", "arc_dep", "lab_arc",
                "lab_label", "cross_arg", "cross_arc")

_NO_IDS = np.zeros(0, dtype=int)


class CandidateSpace:
    """All scoreable parts for one decoding instance, with parallel scores.

    The parts are integer arrays, one set per type group.  Part ids number
    the groups consecutively in the order of ``GROUPS``; each ``*_ids``
    attribute is the ``range`` of ids its group holds, and ids index the
    parallel ``scores`` array.  The arrays (``SPACE_ARRAYS``):

      * ``pred_frame``: each predicate's frame, an index into ``frames``
        (its target is the space's);
      * ``arg_frame``, ``arg_start``, ``arg_end``, ``arg_role``: each
        argument's frame, inclusive span and role, an index into ``roles``;
      * ``head_token``: each head part's token;
      * ``arc_head``, ``arc_dep``: the tokens of the arcs in ``arc_ids``
        then of the root arcs in ``root_arc_ids`` (head ``VIRTUAL_ROOT``);
      * ``lab_arc``, ``lab_label``: each labeled arc's arc, as a part id,
        and its label, an index into ``labels``;
      * ``cross_arg``, ``cross_arc``: each cross-task part's argument and
        arc, as part ids.

    ``build_candidate_space`` fills the arrays with numpy (through
    ``from_arrays``).  The constructor takes the same space as a tuple of
    ``Part`` objects in group order and derives the arrays; it raises
    ``ValueError`` on parts out of that order, duplicates, a part the
    arrays cannot hold (a predicate of another target, an argument of a
    frame outside ``frames``, a token outside the sentence), a labeled arc
    without its arc, and a cross-task part that does not pair an argument
    with an arc from the target's first token into its span.

    ``gold_mask`` reads the arrays and needs nothing built beforehand.
    ``parts`` and ``labels_for_arc`` are ``Part``-level views built on
    first access; ``with_scores`` copies share the arrays and the views.
    """

    def __init__(self, sentence: Sentence, target: Optional[Target],
                 frames: tuple[str, ...], parts: Sequence[Part],
                 scores: np.ndarray):
        parts = tuple(parts)
        if len(scores) != len(parts):
            raise ValueError("scores length must equal parts length")
        if len(set(parts)) != len(parts):
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

        self._names(sentence, target, frames,
                    tuple(dict.fromkeys(p.role for p in parts
                                        if type(p) is Argument)),
                    tuple(dict.fromkeys(p.label for p in parts
                                        if type(p) is LabeledArc)))
        rows: dict[type, list] = {kind: [] for kind in _GROUP_OF}
        for p in parts:
            rows[type(p)].append(tuple(vars(p).values()))
        first = dict(zip(_GROUP_OF, accumulate(map(len, rows.values()),
                                               initial=0)))
        for kind in (Predicate, Argument, Head, UnlabeledArc, LabeledArc):
            rows[kind], bounds = self._digits(kind, rows[kind])
            for k, digits in enumerate(rows[kind]):
                if not _fits(digits, bounds) or \
                        kind is Argument and digits[1] > digits[2]:
                    i = first[kind] + k
                    raise ValueError(f"part {i} ({parts[i]}) does not fit the "
                                     "space's target, frames or sentence")
        # a labeled arc refers to its arc by part id
        arc_of = {arc: first[UnlabeledArc] + k
                  for k, arc in enumerate(rows[UnlabeledArc])}
        for k, (h, d, label) in enumerate(rows[LabeledArc]):
            if (h, d) not in arc_of:
                raise ValueError(f"labeled arc {parts[first[LabeledArc] + k]} "
                                 "has no unlabeled arc in the space")
            rows[LabeledArc][k] = (arc_of[h, d], label)

        def cols(kind, width):
            return np.array(rows[kind], dtype=int).reshape(-1, width).T

        (pred_frame,) = cols(Predicate, 1)
        arg_frame, arg_start, arg_end, arg_role = cols(Argument, 4)
        (head_token,) = cols(Head, 1)
        arc_head, arc_dep = cols(UnlabeledArc, 2)
        arc_head = arc_head - 1  # the digit is the head plus one
        lab_arc, lab_label = cols(LabeledArc, 2)
        cross_arg, cross_arc = cols(CrossTask, 2)
        self._fill(scores, pred_frame=pred_frame, arg_frame=arg_frame,
                   arg_start=arg_start, arg_end=arg_end, arg_role=arg_role,
                   head_token=head_token, arc_head=arc_head, arc_dep=arc_dep,
                   lab_arc=lab_arc, lab_label=lab_label, cross_arg=cross_arg,
                   cross_arc=cross_arc)

        for i, a, b in zip(self.cross_ids, cross_arg.tolist(),
                           cross_arc.tolist()):
            if a not in self.argument_ids or b not in self.arc_ids:
                raise ValueError(f"cross-task part {i} references wrong part types")
            a -= self.argument_ids.start
            b -= self.arc_ids.start
            if arc_head[b] != target.start or \
                    not arg_start[a] <= arc_dep[b] <= arg_end[a]:
                raise ValueError(f"cross-task part {i} pairs incompatible argument and arc")

    @classmethod
    def from_arrays(cls, sentence: Sentence, target: Optional[Target],
                    frames: tuple[str, ...], roles: tuple[str, ...],
                    labels: tuple[str, ...], scores: np.ndarray,
                    **arrays: np.ndarray) -> "CandidateSpace":
        """A space from its ``SPACE_ARRAYS``, given by name, unchecked."""
        space = cls.__new__(cls)
        space._names(sentence, target, frames, roles, labels)
        space._fill(scores, **arrays)
        return space

    def _names(self, sentence, target, frames, roles, labels):
        self.sentence, self.target, self.frames = sentence, target, frames
        self.roles, self.labels = roles, labels

    def _fill(self, scores, *, pred_frame, arg_frame, arg_start, arg_end,
              arg_role, head_token, arc_head, arc_dep, lab_arc, lab_label,
              cross_arg, cross_arc):
        self.pred_frame, self.arg_frame = pred_frame, arg_frame
        self.arg_start, self.arg_end, self.arg_role = arg_start, arg_end, arg_role
        self.head_token, self.arc_head, self.arc_dep = head_token, arc_head, arc_dep
        self.lab_arc, self.lab_label = lab_arc, lab_label
        self.cross_arg, self.cross_arc = cross_arg, cross_arc
        n_roots = int(np.count_nonzero(arc_head == VIRTUAL_ROOT))
        sizes = (len(pred_frame), len(arg_frame), len(head_token),
                 len(arc_head) - n_roots, n_roots, len(lab_arc), len(cross_arg))
        stop = 0
        for name, size in zip(GROUPS, sizes):
            setattr(self, name, range(stop, stop + size))
            stop += size
        self.scores = scores
        self._views: dict = {}

    def __len__(self) -> int:
        return self.cross_ids.stop

    @property
    def n(self) -> int:
        return len(self.sentence)

    def _view(self, name: str, make):
        views = self._views
        if name not in views:
            views[name] = make()
        return views[name]

    @property
    def parts(self) -> tuple[Part, ...]:
        """The parts as ``Part`` objects, in id order."""
        return self._view("parts", self._make_parts)

    @property
    def labels_for_arc(self) -> dict:
        """The ids of each arc's labeled arcs, by the arc's id; kept for
        perfbench/checks.py:102."""
        def make():
            out: dict[int, list[int]] = {}
            for i, arc in zip(self.labeled_ids, self.lab_arc.tolist()):
                out.setdefault(arc, []).append(i)
            return out
        return self._view("labels_for_arc", make)

    def _make_parts(self) -> tuple[Part, ...]:
        t, frames, roles, labels = self.target, self.frames, self.roles, \
            self.labels
        own = self.lab_arc - self.arc_ids.start
        return (
            *(Predicate(t.span, t.lu, frames[f])
              for f in self.pred_frame.tolist()),
            *(Argument(frames[f], i, j, roles[r]) for f, i, j, r in zip(
                self.arg_frame.tolist(), self.arg_start.tolist(),
                self.arg_end.tolist(), self.arg_role.tolist())),
            *map(Head, self.head_token.tolist()),
            *map(UnlabeledArc, self.arc_head.tolist(), self.arc_dep.tolist()),
            *(LabeledArc(h, d, labels[k]) for h, d, k in zip(
                self.arc_head[own].tolist(), self.arc_dep[own].tolist(),
                self.lab_label.tolist())),
            *map(CrossTask, self.cross_arg.tolist(), self.cross_arc.tolist()))

    def with_scores(self, scores: np.ndarray) -> "CandidateSpace":
        """A copy carrying ``scores`` that shares this space's arrays and
        views."""
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (len(self),):
            raise ValueError(f"expected {len(self)} scores, got {scores.shape}")
        scored = copy.copy(self)
        scored.scores = scores
        return scored

    def gold_mask(self, gold: Union[FrameParse, DependencyGraph]
                  ) -> np.ndarray:
        """The mask over the space's parts set on the parts that realize
        ``gold``: a parse's predicate and arguments, or a graph's heads,
        arcs, labeled arcs and top arc.  Each part type takes one search of
        integer keys made from ``gold``'s tuples among keys made from the
        space's arrays.  A part the space lacks is a ``SpandepError`` that
        names it."""
        # the gold parts by type, each as its ``Part``'s fields
        if isinstance(gold, FrameParse):
            t = gold.target
            rows = {Predicate: [(t.span, t.lu, gold.frame)],
                    Argument: [(gold.frame, *arg) for arg in gold.arguments]}
        else:
            top = [] if gold.top is None else [(VIRTUAL_ROOT, gold.top)]
            rows = {Head: [(h,) for h, _, _ in gold.arcs],
                    UnlabeledArc: [(h, d) for h, d, _ in gold.arcs] + top,
                    LabeledArc: list(gold.arcs)}
        active = np.zeros(len(self), dtype=bool)
        missing = set()
        for kind, fields in rows.items():
            first, have = self._columns(kind)
            digits, bounds = self._digits(kind, fields)
            want = [_key(d, bounds) if _fits(d, bounds) else -1
                    for d in digits]
            ids = _find(_key(have, bounds), np.array(want, dtype=int))
            lost = [kind(*fields[k]) for k, i in enumerate(ids.tolist())
                    if i < 0]
            missing.update(lost)
            if not lost:
                active[first + ids] = True
        if missing:
            raise SpandepError("gold parts outside candidate space: "
                               f"{sorted(map(str, missing))}")
        return active

    def _digits(self, kind: type, rows: list[tuple]):
        """Parts of type ``kind``, each given by its ``Part``'s fields in
        order, as integer digits, with the bound of each digit: names become
        indices into the space's (-1 when absent) and arc heads the head
        plus one, so a part the arrays cannot hold has a digit out of
        bounds.  The digits of a predicate are its frame's."""
        n, frames, roles, labels = self.n, self.frames, self.roles, self.labels
        if kind is Predicate:
            t = self.target
            return [(_index(frames, f) if t is not None
                     and (span, lu) == (t.span, t.lu) else -1,)
                    for span, lu, f in rows], (len(frames),)
        if kind is Argument:
            return [(_index(frames, f), i, j, _index(roles, r))
                    for f, i, j, r in rows], (len(frames), n, n, len(roles))
        if kind is Head:
            return rows, (n,)
        if kind is UnlabeledArc:
            return [(h + 1, d) for h, d in rows], (n + 1, n)
        return [(h + 1, d, _index(labels, lab)) for h, d, lab in rows], \
            (n + 1, n, len(labels))

    def _columns(self, kind: type) -> tuple[int, tuple[np.ndarray, ...]]:
        """The first id of the parts of type ``kind``, and their digits
        (see ``_digits``) as columns of the space's arrays."""
        if kind is Predicate:
            return 0, (self.pred_frame,)
        if kind is Argument:
            return self.argument_ids.start, (self.arg_frame, self.arg_start,
                                             self.arg_end, self.arg_role)
        if kind is Head:
            return self.head_ids.start, (self.head_token,)
        if kind is UnlabeledArc:
            return self.arc_ids.start, (self.arc_head + 1, self.arc_dep)
        own = self.lab_arc - self.arc_ids.start
        return self.labeled_ids.start, (self.arc_head[own] + 1,
                                        self.arc_dep[own], self.lab_label)

    def close_pairs(self, active: np.ndarray) -> np.ndarray:
        """Set each cross-task bit of the mask ``active`` to the AND of its
        argument's and its arc's bits, in place; returns ``active``."""
        active[self.cross_ids.start:] = \
            active[self.cross_arg] & active[self.cross_arc]
        return active


def _index(names: tuple[str, ...], name: str) -> int:
    """The position of ``name`` in ``names``, -1 when absent."""
    return names.index(name) if name in names else -1


def _fits(digits: tuple[int, ...], bounds: tuple[int, ...]) -> bool:
    return all(0 <= d < b for d, b in zip(digits, bounds))


def _key(digits, bounds: tuple[int, ...]):
    """The mixed-radix number whose digit k, below ``bounds[k]``, is
    ``digits[k]``: an int from ints, an array from integer columns."""
    key = 0
    for digit, bound in zip(digits, bounds):
        key = key * bound + digit
    return key


def _find(have: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The index in ``have`` of each key in ``want`` (the lowest, for a key
    ``have`` holds twice), -1 for a key it lacks."""
    if not len(have):
        return np.full(len(want), -1)
    order = have.argsort(kind="stable")
    pos = order[np.minimum(have.searchsorted(want, sorter=order),
                           len(have) - 1)]
    return np.where(have[pos] == want, pos, -1)


def span_array(n: int, max_len: int,
               allowed: Optional[frozenset[tuple[int, int]]] = None
               ) -> np.ndarray:
    """The (start, end) spans of length at most ``max_len``, as rows,
    start-major and ends ascending; only ``allowed`` ones when given."""
    start, end = np.triu_indices(n)
    keep = end - start < max_len
    if allowed is not None:
        keep &= np.fromiter(((i, j) in allowed for i, j in
                             zip(start.tolist(), end.tolist())),
                            dtype=bool, count=len(start))
    return np.stack((start[keep], end[keep]), axis=1)


def arc_array(n: int,
              allowed: Optional[frozenset[tuple[int, int]]] = None
              ) -> np.ndarray:
    """Ordered (head, dep) token pairs without self arcs, as rows,
    head-major; only ``allowed`` ones when given."""
    head, dep = np.divmod(np.arange(n * n), n)
    keep = head != dep
    if allowed is not None:
        keep &= np.fromiter(((h, d) in allowed for h, d in
                             zip(head.tolist(), dep.tolist())),
                            dtype=bool, count=n * n)
    return np.stack((head[keep], dep[keep]), axis=1)


def enumerate_spans(n: int, max_len: int) -> list[tuple[int, int]]:
    """``span_array`` as a list of tuples."""
    return list(map(tuple, span_array(n, max_len).tolist()))


def enumerate_arcs(n: int) -> list[tuple[int, int]]:
    """``arc_array`` as a list of tuples."""
    return list(map(tuple, arc_array(n).tolist()))


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
    frames: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    a = dict.fromkeys(SPACE_ARRAYS, _NO_IDS)

    if target is not None:
        frames = ontology.frames_for(target.lu)
        if target.end >= n:
            raise SpandepError(f"target span {target.span} out of range for n={n}")
        a["pred_frame"] = np.arange(len(frames))
        spans = span_array(n, limits.max_span_len, limits.allowed_spans)
        if len(spans) and frames:
            # frame-major, then span, then the frame's roles
            roles = tuple(dict.fromkeys(r for f in frames
                                        for r in ontology.roles_for(f)))
            role_ix = {r: k for k, r in enumerate(roles)}
            per_frame = [np.array([role_ix[r] for r in ontology.roles_for(f)])
                         for f in frames]
            a["arg_frame"] = np.repeat(np.arange(len(frames)),
                                       [len(spans) * len(rs) for rs in per_frame])
            rows = np.concatenate([np.repeat(spans, len(rs), axis=0)
                                   for rs in per_frame])
            a["arg_start"], a["arg_end"] = rows[:, 0], rows[:, 1]
            a["arg_role"] = np.concatenate([np.tile(rs, len(spans))
                                            for rs in per_frame])

    if limits.include_dependencies:
        first_arc = len(frames) + len(a["arg_frame"]) + n
        arcs = arc_array(n, limits.allowed_arcs)
        a["head_token"] = np.arange(n)
        a["arc_head"] = np.concatenate((arcs[:, 0], np.full(n, VIRTUAL_ROOT)))
        a["arc_dep"] = np.concatenate((arcs[:, 1], np.arange(n)))
        if len(arcs) and limits.dep_labels:
            labels = tuple(limits.dep_labels)
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate parts in candidate space")
            a["lab_arc"] = np.repeat(first_arc + np.arange(len(arcs)),
                                     len(labels))
            a["lab_label"] = np.arange(len(arcs) * len(labels)) % len(labels)

        if target is not None and limits.include_cross_task:
            # arcs leave the first token of the target and land inside the
            # span; pairs run argument-major, dependents ascending
            from_t1 = np.flatnonzero(arcs[:, 0] == target.start)
            arc_to = np.full(n, -1)
            arc_to[arcs[from_t1, 1]] = first_arc + from_t1
            width = a["arg_end"] - a["arg_start"] + 1
            owner = np.repeat(np.arange(len(width)), width)
            dep = np.arange(len(owner)) - np.repeat(np.cumsum(width) - width,
                                                    width) + a["arg_start"][owner]
            arc = arc_to[dep]
            keep = arc >= 0
            a["cross_arg"] = len(frames) + owner[keep]
            a["cross_arc"] = arc[keep]

    size = sum(len(a[k]) for k in ("pred_frame", "arg_frame", "head_token",
                                   "arc_head", "lab_arc", "cross_arg"))
    return CandidateSpace.from_arrays(sentence, target, frames, roles, labels,
                                      np.zeros(size), **a)


def weighted_hamming(predicted: np.ndarray, gold: np.ndarray) -> float:
    """Weighted Hamming distance between two part masks: false positives
    count ``FP_COST`` each, false negatives ``FN_COST``."""
    fp = int(np.count_nonzero(predicted & ~gold))
    fn = int(np.count_nonzero(gold & ~predicted))
    return FP_COST * fp + FN_COST * fn


def frame_parts(space: CandidateSpace, parse: FrameParse) -> set[Part]:
    """The Predicate/Argument parts realizing ``parse`` in ``space``, as
    ``Part`` objects; kept for perfbench/checks.py:28,116,136."""
    return {space.parts[i] for i in np.flatnonzero(space.gold_mask(parse))}


def assemble_structures(space: CandidateSpace, active: np.ndarray
                        ) -> tuple[Optional[FrameParse], DependencyGraph]:
    """Turn a part mask into (FrameParse or None, DependencyGraph)."""
    def on(ids: range) -> np.ndarray:
        return np.flatnonzero(active[ids.start:ids.stop])

    preds = on(space.predicate_ids)
    if len(preds) > 1:
        raise SpandepError("multiple active predicate parts")
    tops = on(space.root_arc_ids)
    if len(tops) > 1:
        raise SpandepError("multiple active top arcs")
    parse = None
    if len(preds):
        args = on(space.argument_ids)
        roles = [space.roles[r] for r in space.arg_role[args].tolist()]
        parse = FrameParse(
            space.target, space.frames[space.pred_frame[preds[0]]],
            frozenset(zip(space.arg_start[args].tolist(),
                          space.arg_end[args].tolist(), roles)))
    labeled = on(space.labeled_ids)
    own = space.lab_arc[labeled] - space.arc_ids.start
    labels = [space.labels[k] for k in space.lab_label[labeled].tolist()]
    top = None
    if len(tops):
        top = int(space.arc_dep[len(space.arc_ids) + tops[0]])
    return parse, DependencyGraph(
        frozenset(zip(space.arc_head[own].tolist(),
                      space.arc_dep[own].tolist(), labels)), top)
