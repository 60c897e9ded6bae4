"""Binary factor graphs over candidate parts, plus clamping/propagation.

Variables are candidate parts (everything except CrossTask parts, which
become Pair factors).  Factor types:

  * Xor         -- exactly one literal true (literals may be negated)
  * Implication -- a true forces b true
  * Pair        -- score fires when both endpoints are true (no constraint)
  * SemiMarkov  -- selected argument spans must not overlap

A graph holds its XOR factors as flat literal slots with row offsets
(``Rows``) and its implications and pairs as endpoint arrays;
``build_factor_graph`` fills them from a candidate space's per-type part
ids.  The factor dataclasses are the construction form for hand-built
graphs, and ``xors`` ... ``semis`` show a graph's factors in that form.

``clamp_graph`` fixes variables and runs unit propagation to a fixpoint,
returning a reduced graph plus the score offset absorbed from fixed-true
variables and resolved Pair factors.  The same machinery serves
latent-completion decoding and the branch-and-bound fallback in the solver.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..parts import CandidateSpace, SpandepError


class Infeasible(SpandepError):
    """No assignment satisfies the constraints."""


def _ids(values) -> np.ndarray:
    return np.fromiter(values, dtype=int)


_NO_IDS = np.zeros(0, dtype=int)


@dataclass(frozen=True)
class Xor:
    vars: tuple[int, ...]
    neg: tuple[bool, ...]

    def __post_init__(self):
        if not self.vars or len(self.vars) != len(self.neg):
            raise ValueError("malformed xor factor")


@dataclass(frozen=True)
class Implication:
    a: int
    b: int


@dataclass(frozen=True)
class Pair:
    a: int
    b: int
    score: float


@dataclass(frozen=True)
class SemiMarkov:
    vars: tuple[int, ...]
    spans: tuple[tuple[int, int, object], ...]
    n: int
    max_len: int


# no settings; kept only because perfbench/checks.py:21 imports it
@dataclass(frozen=True)
class GraphConstraints:
    pass


@dataclass(frozen=True, eq=False)
class Rows:
    """XOR factors, flattened: factor k holds the slots ``ptr[k]:ptr[k+1]``
    of ``var`` and of ``neg``, the negated-literal flags."""

    var: np.ndarray
    neg: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, factors) -> "Rows":
        """From Xor dataclasses."""
        neg = [ng for f in factors for ng in f.neg]
        sizes = [len(f.vars) for f in factors]
        return cls(_ids(v for f in factors for v in f.vars),
                   np.array(neg, dtype=bool),
                   np.concatenate(([0], np.cumsum(sizes, dtype=int))))

    @classmethod
    def join(cls, chunks: Sequence[tuple]) -> "Rows":
        """Concatenate ``(var, neg, sizes)`` chunks, each holding whole
        factors."""
        if not chunks:
            return NO_ROWS
        var, neg, sizes = zip(*chunks)
        return cls(np.concatenate(var), np.concatenate(neg),
                   np.concatenate(([0], np.cumsum(np.concatenate(sizes)))))

    @property
    def count(self) -> int:
        return len(self.ptr) - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.ptr[1:] - self.ptr[:-1]

    @cached_property
    def row(self) -> np.ndarray:
        """Factor number of each slot."""
        return np.repeat(np.arange(self.count), self.sizes)

    def lists(self) -> list[tuple[list, list]]:
        """(variables, negation flags) per factor, as Python lists."""
        var, neg, ptr = self.var.tolist(), self.neg.tolist(), self.ptr.tolist()
        return [(var[a:b], neg[a:b]) for a, b in zip(ptr, ptr[1:])]

    def select(self, rows: np.ndarray, slots: np.ndarray,
               remap: np.ndarray) -> "Rows":
        """The factors flagged in ``rows``, each cut to its slots flagged in
        ``slots`` and renumbered through ``remap``; factors left with no
        slots are dropped."""
        row = self.row
        keep = slots & rows[row]
        sizes = np.bincount(row[keep], minlength=self.count)
        return Rows(remap[self.var[keep]], self.neg[keep],
                    np.concatenate(([0], np.cumsum(sizes[sizes > 0]))))


NO_ROWS = Rows(_NO_IDS, np.zeros(0, dtype=bool), np.zeros(1, dtype=int))


class FactorView(Sequence):
    """A graph's factors of one type, made into dataclasses on access."""

    def __init__(self, count: int, make: Callable[[int], object]):
        self._count = count
        self._make = make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int):
        if not -self._count <= k < self._count:
            raise IndexError(k)
        return self._make(k % self._count)

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, list, FactorView)) \
            and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class FactorGraph:
    """Unary scores, one label per variable, and the factors as index
    arrays.  Construct from factor dataclasses, or with ``from_arrays``."""

    def __init__(self, theta, labels: tuple, xors=(), imps=(), pairs=(),
                 semis=(), offset: float = 0.0):
        self._setup(theta, labels, Rows.of(xors),
                    _ids(f.a for f in imps), _ids(f.b for f in imps),
                    _ids(f.a for f in pairs), _ids(f.b for f in pairs),
                    np.array([f.score for f in pairs], dtype=float),
                    tuple(semis), offset)
        for f in self.semis:
            if len(f.vars) != len(f.spans):
                raise ValueError("semi-markov vars/spans mismatch")
        bad = (self._slots < 0) | (self._slots >= self.nvars)
        if bad.any():
            raise ValueError(f"variable {self._slots[bad][0]} out of range")

    @classmethod
    def from_arrays(cls, theta, labels: tuple, xor: Rows,
                    imp_a: np.ndarray, imp_b: np.ndarray,
                    pair_a: np.ndarray, pair_b: np.ndarray,
                    pair_score: np.ndarray, semis: tuple = (),
                    offset: float = 0.0) -> "FactorGraph":
        """A graph over index arrays that are in range by construction, as
        ``build_factor_graph``, ``clamp_graph`` and ``peel`` make them."""
        graph = cls.__new__(cls)
        graph._setup(theta, labels, xor, imp_a, imp_b, pair_a, pair_b,
                     pair_score, semis, offset)
        return graph

    def _setup(self, theta, labels, xor, imp_a, imp_b, pair_a, pair_b,
               pair_score, semis, offset) -> None:
        self.theta = np.asarray(theta, dtype=float)
        self.labels = labels
        self.xor = xor
        self.imp_a, self.imp_b = imp_a, imp_b
        self.pair_a, self.pair_b, self.pair_score = pair_a, pair_b, pair_score
        self.semis = semis
        self.offset = offset
        if len(self.labels) != self.nvars:
            raise ValueError("labels length != variable count")

    @cached_property
    def _semi(self) -> list:
        """(variables, starts, ends) arrays per segmentation factor."""
        return [(np.array(f.vars, dtype=int),
                 np.array([i for i, _j, _k in f.spans], dtype=int),
                 np.array([j for _i, j, _k in f.spans], dtype=int))
                for f in self.semis]

    @cached_property
    def _slots(self) -> np.ndarray:
        """The variable of every factor slot."""
        return np.concatenate(
            [self.xor.var, *(v for v, _, _ in self._semi),
             self.imp_a, self.imp_b, self.pair_a, self.pair_b])

    def _check_var(self, v: int) -> None:
        if not 0 <= v < self.nvars:
            raise ValueError(f"variable {v} out of range")

    @property
    def nvars(self) -> int:
        return len(self.theta)

    # --- the factors as dataclasses -----------------------------------------

    @property
    def xors(self) -> FactorView:
        def make(k):
            a, b = self.xor.ptr[k], self.xor.ptr[k + 1]
            return Xor(tuple(self.xor.var[a:b].tolist()),
                       tuple(self.xor.neg[a:b].tolist()))
        return FactorView(self.xor.count, make)

    @property
    def amos(self) -> tuple:
        """Always empty; kept only because perfbench/layers.py:79 counts it."""
        return ()

    @property
    def imps(self) -> FactorView:
        return FactorView(len(self.imp_a), lambda k: Implication(
            int(self.imp_a[k]), int(self.imp_b[k])))

    @property
    def pairs(self) -> FactorView:
        return FactorView(len(self.pair_a), lambda k: Pair(
            int(self.pair_a[k]), int(self.pair_b[k]),
            float(self.pair_score[k])))

    # --- checks -------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Number of factor slots touching each variable."""
        return np.bincount(self._slots, minlength=self.nvars)

    def check_assignment(self, active: np.ndarray) -> bool:
        """True when the boolean assignment satisfies all hard factors."""
        active = np.asarray(active, dtype=bool)
        if self.xor.count:
            lits = active[self.xor.var] != self.xor.neg
            if np.any(np.bincount(self.xor.row, weights=lits,
                                  minlength=self.xor.count) != 1):
                return False
        if np.any(active[self.imp_a] & ~active[self.imp_b]):
            return False
        for vars_, starts, ends in self._semi:
            on = active[vars_]
            st, en = starts[on], ends[on]
            order = np.argsort(st)
            if np.any(st[order][1:] <= en[order][:-1]):
                return False
        return True

    def objective(self, active: np.ndarray) -> float:
        active = np.asarray(active, dtype=bool)
        both = active[self.pair_a] & active[self.pair_b]
        return (self.offset + float(self.theta[active].sum())
                + float(self.pair_score[both].sum()))


@dataclass
class ClampResult:
    graph: FactorGraph
    forced: dict[int, bool]          # every fixed variable, original ids
    free: np.ndarray                 # original id of each reduced variable

    def lift(self, active_reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced-graph assignment to original variable ids."""
        full = np.zeros(len(self.forced) + len(self.free), dtype=bool)
        if self.forced:
            full[list(self.forced)] = list(self.forced.values())
        full[self.free] = np.asarray(active_reduced, dtype=bool)
        return full


FREE, OFF, ON = -1, 0, 1


def _propagate(graph: FactorGraph, state: np.ndarray) -> None:
    """Unit propagation to a fixpoint, in rounds over whole factor arrays.
    ``state`` holds FREE, OFF or ON per variable and is updated in place."""
    xor = graph.xor
    x_row = xor.row
    while True:
        on: list[np.ndarray] = []
        off: list[np.ndarray] = []
        if xor.count:
            s = state[xor.var]
            free = s == FREE
            true = ~free & ((s == ON) != xor.neg)
            n_true = np.bincount(x_row, true, minlength=xor.count)
            n_free = np.bincount(x_row, free, minlength=xor.count)
            if (n_true > 1).any():
                raise Infeasible("xor with two true literals")
            if ((n_true == 0) & (n_free == 0)).any():
                raise Infeasible("xor with all literals false")
            # beside a true literal every free literal is false; a lone
            # free literal is true
            done = free & (n_true == 1)[x_row]
            unit = free & ((n_true == 0) & (n_free == 1))[x_row]
            lit_on = np.where(done, xor.neg, ~xor.neg)
            slots = done | unit
            on.append(xor.var[slots & lit_on])
            off.append(xor.var[slots & ~lit_on])
        if len(graph.imp_a):
            sa, sb = state[graph.imp_a], state[graph.imp_b]
            on.append(graph.imp_b[(sa == ON) & (sb != ON)])
            off.append(graph.imp_a[(sb == OFF) & (sa != OFF)])
        for vars_, starts, ends in graph._semi:
            s = state[vars_]
            chosen = s == ON
            if not chosen.any():
                continue
            size = ends.max() + 2
            cover = np.cumsum(np.bincount(starts[chosen], minlength=size)
                              - np.bincount(ends[chosen] + 1, minlength=size))
            if (cover > 1).any():
                raise Infeasible("overlapping clamped spans")
            seen = np.concatenate(([0], np.cumsum(cover > 0)))
            off.append(vars_[(s == FREE) & (seen[ends + 1] > seen[starts])])
        on_v = np.concatenate(on) if on else _NO_IDS
        off_v = np.concatenate(off) if off else _NO_IDS
        was_on, was_off = state[on_v], state[off_v]
        if (was_on == OFF).any() or (was_off == ON).any():
            raise Infeasible("variable forced both ways")
        if not ((was_on == FREE).any() or (was_off == FREE).any()):
            return
        state[on_v] = ON
        if (state[off_v] == ON).any():
            raise Infeasible("variable forced both ways")
        state[off_v] = OFF


def clamp_graph(graph: FactorGraph, fixed: Mapping[int, bool]) -> ClampResult:
    """Fix variables, propagate consequences to a fixpoint, and rebuild.

    With nothing fixed and no single-literal XOR there is nothing to
    propagate, so the graph comes back as it is, less its empty
    segmentations.
    Raises Infeasible when propagation derives a contradiction.
    """
    n = graph.nvars
    if not fixed and (graph.xor.sizes > 1).all():
        semis = tuple(f for f in graph.semis if f.vars)
        if len(semis) < len(graph.semis):
            graph = FactorGraph.from_arrays(
                graph.theta, graph.labels, graph.xor, graph.imp_a,
                graph.imp_b, graph.pair_a, graph.pair_b, graph.pair_score,
                semis, graph.offset)
        return ClampResult(graph, {}, np.arange(n))

    state = np.full(n, FREE, dtype=np.int8)
    for v, b in fixed.items():
        graph._check_var(v)
        state[v] = ON if b else OFF
    _propagate(graph, state)

    free = np.flatnonzero(state == FREE)
    fixed_ids = np.flatnonzero(state != FREE)
    forced = dict(zip(fixed_ids.tolist(), (state[fixed_ids] == ON).tolist()))
    new = np.full(n, -1)
    new[free] = np.arange(len(free))
    theta = graph.theta[free]
    offset = graph.offset + float(graph.theta[state == ON].sum())

    sa, sb = state[graph.pair_a], state[graph.pair_b]
    live = (sa != OFF) & (sb != OFF)
    offset += float(graph.pair_score[live & (sa == ON) & (sb == ON)].sum())
    # a pair with one endpoint on becomes a unary score on the other
    half = live & ((sa == ON) != (sb == ON))
    np.add.at(theta, new[np.where(sa[half] == ON, graph.pair_b[half],
                                  graph.pair_a[half])],
              graph.pair_score[half])
    both_free = (sa == FREE) & (sb == FREE)

    xs = state[graph.xor.var]
    sat = np.bincount(graph.xor.row,
                      (xs != FREE) & ((xs == ON) != graph.xor.neg),
                      minlength=graph.xor.count) > 0
    xor = graph.xor.select(~sat, xs == FREE, new)
    imp = (state[graph.imp_a] == FREE) & (state[graph.imp_b] == FREE)

    semis = []
    for f, (vars_, _, _) in zip(graph.semis, graph._semi):
        kept = state[vars_] == FREE
        if kept.any():
            semis.append(SemiMarkov(
                tuple(new[vars_[kept]].tolist()),
                tuple(sp for sp, k in zip(f.spans, kept.tolist()) if k),
                f.n, f.max_len))

    labels = tuple(graph.labels[v] for v in free.tolist())
    reduced = FactorGraph.from_arrays(
        theta, labels, xor, new[graph.imp_a[imp]], new[graph.imp_b[imp]],
        new[graph.pair_a[both_free]], new[graph.pair_b[both_free]],
        graph.pair_score[both_free], tuple(semis), offset)
    return ClampResult(reduced, forced, free)


def build_factor_graph(space: CandidateSpace,
                       include_frames: bool = True) -> FactorGraph:
    """Factor graph over a scored candidate space.

    Construction, in order: frame XOR per target; argument-implies-predicate;
    one SemiMarkov over every argument variable; top XOR over virtual-root
    arcs; per token arc an XOR tying the arc to exactly one of its labels;
    arc-implies-head; one Pair factor per cross-task part.  The factors are
    filled as index arrays from the space's per-type part ids.
    """
    parts = space.parts
    frames = include_frames and bool(space.predicate_ids)
    kept = np.ones(len(parts), dtype=bool)
    kept[list(space.cross_ids)] = False
    if not include_frames:
        kept[list(space.predicate_ids)] = False
        kept[list(space.argument_ids)] = False
    keep = np.flatnonzero(kept)
    var = np.cumsum(kept) - 1  # variable of each kept part
    labels = parts if len(keep) == len(parts) else \
        tuple(parts[pid] for pid in keep.tolist())

    xors: list[tuple] = []   # (var, neg, sizes) chunks, in factor order
    imps: list[tuple] = []   # (a, b) chunks
    semis: tuple = ()

    if frames:
        preds = var[list(space.predicate_ids)]
        xors.append((preds, np.zeros(len(preds), dtype=bool), [len(preds)]))
        pred_of_frame = {parts[p].frame: v
                         for p, v in zip(space.predicate_ids, preds.tolist())}
        if space.argument_ids:
            args = [parts[i] for i in space.argument_ids]
            arg_vars = var[list(space.argument_ids)]
            imps.append((arg_vars, _ids(pred_of_frame[a.frame] for a in args)))
            semis = (SemiMarkov(
                tuple(arg_vars.tolist()),
                tuple((a.start, a.end, (a.frame, a.role)) for a in args),
                space.n, space.n),)

    if space.root_arc_ids:
        roots = var[list(space.root_arc_ids)]
        xors.append((roots, np.zeros(len(roots), dtype=bool), [len(roots)]))

    arcs = np.array(space.arc_ids, dtype=int)
    if len(arcs):
        # per arc with labels: the negated arc, then its labels
        label_lists = [space.labels_for_arc.get(pid, ()) for pid in space.arc_ids]
        counts = _ids(map(len, label_lists))
        labeled = counts > 0
        sizes = counts[labeled] + 1
        ends = np.cumsum(sizes)
        neg = np.zeros(ends[-1] if len(ends) else 0, dtype=bool)
        neg[ends - sizes] = True
        lit = np.empty(len(neg), dtype=int)
        lit[neg] = var[arcs[labeled]]
        lit[~neg] = var[_ids(itertools.chain.from_iterable(label_lists))]
        xors.append((lit, neg, sizes))

        head_var = -np.ones(space.n, dtype=int)
        head_var[_ids(parts[i].token for i in space.head_ids)] = \
            var[list(space.head_ids)]
        heads = head_var[_ids(parts[i].head for i in space.arc_ids)]
        has_head = heads >= 0
        imps.append((var[arcs[has_head]], heads[has_head]))

    pair_a = pair_b = np.zeros(0, dtype=int)
    pair_score = np.zeros(0)
    if include_frames and space.cross_ids:
        cross = [parts[c] for c in space.cross_ids]
        pair_a = var[_ids(c.arg_id for c in cross)]
        pair_b = var[_ids(c.arc_id for c in cross)]
        pair_score = space.scores[list(space.cross_ids)]

    imp_a, imp_b = (np.concatenate(x) for x in zip(*imps)) if imps else \
        (np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    return FactorGraph.from_arrays(
        space.scores[keep], labels, Rows.join(xors), imp_a, imp_b,
        pair_a, pair_b, pair_score, semis)
