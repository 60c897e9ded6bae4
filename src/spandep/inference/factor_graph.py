"""Binary factor graphs over candidate parts, plus clamping/propagation.

Variables are candidate parts (everything except CrossTask parts, which
become Pair factors).  Factor types:

  * Xor         -- exactly one literal true (literals may be negated)
  * AtMostOne   -- at most one variable true
  * Implication -- a true forces b true
  * Pair        -- score fires when both endpoints are true (no constraint)
  * SemiMarkov  -- selected argument spans must not overlap

``clamp_graph`` fixes variables and runs unit propagation to a fixpoint,
returning a reduced graph plus the score offset absorbed from fixed-true
variables and resolved Pair factors.  The same machinery serves
latent-completion decoding and the branch-and-bound fallback in the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..parts import (
    Argument,
    CandidateSpace,
    CrossTask,
    Predicate,
    SpandepError,
)


class Infeasible(SpandepError):
    """No assignment satisfies the constraints."""


def _ids(values) -> np.ndarray:
    return np.fromiter(values, dtype=int)


def _rows(factors) -> np.ndarray:
    """Factor number of each variable slot, in slot order."""
    return np.repeat(np.arange(len(factors)), [len(f.vars) for f in factors])


@dataclass(frozen=True)
class Xor:
    vars: tuple[int, ...]
    neg: tuple[bool, ...]

    def __post_init__(self):
        if not self.vars or len(self.vars) != len(self.neg):
            raise ValueError("malformed xor factor")


@dataclass(frozen=True)
class AtMostOne:
    vars: tuple[int, ...]


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


@dataclass(frozen=True)
class GraphConstraints:
    deterministic_labels: frozenset[str] = frozenset()


@dataclass
class FactorGraph:
    theta: np.ndarray
    labels: tuple           # one descriptive label (e.g. Part) per variable
    xors: tuple[Xor, ...] = ()
    amos: tuple[AtMostOne, ...] = ()
    imps: tuple[Implication, ...] = ()
    pairs: tuple[Pair, ...] = ()
    semis: tuple[SemiMarkov, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if len(self.labels) != self.nvars:
            raise ValueError("labels length != variable count")
        for f in self.semis:
            if len(f.vars) != len(f.spans):
                raise ValueError("semi-markov vars/spans mismatch")
        # flat index arrays, built once and shared by every check below
        self._xor_var = _ids(v for f in self.xors for v in f.vars)
        self._xor_neg = np.array([ng for f in self.xors for ng in f.neg],
                                 dtype=bool)
        self._xor_row = _rows(self.xors)
        self._amo_var = _ids(v for f in self.amos for v in f.vars)
        self._amo_row = _rows(self.amos)
        self._imp_a = _ids(f.a for f in self.imps)
        self._imp_b = _ids(f.b for f in self.imps)
        self._pair_a = _ids(f.a for f in self.pairs)
        self._pair_b = _ids(f.b for f in self.pairs)
        self._pair_score = np.array([f.score for f in self.pairs], dtype=float)
        self._semi = [(np.array(f.vars, dtype=int),
                       np.array([i for i, _j, _k in f.spans], dtype=int),
                       np.array([j for _i, j, _k in f.spans], dtype=int))
                      for f in self.semis]
        self._all_vars = np.concatenate(
            [self._xor_var, self._amo_var, *(v for v, _, _ in self._semi),
             self._imp_a, self._imp_b, self._pair_a, self._pair_b])
        bad = (self._all_vars < 0) | (self._all_vars >= self.nvars)
        if bad.any():
            raise ValueError(
                f"variable {self._all_vars[bad][0]} out of range")

    def _check_var(self, v: int) -> None:
        if not 0 <= v < self.nvars:
            raise ValueError(f"variable {v} out of range")

    @property
    def nvars(self) -> int:
        return len(self.theta)

    def degrees(self) -> np.ndarray:
        """Number of factor slots touching each variable."""
        return np.bincount(self._all_vars, minlength=self.nvars)

    def check_assignment(self, active: np.ndarray) -> bool:
        """True when the boolean assignment satisfies all hard factors."""
        active = np.asarray(active, dtype=bool)
        if len(self.xors):
            lits = active[self._xor_var] != self._xor_neg
            if np.any(np.bincount(self._xor_row, weights=lits,
                                  minlength=len(self.xors)) != 1):
                return False
        if len(self.amos):
            if np.any(np.bincount(self._amo_row,
                                  weights=active[self._amo_var]) > 1):
                return False
        if np.any(active[self._imp_a] & ~active[self._imp_b]):
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
        both = active[self._pair_a] & active[self._pair_b]
        return (self.offset + float(self.theta[active].sum())
                + float(self._pair_score[both].sum()))

    def dump(self) -> str:
        """Line-oriented description, one variable or factor per line."""
        lines = []
        for i in range(self.nvars):
            lines.append(f"var {i} score {self.theta[i]:.6g} {self.labels[i]!r}")
        for f in self.xors:
            lits = " ".join(("!" if ng else "") + str(v)
                            for v, ng in zip(f.vars, f.neg))
            lines.append(f"xor {lits}")
        for f in self.amos:
            lines.append("atmostone " + " ".join(map(str, f.vars)))
        for f in self.imps:
            lines.append(f"imp {f.a} -> {f.b}")
        for f in self.pairs:
            lines.append(f"pair {f.a} {f.b} score {f.score:.6g}")
        for f in self.semis:
            spans = " ".join(f"{v}:({i},{j})" for v, (i, j, _k)
                             in zip(f.vars, f.spans))
            lines.append(f"semimarkov n={f.n} max_len={f.max_len} {spans}")
        if self.offset:
            lines.append(f"offset {self.offset:.6g}")
        return "\n".join(lines)


@dataclass
class ClampResult:
    graph: FactorGraph
    forced: dict[int, bool]          # every fixed variable, original ids
    free: np.ndarray                 # original id of each reduced variable

    @property
    def var_map(self) -> dict[int, int]:
        """Original id -> reduced id, for the free variables."""
        return {int(old): new for new, old in enumerate(self.free)}

    def lift(self, active_reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced-graph assignment to original variable ids."""
        full = np.zeros(len(self.forced) + len(self.free), dtype=bool)
        if self.forced:
            full[list(self.forced)] = list(self.forced.values())
        full[self.free] = np.asarray(active_reduced, dtype=bool)
        return full


def clamp_graph(graph: FactorGraph, fixed: Mapping[int, bool]) -> ClampResult:
    """Fix variables, propagate consequences to a fixpoint, and rebuild.

    With nothing fixed and no single-literal XOR there is nothing to
    propagate, so the graph comes back as it is, less its at-most-one
    factors over fewer than two variables and its empty segmentations.
    Raises Infeasible when propagation derives a contradiction.
    """
    if not fixed and all(len(f.vars) > 1 for f in graph.xors):
        amos = tuple(f for f in graph.amos if len(f.vars) >= 2)
        semis = tuple(f for f in graph.semis if f.vars)
        if len(amos) < len(graph.amos) or len(semis) < len(graph.semis):
            graph = FactorGraph(graph.theta, graph.labels, graph.xors, amos,
                                graph.imps, graph.pairs, semis, graph.offset)
        return ClampResult(graph, {}, np.arange(graph.nvars))

    val: dict[int, bool] = {}

    def assign(v: int, b: bool) -> bool:
        if v in val:
            if val[v] != b:
                raise Infeasible(f"variable {v} forced both ways")
            return False
        val[v] = b
        return True

    for v, b in fixed.items():
        graph._check_var(v)
        assign(v, bool(b))

    changed = True
    while changed:
        changed = False
        for f in graph.xors:
            lits = [(v, ng, val.get(v)) for v, ng in zip(f.vars, f.neg)]
            true_lits = [(v, ng) for v, ng, b in lits if b is not None and b != ng]
            free = [(v, ng) for v, ng, b in lits if b is None]
            if len(true_lits) > 1:
                raise Infeasible("xor with two true literals")
            if len(true_lits) == 1:
                for v, ng in free:
                    changed |= assign(v, ng)  # literal off
            elif not free:
                raise Infeasible("xor with all literals false")
            elif len(free) == 1:
                v, ng = free[0]
                changed |= assign(v, not ng)
        for f in graph.amos:
            on = [v for v in f.vars if val.get(v)]
            if len(on) > 1:
                raise Infeasible("at-most-one violated")
            if len(on) == 1:
                for v in f.vars:
                    if v not in val:
                        changed |= assign(v, False)
        for f in graph.imps:
            if val.get(f.a) is True and val.get(f.b) is not True:
                changed |= assign(f.b, True)
            if val.get(f.b) is False and val.get(f.a) is not False:
                changed |= assign(f.a, False)
        for f in graph.semis:
            blocked: set[int] = set()
            for v, (i, j, _k) in zip(f.vars, f.spans):
                if val.get(v):
                    toks = set(range(i, j + 1))
                    if blocked & toks:
                        raise Infeasible("overlapping clamped spans")
                    blocked |= toks
            if blocked:
                for v, (i, j, _k) in zip(f.vars, f.spans):
                    if v not in val and blocked & set(range(i, j + 1)):
                        changed |= assign(v, False)

    free_vars = [v for v in range(graph.nvars) if v not in val]
    var_map = {v: i for i, v in enumerate(free_vars)}
    theta = graph.theta[free_vars].copy()
    offset = graph.offset + float(sum(graph.theta[v] for v, b in val.items() if b))

    pairs = []
    for f in graph.pairs:
        ba, bb = val.get(f.a), val.get(f.b)
        if ba is False or bb is False:
            continue
        if ba is True and bb is True:
            offset += f.score
        elif ba is True:
            theta[var_map[f.b]] += f.score
        elif bb is True:
            theta[var_map[f.a]] += f.score
        else:
            pairs.append(Pair(var_map[f.a], var_map[f.b], f.score))

    xors = []
    for f in graph.xors:
        if any(val.get(v) is not None and val[v] != ng
               for v, ng in zip(f.vars, f.neg)):
            continue  # already satisfied
        kept = [(var_map[v], ng) for v, ng in zip(f.vars, f.neg) if v not in val]
        if kept:
            xors.append(Xor(tuple(v for v, _ in kept), tuple(ng for _, ng in kept)))

    amos = []
    for f in graph.amos:
        if any(val.get(v) for v in f.vars):
            continue
        kept = tuple(var_map[v] for v in f.vars if v not in val)
        if len(kept) >= 2:
            amos.append(AtMostOne(kept))

    imps = []
    for f in graph.imps:
        if f.a in val or f.b in val:
            continue  # propagation resolved or vacuous
        imps.append(Implication(var_map[f.a], var_map[f.b]))

    semis = []
    for f in graph.semis:
        kept_vars, kept_spans = [], []
        for v, sp in zip(f.vars, f.spans):
            if v not in val:
                kept_vars.append(var_map[v])
                kept_spans.append(sp)
        if kept_vars:
            semis.append(SemiMarkov(tuple(kept_vars), tuple(kept_spans),
                                    f.n, f.max_len))

    labels = tuple(graph.labels[v] for v in free_vars)
    reduced = FactorGraph(theta, labels, tuple(xors), tuple(amos),
                          tuple(imps), tuple(pairs), tuple(semis), offset)
    return ClampResult(reduced, val, np.array(free_vars, dtype=int))


def build_factor_graph(space: CandidateSpace,
                       constraints: GraphConstraints = GraphConstraints(),
                       include_frames: bool = True) -> FactorGraph:
    """Factor graph over a scored candidate space.

    Construction, in order: frame XOR per target; argument-implies-predicate;
    one SemiMarkov over every argument variable; top XOR over virtual-root
    arcs; per token arc an XOR tying the arc to exactly one of its labels;
    arc-implies-head; at-most-one per deterministic label per head token;
    one Pair factor per cross-task part.
    """
    keep: list[int] = []
    for pid, part in enumerate(space.parts):
        if isinstance(part, CrossTask):
            continue
        if not include_frames and isinstance(part, (Predicate, Argument)):
            continue
        keep.append(pid)
    var_of_part = {pid: i for i, pid in enumerate(keep)}
    theta = space.scores[keep].copy()
    labels = tuple(space.parts[pid] for pid in keep)

    xors: list[Xor] = []
    imps: list[Implication] = []
    amos: list[AtMostOne] = []
    semis: list[SemiMarkov] = []
    pairs: list[Pair] = []

    if include_frames and space.predicate_ids:
        pred_vars = tuple(var_of_part[p] for p in space.predicate_ids)
        xors.append(Xor(pred_vars, (False,) * len(pred_vars)))
        pred_var_of_frame = {space.parts[p].frame: var_of_part[p]
                             for p in space.predicate_ids}
        arg_vars, arg_spans = [], []
        for pid in space.argument_ids:
            a = space.parts[pid]
            v = var_of_part[pid]
            imps.append(Implication(v, pred_var_of_frame[a.frame]))
            arg_vars.append(v)
            arg_spans.append((a.start, a.end, (a.frame, a.role)))
        if arg_vars:
            semis.append(SemiMarkov(tuple(arg_vars), tuple(arg_spans),
                                    space.n, space.n))

    if space.root_arc_ids:
        root_vars = tuple(var_of_part[p] for p in space.root_arc_ids)
        xors.append(Xor(root_vars, (False,) * len(root_vars)))

    head_var_of_token = {space.parts[p].token: var_of_part[p]
                         for p in space.head_ids}
    det_groups: dict[tuple[int, str], list[int]] = {}
    for pid in space.arc_ids:
        arc = space.parts[pid]
        v = var_of_part[pid]
        label_ids = space.labels_for_arc.get(pid, [])
        if label_ids:
            lits = (v,) + tuple(var_of_part[l] for l in label_ids)
            negs = (True,) + (False,) * len(label_ids)
            xors.append(Xor(lits, negs))
        if arc.head in head_var_of_token:
            imps.append(Implication(v, head_var_of_token[arc.head]))
    for pid in space.labeled_ids:
        la = space.parts[pid]
        if la.label in constraints.deterministic_labels:
            det_groups.setdefault((la.head, la.label), []).append(var_of_part[pid])
    for group in det_groups.values():
        if len(group) >= 2:
            amos.append(AtMostOne(tuple(group)))

    if include_frames:
        for cid in space.cross_ids:
            c = space.parts[cid]
            if c.arc_id not in var_of_part:
                continue  # arc pruned away
            pairs.append(Pair(var_of_part[c.arg_id], var_of_part[c.arc_id],
                              float(space.scores[cid])))

    return FactorGraph(theta, labels, tuple(xors), tuple(amos), tuple(imps),
                       tuple(pairs), tuple(semis))
