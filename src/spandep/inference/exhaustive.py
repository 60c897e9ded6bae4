"""Exact reference solvers.

``brute_force_map`` enumerates assignments of a small factor graph after
constraint propagation; it refuses graphs with more than 24 undetermined
constrained variables.

``exhaustive_joint_map`` is a structured oracle for full joint instances
that are far too large for flat enumeration: it enumerates frames and
non-overlapping argument sets (at most ``MAX_ARGSETS`` per frame)
explicitly and optimizes the dependency side per head token, which is exact
because only arcs out of the target's first token interact with the frame
side (through the pair scores).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..parts import CandidateSpace, SpandepError
from .factor_graph import FactorGraph, GraphConstraints, Infeasible, clamp_graph

MAX_BRUTE_VARS = 24
MAX_ARGSETS = 500_000


def brute_force_map(graph: FactorGraph) -> tuple[np.ndarray, float]:
    """Exhaustive optimum of a factor graph.

    Returns (mask of active variables, objective).  Ties prefer fewer
    active variables, then the lexicographically smallest active index
    tuple.  Raises on infeasible graphs and on graphs still holding more
    than 24 constrained variables after propagation.
    """
    cr = clamp_graph(graph, {})
    g = cr.graph
    constrained = set()
    for f in (*g.xors, *g.semis):
        constrained.update(f.vars)
    for f in g.imps:
        constrained.update((f.a, f.b))
    for f in g.pairs:
        constrained.update((f.a, f.b))
    order = sorted(constrained)
    if len(order) > MAX_BRUTE_VARS:
        raise SpandepError(
            f"brute force limited to {MAX_BRUTE_VARS} constrained variables, "
            f"got {len(order)}")

    # factors checkable once their last variable (in `order`) is assigned
    pos = {v: i for i, v in enumerate(order)}
    checkpoint: dict[int, list] = {i: [] for i in range(len(order))}
    for f in (*g.xors, *g.imps, *g.semis):
        vs = (f.a, f.b) if hasattr(f, "a") else f.vars
        last = max(pos[v] for v in vs)
        checkpoint[last].append(f)

    free_unconstrained = [v for v in range(g.nvars) if v not in constrained]

    best: Optional[tuple[float, int, tuple]] = None
    assign = np.zeros(g.nvars, dtype=bool)

    def check(f) -> bool:
        name = type(f).__name__
        if name == "Xor":
            return sum(assign[v] != ng for v, ng in zip(f.vars, f.neg)) == 1
        if name == "Implication":
            return not assign[f.a] or assign[f.b]
        covered = set()
        for v, (i, j) in zip(f.vars, f.spans):
            if not assign[v]:
                continue
            toks = set(range(i, j + 1))
            if covered & toks:
                return False
            covered |= toks
        return True

    def consider() -> None:
        nonlocal best
        active = [v for v in order if assign[v]]
        val = float(g.theta[active].sum()) if active else 0.0
        on = set(active)
        for f in g.pairs:
            if f.a in on and f.b in on:
                val += f.score
        key = (val, len(active), tuple(active))
        if best is None:
            best = key
            return
        bv, blen, btup = best
        if val > bv + 1e-12:
            best = key
        elif abs(val - bv) <= 1e-12 and (len(active), tuple(active)) < (blen, btup):
            best = key

    def dfs(depth: int) -> None:
        if depth == len(order):
            consider()
            return
        v = order[depth]
        for b in (False, True):
            assign[v] = b
            if all(check(f) for f in checkpoint[depth]):
                dfs(depth + 1)
        assign[v] = False

    dfs(0)
    if best is None:
        raise Infeasible("no feasible assignment")

    _, _, active_tuple = best
    reduced = np.zeros(g.nvars, dtype=bool)
    reduced[list(active_tuple)] = True
    for v in free_unconstrained:
        reduced[v] = g.theta[v] > 0
    full = cr.lift(reduced)
    return full, graph.objective(full)


def _best_label_assignment(arc_label_options):
    """Max total labeled-arc score over one head's active arcs.  Options
    per arc: list of (score, parts).  Returns (score, parts)."""
    best = None
    for combo in itertools.product(*arc_label_options):
        val = sum(s for (s, _p) in combo)
        if best is None or val > best[0]:
            best = (val, [p for (_s, p) in combo])
    return best


def _head_subproblems(space: CandidateSpace):
    """Group arc/label/head parts by head token: the arcs of each head, the
    head part of each token, and the ways each arc can be on, as (value,
    ids): with each of its labels, or alone when it has none."""
    arcs_by_head: dict[int, list[int]] = {}
    for pid, head in zip(space.arc_ids, space.arc_head.tolist()):
        arcs_by_head.setdefault(head, []).append(pid)
    head_part = dict(zip(space.head_token.tolist(), space.head_ids))
    labels_of: dict[int, list[int]] = {}
    for lid, arc in zip(space.labeled_ids, space.lab_arc.tolist()):
        labels_of.setdefault(arc, []).append(lid)
    score = space.scores.tolist()
    on = {pid: [(score[pid] + score[lid], [pid, lid])
                for lid in labels_of[pid]]
          if pid in labels_of else [(score[pid], [pid])]
          for pid in space.arc_ids}
    return arcs_by_head, head_part, on


def _best_for_head(space, h, arc_pids, head_part, on):
    """(value, parts) optimizing head h's arcs, labels and Head part."""
    options_per_arc = [[(0.0, [])] + on[pid] for pid in arc_pids]

    hs = float(space.scores[head_part[h]]) if h in head_part else 0.0
    hpart = [head_part[h]] if h in head_part else []

    best_val, best_parts = None, None
    for combo in itertools.product(*options_per_arc):
        val = 0.0
        parts: list[int] = []
        any_on = False
        for (v, ps) in combo:
            val += v
            if ps:
                any_on = True
                parts.extend(ps)
        if any_on:
            val += hs
            parts = parts + hpart
        elif hs > 0:
            val += hs
            parts = parts + hpart
        if best_val is None or val > best_val:
            best_val, best_parts = val, parts
    return (best_val or 0.0), (best_parts or [])


def _t1_tables(space, t1_arcs, head_part, on, t1):
    """For the target-head token: per arc-subset best labeled value/parts."""
    m = len(t1_arcs)
    hs = float(space.scores[head_part[t1]]) if t1 in head_part else 0.0
    hpart = [head_part[t1]] if t1 in head_part else []
    base_val = np.zeros(2 ** m)
    base_parts: list[list[int]] = []
    masks = np.zeros((2 ** m, m))
    for mask in range(2 ** m):
        chosen = [t1_arcs[k] for k in range(m) if mask >> k & 1]
        masks[mask] = [(mask >> k) & 1 for k in range(m)]
        if not chosen:
            if hs > 0:
                base_val[mask] = hs
                base_parts.append(list(hpart))
            else:
                base_parts.append([])
            continue
        val, best = _best_label_assignment([on[pid] for pid in chosen])
        base_val[mask] = val + hs
        base_parts.append([p for ps in best for p in ps] + hpart)
    return base_val, base_parts, masks


def _enumerate_argsets(items):
    """Feasible subsets of (pid, start, end, score) argument items."""
    out: list[list[int]] = []

    def rec(start, covered, prefix):
        out.append(list(prefix))
        for k in range(start, len(items)):
            _pid, i, j, _s = items[k]
            toks = set(range(i, j + 1))
            if covered & toks:
                continue
            prefix.append(k)
            rec(k + 1, covered | toks, prefix)
            prefix.pop()

    rec(0, set(), [])
    return out


def exhaustive_joint_map(space: CandidateSpace,
                         constraints: GraphConstraints = GraphConstraints()
                         ) -> tuple[np.ndarray, float]:
    """Exact joint optimum by structured enumeration.

    Returns (the optimum as a mask over the space's parts, its objective),
    in ``decode``'s form: a cross-task part is active when both its ends
    are.
    ``constraints`` is unused; kept only because perfbench/checks.py:138,140
    passes it.
    """
    arcs_by_head, head_part, on = _head_subproblems(space)
    t1 = space.target.start if space.target is not None else None

    total = 0.0
    parts: list[int] = []

    # independent heads
    for h in sorted(set(arcs_by_head) | set(head_part)):
        if h == t1 and space.cross_ids:
            continue
        val, ps = _best_for_head(space, h, arcs_by_head.get(h, []),
                                 head_part, on)
        total += val
        parts.extend(ps)

    # top arc: exactly one
    if space.root_arc_ids:
        scores = [float(space.scores[p]) for p in space.root_arc_ids]
        k = int(np.argmax(scores))
        total += scores[k]
        parts.append(space.root_arc_ids[k])

    if space.target is None:
        return _closed_mask(space, parts), total

    # target-head tables (only when cross-task parts couple the tasks)
    couple = bool(space.cross_ids)
    if couple:
        t1_arcs = arcs_by_head.get(t1, [])
        base_val, base_parts, masks = _t1_tables(space, t1_arcs, head_part,
                                                 on, t1)
        arc_pos = {pid: k for k, pid in enumerate(t1_arcs)}
        cross_score = dict(zip(
            zip(space.cross_arg.tolist(), space.cross_arc.tolist()),
            space.scores[space.cross_ids.start:].tolist()))

    args = list(zip(space.argument_ids, space.arg_frame.tolist(),
                    space.arg_start.tolist(), space.arg_end.tolist(),
                    space.scores[space.argument_ids.start:
                                 space.argument_ids.stop].tolist()))
    best_total, best_parts = None, None
    for fid, frame in zip(space.predicate_ids, space.pred_frame.tolist()):
        fscore = float(space.scores[fid])
        items = [(pid, i, j, s) for pid, f, i, j, s in args if f == frame]
        argsets = _enumerate_argsets(items)
        if len(argsets) > MAX_ARGSETS:
            raise SpandepError(f"too many argument sets ({len(argsets)})")

        arg_scores = np.array([sum(items[k][3] for k in s) for s in argsets])
        if couple and t1_arcs:
            bonus = np.zeros((len(argsets), len(t1_arcs)))
            for si, s in enumerate(argsets):
                for k in s:
                    pid = items[k][0]
                    for aid in t1_arcs:
                        w = cross_score.get((pid, aid))
                        if w is not None:
                            bonus[si, arc_pos[aid]] += w
            t1_vals = base_val[None, :] + bonus @ masks.T
            t1_best = t1_vals.max(axis=1)
            t1_arg = t1_vals.argmax(axis=1)
            cand = fscore + arg_scores + t1_best
        elif couple:
            cand = fscore + arg_scores + base_val[0]
            t1_arg = np.zeros(len(argsets), dtype=int)
        else:
            cand = fscore + arg_scores
        si = int(np.argmax(cand))
        if best_total is None or cand[si] > best_total:
            chosen = [fid] + [items[k][0] for k in argsets[si]]
            if couple:
                chosen = chosen + base_parts[int(t1_arg[si])]
            best_total, best_parts = float(cand[si]), chosen

    total += best_total
    parts.extend(best_parts)
    return _closed_mask(space, parts), total


def _closed_mask(space: CandidateSpace, ids: list[int]) -> np.ndarray:
    active = np.zeros(len(space), dtype=bool)
    active[ids] = True
    return space.close_pairs(active)
