"""Exact elimination of the tree-shaped part of a factor graph.

A variable is a leaf when exactly one factor slot touches it.  Folds that
decide leaves from at most one other variable:

  * an XOR whose literals are all leaves except at most one is solved
    outright, or folded into a unary score and a constant on the one
    variable left;
  * an implication with a leaf endpoint is folded into the other endpoint;
  * a variable that no factor touches any more is set by the sign of its
    score (off on ties).

Folds repeat until none applies.  In a joint graph this removes every
label XOR, every head with its arcs and the top XOR, leaving the frame side
and the arcs out of the target's first token (the core); a dependency-only
graph, or one with the frame side clamped, peels away completely.  Each
fold keeps the best value of the folded variables for either value of the
variable left, so an optimum of the core lifts to an optimum of the whole
graph by replaying the recorded steps backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_graph import NO_ROWS, FactorGraph, SemiMarkov

PEELED = -1  # degree mark of a variable that a fold has decided


@dataclass
class Peeled:
    core: FactorGraph
    keep: np.ndarray    # original id of each core variable
    # (r, leaves, values if r is on, values if r is off), in peeling order;
    # r < 0 marks a step that needs no other variable
    steps: list
    nvars: int

    def lift(self, core_active: np.ndarray) -> np.ndarray:
        """Expand a core assignment to the variables of the peeled graph."""
        if not self.steps:
            return np.asarray(core_active, dtype=bool)
        full = np.zeros(self.nvars, dtype=bool)
        full[self.keep] = core_active
        out = full.tolist()
        for r, leaves, on, off in reversed(self.steps):
            for v, b in zip(leaves, on if r < 0 or out[r] else off):
                out[v] = b
        return np.array(out, dtype=bool)


def peel(graph: FactorGraph) -> Peeled:
    """Fold the graph's tree-shaped part into unary scores and an offset;
    a graph with nothing to fold comes back as its own core."""
    theta = graph.theta.tolist()
    offset = graph.offset
    deg = graph.degrees().tolist()
    # XOR k holds the literals xv[i], negated when xn[i], for i in
    # xp[k]:xp[k+1]
    xv, xn, xp = (a.tolist() for a in (graph.xor.var, graph.xor.neg,
                                       graph.xor.ptr))
    xors = list(range(graph.xor.count))
    imps = list(enumerate(zip(graph.imp_a.tolist(), graph.imp_b.tolist())))
    steps: list = []
    changed = True
    while changed:
        changed = False
        kept_xors = []
        for k in xors:
            lo, hi = xp[k], xp[k + 1]
            inner = [i for i in range(lo, hi) if deg[xv[i]] > 1]
            if len(inner) > 1 or len(inner) == hi - lo:
                kept_xors.append(k)
                continue
            changed = True
            q = inner[0] if inner else -1
            # every leaf literal false, then the best one to switch true
            leaves, negs = [], []
            base, best, j = 0.0, -math.inf, 0
            for i in range(lo, hi):
                if i == q:
                    continue
                v, ng = xv[i], xn[i]
                gain = -theta[v] if ng else theta[v]
                if ng:
                    base += theta[v]
                if gain > best:
                    best, j = gain, len(leaves)
                leaves.append(v)
                negs.append(ng)
                deg[v] = PEELED
            none_on = negs
            one_on = list(negs)
            one_on[j] = not negs[j]
            if q < 0:
                offset += base + best
                steps.append((-1, leaves, one_on, None))
                continue
            r = xv[q]
            deg[r] -= 1
            if xn[q]:  # r on: its literal is false, so one leaf's is true
                steps.append((r, leaves, one_on, none_on))
                theta[r] += best
                offset += base
            else:      # r on is its literal: every leaf literal false
                steps.append((r, leaves, none_on, one_on))
                theta[r] -= best
                offset += base + best
        xors = kept_xors
        kept_imps = []
        for f in imps:
            _, (a, b) = f
            if deg[a] == 1:
                # a may only be on with b, and then only when it pays
                steps.append((b, [a], [theta[a] > 0], [False]))
                theta[b] += max(0.0, theta[a])
                deg[a], deg[b] = PEELED, deg[b] - 1
            elif deg[b] == 1:
                # b must be on with a, and is otherwise free
                steps.append((a, [b], [True], [theta[b] > 0]))
                theta[a] += min(0.0, theta[b])
                offset += max(0.0, theta[b])
                deg[a], deg[b] = deg[a] - 1, PEELED
            else:
                kept_imps.append(f)
                continue
            changed = True
        imps = kept_imps

    deg = np.array(deg)
    for v in np.flatnonzero(deg == 0).tolist():
        steps.append((-1, [v], [theta[v] > 0], None))
        offset += max(0.0, theta[v])
    if not steps:
        return Peeled(graph, np.arange(graph.nvars), steps, graph.nvars)

    keep = np.flatnonzero(deg > 0)
    if not len(keep):
        # everything folded; pair and segmentation factors are never folded
        # and would have kept their variables, so none is left
        return Peeled(FactorGraph.from_arrays(
            np.zeros(0), (), NO_ROWS, *[np.zeros(0, dtype=int)] * 4,
            np.zeros(0), (), offset), keep, steps, graph.nvars)
    new = np.full(graph.nvars, -1)
    new[keep] = np.arange(len(keep))
    xor_rows = np.zeros(graph.xor.count, dtype=bool)
    xor_rows[xors] = True
    imp = np.array([k for k, _ in imps], dtype=int)
    core = FactorGraph.from_arrays(
        np.array(theta)[keep], tuple(graph.labels[v] for v in keep.tolist()),
        graph.xor.select(xor_rows, np.ones(len(graph.xor.var), dtype=bool),
                         new),
        new[graph.imp_a[imp]], new[graph.imp_b[imp]],
        new[graph.pair_a], new[graph.pair_b], graph.pair_score,
        tuple(SemiMarkov(tuple(new[list(f.vars)].tolist()), f.spans, f.n,
                         f.max_len) for f in graph.semis),
        offset)
    return Peeled(core, keep, steps, graph.nvars)
