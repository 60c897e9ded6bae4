"""Semi-Markov dynamic programs over spans.

A "segmentation" here is any set of non-overlapping spans; uncovered tokens
are simply skipped at zero score.  Spans are given as (start, end) pairs
with 0-based inclusive bounds, plus a parallel score array; the same span
may appear more than once (one item per role, say).  Callers apply any
length cap when they enumerate the spans.

Every DP reads one ``SpanTable``, which groups the items into (start, end)
cells once.  Entry points: exact MAP (with deterministic tie-breaking, see
``semi_markov_map``), the log-partition with per-item posteriors, and an
autodiff op computing the negative log-likelihood of a gold segmentation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import autodiff

Span = tuple[int, int]


class SpanTable:
    """The items of one span list, grouped once into (start, end) cells
    ordered by end, then start, then item index.

    ``semi_markov_map`` takes a table so that callers solving many score
    vectors over the same items (the segmentation projector and the dual
    bound) index them only once.
    """

    def __init__(self, spans: Sequence[Span], n: int):
        for (i, j) in spans:
            if not 0 <= i <= j < n:
                raise ValueError(f"span ({i},{j}) out of range for n={n}")
        order = sorted((j, i, idx) for idx, (i, j) in enumerate(spans))
        self.order = np.array([idx for _j, _i, idx in order], dtype=int)
        new_cell = np.array([p == 0 or order[p][:2] != order[p - 1][:2]
                             for p in range(len(order))], dtype=int)
        self.cell_first = np.flatnonzero(new_cell)
        self.cell_of = np.cumsum(new_cell) - 1
        self.cell_start = [order[p][1] for p in self.cell_first]
        self.cell_end = [order[p][0] for p in self.cell_first]
        # the cells ending at token j are cell_start[ends[j]:ends[j + 1]]
        self.ends = np.searchsorted(self.cell_end, np.arange(n + 1)).tolist()
        # the items of each cell in index order, padded with the index
        # len(spans), which ``best_items`` scores -inf
        pos = np.arange(len(order)) - self.cell_first[self.cell_of]
        width = int(pos.max()) + 1 if len(order) else 0
        self.cell_items = np.full((len(self.cell_first), width), len(spans))
        self.cell_items[self.cell_of, pos] = self.order
        self.cells = np.arange(len(self.cell_first))

    def best_items(self, scores: np.ndarray) -> tuple[list[int], list[float]]:
        """Per cell, the best-scoring item (earliest index on ties) and its
        score."""
        if not len(self.order):
            return [], []
        s = np.append(scores, -np.inf)[self.cell_items]
        k = s.argmax(axis=1)
        return (self.cell_items[self.cells, k].tolist(),
                s[self.cells, k].tolist())


def semi_markov_map(spans: Sequence[Span], scores: np.ndarray, n: int,
                    table: Optional[SpanTable] = None
                    ) -> tuple[list[int], float]:
    """Highest-scoring set of non-overlapping spans; the empty set scores 0.

    Returns (chosen item indices in left-to-right order, total score).
    Each span's cell keeps its best item, the earliest index on ties; at
    each token, among equal totals the DP prefers fewer segments, then
    skipping the token, then the cell with the earliest start.  ``table``
    is ``SpanTable(spans, n)``, built here when not given.
    """
    scores = np.asarray(scores, dtype=float)
    if table is None:
        table = SpanTable(spans, n)
    items, cell_scores = table.best_items(scores)
    starts, ends = table.cell_start, table.ends
    val = [0.0] * (n + 1)
    cnt = [0] * (n + 1)
    back = [-1] * (n + 1)
    for j in range(1, n + 1):
        v, c, b = val[j - 1], cnt[j - 1], -1  # skip token j-1
        for k in range(ends[j - 1], ends[j]):
            i = starts[k]
            nv = val[i] + cell_scores[k]
            nc = cnt[i] + 1
            if nv > v or (nv == v and nc < c):
                v, c, b = nv, nc, k
        val[j], cnt[j], back[j] = v, c, b

    chosen: list[int] = []
    j = n
    while j > 0:
        k = back[j]
        if k < 0:
            j -= 1
        else:
            chosen.append(items[k])
            j = starts[k]
    chosen.reverse()
    return chosen, float(val[n])


def semi_markov_marginals(spans: Sequence[Span], scores: np.ndarray, n: int
                          ) -> tuple[float, np.ndarray]:
    """log Σ over segmentations of exp(score), and the posterior probability
    that each item is part of the segmentation.

    A forward sweep over the table's cells gives alpha[t], summing the
    prefixes [0, t); a reverse sweep over the same cells gives beta[t],
    summing the suffixes [t, n) for t > 0.  Item (i, j) then has posterior
    exp(alpha[i] + score + beta[j + 1] - logZ).
    """
    scores = np.asarray(scores, dtype=float)
    table = SpanTable(spans, n)
    if not len(table.order):
        return 0.0, np.zeros(0)
    s = scores[table.order]
    cell_lse = np.logaddexp.reduceat(s, table.cell_first)
    starts, ends = np.array(table.cell_start), table.ends
    stops = np.array(table.cell_end) + 1
    alpha = np.zeros(n + 1)
    for j in range(1, n + 1):
        k = slice(ends[j - 1], ends[j])
        alpha[j] = np.logaddexp.reduce(
            np.append(alpha[j - 1], alpha[starts[k]] + cell_lse[k]))
    # push each suffix sum back to the tokens that reach it: position j-1
    # by skipping, and the start of every cell ending at token j-1
    terms: list[list[float]] = [[] for _ in range(n + 1)]
    terms[n].append(0.0)
    beta = np.zeros(n + 1)
    for j in range(n, 0, -1):
        beta[j] = np.logaddexp.reduce(terms[j])
        terms[j - 1].append(beta[j])
        for k in range(ends[j - 1], ends[j]):
            terms[starts[k]].append(cell_lse[k] + beta[j])

    logz = float(alpha[n])
    cell = table.cell_of
    post = np.zeros(len(spans))
    post[table.order] = np.exp(alpha[starts[cell]] + s + beta[stops[cell]]
                               - logz)
    return logz, post


# --- autodiff integration ---------------------------------------------------
# Negative log-likelihood of a gold segmentation: logZ - score(gold).  The
# forward pass keeps the posteriors in ctx["post"]; the gradient wrt the
# score vector is posterior - gold indicator.

def _nll_forward(node):
    ctx = node.ctx
    scores = node.parents[0].value
    logz, ctx["post"] = semi_markov_marginals(ctx["spans"], scores, ctx["n"])
    return np.asarray(logz - scores[list(ctx["gold"])].sum())


def _nll_backward(node):
    g = node.ctx["post"].copy()
    g[list(node.ctx["gold"])] -= 1.0
    autodiff.accumulate(node.parents[0], float(node.grad) * g)


autodiff.register_op("semimarkov_nll", _nll_forward, _nll_backward)


def nll_node(graph: autodiff.Graph, score_node: autodiff.Node,
             spans: Sequence[Span], n: int,
             gold_indices: Sequence[int]) -> autodiff.Node:
    """Graph node for logZ - gold score over the given spans."""
    gold = tuple(int(i) for i in gold_indices)
    seen = set()
    for gi in gold:
        i, j = spans[gi]
        for t in range(i, j + 1):
            if t in seen:
                raise ValueError("gold segmentation overlaps itself")
            seen.add(t)
    return graph.apply("semimarkov_nll", [score_node],
                       {"spans": tuple(spans), "n": n, "gold": gold})
