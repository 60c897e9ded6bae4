"""Semi-Markov dynamic programs over labeled spans.

A "segmentation" here is any set of non-overlapping labeled spans; uncovered
tokens are simply skipped at zero score.  Items are given as (start, end, key)
triples with 0-based inclusive bounds and an arbitrary hashable key (role,
frame/role pair, or a collapsed is-argument label), plus a parallel score
array.  Items longer than ``max_len`` are present but never selectable, so
callers can pass a full candidate list unfiltered.

Three entry points: exact MAP (with deterministic tie-breaking, see
``semi_markov_map``), log-partition with
per-item posteriors in log space, and an autodiff op computing the negative
log-likelihood of a gold segmentation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Optional, Sequence

import numpy as np

from .. import autodiff

SpanItem = tuple[int, int, Hashable]


def _check_spans(spans: Sequence[SpanItem], n: int) -> None:
    for (i, j, _k) in spans:
        if not 0 <= i <= j < n:
            raise ValueError(f"span ({i},{j}) out of range for n={n}")


class SpanTable:
    """The selectable items of one span list, grouped once into (start, end)
    cells ordered by end, then start, then item index.

    ``semi_markov_map`` takes a table so that callers solving many score
    vectors over the same items (the segmentation projector and the dual
    bound) index them only once.
    """

    def __init__(self, spans: Sequence[SpanItem], n: int, max_len: int):
        _check_spans(spans, n)
        order = sorted((j, i, idx) for idx, (i, j, _k) in enumerate(spans)
                       if j - i + 1 <= max_len)
        self.order = np.array([idx for _j, _i, idx in order], dtype=int)
        new_cell = np.array([p == 0 or order[p][:2] != order[p - 1][:2]
                             for p in range(len(order))], dtype=int)
        self.cell_first = np.flatnonzero(new_cell)
        self.cell_of = np.cumsum(new_cell) - 1
        self.cell_start = [order[p][1] for p in self.cell_first]
        # the cells ending at token j are cell_start[ends[j]:ends[j + 1]]
        cell_end = [order[p][0] for p in self.cell_first]
        self.ends = np.searchsorted(cell_end, np.arange(n + 1)).tolist()

    def best_items(self, scores: np.ndarray) -> tuple[list[int], list[float]]:
        """Per cell, the best-scoring item (earliest index on ties) and its
        score."""
        if not len(self.order):
            return [], []
        s = scores[self.order]
        best = np.maximum.reduceat(s, self.cell_first)
        hit = np.flatnonzero(s == best[self.cell_of])
        cells = self.cell_of[hit]
        first = hit[np.concatenate(([True], cells[1:] != cells[:-1]))]
        return self.order[first].tolist(), best.tolist()


def semi_markov_map(spans: Sequence[SpanItem], scores: np.ndarray,
                    n: int, max_len: int, table: Optional[SpanTable] = None
                    ) -> tuple[list[int], float]:
    """Highest-scoring set of non-overlapping spans; the empty set scores 0.

    Returns (chosen item indices in left-to-right order, total score).
    Each span's cell keeps its best item, the earliest index on ties; at
    each token, among equal totals the DP prefers fewer segments, then
    skipping the token, then the cell with the earliest start.  ``table``
    is ``SpanTable(spans, n, max_len)``, built here when not given.
    """
    scores = np.asarray(scores, dtype=float)
    if table is None:
        table = SpanTable(spans, n, max_len)
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


def _selectable(spans, scores, n, max_len):
    by_end: dict[int, list[tuple[int, int]]] = defaultdict(list)
    by_start: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for idx, (i, j, _k) in enumerate(spans):
        if j - i + 1 > max_len:
            continue
        by_end[j].append((i, idx))
        by_start[i].append((j, idx))
    return by_end, by_start


def semi_markov_log_partition(spans: Sequence[SpanItem], scores: np.ndarray,
                              n: int, max_len: int
                              ) -> tuple[float, np.ndarray, np.ndarray]:
    """log Σ over segmentations of exp(score).  Returns (logZ, alpha, beta)
    with alpha[j] summing prefixes [0, j) and beta[j] suffixes [j, n)."""
    scores = np.asarray(scores, dtype=float)
    _check_spans(spans, n)
    by_end, by_start = _selectable(spans, scores, n, max_len)
    alpha = np.full(n + 1, -np.inf)
    alpha[0] = 0.0
    for j in range(1, n + 1):
        terms = [alpha[j - 1]]
        terms += [alpha[i] + scores[idx] for (i, idx) in by_end[j - 1]]
        alpha[j] = np.logaddexp.reduce(terms)
    beta = np.full(n + 1, -np.inf)
    beta[n] = 0.0
    for j in range(n - 1, -1, -1):
        terms = [beta[j + 1]]
        terms += [scores[idx] + beta[jj + 1] for (jj, idx) in by_start[j]]
        beta[j] = np.logaddexp.reduce(terms)
    return float(alpha[n]), alpha, beta


def semi_markov_marginals(spans: Sequence[SpanItem], scores: np.ndarray,
                          n: int, max_len: int) -> tuple[float, np.ndarray]:
    """Posterior probability that each item is part of the segmentation.

    Items over the length cap get posterior 0.  posterior[idx] =
    exp(alpha[i] + score + beta[j+1] - logZ).
    """
    scores = np.asarray(scores, dtype=float)
    logz, alpha, beta = semi_markov_log_partition(spans, scores, n, max_len)
    post = np.zeros(len(spans))
    for idx, (i, j, _k) in enumerate(spans):
        if j - i + 1 > max_len:
            continue
        post[idx] = np.exp(alpha[i] + scores[idx] + beta[j + 1] - logz)
    return logz, post


# --- autodiff integration ---------------------------------------------------
# Negative log-likelihood of a gold segmentation: logZ - score(gold).
# ctx = (spans, n, max_len, gold item indices).  Gradient wrt the score
# vector is posterior - gold indicator.

def _nll_forward(node):
    spans, n, max_len, gold = node.ctx
    scores = node.parents[0].value
    logz, _, _ = semi_markov_log_partition(spans, scores, n, max_len)
    return np.asarray(logz - scores[list(gold)].sum())


def _nll_backward(node):
    spans, n, max_len, gold = node.ctx
    scores = node.parents[0].value
    _, post = semi_markov_marginals(spans, scores, n, max_len)
    g = post.copy()
    g[list(gold)] -= 1.0
    autodiff.accumulate(node.parents[0], float(node.grad) * g)


autodiff.register_op("semimarkov_nll", _nll_forward, _nll_backward)


def nll_node(graph: autodiff.Graph, score_node: autodiff.Node,
             spans: Sequence[SpanItem], n: int, max_len: int,
             gold_indices: Sequence[int]) -> autodiff.Node:
    """Graph node for logZ - gold score over the given span items."""
    gold = tuple(int(i) for i in gold_indices)
    seen = set()
    for gi in gold:
        i, j, _ = spans[gi]
        if j - i + 1 > max_len:
            raise ValueError(f"gold span ({i},{j}) exceeds max_len={max_len}")
        for t in range(i, j + 1):
            if t in seen:
                raise ValueError("gold segmentation overlaps itself")
            seen.add(t)
    return graph.apply("semimarkov_nll", [score_node],
                       (tuple(spans), n, max_len, gold))
