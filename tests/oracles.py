"""Independent brute-force references shared by the test modules.

Everything here is written for clarity over speed and deliberately avoids
the package's own dynamic programs and solvers.
"""

import itertools
import math

import numpy as np


def lstm_cell(g, x, h_prev, c_prev, w, b):
    """One LSTM step built from elementary graph ops: the per-step reference
    for the fused ``lstm`` op.  ``w`` has shape (dim_x + dim_h, 4*dim_h),
    gate order input/forget/output/candidate."""
    hdim = h_prev.value.shape[0]
    z = g.affine(g.concat(x, h_prev), w, b)
    i = g.sigmoid(g.slice_cols(z, 0, hdim))
    f = g.sigmoid(g.slice_cols(z, hdim, 2 * hdim))
    o = g.sigmoid(g.slice_cols(z, 2 * hdim, 3 * hdim))
    cand = g.tanh(g.slice_cols(z, 3 * hdim, 4 * hdim))
    c = g.add(g.mul(f, c_prev), g.mul(i, cand))
    h = g.mul(o, g.tanh(c))
    return h, c


def lstm_by_cells(g, rows, w, b, reverse=False):
    """A whole sweep over the vector nodes ``rows`` with ``lstm_cell``; the
    hidden states in row order."""
    hdim = w.value.shape[1] // 4
    h = g.input(np.zeros(hdim))
    c = g.input(np.zeros(hdim))
    order = range(len(rows) - 1, -1, -1) if reverse else range(len(rows))
    out = {}
    for t in order:
        h, c = lstm_cell(g, rows[t], h, c, w, b)
        out[t] = h
    return [out[t] for t in range(len(rows))]


def enumerate_segmentations(spans, n, max_len):
    """Yield every feasible index subset (as a tuple) of non-overlapping
    spans obeying the length cap, including the empty tuple."""
    usable = [idx for idx, (i, j, _k) in enumerate(spans) if j - i + 1 <= max_len]

    def extend(prefix, covered, rest):
        yield tuple(prefix)
        for pos, idx in enumerate(rest):
            i, j, _k = spans[idx]
            if any(t in covered for t in range(i, j + 1)):
                continue
            yield from extend(prefix + [idx], covered | set(range(i, j + 1)),
                              rest[pos + 1:])

    yield from extend([], set(), usable)


def map_by_enumeration(spans, scores, n, max_len):
    """(best subset, best value) over all feasible segmentations."""
    best_val = 0.0
    best = ()
    for subset in enumerate_segmentations(spans, n, max_len):
        val = sum(scores[i] for i in subset)
        if val > best_val + 1e-12:
            best_val, best = val, subset
    return best, best_val


def log_partition_by_enumeration(spans, scores, n, max_len):
    total = [sum(scores[i] for i in subset)
             for subset in enumerate_segmentations(spans, n, max_len)]
    m = max(total)
    return m + math.log(sum(math.exp(t - m) for t in total))


def marginals_by_enumeration(spans, scores, n, max_len):
    logz = log_partition_by_enumeration(spans, scores, n, max_len)
    post = np.zeros(len(spans))
    for subset in enumerate_segmentations(spans, n, max_len):
        w = math.exp(sum(scores[i] for i in subset) - logz)
        for i in subset:
            post[i] += w
    return logz, post


def random_span_problem(rng, n_max=8, max_len=3, n_keys=2, scale=2.0):
    """A random labeled-span scoring problem small enough to enumerate."""
    n = int(rng.integers(1, n_max + 1))
    spans = []
    for i in range(n):
        for j in range(i, min(n, i + max_len + 1)):  # a few over-long spans too
            for k in range(int(rng.integers(1, n_keys + 1))):
                spans.append((i, j, f"k{k}"))
    keep = rng.random(len(spans)) < 0.8
    spans = [s for s, m in zip(spans, keep) if m]
    scores = rng.normal(scale=scale, size=len(spans))
    return spans, scores, n


def part_set_objective(space, parts):
    """Total score of a structural part set, plus every cross-task score whose
    argument and arc are both active."""
    parts = set(parts)
    total = sum(float(space.scores[space.part_to_id[p]]) for p in parts)
    for cid in space.cross_ids:
        c = space.parts[cid]
        if space.parts[c.arg_id] in parts and space.parts[c.arc_id] in parts:
            total += float(space.scores[cid])
    return total


def assert_joint_feasible(space, parts, constraints):
    """Raise AssertionError if a structural part set violates the joint
    decoding constraints (checked directly from part semantics)."""
    from spandep.parts import (Argument, Head, LabeledArc, Predicate,
                               UnlabeledArc)

    parts = set(parts)
    preds = [p for p in parts if isinstance(p, Predicate)]
    args = [p for p in parts if isinstance(p, Argument)]
    if space.predicate_ids:
        assert len(preds) == 1, f"want exactly one frame, got {preds}"
        covered = set()
        for a in args:
            assert a.frame == preds[0].frame, "argument under inactive frame"
            toks = set(range(a.start, a.end + 1))
            assert not covered & toks, "overlapping argument spans"
            covered |= toks
    else:
        assert not preds and not args

    arcs = {p for p in parts if isinstance(p, UnlabeledArc) and not p.is_root}
    roots = [p for p in parts if isinstance(p, UnlabeledArc) and p.is_root]
    labeled = [p for p in parts if isinstance(p, LabeledArc)]
    heads = {p.token for p in parts if isinstance(p, Head)}
    if space.root_arc_ids:
        assert len(roots) == 1, "want exactly one top arc"
    by_arc = {}
    for la in labeled:
        key = (la.head, la.dep)
        by_arc.setdefault(key, []).append(la)
        assert UnlabeledArc(la.head, la.dep) in arcs, "label without arc"
    for ua in arcs:
        assert ua.head in heads, "arc without head part"
        n_labels = len(by_arc.get((ua.head, ua.dep), []))
        if space.labels_for_arc.get(space.part_to_id[ua]):
            assert n_labels == 1, f"arc needs exactly one label, got {n_labels}"
    used = {}
    for la in labeled:
        if la.label in constraints.deterministic_labels:
            key = (la.head, la.label)
            used[key] = used.get(key, 0) + 1
            assert used[key] <= 1, f"deterministic label {key} used twice"
