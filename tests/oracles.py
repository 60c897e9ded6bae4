"""Independent brute-force references shared by the test modules.

Everything here is written for clarity over speed and deliberately avoids
the package's own dynamic programs and solvers.
"""

import itertools
import math

import numpy as np


def concat_affine(g, blocks, w, b):
    """``affine`` over the row-wise concatenation of the gathered blocks,
    built as a matrix: the reference for ``gathered_affine``."""
    x = g.concat(*(x if ids is None else g.gather_sum([(x, ids)])
                   for x, ids in blocks))
    return g.affine(x, w, b)


def _concat_every_slice(node):
    """``concat``'s backward rule passing every parent its slice, all zero
    or not."""
    from spandep.autodiff import accumulate

    off = 0
    for p in node.parents:
        k = p.value.shape[-1]
        accumulate(p, node.grad[..., off:off + k])
        off += k


def backward_with_copies(graph, loss):
    """Dense backward pass with its own zeroed gradient per parameter node,
    added into the store at the end: the reference for ``Graph.backward``.
    Every ``concat`` passes back all its slices, so every node the loss
    reaches runs its rule, zero gradient or not."""
    from spandep.autodiff import _BACKWARD

    for node in graph.nodes:
        node.grad = np.zeros_like(node.value) if node.op == "param" else None
    loss.grad = np.asarray(1.0)
    for node in reversed(graph.nodes):
        if node.grad is None:
            continue
        if node.op == "concat":
            _concat_every_slice(node)
        else:
            _BACKWARD[node.op](node)
        if node.op == "param":
            store, name = node.ctx
            store.grads[name] += node.grad


def dense_step(store, learning_rate, clip, l2):
    """``clip_and_step`` over every accumulator, in the op order
    ``g *= lr·scale; w *= decay; w -= g; g.fill(0)``."""
    grads = store.grads
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    scale = clip / norm if norm > clip > 0 else 1.0
    decay = 1.0 - 2.0 * learning_rate * l2
    for name, w in store.values.items():
        g = grads[name]
        g *= learning_rate * scale
        w *= decay
        w -= g
        g.fill(0.0)


def dense_train_epoch(model, fn_train, dm_train, config):
    """One epoch of ``train`` without exemplars or dev sets, stepping with
    ``backward_with_copies`` and ``dense_step``: the reference for the
    backward pass and step that skip zero gradients."""
    from spandep.autodiff import Graph
    from spandep.training import (FnInstance, dm_instances, fn_instances,
                                  l1_penalty, latent_hinge_loss,
                                  sdp_hinge_loss)

    rng = np.random.default_rng(config.seed)
    cfg = model.config
    pool = fn_instances(fn_train, model.ontology,
                        cfg.fn_limits(model.dep_labels)) \
        + dm_instances(dm_train, cfg.dm_limits(model.dep_labels))
    lr = config.lr_at(0)
    for idx in rng.permutation(len(pool)):
        inst = pool[int(idx)]
        g = Graph()
        if isinstance(inst, FnInstance):
            res = latent_hinge_loss(model, inst.space, inst.parse, g=g,
                                    rng=rng, training=True)
        else:
            res = sdp_hinge_loss(model, inst.space, inst.graph, g=g,
                                 rng=rng, training=True)
        pen = l1_penalty(g, res.cross, config.l1_weight)
        node = res.node
        if pen is not None:
            node = pen if node is None else g.add(node, pen)
        if node is not None:
            backward_with_copies(g, node)
            dense_step(model.store, lr, config.clip, config.l2)


def _concat_mlp(g, store, prefix, x):
    """The two tanh layers of the MLP named ``prefix`` over one input
    vector, first layer over the whole concatenation."""
    p = lambda s: g.param(store, f"{prefix}.{s}")
    return g.tanh(g.affine(g.tanh(g.affine(x, p("w1"), p("b1"))),
                           p("w2"), p("b2")))


# --- single-part scorers: the references for the batched paths ------------

def frame_vec(sc, g, frame):
    return sc._vec(g, "frame", sc.frame_ix, frame)


def role_vec(sc, g, role):
    return sc._vec(g, "role", sc.role_ix, role)


def label_vec(sc, g, label):
    return sc._vec(g, "label", sc.label_ix, label)


def _slots(sc, g, pairs):
    """Product over slots of (factor matrix) @ (slot vector), an r-vector."""
    out = None
    for factor, vec in pairs:
        dots = g.matvec(sc._p(g, factor), vec)
        out = dots if out is None else g.mul(out, dots)
    return out


def score_predicate(sc, g, g_fr, g_tgt, g_lu):
    return g.sum(_slots(sc, g, [("w1", g_fr), ("w2", g_tgt), ("w3", g_lu)]))


def score_argument(sc, g, g_fr, g_tgt, g_lu, g_span, g_role):
    return g.sum(_slots(sc, g, [("w1", g_fr), ("w2", g_tgt), ("w3", g_lu),
                                ("u1", g_span), ("u2", g_role)]))


def score_cross_task(sc, g, g_fr, g_tgt, g_lu, g_span, g_role, g_arc):
    return g.sum(_slots(sc, g, [("w1", g_fr), ("w2", g_tgt), ("w3", g_lu),
                                ("u1", g_span), ("u2", g_role),
                                ("v1", sc._p(g, "ua.w")), ("v2", g_arc)]))


def arc_representation(sc, g, hs, head, dep):
    """g^ua for one ordered (head, dep) token pair."""
    return _concat_mlp(g, sc.store, "sc.ua",
                       g.concat(g.rows(hs, head), g.rows(hs, dep)))


def score_head(sc, g, hs, token):
    return g.inner(_concat_mlp(g, sc.store, "sc.head", g.rows(hs, token)),
                   sc._p(g, "head.w"))


def score_unlabeled(sc, g, hs, head, dep):
    return g.inner(arc_representation(sc, g, hs, head, dep),
                   sc._p(g, "ua.w"))


def score_labeled(sc, g, hs, head, dep, label):
    x = g.concat(g.rows(hs, head), g.rows(hs, dep),
                 label_vec(sc, g, label))
    return g.inner(_concat_mlp(g, sc.store, "sc.lab", x),
                   sc._p(g, "lab.w"))


def score_top(sc, g, hs, dep):
    return g.inner(_concat_mlp(g, sc.store, "sc.top", g.rows(hs, dep)),
                   sc._p(g, "top.w"))


def span_representation(enc, g, hs, span, target_start):
    from spandep.encoder import discrete_features

    i, j = span
    x = g.concat(g.rows(hs, i), g.rows(hs, j),
                 g.input(discrete_features(span, target_start)))
    return _concat_mlp(g, enc.store, f"{enc.prefix}.span", x)


def lstm_cell(g, x, h_prev, c_prev, w, b):
    """One LSTM step built from elementary graph ops: the per-step reference
    for one direction of the ``bilstm`` op.  ``w`` has shape
    (dim_x + dim_h, 4*dim_h), gate order input/forget/output/candidate."""
    hdim = h_prev.value.shape[0]
    z = g.affine(g.concat(x, h_prev), w, b)
    i = g.sigmoid(g.rows(z, 0, hdim))
    f = g.sigmoid(g.rows(z, hdim, 2 * hdim))
    o = g.sigmoid(g.rows(z, 2 * hdim, 3 * hdim))
    cand = g.tanh(g.rows(z, 3 * hdim, 4 * hdim))
    c = g.add(g.mul(f, c_prev), g.mul(i, cand))
    h = g.mul(o, g.tanh(c))
    return h, c


def lstm_sweep(x, w, b, reverse=False):
    """One direction of the ``bilstm`` op's forward sweep on arrays, with
    halved copies of the weights and bias and a fresh temporary per step:
    the bit-exact reference for the in-place, stacked sweep.  Returns the
    states and the direction's cache ``(acts, cells, tanh_c)``, rows in
    time order."""
    n, dx = x.shape
    dh = w.shape[1] // 4
    half = np.ones(4 * dh)
    half[:3 * dh] = 0.5
    zx = (x @ w[:dx] + b) * half
    w_h = w[dx:] * half
    acts = np.empty((n, 4 * dh))
    cells = np.empty((n, dh))
    tanh_c = np.empty((n, dh))
    out = np.empty((n, dh))
    h = np.zeros(dh)
    c = np.zeros(dh)
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        a = np.tanh(zx[t] + h @ w_h)
        a[:3 * dh] += 1.0
        a[:3 * dh] *= 0.5
        c = a[dh:2 * dh] * c + a[:dh] * a[3 * dh:]
        tanh_c[t] = np.tanh(c)
        h = a[2 * dh:3 * dh] * tanh_c[t]
        acts[t], cells[t], out[t] = a, c, h
    return out, (acts, cells, tanh_c)


def lstm_sweep_backward(x, w, out, cache, grad, reverse=False):
    """Backpropagation through one ``lstm_sweep`` direction by direction,
    with a fresh temporary per step: the bit-exact reference for one
    direction of the ``bilstm`` op's backward pass.  ``out`` and ``cache``
    are what ``lstm_sweep`` returned and ``grad`` is the gradient of
    ``out``.  Returns the gradients of x, w and b, each one product or sum
    over the steps in time order."""
    n, dx = x.shape
    dh = w.shape[1] // 4
    acts, cells, tanh_c = cache
    order = range(n - 1, -1, -1) if reverse else range(n)
    h_prev = np.zeros((n, dh))
    c_prev = np.zeros((n, dh))
    for prev, t in zip(order, order[1:]):
        h_prev[t], c_prev[t] = out[prev], cells[prev]
    dz = np.empty((n, 4 * dh))
    dh_next = np.zeros(dh)
    dc_next = np.zeros(dh)
    for t in reversed(order):
        i, f, o, cand = np.split(acts[t], 4)
        sig = acts[t, :3 * dh]
        d_h = grad[t] + dh_next
        d_c = dc_next + d_h * (o * (1.0 - tanh_c[t] * tanh_c[t]))
        coef = np.concatenate((sig * (1.0 - sig), 1.0 - cand * cand)) \
            * np.concatenate((cand, c_prev[t], tanh_c[t], i))
        dz[t] = coef * np.concatenate((d_c, d_c, d_h, d_c))
        dc_next = d_c * f
        dh_next = w[dx:] @ dz[t]
    return (dz @ w[:dx].T, np.concatenate((x, h_prev), axis=1).T @ dz,
            dz.sum(axis=0))


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


def project_pair_by_candidates(za, zb, gamma):
    """The pair factor's subproblem (see ``projections.project_pair``) by
    evaluating three candidates per sign of gamma and keeping the one of
    least objective, the first on ties.  For gamma >= 0: the bonus on
    either side, or the tie; for gamma < 0: the clipped box point, the box
    point shifted by gamma, or the projection onto ua+ub = 1."""
    za, zb = np.asarray(za, float), np.asarray(zb, float)
    gamma = np.asarray(gamma, float)
    pos = gamma >= 0
    a1, b1 = np.clip(za + gamma, 0, 1), np.clip(zb, 0, 1)
    a2, b2 = np.clip(za, 0, 1), np.clip(zb + gamma, 0, 1)
    t = np.clip(0.5 * (za + zb + gamma), 0, 1)
    a4, b4 = np.clip(za, 0, 1), np.clip(zb, 0, 1)
    a5, b5 = np.clip(za + gamma, 0, 1), np.clip(zb + gamma, 0, 1)
    a6 = np.clip(0.5 * (za - zb + 1.0), 0, 1)
    b6 = 1.0 - a6
    ua = np.where(pos[None, :], np.stack([a1, a2, t]), np.stack([a4, a5, a6]))
    ub = np.where(pos[None, :], np.stack([b1, b2, t]), np.stack([b4, b5, b6]))
    v = np.where(pos[None, :], np.minimum(ua, ub),
                 np.maximum(0.0, ua + ub - 1.0))
    obj = 0.5 * (ua - za) ** 2 + 0.5 * (ub - zb) ** 2 - gamma * v
    best = np.argmin(obj, axis=0)
    cols = np.arange(za.shape[0])
    return ua[best, cols], ub[best, cols]


def enumerate_segmentations(spans, n):
    """Yield every feasible index subset (as a tuple) of non-overlapping
    spans, including the empty tuple."""

    def extend(prefix, covered, rest):
        yield tuple(prefix)
        for pos, idx in enumerate(rest):
            i, j = spans[idx]
            if any(t in covered for t in range(i, j + 1)):
                continue
            yield from extend(prefix + [idx], covered | set(range(i, j + 1)),
                              rest[pos + 1:])

    yield from extend([], set(), list(range(len(spans))))


def map_by_enumeration(spans, scores, n):
    """(best subset, best value) over all feasible segmentations."""
    best_val = 0.0
    best = ()
    for subset in enumerate_segmentations(spans, n):
        val = sum(scores[i] for i in subset)
        if val > best_val + 1e-12:
            best_val, best = val, subset
    return best, best_val


def semi_markov_map_by_lists(spans, scores, n):
    """The list-based semi-Markov MAP, rebuilding its cell index on every
    call: the reference for ``semi_markov_map`` down to its tie-breaking
    (per cell the best item, earliest index on ties; at each token, among
    equal totals, fewer segments, then skipping, then the earliest start)."""
    cell = {}
    for idx, (i, j) in enumerate(spans):
        cur = cell.get((i, j))
        if cur is None or scores[idx] > scores[cur]:
            cell[(i, j)] = idx
    by_end = {}
    for (i, j), idx in sorted(cell.items()):
        by_end.setdefault(j, []).append((i, idx))
    val = np.zeros(n + 1)
    cnt = np.zeros(n + 1, dtype=int)
    back = [None] * (n + 1)
    for j in range(1, n + 1):
        v, c, b = val[j - 1], cnt[j - 1], None
        for (i, idx) in by_end.get(j - 1, ()):
            nv = val[i] + scores[idx]
            nc = cnt[i] + 1
            if nv > v or (nv == v and nc < c):
                v, c, b = nv, nc, (i, idx)
        val[j], cnt[j], back[j] = v, c, b
    chosen = []
    j = n
    while j > 0:
        if back[j] is None:
            j -= 1
        else:
            i, idx = back[j]
            chosen.append(idx)
            j = i
    chosen.reverse()
    return chosen, float(val[n])


def check_assignment_by_loops(graph, active):
    """Factor-by-factor feasibility check of a boolean assignment: the
    reference for ``FactorGraph.check_assignment``."""
    for f in graph.xors:
        if sum(bool(active[v]) != ng for v, ng in zip(f.vars, f.neg)) != 1:
            return False
    for f in graph.imps:
        if active[f.a] and not active[f.b]:
            return False
    for f in graph.semis:
        covered = set()
        for v, (i, j) in zip(f.vars, f.spans):
            if not active[v]:
                continue
            toks = set(range(i, j + 1))
            if covered & toks:
                return False
            covered |= toks
    return True


def objective_by_loops(graph, active):
    """Offset plus active unary scores plus each pair whose endpoints are
    both active: the reference for ``FactorGraph.objective``."""
    val = graph.offset + sum(float(graph.theta[v])
                             for v in range(graph.nvars) if active[v])
    for f in graph.pairs:
        if active[f.a] and active[f.b]:
            val += f.score
    return val


def log_partition_by_enumeration(spans, scores, n):
    total = [sum(scores[i] for i in subset)
             for subset in enumerate_segmentations(spans, n)]
    m = max(total)
    return m + math.log(sum(math.exp(t - m) for t in total))


def marginals_by_enumeration(spans, scores, n):
    logz = log_partition_by_enumeration(spans, scores, n)
    post = np.zeros(len(spans))
    for subset in enumerate_segmentations(spans, n):
        w = math.exp(sum(scores[i] for i in subset) - logz)
        for i in subset:
            post[i] += w
    return logz, post


def random_span_problem(rng, n_max=8, max_width=4, copies=2, scale=2.0):
    """A random span scoring problem small enough to enumerate: spans up to
    ``max_width`` tokens wide, each listed 1 to ``copies`` times (as a span
    is once per role), about a fifth of them dropped."""
    n = int(rng.integers(1, n_max + 1))
    spans = []
    for i in range(n):
        for j in range(i, min(n, i + max_width)):
            for _ in range(int(rng.integers(1, copies + 1))):
                spans.append((i, j))
    keep = rng.random(len(spans)) < 0.8
    spans = [s for s, m in zip(spans, keep) if m]
    scores = rng.normal(scale=scale, size=len(spans))
    return spans, scores, n


def random_factor_graph(rng, n_core=4, n_trees=4, n_tokens=4):
    """A small random factor graph: a cyclic core (an XOR with negated
    literals, pairs and a segmentation factor over shared variables) with tree-shaped pieces hung on it (label-style XORs,
    implications in both directions, two-level chains), plus a detached
    XOR and an isolated variable."""
    from spandep.inference.factor_graph import (FactorGraph, Implication,
                                                Pair, SemiMarkov, Xor)

    nv = [0]

    def new():
        nv[0] += 1
        return nv[0] - 1

    def neg(k):
        return tuple(bool(b) for b in rng.random(k) < 0.3)

    core = [new() for _ in range(n_core)]
    xors = [Xor(tuple(core[:3]), neg(3))]
    pairs = [Pair(core[0], core[-1], float(rng.normal(scale=2.0))),
             Pair(core[2], core[1], float(rng.normal(scale=2.0)))]
    spans = [(int(i), int(i) + int(rng.integers(0, 2)))
             for i in rng.integers(0, n_tokens - 1, size=n_core)]
    semis = [SemiMarkov(tuple(core), tuple(spans), n_tokens)]
    imps = []
    for _ in range(n_trees):
        r = core[int(rng.integers(0, n_core))]
        kind = int(rng.integers(0, 4))
        if kind == 0:    # r tied to exactly one of its leaves, as an arc
            leaves = [new() for _ in range(int(rng.integers(1, 4)))]
            xors.append(Xor((r, *leaves), (True,) + neg(len(leaves))))
        elif kind == 1:  # a leaf that implies r
            imps.append(Implication(new(), r))
        elif kind == 2:  # r implies a leaf, as an arc implies its head
            imps.append(Implication(r, new()))
        else:            # an arc with labels under a head that is r
            arc = new()
            leaves = [new() for _ in range(int(rng.integers(1, 3)))]
            xors.append(Xor((arc, *leaves), (True,) + neg(len(leaves))))
            imps.append(Implication(arc, r))
    top = [new() for _ in range(int(rng.integers(1, 4)))]
    xors.append(Xor(tuple(top), neg(len(top))))
    new()  # isolated
    theta = rng.normal(scale=1.5, size=nv[0])
    return FactorGraph(theta, tuple(xors), tuple(imps), tuple(pairs),
                       tuple(semis), float(rng.normal()))


def parse_parts(parse):
    """The Predicate and Argument parts of a frame parse."""
    from spandep.parts import Argument, Predicate

    t = parse.target
    return {Predicate(t.span, t.lu, parse.frame),
            *(Argument(parse.frame, i, j, r) for i, j, r in parse.arguments)}


def graph_parts(graph):
    """The Head, UnlabeledArc and LabeledArc parts of a dependency graph,
    its top as the root arc into it."""
    from spandep.parts import VIRTUAL_ROOT, Head, LabeledArc, UnlabeledArc

    parts = set()
    for h, d, lab in graph.arcs:
        parts.update((Head(h), UnlabeledArc(h, d), LabeledArc(h, d, lab)))
    if graph.top is not None:
        parts.add(UnlabeledArc(VIRTUAL_ROOT, graph.top))
    return parts


def full_frame_space(space, limits):
    """The frame space with the whole dependency side: ``space``'s parts
    plus a head part for every token, every arc ``limits.allowed_arcs``
    lets through, a root arc into every token and every arc's labels, with
    the same cross-task parts.  Built with the ``Part``-tuple constructor,
    scores zero."""
    from spandep.parts import (VIRTUAL_ROOT, CrossTask, Head, LabeledArc,
                               UnlabeledArc, arc_array)

    parts = space.parts
    frame = parts[:space.head_ids.start]
    arcs = [UnlabeledArc(h, d)
            for h, d in arc_array(space.n, limits.allowed_arcs).tolist()]
    labels = limits.dep_labels if arcs else ()
    deps = (*map(Head, range(space.n)), *arcs,
            *(UnlabeledArc(VIRTUAL_ROOT, d) for d in range(space.n)),
            *(LabeledArc(a.head, a.dep, lab) for a in arcs for lab in labels))
    arc_id = {p: len(frame) + k for k, p in enumerate(deps)}
    cross = [CrossTask(parts[i].arg_id, arc_id[parts[parts[i].arc_id]])
             for i in space.cross_ids]
    full = (*frame, *deps, *cross)
    return type(space)(space.sentence, space.target, space.frames, full,
                       np.zeros(len(full)))


def part_ids(space):
    """Each part's id, read off ``space.parts``: the reference the gold
    masks are checked against."""
    return {p: i for i, p in enumerate(space.parts)}


def mask_of(space, parts):
    """The mask over ``space``'s parts set on ``parts``, each found through
    ``part_ids``; ``KeyError`` names a part the space lacks."""
    ids = part_ids(space)
    active = np.zeros(len(space), dtype=bool)
    active[[ids[p] for p in parts]] = True
    return active


def mask_objective(space, active):
    """Total score of the structural parts set in a part mask, plus every
    cross-task score whose argument and arc are both set; the mask's own
    cross-task bits are ignored."""
    on = {i for i in range(len(space.parts)) if active[i]}
    total = sum(float(space.scores[i]) for i in on if i not in space.cross_ids)
    for cid in space.cross_ids:
        c = space.parts[cid]
        if c.arg_id in on and c.arc_id in on:
            total += float(space.scores[cid])
    return total


def assert_joint_feasible(space, active):
    """Raise AssertionError if the structural parts of a part mask violate
    the joint decoding constraints (checked directly from part semantics)."""
    from spandep.parts import (VIRTUAL_ROOT, Argument, Head, LabeledArc,
                               Predicate, UnlabeledArc)

    parts = {space.parts[i] for i in range(len(space.parts)) if active[i]}
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

    arcs = {p for p in parts
            if isinstance(p, UnlabeledArc) and p.head != VIRTUAL_ROOT}
    roots = [p for p in parts
             if isinstance(p, UnlabeledArc) and p.head == VIRTUAL_ROOT]
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
        if space.labels_for_arc.get(space.parts.index(ua)):
            assert n_labels == 1, f"arc needs exactly one label, got {n_labels}"


def milp_map(space):
    """Exact joint optimum as a mixed-integer program (HiGHS through
    ``scipy.optimize.milp``, relative gap 0), with one binary per part.

    Constraints: one predicate when the space has a target; each argument
    at most its frame's predicate; at most one argument over each token;
    each arc at most its head part; an arc's labels summing to the arc when
    it has labels; one root arc; each pair part z linearised as z <= a,
    z <= b, z >= a + b - 1.  Returns (mask over ``space.parts``, objective)
    in ``decode``'s form.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    parts = space.parts
    rows, cols, vals, lb, ub = [], [], [], [], []

    def row(coef, lo, hi):
        for i, v in coef:
            rows.append(len(lb))
            cols.append(i)
            vals.append(v)
        lb.append(lo)
        ub.append(hi)

    if space.predicate_ids:
        row([(i, 1) for i in space.predicate_ids], 1, 1)
    pred_of = {parts[i].frame: i for i in space.predicate_ids}
    cover = {}
    for i in space.argument_ids:
        a = parts[i]
        row([(i, 1), (pred_of[a.frame], -1)], -np.inf, 0)
        for t in range(a.start, a.end + 1):
            cover.setdefault(t, []).append(i)
    for ids in cover.values():
        row([(i, 1) for i in ids], -np.inf, 1)
    head_of = {parts[i].token: i for i in space.head_ids}
    for i in space.arc_ids:
        if parts[i].head in head_of:
            row([(i, 1), (head_of[parts[i].head], -1)], -np.inf, 0)
        labels = space.labels_for_arc.get(i)
        if labels:
            row([(i, -1)] + [(j, 1) for j in labels], 0, 0)
    if space.root_arc_ids:
        row([(i, 1) for i in space.root_arc_ids], 1, 1)
    for z, a, b in zip(space.cross_ids, space.cross_arg, space.cross_arc):
        row([(z, 1), (int(a), -1)], -np.inf, 0)
        row([(z, 1), (int(b), -1)], -np.inf, 0)
        row([(z, 1), (int(a), -1), (int(b), -1)], -1, np.inf)

    n = len(parts)
    constraints = ()
    if lb:
        a = coo_matrix((vals, (rows, cols)), shape=(len(lb), n)).tocsr()
        constraints = (LinearConstraint(a, lb, ub),)
    res = milp(-np.asarray(space.scores, dtype=float), integrality=np.ones(n),
               bounds=Bounds(0, 1), constraints=constraints,
               options={"mip_rel_gap": 0})
    if not res.success:
        raise AssertionError(f"milp failed: {res.message}")
    active = res.x > 0.5
    return active, float(space.scores @ active)


def build_factor_graph_by_parts(space, include_frames=True):
    """The factor graph of a scored space, built part by part from factor
    dataclasses: the reference for ``build_factor_graph``."""
    from spandep.inference.factor_graph import (FactorGraph, Implication,
                                                Pair, SemiMarkov, Xor)
    from spandep.parts import Argument, CrossTask, Predicate

    keep = [pid for pid, part in enumerate(space.parts)
            if not isinstance(part, CrossTask)
            and (include_frames or not isinstance(part, (Predicate, Argument)))]
    var_of_part = {pid: i for i, pid in enumerate(keep)}
    xors, imps, semis, pairs = [], [], [], []
    if include_frames and space.predicate_ids:
        pred_vars = tuple(var_of_part[p] for p in space.predicate_ids)
        xors.append(Xor(pred_vars, (False,) * len(pred_vars)))
        pred_var_of_frame = {space.parts[p].frame: var_of_part[p]
                             for p in space.predicate_ids}
        arg_vars, arg_spans = [], []
        for pid in space.argument_ids:
            a = space.parts[pid]
            imps.append(Implication(var_of_part[pid],
                                    pred_var_of_frame[a.frame]))
            arg_vars.append(var_of_part[pid])
            arg_spans.append((a.start, a.end))
        if arg_vars:
            semis.append(SemiMarkov(tuple(arg_vars), tuple(arg_spans),
                                    space.n))
    if space.root_arc_ids:
        root_vars = tuple(var_of_part[p] for p in space.root_arc_ids)
        xors.append(Xor(root_vars, (False,) * len(root_vars)))
    head_var_of_token = {space.parts[p].token: var_of_part[p]
                         for p in space.head_ids}
    for pid in space.arc_ids:
        arc = space.parts[pid]
        label_ids = space.labels_for_arc.get(pid, [])
        if label_ids:
            xors.append(Xor((var_of_part[pid],)
                            + tuple(var_of_part[l] for l in label_ids),
                            (True,) + (False,) * len(label_ids)))
        if arc.head in head_var_of_token:
            imps.append(Implication(var_of_part[pid],
                                    head_var_of_token[arc.head]))
    if include_frames:
        for cid in space.cross_ids:
            c = space.parts[cid]
            pairs.append(Pair(var_of_part[c.arg_id], var_of_part[c.arc_id],
                              float(space.scores[cid])))
    return FactorGraph(space.scores[keep].copy(), tuple(xors), tuple(imps),
                       tuple(pairs), tuple(semis))


def clamp_by_loops(graph, fixed):
    """Unit propagation factor by factor, and the reduced graph rebuilt from
    factor dataclasses: the reference for ``clamp_graph`` once something
    is fixed.  Returns (reduced graph, forced, free)."""
    from spandep.inference.factor_graph import (FactorGraph, Implication,
                                                Infeasible, Pair,
                                                SemiMarkov, Xor)

    val = {}

    def assign(v, b):
        if v in val:
            if val[v] != b:
                raise Infeasible(f"variable {v} forced both ways")
            return False
        val[v] = b
        return True

    for v, b in fixed.items():
        assign(v, bool(b))
    changed = True
    while changed:
        changed = False
        for f in graph.xors:
            lits = [(v, ng, val.get(v)) for v, ng in zip(f.vars, f.neg)]
            true_lits = [v for v, ng, b in lits if b is not None and b != ng]
            free = [(v, ng) for v, ng, b in lits if b is None]
            if len(true_lits) > 1:
                raise Infeasible("xor with two true literals")
            if len(true_lits) == 1:
                for v, ng in free:
                    changed |= assign(v, ng)
            elif not free:
                raise Infeasible("xor with all literals false")
            elif len(free) == 1:
                changed |= assign(free[0][0], not free[0][1])
        for f in graph.imps:
            if val.get(f.a) is True and val.get(f.b) is not True:
                changed |= assign(f.b, True)
            if val.get(f.b) is False and val.get(f.a) is not False:
                changed |= assign(f.a, False)
        for f in graph.semis:
            blocked = set()
            for v, (i, j) in zip(f.vars, f.spans):
                if val.get(v):
                    toks = set(range(i, j + 1))
                    if blocked & toks:
                        raise Infeasible("overlapping clamped spans")
                    blocked |= toks
            for v, (i, j) in zip(f.vars, f.spans):
                if v not in val and blocked & set(range(i, j + 1)):
                    changed |= assign(v, False)

    free_vars = [v for v in range(graph.nvars) if v not in val]
    new = {v: i for i, v in enumerate(free_vars)}
    theta = graph.theta[free_vars].copy()
    offset = graph.offset + sum(float(graph.theta[v])
                                for v, b in val.items() if b)
    pairs = []
    for f in graph.pairs:
        ba, bb = val.get(f.a), val.get(f.b)
        if ba is False or bb is False:
            continue
        if ba and bb:
            offset += f.score
        elif ba:
            theta[new[f.b]] += f.score
        elif bb:
            theta[new[f.a]] += f.score
        else:
            pairs.append(Pair(new[f.a], new[f.b], f.score))
    xors = []
    for f in graph.xors:
        if any(val.get(v) is not None and val[v] != ng
               for v, ng in zip(f.vars, f.neg)):
            continue
        kept = [(new[v], ng) for v, ng in zip(f.vars, f.neg) if v not in val]
        if kept:
            xors.append(Xor(tuple(v for v, _ in kept),
                            tuple(ng for _, ng in kept)))
    imps = [Implication(new[f.a], new[f.b]) for f in graph.imps
            if f.a not in val and f.b not in val]
    semis = []
    for f in graph.semis:
        kept = [(new[v], sp) for v, sp in zip(f.vars, f.spans) if v not in val]
        if kept:
            semis.append(SemiMarkov(tuple(v for v, _ in kept),
                                    tuple(sp for _, sp in kept), f.n))
    reduced = FactorGraph(theta, tuple(xors), tuple(imps), tuple(pairs),
                          tuple(semis), offset)
    return reduced, val, np.array(free_vars, dtype=int)
