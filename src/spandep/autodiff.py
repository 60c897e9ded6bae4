"""Minimal reverse-mode autodiff over dense numpy arrays.

Define-by-run: each op immediately computes its value and appends a node to
the graph, so creation order is already a topological order.  Backward walks
the node list in reverse, dispatching through a module-level registry keyed
by op name.  Keeping forward rules in the same registry lets ``recompute``
re-evaluate the whole graph after a parameter has been perturbed in place,
which is what the finite-difference checker needs.

Each job has one op.  ``rows`` takes one row or a contiguous run of rows
by a basic index, and ``concat`` joins vectors end to end or matrices side
by side.  Ops are coarse where it pays: ``lstm`` runs a whole recurrent
sweep over the rows of a matrix as one node and keeps its gate activations
in ``ctx`` for the backward pass, and batched consumers gather rows inside
the op that uses them.  ``gather_sum`` gathers rows by index arrays, from one
matrix or summed over several, and ``pair_dots`` takes one weighted dot
product per (row, row) pair of two matrices; their backward passes scatter
gradients straight into the source rows, summing the rows gathered from one
source row before adding them.  ``gathered_affine`` gives the first layer
of an MLP over concatenated rows from per-row products of row slices of its
weight matrix, summed by one ``gather_sum``.

Supported shapes are scalars, vectors and matrices; no broadcasting beyond
the bias row in ``affine`` and no GPU paths.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np


class ShapeError(Exception):
    pass


class NonFiniteGradient(Exception):
    pass


class Node:
    __slots__ = ("op", "parents", "ctx", "value", "grad")

    def __init__(self, op: str, parents: tuple, ctx, value: np.ndarray):
        self.op = op
        self.parents = parents
        self.ctx = ctx
        self.value = value
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.value.shape


_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


def register_op(name: str, forward: Callable, backward: Callable) -> None:
    """Register a custom op: forward(node) -> ndarray, backward(node) -> None
    (accumulate into parents via ``accumulate``)."""
    _FORWARD[name] = forward
    _BACKWARD[name] = backward


def accumulate(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _op(name):
    def deco(fn):
        _FORWARD[name] = fn
        return fn
    return deco


def _bk(name):
    def deco(fn):
        _BACKWARD[name] = fn
        return fn
    return deco


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |x|."""
    out = np.empty_like(x)
    np.exp(-np.abs(x), out=out)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + out[pos])
    out[~pos] = out[~pos] / (1.0 + out[~pos])
    return out


# --- forward rules ---------------------------------------------------------

@_op("input")
def _f_input(node):
    return node.value


@_op("param")
def _f_param(node):
    store, pname = node.ctx
    return store.values[pname]


@_op("gather_sum")
def _f_gather_sum(node):
    out = None
    for x, ids in zip(node.parents, node.ctx):
        if out is None:
            out = x.value.copy() if ids is None else x.value[ids]
        else:
            out += x.value if ids is None else x.value[ids]
    return out


@_op("pair_dots")
def _f_pair_dots(node):
    p, q, w = (x.value for x in node.parents)
    rows, cols = node.ctx
    return ((p * w) @ q.T)[rows, cols]


@_op("rows")
def _f_rows(node):
    return node.parents[0].value[node.ctx]


@_op("concat")
def _f_concat(node):
    return np.concatenate([p.value for p in node.parents], axis=-1)


@_op("add")
def _f_add(node):
    a, b = node.parents
    return a.value + b.value


@_op("sub")
def _f_sub(node):
    a, b = node.parents
    return a.value - b.value


@_op("mul")
def _f_mul(node):
    a, b = node.parents
    return a.value * b.value


@_op("scale")
def _f_scale(node):
    (x,) = node.parents
    return node.ctx * x.value


@_op("tanh")
def _f_tanh(node):
    return np.tanh(node.parents[0].value)


@_op("sigmoid")
def _f_sigmoid(node):
    return _sigmoid(node.parents[0].value)


@_op("abs")
def _f_abs(node):
    return np.abs(node.parents[0].value)


@_op("sum")
def _f_sum(node):
    return np.asarray(node.parents[0].value.sum())


@_op("inner")
def _f_inner(node):
    a, b = node.parents
    return np.asarray(a.value @ b.value)


@_op("matvec")
def _f_matvec(node):
    w, x = node.parents
    return w.value @ x.value


@_op("matmul")
def _f_matmul(node):
    a, b = node.parents
    return a.value @ b.value


@_op("affine")
def _f_affine(node):
    x, w, b = node.parents
    return x.value @ w.value + b.value


@_op("transpose")
def _f_transpose(node):
    return node.parents[0].value.T


@_op("softplus")
def _f_softplus(node):
    x = node.parents[0].value
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _lstm_steps(n: int, reverse: bool) -> range:
    return range(n - 1, -1, -1) if reverse else range(n)


@_op("lstm")
def _f_lstm(node):
    """Scan the rows of x; the input projection is one GEMM up front.  The
    sigmoid gates are computed as (1 + tanh(z/2)) / 2, so one tanh covers
    all four gates.  Each step halves its gate pre-activation row in place:
    scaling by 0.5 is exact and commutes with rounding, so the states are
    those of halved weights and bias bit for bit.  Every step writes
    straight into the outputs and the backward caches."""
    x, w, b = (p.value for p in node.parents)
    n, dx = x.shape
    dh = w.shape[1] // 4
    half = np.ones(4 * dh)
    half[:3 * dh] = 0.5
    zx = x @ w[:dx]
    zx += b
    w_h = w[dx:]
    acts = np.empty((n, 4 * dh))  # input, forget, output, candidate
    cells = np.empty((n, dh))
    tanh_c = np.empty((n, dh))
    out = np.empty((n, dh))
    ic = np.empty(dh)
    h = np.zeros(dh)
    c = np.zeros(dh)
    sweep = slice(None, None, -1 if node.ctx["reverse"] else 1)
    for a, z, c_t, tc, h_t in zip(acts[sweep], zx[sweep], cells[sweep],
                                  tanh_c[sweep], out[sweep]):
        np.matmul(h, w_h, out=a)
        a += z
        a *= half
        np.tanh(a, out=a)
        sig = a[:3 * dh]
        sig += 1.0
        sig *= 0.5
        np.multiply(a[:dh], a[3 * dh:], out=ic)
        np.multiply(a[dh:2 * dh], c, out=c_t)
        c_t += ic
        np.tanh(c_t, out=tc)
        np.multiply(a[2 * dh:3 * dh], tc, out=h_t)
        c, h = c_t, h_t
    node.ctx["cache"] = (acts, cells, tanh_c)
    return out


# --- backward rules --------------------------------------------------------

@_bk("input")
def _b_input(node):
    pass


@_bk("param")
def _b_param(node):
    pass


def _scatter_rows(table: Node, ids: np.ndarray, grad: np.ndarray) -> None:
    """Add row k of ``grad`` into row ``ids[k]`` of ``table``'s gradient.
    The rows bound for one table row are summed first, with one
    ``bincount`` over (row, column) cells, and each sum is added into its
    table row once.  A row's sum keeps the order of the gathers."""
    if table.grad is None:
        table.grad = np.zeros_like(table.value)
    n_rows, width = table.value.shape
    # a negative index counts from the end, as in the forward gather
    rows, inv = np.unique(ids % n_rows, return_inverse=True)
    cells = (inv.reshape(-1, 1) * width + np.arange(width)).ravel()
    sums = np.bincount(cells, weights=grad.ravel(),
                       minlength=rows.size * width)
    table.grad[rows] += sums.reshape(rows.size, width)


@_bk("gather_sum")
def _b_gather_sum(node):
    for x, ids in zip(node.parents, node.ctx):
        if ids is None:
            accumulate(x, node.grad)
        else:
            _scatter_rows(x, ids, node.grad)


@_bk("pair_dots")
def _b_pair_dots(node):
    """With D the (rows of p) x (rows of q) matrix holding each pair's
    gradient at its cell (repeated pairs summed), the gradients are
    (D q) * w, D^T (p * w) and the column sums of p * (D q)."""
    p, q, w = node.parents
    rows, cols = node.ctx
    n_p, n_q = p.value.shape[0], q.value.shape[0]
    # a negative index counts from the end, as in the forward gather
    d = np.bincount(rows % n_p * n_q + cols % n_q, weights=node.grad,
                    minlength=n_p * n_q).reshape(n_p, n_q)
    dq = d @ q.value
    accumulate(p, dq * w.value)
    accumulate(q, d.T @ (p.value * w.value))
    accumulate(w, np.einsum("ij,ij->j", p.value, dq))


@_bk("rows")
def _b_rows(node):
    (x,) = node.parents
    if x.grad is None:
        x.grad = np.zeros_like(x.value)
    x.grad[node.ctx] += node.grad


@_bk("concat")
def _b_concat(node):
    off = 0
    for p in node.parents:
        k = p.value.shape[-1]
        accumulate(p, node.grad[..., off:off + k])
        off += k


@_bk("add")
def _b_add(node):
    accumulate(node.parents[0], node.grad)
    accumulate(node.parents[1], node.grad)


@_bk("sub")
def _b_sub(node):
    accumulate(node.parents[0], node.grad)
    accumulate(node.parents[1], -node.grad)


@_bk("mul")
def _b_mul(node):
    a, b = node.parents
    accumulate(a, node.grad * b.value)
    accumulate(b, node.grad * a.value)


@_bk("scale")
def _b_scale(node):
    accumulate(node.parents[0], node.ctx * node.grad)


@_bk("tanh")
def _b_tanh(node):
    accumulate(node.parents[0], node.grad * (1.0 - node.value ** 2))


@_bk("sigmoid")
def _b_sigmoid(node):
    accumulate(node.parents[0], node.grad * node.value * (1.0 - node.value))


@_bk("abs")
def _b_abs(node):
    # subgradient at 0 is 0
    accumulate(node.parents[0], node.grad * np.sign(node.parents[0].value))


@_bk("sum")
def _b_sum(node):
    x = node.parents[0]
    accumulate(x, np.full_like(x.value, float(node.grad)))


@_bk("inner")
def _b_inner(node):
    a, b = node.parents
    g = float(node.grad)
    accumulate(a, g * b.value)
    accumulate(b, g * a.value)


@_bk("matvec")
def _b_matvec(node):
    w, x = node.parents
    accumulate(w, np.outer(node.grad, x.value))
    accumulate(x, w.value.T @ node.grad)


@_bk("matmul")
def _b_matmul(node):
    a, b = node.parents
    accumulate(a, node.grad @ b.value.T)
    accumulate(b, a.value.T @ node.grad)


@_bk("affine")
def _b_affine(node):
    x, w, b = node.parents
    g = node.grad
    if x.value.ndim == 1:
        accumulate(x, g @ w.value.T)
        accumulate(w, np.outer(x.value, g))
        accumulate(b, g)
    else:
        accumulate(x, g @ w.value.T)
        accumulate(w, x.value.T @ g)
        accumulate(b, g.sum(axis=0))


@_bk("transpose")
def _b_transpose(node):
    accumulate(node.parents[0], node.grad.T)


@_bk("softplus")
def _b_softplus(node):
    accumulate(node.parents[0], node.grad * _sigmoid(node.parents[0].value))


@_bk("lstm")
def _b_lstm(node):
    """Backpropagation through time.  Only the recurrence runs per step; the
    gradients of x, w and b are one GEMM each over all steps."""
    x, w, b = node.parents
    acts, cells, tanh_c = node.ctx["cache"]
    n, dx = x.value.shape
    dh = w.value.shape[1] // 4
    steps = _lstm_steps(n, node.ctx["reverse"])
    h_prev = np.zeros_like(node.value)
    c_prev = np.zeros_like(cells)
    h_prev[steps[1:]] = node.value[steps[:-1]]
    c_prev[steps[1:]] = cells[steps[:-1]]
    i, f, o, cand = (acts[:, k * dh:(k + 1) * dh] for k in range(4))
    sig = acts[:, :3 * dh]
    # dz = coef * (dc, dc, dh, dc) row by row, dc and dh being the
    # gradients of the step's cell and hidden state
    coef = np.concatenate((sig * (1.0 - sig), 1.0 - cand * cand), axis=1)
    coef *= np.concatenate((cand, c_prev, tanh_c, i), axis=1)
    h_to_c = o * (1.0 - tanh_c * tanh_c)
    w_h = w.value[dx:]
    dz = np.empty_like(acts)
    dh_next = np.zeros(dh)
    dc_next = np.zeros(dh)
    for t in reversed(steps):
        d_h = node.grad[t] + dh_next
        d_c = dc_next + d_h * h_to_c[t]
        dz[t] = coef[t] * np.concatenate((d_c, d_c, d_h, d_c))
        dc_next = d_c * f[t]
        dh_next = w_h @ dz[t]
    accumulate(x, dz @ w.value[:dx].T)
    accumulate(w, np.concatenate((x.value, h_prev), axis=1).T @ dz)
    accumulate(b, dz.sum(axis=0))


class Graph:
    """One per decoding/training instance; never shared between threads."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._param_cache: dict[tuple[int, str], Node] = {}

    def _push(self, op: str, parents: tuple, ctx=None) -> Node:
        node = Node(op, parents, ctx, None)
        node.value = np.asarray(_FORWARD[op](node), dtype=float)
        self.nodes.append(node)
        return node

    # leaves
    def input(self, value) -> Node:
        node = Node("input", (), None, np.asarray(value, dtype=float))
        self.nodes.append(node)
        return node

    def param(self, store: "ParameterStore", name: str) -> Node:
        key = (id(store), name)
        if key not in self._param_cache:
            node = Node("param", (), (store, name), store.values[name])
            self.nodes.append(node)
            self._param_cache[key] = node
        return self._param_cache[key]

    # ops
    def gather_sum(self, blocks: Sequence[tuple[Node, Optional[Sequence[int]]]]
                   ) -> Node:
        """Row k is the sum over blocks ``(x, ids)`` of ``x[ids[k]]``, or of
        ``x[k]`` when ``ids`` is None, as one node: no gathered block or
        partial sum is kept, nor its gradient."""
        xs = tuple(x for x, _ in blocks)
        index = [None if ids is None else np.asarray(ids, dtype=int)
                 for _, ids in blocks]
        if any(x.value.ndim != 2 for x in xs) or len(
                {(x.value.shape[0] if ids is None else ids.size,
                  x.value.shape[1]) for x, ids in zip(xs, index)}) != 1:
            raise ShapeError(f"gather_sum: blocks {[x.shape for x in xs]} "
                             f"do not gather rows of one shape")
        return self._push("gather_sum", xs, index)

    def pair_dots(self, p: Node, q: Node, w: Node, rows: Sequence[int],
                  cols: Sequence[int]) -> Node:
        """Entry k is ``sum(p[rows[k]] * w * q[cols[k]])``.  The dot products
        come from one product of ``p * w`` with ``q``'s transpose, one cell
        per (row of p, row of q), so no row per pair is ever built."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if p.value.ndim != 2 or q.value.ndim != 2 \
                or w.value.shape != (p.value.shape[1],) \
                or q.value.shape[1] != p.value.shape[1] \
                or rows.shape != cols.shape or rows.ndim != 1:
            raise ShapeError(f"pair_dots: p{p.shape} q{q.shape} w{w.shape} "
                             f"rows{rows.shape} cols{cols.shape}")
        return self._push("pair_dots", (p, q, w), (rows, cols))

    def rows(self, x: Node, a: int, b: Optional[int] = None) -> Node:
        """Row ``a`` (counted from the end when negative), or rows ``a:b``,
        of a matrix or vector, as a view; backward adds into those rows."""
        index = int(a) if b is None else slice(int(a), int(b))
        n = x.value.shape[0] if x.value.ndim else 0
        if not (-n <= a < n if b is None else 0 <= a < b <= n):
            raise ShapeError(f"rows {index} of {x.shape}")
        return self._push("rows", (x,), index)

    def concat(self, *xs: Node) -> Node:
        """Vectors end to end, or matrices with equal rows side by side."""
        if len({x.value.shape[:-1] for x in xs}) != 1 \
                or not 1 <= xs[0].value.ndim <= 2:
            raise ShapeError(f"concat needs vectors or matrices with equal "
                             f"rows, got {[x.shape for x in xs]}")
        return self._push("concat", tuple(xs))

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add: {a.shape} vs {b.shape}")
        return self._push("add", (a, b))

    def sub(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"sub: {a.shape} vs {b.shape}")
        return self._push("sub", (a, b))

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"mul: {a.shape} vs {b.shape}")
        return self._push("mul", (a, b))

    def scale(self, x: Node, c: float) -> Node:
        return self._push("scale", (x,), float(c))

    def tanh(self, x: Node) -> Node:
        return self._push("tanh", (x,))

    def sigmoid(self, x: Node) -> Node:
        return self._push("sigmoid", (x,))

    def abs(self, x: Node) -> Node:
        return self._push("abs", (x,))

    def sum(self, x: Node) -> Node:
        return self._push("sum", (x,))

    def inner(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape or a.value.ndim != 1:
            raise ShapeError(f"inner: {a.shape} vs {b.shape}")
        return self._push("inner", (a, b))

    def matvec(self, w: Node, x: Node) -> Node:
        if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
            raise ShapeError(f"matvec: {w.shape} vs {x.shape}")
        return self._push("matvec", (w, x))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(f"matmul: {a.shape} vs {b.shape}")
        return self._push("matmul", (a, b))

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        if w.value.ndim != 2 or x.value.shape[-1] != w.value.shape[0] \
                or b.value.shape != (w.value.shape[1],):
            raise ShapeError(f"affine: x{x.shape} w{w.shape} b{b.shape}")
        return self._push("affine", (x, w, b))

    def transpose(self, x: Node) -> Node:
        if x.value.ndim != 2:
            raise ShapeError(f"transpose needs a matrix, got {x.shape}")
        return self._push("transpose", (x,))

    def softplus(self, x: Node) -> Node:
        return self._push("softplus", (x,))

    def lstm(self, x: Node, w: Node, b: Node, reverse: bool = False) -> Node:
        """One LSTM sweep over the rows of ``x`` (n, dim_x), last row first
        when ``reverse``; the (n, dim_h) hidden states as one node.  ``w``
        is (dim_x + dim_h, 4*dim_h), gate order input/forget/output/
        candidate; the initial state is zero."""
        if x.value.ndim != 2 or w.value.ndim != 2 or w.value.shape[1] % 4 \
                or w.value.shape[0] != x.value.shape[1] + w.value.shape[1] // 4 \
                or b.value.shape != (w.value.shape[1],):
            raise ShapeError(f"lstm: x{x.shape} w{w.shape} b{b.shape}")
        return self._push("lstm", (x, w, b), {"reverse": bool(reverse)})

    def apply(self, op: str, parents: Sequence[Node], ctx=None) -> Node:
        """Entry point for ops installed with ``register_op``."""
        return self._push(op, tuple(parents), ctx)

    # engine
    def recompute(self) -> None:
        """Re-run forward in construction order (parameters may have changed
        in place)."""
        for node in self.nodes:
            node.value = np.asarray(_FORWARD[node.op](node), dtype=float)

    def zero_grad(self) -> None:
        for node in self.nodes:
            node.grad = None

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(param) into each parameter store touched by
        the graph.  ``loss`` must be scalar.

        A parameter node's ``grad`` is its store's accumulator itself, so
        the backward rules add straight into ``ParameterStore.grads``."""
        if loss.value.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        self.zero_grad()
        for node in self._param_cache.values():
            store, pname = node.ctx
            node.grad = store.grads[pname]
        accumulate(loss, np.asarray(1.0))
        for node in reversed(self.nodes):
            if node.grad is not None:
                _BACKWARD[node.op](node)


def gathered_affine(g: Graph,
                    blocks: Sequence[tuple[Node, Optional[Sequence[int]]]],
                    w: Node, b: Node) -> Node:
    """``affine(concat(x1[ids1], x2[ids2], ...), w, b)`` without
    building the concatenation.

    Each block ``(x, ids)`` is projected through its own contiguous row
    slice of ``w`` once per row of ``x`` (the bias joins the first block's
    projection), and one ``gather_sum`` adds the projections' rows picked
    by ``ids`` (taken whole when ``ids`` is None).  A part then costs one
    row addition per block rather than a row of the full product."""
    projected, start = [], 0
    for x, ids in blocks:
        stop = start + x.value.shape[-1]
        w_k = g.rows(w, start, stop)
        projected.append((g.matmul(x, w_k) if projected
                          else g.affine(x, w_k, b), ids))
        start = stop
    if start != w.value.shape[0]:
        raise ShapeError(f"gathered_affine: blocks cover {start} of "
                         f"{w.value.shape[0]} rows of w")
    return g.gather_sum(projected)


def add_mlp(store: ParameterStore, name: str, in_dim: int, width: int,
            rng: np.random.Generator, out: bool = True) -> None:
    """Register the two tanh layers ``mlp`` reads, ``name.w1``/``b1`` from
    ``in_dim`` to ``width`` and ``name.w2``/``b2``, then, with ``out``, the
    final score vector ``name.w``."""
    store.add(f"{name}.w1", (in_dim, width), rng=rng)
    store.add(f"{name}.b1", (width,))
    store.add(f"{name}.w2", (width, width), rng=rng)
    store.add(f"{name}.b2", (width,))
    if out:
        store.add(f"{name}.w", (width,), rng=rng, init="normal")


def mlp(g: Graph, store: ParameterStore, name: str, blocks) -> Node:
    """Two tanh layers of the ``add_mlp`` parameters ``name``.  The first
    is ``gathered_affine`` over the ``blocks``, one output row per row they
    gather; a single node for ``blocks`` goes through a plain ``affine``."""
    p = lambda s: g.param(store, f"{name}.{s}")
    first = (g.affine(blocks, p("w1"), p("b1")) if isinstance(blocks, Node)
             else gathered_affine(g, blocks, p("w1"), p("b1")))
    return g.tanh(g.affine(g.tanh(first), p("w2"), p("b2")))


class ParameterStore:
    """Named dense parameters with gradient accumulators.

    Single writer during training; inference readers never mutate.

    ``saved`` maps names to arrays read from a checkpoint: ``add`` takes
    such an array as the parameter's value, uncopied, and draws no initial
    value; a saved array of another shape than the one asked for raises
    ``ShapeError``.
    """

    def __init__(self, saved: Optional[Mapping[str, np.ndarray]] = None):
        self.values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._saved = dict(saved or {})

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """One gradient accumulator per parameter, each made (zero) when
        the accumulators are first asked for after the parameter was added.
        A store used only for inference never holds them."""
        if len(self._grads) != len(self.values):
            for name, value in self.values.items():
                if name not in self._grads:
                    self._grads[name] = np.zeros_like(value)
        return self._grads

    def add(self, name: str, shape: tuple[int, ...],
            rng: Optional[np.random.Generator] = None,
            init: str = "auto") -> np.ndarray:
        """``init`` is "zeros", "normal" (0.1 times a standard normal draw)
        or "auto": zeros for vectors, and for matrices uniform in
        ±sqrt(6 / (fan_in + fan_out))."""
        if name in self.values:
            raise ValueError(f"duplicate parameter {name!r}")
        saved = self._saved.pop(name, None)
        if saved is not None:
            if saved.shape != tuple(shape):
                raise ShapeError(f"parameter {name!r} has shape "
                                 f"{saved.shape}, expected {tuple(shape)}")
            value = np.asarray(saved, dtype=float)
        elif init == "zeros" or (init == "auto" and len(shape) == 1):
            value = np.zeros(shape)
        elif rng is None:
            raise ValueError(f"{name}: random init needs an rng")
        elif init == "normal":
            value = 0.1 * rng.standard_normal(shape)
        else:
            bound = math.sqrt(6.0 / (shape[0] + shape[-1]))
            value = rng.uniform(-bound, bound, size=shape)
        self.values[name] = value
        return value

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def grad_norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(g, g)) for g in self.grads.values()))


def clip_and_step(store: ParameterStore, learning_rate: float, clip: float,
                  l2: float) -> None:
    """Clip the global gradient norm to ``clip``, take an SGD step with the
    ℓ2 penalty folded in, and zero the accumulators.

    The ℓ2 penalty is λ‖w‖² with gradient 2λw (note the factor 2), λ being
    ``l2``.  Same update as ``w -= lr * (clip(g) + 2λw)``, done in place.
    A NaN or inf entry makes the norm non-finite, so only then are the
    parameters scanned to name the offending one."""
    norm = store.grad_norm()
    if not math.isfinite(norm):
        for name, g in store.grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(
                    f"non-finite gradient for parameter {name!r}")
    scale = clip / norm if norm > clip > 0 else 1.0
    decay = 1.0 - 2.0 * learning_rate * l2
    for name, w in store.values.items():
        g = store.grads[name]
        g *= learning_rate * scale
        w *= decay
        w -= g
        g.fill(0.0)


def collect_grads(store: ParameterStore) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in store.grads.items()}


def grad_check(graph: Graph, loss: Node, store: ParameterStore,
               tolerance: float = 1e-4, eps: float = 1e-4,
               max_entries: int = 40,
               rng: Optional[np.random.Generator] = None) -> dict:
    """Compare analytic gradients against central finite differences.

    Returns {"pass": bool, "max_rel_err": float, "per_param": {...}}.  The
    graph is recomputable, so parameters are perturbed in place and restored.
    """
    rng = rng or np.random.default_rng(0)
    store.zero_grads()
    graph.recompute()
    graph.backward(loss)
    analytic = collect_grads(store)
    store.zero_grads()

    per_param: dict[str, float] = {}
    worst = 0.0
    for name, w in store.values.items():
        flat = w.reshape(-1)
        idxs = np.arange(flat.size)
        if flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        err = 0.0
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            graph.recompute()
            up = float(loss.value)
            flat[i] = keep - eps
            graph.recompute()
            down = float(loss.value)
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            an = analytic[name].reshape(-1)[i]
            rel = abs(an - fd) / max(1.0, abs(an), abs(fd))
            err = max(err, rel)
        per_param[name] = err
        worst = max(worst, err)
    graph.recompute()
    return {"pass": worst < tolerance, "max_rel_err": worst, "per_param": per_param}
