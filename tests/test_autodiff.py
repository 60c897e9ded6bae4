import math
from functools import reduce

import numpy as np
import pytest

from spandep import autodiff
from spandep.autodiff import (
    Graph,
    NonFiniteGradient,
    ParameterStore,
    ShapeError,
    clip_and_step,
    collect_grads,
    grad_check,
)

from spandep.inference.semimarkov import nll_node

from .oracles import (
    backward_with_copies,
    lstm_by_cells,
    lstm_cell,
    lstm_sweep,
    lstm_sweep_backward,
)

RNG = np.random.default_rng(7)


def test_forward_affine_identity():
    g = Graph()
    store = ParameterStore()
    store.add("w", (3, 3), init="zeros")[...] = np.eye(3)
    store.add("b", (3,))
    v = g.input([1.0, -2.0, 0.5])
    out = g.affine(v, g.param(store, "w"), g.param(store, "b"))
    np.testing.assert_array_equal(out.value, [1.0, -2.0, 0.5])


def test_forward_tanh_zero():
    g = Graph()
    out = g.tanh(g.input(np.zeros(4)))
    np.testing.assert_array_equal(out.value, np.zeros(4))


def test_forward_inner():
    g = Graph()
    out = g.inner(g.input([1.0, 2.0]), g.input([3.0, 4.0]))
    assert float(out.value) == 11.0


def test_backward_inner_linearity():
    store = ParameterStore()
    store.add("w", (3,), init="zeros")[...] = np.array([0.5, -1.0, 2.0])
    g = Graph()
    x = g.input([1.0, 2.0, 3.0])
    loss = g.inner(g.param(store, "w"), x)
    g.backward(loss)
    np.testing.assert_array_equal(store.grads["w"], [1.0, 2.0, 3.0])


def test_backward_tanh_at_zero():
    store = ParameterStore()
    store.add("u", (2,), init="zeros")
    g = Graph()
    loss = g.sum(g.tanh(g.param(store, "u")))
    g.backward(loss)
    np.testing.assert_allclose(store.grads["u"], np.ones(2))


def test_shape_mismatch_names_shapes():
    g = Graph()
    with pytest.raises(ShapeError, match=r"\(2,\)"):
        g.add(g.input([1.0, 2.0]), g.input([1.0, 2.0, 3.0]))


def test_non_scalar_loss_rejected():
    g = Graph()
    v = g.input([1.0, 2.0])
    with pytest.raises(ShapeError):
        g.backward(v)


def test_forward_pure_bitwise():
    store = ParameterStore()
    store.add("w", (4, 4), rng=RNG)
    store.add("b", (4,))
    g = Graph()
    out = g.sum(g.tanh(g.affine(g.input(RNG.normal(size=4)),
                                g.param(store, "w"), g.param(store, "b"))))
    first = float(out.value)
    g.recompute()
    assert float(out.value) == first  # bitwise
    g.recompute()
    assert float(out.value) == first


def _random_three_layer(store, g, rng):
    x = g.input(rng.normal(size=5))
    h1 = g.tanh(g.affine(x, g.param(store, "w1"), g.param(store, "b1")))
    h2 = g.sigmoid(g.affine(h1, g.param(store, "w2"), g.param(store, "b2")))
    return g.inner(h2, g.param(store, "v"))


def test_grad_check_three_layer_graph():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    store.add("w1", (5, 6), rng=rng)
    store.add("b1", (6,), init="zeros")[...] = rng.normal(size=6) * 0.1
    store.add("w2", (6, 4), rng=rng)
    store.add("b2", (4,), init="zeros")[...] = rng.normal(size=4) * 0.1
    store.add("v", (4,), init="zeros")[...] = rng.normal(size=4)
    g = Graph()
    loss = _random_three_layer(store, g, rng)
    report = grad_check(g, loss, store, tolerance=1e-4)
    assert report["pass"], report


def test_grad_check_linear_graph_tight():
    store = ParameterStore()
    store.add("w", (4,), init="zeros")[...] = np.array([1.0, -2.0, 3.0, 0.25])
    g = Graph()
    loss = g.inner(g.param(store, "w"), g.input([2.0, 0.5, -1.0, 4.0]))
    report = grad_check(g, loss, store, tolerance=1e-10)
    assert report["pass"]
    assert report["max_rel_err"] < 1e-10


def test_grad_check_detects_corrupted_backward():
    # mutation test: break tanh's backward rule and the FD check must fail
    store = ParameterStore()
    store.add("u", (3,), init="zeros")[...] = np.array([0.3, -0.7, 1.1])
    g = Graph()
    loss = g.sum(g.tanh(g.param(store, "u")))
    good = autodiff._BACKWARD["tanh"]

    def bad(node):
        autodiff.accumulate(node.parents[0], node.grad * 0.5)

    autodiff._BACKWARD["tanh"] = bad
    try:
        report = grad_check(g, loss, store, tolerance=1e-4)
    finally:
        autodiff._BACKWARD["tanh"] = good
    assert not report["pass"]


# Per registered op, small graphs whose output the op makes.  Each builder
# takes the graph and ``p``, which adds a random parameter of a shape.  Some
# feed one node to the op twice, or an op's output rather than a parameter.
OP_GRAPHS = {
    "gather_sum": [
        lambda g, p: g.gather_sum([(p(4, 3), [3, 0, 3]), (p(2, 3), [1, 1, 0]),
                                   (p(3, 3), None)]),
        lambda g, p: g.gather_sum([(p(4, 3), [2, -1, 2, 0])]),
        lambda g, p: g.gather_sum([(g.transpose(p(3, 4)), [1, 3, 1]),
                                   (g.tanh(p(5, 3)), [0, 2, 2])]),
    ],
    "pair_dots": [lambda g, p: g.pair_dots(p(3, 2), p(4, 2), p(2),
                                           [2, 0, 2, 1], [3, 3, 0, 1])],
    "rows": [lambda g, p: g.rows(p(4, 3), 2),
             lambda g, p: g.rows(p(4, 3), -1),
             lambda g, p: g.rows(p(4, 3), 1, 3),
             lambda g, p: g.rows(g.tanh(p(4, 3)), 1)],
    "concat": [lambda g, p: g.concat(p(2), p(3), p(1)),
               lambda g, p: g.concat(p(3, 2), p(3, 1)),
               lambda g, p: g.concat(h := g.tanh(p(3, 2)), g.scale(h, 2.0))],
    "add": [lambda g, p: g.add(p(2, 3), p(2, 3)),
            lambda g, p: g.add(m := p(2, 3), m)],
    "sub": [lambda g, p: g.sub(p(2, 3), p(2, 3)),
            lambda g, p: g.sub(m := p(2, 3), g.scale(m, 0.25))],
    "mul": [lambda g, p: g.mul(p(2, 3), p(2, 3)),
            lambda g, p: g.mul(m := p(2, 3), m)],
    "scale": [lambda g, p: g.scale(p(3), -1.5),
              lambda g, p: g.scale(p(2, 3), 0.25)],
    "tanh": [lambda g, p: g.tanh(p(2, 3))],
    "sigmoid": [lambda g, p: g.sigmoid(p(2, 3))],
    "abs": [lambda g, p: g.abs(p(2, 3)),
            lambda g, p: g.abs(g.rows(p(4, 3), 1, 3))],
    "sum": [lambda g, p: g.sum(p(2, 3))],
    "inner": [lambda g, p: g.inner(p(3), p(3))],
    "matvec": [lambda g, p: g.matvec(p(2, 3), p(3))],
    "matmul": [lambda g, p: g.matmul(p(2, 3), p(3, 2)),
               lambda g, p: g.matmul(g.transpose(m := p(3, 4)), m)],
    "affine": [lambda g, p: g.affine(p(3), p(3, 2), p(2)),
               lambda g, p: g.affine(p(4, 3), p(3, 2), p(2))],
    "transpose": [lambda g, p: g.transpose(p(2, 3)),
                  lambda g, p: g.transpose(g.mul(m := p(3, 4), m))],
    "softplus": [lambda g, p: g.softplus(p(2, 3))],
    # the second stacks two layers, so the outer one adds its x gradient
    # into an op node, and shares one weight and bias between directions
    "bilstm": [lambda g, p: g.bilstm(p(3, 2), p(4, 8), p(8), p(4, 8), p(8)),
               lambda g, p: g.bilstm(
                   g.bilstm(p(3, 2), p(4, 8), p(8), p(4, 8), p(8)),
                   w := p(6, 8), b := p(8), w, b)],
    "semimarkov_nll": [lambda g, p: nll_node(
        g, p(5), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)], 3, [1, 4])],
}


@pytest.mark.parametrize("op", sorted(set(autodiff._FORWARD)
                                      - {"input", "param"}))
def test_every_registered_op_passes_grad_check(op):
    """An op without a graph here fails, so none lands unchecked.

    The graphs' leaves are store parameters, so the check reads their
    gradients from the store: a backward rule that gives a parameter node
    a gradient of its own, not the store's accumulator bound through
    ``accumulate`` or ``accumulate_product``, fails.  The check leaves
    every accumulator stale, and a second backward pass must then give the
    dense reference's gradients bit for bit, so each accumulator is zeroed
    or overwritten when it is bound."""
    assert set(autodiff._FORWARD) == set(autodiff._BACKWARD)
    assert op in OP_GRAPHS, f"no gradient check for op {op!r}"
    for k, build in enumerate(OP_GRAPHS[op]):
        rng = np.random.default_rng(k)
        store = ParameterStore()
        g = Graph()

        def p(*shape):
            name = f"p{len(store.values)}"
            store.add(name, shape, init="zeros")[...] = rng.normal(size=shape)
            return g.param(store, name)

        out = build(g, p)
        assert out.op == op
        loss = g.sum(g.mul(out, g.input(rng.normal(size=out.shape))))
        report = grad_check(g, loss, store, tolerance=1e-6)
        assert report["pass"], (k, report)
        assert not store._touched and set(store._grads) == set(store.values)
        g.backward(loss)
        got = collect_grads(store)
        store.zero_grads()
        backward_with_copies(g, loss)
        for name, want in collect_grads(store).items():
            assert np.array_equal(got[name], want), (k, name)


def test_rows_and_concat_check_shapes():
    g = Graph()
    m = g.input(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(g.rows(m, -1).value, [4.0, 5.0])
    np.testing.assert_array_equal(g.rows(m, 1, 3).value, [[2.0, 3.0],
                                                          [4.0, 5.0]])
    for args in ((3,), (-4,), (2, 2), (0, 4), (-1, 2)):
        with pytest.raises(ShapeError, match=r"\(3, 2\)"):
            g.rows(m, *args)
    with pytest.raises(ShapeError):
        g.rows(g.input(1.0), 0)
    v, cube = g.input(np.ones(2)), g.input(np.ones((3, 2, 2)))
    assert g.concat(v, v).shape == (4,) and g.concat(m, m).shape == (3, 4)
    for xs in ((m, v), (m, g.input(np.ones((2, 2)))), (cube, cube), ()):
        with pytest.raises(ShapeError):
            g.concat(*xs)


def test_transpose_values():
    g = Graph()
    m = g.input([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(g.transpose(m).value, [[1.0, 3.0], [2.0, 4.0]])


def test_lookup_accumulates_repeats():
    store = ParameterStore()
    store.add("m", (3, 2), init="zeros")[...] = [[1.0, 2.0], [3.0, 4.0],
                                                 [5.0, 6.0]]
    g = Graph()
    picked = g.gather_sum([(g.param(store, "m"), [2, 0, 2])])
    np.testing.assert_array_equal(picked.value, [[5.0, 6.0], [1.0, 2.0],
                                                 [5.0, 6.0]])
    g.backward(g.sum(picked))
    np.testing.assert_array_equal(store.grads["m"],
                                  [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def _lookup_backward(table_grad, idx, upstream):
    """A one-block ``gather_sum``'s backward rule alone: ``upstream`` flows
    back through the rows ``idx`` of a table whose gradient starts as
    ``table_grad``."""
    g = Graph()
    table = g.input(np.zeros_like(table_grad))
    table.grad = table_grad.copy()
    rows = g.gather_sum([(table, idx)])
    rows.grad = upstream
    autodiff._BACKWARD["gather_sum"](rows)
    return table.grad


def _add_at(table_grad, idx, upstream):
    out = table_grad.copy()
    np.add.at(out, np.asarray(idx, dtype=int), upstream)
    return out


@pytest.mark.parametrize("n_rows, idx, preset", [
    (6, [4, 1, 4, 0, 5, 1, 4], False),   # repeated and unsorted
    (4, [2] * 9, False),                 # all equal
    (3, [], False),                      # empty
    (1, [0, 0, 0], False),               # one-row table
    (5, [3, 0, 3, 3, 1], True),          # gradient already holds values
    (4, [-1, 3, 0, -1, -4], False),      # negative indices, as in numpy
])
def test_lookup_backward_matches_add_at(n_rows, idx, preset):
    rng = np.random.default_rng(len(idx) + n_rows)
    start = rng.uniform(0.5, 2.0, size=(n_rows, 3)) if preset \
        else np.zeros((n_rows, 3))
    # positive terms when the table's gradient is preset: the preset value
    # then joins each row's sum last rather than first, and a sum of
    # positive terms stays within a few ulps under reordering
    upstream = rng.uniform(0.5, 2.0, size=(len(idx), 3)) if preset \
        else rng.normal(size=(len(idx), 3))
    got = _lookup_backward(start, idx, upstream)
    np.testing.assert_allclose(got, _add_at(start, idx, upstream),
                               rtol=1e-15, atol=0)


def test_lookup_backward_keeps_inf_in_its_row():
    upstream = np.ones((4, 3))
    upstream[1, 2] = np.inf            # gathered row 1 is table row 3
    got = _lookup_backward(np.zeros((4, 3)), [1, 3, 1, 0], upstream)
    assert got[3, 2] == np.inf
    assert np.isfinite(np.delete(got, 3, axis=0)).all()
    assert np.isfinite(got[3, :2]).all()
    np.testing.assert_array_equal(
        got, _add_at(np.zeros((4, 3)), [1, 3, 1, 0], upstream))


def test_softplus_stable_at_extremes():
    g = Graph()
    out = g.softplus(g.input([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(out.value))
    assert out.value[0] == 0.0
    assert out.value[1] == pytest.approx(math.log(2.0))
    assert out.value[2] == 800.0


def test_abs_subgradient_zero_at_zero():
    store = ParameterStore()
    store.add("u", (3,), init="zeros")[...] = np.array([0.0, -2.0, 3.0])
    g = Graph()
    loss = g.sum(g.abs(g.param(store, "u")))
    g.backward(loss)
    np.testing.assert_array_equal(store.grads["u"], [0.0, -1.0, 1.0])


def test_lstm_cell_grad_check():
    rng = np.random.default_rng(5)
    store = ParameterStore()
    dx, dh = 3, 4
    store.add("w", (dx + dh, 4 * dh), rng=rng)
    store.add("b", (4 * dh,))
    store.add("v", (dh,), init="zeros")[...] = rng.normal(size=dh)
    g = Graph()
    x = g.input(rng.normal(size=dx))
    h0 = g.input(np.zeros(dh))
    c0 = g.input(np.zeros(dh))
    h1, c1 = lstm_cell(g, x, h0, c0, g.param(store, "w"), g.param(store, "b"))
    h2, _ = lstm_cell(g, x, h1, c1, g.param(store, "w"), g.param(store, "b"))
    loss = g.inner(h2, g.param(store, "v"))
    report = grad_check(g, loss, store, tolerance=1e-4)
    assert report["pass"], report


BILSTM_ARGS = ("x", "w_fw", "b_fw", "w_bw", "b_bw")


def _bilstm_problem(n, seed, dx=5, dh=4):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add("x", (n, dx), init="zeros")[...] = rng.normal(size=(n, dx))
    for d in ("fw", "bw"):
        # weights large enough that some gates saturate
        store.add(f"w_{d}", (dx + dh, 4 * dh), init="zeros")[...] = \
            2.0 * rng.normal(size=(dx + dh, 4 * dh))
        store.add(f"b_{d}", (4 * dh,), init="zeros")[...] = \
            rng.normal(size=4 * dh)
    store.add("v", (n, 2 * dh), init="zeros")[...] = \
        rng.normal(size=(n, 2 * dh))
    return store


def _sweeps(store, dh):
    """Both directions by ``lstm_sweep`` and ``lstm_sweep_backward``, the
    states' gradient being ``v``:
    {direction: (states, cache, (dx, dw, db))}."""
    x, v = store.values["x"], store.values["v"]
    got = {}
    for k, d in enumerate(("fw", "bw")):
        w, b = store.values[f"w_{d}"], store.values[f"b_{d}"]
        out, cache = lstm_sweep(x, w, b, reverse=k == 1)
        got[d] = out, cache, lstm_sweep_backward(
            x, w, out, cache, v[:, k * dh:(k + 1) * dh], reverse=k == 1)
    return got


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 6])
def test_fused_lstm_matches_cells(n, reverse):
    """``bilstm`` against the directions built from ``lstm_cell`` steps,
    the loss reading only the states of the backward direction when
    ``reverse``, else the forward one.  The other direction's parameters
    get a zero gradient from the op, and none from the cells."""
    k, dh = int(reverse), 4
    idle = {"w_fw", "b_fw"} if reverse else {"w_bw", "b_bw"}
    grads = []
    for fused in (True, False):
        store = _bilstm_problem(n, seed=n + 10 * reverse)
        store.values["v"][:, (1 - k) * dh:(2 - k) * dh] = 0.0
        g = Graph()
        x, w_fw, b_fw, w_bw, b_bw = (g.param(store, a) for a in BILSTM_ARGS)
        v = g.param(store, "v")
        if fused:
            hs = g.bilstm(x, w_fw, b_fw, w_bw, b_bw)
            assert [node.op for node in g.nodes].count("bilstm") == 1
            states = hs.value
            g.backward(g.sum(g.mul(hs, v)))
            assert idle <= store._touched
        else:
            rows = [g.rows(x, t) for t in range(n)]
            cells = [g.concat(f, b) for f, b in zip(
                lstm_by_cells(g, rows, w_fw, b_fw),
                lstm_by_cells(g, rows, w_bw, b_bw, reverse=True))]
            np.testing.assert_allclose(states, [h.value for h in cells],
                                       rtol=0, atol=1e-12)
            g.backward(reduce(g.add, [g.inner(h, g.rows(v, t))
                                      for t, h in enumerate(cells)]))
            assert not idle & store._touched
        grads.append(store.grads)
    for name in BILSTM_ARGS + ("v",):
        assert np.any(grads[1][name]) != (name in idle), name
        np.testing.assert_allclose(grads[0][name], grads[1][name],
                                   rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 6, 13])
@pytest.mark.parametrize("dx, dh", [(5, 4), (200, 100)])
def test_fused_lstm_bitwise_matches_sweep(n, reverse, dx, dh):
    """``bilstm``'s backward direction when ``reverse``, else its forward
    one, against ``lstm_sweep`` and ``lstm_sweep_backward`` bit for bit:
    the states, the backward caches and the gradients of w and b.  The x
    gradient is the backward direction's plus the forward one's."""
    store = _bilstm_problem(n, seed=n + 10 * reverse, dx=dx, dh=dh)
    g = Graph()
    hs = g.bilstm(*(g.param(store, a) for a in BILSTM_ARGS))
    g.backward(g.sum(g.mul(hs, g.param(store, "v"))))
    want = _sweeps(store, dh)
    k, d = (1, "bw") if reverse else (0, "fw")
    out, cache, (_, dw, db) = want[d]
    assert hs.value[:, k * dh:(k + 1) * dh].tobytes() == out.tobytes()
    steps = slice(None, None, -1 if reverse else 1)
    for got, ref in zip(hs.ctx["cache"], cache, strict=True):
        assert got[steps, k].tobytes() == ref.tobytes()
    assert store.grads[f"w_{d}"].tobytes() == dw.tobytes()
    assert store.grads[f"b_{d}"].tobytes() == db.tobytes()
    dx_sum = want["bw"][2][0] + want["fw"][2][0]
    assert store.grads["x"].tobytes() == dx_sum.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("d", ["fw", "bw"])
def test_bilstm_inf_recurrent_weight_matches_sweep(d):
    """An inf in one direction's recurrent weights meets the zero initial
    state (0 * inf is NaN): the states, caches and gradients have the NaN
    and inf entries of ``lstm_sweep`` and its backward sweep, and the step
    refuses the gradient."""
    store = _bilstm_problem(6, seed=3)
    store.values[f"w_{d}"][5 + 1, 2] = np.inf  # recurrent row 1
    g = Graph()
    hs = g.bilstm(*(g.param(store, a) for a in BILSTM_ARGS))
    g.backward(g.sum(g.mul(hs, g.param(store, "v"))))
    want = _sweeps(store, 4)
    assert np.isnan(hs.value).any()
    for k, d in enumerate(("fw", "bw")):
        out, cache, (_, dw, db) = want[d]
        np.testing.assert_array_equal(hs.value[:, 4 * k:4 * k + 4], out)
        for got, ref in zip(hs.ctx["cache"], cache, strict=True):
            np.testing.assert_array_equal(got[::1 - 2 * k, k], ref)
        np.testing.assert_array_equal(store.grads[f"w_{d}"], dw)
        np.testing.assert_array_equal(store.grads[f"b_{d}"], db)
    np.testing.assert_array_equal(store.grads["x"],
                                  want["bw"][2][0] + want["fw"][2][0])
    with pytest.raises(NonFiniteGradient):
        clip_and_step(store, 0.1, 1.0, 1e-6)


def test_fused_lstm_shape_checked():
    g = Graph()
    x = g.input(np.zeros((3, 5)))
    w, b = g.input(np.zeros((8, 12))), g.input(np.zeros(12))
    assert g.bilstm(x, w, b, w, b).shape == (3, 6)
    for args in ((g.input(np.zeros(5)), w, b, w, b),
                 (x, g.input(np.zeros((9, 12))), b, w, b),
                 (x, w, g.input(np.zeros(4)), w, b),
                 (x, w, b, g.input(np.zeros((7, 8))), b),
                 (x, w, b, w, g.input(np.zeros(4)))):
        with pytest.raises(ShapeError, match="bilstm"):
            g.bilstm(*args)


def test_param_node_shared_within_graph():
    store = ParameterStore()
    store.add("w", (2,), init="zeros")[...] = np.array([1.0, 2.0])
    g = Graph()
    a = g.param(store, "w")
    b = g.param(store, "w")
    assert a is b
    loss = g.sum(g.add(a, b))
    g.backward(loss)
    np.testing.assert_array_equal(store.grads["w"], [2.0, 2.0])


# --- parameter store and SGD ------------------------------------------------

def test_glorot_bound():
    store = ParameterStore()
    w = store.add("w", (30, 20), rng=np.random.default_rng(0))
    bound = math.sqrt(6.0 / 50.0)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.5 * bound  # actually spreads out


def test_bias_init_zero():
    store = ParameterStore()
    b = store.add("b", (7,))
    np.testing.assert_array_equal(b, np.zeros(7))


def test_grads_made_on_first_use():
    store = ParameterStore()
    store.add("a", (2, 3), rng=np.random.default_rng(2))
    assert store._grads == {}
    assert list(store.grads) == ["a"] and not store.grads["a"].any()
    store.add("b", (4,))
    assert list(store.grads) == ["a", "b"]
    assert store.grads["b"].shape == (4,)


def test_duplicate_name_rejected():
    store = ParameterStore()
    store.add("w", (2,))
    with pytest.raises(ValueError):
        store.add("w", (2,))


def test_clip_halves_gradients():
    store = ParameterStore()
    store.add("a", (2,), init="zeros")
    store.grads["a"][:] = [2.0, 0.0]  # norm 2, clip 1 -> halved
    clip_and_step(store, learning_rate=1.0, clip=1.0, l2=0.0)
    np.testing.assert_allclose(store.values["a"], [-1.0, 0.0])
    np.testing.assert_array_equal(store.grads["a"], np.zeros(2))


def test_clip_norm_invariant():
    store = ParameterStore()
    rng = np.random.default_rng(9)
    store.add("a", (5,), init="zeros")
    store.add("b", (3, 3), init="zeros")
    store.grads["a"][:] = rng.normal(size=5) * 10
    store.grads["b"][:] = rng.normal(size=(3, 3)) * 10
    norm_before = store.grad_norm()
    assert norm_before > 1.0
    # step with lr 1: |delta w| equals the clipped gradient norm
    clip_and_step(store, 1.0, 1.0, 0.0)
    moved = math.sqrt(sum(float((v * v).sum()) for v in store.values.values()))
    assert moved <= 1.0 + 1e-12


def test_zero_grad_zero_l2_keeps_parameters():
    store = ParameterStore()
    store.add("w", (3,), init="zeros")[...] = np.array([1.0, -1.0, 2.0])
    clip_and_step(store, 0.33, 1.0, 0.0)
    np.testing.assert_array_equal(store.values["w"], [1.0, -1.0, 2.0])


def test_l2_step_closed_form():
    # w=1, grad 0, l2=1e-6, lr=0.33: w <- 1 - 0.33 * (2 * 1e-6 * 1)
    store = ParameterStore()
    store.add("w", (1,), init="zeros")[...] = np.array([1.0])
    clip_and_step(store, 0.33, 1.0, 1e-6)
    assert store.values["w"][0] == pytest.approx(1.0 - 0.33 * 2e-6, abs=1e-15)


def test_non_finite_gradient_names_parameter():
    store = ParameterStore()
    store.add("bad", (2,))
    store.grads["bad"][0] = np.nan
    with pytest.raises(NonFiniteGradient, match="bad"):
        clip_and_step(store, 0.1, 1.0, 1e-6)


def _reference_step(store, lr, clip, l2):
    """w - lr * (clip(g) + 2λw), written out from the definition."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in store.grads.values()))
    scale = clip / norm if norm > clip > 0 else 1.0
    return {k: w - lr * (scale * store.grads[k] + 2.0 * l2 * w)
            for k, w in store.values.items()}


@pytest.mark.parametrize("grad_scale", [0.05, 20.0])
def test_clip_and_step_matches_reference(grad_scale):
    rng = np.random.default_rng(31)
    store = ParameterStore()
    store.add("a", (4, 3), rng=rng)
    store.add("b", (5,), init="zeros")[...] = rng.normal(size=5)
    store.add("c", (2, 2, 2), init="zeros")[...] = rng.normal(size=(2, 2, 2))
    for g in store.grads.values():
        g[...] = grad_scale * rng.normal(size=g.shape)
    clipped = store.grad_norm() > 1.0
    assert clipped == (grad_scale > 1.0)
    want = _reference_step(store, 0.3, 1.0, 1e-3)
    clip_and_step(store, 0.3, 1.0, 1e-3)
    for k, w in want.items():
        np.testing.assert_allclose(store.values[k], w, rtol=0, atol=1e-14,
                                   err_msg=k)
        assert not np.any(store.grads[k])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_names_parameter_among_finite(bad):
    store = ParameterStore()
    store.add("fine", (3,), init="zeros")[...] = np.ones(3)
    store.add("broken", (2, 2), init="zeros")
    store.add("after", (2,), init="zeros")[...] = np.ones(2)
    store.grads["fine"][:] = 1e3
    store.grads["broken"][1, 0] = bad
    before = {k: v.copy() for k, v in store.values.items()}
    with pytest.raises(NonFiniteGradient, match="'broken'"):
        clip_and_step(store, 0.1, 1.0, 1e-6)
    for k, v in before.items():
        np.testing.assert_array_equal(store.values[k], v)


def test_untouched_parameter_is_only_decayed():
    # "idle" feeds a concat slice whose gradient is all zero, so no
    # gradient reaches it and the step only decays it
    store = ParameterStore()
    store.add("used", (3,), init="zeros")[...] = [1.0, -2.0, 0.5]
    store.add("idle", (2,), init="zeros")[...] = [3.0, -0.25]
    idle = store.values["idle"].copy()
    g = Graph()
    scores = g.concat(g.param(store, "used"), g.tanh(g.param(store, "idle")))
    g.backward(g.inner(scores, g.input([1.0, 2.0, -1.0, 0.0, 0.0])))
    assert store._touched == {"used"}
    clip_and_step(store, 0.3, 1.0, 0.01)
    np.testing.assert_array_equal(store.values["idle"],
                                  idle * (1.0 - 2.0 * 0.3 * 0.01))
    assert "idle" not in store._grads


def test_grads_read_zero_after_a_step():
    store = ParameterStore()
    store.add("a", (2, 3), rng=np.random.default_rng(4))
    store.add("b", (3,), init="zeros")[...] = [0.5, -1.0, 2.0]
    g = Graph()
    g.backward(g.sum(g.affine(g.input([1.0, -1.0]), g.param(store, "a"),
                              g.param(store, "b"))))
    clip_and_step(store, 0.1, 1.0, 1e-3)
    # the step leaves the accumulators it applied stale, not refilled
    assert not store._touched and store._grads["a"].any()
    grads = store.grads
    assert list(grads) == ["a", "b"]
    assert not any(g.any() for g in grads.values())


def test_backward_passes_before_a_step_add_up():
    # the second graph's first gradient for "m", copied or bound by a row
    # rule, must add to what the first graph left, not overwrite it
    store = ParameterStore()
    store.add("m", (3, 2), rng=np.random.default_rng(5))
    upstream = np.arange(6.0).reshape(3, 2)
    tanh, rows = (lambda g, m: g.tanh(m)), (lambda g, m: g.rows(m, 0, 3))
    for pick in (tanh, rows, tanh):
        g = Graph()
        g.backward(g.sum(g.mul(pick(g, g.param(store, "m")),
                               g.input(upstream))))
    m = store.values["m"]
    np.testing.assert_allclose(store.grads["m"],
                               2 * upstream * (1.0 - np.tanh(m) ** 2)
                               + upstream)


@pytest.mark.parametrize("pick, n_rows", [
    (lambda g, m: g.rows(m, 1, 3), 2),
    (lambda g, m: g.gather_sum([(m, [2, 0, 2])]), 3),
], ids=["rows", "gather_sum"])
def test_stale_accumulator_bound_by_a_row_rule_starts_from_zero(pick, n_rows):
    # ``rows`` and ``gather_sum`` write into rows of the accumulator they
    # bind, so a stale one must be zeroed first
    rng = np.random.default_rng(8)
    values = rng.normal(size=(4, 3))
    upstream = rng.normal(size=(n_rows, 3))

    def backward(store):
        g = Graph()
        picked = pick(g, g.param(store, "m"))
        g.backward(g.sum(g.mul(picked, g.input(upstream))))
        return store.grads["m"].copy()

    fresh = ParameterStore()
    fresh.add("m", (4, 3), init="zeros")[...] = values
    want = backward(fresh)
    stepped = ParameterStore()
    stepped.add("m", (4, 3), init="zeros")[...] = values
    backward(stepped)
    clip_and_step(stepped, 0.1, 1.0, 0.0)
    assert stepped._grads["m"].any()
    stepped.values["m"][...] = values
    np.testing.assert_array_equal(backward(stepped), want)


# Graphs whose backward passes start parameter gradients with a product:
# ``affine`` (``w``'s from ``x.T @ g``) and ``bilstm`` (each direction's
# ``w`` from one GEMM over its steps).  The first uses ``w`` and ``b`` once,
# the second twice.  ``x`` is an input: a bilstm adds two products into it.
PRODUCT_GRAPHS = {
    "affine": [
        lambda g, p, x: g.affine(x, p("w"), p("b")),
        lambda g, p, x: g.affine(g.tanh(g.affine(x, p("w"), p("b"))),
                                 p("w"), p("b"))],
    "bilstm": [
        lambda g, p, x: g.bilstm(x, p("w"), p("b"), p("w2"), p("b2")),
        lambda g, p, x: g.bilstm(x, p("w"), p("b"), p("w"), p("b"))],
}


def _product_store(op):
    rng = np.random.default_rng(0)
    store = ParameterStore()
    # affine: a square w, so it can be used twice; bilstm: dim_x 3, dim_h 1
    shapes = ({"w": (3, 3), "b": (3,)} if op == "affine" else
              {"w": (4, 4), "b": (4,), "w2": (4, 4), "b2": (4,)})
    for name, shape in shapes.items():
        store.add(name, shape, init="zeros")[...] = rng.normal(size=shape)
    return store


def _product_loss(store, build, seed=0):
    rng = np.random.default_rng(seed)
    g = Graph()
    out = build(g, lambda name: g.param(store, name),
                g.input(rng.normal(size=(4, 3))))
    return g, g.sum(g.mul(out, g.input(rng.normal(size=out.shape))))


@pytest.mark.parametrize("op", sorted(PRODUCT_GRAPHS))
def test_first_product_overwrites_a_stale_accumulator(op):
    """A step leaves last step's gradients in the accumulators; the first
    product of the next backward pass is written over them, giving the
    dense reference's gradients bit for bit."""
    store = _product_store(op)
    build = PRODUCT_GRAPHS[op][0]
    values = {k: v.copy() for k, v in store.values.items()}
    g, loss = _product_loss(store, build)
    g.backward(loss)
    clip_and_step(store, 0.1, 1.0, 0.0)
    assert store._grads["w"].any() and not store._touched
    for k, v in values.items():
        store.values[k][...] = v
    g, loss = _product_loss(store, build)
    g.backward(loss)
    got = collect_grads(store)
    store.zero_grads()
    backward_with_copies(g, loss)
    for name, want in collect_grads(store).items():
        assert np.array_equal(got[name], want), name


@pytest.mark.parametrize("op", sorted(PRODUCT_GRAPHS))
def test_products_add_up(op):
    """A parameter used twice in one graph adds its second product to its
    first, and so do two backward passes before one step: each bit for bit
    the dense reference's gradients.  (The reference sums a graph's products
    before adding them to the store, so each pass uses ``w`` once.)"""
    once, twice = PRODUCT_GRAPHS[op]
    for graphs in ([twice], [once, once]):
        store = _product_store(op)
        losses = [_product_loss(store, build, seed)
                  for seed, build in enumerate(graphs)]
        for g, loss in losses:
            g.backward(loss)
        got = collect_grads(store)
        store.zero_grads()
        for g, loss in losses:
            backward_with_copies(g, loss)
        assert got["w"].any()
        for name, want in collect_grads(store).items():
            assert np.array_equal(got[name], want), (len(graphs), name)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_inf_behind_a_zero_concat_slice_gives_no_gradient():
    """An inf score whose coefficient is 0 makes the loss NaN (0 * inf), but
    the backward pass skips the subtree behind its slice: the parameter
    there is untouched and the step goes through, where the dense
    reference backward gives it a NaN gradient."""
    store = ParameterStore()
    store.add("a", (2,), init="zeros")[...] = [1.0, 2.0]
    store.add("b", (2,), init="zeros")[...] = [1.0, 1.0]
    g = Graph()
    scores = g.concat(g.param(store, "a"),
                      g.mul(g.param(store, "b"), g.input([np.inf, 1.0])))
    loss = g.inner(scores, g.input([1.0, -1.0, 0.0, 0.0]))
    assert np.isnan(loss.value)
    g.backward(loss)
    assert store._touched == {"a"}
    np.testing.assert_array_equal(store.grads["a"], [1.0, -1.0])
    assert not store.grads["b"].any()
    store.zero_grads()
    backward_with_copies(g, loss)
    assert np.isnan(store.grads["b"][0])


# --- gather_sum and pair_dots ----------------------------------------------

GATHER_CASES = {
    # (rows of each block's matrix, ids per block; None takes it whole)
    "repeated-unsorted": [(4, [3, 1, 3, 0, 2, 3]), (5, [0, 4, 4, 1, 0, 2])],
    "whole-block": [(3, [2, 0, 2, 1]), (4, None), (2, [1, 1, 0, 1])],
    "whole-first": [(5, None), (2, [1, 0, 0, 1, 1])],
    "negative": [(4, [-1, 3, 0, -4]), (4, [0, 1, 2, 3])],
    "no-rows": [(3, []), (2, [])],
    "one-block": [(6, [5, 0, 5])],
}


def _gather_problem(case, seed=0):
    rng = np.random.default_rng(seed)
    blocks = GATHER_CASES[case]
    k = len(blocks[0][1]) if blocks[0][1] is not None else blocks[0][0]
    return ([rng.normal(size=(n, 3)) for n, _ in blocks],
            [ids for _, ids in blocks], rng.normal(size=(k, 3)))


@pytest.mark.parametrize("case", sorted(GATHER_CASES))
def test_gather_sum_matches_lookup_add(case):
    """Against numpy: the value sums ``m[ids]`` over the blocks, and each
    block's gradient adds the upstream rows at ``ids``."""
    mats, ids, upstream = _gather_problem(case)
    g = Graph()
    xs = [g.input(m) for m in mats]
    out = g.gather_sum(list(zip(xs, ids)))
    g.backward(g.sum(g.mul(out, g.input(upstream))))
    picked = [m if i is None else m[np.asarray(i, dtype=int)]
              for m, i in zip(mats, ids)]
    np.testing.assert_allclose(out.value, reduce(np.add, picked),
                               rtol=1e-12, atol=0)
    for x, m, i in zip(xs, mats, ids):
        ref = upstream if i is None else _add_at(np.zeros_like(m), i, upstream)
        np.testing.assert_allclose(x.grad, ref, rtol=1e-12, atol=0)


def test_gather_sum_is_one_node_and_checks_shapes():
    g = Graph()
    a, b = g.input(np.ones((3, 2))), g.input(np.ones((2, 2)))
    before = len(g.nodes)
    out = g.gather_sum([(a, [0, 2]), (b, None)])
    assert len(g.nodes) == before + 1 and out.shape == (2, 2)
    with pytest.raises(ShapeError):
        g.gather_sum([(a, [0, 1, 2]), (b, None)])
    with pytest.raises(ShapeError):
        g.gather_sum([(a, [0]), (g.input(np.ones((2, 3))), [1])])
    with pytest.raises(ShapeError):
        g.gather_sum([(g.input(np.ones(3)), [0])])
    with pytest.raises(ShapeError):
        g.gather_sum([(g.input(np.ones((2, 2, 2))), [0])])


def test_gather_sum_keeps_inf_in_its_row():
    g = Graph()
    a = g.input(np.ones((4, 3)))
    b = g.input(np.ones((2, 3)))
    out = g.gather_sum([(a, [1, 3, 1, 0]), (b, [0, 1, 1, 0])])
    out.grad = np.ones((4, 3))
    out.grad[1, 2] = np.inf            # row 1 gathers a[3] and b[1]
    autodiff._BACKWARD["gather_sum"](out)
    assert a.grad[3, 2] == np.inf and b.grad[1, 2] == np.inf
    assert np.isfinite(np.delete(a.grad, 3, axis=0)).all()
    assert np.isfinite(b.grad[0]).all() and np.isfinite(b.grad[1, :2]).all()


def test_grad_check_gather_sum_and_pair_dots():
    rng = np.random.default_rng(23)
    store = ParameterStore()
    store.add("x", (4, 3), rng=rng)
    store.add("y", (3, 3), rng=rng)
    store.add("p", (3, 3), rng=rng)
    store.add("w", (3,), init="zeros")[...] = rng.normal(size=3)
    g = Graph()
    x, y = g.param(store, "x"), g.param(store, "y")
    summed = g.gather_sum([(x, [3, 0, 3, 1, 2]), (y, [2, 2, 0, 1, 0]),
                           (g.input(rng.normal(size=(5, 3))), None)])
    q = g.tanh(summed)
    dots = g.pair_dots(g.param(store, "p"), q, g.param(store, "w"),
                       [2, 0, 2, 1, 2], [4, 4, 0, 3, 4])
    loss = g.add(g.sum(g.mul(dots, dots)), g.sum(g.tanh(summed)))
    report = grad_check(g, loss, store, tolerance=1e-6, max_entries=12)
    assert report["pass"], report


PAIR_CASES = {
    # (rows of p, rows of q, rows, cols)
    "repeated-unsorted": (3, 4, [2, 0, 2, 1, 2, 0], [3, 3, 0, 1, 3, 2]),
    "some-pairs-only": (3, 3, [0, 0, 1], [2, 0, 2]),
    "one-q-row": (4, 1, [3, 0, 1], [0, 0, 0]),
    "no-pairs": (3, 2, [], []),
    "negative": (3, 4, [-1, 0, 2], [3, -4, -1]),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pair_dots_matches_gathered_rows(case):
    n_p, n_q, rows, cols = PAIR_CASES[case]
    rng = np.random.default_rng(n_p + n_q)
    pv, qv, wv = (rng.normal(size=(n_p, 3)), rng.normal(size=(n_q, 3)),
                  rng.normal(size=3))
    upstream = rng.normal(size=len(rows))

    def run(fused):
        g = Graph()
        p, q, w = g.input(pv), g.input(qv), g.input(wv)
        if fused:
            out = g.pair_dots(p, q, w, rows, cols)
        else:
            out = g.matvec(g.mul(g.gather_sum([(p, rows)]),
                                 g.gather_sum([(q, cols)])), w)
        g.backward(g.inner(out, g.input(upstream)))
        return out.value, [p.grad, q.grad, w.grad]

    value, grads = run(True)
    ref_value, ref_grads = run(False)
    assert value.shape == (len(rows),)
    np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=1e-15)
    for got, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_pair_dots_checks_pairs():
    g = Graph()
    p, q, w = g.input(np.ones((3, 2))), g.input(np.ones((2, 2))), \
        g.input(np.ones(2))
    with pytest.raises(ShapeError):
        g.pair_dots(p, q, w, [0, 1], [0])
    with pytest.raises(ShapeError):
        g.pair_dots(p, q, w, [[0, 1]], [[0, 1]])
    with pytest.raises(ShapeError):
        g.pair_dots(p, q, g.input(np.ones(3)), [0], [0])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_pair_dots_unpaired_overflow_stays_out():
    # p[0] . q[0] overflows, but no pair reads it: values and gradients of
    # the pairs that exist stay finite
    g = Graph()
    p = g.input([[1e200], [1.0]])
    q = g.input([[1e200], [1.0]])
    out = g.pair_dots(p, q, g.input([1.0]), [0, 1], [1, 0])
    np.testing.assert_array_equal(out.value, [1e200, 1e200])
    g.backward(g.sum(out))
    for x in (p, q):
        np.testing.assert_array_equal(x.grad, [[1.0], [1e200]])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_pair_dots_non_finite_gradient_is_caught():
    # an inf reaching one pair's score leaves every other row of p and q
    # finite, and the step refuses the non-finite gradient
    store = ParameterStore()
    store.add("p", (3, 2), init="zeros")[...] = np.ones((3, 2))
    store.add("q", (2, 2), init="zeros")[...] = np.ones((2, 2))
    store.add("w", (2,), init="zeros")[...] = np.ones(2)
    g = Graph()
    out = g.pair_dots(g.param(store, "p"), g.param(store, "q"),
                      g.param(store, "w"), [0, 1, 2], [1, 0, 0])
    g.backward(g.inner(out, g.input([1.0, np.inf, 1.0])))
    assert np.isfinite(np.delete(store.grads["p"], 1, axis=0)).all()
    assert np.isfinite(store.grads["q"][1]).all()
    assert not np.isfinite(store.grads["p"][1]).all()
    with pytest.raises(NonFiniteGradient):
        clip_and_step(store, 0.1, 1.0, 1e-6)
