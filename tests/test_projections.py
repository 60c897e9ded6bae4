import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from spandep.inference.projections import (
    SemiMarkovProjector,
    project_implication,
    project_pair,
    project_simplex_rows,
    project_xor_rows,
)

from .oracles import enumerate_segmentations, project_pair_by_candidates

RNG = np.random.default_rng(17)


def qp_oracle(z, constraints, bounds):
    res = minimize(lambda u: 0.5 * np.sum((u - z) ** 2), np.full(len(z), 0.5),
                   jac=lambda u: u - z, bounds=bounds, constraints=constraints,
                   method="SLSQP", options={"ftol": 1e-12, "maxiter": 200})
    assert res.success, res
    return res.x


def test_simplex_projection_random_vs_qp():
    for _ in range(25):
        k = int(RNG.integers(2, 7))
        z = RNG.normal(scale=3, size=k)
        got = project_simplex_rows(z[None, :])[0]
        want = qp_oracle(z, [{"type": "eq", "fun": lambda u: u.sum() - 1}],
                         [(0, None)] * k)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_simplex_projection_batch_equals_loop():
    z = RNG.normal(scale=2, size=(8, 5))
    batch = project_simplex_rows(z)
    for r in range(8):
        np.testing.assert_allclose(batch[r], project_simplex_rows(z[r][None])[0])


def test_xor_with_negation_vs_enumeration_qp():
    for _ in range(25):
        k = int(RNG.integers(2, 6))
        z = RNG.normal(scale=2, size=k)
        neg = RNG.random(k) < 0.5
        sign = np.where(neg, -1.0, 1.0)
        const = neg.astype(float)
        # sum of literals = 1 with literal_i = neg ? 1-u_i : u_i
        want = qp_oracle(
            z, [{"type": "eq", "fun": lambda u: const.sum() + sign @ u - 1}],
            [(0, 1)] * k)
        got = project_xor_rows(z[None, :], neg[None, :],
                               np.ones((1, k), dtype=bool))[0]
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_implication_vs_qp():
    for _ in range(40):
        z = RNG.normal(scale=2, size=2)
        want = qp_oracle(z, [{"type": "ineq", "fun": lambda u: u[1] - u[0]}],
                         [(0, 1)] * 2)
        ua, ub = project_implication(np.array([z[0]]), np.array([z[1]]))
        np.testing.assert_allclose([ua[0], ub[0]], want, atol=1e-6)


def pair_oracle(za, zb, gamma):
    # distribution over the 4 configurations; marginals u, both-on v
    best, bobj = None, np.inf
    # parametrize q(11)=v; q(10)=ua-v; q(01)=ub-v; q(00)=1-ua-ub+v
    def obj(x):
        ua, ub, v = x
        return 0.5 * (ua - za) ** 2 + 0.5 * (ub - zb) ** 2 - gamma * v
    cons = [{"type": "ineq", "fun": lambda x: x[2]},
            {"type": "ineq", "fun": lambda x: x[0] - x[2]},
            {"type": "ineq", "fun": lambda x: x[1] - x[2]},
            {"type": "ineq", "fun": lambda x: 1 - x[0] - x[1] + x[2]}]
    for start in itertools.product([0.2, 0.8], repeat=3):
        res = minimize(obj, np.array(start), bounds=[(0, 1)] * 3,
                       constraints=cons, method="SLSQP",
                       options={"ftol": 1e-12, "maxiter": 300})
        if res.success and res.fun < bobj:
            best, bobj = res.x, res.fun
    return best, bobj


def test_pair_vs_qp_both_signs():
    for _ in range(30):
        za, zb = RNG.normal(scale=1.5, size=2)
        gamma = float(RNG.normal(scale=2))
        ua, ub = project_pair(np.array([za]), np.array([zb]), np.array([gamma]))
        want, wobj = pair_oracle(za, zb, gamma)
        v = min(ua[0], ub[0]) if gamma >= 0 else max(0.0, ua[0] + ub[0] - 1)
        got_obj = 0.5 * (ua[0] - za) ** 2 + 0.5 * (ub[0] - zb) ** 2 - gamma * v
        assert got_obj == pytest.approx(wobj, abs=1e-6)
        np.testing.assert_allclose([ua[0], ub[0]], want[:2], atol=1e-4)


def _same_bits(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def test_pair_closed_form_equals_candidate_argmin():
    # random targets inside and well outside [0, 1], both signs of gamma
    rng = np.random.default_rng(29)
    for scale in (0.5, 1.5, 4.0):
        za, zb = rng.normal(0.5, scale, size=(2, 20000))
        gamma = rng.normal(scale=scale, size=20000)
        assert _same_bits(project_pair(za, zb, gamma),
                          project_pair_by_candidates(za, zb, gamma))


def test_pair_closed_form_on_boundaries():
    # gamma = 0, targets outside the box, and exact ties between the
    # closed form's cases: za + gamma == zb (bonus side against the tie)
    # and ca + cb == 1 (box point against the segment), in dyadic values
    # so that every sum is exact
    vals = np.array([-1.5, -0.25, 0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75,
                     1.0, 1.25, 2.0])
    za, zb, gamma = (x.ravel() for x in np.meshgrid(
        vals, vals, np.concatenate((-vals, [0.0, 0.125, -0.125])),
        indexing="ij"))
    assert ((za + gamma == zb) & (gamma > 0)).sum() > 10
    ca, cb = np.clip(za, 0, 1), np.clip(zb, 0, 1)
    assert ((ca + cb == 1) & (gamma < 0)).sum() > 20
    assert _same_bits(project_pair(za, zb, gamma),
                      project_pair_by_candidates(za, zb, gamma))


def _pair_objective_exact(ua, ub, za, zb, gamma):
    ua, ub, za, zb, gamma = map(Fraction, (ua, ub, za, zb, gamma))
    v = min(ua, ub) if gamma >= 0 else max(Fraction(0), ua + ub - 1)
    return (ua - za) ** 2 / 2 + (ub - zb) ** 2 / 2 - gamma * v


def test_pair_closed_form_is_the_exact_minimizer_on_rounding_ties():
    # with |gamma| far below the objective's magnitude the candidates'
    # objectives tie after rounding and the argmin may keep a worse one;
    # in exact arithmetic the closed form's point is never worse
    rng = np.random.default_rng(31)
    za = rng.uniform(-9, 9, size=5000)
    zb = rng.uniform(-9, 9, size=5000)
    gamma = rng.choice([-1, 1], size=5000) * 10.0 ** rng.uniform(-9, -7, 5000)
    got = project_pair(za, zb, gamma)
    want = project_pair_by_candidates(za, zb, gamma)
    differ = np.flatnonzero((got[0] != want[0]) | (got[1] != want[1]))
    assert len(differ) > 0
    for k in differ:
        args = (za[k], zb[k], gamma[k])
        assert _pair_objective_exact(got[0][k], got[1][k], *args) < \
            _pair_objective_exact(want[0][k], want[1][k], *args)


def test_pair_zero_score_is_box_projection():
    za = np.array([-0.5, 0.3, 1.7])
    zb = np.array([0.9, -2.0, 0.1])
    ua, ub = project_pair(za, zb, np.zeros(3))
    np.testing.assert_allclose(ua, np.clip(za, 0, 1))
    np.testing.assert_allclose(ub, np.clip(zb, 0, 1))


def _simplex_proj_ref(v):
    # independent textbook sort-based projection
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    tau = (css[rho] - 1) / (rho + 1)
    return np.maximum(v - tau, 0)


def segmentation_lp_oracle(z, spans, n):
    """Projection onto the hull via its vertex representation: projected
    gradient over the vertex-weight simplex."""
    verts = [np.zeros(len(spans))]
    for subset in enumerate_segmentations(spans, n):
        v = np.zeros(len(spans))
        v[list(subset)] = 1.0
        verts.append(v)
    verts = np.unique(np.array(verts), axis=0)
    k = len(verts)
    gram = verts @ verts.T
    lip = np.linalg.eigvalsh(gram)[-1] + 1e-9
    w = np.full(k, 1.0 / k)
    for _ in range(20000):
        grad = gram @ w - verts @ z
        w_new = _simplex_proj_ref(w - grad / lip)
        if np.abs(w_new - w).max() < 1e-12:
            w = w_new
            break
        w = w_new
    return w @ verts


def test_semimarkov_projection_vs_vertex_qp():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        spans = [(i, j) for i in range(n) for j in range(i, min(n, i + 2))]
        z = rng.normal(scale=1.5, size=len(spans))
        got = SemiMarkovProjector(spans, n).project(z)
        want = segmentation_lp_oracle(z, spans, n)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_semimarkov_projection_idempotent_on_vertex():
    spans = [(0, 0), (1, 2), (1, 1)]
    z = np.array([1.0, 1.0, 0.0])  # a feasible vertex already
    got = SemiMarkovProjector(spans, 3).project(z)
    np.testing.assert_allclose(got, z, atol=1e-9)


def test_semimarkov_projector_warm_start_consistent():
    rng = np.random.default_rng(5)
    n = 4
    spans = [(i, j) for i in range(n) for j in range(i, min(n, i + 2))]
    proj = SemiMarkovProjector(spans, n)
    for _ in range(10):
        z = rng.normal(scale=2, size=len(spans))
        warm = proj.project(z)
        cold = SemiMarkovProjector(spans, n).project(z)
        np.testing.assert_allclose(warm, cold, atol=1e-6)
