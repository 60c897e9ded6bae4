"""Quadratic subproblems solved inside the dual-decomposition loop.

Each factor type needs argmin ||u - z||^2 over its local polytope (plus a
linear pair term for Pair factors).  XOR/Implication/Pair have closed
forms and are vectorized over batches of factors; the segmentation
factor is handled by Wolfe's min-norm-point algorithm using the semi-Markov
MAP as its linear oracle.

Batched inputs are padded matrices; pad cells are masked out and padded with
a very negative value so the simplex projection drives them to zero.
"""

from __future__ import annotations

import numpy as np

from .semimarkov import SpanTable, semi_markov_map

PAD = -1e12


def project_simplex_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto {u >= 0, sum u = 1}."""
    z = np.atleast_2d(z)
    nrow, k = z.shape
    s = -np.sort(-z, axis=1)
    css = np.cumsum(s, axis=1)
    ks = np.arange(1, k + 1)
    cond = s + (1.0 - css) / ks > 0
    # last index where cond holds; cond[:, 0] is always true
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(nrow), rho] - 1.0) / (rho + 1)
    return np.maximum(z - tau[:, None], 0.0)


def project_xor_rows(z: np.ndarray, neg: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Exactly-one over literals; ``neg`` marks negated literals, ``mask``
    marks real (non-pad) cells."""
    zlit = np.where(neg, 1.0 - z, z)
    zlit = np.where(mask, zlit, PAD)
    u = project_simplex_rows(zlit)
    u = np.where(neg, 1.0 - u, u)
    return np.where(mask, u, 0.0)


def _clip01(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, 0.0), 1.0)


def project_implication(za: np.ndarray, zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a => b, i.e. the triangle conv{(0,0),(0,1),(1,1)}."""
    ca = _clip01(za)
    cb = _clip01(zb)
    ok = ca <= cb
    t = _clip01(0.5 * (za + zb))
    return np.where(ok, ca, t), np.where(ok, cb, t)


def project_pair(za: np.ndarray, zb: np.ndarray, gamma: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pair factor subproblem: min .5||u-z||^2 - gamma*v(u) over the local
    polytope, where v is the both-on marginal (min(u) for gamma >= 0, else
    max(0, ua+ub-1)).

    For gamma >= 0 the bonus goes to the lower side when that side stays
    at most the other, else both meet at clip((za+zb+gamma)/2).  For
    gamma < 0 the clipped box point stands when it sums to at most 1, else
    the box point shifted by gamma when that sums to at least 1, else the
    projection onto the segment ua+ub = 1.
    """
    ca, cb = _clip01(za), _clip01(zb)
    sa, sb = _clip01(za + gamma), _clip01(zb + gamma)
    # gamma >= 0
    lower_a = sa <= cb
    lower_b = ~lower_a & (sb <= ca)
    t = _clip01(0.5 * (za + zb + gamma))
    pos_a = np.where(lower_a, sa, np.where(lower_b, ca, t))
    pos_b = np.where(lower_a, cb, np.where(lower_b, sb, t))
    # gamma < 0
    box = ca + cb <= 1.0
    shifted = ~box & (sa + sb >= 1.0)
    seg = _clip01(0.5 * (za - zb + 1.0))
    neg_a = np.where(box, ca, np.where(shifted, sa, seg))
    neg_b = np.where(box, cb, np.where(shifted, sb, 1.0 - seg))
    pos = gamma >= 0
    return np.where(pos, pos_a, neg_a), np.where(pos, pos_b, neg_b)


class SemiMarkovProjector:
    """Min-norm-point projection onto the convex hull of segmentation
    indicator vectors, warm-started across solver iterations.

    The linear oracle is the semi-Markov MAP.  Vertices are kept as index
    tuples, with their indicator columns in ``basis`` and the KKT matrix of
    the affine minimization over them (their Gram matrix, which holds
    integer overlap counts, bordered by ones) in ``kkt``.
    """

    def __init__(self, spans, n: int):
        self.spans = tuple(spans)
        self.n = n
        self.m = len(self.spans)
        self.table = SpanTable(self.spans, n)
        self.vertices: list[tuple[int, ...]] = []
        self.basis = np.zeros((self.m, 0))
        self.kkt = np.zeros((1, 1))
        self.mu = np.zeros(0)

    def _add_vertex(self, chosen: list, col: np.ndarray) -> None:
        k = len(self.vertices)
        kkt = np.ones((k + 2, k + 2))
        kkt[:k, :k] = self.kkt[:k, :k]
        overlap = self.basis[chosen].sum(axis=0)
        kkt[k, :k] = overlap
        kkt[:k, k] = overlap
        kkt[k, k] = len(chosen)
        kkt[k + 1, k + 1] = 0.0
        self.kkt = kkt
        self.vertices.append(tuple(chosen))
        self.basis = np.hstack([self.basis, col[:, None]])
        self.mu = np.append(self.mu, 0.0)

    def _drop(self, keep: np.ndarray) -> None:
        self.vertices = [v for v, k in zip(self.vertices, keep) if k]
        self.basis = self.basis[:, keep]
        rows = np.append(np.flatnonzero(keep), len(keep))
        self.kkt = self.kkt[np.ix_(rows, rows)]
        self.mu = self.mu[keep]

    def _affine_min(self, z: np.ndarray) -> np.ndarray:
        """beta minimizing ||basis @ beta - z||^2 subject to sum(beta) = 1."""
        k = len(self.vertices)
        rhs = np.empty(k + 1)
        rhs[:k] = self.basis.T @ z
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(self.kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(self.kkt, rhs, rcond=None)[0]
        return sol[:k]

    def _minor_cycle(self, z: np.ndarray) -> None:
        """Optimize the convex weights over the current vertex set."""
        for _ in range(3 * len(self.vertices) + 10):
            if len(self.vertices) == 1:
                self.mu = np.ones(1)
                return
            beta = self._affine_min(z)
            if (beta >= -1e-12).all():
                self.mu = np.maximum(beta, 0.0)
                s = self.mu.sum()
                if s > 0:
                    self.mu /= s
                return
            neg = beta < self.mu
            mu_neg = self.mu[neg]
            theta = min(1.0, float((mu_neg / (mu_neg - beta[neg])).min()))
            self.mu = (1.0 - theta) * self.mu + theta * beta
            self.mu[self.mu < 1e-12] = 0.0
            keep = self.mu > 0
            if not keep.all():
                self._drop(keep)

    def _vertex(self, z: np.ndarray) -> tuple[list, np.ndarray]:
        """The MAP segmentation under scores ``z`` and its indicator."""
        chosen, _ = semi_markov_map(self.spans, z, self.n, table=self.table)
        v = np.zeros(self.m)
        v[chosen] = 1.0
        return chosen, v

    def project(self, z: np.ndarray, tol: float = 1e-9, max_iter: int = 60
                ) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.m == 0:
            return np.zeros(0)
        if not self.vertices:
            self._add_vertex(*self._vertex(z))
        # warm starts carry stale weights for the new target
        self._minor_cycle(z)

        for _ in range(max_iter):
            x = self.basis @ self.mu
            grad = x - z
            chosen, v = self._vertex(-grad)
            gx = grad @ x
            if gx - grad @ v <= tol * (1.0 + abs(gx)):
                break
            if tuple(chosen) in self.vertices:
                break  # numerical stall; weights are already optimal over S
            self._add_vertex(chosen, v)
            self._minor_cycle(z)
        return self.basis @ self.mu
