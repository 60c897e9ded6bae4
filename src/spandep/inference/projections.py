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


def project_implication(za: np.ndarray, zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a => b, i.e. the triangle conv{(0,0),(0,1),(1,1)}."""
    ca = np.clip(za, 0.0, 1.0)
    cb = np.clip(zb, 0.0, 1.0)
    ok = ca <= cb
    t = np.clip(0.5 * (za + zb), 0.0, 1.0)
    return np.where(ok, ca, t), np.where(ok, cb, t)


def project_pair(za: np.ndarray, zb: np.ndarray, gamma: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pair factor subproblem: min .5||u-z||^2 - gamma*v(u) over the local
    polytope, where v is the both-on marginal (min(u) for gamma >= 0, else
    max(0, ua+ub-1)).  The optimum is one of three closed-form candidates
    per sign case; the objective is strictly convex, so evaluating the
    candidates and keeping the best is exact.
    """
    za, zb, gamma = np.asarray(za, float), np.asarray(zb, float), np.asarray(gamma, float)
    pos = gamma >= 0

    # gamma >= 0 candidates: bonus on one side, or tie
    a1, b1 = np.clip(za + gamma, 0, 1), np.clip(zb, 0, 1)
    a2, b2 = np.clip(za, 0, 1), np.clip(zb + gamma, 0, 1)
    t = np.clip(0.5 * (za + zb + gamma), 0, 1)
    # gamma < 0 candidates: plain box, penalized interior, boundary segment
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


class SemiMarkovProjector:
    """Min-norm-point projection onto the convex hull of segmentation
    indicator vectors, warm-started across solver iterations.

    The linear oracle is the semi-Markov MAP; vertices are kept as index
    tuples with their indicator columns cached in ``self.basis``.
    """

    def __init__(self, spans, n: int):
        self.spans = tuple(spans)
        self.n = n
        self.m = len(self.spans)
        self.table = SpanTable(self.spans, n)
        self.vertices: list[tuple[int, ...]] = []
        self.basis = np.zeros((self.m, 0))
        self.mu = np.zeros(0)

    def _vertex(self, chosen) -> np.ndarray:
        v = np.zeros(self.m)
        v[list(chosen)] = 1.0
        return v

    def _add_vertex(self, chosen, col) -> None:
        self.vertices.append(tuple(chosen))
        self.basis = np.hstack([self.basis, col[:, None]])
        self.mu = np.append(self.mu, 0.0)

    def _drop(self, keep: np.ndarray) -> None:
        self.vertices = [v for v, k in zip(self.vertices, keep) if k]
        self.basis = self.basis[:, keep]
        self.mu = self.mu[keep]

    def _affine_min(self, z: np.ndarray) -> np.ndarray:
        """beta minimizing ||basis @ beta - z||^2 subject to sum(beta) = 1."""
        k = self.basis.shape[1]
        ata = self.basis.T @ self.basis
        rhs = np.concatenate([self.basis.T @ z, [1.0]])
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = ata
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        return sol[:k]

    def _minor_cycle(self, z: np.ndarray) -> None:
        """Optimize the convex weights over the current vertex set."""
        for _ in range(3 * len(self.vertices) + 10):
            beta = self._affine_min(z)
            if np.all(beta >= -1e-12):
                self.mu = np.maximum(beta, 0.0)
                s = self.mu.sum()
                if s > 0:
                    self.mu /= s
                return
            neg = beta < self.mu
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(neg, self.mu / (self.mu - beta), np.inf)
            theta = min(1.0, float(np.min(steps)))
            self.mu = (1.0 - theta) * self.mu + theta * beta
            self.mu[self.mu < 1e-12] = 0.0
            keep = self.mu > 0
            if not np.all(keep):
                self._drop(keep)

    def project(self, z: np.ndarray, tol: float = 1e-9, max_iter: int = 60
                ) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.m == 0:
            return np.zeros(0)
        if not self.vertices:
            chosen, _ = semi_markov_map(self.spans, z, self.n,
                                        table=self.table)
            self._add_vertex(chosen, self._vertex(chosen))
            self.mu[:] = 1.0
        # warm starts carry stale weights for the new target
        self._minor_cycle(z)

        for _ in range(max_iter):
            x = self.basis @ self.mu
            grad = x - z
            chosen, _ = semi_markov_map(self.spans, -grad, self.n,
                                        table=self.table)
            v = self._vertex(chosen)
            if grad @ x - grad @ v <= tol * (1.0 + abs(grad @ x)):
                break
            key = tuple(chosen)
            if key in self.vertices:
                break  # numerical stall; weights are already optimal over S
            self._add_vertex(chosen, v)
            self._minor_cycle(z)
        return self.basis @ self.mu
