"""Alternating-directions dual decomposition over binary factor graphs.

Each iteration solves one quadratic subproblem per factor (closed-form
projections, or the min-norm-point routine for segmentation factors),
averages the factor copies into a consensus vector, and takes a dual step.
Unary scores are split evenly among the factors touching each variable.

Before iterating, the tree-shaped part of the graph is eliminated exactly
(``peel``), so the loop only sees the cyclic core: the frame side and the
arcs out of the target's first token.  A graph that peels away completely
is solved with no iteration at all.

Exactness is certified at every iteration by comparing a feasible
thresholded assignment against the dual bound; when the relaxation stays
fractional the solver falls back to a small branch-and-bound over clamped
subgraphs of the core and, past that budget, to a constructive rounding
repair.  Status is "exact" only with a certificate or a completed search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .factor_graph import FactorGraph, Infeasible, Rows, clamp_graph
from .peel import peel
from .projections import (
    SemiMarkovProjector,
    project_implication,
    project_pair,
    project_xor_rows,
)
from .semimarkov import semi_markov_map


@dataclass(frozen=True)
class SolverOptions:
    """The solver's constants: iteration budgets, tolerance, initial step."""

    max_iter: int = 1000
    tol: float = 1e-6
    rho: float = 0.05
    branch_nodes: int = 64
    node_max_iter: int = 300


@dataclass
class SolveResult:
    assignment: frozenset
    active: np.ndarray
    objective: float
    dual: float
    status: str
    iterations: int


class _PaddedGroup:
    """XOR factors padded into (F, K) matrices."""

    def __init__(self, rows: Rows):
        sizes = rows.sizes
        nf, k = rows.count, int(sizes.max())
        row = rows.row
        col = np.arange(len(rows.var)) - rows.ptr[row]
        self.idx = np.zeros((nf, k), dtype=int)
        self.mask = np.zeros((nf, k), dtype=bool)
        self.neg = np.zeros((nf, k), dtype=bool)
        self.idx[row, col] = rows.var
        self.mask[row, col] = True
        self.neg[row, col] = rows.neg
        self.lam = np.zeros((nf, k))
        self.u = np.zeros((nf, k))

    def solve(self, p, omega, rho):
        z = p[self.idx] + (omega[self.idx] + self.lam) / rho
        self.u = project_xor_rows(z, self.neg, self.mask)

    def eta(self, omega):
        return omega[self.idx] + self.lam

    def scatter(self, acc):
        np.add.at(acc, self.idx[self.mask], self.u[self.mask])

    def lam_step(self, p, rho):
        d = self.u - p[self.idx]
        d[~self.mask] = 0.0
        self.lam -= rho * d
        return float((d * d).sum())

    def dual_contrib(self, omega):
        eta = self.eta(omega)
        lit = np.where(self.neg, -eta, eta)
        base = (eta * self.neg).sum(axis=1)
        lit = np.where(self.mask, lit, -np.inf)
        return float((base + lit.max(axis=1)).sum())


class _EdgeGroup:
    """Implication or Pair factors as parallel index arrays."""

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 score: Optional[np.ndarray] = None):
        self.a, self.b, self.c = a, b, score
        self.lam_a = np.zeros(len(a))
        self.lam_b = np.zeros(len(a))
        self.ua = np.zeros(len(a))
        self.ub = np.zeros(len(a))
        self.pair = score is not None

    def solve(self, p, omega, rho):
        za = p[self.a] + (omega[self.a] + self.lam_a) / rho
        zb = p[self.b] + (omega[self.b] + self.lam_b) / rho
        if self.pair:
            self.ua, self.ub = project_pair(za, zb, self.c / rho)
        else:
            self.ua, self.ub = project_implication(za, zb)

    def scatter(self, acc):
        np.add.at(acc, self.a, self.ua)
        np.add.at(acc, self.b, self.ub)

    def lam_step(self, p, rho):
        da = self.ua - p[self.a]
        db = self.ub - p[self.b]
        self.lam_a -= rho * da
        self.lam_b -= rho * db
        return float((da * da).sum() + (db * db).sum())

    def dual_contrib(self, omega):
        ea = omega[self.a] + self.lam_a
        eb = omega[self.b] + self.lam_b
        if self.pair:
            both = ea + eb + self.c
        else:
            both = ea + eb
        best = np.maximum(np.maximum(0.0, eb), both)
        if self.pair:
            best = np.maximum(best, ea)
        return float(best.sum())


class _SemiGroup:
    def __init__(self, factors):
        self.factors = factors
        self.vars = [np.array(f.vars, dtype=int) for f in factors]
        self.proj = [SemiMarkovProjector(f.spans, f.n, f.max_len)
                     for f in factors]
        self.lam = [np.zeros(len(f.vars)) for f in factors]
        self.u = [np.zeros(len(f.vars)) for f in factors]

    def solve(self, p, omega, rho):
        for i, f in enumerate(self.factors):
            z = p[self.vars[i]] + (omega[self.vars[i]] + self.lam[i]) / rho
            self.u[i] = self.proj[i].project(z)

    def scatter(self, acc):
        for i in range(len(self.factors)):
            np.add.at(acc, self.vars[i], self.u[i])

    def lam_step(self, p, rho):
        total = 0.0
        for i in range(len(self.factors)):
            d = self.u[i] - p[self.vars[i]]
            self.lam[i] -= rho * d
            total += float(d @ d)
        return total

    def dual_contrib(self, omega):
        total = 0.0
        for i, f in enumerate(self.factors):
            eta = omega[self.vars[i]] + self.lam[i]
            _, val = semi_markov_map(f.spans, eta, f.n, f.max_len,
                                     table=self.proj[i].table)
            total += val
        return total


class _LoopState:
    def __init__(self, graph: FactorGraph, options: SolverOptions):
        self.graph = graph
        self.options = options
        deg = graph.degrees()
        self.deg = deg
        self.constrained = deg > 0
        self.free = ~self.constrained
        self.groups = []
        if graph.xor.count:
            self.groups.append(_PaddedGroup(graph.xor))
        if len(graph.imp_a):
            self.groups.append(_EdgeGroup(graph.imp_a, graph.imp_b))
        if len(graph.pair_a):
            self.groups.append(_EdgeGroup(graph.pair_a, graph.pair_b,
                                          graph.pair_score))
        if graph.semis:
            self.groups.append(_SemiGroup(graph.semis))
        self.nslots = int(deg.sum())
        safe_deg = np.maximum(deg, 1)
        self.omega = graph.theta / safe_deg
        self.p = np.full(graph.nvars, 0.5)
        self.p[self.free] = (graph.theta[self.free] > 0).astype(float)
        self.dual_history: list[float] = []

    def free_value(self) -> float:
        th = self.graph.theta[self.free]
        return float(th[th > 0].sum())

    def dual_bound(self) -> float:
        total = self.graph.offset + self.free_value()
        for g in self.groups:
            total += g.dual_contrib(self.omega)
        return total

    def threshold_assignment(self) -> np.ndarray:
        active = self.p > 0.5
        active[self.free] = self.graph.theta[self.free] > 0
        return active

    def run(self):
        """Returns (best feasible assignment or None, its objective, dual
        bound, iterations, certified_exact)."""
        graph, opt = self.graph, self.options
        if self.nslots == 0:
            active = self.threshold_assignment()
            return active, graph.objective(active), graph.objective(active), 0, True

        rho = opt.rho
        best_primal = -np.inf
        best_active: Optional[np.ndarray] = None
        best_dual = np.inf
        scale = np.sqrt(max(self.nslots, 1))
        it = 0
        for it in range(1, opt.max_iter + 1):
            for g in self.groups:
                g.solve(self.p, self.omega, rho)
            acc = np.zeros(graph.nvars)
            for g in self.groups:
                g.scatter(acc)
            p_old = self.p
            p_new = acc / np.maximum(self.deg, 1)
            p_new[self.free] = p_old[self.free]
            self.p = p_new
            r_sq = 0.0
            for g in self.groups:
                r_sq += g.lam_step(p_new, rho)
            s_sq = float((self.deg * (p_new - p_old) ** 2).sum()) * rho * rho

            active = self.threshold_assignment()
            if graph.check_assignment(active):
                val = graph.objective(active)
                if val > best_primal:
                    best_primal, best_active = val, active
            dual = self.dual_bound()
            self.dual_history.append(dual)
            best_dual = min(best_dual, dual)
            if best_active is not None and best_primal >= best_dual - opt.tol:
                return best_active, best_primal, best_dual, it, True
            if max(r_sq, s_sq) <= (opt.tol * scale) ** 2:
                break
            if it % 10 == 0:
                if r_sq > 100.0 * s_sq and rho < 1e3:
                    rho *= 2.0
                elif s_sq > 100.0 * r_sq and rho > 1e-4:
                    rho /= 2.0

        if not np.isfinite(best_dual):
            best_dual = self.dual_bound()
        return best_active, best_primal, best_dual, it, False


def _rounding_repair(graph: FactorGraph, p: np.ndarray) -> np.ndarray:
    """Build a feasible assignment guided by the relaxed solution: satisfy
    XOR factors by their strongest literal, segmentation factors by a MAP
    rerun over still-free variables, then absorb leftovers greedily."""
    decisions: dict[int, bool] = {}
    rounds = graph.nvars + graph.xor.count + len(graph.semis) + 8
    for _ in range(rounds):
        cr = clamp_graph(graph, decisions)
        g = cr.graph
        inv = cr.free.tolist()
        if g.xor.count:
            vars_, negs = g.xor.lists()[0]
            lits = np.array([p[inv[v]] for v in vars_])
            lits = np.where(negs, 1.0 - lits, lits)
            for j in np.argsort(-lits):
                attempt = dict(decisions)
                attempt[inv[vars_[j]]] = not negs[j]
                try:
                    clamp_graph(graph, attempt)
                except Infeasible:
                    continue
                decisions = attempt
                break
            else:
                raise Infeasible("no satisfiable literal during rounding")
            continue
        if g.semis:
            f = g.semis[0]
            chosen, _ = semi_markov_map(f.spans, g.theta[list(f.vars)],
                                        f.n, f.max_len)
            on = {f.vars[k] for k in chosen}
            for v in f.vars:
                decisions[inv[v]] = v in on
            continue
        # only implications/pairs remain: threshold, then force chains closed
        active = g.theta > 0
        imps = list(zip(g.imp_a.tolist(), g.imp_b.tolist()))
        for _ in range(len(imps) + 1):
            moved = False
            for a, b in imps:
                if active[a] and not active[b]:
                    active[b] = True
                    moved = True
            if not moved:
                break
        return cr.lift(active)
    raise Infeasible("rounding repair failed to terminate")


def _most_fractional(p: np.ndarray, constrained: np.ndarray) -> int:
    frac = np.where(constrained, np.abs(p - 0.5), np.inf)
    return int(np.argmin(frac))


def ad3_solve(graph: FactorGraph,
              fixed: Optional[dict] = None) -> SolveResult:
    """MAP inference via dual decomposition with exactness certificates.

    ``fixed`` pins variables of ``graph`` before solving; the returned
    assignment and objective still refer to the original graph.  The
    iterations, the search and the rounding run on the core left by
    ``peel``.
    """
    opt = SolverOptions()
    cr = clamp_graph(graph, fixed or {})
    peeled = peel(cr.graph)
    state = _LoopState(peeled.core, opt)
    active, primal, dual, iters, exact = state.run()

    if not exact and state.constrained.any():
        # branch and bound on the most fractional variable
        node_opt = replace(opt, max_iter=opt.node_max_iter)
        budget = [opt.branch_nodes]
        incumbent = [primal, active]

        def descend(fixed: dict) -> bool:
            """Explore the subtree pinning ``fixed`` (state.graph ids).
            Returns True when exhausted rather than cut off by the budget."""
            if budget[0] <= 0:
                return False
            budget[0] -= 1
            try:
                node = clamp_graph(state.graph, fixed)
            except Infeasible:
                return True
            st = _LoopState(node.graph, node_opt)
            a, _, dub, _, ex = st.run()
            if a is not None:
                lifted = node.lift(a)
                got = state.graph.objective(lifted)
                if got > incumbent[0] or incumbent[1] is None:
                    incumbent[0], incumbent[1] = got, lifted
            if dub <= incumbent[0] + opt.tol or ex or not st.constrained.any():
                return True
            v_new = _most_fractional(st.p, st.constrained)
            first = st.p[v_new] >= 0.5
            done = True
            for b in (first, not first):
                child = dict(node.forced)
                child[int(node.free[v_new])] = bool(b)
                done = descend(child) and done
            return done

        v0 = _most_fractional(state.p, state.constrained)
        first = state.p[v0] >= 0.5
        complete = True
        for b in (first, not first):
            complete = descend({v0: bool(b)}) and complete
        primal, active = incumbent
        if active is not None and (complete or primal >= dual - opt.tol):
            exact = True
        if active is None:
            active = _rounding_repair(state.graph, state.p)
            primal = state.graph.objective(active)

    full = cr.lift(peeled.lift(active))
    objective = graph.objective(full)
    labels = frozenset(graph.labels[v] for v in np.flatnonzero(full))
    return SolveResult(assignment=labels, active=full, objective=objective,
                       dual=dual, status="exact" if exact else "rounded",
                       iterations=iters)
