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

from .factor_graph import FactorGraph, Infeasible, clamp_graph
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
    active: np.ndarray
    objective: float
    dual: float
    status: str
    iterations: int


class _LoopState:
    """The ADMM loop over one graph.  Every factor keeps its own copy of
    the variables it touches; the copies sit in one slot array, in factor
    order: the XOR literals row by row, the implications' ``a`` then ``b``
    ends, the pairs' ``a`` then ``b`` ends, then each segmentation's
    variables.  ``slots`` holds the variable of each copy and ``lam`` its
    dual, so one gather gives every factor its target and one ``bincount``
    sums the copies of each variable, in slot order."""

    def __init__(self, graph: FactorGraph, options: SolverOptions):
        self.graph = graph
        self.options = options
        deg = graph.degrees()
        self.deg = deg
        self.constrained = deg > 0
        self.free = ~self.constrained
        self.nslots = int(deg.sum())
        self.safe_deg = np.maximum(deg, 1)
        self.omega = graph.theta / self.safe_deg
        # free variables stay at 0 or 1, so ``p > 0.5`` sets each by the
        # sign of its score
        self.p = np.full(graph.nvars, 0.5)
        self.p[self.free] = (graph.theta[self.free] > 0).astype(float)
        self.dual_history: list[float] = []
        if self.nslots:
            self._lay_out_slots()

    def _lay_out_slots(self) -> None:
        g = self.graph
        th = g.theta[self.free]
        self.free_value = float(th[th > 0].sum())
        blocks = [g.xor.var, g.imp_a, g.imp_b, g.pair_a, g.pair_b,
                  *(np.array(f.vars, dtype=int) for f in g.semis)]
        ends = np.cumsum([len(b) for b in blocks]).tolist()
        self.slots = np.concatenate(blocks)
        self.n_xor = ends[0]
        self.imp_a, self.imp_b, self.pair_a, self.pair_b = (
            slice(lo, hi) for lo, hi in zip(ends[:4], ends[1:5]))
        self.semis = [(slice(lo, hi), f, SemiMarkovProjector(f.spans, f.n))
                      for lo, hi, f in zip(ends[4:], ends[5:], g.semis)]
        self.omega_s = self.omega[self.slots]
        self.lam = np.zeros(len(self.slots))
        self.u = np.zeros(len(self.slots))
        if self.n_xor:
            # the XOR slots' cells in a (factor, literal) matrix padded to
            # the longest factor, for the row-wise projection
            xor = g.xor
            k = int(xor.sizes.max())
            self.x_shape = (xor.count, k)
            row = xor.row
            self.x_cell = row * k + np.arange(len(row)) - xor.ptr[row]
            self.x_mask = self._padded(np.ones(len(row), dtype=bool))
            self.x_neg = self._padded(xor.neg)

    def _padded(self, values: np.ndarray) -> np.ndarray:
        """The XOR slots of ``values`` as the padded matrix, zero in the pad
        cells."""
        out = np.zeros(self.x_shape, dtype=values.dtype)
        out.reshape(-1)[self.x_cell] = values[:self.n_xor]
        return out

    def _project(self, z: np.ndarray, rho: float) -> np.ndarray:
        """Every factor's subproblem at its copies' targets ``z``."""
        u = self.u
        if self.n_xor:
            u[:self.n_xor] = project_xor_rows(
                self._padded(z), self.x_neg, self.x_mask)[self.x_mask]
        ia, ib, pa, pb = self.imp_a, self.imp_b, self.pair_a, self.pair_b
        if ia.stop > ia.start:
            u[ia], u[ib] = project_implication(z[ia], z[ib])
        if pa.stop > pa.start:
            u[pa], u[pb] = project_pair(z[pa], z[pb],
                                        self.graph.pair_score / rho)
        for sl, _f, proj in self.semis:
            u[sl] = proj.project(z[sl])
        return u

    def dual_bound(self) -> float:
        total = self.graph.offset + self.free_value
        eta = self.omega_s + self.lam
        if self.n_xor:
            e = self._padded(eta)
            lit = np.where(self.x_neg, -e, e)
            base = (e * self.x_neg).sum(axis=1)
            lit = np.where(self.x_mask, lit, -np.inf)
            total += float((base + lit.max(axis=1)).sum())
        ia, ib, pa, pb = self.imp_a, self.imp_b, self.pair_a, self.pair_b
        if ia.stop > ia.start:
            ea, eb = eta[ia], eta[ib]
            total += float(np.maximum(np.maximum(0.0, eb), ea + eb).sum())
        if pa.stop > pa.start:
            ea, eb = eta[pa], eta[pb]
            best = np.maximum(np.maximum(0.0, eb),
                              ea + eb + self.graph.pair_score)
            total += float(np.maximum(best, ea).sum())
        for sl, f, proj in self.semis:
            _, val = semi_markov_map(f.spans, eta[sl], f.n, table=proj.table)
            total += val
        return total

    def run(self):
        """Returns (best feasible assignment or None, its objective, dual
        bound, iterations, certified_exact)."""
        graph, opt = self.graph, self.options
        if self.nslots == 0:
            active = self.p > 0.5
            return active, graph.objective(active), graph.objective(active), 0, True

        rho = opt.rho
        best_primal = -np.inf
        best_active: Optional[np.ndarray] = None
        best_dual = np.inf
        scale = np.sqrt(max(self.nslots, 1))
        slots, lam, free = self.slots, self.lam, self.free
        seen = b""
        it = 0
        for it in range(1, opt.max_iter + 1):
            u = self._project(self.p[slots] + (self.omega_s + lam) / rho, rho)
            acc = np.bincount(slots, weights=u, minlength=graph.nvars)
            p_old = self.p
            p_new = acc / self.safe_deg
            p_new[free] = p_old[free]
            self.p = p_new
            d = u - p_new[slots]
            lam -= rho * d
            r_sq = float(d @ d)
            s_sq = float((self.deg * (p_new - p_old) ** 2).sum()) * rho * rho

            # an assignment seen last iteration has been scored already
            active = self.p > 0.5
            key = active.tobytes()
            if key != seen:
                seen = key
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
            chosen, _ = semi_markov_map(f.spans, g.theta[list(f.vars)], f.n)
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
    ``active`` mask and objective still refer to the original graph.  The
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
    return SolveResult(active=full, objective=graph.objective(full),
                       dual=dual, status="exact" if exact else "rounded",
                       iterations=iters)
