"""Part scorers.

Frame-side parts (predicates, arguments, cross-task) are scored by low-rank
multilinear forms: a score is a sum over r rank-one terms, each term a
product of one dot product per input slot.  Slot order is fr/tgt/lu for
predicates, plus span/role for arguments, plus arc-weight/arc-representation
for cross-task parts.  The arc-weight slot consumes the unlabeled scorer's
own final linear weight vector, which ties the two tasks' parameters.
A cross-task part pairs an argument with an arc, and there are many more
pairs than arguments or arcs.  So the argument's frame/span/role product is
taken once per argument (the argument score uses it too) and the arc's
product once per arc that a cross part uses; one small matrix product of
the two then holds every pair's score, and the parts' pairs are read from
it.  No row per cross part is built, in the forward or the backward pass.

Dependency parts are scored by a two-layer tanh MLP and a final linear layer,
with separate parameters per part type (head, unlabeled, labeled, top).  An
arc's first layer over [h_head; h_dep] (plus the label embedding for labeled
arcs) is computed as the sum of per-token and per-label projections through
row blocks of the first weight matrix, so its products grow with the tokens
and labels, not with the parts; one ``gather_sum`` node adds a part's rows.

Every part type is scored in batch, a whole part list per call.  Parts
come in as integer arrays: token indices, and frame, role and label ids as
rows of the embedding tables (``Scorers.ids`` maps names to them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .autodiff import Graph, Node, ParameterStore, add_mlp, mlp
from .parts import Ontology, SpandepError

if TYPE_CHECKING:
    from .model import ModelConfig

_DEP_IN = {"head": 1, "ua": 2, "lab": 2, "top": 1}


@dataclass
class TargetTerms:
    """Graph nodes shared by the batched frame-side scorers of one target:
    the product of its target and lexical-unit slots, and the transposed
    rank factors."""

    fixed: Node
    w1_t: Node
    u1_t: Node
    u2_t: Node


class Scorers:
    """Owns label embeddings, rank factors, and the dependency MLPs.

    Widths come from a ``ModelConfig``; parameters are registered into
    ``store`` under the ``sc`` prefix."""

    def __init__(self, store: ParameterStore, config: ModelConfig,
                 ontology: Ontology, dep_labels: Sequence[str],
                 rng: np.random.Generator):
        rank, label_dim = config.rank, config.label_dim
        mlp_dim, bilstm_dim = config.mlp_dim, config.bilstm_dim
        self.store = store
        names = {"frame": ontology.frames, "lu": tuple(ontology.lu_to_frames),
                 "role": ontology.roles, "label": tuple(dep_labels)}
        self.frame_ix, self.lu_ix, self.role_ix, self.label_ix = (
            {k: i for i, k in enumerate(ns)} for ns in names.values())
        for table, ns in names.items():
            store.add(f"sc.emb.{table}", (max(len(ns), 1), label_dim),
                      rng=rng, init="normal")

        for name, dim in (("w1", label_dim), ("w2", mlp_dim), ("w3", label_dim),
                          ("u1", mlp_dim), ("u2", label_dim),
                          ("v1", mlp_dim), ("v2", mlp_dim)):
            store.add(f"sc.{name}", (rank, dim), rng=rng)

        for tag, mult in _DEP_IN.items():
            in_dim = mult * bilstm_dim + (label_dim if tag == "lab" else 0)
            add_mlp(store, f"sc.{tag}", in_dim, mlp_dim, rng)

    # --- parameter access -----------------------------------------------

    def _p(self, g: Graph, name: str) -> Node:
        return g.param(self.store, f"sc.{name}")

    def _vec(self, g: Graph, table: str, index: dict, key: str) -> Node:
        if key not in index:
            raise SpandepError(f"unknown {table}: {key!r}")
        return g.rows(self._p(g, f"emb.{table}"), index[key])

    def lu_vec(self, g: Graph, lu: str) -> Node:
        return self._vec(g, "lu", self.lu_ix, lu)

    def ids(self, table: str, names: Sequence[str]) -> np.ndarray:
        """The rows of ``names`` in the ``table`` embeddings ("frame",
        "role" or "label")."""
        index = {"frame": self.frame_ix, "role": self.role_ix,
                 "label": self.label_ix}[table]
        try:
            return np.array([index[k] for k in names], dtype=int)
        except KeyError as err:
            raise SpandepError(f"unknown {table}: {err.args[0]!r}") from None

    # --- scoring ------------------------------------------------------------

    def target_terms(self, g: Graph, g_tgt: Node, g_lu: Node) -> TargetTerms:
        """The products every frame-side part of one target shares, each
        entering the graph once."""
        return TargetTerms(
            fixed=g.mul(g.matvec(self._p(g, "w2"), g_tgt),
                        g.matvec(self._p(g, "w3"), g_lu)),
            w1_t=g.transpose(self._p(g, "w1")),
            u1_t=g.transpose(self._p(g, "u1")),
            u2_t=g.transpose(self._p(g, "u2")))

    def _frame_rows(self, g: Graph, frames: Sequence[int],
                    terms: TargetTerms) -> Node:
        return g.matmul(g.gather_sum([(self._p(g, "emb.frame"), frames)]),
                        terms.w1_t)

    def predicate_scores(self, g: Graph, frames: Sequence[int],
                         terms: TargetTerms) -> Node:
        """Scores for predicate parts sharing one target, as a vector node."""
        return g.matvec(self._frame_rows(g, frames, terms), terms.fixed)

    def argument_products(self, g: Graph, frames: Sequence[int],
                          roles: Sequence[int], span_rows: Node,
                          terms: TargetTerms) -> Node:
        """One row per argument: the product of its frame, span and role
        slots, which its argument score and its cross-task scores share.
        span_rows holds one span representation per argument, row-aligned."""
        a = self._frame_rows(g, frames, terms)
        d = g.matmul(span_rows, terms.u1_t)
        e = g.matmul(g.gather_sum([(self._p(g, "emb.role"), roles)]),
                     terms.u2_t)
        return g.mul(g.mul(a, d), e)

    def argument_scores(self, g: Graph, products: Node,
                        terms: TargetTerms) -> Node:
        """Takes the rows from ``argument_products``."""
        return g.matvec(products, terms.fixed)

    def cross_task_scores(self, g: Graph, products: Node, arc_rows: Node,
                          cross_arg: Sequence[int], cross_arc: Sequence[int],
                          terms: TargetTerms) -> Node:
        """Part k pairs argument ``cross_arg[k]`` (a row of ``products``)
        with arc ``cross_arc[k]`` (a row of ``arc_rows``).  The arc slot's
        product is taken once per arc that some part uses, and one
        ``pair_dots`` scores every (argument, arc) cell at once and picks
        the parts' cells."""
        arcs, arc_of = np.unique(np.asarray(cross_arc, dtype=int),
                                 return_inverse=True)
        arc_products = g.matmul(g.gather_sum([(arc_rows, arcs)]),
                                g.transpose(self._p(g, "v2")))
        fixed = g.mul(terms.fixed,
                      g.matvec(self._p(g, "v1"), self._p(g, "ua.w")))
        return g.pair_dots(products, arc_products, fixed, cross_arg, arc_of)

    def head_scores(self, g: Graph, hs: Node,
                    tokens: Sequence[int]) -> Node:
        return g.matvec(mlp(g, self.store, "sc.head", [(hs, tokens)]),
                        self._p(g, "head.w"))

    def arc_representations(self, g: Graph, hs: Node, heads: Sequence[int],
                            deps: Sequence[int]) -> Node:
        """g^ua for each (head, dep) pair: the first layer is the head
        token's and the dependent's projections, each computed once per
        token, added per pair."""
        return mlp(g, self.store, "sc.ua", [(hs, heads), (hs, deps)])

    def unlabeled_scores(self, g: Graph, arc_rows: Node) -> Node:
        """Takes the matrix from ``arc_representations`` so cross-task scoring
        can reuse the same rows."""
        return g.matvec(arc_rows, self._p(g, "ua.w"))

    def labeled_scores(self, g: Graph, hs: Node, heads: Sequence[int],
                       deps: Sequence[int], labels: Sequence[int]) -> Node:
        blocks = [(hs, heads), (hs, deps), (self._p(g, "emb.label"), labels)]
        return g.matvec(mlp(g, self.store, "sc.lab", blocks),
                        self._p(g, "lab.w"))

    def top_scores(self, g: Graph, hs: Node,
                   tokens: Sequence[int]) -> Node:
        return g.matvec(mlp(g, self.store, "sc.top", [(hs, tokens)]),
                        self._p(g, "top.w"))
