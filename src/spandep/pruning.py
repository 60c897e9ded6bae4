"""Pretrained lightweight pruners for argument spans and dependency arcs.

Both pruners share one reduced-size model: an encoder at the small preset
plus two unlabeled heads.  The span head scores the (start, end) pairs that
``enumerate_spans`` lists under the length cap ``ModelConfig.max_span_len``
(which the pruner's checkpoint records), one item per span with roles
collapsed, for a semi-Markov segmentation model trained by maximum
likelihood; its posteriors gate spans at the 1/n² threshold.  The arc
head is an independent per-arc logistic model; its sigmoid posteriors gate
arcs by per-dependent top-K with a floor.

Boundary convention throughout: a posterior exactly equal to a threshold
is retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .autodiff import (Graph, Node, ParameterStore, clip_and_step,
                       gathered_affine)
from .encoder import Encoder, Vocabulary, build_vocabularies
from .formats import _load_from_manifest, model_manifest, save_checkpoint
from .inference.semimarkov import nll_node, semi_markov_marginals
from .model import ModelConfig
from .parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpandepError,
    Target,
    enumerate_arcs,
    enumerate_spans,
)

Span = Tuple[int, int]
Arc = Tuple[int, int]


@dataclass(frozen=True)
class PruneConfig:
    """The arc rule.  The span rule's length cap is the span pruner's
    ``ModelConfig.max_span_len``, saved in its checkpoint."""

    arc_top_k: int = 20
    arc_posterior_floor: float = 0.0

    def __post_init__(self):
        if self.arc_top_k < 1:
            raise SpandepError("arc_top_k must be at least 1")
        if not 0.0 <= self.arc_posterior_floor <= 1.0:
            raise SpandepError("arc_posterior_floor must lie in [0, 1]")


@dataclass(frozen=True)
class RecallReport:
    """How much of the gold structure survived pruning.

    ``density`` is retained candidates per token, comparable across
    sentence lengths.
    """

    gold_total: int
    gold_retained: int
    candidate_total: int
    retained_total: int
    n_tokens: int

    @property
    def recall(self) -> float:
        return self.gold_retained / self.gold_total if self.gold_total else 1.0

    @property
    def density(self) -> float:
        return self.retained_total / self.n_tokens


@dataclass(frozen=True)
class PruneResult:
    retained: tuple
    report: Optional[RecallReport]


def span_threshold(n: int) -> float:
    return 1.0 / (n * n)


def retain_spans(spans: Sequence[Span], posteriors: np.ndarray, n: int,
                 max_span_len: int) -> List[Span]:
    """Pure gating rule: posterior >= 1/n² and length <= the cap."""
    thr = span_threshold(n)
    return [(i, j) for (i, j), p in zip(spans, posteriors)
            if j - i + 1 <= max_span_len and p >= thr]


def retain_arcs(pairs: Sequence[Arc], posteriors: np.ndarray,
                config: PruneConfig) -> List[Arc]:
    """Per-dependent top-K heads by posterior, subject to the floor.

    Ties break toward the lower head index so the rule is deterministic.
    """
    by_dep: dict[int, list] = {}
    for (h, d), p in zip(pairs, posteriors):
        by_dep.setdefault(d, []).append((h, p))
    kept = []
    for d, cands in by_dep.items():
        cands.sort(key=lambda hp: (-hp[1], hp[0]))
        for h, p in cands[:config.arc_top_k]:
            if p >= config.arc_posterior_floor:
                kept.append((h, d))
    return sorted(kept)


class PrunerModel:
    """Reduced encoder plus span and arc heads under the ``pr`` prefix.

    The attribute layout mirrors ``ParserModel`` so the checkpoint
    manifest builder works on both; parameter names never collide with
    the main model's ``enc``/``sc`` namespaces.  The heads score what
    ``parts.enumerate_spans`` (capped at ``config.max_span_len``) and
    ``parts.enumerate_arcs`` list.
    """

    def __init__(self, config: ModelConfig, ontology: Ontology,
                 dep_labels: Sequence[str], words: Vocabulary,
                 lemmas: Vocabulary, pos_tags: Vocabulary,
                 word_counts: Mapping[str, int], rng: np.random.Generator,
                 store: Optional[ParameterStore] = None):
        self.config = config
        self.ontology = ontology
        self.dep_labels = tuple(dep_labels)
        self.store = store if store is not None else ParameterStore()
        self.encoder = Encoder(self.store, config, words, lemmas, pos_tags,
                               word_counts, rng, prefix="pr.enc")
        mlp = config.mlp_dim
        self.store.add("pr.span.w", (mlp,), rng=rng, init="normal")
        arc_in = 2 * config.bilstm_dim
        self.store.add("pr.arc.w1", (arc_in, mlp), rng=rng)
        self.store.add("pr.arc.b1", (mlp,))
        self.store.add("pr.arc.w2", (mlp, mlp), rng=rng)
        self.store.add("pr.arc.b2", (mlp,))
        self.store.add("pr.arc.w", (mlp,), rng=rng, init="normal")

    @classmethod
    def build(cls, train_sentences: Sequence[Sentence],
              rng: np.random.Generator,
              config: Optional[ModelConfig] = None,
              ontology: Optional[Ontology] = None) -> "PrunerModel":
        if config is None:
            config = ModelConfig.pruner_sized()
        if ontology is None:
            ontology = Ontology({}, {})
        words, lemmas, tags, counts = build_vocabularies(train_sentences)
        return cls(config, ontology, (), words, lemmas, tags, counts, rng)

    # --- span head --------------------------------------------------------

    def span_scores(self, g: Graph, sentence: Sentence, target: Target,
                    spans: Sequence[Span],
                    rng: Optional[np.random.Generator] = None,
                    training: bool = False) -> Node:
        hs = self.encoder.encode(g, sentence, rng=rng, training=training)
        reps = self.encoder.span_representations(g, hs, list(spans),
                                                 target.start)
        return g.matvec(reps, g.param(self.store, "pr.span.w"))

    def span_posteriors(self, sentence: Sentence, target: Target
                        ) -> Tuple[List[Span], np.ndarray]:
        n, cap = len(sentence), self.config.max_span_len
        spans = enumerate_spans(n, cap)
        node = self.span_scores(Graph(), sentence, target, spans)
        _, post = semi_markov_marginals(spans, node.value, n)
        return spans, post

    # --- arc head ---------------------------------------------------------

    def arc_logits(self, g: Graph, sentence: Sentence, pairs: Sequence[Arc],
                   rng: Optional[np.random.Generator] = None,
                   training: bool = False) -> Node:
        hs = self.encoder.encode(g, sentence, rng=rng, training=training)

        def p(name: str) -> Node:
            return g.param(self.store, name)

        z = g.tanh(gathered_affine(g, [(hs, [h for h, _ in pairs]),
                                       (hs, [d for _, d in pairs])],
                                   p("pr.arc.w1"), p("pr.arc.b1")))
        z = g.tanh(g.affine(z, p("pr.arc.w2"), p("pr.arc.b2")))
        return g.matvec(z, p("pr.arc.w"))

    def arc_posteriors(self, sentence: Sentence
                       ) -> Tuple[List[Arc], np.ndarray]:
        pairs = enumerate_arcs(len(sentence))
        g = Graph()
        node = g.sigmoid(self.arc_logits(g, sentence, pairs))
        return pairs, node.value.copy()


def _gold_spans(sentence: Sentence, target: Target) -> Optional[set]:
    if isinstance(sentence.supervision, FrameAnnotations):
        for parse in sentence.supervision.parses:
            if parse.target == target:
                return {(i, j) for i, j, _role in parse.arguments}
    return None


def _gold_arcs(sentence: Sentence) -> Optional[set]:
    if not isinstance(sentence.supervision, DependencyGraph):
        return None
    return {(h, d) for h, d, _ in sentence.supervision.arcs}


def span_nll(g: Graph, pruner: PrunerModel, sentence: Sentence,
             parse: FrameParse,
             rng: Optional[np.random.Generator] = None,
             training: bool = False) -> Node:
    """logZ minus the gold segmentation score; nonnegative by construction.

    Gold spans longer than the length cap cannot appear in any candidate
    segmentation, so they are dropped from the gold set rather than making
    the likelihood ill-defined.
    """
    n, cap = len(sentence), pruner.config.max_span_len
    spans = enumerate_spans(n, cap)
    index = {s: k for k, s in enumerate(spans)}
    gold = sorted(index[(i, j)] for i, j, _role in parse.arguments
                  if j - i + 1 <= cap)
    scores = pruner.span_scores(g, sentence, parse.target, spans,
                                rng=rng, training=training)
    return nll_node(g, scores, spans, n, gold)


def _arc_nll(g: Graph, pruner: PrunerModel, sentence: Sentence,
             rng: np.random.Generator, training: bool) -> Node:
    """Independent per-arc logistic loss: binary cross-entropy with
    logits, sum softplus(l) - y.l."""
    gold = _gold_arcs(sentence)
    pairs = enumerate_arcs(len(sentence))
    logits = pruner.arc_logits(g, sentence, pairs, rng=rng,
                               training=training)
    y = np.array([float(p in gold) for p in pairs])
    return g.sub(g.sum(g.softplus(logits)), g.inner(logits, g.input(y)))


def _pretrain(corpus: Sequence[Sentence], examples: Sequence,
              loss: Callable[..., Node], epochs: int, lr: float, seed: int,
              model_config: Optional[ModelConfig],
              ontology: Optional[Ontology] = None) -> PrunerModel:
    """Seeded SGD shared by both pruners: one generator builds the pruner,
    permutes ``examples`` each epoch and drives word dropout; each example
    takes one clipped step on ``loss(g, pruner, *example)``."""
    rng = np.random.default_rng(seed)
    pruner = PrunerModel.build(corpus, rng, config=model_config,
                               ontology=ontology)
    for _ in range(epochs):
        for k in rng.permutation(len(examples)):
            g = Graph()
            g.backward(loss(g, pruner, *examples[int(k)], rng=rng,
                            training=True))
            clip_and_step(pruner.store, lr)
    return pruner


def pretrain_span_pruner(corpus: Sequence[Sentence], *, epochs: int = 5,
                         lr: float = 0.1, seed: int = 0,
                         model_config: Optional[ModelConfig] = None,
                         ontology: Optional[Ontology] = None) -> PrunerModel:
    """Fit the span head by semi-Markov likelihood under its span cap."""
    instances = []
    for s in corpus:
        if not isinstance(s.supervision, FrameAnnotations):
            raise SpandepError(
                f"sentence {s.id!r} carries no frame annotations")
        instances.extend((s, parse) for parse in s.supervision.parses)
    if not instances:
        raise SpandepError("cannot pretrain a span pruner on an empty corpus")
    return _pretrain(corpus, instances, span_nll, epochs, lr, seed,
                     model_config, ontology)


def pretrain_arc_pruner(corpus: Sequence[Sentence], *, epochs: int = 5,
                        lr: float = 0.1, seed: int = 0,
                        model_config: Optional[ModelConfig] = None
                        ) -> PrunerModel:
    """Fit the arc head with an independent per-arc logistic loss."""
    for s in corpus:
        if not isinstance(s.supervision, DependencyGraph):
            raise SpandepError(
                f"sentence {s.id!r} carries no dependency graph")
    usable = [(s,) for s in corpus if len(s) > 1]
    if not usable:
        raise SpandepError("cannot pretrain an arc pruner on an empty corpus")
    return _pretrain(corpus, usable, _arc_nll, epochs, lr, seed,
                     model_config)


def _pruned(sentence: Sentence, candidates: Sequence, kept: List,
            gold: Optional[set]) -> PruneResult:
    """The retained candidates, with a recall report when gold is known."""
    report = None
    if gold is not None:
        report = RecallReport(
            gold_total=len(gold),
            gold_retained=len(gold & set(kept)),
            candidate_total=len(candidates),
            retained_total=len(kept),
            n_tokens=len(sentence))
    return PruneResult(retained=tuple(kept), report=report)


def prune_spans(sentence: Sentence, target: Target,
                pruner: PrunerModel) -> PruneResult:
    """Spans whose posterior clears 1/n² and whose length fits the cap.

    When the sentence carries frame annotations for ``target``, the result
    includes a recall report against that parse's argument spans.
    """
    spans, post = pruner.span_posteriors(sentence, target)
    kept = retain_spans(spans, post, len(sentence),
                        pruner.config.max_span_len)
    return _pruned(sentence, spans, kept, _gold_spans(sentence, target))


def prune_arcs(sentence: Sentence, pruner: PrunerModel,
               config: PruneConfig = PruneConfig()) -> PruneResult:
    """Per-dependent top-K heads by logistic posterior, above the floor."""
    pairs, post = pruner.arc_posteriors(sentence)
    kept = retain_arcs(pairs, post, config)
    return _pruned(sentence, pairs, kept, _gold_arcs(sentence))


def save_pruner(pruner: PrunerModel, path) -> None:
    save_checkpoint(pruner.store, model_manifest(pruner, kind="pruner"), path)


def load_pruner(path) -> PrunerModel:
    return _load_from_manifest(PrunerModel, path, "pruner")
