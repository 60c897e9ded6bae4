"""Pretrained lightweight pruners for argument spans and dependency arcs.

Both pruners share one reduced-size model: an encoder at the small preset
plus two unlabeled heads.  The span head scores candidate spans for a
semi-Markov segmentation model trained by maximum likelihood with roles
collapsed to a single is-argument label; its posteriors gate spans at the
1/n² threshold.  The arc head is an independent per-arc logistic model;
its sigmoid posteriors gate arcs by per-dependent top-K with a floor.

Boundary convention throughout: a posterior exactly equal to a threshold
is retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

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
)

Span = Tuple[int, int]
Arc = Tuple[int, int]


@dataclass(frozen=True)
class PruneConfig:
    max_span_len: int = 20
    arc_top_k: int = 20
    arc_posterior_floor: float = 0.0

    def __post_init__(self):
        if self.max_span_len < 1:
            raise SpandepError("max_span_len must be at least 1")
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
                 config: PruneConfig) -> List[Span]:
    """Pure gating rule: posterior >= 1/n² and length <= the cap."""
    thr = span_threshold(n)
    return [(i, j) for (i, j), p in zip(spans, posteriors)
            if j - i + 1 <= config.max_span_len and p >= thr]


def retain_arcs(pairs: Sequence[Arc], posteriors: np.ndarray, n: int,
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
    the main model's ``enc``/``sc`` namespaces.
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
        self.encoder = Encoder(
            self.store, words, lemmas, pos_tags, word_counts, rng,
            word_dim=config.word_dim, lemma_dim=config.lemma_dim,
            pos_dim=config.pos_dim, bilstm_layers=config.bilstm_layers,
            bilstm_dim=config.bilstm_dim, mlp_dim=config.mlp_dim,
            word_dropout=config.word_dropout, prefix="pr.enc")
        mlp = config.mlp_dim
        self.store.add("pr.span.w", (mlp,),
                       init=0.1 * rng.standard_normal(mlp))
        arc_in = 2 * config.bilstm_dim
        self.store.add("pr.arc.w1", (arc_in, mlp), rng=rng)
        self.store.add("pr.arc.b1", (mlp,))
        self.store.add("pr.arc.w2", (mlp, mlp), rng=rng)
        self.store.add("pr.arc.b2", (mlp,))
        self.store.add("pr.arc.w", (mlp,),
                       init=0.1 * rng.standard_normal(mlp))

    @classmethod
    def build(cls, train_sentences: Sequence[Sentence],
              rng: np.random.Generator,
              config: Optional[ModelConfig] = None,
              ontology: Optional[Ontology] = None,
              dep_labels: Sequence[str] = ()) -> "PrunerModel":
        if config is None:
            config = ModelConfig.pruner_sized()
        if ontology is None:
            ontology = Ontology({}, {})
        words, lemmas, tags, counts = build_vocabularies(train_sentences)
        return cls(config, ontology, dep_labels, words, lemmas, tags, counts,
                   rng)

    # --- span head --------------------------------------------------------

    def span_candidates(self, n: int, max_len: int) -> List[Span]:
        return [(i, j) for i in range(n)
                for j in range(i, min(n, i + max_len))]

    def span_scores(self, g: Graph, sentence: Sentence, target: Target,
                    spans: Sequence[Span],
                    rng: Optional[np.random.Generator] = None,
                    training: bool = False) -> Node:
        hs = self.encoder.encode(g, sentence, rng=rng, training=training)
        reps = self.encoder.span_representations(g, hs, list(spans),
                                                 target.start)
        return g.matvec(reps, g.param(self.store, "pr.span.w"))

    def span_posteriors(self, sentence: Sentence, target: Target,
                        config: PruneConfig
                        ) -> Tuple[List[Span], np.ndarray]:
        n = len(sentence)
        spans = self.span_candidates(n, config.max_span_len)
        node = self.span_scores(Graph(), sentence, target, spans)
        items = [(i, j, "arg") for i, j in spans]
        _, post = semi_markov_marginals(items, node.value, n,
                                        config.max_span_len)
        return spans, post

    # --- arc head ---------------------------------------------------------

    def arc_candidates(self, n: int) -> List[Arc]:
        return [(h, d) for h in range(n) for d in range(n) if h != d]

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
        pairs = self.arc_candidates(len(sentence))
        if not pairs:
            return pairs, np.zeros(0)
        g = Graph()
        node = g.sigmoid(self.arc_logits(g, sentence, pairs))
        return pairs, node.value.copy()


def _span_instances(corpus: Sequence[Sentence]
                    ) -> List[Tuple[Sentence, FrameParse]]:
    instances = []
    for s in corpus:
        if not isinstance(s.supervision, FrameAnnotations):
            raise SpandepError(
                f"sentence {s.id!r} carries no frame annotations")
        instances.extend((s, parse) for parse in s.supervision.parses)
    return instances


def span_nll(g: Graph, pruner: PrunerModel, sentence: Sentence,
             parse: FrameParse, config: PruneConfig,
             rng: Optional[np.random.Generator] = None,
             training: bool = False) -> Node:
    """logZ minus the gold segmentation score; nonnegative by construction.

    Gold spans longer than the length cap cannot appear in any candidate
    segmentation, so they are dropped from the gold set rather than making
    the likelihood ill-defined.
    """
    n = len(sentence)
    spans = pruner.span_candidates(n, config.max_span_len)
    index = {s: k for k, s in enumerate(spans)}
    gold = sorted(index[(i, j)] for i, j, _role in parse.arguments
                  if j - i + 1 <= config.max_span_len)
    scores = pruner.span_scores(g, sentence, parse.target, spans,
                                rng=rng, training=training)
    items = [(i, j, "arg") for i, j in spans]
    return nll_node(g, scores, items, n, config.max_span_len, gold)


def pretrain_span_pruner(corpus: Sequence[Sentence],
                         config: PruneConfig = PruneConfig(),
                         *, epochs: int = 5, lr: float = 0.1, seed: int = 0,
                         pruner: Optional[PrunerModel] = None,
                         model_config: Optional[ModelConfig] = None,
                         ontology: Optional[Ontology] = None) -> PrunerModel:
    instances = _span_instances(corpus)
    if not instances:
        raise SpandepError("cannot pretrain a span pruner on an empty corpus")
    rng = np.random.default_rng(seed)
    if pruner is None:
        pruner = PrunerModel.build(corpus, rng, config=model_config,
                                   ontology=ontology)
    for _ in range(epochs):
        for k in rng.permutation(len(instances)):
            sentence, parse = instances[int(k)]
            g = Graph()
            loss = span_nll(g, pruner, sentence, parse, config,
                            rng=rng, training=True)
            g.backward(loss)
            clip_and_step(pruner.store, lr)
    return pruner


def pretrain_arc_pruner(corpus: Sequence[Sentence],
                        *, epochs: int = 5, lr: float = 0.1, seed: int = 0,
                        pruner: Optional[PrunerModel] = None,
                        model_config: Optional[ModelConfig] = None,
                        ontology: Optional[Ontology] = None) -> PrunerModel:
    """Fit the arc head with an independent per-arc logistic loss."""
    for s in corpus:
        if not isinstance(s.supervision, DependencyGraph):
            raise SpandepError(
                f"sentence {s.id!r} carries no dependency graph")
    usable = [s for s in corpus if len(s) > 1]
    if not usable:
        raise SpandepError("cannot pretrain an arc pruner on an empty corpus")
    rng = np.random.default_rng(seed)
    if pruner is None:
        pruner = PrunerModel.build(corpus, rng, config=model_config,
                                   ontology=ontology)
    for _ in range(epochs):
        for k in rng.permutation(len(usable)):
            sentence = usable[int(k)]
            gold_pairs = {(h, d) for h, d, _ in sentence.supervision.arcs}
            pairs = pruner.arc_candidates(len(sentence))
            g = Graph()
            logits = pruner.arc_logits(g, sentence, pairs,
                                       rng=rng, training=True)
            y = np.array([float(p in gold_pairs) for p in pairs])
            # binary cross-entropy with logits: sum softplus(l) - y.l
            loss = g.sub(g.sum(g.softplus(logits)),
                         g.inner(logits, g.input(y)))
            g.backward(loss)
            clip_and_step(pruner.store, lr)
    return pruner


def _gold_spans(sentence: Sentence, target: Target) -> Optional[set]:
    if not isinstance(sentence.supervision, FrameAnnotations):
        return None
    for parse in sentence.supervision.parses:
        if parse.target == target:
            return {(i, j) for i, j, _role in parse.arguments}
    return None


def prune_spans(sentence: Sentence, target: Target, pruner: PrunerModel,
                config: PruneConfig = PruneConfig()) -> PruneResult:
    """Spans whose posterior clears 1/n² and whose length fits the cap.

    When the sentence carries frame annotations for ``target``, the result
    includes a recall report against that parse's argument spans.
    """
    n = len(sentence)
    spans, post = pruner.span_posteriors(sentence, target, config)
    kept = retain_spans(spans, post, n, config)
    report = None
    gold = _gold_spans(sentence, target)
    if gold is not None:
        kept_set = set(kept)
        report = RecallReport(
            gold_total=len(gold),
            gold_retained=len(gold & kept_set),
            candidate_total=len(spans),
            retained_total=len(kept),
            n_tokens=n)
    return PruneResult(retained=tuple(kept), report=report)


def prune_arcs(sentence: Sentence, pruner: PrunerModel,
               config: PruneConfig = PruneConfig()) -> PruneResult:
    """Per-dependent top-K heads by logistic posterior, above the floor."""
    n = len(sentence)
    pairs, post = pruner.arc_posteriors(sentence)
    kept = retain_arcs(pairs, post, n, config)
    report = None
    if isinstance(sentence.supervision, DependencyGraph):
        gold = {(h, d) for h, d, _ in sentence.supervision.arcs}
        kept_set = set(kept)
        report = RecallReport(
            gold_total=len(gold),
            gold_retained=len(gold & kept_set),
            candidate_total=len(pairs),
            retained_total=len(kept),
            n_tokens=n)
    return PruneResult(retained=tuple(kept), report=report)


def save_pruner(pruner: PrunerModel, path) -> None:
    save_checkpoint(pruner.store, model_manifest(pruner, kind="pruner"), path)


def load_pruner(path) -> PrunerModel:
    return _load_from_manifest(PrunerModel, path, "pruner")
