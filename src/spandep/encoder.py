"""Sentence encoding: embedding lookups with count-based word dropout, a
stacked BiLSTM, and span/target representations.

Every token is represented by the concatenation of a word, lemma and POS
embedding.  During training a word is replaced by UNK with probability
alpha / (1 + count(word)), so rare words train the UNK vector while frequent
words mostly keep their own.  The dropout decision happens outside the
computation graph; lemma and POS lookups are never dropped.

Span representations concatenate the BiLSTM states at both boundaries with
log2-scaled length/distance features and pass them through a two-layer tanh
MLP.  Target representations use a separate MLP and only the length feature.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from .autodiff import Graph, Node, ParameterStore, ShapeError, add_mlp, mlp
from .parts import Sentence, Target

if TYPE_CHECKING:
    from .model import ModelConfig

UNK = "<unk>"


class Vocabulary:
    """String-to-index map with UNK reserved at index 0."""

    def __init__(self, tokens: Iterable[str]):
        seen = dict.fromkeys(tokens)
        seen.pop(UNK, None)
        self.tokens: tuple[str, ...] = (UNK, *seen)
        self._index = {t: i for i, t in enumerate(self.tokens)}

    def index(self, token: str) -> int:
        return self._index.get(token, 0)

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocabularies(sentences: Sequence[Sentence]):
    """Collect word/lemma/POS vocabularies and word counts from training data."""
    counts: dict[str, int] = {}
    lemmas: list[str] = []
    tags: list[str] = []
    for s in sentences:
        for tok in s.tokens:
            counts[tok.form] = counts.get(tok.form, 0) + 1
            lemmas.append(tok.lemma)
            tags.append(tok.pos)
    return Vocabulary(counts), Vocabulary(lemmas), Vocabulary(tags), counts


def discrete_features(span: tuple[int, int], target_start: int) -> np.ndarray:
    """Length and boundary-to-target distances, log2-compressed."""
    i, j = span
    return np.array([
        math.log2(j - i + 2),
        math.log2(abs(i - target_start) + 1),
        math.log2(abs(j - target_start) + 1),
    ])


class Encoder:
    """Owns the lookup tables, BiLSTM stacks and representation MLPs.

    Widths and word dropout come from a ``ModelConfig``.  Parameters are
    registered into ``store`` under ``prefix`` so several encoders (say,
    the full model's and the pruner's) can share one store.
    """

    def __init__(self, store: ParameterStore, config: ModelConfig,
                 words: Vocabulary, lemmas: Vocabulary, pos_tags: Vocabulary,
                 word_counts: Mapping[str, int],
                 rng: np.random.Generator,
                 pretrained_words: Optional[Mapping[str, np.ndarray]] = None,
                 prefix: str = "enc"):
        word_dim, lemma_dim, pos_dim = (config.word_dim, config.lemma_dim,
                                        config.pos_dim)
        bilstm_dim, mlp_dim = config.bilstm_dim, config.mlp_dim
        self.store = store
        self.words = words
        self.lemmas = lemmas
        self.pos_tags = pos_tags
        self.word_counts = dict(word_counts)
        self.word_dropout = float(config.word_dropout)
        self.bilstm_layers = config.bilstm_layers
        self.prefix = prefix

        word_table = store.add(f"{prefix}.word", (len(words), word_dim),
                               rng=rng, init="normal")
        if pretrained_words is not None:
            loaded_dim = len(next(iter(pretrained_words.values())))
            if loaded_dim != word_dim:
                raise ShapeError(
                    f"pretrained word vectors are {loaded_dim}-dimensional "
                    f"but the encoder expects {word_dim}")
            for i, tok in enumerate(words.tokens):
                if tok in pretrained_words:
                    word_table[i] = pretrained_words[tok]
        store.add(f"{prefix}.lemma", (len(lemmas), lemma_dim), rng=rng,
                  init="normal")
        store.add(f"{prefix}.pos", (len(pos_tags), pos_dim), rng=rng,
                  init="normal")

        half = bilstm_dim // 2
        in_dim = word_dim + lemma_dim + pos_dim
        for layer in range(self.bilstm_layers):
            for direction in ("fw", "bw"):
                name = f"{prefix}.lstm{layer}.{direction}"
                store.add(f"{name}.w", (in_dim + half, 4 * half), rng=rng)
                store.add(f"{name}.b", (4 * half,))
            in_dim = bilstm_dim

        for tag, feat in (("span", 3), ("tgt", 1)):
            add_mlp(store, f"{prefix}.{tag}", 2 * bilstm_dim + feat, mlp_dim,
                    rng, out=False)

    # --- embedding ----------------------------------------------------------

    def word_indices(self, sentence: Sentence,
                     rng: Optional[np.random.Generator] = None,
                     training: bool = False) -> list[int]:
        """Word ids, with count-based UNK replacement when training."""
        ids = []
        for tok in sentence.tokens:
            idx = self.words.index(tok.form)
            if training and self.word_dropout > 0.0:
                count = self.word_counts.get(tok.form, 0)
                if rng.random() < self.word_dropout / (1.0 + count):
                    idx = 0
            ids.append(idx)
        return ids

    def embed(self, g: Graph, sentence: Sentence,
              rng: Optional[np.random.Generator] = None,
              training: bool = False) -> Node:
        """Per-token concatenated embeddings as an (n, d) matrix node."""
        word_ids = self.word_indices(sentence, rng=rng, training=training)
        lemma_ids = [self.lemmas.index(t.lemma) for t in sentence.tokens]
        pos_ids = [self.pos_tags.index(t.pos) for t in sentence.tokens]
        gather = lambda table, ids: g.gather_sum(
            [(g.param(self.store, f"{self.prefix}.{table}"), ids)])
        return g.concat(gather("word", word_ids), gather("lemma", lemma_ids),
                        gather("pos", pos_ids))

    # --- BiLSTM -------------------------------------------------------------

    def _sweep(self, g: Graph, x: Node, layer: int, direction: str) -> Node:
        name = f"{self.prefix}.lstm{layer}.{direction}"
        return g.lstm(x, g.param(self.store, f"{name}.w"),
                      g.param(self.store, f"{name}.b"),
                      reverse=direction == "bw")

    def bilstm(self, g: Graph, x: Node) -> Node:
        """Stacked bidirectional pass over the rows of an (n, d) matrix."""
        for layer in range(self.bilstm_layers):
            x = g.concat(self._sweep(g, x, layer, "fw"),
                         self._sweep(g, x, layer, "bw"))
        return x

    def encode(self, g: Graph, sentence: Sentence,
               rng: Optional[np.random.Generator] = None,
               training: bool = False) -> Node:
        """Contextualized token vectors as an (n, bilstm_dim) matrix node;
        row i is h_i."""
        return self.bilstm(g, self.embed(g, sentence, rng=rng,
                                         training=training))

    # --- representations ----------------------------------------------------

    def span_representations(self, g: Graph, hs: Node,
                             spans: Sequence[tuple[int, int]],
                             target_start: int) -> Node:
        """All spans at once as a (len(spans), mlp_dim) matrix node.  The
        first layer over [h_i; h_j; features] adds the boundary tokens'
        projections, each computed once per token, to the features'."""
        feats = [discrete_features(span, target_start) for span in spans]
        return mlp(g, self.store, f"{self.prefix}.span",
                   [(hs, [i for i, _ in spans]), (hs, [j for _, j in spans]),
                    (g.input(np.reshape(feats, (len(spans), 3))), None)])

    def target_representation(self, g: Graph, hs: Node,
                              target: Target) -> Node:
        length = np.array([math.log2(target.end - target.start + 2)])
        x = g.concat(g.rows(hs, target.start), g.rows(hs, target.end),
                     g.input(length))
        return mlp(g, self.store, f"{self.prefix}.tgt", x)
