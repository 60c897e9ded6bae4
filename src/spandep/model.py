"""The joint parser model: configuration, parameters, and space scoring.

``ParserModel`` owns an encoder and a scorer bank backed by one parameter
store, and turns a candidate space into a flat score vector aligned with the
space's part ids.  All part types are scored in batch; the resulting node
stays attached to the autodiff graph so training losses can be built on top
of it, while ``scored_space`` detaches the values for pure inference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Mapping, Optional, Sequence

import numpy as np

from .autodiff import Graph, Node, ParameterStore
from .encoder import Encoder, Vocabulary, build_vocabularies
from .parts import CandidateSpace, Ontology, Sentence, SpaceLimits, SpandepError
from .scorers import Scorers


@dataclass(frozen=True)
class ModelConfig:
    """Widths, word dropout and the candidate-space contract of a model;
    ``pruner_sized`` gives the reduced preset used by the span/arc pruners.

    The space fields (``max_span_len``, ``joint``, ``include_cross_task``)
    decide which parts the model is trained and decoded over.  They are
    saved in the checkpoint manifest with the rest of the config, so
    prediction decodes over the space the model was trained on.
    """

    word_dim: int = 100
    lemma_dim: int = 50
    pos_dim: int = 50
    mlp_dim: int = 100
    rank: int = 100
    label_dim: int = 100
    bilstm_layers: int = 2
    bilstm_dim: int = 200
    word_dropout: float = 1.0
    max_span_len: int = 20
    joint: bool = True
    include_cross_task: bool = True

    def __post_init__(self):
        # each field has the type of its default: widths and the span cap are
        # positive ints, the space switches bools, word dropout a nonnegative
        # number
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            want, base = {bool: ("a bool", bool), int: ("an int", Integral),
                          float: ("a number", Real)}[kind]
            if not isinstance(value, base) or \
                    (kind is not bool and isinstance(value, bool)):
                raise SpandepError(f"{f.name} must be {want}, got {value!r}")
            if kind is int and value < 1:
                raise SpandepError(f"{f.name} must be at least 1")
            if kind is float and not value >= 0:
                raise SpandepError(f"{f.name} must be nonnegative")
        if self.bilstm_dim % 2:
            raise SpandepError(
                f"bilstm_dim must be even, got {self.bilstm_dim}")

    @classmethod
    def pruner_sized(cls) -> "ModelConfig":
        return cls(word_dim=32, lemma_dim=16, pos_dim=16, mlp_dim=32,
                   rank=32, label_dim=32, bilstm_layers=1, bilstm_dim=64)

    def fn_limits(self, dep_labels: Sequence[str]) -> SpaceLimits:
        return SpaceLimits(
            max_span_len=self.max_span_len,
            include_dependencies=self.joint,
            include_cross_task=self.joint and self.include_cross_task,
            dep_labels=tuple(dep_labels) if self.joint else ())

    def dm_limits(self, dep_labels: Sequence[str]) -> SpaceLimits:
        return SpaceLimits(
            max_span_len=self.max_span_len,
            include_dependencies=True, include_cross_task=False,
            dep_labels=tuple(dep_labels))


@dataclass
class SpaceScores:
    """Score vector for one candidate space, still inside the graph.

    ``node`` is (P,), row i scoring part i.  ``cross`` aliases the cross-task
    segment (or None) so sparsity penalties can reach it directly.
    """

    node: Node
    cross: Optional[Node]


class ParserModel:
    def __init__(self, config: ModelConfig, ontology: Ontology,
                 dep_labels: Sequence[str], words: Vocabulary,
                 lemmas: Vocabulary, pos_tags: Vocabulary,
                 word_counts: Mapping[str, int], rng: np.random.Generator,
                 pretrained_words: Optional[Mapping[str, np.ndarray]] = None,
                 store: Optional[ParameterStore] = None):
        self.config = config
        self.ontology = ontology
        self.dep_labels = tuple(dep_labels)
        self.store = store if store is not None else ParameterStore()
        self.encoder = Encoder(
            self.store, config, words, lemmas, pos_tags, word_counts, rng,
            pretrained_words=pretrained_words, prefix="enc")
        self.scorers = Scorers(self.store, config, ontology, self.dep_labels, rng)

    @classmethod
    def build(cls, config: ModelConfig, ontology: Ontology,
              dep_labels: Sequence[str], train_sentences: Sequence[Sentence],
              rng: np.random.Generator,
              pretrained_words: Optional[Mapping[str, np.ndarray]] = None
              ) -> "ParserModel":
        words, lemmas, tags, counts = build_vocabularies(train_sentences)
        return cls(config, ontology, dep_labels, words, lemmas, tags, counts,
                   rng, pretrained_words=pretrained_words)

    # --- scoring --------------------------------------------------------

    def score_space(self, g: Graph, space: CandidateSpace,
                    rng: Optional[np.random.Generator] = None,
                    training: bool = False) -> SpaceScores:
        sc = self.scorers
        if not len(space):
            return SpaceScores(g.input(np.zeros(0)), None)
        hs = self.encoder.encode(g, space.sentence, rng=rng, training=training)

        # the space lists its parts in group order, so the segments
        # concatenate into part-id order
        segments: list[Node] = []
        terms = arg_products = arc_rows = frame_ids = None
        if space.predicate_ids:
            g_tgt = self.encoder.target_representation(g, hs, space.target)
            terms = sc.target_terms(g, g_tgt, sc.lu_vec(g, space.target.lu))
            frame_ids = sc.ids("frame", space.frames)
            segments.append(sc.predicate_scores(
                g, frame_ids[space.pred_frame], terms))

        if space.argument_ids:
            # each distinct span once, in (start, end) order
            n = space.n
            keys, span_of = np.unique(space.arg_start * n + space.arg_end,
                                      return_inverse=True)
            starts, ends = np.divmod(keys, n)
            span_matrix = self.encoder.span_representations(
                g, hs, list(zip(starts.tolist(), ends.tolist())),
                space.target.start)
            arg_products = sc.argument_products(
                g, frame_ids[space.arg_frame],
                sc.ids("role", space.roles)[space.arg_role],
                g.gather_sum([(span_matrix, span_of)]), terms)
            segments.append(sc.argument_scores(g, arg_products, terms))

        if space.head_ids:
            segments.append(sc.head_scores(g, hs, space.head_token))

        n_arcs = len(space.arc_ids)
        if n_arcs:
            arc_rows = sc.arc_representations(
                g, hs, space.arc_head[:n_arcs], space.arc_dep[:n_arcs])
            segments.append(sc.unlabeled_scores(g, arc_rows))

        if space.root_arc_ids:
            segments.append(sc.top_scores(g, hs, space.arc_dep[n_arcs:]))

        if space.labeled_ids:
            own = space.lab_arc - space.arc_ids.start
            segments.append(sc.labeled_scores(
                g, hs, space.arc_head[own], space.arc_dep[own],
                sc.ids("label", space.labels)[space.lab_label]))

        cross_node = None
        if space.cross_ids:
            cross_node = sc.cross_task_scores(
                g, arg_products, arc_rows,
                space.cross_arg - space.argument_ids.start,
                space.cross_arc - space.arc_ids.start, terms)
            segments.append(cross_node)

        node = segments[0] if len(segments) == 1 else g.concat(*segments)
        return SpaceScores(node, cross_node)

    def scored_space(self, space: CandidateSpace) -> CandidateSpace:
        """Inference-path scoring: returns a scored copy of the space."""
        res = self.score_space(Graph(), space)
        return space.with_scores(res.node.value.copy())
