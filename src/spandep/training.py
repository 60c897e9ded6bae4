"""Max-margin training over disjoint corpora, plus prediction helpers.

Frame-annotated sentences carry no dependency supervision, so their loss
maximizes over the dependency side: L = max_{y,z}(S(y,z) + d(y, y*)) -
max_z S(y*, z), where d is the weighted Hamming cost over frame parts.
Their spaces hold only the dependency parts of the target's first token t1
(see ``build_candidate_space``): every other part of z would take the same
value in both maxima, so L, its gradient and the decoded frames are those
of the full dependency side.  Dependency sentences use the ordinary
structured hinge.  Both maxima are computed by ``decode``, so a single
subgradient rule covers all instances: +1 on the parts of the
cost-augmented argmax, -1 on the parts of the gold completion.  The decoder can return a ``rounded`` structure, one not
certified exact; the step still takes it, and such decodes are counted in
``EpochStats.uncertified``.

An epoch trains on the union of the full frame corpus, a fresh random
sample of the exemplar pool, and the dependency corpus, shuffled
uniformly.  The learning rate halves every ten epochs, dev metrics are
logged each epoch, and the parameters of the best frame dev F1 epoch are
restored at the end (ties keep the earlier epoch).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import Graph, Node, clip_and_step
from .evaluation import eval_frames, eval_sdp
from .inference.decode import DecodeResult, cost_augment, decode
from .model import ParserModel, SpaceScores
from .parts import (
    CandidateSpace,
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpaceLimits,
    SpandepError,
    build_candidate_space,
    supervision,
    weighted_hamming,
)


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.33
    anneal_factor: float = 0.5
    anneal_every: int = 10
    max_epochs: int = 30
    clip: float = 1.0
    l2: float = 1e-6
    l1_weight: float = 0.01
    exemplar_fraction: float = 0.35
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0 or self.anneal_factor <= 0 or self.clip <= 0:
            raise SpandepError("rates must be positive")
        if self.anneal_every < 1 or self.max_epochs < 0:
            raise SpandepError("epoch counts must be positive")
        if self.l2 < 0 or self.l1_weight < 0:
            raise SpandepError("penalty weights must be nonnegative")
        if not 0.0 <= self.exemplar_fraction <= 1.0:
            raise SpandepError("exemplar_fraction must lie in [0, 1]")

    def lr_at(self, epoch: int) -> float:
        return self.lr0 * self.anneal_factor ** (epoch // self.anneal_every)


@dataclass
class FnInstance:
    id: str
    sentence: Sentence
    parse: FrameParse
    space: CandidateSpace


@dataclass
class DmInstance:
    id: str
    sentence: Sentence
    graph: DependencyGraph
    space: CandidateSpace


Instance = Union[FnInstance, DmInstance]


def _fn_instances(sentences: Iterable[Sentence], ontology: Ontology,
                  limits: SpaceLimits) -> Iterator[FnInstance]:
    """``fn_instances`` one at a time, each space built when it is
    reached."""
    for s in sentences:
        for parse in supervision(s, FrameAnnotations).parses:
            t = parse.target
            yield FnInstance(
                id=f"{s.id}#{t.start}-{t.end}", sentence=s, parse=parse,
                space=build_candidate_space(s, t, ontology, limits))


def fn_instances(sentences: Sequence[Sentence], ontology: Ontology,
                 limits: SpaceLimits) -> List[FnInstance]:
    return list(_fn_instances(sentences, ontology, limits))


def dm_instances(sentences: Sequence[Sentence],
                 limits: SpaceLimits) -> List[DmInstance]:
    out = []
    for s in sentences:
        out.append(DmInstance(
            id=s.id, sentence=s, graph=supervision(s, DependencyGraph),
            space=build_candidate_space(s, None, Ontology({}, {}), limits)))
    return out


@dataclass
class HingeResult:
    """One hinge evaluation.  ``node`` is None when the loss truncates at
    zero, in which case there is nothing to backpropagate.
    ``completion_status`` is the latent completion decode's status, None
    when the gold parts needed no decode."""

    node: Optional[Node]
    value: float
    augmented: DecodeResult
    cross: Optional[Node]
    completion_status: Optional[str] = None

    @property
    def uncertified(self) -> int:
        """How many of this hinge's decodes were not certified exact."""
        return ((self.augmented.status != "exact")
                + (self.completion_status not in (None, "exact")))


def _hinge(g: Graph, scored: SpaceScores, best: DecodeResult,
           plus: np.ndarray, minus: np.ndarray, delta: float,
           completion_status: Optional[str] = None) -> HingeResult:
    """The hinge S(plus) + delta - S(minus) over two part masks, truncated
    at zero, with the node that backpropagates it: +1 on ``plus``, -1 on
    ``minus``."""
    a = plus - minus.astype(float)
    value = float(scored.node.value @ a) + delta
    if value <= 0.0:
        return HingeResult(None, 0.0, best, scored.cross, completion_status)
    node = g.add(g.inner(scored.node, g.input(a)),
                 g.input(np.asarray(delta)))
    return HingeResult(node, value, best, scored.cross, completion_status)


def latent_hinge_loss(model: ParserModel, space: CandidateSpace,
                      gold_parse: FrameParse, g: Optional[Graph] = None,
                      rng: Optional[np.random.Generator] = None,
                      training: bool = False) -> HingeResult:
    g = g if g is not None else Graph()
    scored = model.score_space(g, space, rng=rng, training=training)
    raw = space.with_scores(scored.node.value.copy())
    gold = space.gold_mask(gold_parse)

    best = decode(cost_augment(raw, gold, scope="frames"), mode="joint")
    frames = slice(space.head_ids.start)
    delta = weighted_hamming(best.active[frames], gold[frames])
    comp = decode(raw, mode="latent_completion", gold_parse=gold_parse)
    return _hinge(g, scored, best, best.active, comp.active, delta,
                  comp.status)


def sdp_hinge_loss(model: ParserModel, space: CandidateSpace,
                   gold_graph: DependencyGraph, g: Optional[Graph] = None,
                   rng: Optional[np.random.Generator] = None,
                   training: bool = False) -> HingeResult:
    g = g if g is not None else Graph()
    scored = model.score_space(g, space, rng=rng, training=training)
    raw = space.with_scores(scored.node.value.copy())
    gold = space.gold_mask(gold_graph)

    best = decode(cost_augment(raw, gold, scope="dependencies"),
                  mode="dependencies_only")
    delta = weighted_hamming(best.active, gold)
    return _hinge(g, scored, best, best.active, gold, delta)


def l1_penalty(g: Graph, cross: Optional[Node],
               weight: float) -> Optional[Node]:
    """weight times the sum of absolute cross-task scores, as a node."""
    if cross is None or weight == 0.0:
        return None
    return g.scale(g.sum(g.abs(cross)), weight)


@dataclass
class EpochStats:
    """One epoch's log line.  ``hinge_s``, ``backward_s`` and ``step_s`` are
    the seconds of ``seconds`` spent in the hinge functions (scoring and
    decoding), in backpropagation and in the parameter updates;
    ``uncertified`` counts the training decodes, cost-augmented and latent
    completion alike, that were not certified exact; ``mean_parts`` is the
    mean number of candidate parts of the epoch's training spaces."""

    epoch: int
    lr: float
    mean_loss: float
    dev_fn_f1: float
    dev_sdp_f1: float
    seconds: float
    hinge_s: float
    backward_s: float
    step_s: float
    uncertified: int
    mean_parts: float

    def tsv(self) -> str:
        return (f"{self.epoch}\t{self.lr:.10g}\t{self.mean_loss:.6f}\t"
                f"{self.dev_fn_f1:.4f}\t{self.dev_sdp_f1:.4f}\t"
                f"{self.seconds:.3f}\t{self.hinge_s:.3f}\t"
                f"{self.backward_s:.3f}\t{self.step_s:.3f}\t"
                f"{self.uncertified}\t{self.mean_parts:.1f}")


@dataclass
class TrainResult:
    model: ParserModel
    history: List[EpochStats]
    best_epoch: int
    best_dev_fn_f1: float


# what a prediction pass returns: the predicted sentences, how many decodes
# were not certified exact, and the number of parts of each decoded space
Predictions = Tuple[List[Sentence], int, List[int]]


def _predict_fn(members: Sequence[ParserModel], sentences: Sequence[Sentence],
                spaces: Iterable[CandidateSpace]) -> Predictions:
    """``sentences`` re-annotated with the joint decode of each target's
    space.  The spaces come one per target in sentence order, so parses go
    to sentences by position, even to one sentence object given twice."""
    decoded = []
    uncertified = 0
    sizes = []
    for space in spaces:
        res = decode(_mean_scores(members, space), mode="joint")
        decoded.append(res.parse)
        uncertified += res.status != "exact"
        sizes.append(len(space))
    parses = iter(decoded)
    return [replace(s, supervision=FrameAnnotations(tuple(
                islice(parses, len(s.supervision.parses)))))
            for s in sentences], uncertified, sizes


def _predict_dm(members: Sequence[ParserModel],
                spaces: Iterable[CandidateSpace]) -> Predictions:
    """Each space's sentence carrying its decoded dependency graph."""
    out = []
    uncertified = 0
    sizes = []
    for space in spaces:
        res = decode(_mean_scores(members, space), mode="dependencies_only")
        out.append(replace(space.sentence, supervision=res.graph))
        uncertified += res.status != "exact"
        sizes.append(len(space))
    return out, uncertified, sizes


def _as_members(models) -> List[ParserModel]:
    """The ensemble as a list, after checking that its members share one
    label inventory and one candidate-space contract."""
    members = list(models) if isinstance(models, (list, tuple)) else [models]
    if not members:
        raise SpandepError("empty ensemble")
    first = members[0]
    for m in members[1:]:
        if m.dep_labels != first.dep_labels or \
                m.ontology.frames != first.ontology.frames:
            raise SpandepError("ensemble members disagree on label inventory")
        if m.config.fn_limits(m.dep_labels) != \
                first.config.fn_limits(first.dep_labels):
            raise SpandepError(
                "ensemble members disagree on the candidate space "
                "(max_span_len, joint, include_cross_task)")
    return members


def _mean_scores(members: Sequence[ParserModel],
                 space: CandidateSpace) -> CandidateSpace:
    acc = np.zeros(len(space))
    for m in members:
        acc += m.scored_space(space).scores
    return space.with_scores(acc / len(members))


def ensemble_scores(models, space: CandidateSpace) -> CandidateSpace:
    """Score a space with the arithmetic mean of the members' part scores."""
    return _mean_scores(_as_members(models), space)


def predict_frames(models, sentences: Sequence[Sentence]) -> List[Sentence]:
    """Re-annotate each sentence's targets with decoded frames/arguments.

    Targets and lexical units are taken from the existing annotations; the
    frame and argument set are replaced by the decoder's output, decoded
    over the candidate space the models were trained on.
    """
    return frame_predictions(models, sentences)[0]


def frame_predictions(models, sentences: Sequence[Sentence]) -> Predictions:
    """``predict_frames``'s sentences, how many decodes were not certified
    exact, and the number of parts of each space.  Each space is built just
    before it is scored."""
    members = _as_members(models)
    first = members[0]
    instances = _fn_instances(sentences, first.ontology,
                              first.config.fn_limits(first.dep_labels))
    return _predict_fn(members, list(sentences),
                       (inst.space for inst in instances))


def predict_dependencies(models, sentences: Sequence[Sentence]
                         ) -> List[Sentence]:
    """Replace each sentence's dependency graph with the decoded one."""
    return dependency_predictions(models, sentences)[0]


def dependency_predictions(models, sentences: Sequence[Sentence]
                           ) -> Predictions:
    """``predict_dependencies``'s sentences, how many decodes were not
    certified exact, and the number of parts of each space.  Each space is
    built just before it is scored."""
    members = _as_members(models)
    limits = members[0].config.dm_limits(members[0].dep_labels)
    return _predict_dm(members, (
        build_candidate_space(s, None, Ontology({}, {}), limits)
        for s in sentences))


def train(model: ParserModel,
          fn_train: Sequence[Sentence],
          dm_train: Sequence[Sentence],
          *,
          fn_exemplar: Sequence[Sentence] = (),
          fn_dev: Sequence[Sentence] = (),
          dm_dev: Sequence[Sentence] = (),
          config: TrainConfig = TrainConfig(),
          log_path=None) -> TrainResult:
    """Run the full training loop and restore the best-dev-F1 parameters.

    Candidate spaces and word dropout come from ``model.config``.  A gold
    structure with a part outside its instance's space is an error naming
    the instance, raised before the first step.  Without a frame dev set
    there is nothing to select on, so the final parameters are kept as-is.
    """
    rng = np.random.default_rng(config.seed)

    fn_lim = model.config.fn_limits(model.dep_labels)
    dm_lim = model.config.dm_limits(model.dep_labels)
    fn_insts = fn_instances(fn_train, model.ontology, fn_lim)
    ex_insts = fn_instances(fn_exemplar, model.ontology, fn_lim)
    dm_insts = dm_instances(dm_train, dm_lim)
    if not (fn_insts or ex_insts or dm_insts):
        raise SpandepError("no training instances")
    for inst in (*fn_insts, *ex_insts, *dm_insts):
        try:
            inst.space.gold_mask(inst.parse if isinstance(inst, FnInstance)
                                 else inst.graph)
        except SpandepError as err:
            raise SpandepError(f"training instance {inst.id!r}: {err}") \
                from None
    dev_fn_spaces = [i.space for i in fn_instances(fn_dev, model.ontology,
                                                   fn_lim)]
    dev_dm_spaces = [i.space for i in dm_instances(dm_dev, dm_lim)]

    history: List[EpochStats] = []
    best_f1 = -math.inf
    best_epoch = -1
    best_params = None

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        lr = config.lr_at(epoch)
        sample: List[Instance] = []
        if ex_insts:
            k = math.ceil(config.exemplar_fraction * len(ex_insts))
            picks = rng.choice(len(ex_insts), size=k, replace=False)
            sample = [ex_insts[int(i)] for i in picks]
        pool: List[Instance] = list(fn_insts) + sample + list(dm_insts)
        order = rng.permutation(len(pool))

        losses = []
        hinge_s = backward_s = step_s = 0.0
        uncertified = 0
        for idx in order:
            inst = pool[int(idx)]
            g = Graph()
            t_hinge = time.perf_counter()
            if isinstance(inst, FnInstance):
                res = latent_hinge_loss(model, inst.space, inst.parse, g=g,
                                        rng=rng, training=True)
            else:
                res = sdp_hinge_loss(model, inst.space, inst.graph, g=g,
                                     rng=rng, training=True)
            hinge_s += time.perf_counter() - t_hinge
            # dependency spaces have no cross parts, so no penalty
            pen = l1_penalty(g, res.cross, config.l1_weight)
            value = res.value + (float(pen.value) if pen is not None else 0.0)
            if not np.isfinite(value):
                raise SpandepError(f"non-finite loss at instance {inst.id!r}")
            losses.append(value)
            uncertified += res.uncertified
            node = res.node
            if pen is not None:
                node = pen if node is None else g.add(node, pen)
            if node is not None:
                t_backward = time.perf_counter()
                g.backward(node)
                t_step = time.perf_counter()
                clip_and_step(model.store, lr, config.clip, config.l2)
                backward_s += t_step - t_backward
                step_s += time.perf_counter() - t_step

        dev_fn = dev_sdp = 0.0
        if fn_dev:
            pred, _, _ = _predict_fn([model], list(fn_dev), dev_fn_spaces)
            dev_fn = eval_frames(list(fn_dev), pred, model.ontology).f1
        if dm_dev:
            pred, _, _ = _predict_dm([model], dev_dm_spaces)
            dev_sdp = eval_sdp(list(dm_dev), pred).f1

        stats = EpochStats(epoch=epoch, lr=lr,
                           mean_loss=float(np.mean(losses)) if losses else 0.0,
                           dev_fn_f1=dev_fn, dev_sdp_f1=dev_sdp,
                           seconds=time.perf_counter() - t0,
                           hinge_s=hinge_s, backward_s=backward_s,
                           step_s=step_s, uncertified=uncertified,
                           mean_parts=float(np.mean([len(i.space) for i in pool]))
                           if pool else 0.0)
        history.append(stats)
        if fn_dev and dev_fn > best_f1:
            best_f1 = dev_fn
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.store.values.items()}

    if best_params is not None:
        for name, value in best_params.items():
            model.store.values[name][...] = value
    else:
        best_epoch = len(history) - 1
        best_f1 = history[-1].dev_fn_f1 if history else 0.0

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for st in history:
                fh.write(st.tsv() + "\n")

    return TrainResult(model=model, history=history, best_epoch=best_epoch,
                       best_dev_fn_f1=best_f1)
