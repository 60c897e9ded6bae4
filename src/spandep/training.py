"""Max-margin training over disjoint corpora, plus prediction helpers.

Frame-annotated sentences carry no dependency supervision, so their loss
maximizes over the dependency side: L = max_{y,z}(S(y,z) + d(y, y*)) -
max_z S(y*, z), where d is the weighted Hamming cost over frame parts.
Dependency sentences use the ordinary structured hinge.  Both maxima are
computed by the exact decoder, so a single subgradient rule covers all
instances: +1 on the parts of the cost-augmented argmax, -1 on the parts
of the gold completion.

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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .autodiff import Graph, Node, clip_and_step
from .evaluation import eval_frames, eval_sdp
from .inference.decode import DecodeResult, cost_augment, decode
from .model import ParserModel, SpaceScores
from .parts import (
    CandidateSpace,
    CostConfig,
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpaceLimits,
    SpandepError,
    build_candidate_space,
    dep_parts,
    frame_parts,
    weighted_hamming,
    FRAME_PART_TYPES,
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


def fn_instances(sentences: Sequence[Sentence], ontology: Ontology,
                 limits: SpaceLimits) -> List[FnInstance]:
    out = []
    for s in sentences:
        if not isinstance(s.supervision, FrameAnnotations):
            raise SpandepError(f"sentence {s.id!r} carries no frame annotations")
        for parse in s.supervision.parses:
            t = parse.target
            out.append(FnInstance(
                id=f"{s.id}#{t.start}-{t.end}", sentence=s, parse=parse,
                space=build_candidate_space(s, t, ontology, limits)))
    return out


def dm_instances(sentences: Sequence[Sentence],
                 limits: SpaceLimits) -> List[DmInstance]:
    out = []
    for s in sentences:
        if not isinstance(s.supervision, DependencyGraph):
            raise SpandepError(f"sentence {s.id!r} carries no dependency graph")
        out.append(DmInstance(
            id=s.id, sentence=s, graph=s.supervision,
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
    completion_parts: frozenset
    cross: Optional[Node]
    completion_status: Optional[str] = None

    @property
    def uncertified(self) -> int:
        """How many of this hinge's decodes were not certified exact."""
        return ((self.augmented.status != "exact")
                + (self.completion_status not in (None, "exact")))


def _part_sum(space: CandidateSpace, scores: np.ndarray, parts) -> float:
    return float(sum(scores[space.part_to_id[p]] for p in parts))


def _with_cross(space: CandidateSpace, parts) -> set:
    """Close a decoded part set over its pair parts.

    The decoder reports structural parts only; a cross-task score fires
    whenever its argument and its arc are both active, so those parts are
    added here to make plain part sums equal the decoder's objective."""
    full = set(parts)
    for cid in space.cross_ids:
        c = space.parts[cid]
        if space.parts[c.arg_id] in full and space.parts[c.arc_id] in full:
            full.add(c)
    return full


def _hinge(g: Graph, scored: SpaceScores, space: CandidateSpace,
           best: DecodeResult, plus, minus, delta: float,
           completion_status: Optional[str] = None) -> HingeResult:
    """The hinge S(plus) + delta - S(minus), truncated at zero, with the
    node that backpropagates it: +1 on ``plus``, -1 on ``minus``."""
    raw_scores = scored.node.value
    value = (_part_sum(space, raw_scores, plus) + delta
             - _part_sum(space, raw_scores, minus))
    if value <= 0.0:
        return HingeResult(None, 0.0, best, frozenset(minus), scored.cross,
                           completion_status)
    a = np.zeros(len(space.parts))
    for p in plus:
        a[space.part_to_id[p]] += 1.0
    for p in minus:
        a[space.part_to_id[p]] -= 1.0
    node = g.add(g.inner(scored.node, g.input(a)),
                 g.input(np.asarray(delta)))
    return HingeResult(node, value, best, frozenset(minus), scored.cross,
                       completion_status)


def latent_hinge_loss(model: ParserModel, space: CandidateSpace,
                      gold_parse: FrameParse, g: Optional[Graph] = None,
                      rng: Optional[np.random.Generator] = None,
                      training: bool = False,
                      cost: CostConfig = CostConfig()) -> HingeResult:
    g = g if g is not None else Graph()
    scored = model.score_space(g, space, rng=rng, training=training)
    raw = space.with_scores(scored.node.value.copy())
    gold = frame_parts(space, gold_parse)

    best = decode(cost_augment(raw, gold, cost, scope="frames"), mode="joint")
    delta = weighted_hamming(
        [p for p in best.parts if isinstance(p, FRAME_PART_TYPES)], gold, cost)
    comp = decode(raw, mode="latent_completion", gold_parse=gold_parse)
    return _hinge(g, scored, space, best, _with_cross(space, best.parts),
                  _with_cross(space, comp.parts), delta, comp.status)


def sdp_hinge_loss(model: ParserModel, space: CandidateSpace,
                   gold_graph: DependencyGraph, g: Optional[Graph] = None,
                   rng: Optional[np.random.Generator] = None,
                   training: bool = False,
                   cost: CostConfig = CostConfig()) -> HingeResult:
    g = g if g is not None else Graph()
    scored = model.score_space(g, space, rng=rng, training=training)
    raw = space.with_scores(scored.node.value.copy())
    gold = dep_parts(space, gold_graph)

    best = decode(cost_augment(raw, gold, cost, scope="dependencies"),
                  mode="dependencies_only")
    delta = weighted_hamming(best.parts, gold, cost)
    return _hinge(g, scored, space, best, best.parts, gold, delta)


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
    completion alike, that were not certified exact."""

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

    def tsv(self) -> str:
        return (f"{self.epoch}\t{self.lr:.10g}\t{self.mean_loss:.6f}\t"
                f"{self.dev_fn_f1:.4f}\t{self.dev_sdp_f1:.4f}\t"
                f"{self.seconds:.3f}\t{self.hinge_s:.3f}\t"
                f"{self.backward_s:.3f}\t{self.step_s:.3f}\t"
                f"{self.uncertified}")


@dataclass
class TrainResult:
    model: ParserModel
    history: List[EpochStats]
    best_epoch: int
    best_dev_fn_f1: float


def _predict_fn(models: Sequence[ParserModel], sentences: Sequence[Sentence],
                instances: Sequence[FnInstance]) -> Tuple[List[Sentence], int]:
    """The re-annotated sentences, and how many decodes were not certified
    exact."""
    parses: dict[int, list] = {id(s): [] for s in sentences}
    uncertified = 0
    for inst in instances:
        scored = ensemble_scores(models, inst.space)
        res = decode(scored, mode="joint")
        parses[id(inst.sentence)].append(res.parse)
        uncertified += res.status != "exact"
    return [replace(s, supervision=FrameAnnotations(tuple(parses[id(s)])))
            for s in sentences], uncertified


def _predict_dm(models: Sequence[ParserModel], instances: Sequence[DmInstance]
                ) -> Tuple[List[Sentence], int]:
    out = []
    uncertified = 0
    for inst in instances:
        scored = ensemble_scores(models, inst.space)
        res = decode(scored, mode="dependencies_only")
        out.append(replace(inst.sentence, supervision=res.graph))
        uncertified += res.status != "exact"
    return out, uncertified


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


def ensemble_scores(models, space: CandidateSpace) -> CandidateSpace:
    """Score a space with the arithmetic mean of the members' part scores."""
    members = _as_members(models)
    acc = np.zeros(len(space.parts))
    for m in members:
        acc += m.scored_space(space).scores
    return space.with_scores(acc / len(members))


def predict_frames(models, sentences: Sequence[Sentence]) -> List[Sentence]:
    """Re-annotate each sentence's targets with decoded frames/arguments.

    Targets and lexical units are taken from the existing annotations; the
    frame and argument set are replaced by the decoder's output, decoded
    over the candidate space the models were trained on.
    """
    return frame_predictions(models, sentences)[0]


def frame_predictions(models, sentences: Sequence[Sentence]
                      ) -> Tuple[List[Sentence], int]:
    """``predict_frames``'s sentences, and how many decodes were not
    certified exact."""
    members = _as_members(models)
    first = members[0]
    instances = fn_instances(sentences, first.ontology,
                             first.config.fn_limits(first.dep_labels))
    return _predict_fn(members, list(sentences), instances)


def predict_dependencies(models, sentences: Sequence[Sentence]
                         ) -> List[Sentence]:
    """Replace each sentence's dependency graph with the decoded one."""
    return dependency_predictions(models, sentences)[0]


def dependency_predictions(models, sentences: Sequence[Sentence]
                           ) -> Tuple[List[Sentence], int]:
    """``predict_dependencies``'s sentences, and how many decodes were not
    certified exact."""
    members = _as_members(models)
    limits = members[0].config.dm_limits(members[0].dep_labels)
    have_gold = all(isinstance(s.supervision, DependencyGraph)
                    for s in sentences)
    if have_gold:
        instances = dm_instances(sentences, limits)
    else:
        instances = [DmInstance(s.id, s, DependencyGraph(frozenset()),
                                build_candidate_space(s, None, Ontology({}, {}),
                                                      limits))
                     for s in sentences]
    return _predict_dm(members, instances)


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

    Candidate spaces and word dropout come from ``model.config``.  Without
    a frame dev set there is nothing to select on, so the final parameters
    are kept as-is.
    """
    rng = np.random.default_rng(config.seed)
    model.store.l2 = config.l2
    model.store.clip = config.clip

    fn_lim = model.config.fn_limits(model.dep_labels)
    dm_lim = model.config.dm_limits(model.dep_labels)
    fn_insts = fn_instances(fn_train, model.ontology, fn_lim)
    ex_insts = fn_instances(fn_exemplar, model.ontology, fn_lim)
    dm_insts = dm_instances(dm_train, dm_lim)
    if not (fn_insts or ex_insts or dm_insts):
        raise SpandepError("no training instances")
    dev_fn_insts = fn_instances(fn_dev, model.ontology, fn_lim)
    dev_dm_insts = dm_instances(dm_dev, dm_lim)

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
                clip_and_step(model.store, lr)
                backward_s += t_step - t_backward
                step_s += time.perf_counter() - t_step

        dev_fn = dev_sdp = 0.0
        if fn_dev:
            pred, _ = _predict_fn([model], list(fn_dev), dev_fn_insts)
            dev_fn = eval_frames(list(fn_dev), pred, model.ontology).f1
        if dm_dev:
            pred, _ = _predict_dm([model], dev_dm_insts)
            dev_sdp = eval_sdp(list(dm_dev), pred).f1

        stats = EpochStats(epoch=epoch, lr=lr,
                           mean_loss=float(np.mean(losses)) if losses else 0.0,
                           dev_fn_f1=dev_fn, dev_sdp_f1=dev_sdp,
                           seconds=time.perf_counter() - t0,
                           hinge_s=hinge_s, backward_s=backward_s,
                           step_s=step_s, uncertified=uncertified)
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
