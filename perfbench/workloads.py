"""Closed-loop workloads: one caller, each request sent after the last.

``train``
    Backward passes and optimizer steps, and the only multi-target input:
    30% of the frame sentences are two-clause sentences with two targets.
    Each request is one ``train()`` call (one epoch) on the next chunk of a
    frame corpus, a resampled exemplar pool and a dependency corpus, with
    the default ``ModelConfig`` and ``TrainConfig`` except ``max_epochs=1``.
    Latency is per training instance.  Dev F1 is taken from a snapshot of
    the parameters after the first ``DEV_AFTER_CHUNKS`` requests, so it does
    not depend on how many requests fit in the run.
``predict-sdp``
    One ``predict_dependencies`` call per dependency sentence, 30% of them
    two-clause.  Scoring and the dependency-only decode dominate; there are
    no semi-Markov or cross-task factors.  The checkpoint is not trained,
    so its numbers move only with code on the predict path.

Basis of the input mix: equal frame and dependency counts follow the
defaults of ``synthetic_corpus`` (``n_fn = n_dm``), and 3 exemplars drawn
from a pool of 6 follow ``TrainConfig.exemplar_fraction``.  The 30%
two-clause share and the pool size are arbitrary: no corpus or figure in
this repository gives a share of multi-target sentences, and
``synthetic_corpus`` makes one target per sentence.

Each workload writes its inputs with ``spandep.formats`` when it is created
and reads them back in ``setup``, the part a user pays before the first
request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spandep.training
from spandep import (
    ModelConfig,
    ParserModel,
    TrainConfig,
    eval_frames,
    eval_sdp,
    formats,
    predict_dependencies,
    predict_frames,
    train,
)

from perfbench import checks
from perfbench.inputs import Spec, describe, generate, write_inputs
from perfbench.trace import Tracer

DEV_AFTER_CHUNKS = 6
# Models draw their initial parameters from this fixed seed; the workload
# seed picks the data.  Decode cost differs by 2x between initializations,
# which would swamp the variation between inputs.
MODEL_SEED = 0


def dep_labels(sentences) -> tuple:
    """Labels of a dependency corpus, as ``spandep train`` collects them."""
    return tuple(sorted({lab for s in sentences
                         for (_, _, lab) in s.supervision.arcs}))


@dataclass
class Pass:
    """What one pass over the requests produced."""

    requests: int = 0
    sentences: int = 0
    instances: int = 0
    latencies: list = field(default_factory=list)
    # (sentences, seconds, latencies) of each request
    per_request: list = field(default_factory=list)
    # seconds of each probe, run before the first request and after each
    probes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


class Workload:
    name = ""
    spec = Spec()
    # a timed run sends at least this many requests, however long they take
    min_requests = 1

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.corpora = generate(seed, self.spec)
        self.paths = write_inputs(self.corpora, work_dir / "inputs")

    def describe(self) -> dict:
        return {k: describe(v) for k, v in self.corpora.items()
                if k != "ontology" and v}

    def observe(self, tracer: Tracer) -> None:
        """Attach the observers the requests read; ``tracer.restore()``
        detaches them."""

    def setup(self):
        raise NotImplementedError

    def request(self, state, i: int, out: Pass) -> None:
        raise NotImplementedError

    def finish(self, state, out: Pass) -> None:
        """Write outputs after the loop; part of the traced pass."""

    def quality(self, state, out: Pass) -> dict:
        """F1 figures and output checks, after timing ends."""
        raise NotImplementedError


class Train(Workload):
    name = "train"
    CHUNKS = 60
    # per chunk: 10 frame sentences, 3 of them two-clause (13 clauses), an
    # exemplar pool of 6 (3 drawn per epoch) and 10 dependency sentences
    FN, FN_CLAUSES, EX, DM = 10, 13, 6, 10
    spec = Spec(fn_train=FN_CLAUSES * CHUNKS, fn_exemplar=EX * CHUNKS,
                dm_train=DM * CHUNKS, fn_dev=20, dm_dev=20, fn_joined=0.3)
    config = TrainConfig(max_epochs=1)
    min_requests = DEV_AFTER_CHUNKS

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        # start time of every training instance: each computes one loss
        self.stamps: list[float] = []

    def observe(self, tracer: Tracer) -> None:
        def stamp(t, args, kwargs, result, seconds):
            self.stamps.append(time.perf_counter() - seconds)

        tracer.observe(spandep.training, "latent_hinge_loss", stamp)
        tracer.observe(spandep.training, "sdp_hinge_loss", stamp)

    def setup(self):
        ont = formats.read_ontology(self.paths["ontology"])
        fn = formats.read_frames(self.paths["fn_train"], ont)
        ex = formats.read_frames(self.paths["fn_exemplar"], ont)
        dm = formats.read_sdp(self.paths["dm_train"])
        model = ParserModel.build(ModelConfig(), ont, dep_labels(dm),
                                  fn + ex + dm,
                                  np.random.default_rng(MODEL_SEED))
        chunks = [(fn[i * self.FN:(i + 1) * self.FN],
                   ex[i * self.EX:(i + 1) * self.EX],
                   dm[i * self.DM:(i + 1) * self.DM])
                  for i in range(self.CHUNKS)]
        return {"model": model, "chunks": chunks, "snapshot": None}

    def request(self, state, i: int, out: Pass) -> None:
        fn, ex, dm = state["chunks"][i % self.CHUNKS]
        first = len(self.stamps)
        train(state["model"], fn, dm, fn_exemplar=ex, config=self.config)
        stamps = self.stamps[first:] + [time.perf_counter()]
        out.latencies.extend(np.diff(stamps) * 1000.0)
        n_ex = int(np.ceil(self.config.exemplar_fraction * len(ex)))
        out.sentences += len(fn) + n_ex + len(dm)
        out.instances += len(stamps) - 1
        if i + 1 == DEV_AFTER_CHUNKS:
            state["snapshot"] = {k: v.copy() for k, v in
                                 state["model"].store.values.items()}

    def finish(self, state, out: Pass) -> None:
        path = self.work_dir / "trained.zip"
        formats.save_model(state["model"], path)
        state["reloaded"] = formats.load_model(path, state["model"].ontology)

    def quality(self, state, out: Pass) -> dict:
        model = state["model"]
        checks.check_same_params(model, state["reloaded"])
        if state["snapshot"] is None:
            raise AssertionError(f"fewer than {DEV_AFTER_CHUNKS} requests ran")
        for k, v in state["snapshot"].items():
            model.store.values[k][...] = v
        fn_dev, dm_dev = self.corpora["fn_dev"], self.corpora["dm_dev"]
        fn_pred = predict_frames([model], fn_dev)
        checks.check_one_parse_per_target(fn_dev, fn_pred)
        dm_pred = predict_dependencies([model], dm_dev)
        return {"dev_fn_f1": eval_frames(fn_dev, fn_pred, model.ontology).f1,
                "dev_sdp_f1": eval_sdp(dm_dev, dm_pred).f1}


class PredictSdp(Workload):
    """Cycle through the dependency sentences, one request each."""

    name = "predict-sdp"
    spec = Spec(fn_train=100, dm_train=800, dm_joined=0.3)
    # p90 latency needs at least 100 requests; ``out_f1`` scores the first
    # 100 outputs against the gold annotations of the requests
    min_requests = 100

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        c = self.corpora
        model = ParserModel.build(ModelConfig(), c["ontology"],
                                  dep_labels(c["dm_train"]),
                                  c["fn_train"] + c["dm_train"],
                                  np.random.default_rng(MODEL_SEED))
        self.model_path = work_dir / "model.zip"
        formats.save_model(model, self.model_path)

    def setup(self):
        ont = formats.read_ontology(self.paths["ontology"])
        return {"model": formats.load_model(self.model_path, ont),
                "requests": formats.read_sdp(self.paths["dm_train"])}

    def request(self, state, i: int, out: Pass) -> None:
        reqs = state["requests"]
        sent = reqs[i % len(reqs)]
        t0 = time.perf_counter()
        (pred,) = predict_dependencies([state["model"]], [sent])
        out.latencies.append((time.perf_counter() - t0) * 1000.0)
        if i < len(reqs):  # later cycles repeat the same requests
            out.outputs.append(pred)
        out.sentences += 1
        out.instances += 1

    def finish(self, state, out: Pass) -> None:
        path = self.work_dir / "pred.sdp"
        formats.write_sdp(out.outputs, path)
        state["read_back"] = formats.read_sdp(path)

    def quality(self, state, out: Pass) -> dict:
        checks.check_same(out.outputs, state["read_back"])
        k = self.min_requests
        return {"out_f1": eval_sdp(state["requests"][:k],
                                   out.outputs[:k]).f1}


WORKLOADS = {w.name: w for w in (Train, PredictSdp)}
