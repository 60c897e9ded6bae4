"""A recorded training trajectory: a seeded ``train()`` run must reproduce,
exactly, the per-epoch mean loss and dev F1 (as ``repr``), the SHA-256 of
every parameter array after each epoch, and the objective and status of
every decode it makes, in order.

The run is small: a tiny two-layer BiLSTM model with word dropout on, and a
seeded ``synthetic_corpus`` of frame, exemplar and SDP sentences, over four
epochs whose learning rate halves each epoch.  A change that moves any
rounding in scoring, decoding, backward or the step moves a hash here.  A
change that does so on purpose re-records ``trajectory_golden.json`` with
``python -m tests.test_trajectory > tests/trajectory_golden.json``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import spandep.training as tr
from spandep.model import ModelConfig, ParserModel
from spandep.synthetic import synthetic_corpus

FIXTURE = Path(__file__).with_name("trajectory_golden.json")
CONFIG = ModelConfig(word_dim=6, lemma_dim=3, pos_dim=3, mlp_dim=5, rank=3,
                     label_dim=3, bilstm_layers=2, bilstm_dim=6,
                     word_dropout=1.0)
TRAIN = tr.TrainConfig(max_epochs=4, anneal_every=1, seed=5)


def trajectory() -> dict:
    """The recorded run."""
    corpus = synthetic_corpus(np.random.default_rng(11), n_fn=6, n_dm=6,
                              n_fn_dev=3, n_dm_dev=3)
    exemplars = synthetic_corpus(np.random.default_rng(12), n_fn=4, n_dm=0,
                                 n_fn_dev=0, n_dm_dev=0)["fn_train"]
    model = ParserModel.build(
        CONFIG, corpus["ontology"], corpus["dep_labels"],
        corpus["fn_train"] + corpus["dm_train"] + exemplars,
        np.random.default_rng(13))

    decodes, params = [], []

    def decode(space, *args, **kwargs):
        res = real_decode(space, *args, **kwargs)
        decodes.append([kwargs.get("mode", "joint"), res.status,
                        res.objective.hex()])
        return res

    def eval_frames(gold, pred, ontology):
        # each epoch's frame dev pass runs after its last step
        params.append({k: hashlib.sha256(v.tobytes()).hexdigest()
                       for k, v in sorted(model.store.values.items())})
        return real_eval_frames(gold, pred, ontology)

    real_decode, real_eval_frames = tr.decode, tr.eval_frames
    tr.decode, tr.eval_frames = decode, eval_frames
    try:
        res = tr.train(model, corpus["fn_train"], corpus["dm_train"],
                       fn_exemplar=exemplars, fn_dev=corpus["fn_dev"],
                       dm_dev=corpus["dm_dev"], config=TRAIN)
    finally:
        tr.decode, tr.eval_frames = real_decode, real_eval_frames
    return {
        "epochs": [{"mean_loss": repr(st.mean_loss),
                    "dev_fn_f1": repr(st.dev_fn_f1),
                    "dev_sdp_f1": repr(st.dev_sdp_f1),
                    "params": p}
                   for st, p in zip(res.history, params)],
        "decodes": decodes,
    }


def test_training_trajectory_matches_the_recording():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = trajectory()
    assert len(got["epochs"]) == len(want["epochs"]) == TRAIN.max_epochs
    for e, (g, w) in enumerate(zip(got["epochs"], want["epochs"])):
        for key in ("mean_loss", "dev_fn_f1", "dev_sdp_f1"):
            assert g[key] == w[key], f"epoch {e}: {key}"
        moved = sorted(k for k in w["params"] if g["params"].get(k)
                       != w["params"][k])
        assert g["params"].keys() == w["params"].keys()
        assert not moved, f"epoch {e}: parameters moved: {moved}"
    assert len(got["decodes"]) == len(want["decodes"])
    for k, (g, w) in enumerate(zip(got["decodes"], want["decodes"])):
        assert g == w, f"decode {k}"


if __name__ == "__main__":
    print(json.dumps(trajectory(), indent=1))
