"""Wrap points for the traced run, and the per-layer metrics they yield.

Names are looked up where callers resolve them: ``spandep.training``
imports ``decode``, ``cost_augment``, ``build_candidate_space`` and
``clip_and_step`` by name, ``spandep.inference.decode`` imports
``build_factor_graph`` and ``ad3_solve``, and so on.  ``spandep.inference``
re-exports a function named ``decode`` that hides the submodule of the same
name, so the submodules are taken from ``sys.modules``.
"""

from __future__ import annotations

import sys

import numpy as np

import spandep.autodiff
import spandep.encoder
import spandep.formats
import spandep.inference.projections
import spandep.model
import spandep.training

from perfbench.trace import Tracer

MODES = ("joint", "dependencies_only", "latent_completion")
LENGTH_BINS = ((2, 4), (5, 6), (7, 9), (10, 13))

# spans each workload must record, and spans it must not
ALWAYS = ("formats.read", "parts.build_space", "encoder.encode",
          "model.score_space", "decode", "factor_graph.build", "ad3.solve",
          "ad3.clamp")
EXPECTED = {
    "train": ALWAYS + ("decode.cost_augment", "autodiff.backward",
                       "autodiff.step", "formats.save_model",
                       "formats.load_model",
                       "projections.semimarkov_project", "semimarkov.map"),
    "predict-sdp": ALWAYS + ("formats.load_model", "formats.write"),
}
ABSENT = {
    "train": (),
    "predict-sdp": ("autodiff.backward", "autodiff.step",
                    "decode.cost_augment", "projections.semimarkov_project",
                    "semimarkov.map"),
}


def _length_bin(n: int) -> str:
    for lo, hi in LENGTH_BINS:
        if lo <= n <= hi:
            return f"n{lo}-{hi}"
    return "other"


def install(tracer: Tracer) -> None:
    dec_mod = sys.modules["spandep.inference.decode"]
    ad3_mod = sys.modules["spandep.inference.ad3"]
    proj = spandep.inference.projections
    cnt, smp = tracer.counters, tracer.samples
    loops: list[tuple] = []

    def on_space(t, args, kwargs, space, sec):
        cnt["parts.parts"] += len(space.parts)

    def on_encode(t, args, kwargs, hs, sec):
        cnt["encoder.tokens"] += len(args[2])

    def on_score(t, args, kwargs, res, sec):
        cnt["model.parts"] += len(args[2].parts)

    def on_decode(t, args, kwargs, res, sec):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "joint")
        smp["decode.ms." + mode].append(sec * 1000.0)
        smp["decode.ms." + _length_bin(args[0].n)].append(sec * 1000.0)
        cnt["decode.uncertified"] += res.status != "exact"

    def on_graph(t, args, kwargs, g, sec):
        cnt["factor_graph.vars"] += g.nvars
        cnt["factor_graph.factors"] += (len(g.xors) + len(g.amos)
                                        + len(g.imps) + len(g.pairs)
                                        + len(g.semis))

    def on_loop(t, args, kwargs, res, sec):
        iters, certified = res[3], res[4]
        loops.append((iters, iters >= args[0].options.max_iter, certified))

    def on_solve(t, args, kwargs, res, sec):
        if loops:
            cnt["ad3.root_certified"] += loops[0][2]
            cnt["ad3.iterations"] += sum(x[0] for x in loops)
            cnt["ad3.max_iter_hits"] += sum(x[1] for x in loops)
        loops.clear()

    def on_backward(t, args, kwargs, res, sec):
        cnt["autodiff.graph_nodes"] += len(args[0].nodes)

    wrap = tracer.wrap
    for fn in ("read_frames", "read_sdp", "read_ontology"):
        wrap(spandep.formats, fn, "formats.read")
    for fn in ("write_frames", "write_sdp"):
        wrap(spandep.formats, fn, "formats.write")
    wrap(spandep.formats, "save_model", "formats.save_model")
    wrap(spandep.formats, "load_model", "formats.load_model")
    wrap(spandep.training, "build_candidate_space", "parts.build_space",
         on_space)
    wrap(spandep.encoder.Encoder, "encode", "encoder.encode", on_encode)
    wrap(spandep.model.ParserModel, "score_space", "model.score_space",
         on_score)
    wrap(spandep.training, "decode", "decode", on_decode)
    wrap(spandep.training, "cost_augment", "decode.cost_augment")
    wrap(dec_mod, "build_factor_graph", "factor_graph.build", on_graph)
    wrap(dec_mod, "ad3_solve", "ad3.solve", on_solve)
    wrap(ad3_mod, "clamp_graph", "ad3.clamp")
    tracer.observe(ad3_mod._LoopState, "run", on_loop)
    wrap(proj.SemiMarkovProjector, "project",
         "projections.semimarkov_project")
    wrap(proj, "semi_markov_map", "semimarkov.map")
    wrap(ad3_mod, "semi_markov_map", "semimarkov.map")
    wrap(spandep.autodiff.Graph, "backward", "autodiff.backward", on_backward)
    wrap(spandep.training, "clip_and_step", "autodiff.step")


def check_calls(summary: dict, workload: str) -> None:
    """Fail loudly when a wrap point saw no calls where it must, or saw
    calls where the workload must not reach it."""
    dead = [n for n in EXPECTED[workload] if summary[n]["calls"] == 0]
    if dead:
        raise RuntimeError(f"{workload}: no calls seen by {dead}; the wrap "
                           "points no longer match the program")
    stray = [n for n in ABSENT[workload] if summary[n]["calls"] > 0]
    if stray:
        raise RuntimeError(f"{workload}: unexpected calls into {stray}")


def metrics(tracer: Tracer, sentences: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: self seconds per call, counts
    per call or per sentence, and decode latency percentiles."""
    s = tracer.summary()
    cnt, smp = tracer.counters, tracer.samples

    def calls(name):
        return s[name]["calls"]

    def self_per_call(name):
        return s[name]["self_s"] / calls(name) if calls(name) else 0.0

    def per(total, n):
        return total / n if n else 0.0

    def pct(key, q):
        xs = smp.get(key)
        return float(np.percentile(xs, q)) if xs else 0.0

    solves = calls("ad3.solve")
    decodes = calls("decode")
    out = {
        "parts.build_space_s": (self_per_call("parts.build_space"), "s/call"),
        "parts.parts_per_space": (per(cnt["parts.parts"],
                                      calls("parts.build_space")), "parts"),
        "encoder.encode_s": (self_per_call("encoder.encode"), "s/call"),
        "encoder.tokens": (per(cnt["encoder.tokens"],
                               calls("encoder.encode")), "tokens"),
        "encoder.encodes_per_sentence": (per(calls("encoder.encode"),
                                             sentences), "calls/sent"),
        "model.score_space_self_s": (self_per_call("model.score_space"),
                                     "s/call"),
        "model.parts_scored": (per(cnt["model.parts"],
                                   calls("model.score_space")), "parts"),
    }
    for mode in MODES:
        out[f"decode.calls.{mode}"] = (
            per(len(smp.get("decode.ms." + mode, ())), sentences),
            "calls/sent")
        out[f"decode.p50_ms.{mode}"] = (pct("decode.ms." + mode, 50),
                                        "ms/call")
        out[f"decode.p90_ms.{mode}"] = (pct("decode.ms." + mode, 90),
                                        "ms/call")
    for lo, hi in LENGTH_BINS:
        out[f"decode.p50_ms.n{lo}-{hi}"] = (pct(f"decode.ms.n{lo}-{hi}", 50),
                                           "ms/call")
    out.update({
        # every decode's time, the rare slow ones included
        "decode.s_per_sentence": (per(s["decode"]["total_s"], sentences),
                                  "s/sent"),
        "decode.cost_augment_s": (self_per_call("decode.cost_augment"),
                                  "s/call"),
        "decode.uncertified": (per(cnt["decode.uncertified"], decodes),
                               "frac"),
        "factor_graph.build_s": (self_per_call("factor_graph.build"),
                                 "s/call"),
        "factor_graph.vars": (per(cnt["factor_graph.vars"],
                                  calls("factor_graph.build")), "vars"),
        "factor_graph.factors": (per(cnt["factor_graph.factors"],
                                     calls("factor_graph.build")), "factors"),
        "ad3.solve_self_s": (self_per_call("ad3.solve"), "s/call"),
        "ad3.iterations": (per(cnt["ad3.iterations"], solves), "iter/solve"),
        "ad3.max_iter_hits": (per(cnt["ad3.max_iter_hits"], solves),
                              "loops/solve"),
        "ad3.clamp_calls": (per(calls("ad3.clamp"), solves), "calls/solve"),
        "ad3.root_certified_frac": (per(cnt["ad3.root_certified"], solves),
                                    "frac"),
        "projections.semimarkov_project_s": (
            self_per_call("projections.semimarkov_project"), "s/call"),
        "projections.semimarkov_project_calls": (
            per(calls("projections.semimarkov_project"), sentences),
            "calls/sent"),
        "semimarkov.map_s": (self_per_call("semimarkov.map"), "s/call"),
        "semimarkov.map_calls": (per(calls("semimarkov.map"), sentences),
                                 "calls/sent"),
        "autodiff.backward_s": (self_per_call("autodiff.backward"), "s/call"),
        "autodiff.graph_nodes": (per(cnt["autodiff.graph_nodes"],
                                     calls("autodiff.backward")), "nodes"),
        "autodiff.step_s": (self_per_call("autodiff.step"), "s/call"),
        "formats.load_model_s": (self_per_call("formats.load_model"),
                                 "s/call"),
        "formats.save_model_s": (self_per_call("formats.save_model"),
                                 "s/call"),
        "formats.read_s": (self_per_call("formats.read"), "s/call"),
        "formats.write_s": (self_per_call("formats.write"), "s/call"),
    })
    return out
