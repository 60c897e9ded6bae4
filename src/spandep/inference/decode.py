"""Decoding entry points: joint MAP, dependency-only MAP, and completion of
the latent dependency structure under a fixed frame parse.

Also provides the score shift that turns the solver into a cost-augmented
decoder (maximizing model score plus weighted Hamming distance to a gold
part set) and a filter dropping near-zero cross-task interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..parts import (
    DEP_PART_TYPES,
    FRAME_PART_TYPES,
    CandidateSpace,
    CostConfig,
    CrossTask,
    DependencyGraph,
    FrameParse,
    SpandepError,
    assemble_structures,
    frame_parts,
)
from .ad3 import ad3_solve
from .factor_graph import GraphConstraints, build_factor_graph


@dataclass
class DecodeResult:
    parse: Optional[FrameParse]
    graph: DependencyGraph
    parts: frozenset
    objective: float
    status: str
    iterations: int


def decode(space: CandidateSpace,
           constraints: GraphConstraints = GraphConstraints(),
           mode: str = "joint",
           gold_parse: Optional[FrameParse] = None) -> DecodeResult:
    """MAP decoding over a scored candidate space.

    ``joint`` decodes frames and dependencies together, ``dependencies_only``
    drops the frame side entirely, and ``latent_completion`` pins the frame
    variables to ``gold_parse`` and completes the best dependency structure
    (cross-task scores for pinned arguments become arc bonuses).
    ``constraints`` is unused; kept only because perfbench/checks.py:73-74
    binds it by name.
    """
    if mode not in ("joint", "dependencies_only", "latent_completion"):
        raise SpandepError(f"unknown decode mode {mode!r}")
    include_frames = mode != "dependencies_only"
    fg = build_factor_graph(space, include_frames=include_frames)

    fixed = None
    if mode == "latent_completion":
        if gold_parse is None:
            raise SpandepError("latent completion requires a gold frame parse")
        gold = frame_parts(space, gold_parse)
        var_of = {part: v for v, part in enumerate(fg.labels)}
        fixed = {var_of[part]: part in gold
                 for part in var_of
                 if isinstance(part, FRAME_PART_TYPES)}

    res = ad3_solve(fg, fixed=fixed)
    parse, graph = assemble_structures(space, res.assignment)
    return DecodeResult(parse=parse, graph=graph, parts=res.assignment,
                        objective=res.objective, status=res.status,
                        iterations=res.iterations)


def cost_augment(space: CandidateSpace, gold_parts,
                 cost: CostConfig = CostConfig(), *,
                 scope: str) -> CandidateSpace:
    """Shift scores so MAP decoding maximizes score + weighted Hamming to gold.

    Every in-scope candidate part gains the false-positive cost when absent
    from ``gold_parts`` and loses the false-negative cost when present; the
    gold-only constant term is dropped, so callers wanting the exact distance
    should recompute it from the decoded parts.  ``scope`` limits the shift
    to one side of the task ("frames" or "dependencies") or covers both
    ("all").
    """
    gold = set(gold_parts)
    if scope == "frames":
        types = FRAME_PART_TYPES
    elif scope == "dependencies":
        types = DEP_PART_TYPES
    elif scope == "all":
        types = FRAME_PART_TYPES + DEP_PART_TYPES
    else:
        raise SpandepError(f"unknown cost scope {scope!r}")

    bad = [p for p in gold if not isinstance(p, types)]
    if bad:
        raise SpandepError(f"gold parts outside cost scope: {sorted(map(str, bad))}")
    shift = np.zeros(len(space.parts))
    for i, part in enumerate(space.parts):
        if not isinstance(part, types):
            continue
        if part in gold:
            shift[i] = -cost.false_negative_cost
        else:
            shift[i] = cost.false_positive_cost
    return space.with_scores(space.scores + shift)


def drop_sparse_cross_task(space: CandidateSpace, tol: float = 1e-3) -> CandidateSpace:
    """Remove cross-task parts whose score magnitude is at most ``tol``.

    Cross-task parts sit after all structural parts, so the surviving parts
    keep their indices and stored part references stay valid.
    """
    keep = [i for i, part in enumerate(space.parts)
            if not isinstance(part, CrossTask) or abs(space.scores[i]) > tol]
    if len(keep) == len(space.parts):
        return space
    parts = tuple(space.parts[i] for i in keep)
    scores = space.scores[np.asarray(keep, dtype=int)].copy()
    return CandidateSpace(space.sentence, space.target, space.frames,
                          parts, scores)
