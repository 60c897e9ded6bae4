"""Decoding entry points: joint MAP, dependency-only MAP, and completion of
the latent dependency structure under a fixed frame parse.

Also provides the score shift that turns the solver into a cost-augmented
decoder (maximizing model score plus weighted Hamming distance to a gold
part mask) and a filter dropping near-zero cross-task interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..parts import (
    FN_COST,
    FP_COST,
    SPACE_ARRAYS,
    CandidateSpace,
    DependencyGraph,
    FrameParse,
    SpandepError,
    assemble_structures,
)
from .ad3 import ad3_solve
from .factor_graph import GraphConstraints, build_factor_graph


@dataclass
class DecodeResult:
    """``active`` is the decoded structure as a mask over the space's parts,
    its cross-task bits set where both ends are active, so that
    ``space.scores @ active`` is ``objective``."""

    parse: Optional[FrameParse]
    graph: DependencyGraph
    active: np.ndarray
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
    # the graph's variables are the space's ids from ``first`` to the cross
    # parts
    first = 0 if include_frames else space.head_ids.start
    structural = slice(first, space.cross_ids.start)

    fixed = None
    if mode == "latent_completion":
        if gold_parse is None:
            raise SpandepError("latent completion requires a gold frame parse")
        gold = space.gold_mask(gold_parse)
        fixed = dict(enumerate(gold[:space.head_ids.start].tolist()))

    res = ad3_solve(fg, fixed=fixed)
    active = np.zeros(len(space), dtype=bool)
    active[structural] = res.active
    space.close_pairs(active)
    parse, graph = assemble_structures(space, active)
    return DecodeResult(parse=parse, graph=graph, active=active,
                        objective=res.objective, status=res.status,
                        iterations=res.iterations)


def cost_augment(space: CandidateSpace, gold: np.ndarray, *,
                 scope: str) -> CandidateSpace:
    """Shift scores so MAP decoding maximizes score + weighted Hamming to the
    gold part mask.

    Every in-scope candidate part gains ``FP_COST`` when outside ``gold``
    and loses ``FN_COST`` when in it; the gold-only constant term is
    dropped, so callers wanting the exact distance should recompute it from
    the decoded mask.  ``scope`` limits the shift to one side of the task,
    "frames" or "dependencies".
    """
    frames_end = space.head_ids.start
    spans = {"frames": (0, frames_end),
             "dependencies": (frames_end, space.cross_ids.start)}
    if scope not in spans:
        raise SpandepError(f"unknown cost scope {scope!r}")
    lo, hi = spans[scope]
    outside = np.flatnonzero(gold)
    outside = outside[(outside < lo) | (outside >= hi)]
    if len(outside):
        raise SpandepError("gold parts outside cost scope: "
                           f"{sorted(str(space.parts[i]) for i in outside)}")
    shift = np.zeros(len(space))
    shift[lo:hi] = np.where(gold[lo:hi], -FN_COST, FP_COST)
    return space.with_scores(space.scores + shift)


def drop_sparse_cross_task(space: CandidateSpace, tol: float = 1e-3) -> CandidateSpace:
    """Remove cross-task parts whose score magnitude is at most ``tol``.

    Cross-task parts sit after all structural parts, so the surviving parts
    keep their indices and stored part references stay valid.
    """
    start = space.cross_ids.start
    keep = np.abs(space.scores[start:]) > tol
    if keep.all():
        return space
    arrays = {name: getattr(space, name) for name in SPACE_ARRAYS}
    arrays["cross_arg"] = space.cross_arg[keep]
    arrays["cross_arc"] = space.cross_arc[keep]
    scores = np.concatenate((space.scores[:start], space.scores[start:][keep]))
    return CandidateSpace.from_arrays(space.sentence, space.target,
                                      space.frames, space.roles, space.labels,
                                      scores, **arrays)
