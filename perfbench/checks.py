"""Output checks, run outside the timed section.

Every decode made during a run is recorded by ``DecodeLog``.  A decode fails
if its status is not ``exact``, or if its objective misses the exact optimum
of ``exhaustive_joint_map`` by more than ``TOLERANCE`` where that oracle fits
its budget.  Decodes made in ``latent_completion`` mode are checked against
the oracle on a copy of the space that keeps only the gold frame parts, each
lifted by a constant so that every optimum keeps all of them.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import spandep.training
from spandep.inference import GraphConstraints, exhaustive_joint_map
from spandep.parts import (
    FRAME_PART_TYPES,
    CandidateSpace,
    CrossTask,
    FrameAnnotations,
    FrameParse,
    frame_parts,
)

from perfbench.trace import Tracer

TOLERANCE = 1e-6
# Decodes whose spaces are kept for the oracle (the first of each run), and
# the enumeration steps the oracle may take for one of them: it is
# exponential in sentence length.
ORACLE_KEEP = 150
ORACLE_BUDGET = 40_000
# Score lift that pins gold frame parts in the latent-completion oracle.
PIN = 1e4


@dataclass
class DecodeRecord:
    mode: str
    n: int
    status: str
    objective: float
    # kept for the first ORACLE_KEEP decodes only
    space: Optional[CandidateSpace] = None
    constraints: Optional[GraphConstraints] = None
    gold_parse: Optional[FrameParse] = None


@dataclass
class DecodeLog:
    """Records the result of every decode ``spandep.training`` makes; attach
    it with ``Tracer.observe`` and detach it with ``Tracer.restore``."""

    records: list = field(default_factory=list)

    def observe(self, tracer: Tracer) -> None:
        bind = inspect.signature(spandep.training.decode).bind
        records = self.records

        def record(t, args, kwargs, res, seconds):
            call = bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            rec = DecodeRecord(a["mode"], a["space"].n, res.status,
                               res.objective)
            if len(records) < ORACLE_KEEP:
                rec.space, rec.constraints, rec.gold_parse = \
                    a["space"], a["constraints"], a["gold_parse"]
            records.append(rec)

        tracer.observe(spandep.training, "decode", record)


def _count_argsets(items) -> int:
    """Sets of pairwise non-overlapping (start, end) items, counted by DP
    over start positions (the count ``exhaustive_joint_map`` enumerates)."""
    if not items:
        return 1
    n = max(j for _, j in items) + 2
    by_start: dict[int, list[int]] = {}
    for i, j in items:
        by_start.setdefault(i, []).append(j)
    count = [0] * (n + 1)
    count[n] = 1
    for i in range(n - 1, -1, -1):
        count[i] = count[i + 1] + sum(count[j + 1] for j in by_start.get(i, ()))
    return count[0]


def oracle_cost(space: CandidateSpace) -> int:
    """Enumeration steps of ``exhaustive_joint_map``: label combinations
    over each head's arcs, and argument sets times target-head arcs."""
    heads: dict[int, list[int]] = {}
    for pid in space.arc_ids:
        heads.setdefault(space.parts[pid].head, []).append(
            1 + max(1, len(space.labels_for_arc.get(pid, ()))))
    cost = sum(int(np.prod(opts, dtype=float)) for opts in heads.values())
    if space.target is not None:
        t1_arcs = len(heads.get(space.target.start, ()))
        for f in space.frames:
            items = [(space.parts[i].start, space.parts[i].end)
                     for i in space.argument_ids if space.parts[i].frame == f]
            cost += _count_argsets(items) * (1 + t1_arcs)
    return cost


def pinned_space(space: CandidateSpace, gold: FrameParse) -> CandidateSpace:
    """The space restricted to the gold frame parts (lifted by ``PIN``), so
    that its joint optimum is the latent completion of ``gold``."""
    keep_frame = frame_parts(space, gold)
    keep = [i for i, p in enumerate(space.parts)
            if not isinstance(p, FRAME_PART_TYPES + (CrossTask,))
            or p in keep_frame]
    new_id = {old: new for new, old in enumerate(keep)}
    parts = [space.parts[i] for i in keep]
    scores = [float(space.scores[i]) + (PIN if space.parts[i] in keep_frame
                                        else 0.0) for i in keep]
    for i in space.cross_ids:
        c = space.parts[i]
        if c.arg_id in new_id:
            parts.append(CrossTask(new_id[c.arg_id], new_id[c.arc_id]))
            scores.append(float(space.scores[i]))
    return CandidateSpace(space.sentence, space.target, space.frames,
                          tuple(parts), np.array(scores))


def oracle_objective(rec: DecodeRecord) -> float:
    space = rec.space
    if rec.mode == "latent_completion":
        n_pinned = len(frame_parts(space, rec.gold_parse))
        _, obj = exhaustive_joint_map(pinned_space(space, rec.gold_parse),
                                      rec.constraints)
        return obj - PIN * n_pinned
    _, obj = exhaustive_joint_map(space, rec.constraints)
    return obj


@dataclass
class DecodeCheck:
    attempted: int
    failed: int
    uncertified: int
    oracle_checked: int
    oracle_skipped: int
    oracle_misses: int
    exact_misses: int
    max_gap: float
    seconds: float

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 1.0


def check_decodes(records: list[DecodeRecord]) -> DecodeCheck:
    t0 = time.perf_counter()
    failed = uncertified = checked = misses = exact_misses = 0
    max_gap = 0.0
    for rec in records:
        bad = rec.status != "exact"
        uncertified += bad
        if rec.space is not None and oracle_cost(rec.space) <= ORACLE_BUDGET:
            checked += 1
            gap = oracle_objective(rec) - rec.objective
            max_gap = max(max_gap, gap)
            if gap > TOLERANCE:
                misses += 1
                exact_misses += not bad
                bad = True
        failed += bad
    return DecodeCheck(attempted=len(records), failed=failed,
                       uncertified=uncertified, oracle_checked=checked,
                       oracle_skipped=len(records) - checked,
                       oracle_misses=misses, exact_misses=exact_misses,
                       max_gap=max_gap,
                       seconds=time.perf_counter() - t0)


def check_one_parse_per_target(inputs, outputs) -> None:
    """Each output sentence parses exactly the targets of its input, once."""
    if len(inputs) != len(outputs):
        raise AssertionError(f"{len(outputs)} outputs for {len(inputs)} inputs")
    for src, out in zip(inputs, outputs):
        want = [p.target for p in src.supervision.parses]
        sup = out.supervision
        got = ([p.target for p in sup.parses]
               if isinstance(sup, FrameAnnotations) else None)
        if got != want:
            raise AssertionError(f"sentence {src.id!r}: targets {got} parsed, "
                                 f"expected each of {want} once")


def check_same(written, read_back) -> None:
    if list(written) != list(read_back):
        bad = next(i for i, (a, b) in enumerate(zip(written, read_back))
                   if a != b) if len(written) == len(read_back) else -1
        raise AssertionError(f"predictions differ after a write/read round "
                             f"trip (first at index {bad})")


def check_same_params(model, reloaded) -> None:
    a, b = model.store.values, reloaded.store.values
    if a.keys() != b.keys() or any(not np.array_equal(a[k], b[k]) for k in a):
        raise AssertionError("saved model does not load back identically")
