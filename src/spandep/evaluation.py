"""Corpus-level evaluation for frame structures and dependency graphs.

All metrics are micro-averaged over exact-match parts.  For frames a part
is either a (target, frame) pair or a (target, span, role) triple, so a
sentence with one predicted frame and two predicted arguments contributes
three scoreable items.  Dependency evaluation counts (head, dependent,
label) triples, plus the top designation unless excluded.

Corpora are aligned by position.  Every pair of sentences must have the
same length, and for frame metrics the same set of annotated targets;
anything else raises, since silently skipping sentences would make the
reported numbers meaningless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .parts import (
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Ontology,
    Sentence,
    SpandepError,
    supervision,
)


def _prf(tp: int, predicted: int, gold: int) -> Tuple[float, float, float]:
    p = tp / predicted if predicted else 0.0
    r = tp / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass(frozen=True)
class FnEvalResult:
    precision: float
    recall: float
    f1: float
    frame_accuracy: float
    ambiguous_frame_accuracy: float
    tp: int
    predicted_total: int
    gold_total: int
    n_targets: int
    n_ambiguous_targets: int


@dataclass(frozen=True)
class SdpEvalResult:
    precision: float
    recall: float
    f1: float
    tp: int
    predicted_total: int
    gold_total: int


@dataclass(frozen=True)
class ErrorBreakdown:
    """Five-way partition of prediction discrepancies.

    A discrepancy is a mispredicted frame, a predicted argument with no
    exact gold match, or a gold argument that no predicted span even
    overlaps.  Each lands in exactly one bucket, so the counts sum to
    ``total``.  ``role_errors_correct_frame`` is the sub-count of role
    errors made under a correctly predicted frame; it is not part of the
    partition.
    """

    frame_errors: int
    role_errors: int
    role_errors_correct_frame: int
    span_errors: int
    argument_errors: int
    missing_arguments: int

    @property
    def total(self) -> int:
        return (self.frame_errors + self.role_errors + self.span_errors
                + self.argument_errors + self.missing_arguments)

    def percentages(self) -> dict:
        t = self.total
        share = (lambda c: 100.0 * c / t) if t else (lambda c: 0.0)
        return {
            "frame_errors": share(self.frame_errors),
            "role_errors": share(self.role_errors),
            "role_errors_correct_frame": share(self.role_errors_correct_frame),
            "span_errors": share(self.span_errors),
            "argument_errors": share(self.argument_errors),
            "missing_arguments": share(self.missing_arguments),
        }


@dataclass(frozen=True)
class LengthBin:
    bin: int
    precision: float
    recall: float
    count: int


def _aligned(
    gold: Sequence[Sentence], predicted: Sequence[Sentence],
) -> Iterator[Tuple[int, Sentence, Sentence]]:
    """The gold and predicted sentences pairwise, numbered, after checking
    that the corpora and each pair's token counts agree."""
    if len(gold) != len(predicted):
        raise SpandepError(
            f"corpora differ in size: {len(gold)} gold vs "
            f"{len(predicted)} predicted sentences")
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise SpandepError(
                f"sentence {g.id!r}: token counts differ "
                f"({len(g)} gold vs {len(p)} predicted)")
        yield i, g, p


def _aligned_parses(
    gold: Sequence[Sentence], predicted: Sequence[Sentence],
) -> Iterator[Tuple[int, FrameParse, FrameParse]]:
    for i, g, p in _aligned(gold, predicted):
        ga = supervision(g, FrameAnnotations)
        pa = supervision(p, FrameAnnotations)
        gkeys = {(fp.target.start, fp.target.end, fp.target.lu): fp
                 for fp in ga.parses}
        pkeys = {(fp.target.start, fp.target.end, fp.target.lu): fp
                 for fp in pa.parses}
        if gkeys.keys() != pkeys.keys():
            raise SpandepError(
                f"sentence {g.id!r}: annotated targets differ between "
                f"gold and predicted")
        for key in sorted(gkeys):
            yield i, gkeys[key], pkeys[key]


def eval_frames(
    gold: Sequence[Sentence],
    predicted: Sequence[Sentence],
    ontology: Ontology,
) -> FnEvalResult:
    """Micro P/R/F1 over frame and argument parts, plus frame accuracy.

    The ambiguous accuracy restricts the denominator to targets whose
    lexical unit licenses at least two frames under ``ontology``.
    """
    gold_parts = set()
    pred_parts = set()
    n_targets = n_correct = n_amb = n_amb_correct = 0
    for i, g, p in _aligned_parses(gold, predicted):
        t = (i, g.target.start, g.target.end)
        gold_parts.add(("fr", *t, g.frame))
        pred_parts.add(("fr", *t, p.frame))
        gold_parts.update(("arg", *t, s, e, r) for s, e, r in g.arguments)
        pred_parts.update(("arg", *t, s, e, r) for s, e, r in p.arguments)
        n_targets += 1
        hit = p.frame == g.frame
        n_correct += hit
        if ontology.is_ambiguous(g.target.lu):
            n_amb += 1
            n_amb_correct += hit
    tp = len(gold_parts & pred_parts)
    prec, rec, f1 = _prf(tp, len(pred_parts), len(gold_parts))
    return FnEvalResult(
        precision=prec, recall=rec, f1=f1,
        frame_accuracy=n_correct / n_targets if n_targets else 0.0,
        ambiguous_frame_accuracy=n_amb_correct / n_amb if n_amb else 0.0,
        tp=tp, predicted_total=len(pred_parts), gold_total=len(gold_parts),
        n_targets=n_targets, n_ambiguous_targets=n_amb)


def eval_sdp(
    gold: Sequence[Sentence],
    predicted: Sequence[Sentence],
    include_top: bool = True,
) -> SdpEvalResult:
    """Micro labeled P/R/F1 over (head, dependent, label) triples."""
    gold_parts = set()
    pred_parts = set()
    for i, g, p in _aligned(gold, predicted):
        gg = supervision(g, DependencyGraph)
        pg = supervision(p, DependencyGraph)
        gold_parts.update((i, *arc) for arc in gg.arcs)
        pred_parts.update((i, *arc) for arc in pg.arcs)
        if include_top:
            if gg.top is not None:
                gold_parts.add((i, "top", gg.top))
            if pg.top is not None:
                pred_parts.add((i, "top", pg.top))
    tp = len(gold_parts & pred_parts)
    prec, rec, f1 = _prf(tp, len(pred_parts), len(gold_parts))
    return SdpEvalResult(precision=prec, recall=rec, f1=f1, tp=tp,
                         predicted_total=len(pred_parts),
                         gold_total=len(gold_parts))


def _overlaps(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def error_breakdown(
    gold: Sequence[Sentence], predicted: Sequence[Sentence],
) -> ErrorBreakdown:
    """Assign every discrepancy to one of five categories.

    Per target: a wrong frame is one frame error.  Each predicted argument
    without an exact (span, role) gold match is classified in order: some
    gold argument has the same span (role error); some gold argument has
    the same role and an overlapping span (span error); otherwise an
    argument error, whether or not an unrelated gold span overlaps it.
    Each unmatched gold argument that overlaps no predicted span at all is
    a missing argument; overlapped ones are already explained by a
    predicted-side error.
    """
    frame_err = role_err = role_err_cf = span_err = arg_err = missing = 0
    for _, g, p in _aligned_parses(gold, predicted):
        frame_ok = p.frame == g.frame
        frame_err += not frame_ok
        garys = set(g.arguments)
        parys = set(p.arguments)
        for s, e, role in sorted(parys - garys):
            if any(gs == s and ge == e for gs, ge, _ in garys):
                role_err += 1
                role_err_cf += frame_ok
            elif any(gr == role and _overlaps((s, e), (gs, ge))
                     for gs, ge, gr in garys):
                span_err += 1
            else:
                arg_err += 1
        for gs, ge, _ in garys - parys:
            if not any(_overlaps((gs, ge), (s, e)) for s, e, _ in parys):
                missing += 1
    return ErrorBreakdown(
        frame_errors=frame_err, role_errors=role_err,
        role_errors_correct_frame=role_err_cf, span_errors=span_err,
        argument_errors=arg_err, missing_arguments=missing)


def length_bin(length: int) -> int:
    if length < 1:
        raise SpandepError(f"span length must be positive, got {length}")
    return math.floor(math.log(length) / math.log(1.6))


def length_binned_pr(
    gold: Sequence[Sentence], predicted: Sequence[Sentence],
) -> List[LengthBin]:
    """Per-length-bin argument precision and recall.

    Argument spans are bucketed by floor(log_1.6(length)).  Precision in a
    bin is computed over predicted arguments whose span falls in the bin,
    recall over gold arguments in the bin, and ``count`` is the number of
    distinct argument parts (gold or predicted) the bin saw.  Bins with no
    arguments on either side are omitted.
    """
    gold_parts = set()
    pred_parts = set()
    for i, g, p in _aligned_parses(gold, predicted):
        t = (i, g.target.start, g.target.end)
        gold_parts.update((*t, s, e, r) for s, e, r in g.arguments)
        pred_parts.update((*t, s, e, r) for s, e, r in p.arguments)
    bins = {}
    for part in gold_parts | pred_parts:
        b = length_bin(part[4] - part[3] + 1)
        gold_b, pred_b, union_b = bins.setdefault(b, (set(), set(), set()))
        if part in gold_parts:
            gold_b.add(part)
        if part in pred_parts:
            pred_b.add(part)
        union_b.add(part)
    rows = []
    for b in sorted(bins):
        gold_b, pred_b, union_b = bins[b]
        tp = len(gold_b & pred_b)
        prec, rec, _ = _prf(tp, len(pred_b), len(gold_b))
        rows.append(LengthBin(bin=b, precision=prec, recall=rec,
                              count=len(union_b)))
    return rows


def write_length_bins_csv(rows: Iterable[LengthBin], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin", "precision", "recall", "count"])
        for row in rows:
            writer.writerow([row.bin, f"{row.precision:.6f}",
                             f"{row.recall:.6f}", row.count])


def write_error_breakdown_csv(breakdown: ErrorBreakdown, path) -> None:
    pct = breakdown.percentages()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["category", "count", "percent"])
        for name in ("frame_errors", "role_errors",
                     "role_errors_correct_frame", "span_errors",
                     "argument_errors", "missing_arguments"):
            writer.writerow([name, getattr(breakdown, name),
                             f"{pct[name]:.2f}"])
