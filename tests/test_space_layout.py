"""The array layout of candidate spaces.

A space built by ``build_candidate_space`` holds its parts as integer arrays.
It must equal the space the Part-tuple constructor derives from its
``parts``, gold masks must read the arrays, and scoring, decoding, the
hinges, prediction and the joint oracle must build no ``Part`` objects.
"""

import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandep.inference.decode import decode
from spandep.inference.exhaustive import exhaustive_joint_map
from spandep.model import ModelConfig, ParserModel
from spandep.parts import (
    GROUPS,
    SPACE_ARRAYS,
    VIRTUAL_ROOT,
    Argument,
    CandidateSpace,
    CrossTask,
    DependencyGraph,
    FrameAnnotations,
    FrameParse,
    Head,
    LabeledArc,
    Ontology,
    Predicate,
    SpaceLimits,
    SpandepError,
    Target,
    UnlabeledArc,
    build_candidate_space,
    frame_parts,
    make_sentence,
)
from spandep.training import (
    latent_hinge_loss,
    predict_dependencies,
    predict_frames,
    sdp_hinge_loss,
)

from .oracles import graph_parts, mask_of, parse_parts, part_ids

ONT = Ontology(
    {"run.v": ("Motion", "Operate"), "eat.v": ("Ingest",)},
    {"Motion": ("Theme", "Goal", "Path"),
     "Operate": ("Agent", "Theme", "Place"),
     "Ingest": ("Eater",)},
)
LABELS = ("A", "B", "C", "D")
PART_TYPES = (Predicate, Argument, Head, UnlabeledArc, LabeledArc, CrossTask)


@st.composite
def spaces(draw):
    """Spaces over 1 to 14 tokens, with or without a target, under span caps,
    span and arc pruning (whose sets may name pairs outside the sentence),
    each switch, and 0 to 4 labels."""
    n = draw(st.integers(1, 14))
    target = None
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start, min(n - 1, start + 1)))
        target = Target(start, end, draw(st.sampled_from(("run.v", "eat.v"))))
    token = st.integers(0, n)
    limits = SpaceLimits(
        max_span_len=draw(st.integers(1, n + 1)),
        include_dependencies=draw(st.booleans()),
        include_cross_task=draw(st.booleans()),
        dep_labels=LABELS[:draw(st.integers(0, 4))],
        allowed_spans=draw(st.none() | st.frozensets(
            st.tuples(token, token), max_size=12)),
        allowed_arcs=draw(st.none() | st.frozensets(
            st.tuples(st.integers(VIRTUAL_ROOT, n), token), max_size=24)))
    sentence = make_sentence([f"w{i}" for i in range(n)])
    return build_candidate_space(sentence, target, ONT, limits)


def twin_of(space):
    return CandidateSpace(space.sentence, space.target, space.frames,
                          space.parts, space.scores)


def outside_message(space, parts):
    missing = [p for p in parts if p not in part_ids(space)]
    return f"gold parts outside candidate space: {sorted(map(str, missing))}"


@given(spaces())
@settings(max_examples=60, deadline=None)
def test_arrays_equal_the_part_tuple_constructor(space):
    twin = twin_of(space)
    assert twin.parts == space.parts
    assert len(twin) == len(space) == len(space.parts)
    for name in GROUPS:
        assert getattr(twin, name) == getattr(space, name), name
    for name in SPACE_ARRAYS:
        got, want = getattr(twin, name), getattr(space, name)
        assert got.dtype.kind == want.dtype.kind == "i", name
        assert got.tolist() == want.tolist(), name
    assert (twin.roles, twin.labels) == (space.roles, space.labels)
    assert twin.labels_for_arc == space.labels_for_arc


@given(spaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_gold_masks_read_the_arrays(space, data):
    twin = twin_of(space)
    if space.predicate_ids:
        frame = data.draw(st.sampled_from(space.frames))
        args = [p for p in space.parts[space.argument_ids.start:
                                       space.argument_ids.stop]
                if p.frame == frame]
        picked = data.draw(st.lists(st.sampled_from(args), max_size=4)) \
            if args else []
        kept, used = set(), set()
        for a in picked:
            if used.isdisjoint(range(a.start, a.end + 1)):
                kept.add((a.start, a.end, a.role))
                used.update(range(a.start, a.end + 1))
        parse = FrameParse(space.target, frame, frozenset(kept))
        gold = parse_parts(parse)
        want = mask_of(space, gold)
        for s in (space, twin):
            got = s.gold_mask(parse)
            assert (got == want).all()
            # perfbench/checks.py:pinned_space relies on this
            assert frame_parts(s, parse) == gold == \
                {s.parts[i] for i in np.flatnonzero(got)}

    if space.labeled_ids:
        picked = data.draw(st.lists(st.sampled_from(
            space.parts[space.labeled_ids.start:space.labeled_ids.stop]),
            max_size=5))
        arcs = {(p.head, p.dep): p.label for p in picked}
        top = data.draw(st.sampled_from(range(space.n)))
        graph = DependencyGraph(
            frozenset((h, d, lab) for (h, d), lab in arcs.items()), top)
        want = mask_of(space, graph_parts(graph))
        assert (space.gold_mask(graph) == want).all()
        assert (twin.gold_mask(graph) == want).all()


@given(spaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_gold_outside_the_space_keeps_its_message(space, data):
    n, twin = space.n, twin_of(space)
    if space.target is not None:
        frame = space.frames[0]
        role = data.draw(st.sampled_from(ONT.roles_for(frame) + ("Nope",)))
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start, n - 1))
        parse = FrameParse(space.target, frame,
                           frozenset({(start, end, role)}))
        gold = {Predicate(space.target.span, space.target.lu, frame),
                Argument(frame, start, end, role)}
        if gold <= part_ids(space).keys():
            assert frame_parts(space, parse) == gold
            for s in (space, twin):
                assert (s.gold_mask(parse) == mask_of(space, gold)).all()
        else:
            for lookup in (partial(frame_parts, space), space.gold_mask,
                           twin.gold_mask):
                with pytest.raises(SpandepError, match=re.escape(
                        outside_message(space, gold))):
                    lookup(parse)

    if n > 1:
        head, dep = data.draw(st.sampled_from(
            [(h, d) for h in range(n) for d in range(n) if h != d]))
        label = data.draw(st.sampled_from(LABELS + ("Z",)))
        graph = DependencyGraph(frozenset({(head, dep, label)}),
                                data.draw(st.none() | st.just(dep)))
        gold = {Head(head), UnlabeledArc(head, dep),
                LabeledArc(head, dep, label)}
        if graph.top is not None:
            gold.add(UnlabeledArc(VIRTUAL_ROOT, graph.top))
        for s in (space, twin):
            if gold <= part_ids(space).keys():
                assert (s.gold_mask(graph) == mask_of(space, gold)).all()
            else:
                with pytest.raises(SpandepError, match=re.escape(
                        outside_message(space, gold))):
                    s.gold_mask(graph)


# --- no Part objects on the hot path ----------------------------------------

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)
PARSE = FrameParse(Target(1, 1, "eat.v"), "Ingest",
                   frozenset({(0, 0, "Eater")}))
GRAPH = DependencyGraph(frozenset({(1, 0, "A"), (1, 3, "B"), (3, 2, "A")}),
                        top=1)


@pytest.fixture
def made(monkeypatch):
    """Every Part constructed while the fixture is active."""
    out = []
    for cls in PART_TYPES:
        def counted(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            out.append(self)
        monkeypatch.setattr(cls, "__init__", counted)
    return out


@pytest.mark.parametrize("joint", [True, False])
def test_hot_path_builds_only_gold_parts(joint, made):
    forms = ["he", "eats", "the", "cake"]
    fn_sent = make_sentence(forms, id="fn",
                            supervision=FrameAnnotations((PARSE,)))
    dm_sent = make_sentence(forms, id="dm", supervision=GRAPH)
    model = ParserModel.build(TINY, ONT, LABELS[:2], [fn_sent, dm_sent],
                              np.random.default_rng(0))
    limits = TINY.fn_limits(model.dep_labels) if joint \
        else TINY.dm_limits(model.dep_labels)
    target = PARSE.target if joint else None

    space = build_candidate_space(fn_sent, target, ONT, limits)
    scored = model.scored_space(space)
    decode(scored, mode="joint")
    decode(scored, mode="dependencies_only")
    if joint:
        assert space.cross_ids
        decode(scored, mode="latent_completion", gold_parse=PARSE)
        latent_hinge_loss(model, space, PARSE)
        exhaustive_joint_map(scored)
        assert predict_frames([model], [fn_sent])
    sdp_hinge_loss(model, space, GRAPH)
    assert predict_dependencies([model], [dm_sent])
    assert made == []
