import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandep.parts import (
    VIRTUAL_ROOT,
    Argument,
    CrossTask,
    DependencyGraph,
    FrameParse,
    Head,
    LabeledArc,
    Ontology,
    Predicate,
    SpaceLimits,
    SpandepError,
    Target,
    UnlabeledArc,
    arc_array,
    assemble_structures,
    build_candidate_space,
    enumerate_arcs,
    frame_parts,
    make_sentence,
    weighted_hamming,
)
from spandep.synthetic import random_joint_instance

from .oracles import mask_of

ONT = Ontology(
    {"run.v": ("Motion", "Operate"), "eat.v": ("Ingest",)},
    {"Motion": ("Theme", "Goal", "Path"),
     "Operate": ("Agent", "Device", "Place"),
     "Ingest": ("Eater",)},
)


def test_single_token_space():
    sent = make_sentence(["eats"])
    space = build_candidate_space(
        sent, Target(0, 0, "eat.v"), ONT,
        SpaceLimits(include_dependencies=False))
    # one frame, one role, one span: 1 predicate + 1 argument
    assert len(space.predicate_ids) == 1
    assert len(space.argument_ids) == 1


def test_single_token_two_roles():
    ont = Ontology({"eat.v": ("Ingest",)}, {"Ingest": ("Eater", "Food")})
    sent = make_sentence(["eats"])
    space = build_candidate_space(
        sent, Target(0, 0, "eat.v"), ont,
        SpaceLimits(include_dependencies=False))
    assert len(space.predicate_ids) == 1
    assert len(space.argument_ids) == 2


def test_counts_n3_two_frames_three_roles():
    sent = make_sentence(["he", "runs", "fast"])
    space = build_candidate_space(
        sent, Target(1, 1, "run.v"), ONT,
        SpaceLimits(include_dependencies=False))
    assert len(space.predicate_ids) == 2
    # 2 frames * 3 roles * 6 spans
    assert len(space.argument_ids) == 36


@given(n=st.integers(1, 6), cap=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_argument_count_formula(n, cap):
    sent = make_sentence(["w"] * n)
    space = build_candidate_space(
        sent, Target(0, 0, "run.v"), ONT,
        SpaceLimits(max_span_len=cap, include_dependencies=False))
    n_spans = sum(1 for i in range(n) for j in range(i, min(n, i + cap)))
    want = sum(len(ONT.roles_for(f)) for f in ONT.frames_for("run.v")) * n_spans
    assert len(space.argument_ids) == want


def test_dependency_part_counts():
    n = 4
    sent = make_sentence(["a"] * n)
    labels = ("ARG1", "ARG2")
    space = build_candidate_space(
        sent, None, ONT, SpaceLimits(dep_labels=labels))
    assert len(space.head_ids) == n
    assert len(space.arc_ids) == n * (n - 1)
    assert len(space.root_arc_ids) == n
    assert len(space.labeled_ids) == n * (n - 1) * len(labels)
    assert len(space.predicate_ids) == 0
    assert len(space.cross_ids) == 0


def test_cross_task_pairing():
    # target first token 1, argument span (2,4): arcs 1->2, 1->3, 1->4
    sent = make_sentence(["a", "runs", "c", "d", "e"])
    space = build_candidate_space(
        sent, Target(1, 1, "run.v"), ONT,
        SpaceLimits(dep_labels=("ARG1",)))
    arg = Argument("Motion", 2, 4, "Theme")
    arg_id = space.parts.index(arg)
    arcs = [space.parts[space.parts[c].arc_id] for c in space.cross_ids
            if space.parts[c].arg_id == arg_id]
    assert sorted(a.dep for a in arcs) == [2, 3, 4]
    assert {a.head for a in arcs} == {1}


def test_cross_task_multi_token_target_uses_first_token():
    sent = make_sentence(["gave", "up", "it"])
    ont = Ontology({"give up.v": ("Quit",)}, {"Quit": ("Agent",)})
    space = build_candidate_space(
        sent, Target(0, 1, "give up.v"), ont, SpaceLimits(dep_labels=("A",)))
    heads = {space.parts[space.parts[c].arc_id].head for c in space.cross_ids}
    assert heads == {0}


@given(n=st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_cross_task_invariant(n):
    sent = make_sentence(["w"] * n)
    space = build_candidate_space(
        sent, Target(0, 0, "run.v"), ONT,
        SpaceLimits(max_span_len=3, dep_labels=("A",)))
    for cid in space.cross_ids:
        c = space.parts[cid]
        arg = space.parts[c.arg_id]
        arc = space.parts[c.arc_id]
        assert isinstance(arg, Argument) and isinstance(arc, UnlabeledArc)
        assert arc.head == space.target.start
        assert arg.start <= arc.dep <= arg.end


def test_unknown_lu_error_names_lu():
    sent = make_sentence(["x"])
    with pytest.raises(SpandepError, match="sit.v"):
        build_candidate_space(sent, Target(0, 0, "sit.v"), ONT, SpaceLimits())


def test_empty_sentence_error():
    with pytest.raises(ValueError):
        make_sentence([])


def test_allowed_spans_and_arcs_prune():
    sent = make_sentence(["a", "b", "c"])
    space = build_candidate_space(
        sent, Target(0, 0, "eat.v"), ONT,
        SpaceLimits(dep_labels=("A",),
                    allowed_spans=frozenset({(1, 1), (1, 2)}),
                    allowed_arcs=frozenset({(0, 1)})))
    assert {(space.parts[i].start, space.parts[i].end)
            for i in space.argument_ids} == {(1, 1), (1, 2)}
    assert [space.parts[i] for i in space.arc_ids] == [UnlabeledArc(0, 1)]
    # root arcs are exempt from arc pruning
    assert len(space.root_arc_ids) == 3


@given(n=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_space_arcs_are_enumerate_arcs(n):
    # the arc pruner scores exactly the pairs the space lists
    space = build_candidate_space(make_sentence(["w"] * n), None, ONT,
                                  SpaceLimits())
    arcs = [(space.parts[i].head, space.parts[i].dep) for i in space.arc_ids]
    assert arcs == enumerate_arcs(n)
    assert len(arcs) == n * (n - 1)
    assert arc_array(n, frozenset({(0, n - 1), (n, 0)})).tolist() == \
        ([[0, n - 1]] if n > 1 else [])


# --- weighted hamming ------------------------------------------------------

P1 = Predicate((0, 0), "run.v", "Motion")
P2 = Predicate((0, 0), "run.v", "Operate")
A1 = Argument("Motion", 1, 2, "Theme")
# a space holding every part the fixtures below name
HAMMING_SPACE = build_candidate_space(
    make_sentence(["runs", "b", "c"]), Target(0, 0, "run.v"), ONT,
    SpaceLimits(dep_labels=("A",)))


def hamming(predicted, gold):
    return weighted_hamming(mask_of(HAMMING_SPACE, predicted),
                            mask_of(HAMMING_SPACE, gold))


def test_hamming_identity_fixture():
    assert hamming({P1, A1}, {P1, A1}) == 0.0


def test_hamming_one_false_positive():
    assert hamming({P1, A1}, {P1}) == pytest.approx(0.4)


def test_hamming_swap():
    # one missing gold part and one extra predicted part
    assert hamming({P2}, {P1}) == pytest.approx(1.0)


def test_hamming_one_false_negative():
    assert hamming({P1}, {P1, A1}) == pytest.approx(0.6)


parts_strategy = st.sets(
    st.sampled_from([P1, P2, A1, Head(0), Head(1), UnlabeledArc(0, 1),
                     UnlabeledArc(VIRTUAL_ROOT, 0), LabeledArc(0, 1, "A")]),
    max_size=8)


@given(a=parts_strategy)
def test_hamming_self_zero(a):
    assert hamming(a, a) == 0.0


@given(a=parts_strategy, b=parts_strategy)
def test_hamming_additive_over_symmetric_difference(a, b):
    total = hamming(a, b)
    per_elem = sum(0.4 for _ in a - b) + sum(0.6 for _ in b - a)
    assert total == pytest.approx(per_elem)


# --- structures <-> parts --------------------------------------------------

def test_frame_parts_round_trip():
    sent = make_sentence(["he", "runs", "far"])
    space = build_candidate_space(sent, Target(1, 1, "run.v"), ONT,
                                  SpaceLimits(include_dependencies=False))
    parse = FrameParse(space.target, "Motion",
                       frozenset({(0, 0, "Theme"), (2, 2, "Path")}))
    got, dep = assemble_structures(space, space.gold_mask(parse))
    assert got == parse
    assert dep == DependencyGraph()


def test_dep_parts_round_trip():
    sent = make_sentence(["a", "b", "c"])
    space = build_candidate_space(sent, None, ONT,
                                  SpaceLimits(dep_labels=("A", "B")))
    graph = DependencyGraph(frozenset({(0, 1, "A"), (0, 2, "B")}), top=0)
    gold = space.gold_mask(graph)
    parts = {space.parts[i] for i in np.flatnonzero(gold)}
    assert Head(0) in parts and Head(1) not in parts
    assert UnlabeledArc(VIRTUAL_ROOT, 0) in parts
    _, got = assemble_structures(space, gold)
    assert got == graph


def test_frame_parse_rejects_overlap():
    with pytest.raises(ValueError):
        FrameParse(Target(0, 0, "run.v"), "Motion",
                   frozenset({(1, 3, "Theme"), (2, 2, "Goal")}))


def test_gold_outside_space_is_error():
    sent = make_sentence(["he", "runs"])
    space = build_candidate_space(sent, Target(1, 1, "run.v"), ONT,
                                  SpaceLimits(include_dependencies=False,
                                              allowed_spans=frozenset({(0, 0)})))
    parse = FrameParse(space.target, "Motion", frozenset({(0, 1, "Theme")}))
    with pytest.raises(SpandepError):
        frame_parts(space, parse)


def test_with_scores_shares_parts():
    sent = make_sentence(["a", "b"])
    space = build_candidate_space(sent, None, ONT, SpaceLimits(dep_labels=("A",)))
    scored = space.with_scores(np.arange(len(space), dtype=float))
    assert scored.parts is space.parts
    assert scored.scores[scored.parts.index(space.parts[1])] == 1.0
    with pytest.raises(ValueError):
        space.with_scores(np.zeros(3))
    with pytest.raises(ValueError):
        space.with_scores(np.zeros((len(space), 1)))


def test_with_scores_shares_the_derived_index():
    sent = make_sentence(["a", "b", "c"])
    space = build_candidate_space(sent, Target(1, 1, "run.v"), ONT,
                                  SpaceLimits(dep_labels=("A", "B")))
    assert space.cross_ids and space.labels_for_arc
    scored = space.with_scores(np.ones(len(space)))
    again = scored.with_scores(np.zeros(len(space)))
    for name in ("parts", "predicate_ids", "argument_ids", "head_ids",
                 "arc_ids", "root_arc_ids", "labeled_ids", "cross_ids",
                 "cross_arg", "cross_arc", "labels_for_arc"):
        assert getattr(again, name) is getattr(space, name), name
    assert space.scores.sum() == 0.0 and again.scores.sum() == 0.0
    assert scored.scores.sum() == len(space)


def test_labels_for_arc_groups_labels_under_their_arc():
    sent = make_sentence(["a", "b", "c"])
    limits = SpaceLimits(dep_labels=("A", "B"),
                         allowed_arcs=frozenset({(0, 1), (2, 0), (1, 2)}))
    space = build_candidate_space(sent, None, ONT, limits)
    want = {}
    for i in space.labeled_ids:
        la = space.parts[i]
        arc = space.parts.index(UnlabeledArc(la.head, la.dep))
        want.setdefault(arc, []).append(i)
    assert space.labels_for_arc == want
    assert sorted(space.labels_for_arc) == sorted(space.arc_ids)
    assert all(len(v) == 2 for v in space.labels_for_arc.values())


def test_labeled_arc_without_its_arc_is_named():
    space = build_candidate_space(make_sentence(["a", "b"]), None, ONT,
                                  SpaceLimits(dep_labels=("A",)))
    orphan = LabeledArc(1, 0, "A")
    parts = tuple(p for p in space.parts if p != UnlabeledArc(1, 0))
    assert orphan in parts
    with pytest.raises(ValueError, match=r"LabeledArc\(head=1, dep=0"):
        type(space)(space.sentence, None, (), parts, np.zeros(len(parts)))


# --- the type groups --------------------------------------------------------

def test_groups_are_contiguous_id_ranges():
    space = build_candidate_space(make_sentence(["a", "runs", "c"]),
                                  Target(1, 1, "run.v"), ONT,
                                  SpaceLimits(dep_labels=("A", "B")))
    groups = [space.predicate_ids, space.argument_ids, space.head_ids,
              space.arc_ids, space.root_arc_ids, space.labeled_ids,
              space.cross_ids]
    assert all(isinstance(r, range) and r for r in groups)
    assert groups[0].start == 0 and groups[-1].stop == len(space)
    assert all(a.stop == b.start for a, b in zip(groups, groups[1:]))
    kinds = [Predicate, Argument, Head, UnlabeledArc, UnlabeledArc,
             LabeledArc, CrossTask]
    for ids, kind in zip(groups, kinds):
        assert all(type(space.parts[i]) is kind for i in ids)
    assert all(space.parts[i].head == VIRTUAL_ROOT for i in space.root_arc_ids)
    assert not any(space.parts[i].head == VIRTUAL_ROOT for i in space.arc_ids)
    cross = [space.parts[i] for i in space.cross_ids]
    assert space.cross_arg.tolist() == [c.arg_id for c in cross]
    assert space.cross_arc.tolist() == [c.arc_id for c in cross]


def test_empty_groups_sit_at_their_place_in_the_order():
    space = build_candidate_space(make_sentence(["a", "b"]), None, ONT,
                                  SpaceLimits())
    assert space.predicate_ids == space.argument_ids == range(0, 0)
    assert space.head_ids.start == 0
    assert not space.labeled_ids and not space.cross_ids
    assert space.labeled_ids.start == space.cross_ids.start == len(space)


@pytest.mark.parametrize("swap", [
    (Predicate((1, 1), "run.v", "Motion"), Head(0)),
    (UnlabeledArc(0, 1), UnlabeledArc(VIRTUAL_ROOT, 0)),
    (UnlabeledArc(VIRTUAL_ROOT, 2), LabeledArc(0, 1, "A")),
])
def test_out_of_order_parts_raise_at_construction(swap):
    space = build_candidate_space(make_sentence(["a", "runs", "c"]),
                                  Target(1, 1, "run.v"), ONT,
                                  SpaceLimits(dep_labels=("A",),
                                              include_cross_task=False))
    parts = list(space.parts)
    i, j = (parts.index(p) for p in swap)
    parts[i], parts[j] = parts[j], parts[i]
    with pytest.raises(ValueError, match="grouped in the order"):
        type(space)(space.sentence, space.target, space.frames, tuple(parts),
                    np.zeros(len(parts)))


def test_cross_part_before_a_structural_part_raises():
    space = build_candidate_space(make_sentence(["runs", "b"]),
                                  Target(0, 0, "eat.v"), ONT,
                                  SpaceLimits(dep_labels=("A",)))
    c = space.cross_ids.start
    parts = (space.parts[c],) + space.parts[:c] + space.parts[c + 1:]
    with pytest.raises(ValueError, match="part 1 .*after a cross_ids part"):
        type(space)(space.sentence, space.target, space.frames, parts,
                    np.zeros(len(parts)))


# seeds and draws per seed whose spaces ``test_random_joint_instance_draws``
# pins, with the SHA-256 of their parts and scores
DRAWS = [(s, 5) for s in range(200)] + [(20240825, 100), (33, 100), (35, 100)]
DRAWS_SHA256 = "0c52e918ebdccaf6b41867b4c9a33927b96f794f330ce5621889348d4938dfbe"


def test_random_joint_instance_draws():
    """The spaces the solver tests are written against stay the same."""
    import hashlib

    h = hashlib.sha256()
    for seed, k in DRAWS:
        rng = np.random.default_rng(seed)
        for _ in range(k):
            space = random_joint_instance(rng)
            h.update(repr(([(type(p).__name__, *map(str, vars(p).values()))
                            for p in space.parts],
                           space.scores.tolist())).encode())
    assert h.hexdigest() == DRAWS_SHA256
