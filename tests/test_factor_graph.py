import numpy as np
import pytest

from spandep.inference.factor_graph import (
    FactorGraph,
    Implication,
    Infeasible,
    Pair,
    SemiMarkov,
    Xor,
    build_factor_graph,
    clamp_graph,
)
from spandep.parts import (
    Argument,
    FrameParse,
    Ontology,
    Predicate,
    SpaceLimits,
    Target,
    UnlabeledArc,
    build_candidate_space,
    make_sentence,
)
from spandep.synthetic import random_joint_instance

from spandep.inference.decode import drop_sparse_cross_task
from spandep.parts import frame_parts

from .oracles import (
    build_factor_graph_by_parts,
    check_assignment_by_loops,
    clamp_by_loops,
    objective_by_loops,
    random_factor_graph,
)


def joint_space(scores=None):
    """n=3, target (0,0), two frames (1 and 2 roles), full arcs, two labels."""
    sent = make_sentence(["w0", "w1", "w2"])
    onto = Ontology({"lu.v": ["F0", "F1"]}, {"F0": ["R0"], "F1": ["R0", "R1"]})
    limits = SpaceLimits(max_span_len=2, dep_labels=("a1", "a2"))
    space = build_candidate_space(sent, Target(0, 0, "lu.v"), onto, limits)
    if scores is None:
        scores = np.zeros(len(space.parts))
    return space.with_scores(scores)


def graph_parts(space, include_frames=True):
    """The part of each variable of ``build_factor_graph(space,
    include_frames)``: the space's parts from the first one (from the first
    head part without frames) up to the cross-task parts."""
    first = 0 if include_frames else space.head_ids.start
    return space.parts[first:space.cross_ids.start]


def var_of(space):
    return {part: v for v, part in enumerate(graph_parts(space))}


class TestConstruction:
    def test_factor_counts_on_joint_space(self):
        space = joint_space()
        fg = build_factor_graph(space)
        # 2 preds + 15 args + 3 heads + 6 arcs + 3 roots + 12 labeled
        assert fg.nvars == 41
        # frame XOR + root XOR + one label XOR per token arc
        assert len(fg.xors) == 1 + 1 + 6
        # arg => pred and arc => head
        assert len(fg.imps) == 15 + 6
        assert len(fg.semis) == 1
        assert len(fg.semis[0].vars) == 15
        assert len(fg.pairs) == len(space.cross_ids) == 15

    def test_frame_xor_size(self):
        space = joint_space()
        fg = build_factor_graph(space)
        frames = [f for f in fg.xors if len(f.vars) == 2 and not any(f.neg)]
        preds = {v for v, p in enumerate(graph_parts(space))
                 if isinstance(p, Predicate)}
        assert any(set(f.vars) == preds for f in frames)

    def test_label_xor_negates_only_the_arc(self):
        space = joint_space()
        fg = build_factor_graph(space)
        arc_xors = [f for f in fg.xors if any(f.neg)]
        assert len(arc_xors) == 6
        for f in arc_xors:
            assert f.neg[0] is True and not any(f.neg[1:])
            assert isinstance(graph_parts(space)[f.vars[0]], UnlabeledArc)

    def test_no_target_gives_dependency_graph_only(self):
        sent = make_sentence(["w0", "w1"])
        onto = Ontology({}, {})
        limits = SpaceLimits(dep_labels=("a1",))
        space = build_candidate_space(sent, None, onto, limits)
        fg = build_factor_graph(space)
        assert not any(isinstance(p, (Predicate, Argument))
                       for p in graph_parts(space))
        assert fg.nvars == len(graph_parts(space))
        assert fg.semis == () and fg.pairs == ()

    def test_include_frames_false_drops_frame_side(self):
        space = joint_space()
        fg = build_factor_graph(space, include_frames=False)
        assert not any(isinstance(p, (Predicate, Argument))
                       for p in graph_parts(space, include_frames=False))
        assert fg.pairs == () and fg.semis == ()
        assert fg.nvars == 3 + 6 + 3 + 12


class TestClamp:
    def test_frame_choice_propagates(self):
        space = joint_space()
        fg = build_factor_graph(space)
        v = var_of(space)
        pred0 = v[Predicate((0, 0), "lu.v", "F0")]
        pred1 = v[Predicate((0, 0), "lu.v", "F1")]
        cr = clamp_graph(fg, {pred0: True})
        assert cr.forced[pred1] is False
        for part, vid in v.items():
            if isinstance(part, Argument) and part.frame == "F1":
                assert cr.forced[vid] is False

    def test_two_true_in_xor_is_infeasible(self):
        g = FactorGraph(np.zeros(2), xors=(Xor((0, 1), (False, False)),))
        with pytest.raises(Infeasible):
            clamp_graph(g, {0: True, 1: True})

    def test_all_false_xor_is_infeasible(self):
        g = FactorGraph(np.zeros(2), xors=(Xor((0, 1), (False, False)),))
        with pytest.raises(Infeasible):
            clamp_graph(g, {0: False, 1: False})

    def test_last_free_literal_forced_true(self):
        g = FactorGraph(np.zeros(3),
                        xors=(Xor((0, 1, 2), (False, False, False)),))
        cr = clamp_graph(g, {0: False, 1: False})
        assert cr.forced[2] is True
        assert cr.graph.nvars == 0

    def test_implication_propagates_both_ways(self):
        g = FactorGraph(np.zeros(2), imps=(Implication(0, 1),))
        assert clamp_graph(g, {0: True}).forced[1] is True
        assert clamp_graph(g, {1: False}).forced[0] is False

    def test_semi_markov_blocks_overlaps(self):
        spans = ((0, 1), (1, 2), (2, 2))
        g = FactorGraph(np.zeros(3),
                        semis=(SemiMarkov((0, 1, 2), spans, 3),))
        cr = clamp_graph(g, {0: True})
        assert cr.forced[1] is False
        assert 2 in cr.free  # (2,2) does not overlap (0,1)

    def test_pair_absorption(self):
        g = FactorGraph(np.array([1.0, 2.0]), pairs=(Pair(0, 1, 0.25),))
        one = clamp_graph(g, {0: True})
        assert one.graph.theta[one.free.tolist().index(1)] == \
            pytest.approx(2.25)
        assert one.graph.offset == pytest.approx(1.0)
        both = clamp_graph(g, {0: True, 1: True})
        assert both.graph.offset == pytest.approx(1.0 + 2.0 + 0.25)
        off = clamp_graph(g, {0: False})
        assert off.graph.pairs == ()
        assert off.graph.theta[off.free.tolist().index(1)] == \
            pytest.approx(2.0)

    def test_lift_round_trip(self):
        g = FactorGraph(np.zeros(4), imps=(Implication(0, 1),))
        cr = clamp_graph(g, {0: True})
        reduced = np.array([True, False])  # vars 2 and 3
        full = cr.lift(reduced)
        assert full.tolist() == [True, True, True, False]

    def test_objective_and_check(self):
        g = FactorGraph(np.array([1.0, -0.5]),
                        xors=(Xor((0, 1), (False, False)),),
                        pairs=(Pair(0, 1, 3.0),), offset=0.25)
        on_first = np.array([True, False])
        assert g.check_assignment(on_first)
        assert g.objective(on_first) == pytest.approx(1.25)
        assert not g.check_assignment(np.array([True, True]))
        assert g.objective(np.array([True, True])) == pytest.approx(3.75)


class TestFlatIndex:
    def test_check_and_objective_match_the_loops(self):
        rng = np.random.default_rng(41)
        feasible = 0
        for k in range(60):
            if k % 2:
                g = random_factor_graph(rng)
            else:
                g = build_factor_graph(random_joint_instance(rng))
            for _ in range(20):
                active = rng.random(g.nvars) < rng.random()
                ok = g.check_assignment(active)
                assert ok == check_assignment_by_loops(g, active)
                feasible += ok
                assert g.objective(active) == pytest.approx(
                    objective_by_loops(g, active), abs=1e-12)
        assert feasible > 0

    def test_semi_markov_overlap_at_a_shared_start(self):
        spans = ((0, 2), (0, 0), (3, 3))
        g = FactorGraph(np.zeros(3),
                        semis=(SemiMarkov((0, 1, 2), spans, 4),))
        assert not g.check_assignment(np.array([True, True, False]))
        assert g.check_assignment(np.array([True, False, True]))

    def test_degrees_count_every_slot(self):
        g = FactorGraph(np.zeros(4),
                        xors=(Xor((0, 1), (False, True)),
                              Xor((1, 2), (False, False))),
                        imps=(Implication(2, 3),),
                        pairs=(Pair(0, 3, 1.0),))
        assert g.degrees().tolist() == [2, 2, 2, 2]

    def test_out_of_range_variable_is_named(self):
        for bad in ({"xors": (Xor((0, 5), (False, False)),)},
                    {"imps": (Implication(-1, 0),)},
                    {"pairs": (Pair(0, 2, 1.0),)}):
            with pytest.raises(ValueError, match="out of range"):
                FactorGraph(np.zeros(2), **bad)


class TestClampPassThrough:
    def test_nothing_fixed_returns_the_graph(self):
        g = build_factor_graph(joint_space())
        cr = clamp_graph(g, {})
        assert cr.graph is g and cr.forced == {}
        assert cr.lift(np.ones(g.nvars, dtype=bool)).all()

    def test_single_literal_xor_still_propagates(self):
        g = FactorGraph(np.zeros(3), xors=(Xor((0,), (True,)),),
                        imps=(Implication(1, 0),))
        cr = clamp_graph(g, {})
        assert cr.forced == {0: False, 1: False}
        assert cr.graph.nvars == 1


def assert_same_graph(got, want):
    """Same unary scores and factor arrays; offsets to rounding."""
    np.testing.assert_array_equal(got.theta, want.theta)
    for name in ("var", "neg", "ptr"):
        np.testing.assert_array_equal(getattr(got.xor, name),
                                      getattr(want.xor, name))
    for name in ("imp_a", "imp_b", "pair_a", "pair_b", "pair_score"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.semis == want.semis
    assert got.offset == pytest.approx(want.offset, abs=1e-12)


def scored_space(n, rng, target=True, labels=("a1", "a2"), **kw):
    sent = make_sentence([f"w{i}" for i in range(n)])
    onto = Ontology({"lu.v": ["F0", "F1"]}, {"F0": ["R0"], "F1": ["R0", "R1"]})
    space = build_candidate_space(
        sent, Target(1, 1, "lu.v") if target else None, onto,
        SpaceLimits(max_span_len=3, dep_labels=labels, **kw))
    return space.with_scores(rng.normal(size=len(space.parts)))


class TestArraysMatchObjectBuild:
    @pytest.mark.parametrize("case", [
        "joint", "dependencies_only", "no_target", "pruned_arcs",
        "one_label", "dropped_cross"])
    def test_build(self, case):
        rng = np.random.default_rng(41)
        include_frames = True
        kw = {}
        if case == "pruned_arcs":
            kw["allowed_arcs"] = frozenset({(1, 0), (1, 3), (2, 1), (3, 0)})
        space = scored_space(5, rng, target=case != "no_target",
                             labels=("a1",) if case == "one_label"
                             else ("a1", "a2"), **kw)
        if case == "dependencies_only":
            include_frames = False
        if case == "dropped_cross":
            before = len(space.cross_ids)
            space = drop_sparse_cross_task(space, tol=0.5)
            assert 0 < len(space.cross_ids) < before
        got = build_factor_graph(space, include_frames)
        assert_same_graph(got, build_factor_graph_by_parts(
            space, include_frames))

    def test_build_on_random_joint_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            space = random_joint_instance(rng)
            for include_frames in (True, False):
                assert_same_graph(
                    build_factor_graph(space, include_frames),
                    build_factor_graph_by_parts(space, include_frames))

    def test_latent_completion_clamp(self):
        rng = np.random.default_rng(47)
        space = scored_space(5, rng)
        fg = build_factor_graph(space)
        gold = frame_parts(space, FrameParse(Target(1, 1, "lu.v"), "F1",
                                             frozenset({(2, 3, "R1"),
                                                        (0, 0, "R0")})))
        fixed = {v: part in gold for v, part in enumerate(graph_parts(space))
                 if isinstance(part, (Predicate, Argument))}
        got = clamp_graph(fg, fixed)
        want, forced, free = clamp_by_loops(fg, fixed)
        assert got.forced == forced
        np.testing.assert_array_equal(got.free, free)
        assert_same_graph(got.graph, want)
        assert got.graph.pair_a.size == 0 and not got.graph.semis

    def test_clamp_on_random_graphs(self):
        rng = np.random.default_rng(53)
        infeasible = 0
        for k in range(300):
            g = random_factor_graph(rng) if k % 2 else \
                build_factor_graph(random_joint_instance(rng))
            picks = rng.choice(g.nvars, size=int(rng.integers(1, 4)),
                               replace=False)
            fixed = {int(v): bool(rng.random() < 0.5) for v in picks}
            try:
                want = clamp_by_loops(g, fixed)
            except Infeasible:
                infeasible += 1
                with pytest.raises(Infeasible):
                    clamp_graph(g, fixed)
                continue
            got = clamp_graph(g, fixed)
            assert got.forced == want[1]
            np.testing.assert_array_equal(got.free, want[2])
            assert_same_graph(got.graph, want[0])
        assert 0 < infeasible < 300
