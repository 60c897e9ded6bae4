import numpy as np
import pytest

from spandep.inference.factor_graph import (
    AtMostOne,
    FactorGraph,
    GraphConstraints,
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


def var_of(fg):
    return {part: v for v, part in enumerate(fg.labels)}


class TestConstruction:
    def test_factor_counts_on_joint_space(self):
        space = joint_space()
        fg = build_factor_graph(space, GraphConstraints(frozenset({"a1"})))
        # 2 preds + 15 args + 3 heads + 6 arcs + 3 roots + 12 labeled
        assert fg.nvars == 41
        # frame XOR + root XOR + one label XOR per token arc
        assert len(fg.xors) == 1 + 1 + 6
        # arg => pred and arc => head
        assert len(fg.imps) == 15 + 6
        assert len(fg.semis) == 1
        assert len(fg.semis[0].vars) == 15
        assert len(fg.pairs) == len(space.cross_ids) == 15
        # three heads, each with two outgoing "a1" arcs
        assert len(fg.amos) == 3

    def test_frame_xor_size(self):
        fg = build_factor_graph(joint_space(), GraphConstraints())
        frames = [f for f in fg.xors if len(f.vars) == 2 and not any(f.neg)]
        preds = {v for v, p in enumerate(fg.labels) if isinstance(p, Predicate)}
        assert any(set(f.vars) == preds for f in frames)

    def test_label_xor_negates_only_the_arc(self):
        fg = build_factor_graph(joint_space(), GraphConstraints())
        arc_xors = [f for f in fg.xors if any(f.neg)]
        assert len(arc_xors) == 6
        for f in arc_xors:
            assert f.neg[0] is True and not any(f.neg[1:])
            assert isinstance(fg.labels[f.vars[0]], UnlabeledArc)

    def test_no_deterministic_labels_no_amo(self):
        fg = build_factor_graph(joint_space(), GraphConstraints())
        assert fg.amos == ()

    def test_no_target_gives_dependency_graph_only(self):
        sent = make_sentence(["w0", "w1"])
        onto = Ontology({}, {})
        limits = SpaceLimits(dep_labels=("a1",))
        space = build_candidate_space(sent, None, onto, limits)
        fg = build_factor_graph(space, GraphConstraints())
        assert not any(isinstance(p, (Predicate, Argument)) for p in fg.labels)
        assert fg.semis == () and fg.pairs == ()

    def test_include_frames_false_drops_frame_side(self):
        space = joint_space()
        fg = build_factor_graph(space, GraphConstraints(), include_frames=False)
        assert not any(isinstance(p, (Predicate, Argument)) for p in fg.labels)
        assert fg.pairs == () and fg.semis == ()
        assert fg.nvars == 3 + 6 + 3 + 12

    def test_dump_one_line_per_item(self):
        g = FactorGraph(np.array([1.0, -2.0]), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),),
                        pairs=(Pair(0, 1, 0.5),))
        lines = g.dump().splitlines()
        assert len(lines) == 2 + 1 + 1
        assert lines[0].startswith("var 0 ") and "xor" in lines[2]


class TestClamp:
    def test_frame_choice_propagates(self):
        space = joint_space()
        fg = build_factor_graph(space, GraphConstraints())
        v = var_of(fg)
        pred0 = v[Predicate((0, 0), "lu.v", "F0")]
        pred1 = v[Predicate((0, 0), "lu.v", "F1")]
        cr = clamp_graph(fg, {pred0: True})
        assert cr.forced[pred1] is False
        for part, vid in v.items():
            if isinstance(part, Argument) and part.frame == "F1":
                assert cr.forced[vid] is False

    def test_two_true_in_xor_is_infeasible(self):
        g = FactorGraph(np.zeros(2), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),))
        with pytest.raises(Infeasible):
            clamp_graph(g, {0: True, 1: True})

    def test_all_false_xor_is_infeasible(self):
        g = FactorGraph(np.zeros(2), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),))
        with pytest.raises(Infeasible):
            clamp_graph(g, {0: False, 1: False})

    def test_last_free_literal_forced_true(self):
        g = FactorGraph(np.zeros(3), ("a", "b", "c"),
                        xors=(Xor((0, 1, 2), (False, False, False)),))
        cr = clamp_graph(g, {0: False, 1: False})
        assert cr.forced[2] is True
        assert cr.graph.nvars == 0

    def test_implication_propagates_both_ways(self):
        g = FactorGraph(np.zeros(2), ("a", "b"), imps=(Implication(0, 1),))
        assert clamp_graph(g, {0: True}).forced[1] is True
        assert clamp_graph(g, {1: False}).forced[0] is False

    def test_amo_clamps_siblings(self):
        g = FactorGraph(np.zeros(3), ("a", "b", "c"),
                        amos=(AtMostOne((0, 1, 2)),))
        cr = clamp_graph(g, {1: True})
        assert cr.forced[0] is False and cr.forced[2] is False

    def test_semi_markov_blocks_overlaps(self):
        spans = ((0, 1, "x"), (1, 2, "y"), (2, 2, "z"))
        g = FactorGraph(np.zeros(3), ("a", "b", "c"),
                        semis=(SemiMarkov((0, 1, 2), spans, 3, 3),))
        cr = clamp_graph(g, {0: True})
        assert cr.forced[1] is False
        assert 2 in cr.var_map  # (2,2) does not overlap (0,1)

    def test_pair_absorption(self):
        g = FactorGraph(np.array([1.0, 2.0]), ("a", "b"),
                        pairs=(Pair(0, 1, 0.25),))
        one = clamp_graph(g, {0: True})
        assert one.graph.theta[one.var_map[1]] == pytest.approx(2.25)
        assert one.graph.offset == pytest.approx(1.0)
        both = clamp_graph(g, {0: True, 1: True})
        assert both.graph.offset == pytest.approx(1.0 + 2.0 + 0.25)
        off = clamp_graph(g, {0: False})
        assert off.graph.pairs == ()
        assert off.graph.theta[off.var_map[1]] == pytest.approx(2.0)

    def test_lift_round_trip(self):
        g = FactorGraph(np.zeros(4), tuple("abcd"), imps=(Implication(0, 1),))
        cr = clamp_graph(g, {0: True})
        reduced = np.array([True, False])  # vars 2 and 3
        full = cr.lift(reduced)
        assert full.tolist() == [True, True, True, False]

    def test_objective_and_check(self):
        g = FactorGraph(np.array([1.0, -0.5]), ("a", "b"),
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
                space, constraints = random_joint_instance(rng)
                g = build_factor_graph(space, constraints)
            for _ in range(20):
                active = rng.random(g.nvars) < rng.random()
                ok = g.check_assignment(active)
                assert ok == check_assignment_by_loops(g, active)
                feasible += ok
                assert g.objective(active) == pytest.approx(
                    objective_by_loops(g, active), abs=1e-12)
        assert feasible > 0

    def test_semi_markov_overlap_at_a_shared_start(self):
        spans = ((0, 2, "x"), (0, 0, "y"), (3, 3, "z"))
        g = FactorGraph(np.zeros(3), tuple("abc"),
                        semis=(SemiMarkov((0, 1, 2), spans, 4, 4),))
        assert not g.check_assignment(np.array([True, True, False]))
        assert g.check_assignment(np.array([True, False, True]))

    def test_degrees_count_every_slot(self):
        g = FactorGraph(np.zeros(4), tuple("abcd"),
                        xors=(Xor((0, 1), (False, True)),),
                        amos=(AtMostOne((1, 2)),),
                        imps=(Implication(2, 3),),
                        pairs=(Pair(0, 3, 1.0),))
        assert g.degrees().tolist() == [2, 2, 2, 2]

    def test_out_of_range_variable_is_named(self):
        for bad in ({"xors": (Xor((0, 5), (False, False)),)},
                    {"imps": (Implication(-1, 0),)},
                    {"pairs": (Pair(0, 2, 1.0),)}):
            with pytest.raises(ValueError, match="out of range"):
                FactorGraph(np.zeros(2), ("a", "b"), **bad)


class TestClampPassThrough:
    def test_nothing_fixed_returns_the_graph(self):
        g = build_factor_graph(joint_space(), GraphConstraints())
        cr = clamp_graph(g, {})
        assert cr.graph is g and cr.forced == {}
        assert cr.lift(np.ones(g.nvars, dtype=bool)).all()

    def test_singleton_amo_is_still_dropped(self):
        g = FactorGraph(np.zeros(3), tuple("abc"),
                        xors=(Xor((0, 1), (False, False)),),
                        amos=(AtMostOne((2,)), AtMostOne((0, 2))))
        cr = clamp_graph(g, {})
        assert cr.graph.amos == (AtMostOne((0, 2)),)
        assert cr.graph.xors == g.xors and cr.var_map == {0: 0, 1: 1, 2: 2}

    def test_single_literal_xor_still_propagates(self):
        g = FactorGraph(np.zeros(3), tuple("abc"),
                        xors=(Xor((0,), (True,)),),
                        imps=(Implication(1, 0),))
        cr = clamp_graph(g, {})
        assert cr.forced == {0: False, 1: False}
        assert cr.graph.nvars == 1


def assert_same_graph(got, want):
    """Same variables, factor arrays and dump; offsets to rounding."""
    assert got.labels == want.labels
    np.testing.assert_array_equal(got.theta, want.theta)
    for name in ("var", "neg", "ptr"):
        np.testing.assert_array_equal(getattr(got.xor, name),
                                      getattr(want.xor, name))
        np.testing.assert_array_equal(getattr(got.amo, name),
                                      getattr(want.amo, name))
    for name in ("imp_a", "imp_b", "pair_a", "pair_b", "pair_score"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.semis == want.semis
    assert got.offset == pytest.approx(want.offset, abs=1e-12)
    assert got.dump() == want.dump()


def scored_space(n, rng, target=True, labels=("a1", "a2"), **kw):
    sent = make_sentence([f"w{i}" for i in range(n)])
    onto = Ontology({"lu.v": ["F0", "F1"]}, {"F0": ["R0"], "F1": ["R0", "R1"]})
    space = build_candidate_space(
        sent, Target(1, 1, "lu.v") if target else None, onto,
        SpaceLimits(max_span_len=3, dep_labels=labels, **kw))
    return space.with_scores(rng.normal(size=len(space.parts)))


class TestArraysMatchObjectBuild:
    @pytest.mark.parametrize("case", [
        "joint", "dependencies_only", "no_target", "deterministic_labels",
        "pruned_arcs", "one_label", "dropped_cross"])
    def test_build(self, case):
        rng = np.random.default_rng(41)
        constraints, include_frames = GraphConstraints(), True
        kw = {}
        if case == "pruned_arcs":
            kw["allowed_arcs"] = frozenset({(1, 0), (1, 3), (2, 1), (3, 0)})
        space = scored_space(5, rng, target=case != "no_target",
                             labels=("a1",) if case == "one_label"
                             else ("a1", "a2"), **kw)
        if case == "dependencies_only":
            include_frames = False
        if case == "deterministic_labels":
            constraints = GraphConstraints(frozenset({"a2"}))
        if case == "dropped_cross":
            before = len(space.cross_ids)
            space = drop_sparse_cross_task(space, tol=0.5)
            assert 0 < len(space.cross_ids) < before
        got = build_factor_graph(space, constraints, include_frames)
        assert_same_graph(got, build_factor_graph_by_parts(
            space, constraints, include_frames))

    def test_build_on_random_joint_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            space, constraints = random_joint_instance(rng)
            for include_frames in (True, False):
                assert_same_graph(
                    build_factor_graph(space, constraints, include_frames),
                    build_factor_graph_by_parts(space, constraints,
                                                include_frames))

    @pytest.mark.parametrize("det", [frozenset(), frozenset({"a1"})])
    def test_latent_completion_clamp(self, det):
        rng = np.random.default_rng(47)
        space = scored_space(5, rng)
        fg = build_factor_graph(space, GraphConstraints(det))
        gold = frame_parts(space, FrameParse(Target(1, 1, "lu.v"), "F1",
                                             frozenset({(2, 3, "R1"),
                                                        (0, 0, "R0")})))
        fixed = {v: part in gold for v, part in enumerate(fg.labels)
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
                build_factor_graph(*random_joint_instance(rng))
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
