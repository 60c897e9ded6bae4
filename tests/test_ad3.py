import re

import numpy as np
import pytest

from spandep.inference.ad3 import SolverOptions, _LoopState, ad3_solve
from spandep.inference.decode import (
    cost_augment,
    decode,
    drop_sparse_cross_task,
)
from spandep.inference.exhaustive import brute_force_map
from spandep.inference.factor_graph import (
    FactorGraph,
    Pair,
    SemiMarkov,
    Xor,
    build_factor_graph,
    clamp_graph,
)
from spandep.parts import (
    CrossTask,
    FrameParse,
    SpandepError,
    frame_parts,
    weighted_hamming,
)
from spandep.synthetic import random_joint_instance

from .oracles import assert_joint_feasible, mask_objective, mask_of


class TestFixtures:
    def test_single_variable_by_sign(self):
        on = ad3_solve(FactorGraph(np.array([1.0])))
        assert on.active.tolist() == [True] and on.objective == 1.0
        off = ad3_solve(FactorGraph(np.array([-1.0])))
        assert off.active.tolist() == [False] and off.objective == 0.0

    def test_xor_argmax(self):
        g = FactorGraph(np.array([1.0, 3.0, 2.0]),
                        xors=(Xor((0, 1, 2), (False,) * 3),))
        res = ad3_solve(g)
        assert res.active.tolist() == [False, True, False]
        assert res.objective == pytest.approx(3.0)
        assert res.status == "exact"

    def test_semi_markov_factor(self):
        spans = ((0, 0), (1, 1), (0, 1))
        g = FactorGraph(np.array([1.0, 1.0, 2.5]),
                        semis=(SemiMarkov((0, 1, 2), spans, 2),))
        res = ad3_solve(g)
        assert res.objective == pytest.approx(2.5)
        assert res.active.tolist() == [False, False, True]

    def test_status_exact_has_certificate(self):
        g = FactorGraph(np.array([0.5, 1.5]),
                        xors=(Xor((0, 1), (False, False)),))
        res = ad3_solve(g)
        assert res.status == "exact"
        assert res.objective >= res.dual - 1e-6

    def test_fixed_pins_variables(self):
        g = FactorGraph(np.array([5.0, 1.0]),
                        xors=(Xor((0, 1), (False, False)),))
        res = ad3_solve(g, fixed={0: False})
        assert res.active.tolist() == [False, True]
        assert res.objective == pytest.approx(1.0)


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        exact = 0
        for _ in range(60):
            space = random_joint_instance(rng)
            fg = build_factor_graph(space)
            _, want = brute_force_map(fg)
            res = ad3_solve(fg)
            assert res.objective == pytest.approx(want, abs=1e-6)
            active = np.zeros(len(space.parts), dtype=bool)
            active[:len(res.active)] = res.active
            assert mask_objective(space, active) == \
                pytest.approx(res.objective, abs=1e-9)
            assert_joint_feasible(space, active)
            assert res.dual >= want - 1e-6
            exact += res.status == "exact"
        assert exact >= 55  # the search budget should close almost all gaps

    def test_every_dual_value_bounds_the_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            space = random_joint_instance(rng)
            fg = build_factor_graph(space)
            _, want = brute_force_map(fg)
            cr = clamp_graph(fg, {})
            state = _LoopState(cr.graph, SolverOptions())
            state.run()
            for dual in state.dual_history:
                assert dual >= want - 1e-7


class TestDecode:
    def test_joint_decode_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            space = random_joint_instance(rng)
            res = decode(space)
            assert res.parse is not None
            assert res.parse.frame in space.frames
            ont_roles = {a.role for a in
                         (space.parts[i] for i in space.argument_ids)
                         if a.frame == res.parse.frame}
            for (_i, _j, role) in res.parse.arguments:
                assert role in ont_roles
            assert res.graph.top is not None

    def test_dependencies_only_ignores_frames(self):
        rng = np.random.default_rng(4)
        space = random_joint_instance(rng)
        res = decode(space, mode="dependencies_only")
        assert res.parse is None
        assert not res.active[space.predicate_ids.start:space.head_ids.start].any()

    def test_latent_completion_returns_gold_frames(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            space = random_joint_instance(rng)
            base = decode(space)
            gold = base.parse
            flipped = decode(space.with_scores(-space.scores),
                             mode="latent_completion", gold_parse=gold)
            assert flipped.parse == gold

    def test_latent_completion_optimal_given_frames(self):
        # clamping the frame side must yield the best completion: compare
        # against brute force on the same graph with the same pins
        rng = np.random.default_rng(8)
        space = random_joint_instance(rng)
        gold = decode(space).parse
        res = decode(space, mode="latent_completion",
                     gold_parse=gold)
        fg = build_factor_graph(space)
        gold_set = frame_parts(space, gold)
        fixed = {v: space.parts[v] in gold_set
                 for v in range(space.head_ids.start)}
        cr = clamp_graph(fg, fixed)
        _, sub_val = brute_force_map(cr.graph)
        assert res.objective == pytest.approx(sub_val, abs=1e-6)


class TestCostAugment:
    def test_shift_values(self):
        space = random_joint_instance(np.random.default_rng(9))
        ones = space.with_scores(np.ones(len(space.parts)))
        target = space.parts[space.predicate_ids[0]]
        gold = FrameParse(space.target, target.frame, frozenset())
        gold_set = frame_parts(ones, gold)
        aug = cost_augment(ones, ones.gold_mask(gold), scope="frames")
        for i, part in enumerate(ones.parts):
            if isinstance(part, CrossTask):
                assert aug.scores[i] == pytest.approx(1.0)
            elif part in gold_set:
                assert aug.scores[i] == pytest.approx(0.4)
            elif i in set(space.predicate_ids) | set(space.argument_ids):
                assert aug.scores[i] == pytest.approx(1.4)
            else:
                assert aug.scores[i] == pytest.approx(1.0)  # other task

    def test_empty_gold_shifts_everything(self):
        space = random_joint_instance(np.random.default_rng(10))
        zeros = space.with_scores(np.zeros(len(space.parts)))
        empty = mask_of(zeros, ())
        aug = cost_augment(cost_augment(zeros, empty, scope="frames"), empty,
                           scope="dependencies")
        for i, part in enumerate(zeros.parts):
            want = 0.0 if isinstance(part, CrossTask) else 0.4
            assert aug.scores[i] == pytest.approx(want)

    def test_gold_outside_scope_is_named(self):
        space = random_joint_instance(np.random.default_rng(9))
        arc = space.parts[space.arc_ids[0]]
        gold = mask_of(space, {arc, space.parts[space.predicate_ids[0]]})
        with pytest.raises(SpandepError, match=re.escape(str(arc))):
            cost_augment(space, gold, scope="frames")
        pred = space.parts[space.predicate_ids[0]]
        with pytest.raises(SpandepError, match=re.escape(str(pred))):
            cost_augment(space, gold, scope="dependencies")
        frames = np.arange(len(space)) < space.head_ids.start
        cost_augment(space, gold & frames, scope="frames")
        cost_augment(space, gold & ~frames, scope="dependencies")

    def test_augmented_decode_maximizes_score_plus_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            space = random_joint_instance(rng)
            gold = decode(space).parse
            gold_mask = space.gold_mask(gold)
            aug = cost_augment(space, gold_mask, scope="frames")
            got = decode(aug)
            frames = slice(space.head_ids.start)
            raw = mask_objective(space, got.active)
            delta = weighted_hamming(got.active[frames], gold_mask[frames])
            fg = build_factor_graph(aug)
            _, want = brute_force_map(fg)
            assert raw + delta == pytest.approx(want + 0.6 * gold_mask.sum(),
                                                abs=1e-6)


class TestDropSparse:
    def test_zero_epsilon_drops_only_exact_zeros(self):
        space = random_joint_instance(np.random.default_rng(13))
        scores = space.scores.copy()
        cid = space.cross_ids[0]
        scores[cid] = 0.0
        space = space.with_scores(scores)
        reduced = drop_sparse_cross_task(space, tol=0.0)
        assert len(reduced.parts) == len(space.parts) - 1
        assert set(space.parts) - set(reduced.parts) == {space.parts[cid]}

    def test_structure_preserved_when_dropping_zeros(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            space = random_joint_instance(rng)
            scores = space.scores.copy()
            scores[list(space.cross_ids[::2])] = 0.0
            space = space.with_scores(scores)
            reduced = drop_sparse_cross_task(space, tol=0.0)
            a = decode(space)
            b = decode(reduced)
            start = space.cross_ids.start
            assert (a.active[:start] == b.active[:start]).all()
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_referenced_parts_stay_valid(self):
        space = random_joint_instance(np.random.default_rng(15))
        reduced = drop_sparse_cross_task(space, tol=10.0)  # drop all
        assert not reduced.cross_ids
        for p in reduced.parts:
            assert not isinstance(p, CrossTask)
