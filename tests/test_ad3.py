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
    GraphConstraints,
    Pair,
    SemiMarkov,
    Xor,
    build_factor_graph,
    clamp_graph,
)
from spandep.parts import (
    FRAME_PART_TYPES,
    CostConfig,
    CrossTask,
    FrameParse,
    Predicate,
    frame_parts,
    weighted_hamming,
)
from spandep.synthetic import random_joint_instance

from .oracles import assert_joint_feasible, part_set_objective


class TestFixtures:
    def test_single_variable_by_sign(self):
        on = ad3_solve(FactorGraph(np.array([1.0]), ("a",)))
        assert on.assignment == frozenset({"a"}) and on.objective == 1.0
        off = ad3_solve(FactorGraph(np.array([-1.0]), ("a",)))
        assert off.assignment == frozenset() and off.objective == 0.0

    def test_xor_argmax(self):
        g = FactorGraph(np.array([1.0, 3.0, 2.0]), ("a", "b", "c"),
                        xors=(Xor((0, 1, 2), (False,) * 3),))
        res = ad3_solve(g)
        assert res.assignment == frozenset({"b"})
        assert res.objective == pytest.approx(3.0)
        assert res.status == "exact"

    def test_semi_markov_factor(self):
        spans = ((0, 0, "x"), (1, 1, "y"), (0, 1, "z"))
        g = FactorGraph(np.array([1.0, 1.0, 2.5]), ("a", "b", "c"),
                        semis=(SemiMarkov((0, 1, 2), spans, 2, 2),))
        res = ad3_solve(g)
        assert res.objective == pytest.approx(2.5)
        assert res.assignment == frozenset({"c"})

    def test_status_exact_has_certificate(self):
        g = FactorGraph(np.array([0.5, 1.5]), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),))
        res = ad3_solve(g)
        assert res.status == "exact"
        assert res.objective >= res.dual - 1e-6

    def test_fixed_pins_variables(self):
        g = FactorGraph(np.array([5.0, 1.0]), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),))
        res = ad3_solve(g, fixed={0: False})
        assert res.assignment == frozenset({"b"})
        assert res.objective == pytest.approx(1.0)


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        exact = 0
        for _ in range(60):
            space, constraints = random_joint_instance(rng)
            fg = build_factor_graph(space, constraints)
            _, want = brute_force_map(fg)
            res = ad3_solve(fg)
            assert res.objective == pytest.approx(want, abs=1e-6)
            assert part_set_objective(space, res.assignment) == \
                pytest.approx(res.objective, abs=1e-9)
            assert_joint_feasible(space, res.assignment, constraints)
            assert res.dual >= want - 1e-6
            exact += res.status == "exact"
        assert exact >= 55  # the search budget should close almost all gaps

    def test_every_dual_value_bounds_the_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            space, constraints = random_joint_instance(rng)
            fg = build_factor_graph(space, constraints)
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
            space, constraints = random_joint_instance(rng)
            res = decode(space, constraints)
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
        space, constraints = random_joint_instance(rng)
        res = decode(space, constraints, mode="dependencies_only")
        assert res.parse is None
        assert not any(isinstance(p, Predicate) for p in res.parts)

    def test_latent_completion_returns_gold_frames(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            space, constraints = random_joint_instance(rng)
            base = decode(space, constraints)
            gold = base.parse
            flipped = decode(space.with_scores(-space.scores), constraints,
                             mode="latent_completion", gold_parse=gold)
            assert flipped.parse == gold

    def test_latent_completion_optimal_given_frames(self):
        # clamping the frame side must yield the best completion: compare
        # against brute force on the same graph with the same pins
        rng = np.random.default_rng(8)
        space, constraints = random_joint_instance(rng)
        gold = decode(space, constraints).parse
        res = decode(space, constraints, mode="latent_completion",
                     gold_parse=gold)
        fg = build_factor_graph(space, constraints)
        gold_set = frame_parts(space, gold)
        fixed = {v: part in gold_set for v, part in enumerate(fg.labels)
                 if isinstance(part, FRAME_PART_TYPES)}
        cr = clamp_graph(fg, fixed)
        _, sub_val = brute_force_map(cr.graph)
        assert res.objective == pytest.approx(sub_val, abs=1e-6)


class TestCostAugment:
    def test_shift_values(self):
        space, _ = random_joint_instance(np.random.default_rng(9))
        ones = space.with_scores(np.ones(len(space.parts)))
        target = space.parts[space.predicate_ids[0]]
        gold = FrameParse(space.target, target.frame, frozenset())
        gold_set = frame_parts(ones, gold)
        aug = cost_augment(ones, gold_set, CostConfig(), scope="frames")
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
        space, _ = random_joint_instance(np.random.default_rng(10))
        zeros = space.with_scores(np.zeros(len(space.parts)))
        aug = cost_augment(zeros, set(), CostConfig(), scope="all")
        for i, part in enumerate(zeros.parts):
            want = 0.0 if isinstance(part, CrossTask) else 0.4
            assert aug.scores[i] == pytest.approx(want)

    def test_augmented_decode_maximizes_score_plus_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            space, constraints = random_joint_instance(rng)
            gold = decode(space, constraints).parse
            gold_set = frame_parts(space, gold)
            aug = cost_augment(space, gold_set, CostConfig(), scope="frames")
            got = decode(aug, constraints)
            got_frames = {p for p in got.parts
                          if type(p).__name__ in ("Predicate", "Argument")}
            raw = part_set_objective(space, got.parts)
            delta = weighted_hamming(got_frames, gold_set, CostConfig())
            fg = build_factor_graph(aug, constraints)
            _, want = brute_force_map(fg)
            assert raw + delta == pytest.approx(want + 0.6 * len(gold_set),
                                                abs=1e-6)


class TestDropSparse:
    def test_zero_epsilon_drops_only_exact_zeros(self):
        space, _ = random_joint_instance(np.random.default_rng(13))
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
            space, constraints = random_joint_instance(rng)
            scores = space.scores.copy()
            scores[list(space.cross_ids[::2])] = 0.0
            space = space.with_scores(scores)
            reduced = drop_sparse_cross_task(space, tol=0.0)
            a = decode(space, constraints)
            b = decode(reduced, constraints)
            assert a.parts == b.parts
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_referenced_parts_stay_valid(self):
        space, _ = random_joint_instance(np.random.default_rng(15))
        reduced = drop_sparse_cross_task(space, tol=10.0)  # drop all
        assert not reduced.cross_ids
        for p in reduced.parts:
            assert not isinstance(p, CrossTask)
