import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spandep.inference.exhaustive import brute_force_map, exhaustive_joint_map
from spandep.inference.factor_graph import (
    FactorGraph,
    Pair,
    Xor,
    build_factor_graph,
)
from spandep.inference.decode import cost_augment
from spandep.model import ModelConfig, ParserModel
from spandep.parts import SpandepError
from spandep.synthetic import random_joint_instance, synthetic_corpus
from spandep.training import fn_instances

from .oracles import assert_joint_feasible, mask_objective, milp_map


class TestBruteForce:
    def test_empty_graph(self):
        active, val = brute_force_map(FactorGraph(np.array([])))
        assert active.tolist() == [] and val == 0.0

    def test_pair_tie_prefers_fewer_parts(self):
        g = FactorGraph(np.array([-1.0, -1.0]), pairs=(Pair(0, 1, 2.0),))
        active, val = brute_force_map(g)
        assert val == pytest.approx(0.0)
        assert active.tolist() == [False, False]

    def test_pair_strictly_worth_it(self):
        g = FactorGraph(np.array([-1.0, -1.0]), pairs=(Pair(0, 1, 2.5),))
        active, val = brute_force_map(g)
        assert active.tolist() == [True, True]
        assert val == pytest.approx(0.5)

    def test_infeasible_raises(self):
        # exactly one of a/b must be on, but unary XORs force both off
        g = FactorGraph(np.zeros(2),
                        xors=(Xor((0, 1), (False, False)),
                              Xor((0,), (True,)),
                              Xor((1,), (True,))))
        with pytest.raises(SpandepError):
            brute_force_map(g)

    def test_size_cap(self):
        n = 30
        g = FactorGraph(np.ones(n), xors=(Xor(tuple(range(n)), (False,) * n),))
        with pytest.raises(SpandepError):
            brute_force_map(g)

    def test_unconstrained_vars_by_sign(self):
        g = FactorGraph(np.array([0.5, -0.5, 2.0]),
                        xors=(Xor((0,), (False,)),))
        active, val = brute_force_map(g)
        assert active.tolist() == [True, False, True]
        assert val == pytest.approx(2.5)


class TestStructuredOracle:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            space = random_joint_instance(rng)
            fg = build_factor_graph(space)
            bf_vars, bf_val = brute_force_map(fg)
            bf_active = np.zeros(len(space.parts), dtype=bool)
            bf_active[:fg.nvars] = bf_vars
            ex_active, ex_val = exhaustive_joint_map(space)
            assert ex_val == pytest.approx(bf_val, abs=1e-9)
            assert space.scores @ ex_active == pytest.approx(ex_val, abs=1e-9)
            assert mask_objective(space, ex_active) == pytest.approx(ex_val, abs=1e-9)
            assert mask_objective(space, bf_active) == pytest.approx(bf_val, abs=1e-9)
            assert_joint_feasible(space, ex_active)
            assert_joint_feasible(space, bf_active)


def assert_same_optimum(space):
    got, got_val = milp_map(space)
    want, want_val = exhaustive_joint_map(space)
    assert got_val == pytest.approx(want_val, abs=1e-9)
    assert mask_objective(space, got) == pytest.approx(got_val, abs=1e-9)
    assert_joint_feasible(space, got)
    for active in (got, want):
        assert np.array_equal(active[space.cross_ids.start:],
                              active[space.cross_arg] & active[space.cross_arc])


class TestMilpOracle:
    @seed(20240825)
    @settings(max_examples=40, deadline=None)
    @given(draw=st.integers(0, 2**32 - 1))
    def test_matches_structured_oracle_on_random_instances(self, draw):
        assert_same_optimum(random_joint_instance(np.random.default_rng(draw)))

    def test_matches_structured_oracle_on_model_scored_spaces(self):
        """Untrained default-size model, the synthetic sentences (2 to 6
        tokens), plain and cost-augmented."""
        corpus = synthetic_corpus(np.random.default_rng(701), n_fn=8,
                                  n_dm=0, n_fn_dev=0, n_dm_dev=0)
        config = ModelConfig()
        model = ParserModel.build(config, corpus["ontology"],
                                  corpus["dep_labels"], corpus["fn_train"],
                                  np.random.default_rng(0))
        insts = fn_instances(corpus["fn_train"], corpus["ontology"],
                             config.fn_limits(corpus["dep_labels"]))
        for inst in insts:
            space = model.scored_space(inst.space)
            assert_same_optimum(space)
            assert_same_optimum(cost_augment(
                space, space.gold_mask(inst.parse), scope="frames"))
