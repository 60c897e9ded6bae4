import numpy as np
import pytest

from spandep.inference.exhaustive import brute_force_map, exhaustive_joint_map
from spandep.inference.factor_graph import (
    FactorGraph,
    Pair,
    Xor,
    build_factor_graph,
)
from spandep.parts import SpandepError
from spandep.synthetic import random_joint_instance

from .oracles import assert_joint_feasible, part_set_objective


class TestBruteForce:
    def test_empty_graph(self):
        parts, val = brute_force_map(FactorGraph(np.array([]), ()))
        assert parts == frozenset() and val == 0.0

    def test_pair_tie_prefers_fewer_parts(self):
        g = FactorGraph(np.array([-1.0, -1.0]), ("a", "b"),
                        pairs=(Pair(0, 1, 2.0),))
        parts, val = brute_force_map(g)
        assert val == pytest.approx(0.0)
        assert parts == frozenset()

    def test_pair_strictly_worth_it(self):
        g = FactorGraph(np.array([-1.0, -1.0]), ("a", "b"),
                        pairs=(Pair(0, 1, 2.5),))
        parts, val = brute_force_map(g)
        assert parts == frozenset({"a", "b"})
        assert val == pytest.approx(0.5)

    def test_infeasible_raises(self):
        # exactly one of a/b must be on, but unary XORs force both off
        g = FactorGraph(np.zeros(2), ("a", "b"),
                        xors=(Xor((0, 1), (False, False)),
                              Xor((0,), (True,)),
                              Xor((1,), (True,))))
        with pytest.raises(SpandepError):
            brute_force_map(g)

    def test_size_cap(self):
        n = 30
        g = FactorGraph(np.ones(n), tuple(range(n)),
                        xors=(Xor(tuple(range(n)), (False,) * n),))
        with pytest.raises(SpandepError):
            brute_force_map(g)

    def test_unconstrained_vars_by_sign(self):
        g = FactorGraph(np.array([0.5, -0.5, 2.0]), ("a", "b", "c"),
                        xors=(Xor((0,), (False,)),))
        parts, val = brute_force_map(g)
        assert parts == frozenset({"a", "c"})
        assert val == pytest.approx(2.5)


class TestStructuredOracle:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            space = random_joint_instance(rng)
            fg = build_factor_graph(space)
            bf_parts, bf_val = brute_force_map(fg)
            ex_parts, ex_val = exhaustive_joint_map(space)
            assert ex_val == pytest.approx(bf_val, abs=1e-9)
            assert part_set_objective(space, ex_parts) == pytest.approx(ex_val, abs=1e-9)
            assert part_set_objective(space, bf_parts) == pytest.approx(bf_val, abs=1e-9)
            assert_joint_feasible(space, ex_parts)
            assert_joint_feasible(space, bf_parts)
