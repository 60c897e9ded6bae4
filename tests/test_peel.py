import numpy as np
import pytest

from spandep.inference.ad3 import ad3_solve
from spandep.inference.decode import cost_augment, decode
from spandep.inference.exhaustive import brute_force_map, exhaustive_joint_map
from spandep.inference.factor_graph import (
    FactorGraph,
    Implication,
    Infeasible,
    Pair,
    Xor,
    build_factor_graph,
    clamp_graph,
)
from spandep.inference.peel import peel
from spandep.model import ModelConfig, ParserModel
from spandep.parts import FRAME_PART_TYPES, frame_parts
from spandep.synthetic import random_joint_instance, synthetic_corpus
from spandep.training import dm_instances, fn_instances

from .oracles import (
    assert_joint_feasible,
    check_assignment_by_loops,
    part_set_objective,
    random_factor_graph,
)

TINY = ModelConfig(word_dim=4, lemma_dim=2, pos_dim=2, mlp_dim=3, rank=2,
                   label_dim=2, bilstm_layers=1, bilstm_dim=4,
                   word_dropout=0.0)
PIN = 1e4


class TestPeel:
    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(150):
            g = random_factor_graph(rng)
            fixed = {}
            if rng.random() < 0.5:
                for v in rng.choice(g.nvars, size=int(rng.integers(1, 3)),
                                    replace=False):
                    fixed[int(v)] = bool(rng.random() < 0.5)
            try:
                _, want = brute_force_map(clamp_graph(g, fixed).graph)
            except Infeasible:
                with pytest.raises(Infeasible):
                    ad3_solve(g, fixed=fixed)
                continue
            res = ad3_solve(g, fixed=fixed)
            assert res.status == "exact"
            assert res.objective == pytest.approx(want, abs=1e-9)
            assert check_assignment_by_loops(g, res.active)
            assert all(res.active[v] == b for v, b in fixed.items())
            solved += 1
        assert solved >= 100

    def test_core_keeps_the_optimum_and_lifts_back(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            g = random_factor_graph(rng)
            peeled = peel(g)
            core = peeled.core
            assert core.nvars < g.nvars
            assert not (core.degrees() == 0).any()
            try:
                _, want = brute_force_map(g)
            except Infeasible:
                continue
            if core.nvars:
                labels, got = brute_force_map(core)
                core_active = np.array([lab in labels for lab in core.labels])
            else:
                got, core_active = core.offset, np.zeros(0, dtype=bool)
            assert got == pytest.approx(want, abs=1e-9)
            full = peeled.lift(core_active)
            assert check_assignment_by_loops(g, full)
            assert g.objective(full) == pytest.approx(want, abs=1e-9)

    def test_graph_without_leaves_passes_through(self):
        # every variable sits in the XOR and in two pairs
        g = FactorGraph(np.array([0.5, -1.0, 2.0]), ("a", "b", "c"),
                        xors=(Xor((0, 1, 2), (False, True, False)),),
                        pairs=(Pair(0, 1, 1.0), Pair(1, 2, -0.5),
                               Pair(0, 2, 0.25)))
        peeled = peel(g)
        assert peeled.core is g and not peeled.steps
        active = np.array([True, True, False])
        assert np.array_equal(peeled.lift(active), active)

    def test_chain_folds_into_one_variable(self):
        # label XOR on arc 1, arc 1 => head 0, nothing else: all peels
        g = FactorGraph(np.array([-0.5, 0.25, 1.0, -2.0]), tuple("habc"),
                        xors=(Xor((1, 2, 3), (True, False, False)),),
                        imps=(Implication(1, 0),))
        peeled = peel(g)
        assert peeled.core.nvars == 0
        assert peeled.core.offset == pytest.approx(0.75)
        assert peeled.lift(np.zeros(0, dtype=bool)).tolist() == \
            [True, True, True, False]
        res = ad3_solve(g)
        assert res.iterations == 0 and res.status == "exact"
        assert res.objective == pytest.approx(0.75)


class TestFactorGraphStructure:
    def test_only_the_coupled_frame_side_stays(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            space = random_joint_instance(rng)
            fg = build_factor_graph(space)
            core = peel(clamp_graph(fg, {}).graph).core
            t1 = space.target.start
            for part in core.labels:
                head = getattr(part, "head", getattr(part, "token", t1))
                assert isinstance(part, FRAME_PART_TYPES) or head == t1, part
            deps = build_factor_graph(space, include_frames=False)
            assert peel(clamp_graph(deps, {}).graph).core.nvars == 0


@pytest.fixture(scope="module")
def scored():
    """Model-scored frame and dependency spaces from the synthetic corpus."""
    corpus = synthetic_corpus(np.random.default_rng(34), n_fn=12, n_dm=12,
                              n_fn_dev=0, n_dm_dev=0)
    sents = corpus["fn_train"] + corpus["dm_train"]
    model = ParserModel.build(TINY, corpus["ontology"], corpus["dep_labels"],
                              sents, np.random.default_rng(0))
    fn = fn_instances(corpus["fn_train"], model.ontology,
                      TINY.fn_limits(model.dep_labels))
    dm = dm_instances(corpus["dm_train"], TINY.dm_limits(model.dep_labels))
    return ([(model.scored_space(i.space), i.parse) for i in fn],
            [model.scored_space(i.space) for i in dm])


def pinned_objective(space, gold):
    """Latent-completion optimum from the joint oracle: gold frame parts are
    lifted by PIN, every other frame part is sunk by PIN."""
    keep = frame_parts(space, gold)
    scores = space.scores.copy()
    for i, part in enumerate(space.parts):
        if isinstance(part, FRAME_PART_TYPES):
            scores[i] += PIN if part in keep else -PIN
    _, val = exhaustive_joint_map(space.with_scores(scores))
    return val - PIN * len(keep)


class TestModelScored:
    def test_dependency_only_and_latent_decodes_run_no_iteration(self, scored):
        fn, dm = scored
        for space in dm:
            res = decode(space, mode="dependencies_only")
            assert res.iterations == 0 and res.status == "exact"
            _, want = exhaustive_joint_map(space)
            assert res.objective == pytest.approx(want, abs=1e-9)
        for space, gold in fn:
            res = decode(space, mode="latent_completion", gold_parse=gold)
            assert res.iterations == 0 and res.status == "exact"
            assert res.objective == pytest.approx(
                pinned_objective(space, gold), abs=1e-6)

    def test_joint_decodes_certified_or_flagged(self, scored):
        """A plain and a cost-augmented joint decode of each of the first
        six frame spaces: an ``exact`` one reaches the oracle's optimum, any
        other is feasible and no better than it."""
        fn, _ = scored
        for space, gold in fn[:6]:
            for s in (space, cost_augment(space, frame_parts(space, gold),
                                          scope="frames")):
                res = decode(s, mode="joint")
                assert_joint_feasible(s, res.parts)
                _, want = exhaustive_joint_map(s)
                got = part_set_objective(s, res.parts)
                if res.status == "exact":
                    assert res.objective == pytest.approx(want, abs=1e-6)
                    assert got == pytest.approx(want, abs=1e-6)
                else:
                    assert got <= want + 1e-9
