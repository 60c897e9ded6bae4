import numpy as np
import pytest

from spandep.autodiff import Graph, ParameterStore, grad_check
from spandep.inference.semimarkov import (
    SpanTable,
    nll_node,
    semi_markov_map,
    semi_markov_marginals,
)

from .oracles import (
    enumerate_segmentations,
    log_partition_by_enumeration,
    map_by_enumeration,
    marginals_by_enumeration,
    random_span_problem,
    semi_markov_map_by_lists,
)


def test_all_negative_scores_empty():
    spans = [(0, 0), (1, 2), (0, 2)]
    chosen, val = semi_markov_map(spans, [-1.0, -0.5, -3.0], 3)
    assert chosen == []
    assert val == 0.0


def test_single_positive_span():
    chosen, val = semi_markov_map([(1, 2)], [5.0], 4)
    assert chosen == [0]
    assert val == 5.0


def test_overlap_picks_better():
    spans = [(0, 1), (1, 2)]
    chosen, val = semi_markov_map(spans, [3.0, 4.0], 3)
    assert chosen == [1]
    assert val == 4.0


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        semi_markov_map([(0, 5)], [1.0], 3)


def test_tie_prefers_fewer_segments():
    # two singles vs one pair, equal total
    spans = [(0, 0), (1, 1), (0, 1)]
    chosen, val = semi_markov_map(spans, [1.0, 1.0, 2.0], 2)
    assert chosen == [2]
    assert val == 2.0


def test_tie_prefers_earlier_index_within_cell():
    spans = [(0, 0), (0, 0)]
    chosen, _ = semi_markov_map(spans, [1.0, 1.0], 1)
    assert chosen == [0]


def test_map_matches_enumeration_many_settings():
    rng = np.random.default_rng(42)
    for trial in range(60):
        spans, scores, n = random_span_problem(rng)
        chosen, val = semi_markov_map(spans, scores, n)
        _, want = map_by_enumeration(spans, scores, n)
        assert val == pytest.approx(want, abs=1e-9), (trial, spans, scores)
        # feasibility of the returned set
        covered = set()
        for idx in chosen:
            i, j = spans[idx]
            assert not covered & set(range(i, j + 1))
            covered |= set(range(i, j + 1))
        assert sum(scores[i] for i in chosen) == pytest.approx(val)


def test_single_token_partition_two_outcomes():
    logz, post = semi_markov_marginals([(0, 0)], [0.0], 1)
    assert logz == pytest.approx(np.log(2.0))
    assert post[0] == pytest.approx(0.5)


def test_large_score_posterior_to_one():
    _, post = semi_markov_marginals([(0, 1)], [50.0], 2)
    assert post[0] == pytest.approx(1.0, abs=1e-12)


def test_partition_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        spans, scores, n = random_span_problem(rng, n_max=6)
        logz, _ = semi_markov_marginals(spans, scores, n)
        want = log_partition_by_enumeration(spans, scores, n)
        assert logz == pytest.approx(want, abs=1e-8)


def test_marginals_match_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(30):
        spans, scores, n = random_span_problem(rng, n_max=6)
        logz, post = semi_markov_marginals(spans, scores, n)
        _, want = marginals_by_enumeration(spans, scores, n)
        np.testing.assert_allclose(post, want, atol=1e-8)
        assert np.all(post >= 0) and np.all(post <= 1 + 1e-12)


def test_segmentation_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    spans, scores, n = random_span_problem(rng, n_max=6)
    logz, _ = semi_markov_marginals(spans, scores, n)
    total = sum(np.exp(sum(scores[i] for i in sub) - logz)
                for sub in enumerate_segmentations(spans, n))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_nll_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    n = 5
    spans = [(i, j) for i in range(n) for j in range(i, min(n, i + 3))]
    store = ParameterStore()
    store.add("s", (len(spans),), init="zeros")[...] = \
        rng.normal(size=len(spans))
    g = Graph()
    loss = nll_node(g, g.param(store, "s"), spans, n, gold_indices=[0])
    report = grad_check(g, loss, store, tolerance=1e-4)
    assert report["pass"], report


def test_nll_nonnegative_and_zero_gradient_at_optimum():
    # gold is one of the outcomes, so logZ >= gold score
    spans = [(0, 0), (1, 1)]
    store = ParameterStore()
    store.add("s", (2,), init="zeros")[...] = np.array([0.3, -0.2])
    g = Graph()
    loss = nll_node(g, g.param(store, "s"), spans, 2, gold_indices=[0, 1])
    assert float(loss.value) >= 0.0


def test_nll_rejects_overlapping_gold():
    spans = [(0, 1), (1, 1)]
    g = Graph()
    s = g.input(np.zeros(2))
    with pytest.raises(ValueError):
        nll_node(g, s, spans, 2, gold_indices=[0, 1])


def test_map_matches_the_list_reference_with_ties():
    rng = np.random.default_rng(43)
    for trial in range(300):
        spans, scores, n = random_span_problem(rng, copies=3)
        if trial % 2:  # integer scores: exact ties everywhere
            scores = rng.integers(-2, 3, size=len(spans)).astype(float)
        want = semi_markov_map_by_lists(spans, scores, n)
        assert semi_markov_map(spans, scores, n) == want
        table = SpanTable(spans, n)
        for _ in range(3):  # one table serves many score vectors
            assert semi_markov_map(spans, scores, n, table=table) == want
            scores = rng.integers(-1, 2, size=len(spans)).astype(float)
            want = semi_markov_map_by_lists(spans, scores, n)


def test_map_with_no_selectable_item():
    assert semi_markov_map([], [], 2) == ([], 0.0)
    logz, post = semi_markov_marginals([], [], 2)
    assert logz == 0.0 and post.shape == (0,)
