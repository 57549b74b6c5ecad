import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclaim import graphs
from reclaim.errors import ParameterError, UndefinedMetricError


def graph_from_edges(d, edges):
    adj = np.zeros((d, d), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    return graphs.DirectedGraph(adj)


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ParameterError):
            graphs.DirectedGraph(np.eye(2, dtype=bool))

    def test_edge_list_round_trip(self):
        g = graph_from_edges(3, [(0, 1), (2, 0)])
        assert graphs.graph_from_json(graphs.graph_to_json(g)).edges() == g.edges()


class TestErdosRenyi:
    def test_density_one_on_two_nodes_forces_both_edges(self):
        # p = density/(d-1) = 1, so both ordered pairs must appear
        for seed in range(5):
            g = graphs.erdos_renyi(2, 1.0, seed=seed)
            assert g.n_edges == 2

    def test_mean_edge_count_matches_binomial(self):
        counts = [graphs.erdos_renyi(10, 2.0, seed=s).n_edges for s in range(10_000)]
        assert 19.2 <= np.mean(counts) <= 20.8

    def test_deterministic_given_seed(self):
        a = graphs.erdos_renyi(10, 2.0, seed=42)
        b = graphs.erdos_renyi(10, 2.0, seed=42)
        assert np.array_equal(a.adj, b.adj)

    def test_invalid_density_rejected(self):
        with pytest.raises(ParameterError):
            graphs.erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ParameterError):
            graphs.erdos_renyi(5, 4.5, seed=0)

    def test_per_pair_frequency_chi_squared(self):
        from scipy.stats import chisquare
        d, density, n = 4, 1.5, 10_000
        p = density / (d - 1)
        hits = np.zeros((d, d))
        for s in range(n):
            hits += graphs.erdos_renyi(d, density, seed=s).adj
        off = ~np.eye(d, dtype=bool)
        for count in hits[off]:
            stat, pval = chisquare([count, n - count], [n * p, n * (1 - p)])
            assert pval > 0.001


class TestShd:
    def test_identical_graphs(self):
        g = graphs.erdos_renyi(6, 2.0, seed=1)
        assert graphs.shd(g, g) == 0

    def test_single_reversal_counts_once(self):
        truth = graph_from_edges(3, [(0, 1)])
        est = graph_from_edges(3, [(1, 0)])
        assert graphs.shd(est, truth) == 1

    def test_single_deletion(self):
        truth = graph_from_edges(3, [(0, 1)])
        est = graph_from_edges(3, [])
        assert graphs.shd(est, truth) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            graphs.shd(graph_from_edges(2, []), graph_from_edges(3, []))

    def test_two_cycle_vs_single_edge_is_one_edit(self):
        truth = graph_from_edges(2, [(0, 1), (1, 0)])
        est = graph_from_edges(2, [(0, 1)])
        assert graphs.shd(est, truth) == 1

    @staticmethod
    def _shd_brute(est, truth):
        # per ordered pair {i<j}: 4 states (none, fwd, bwd, both); min edits
        cost = 0
        d = truth.d
        for i in range(d):
            for j in range(i + 1, d):
                e = (bool(est.adj[i, j]), bool(est.adj[j, i]))
                t = (bool(truth.adj[i, j]), bool(truth.adj[j, i]))
                if e == t:
                    continue
                if e == t[::-1] and sum(e) == 1:
                    cost += 1  # reversal
                else:
                    cost += (e[0] != t[0]) + (e[1] != t[1])
        return cost

    def test_matches_brute_force_all_small_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            a = graphs.DirectedGraph(_random_adj(rng, d))
            b = graphs.DirectedGraph(_random_adj(rng, d))
            assert graphs.shd(a, b) == self._shd_brute(a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            a, b, c = (graphs.DirectedGraph(_random_adj(rng, d)) for _ in range(3))
            assert graphs.shd(a, b) == graphs.shd(b, a)
            assert graphs.shd(a, c) <= graphs.shd(a, b) + graphs.shd(b, c)


def _random_adj(rng, d):
    adj = rng.random((d, d)) < 0.4
    np.fill_diagonal(adj, False)
    return adj


def _auprc_brute(scores, truth):
    """Independent step-summed PR sweep using plain python loops."""
    d = truth.d
    entries = [(scores[i, j], bool(truth.adj[i, j]))
               for i in range(d) for j in range(d) if i != j]
    n_pos = sum(1 for _, y in entries if y)
    thresholds = sorted({s for s, _ in entries}, reverse=True)
    area = 0.0
    prev_recall = 0.0
    for tau in thresholds:
        pred = [(s, y) for s, y in entries if s >= tau]
        tp = sum(1 for _, y in pred if y)
        precision = tp / len(pred)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestAuprc:
    def test_perfect_scores(self):
        truth = graph_from_edges(3, [(0, 1), (1, 2)])
        scores = truth.adj.astype(float)
        assert graphs.auprc(scores, truth) == pytest.approx(1.0)

    def test_constant_scores_give_prevalence(self):
        truth = graph_from_edges(4, [(0, 1), (2, 3), (3, 0)])
        scores = np.full((4, 4), 0.4)
        np.fill_diagonal(scores, 0.0)
        assert graphs.auprc(scores, truth) == pytest.approx(3 / 12)

    def test_zero_edge_truth_rejected(self):
        truth = graph_from_edges(3, [])
        scores = np.zeros((3, 3))
        with pytest.raises(UndefinedMetricError):
            graphs.auprc(scores, truth)

    def test_hand_built_case_matches_brute_force(self):
        truth = graph_from_edges(3, [(0, 1), (1, 0), (2, 1)])
        scores = np.array([[0.0, 0.9, 0.2],
                           [0.6, 0.0, 0.6],
                           [0.1, 0.3, 0.0]])
        assert graphs.auprc(scores, truth) == pytest.approx(_auprc_brute(scores, truth))

    def test_matches_brute_force_on_random_small_graphs(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 200:
            d = int(rng.integers(2, 5))
            adj = _random_adj(rng, d)
            if not adj.any():
                continue
            truth = graphs.DirectedGraph(adj)
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(d, d))
            np.fill_diagonal(scores, 0.0)
            assert graphs.auprc(scores, truth) == pytest.approx(
                _auprc_brute(scores, truth), abs=1e-12)
            done += 1


class TestScoreValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan], ids=["negative", "above-one", "nan"])
    def test_a_score_outside_the_unit_interval_is_refused(self, bad):
        """NaN fails both comparisons of the range check, so the check asks for
        scores within [0, 1] rather than for none outside it."""
        truth = graph_from_edges(3, [(0, 1), (1, 2)])
        scores = truth.adj.astype(float)
        scores[2, 0] = bad
        with pytest.raises(ParameterError, match=r"^scores must lie in \[0, 1\]$"):
            graphs.auprc(scores, truth)
        with pytest.raises(ParameterError, match=r"^scores must lie in \[0, 1\]$"):
            graphs.threshold_edges(scores, 0.5)


class TestThresholdEdges:
    def test_all_zero_scores(self):
        g = graphs.threshold_edges(np.zeros((4, 4)), 0.5)
        assert g.n_edges == 0

    def test_boundary_is_inclusive(self):
        scores = np.zeros((2, 2))
        scores[0, 1] = 0.8
        assert graphs.threshold_edges(scores, 0.8).adj[0, 1]

    def test_noisy_truth_recovery_count(self):
        rng = np.random.default_rng(5)
        truth = graphs.erdos_renyi(6, 2.0, seed=5)
        noise = rng.uniform(-0.05, 0.05, size=(6, 6))
        scores = np.clip(truth.adj.astype(float) + noise, 0.0, 1.0)
        np.fill_diagonal(scores, 0.0)
        est = graphs.threshold_edges(scores, 0.8)
        dropped = int(np.sum(truth.adj & (scores < 0.8)))
        assert graphs.shd(est, truth) == dropped

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, t1, t2):
        rng = np.random.default_rng(11)
        scores = rng.random((5, 5))
        np.fill_diagonal(scores, 0.0)
        lo, hi = min(t1, t2), max(t1, t2)
        assert graphs.threshold_edges(scores, hi).n_edges \
            <= graphs.threshold_edges(scores, lo).n_edges

    def test_invalid_tau(self):
        with pytest.raises(ParameterError):
            graphs.threshold_edges(np.zeros((2, 2)), 1.0)
