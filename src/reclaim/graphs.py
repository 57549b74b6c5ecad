"""Directed graphs over latent nodes, random generation, and recovery metrics.

Graphs are plain boolean adjacency matrices wrapped in a small dataclass:
``adj[i, j]`` is True when the graph has the edge ``i -> j``. Cycles are
allowed, self-loops are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedMetricError


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on ``d`` nodes; ``adj[i, j]`` means edge i -> j."""

    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ParameterError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ParameterError("graph needs at least one node")
        if np.any(np.diag(adj)):
            raise ParameterError("self-loops are not allowed")
        object.__setattr__(self, "adj", adj)

    @property
    def d(self) -> int:
        return self.adj.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adj.sum())

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted (i, j) pairs, 0-based."""
        return [(int(i), int(j)) for i, j in np.argwhere(self.adj)]


def erdos_renyi(d: int, expected_out_degree: float, seed) -> DirectedGraph:
    """Sample a directed Erdős–Rényi graph.

    Each ordered pair (i, j), i != j, is included independently with
    probability ``expected_out_degree / (d - 1)``, so every node has the
    requested expected number of outgoing edges.
    """
    if d < 2:
        raise ParameterError("need d >= 2 to place directed edges")
    if not (0 < expected_out_degree <= d - 1):
        raise ParameterError(
            f"expected_out_degree must lie in (0, d-1]; got {expected_out_degree}"
        )
    p = expected_out_degree / (d - 1)
    rng = np.random.default_rng(seed)
    adj = rng.random((d, d)) < p
    np.fill_diagonal(adj, False)
    return DirectedGraph(adj)


def _reversal_masks(est: np.ndarray, truth: np.ndarray):
    """Positions (i, j) where truth has i->j only and estimate has j->i only."""
    return truth & ~truth.T & est.T & ~est


def shd(estimate: DirectedGraph, truth: DirectedGraph) -> int:
    """Structural Hamming distance: additions + deletions + reversals.

    A reversed pair (estimate has j->i where the truth has i->j, and
    neither graph has the opposite edge) counts as a single edit.
    """
    if estimate.d != truth.d:
        raise ParameterError(f"node counts differ: {estimate.d} vs {truth.d}")
    est, tru = estimate.adj, truth.adj
    rev = _reversal_masks(est, tru)
    n_rev = int(rev.sum())
    # Edges explained by a reversal are excluded from additions/deletions.
    missing = tru & ~est & ~rev
    extra = est & ~tru & ~rev.T
    return n_rev + int(missing.sum()) + int(extra.sum())


def _validate_scores(scores: np.ndarray, d: int | None = None) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ParameterError(f"score matrix must be square, got {scores.shape}")
    if d is not None and scores.shape[0] != d:
        raise ParameterError(f"score matrix is {scores.shape[0]}x{scores.shape[0]}, graph has d={d}")
    if np.any(np.diag(scores) != 0):
        raise ParameterError("score matrix must have an exactly-zero diagonal")
    if not np.all((scores >= 0) & (scores <= 1)):  # NaN fails both
        raise ParameterError("scores must lie in [0, 1]")
    return scores


def auprc(scores: np.ndarray, truth: DirectedGraph) -> float:
    """Area under the precision-recall curve of edge scores.

    Off-diagonal entries are ranked by score; the PR curve is swept over
    every distinct score value (ties grouped), and the area uses step-wise
    summation sum_k (R_k - R_{k-1}) * P_k with thresholds descending.
    """
    scores = _validate_scores(scores, truth.d)
    d = truth.d
    off = ~np.eye(d, dtype=bool)
    s = scores[off]
    y = truth.adj[off]
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("truth graph has no edges; AUPRC is undefined")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted)
    pred = np.arange(1, s.size + 1)
    # Last index of each tie group = PR point for that distinct threshold.
    last_of_group = np.nonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])[0]
    precision = tp[last_of_group] / pred[last_of_group]
    recall = tp[last_of_group] / n_pos
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(np.sum((recall - prev_recall) * precision))


def threshold_edges(scores: np.ndarray, tau: float) -> DirectedGraph:
    """Binarize edge scores: edge (i, j) is present iff scores[i, j] >= tau."""
    if not (0 < tau < 1):
        raise ParameterError(f"tau must lie in (0, 1); got {tau}")
    scores = _validate_scores(scores)
    adj = scores >= tau
    np.fill_diagonal(adj, False)
    return DirectedGraph(adj)


def graph_to_json(graph: DirectedGraph) -> str:
    return json.dumps({"d": graph.d, "edges": graph.edges()})


def graph_from_json(text: str) -> DirectedGraph:
    """The graph of ``{"d": d, "edges": [[i, j], ...]}``; each index an int in [0, d), not a bool."""
    obj = json.loads(text)
    d = obj["d"]
    adj = np.zeros((d, d), dtype=bool)
    for i, j in obj["edges"]:
        if not all(type(v) is int and 0 <= v < d for v in (i, j)):
            raise ParameterError(f"edge {[i, j]} is not a pair of node indices below d={d}")
        adj[i, j] = True
    return DirectedGraph(adj)
