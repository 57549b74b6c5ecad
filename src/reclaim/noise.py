"""Measurement-noise variance estimation from interventional data.

Additive channel: when node i is intervened its latent variance is pinned to
the known interventional variance, so the measurement variance is the excess
observed variance. Linear channel: projection vectors orthogonal to all but
one mixing column isolate a single latent; the squared projections stack into
a linear system in the per-measurement noise variances, solved exactly under
a non-negativity constraint by an active-set NNLS solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, IdentifiabilityError, ParameterError, RankError,
                     SamplingFailureError)
from .scm import InterventionFamily

VARIANCE_FLOOR = 1e-6
_NULL_RESID_TOL = 1e-10

# Defaults for the projection sampler; thresholds act on unit-norm vectors.
EPS_SIG = 0.1
DELTA_DIVERSITY = 0.05
MAX_STREAK = 500  # consecutive rejections after which a node is passed over


def _covering_regimes(datasets, family, node):
    """Regimes that target ``node`` and hold the two rows a sample variance needs."""
    return [k for k, regime in enumerate(family.regimes)
            if node in regime.targets and len(datasets[k]) >= 2]


def _require_identifiable(datasets, family, d):
    """Every regime target names one of the d nodes, and every node has a covering regime."""
    family.check_targets(d)
    missing = [i for i in range(d) if not _covering_regimes(datasets, family, i)]
    if missing:
        raise IdentifiabilityError(
            f"nodes {missing} are never intervened in a regime of at least two "
            f"observations; measurement noise is not identifiable"
        )


def estimate_gan_variances(datasets, family: InterventionFamily) -> np.ndarray:
    """Per-coordinate noise variances for the additive channel.

    For each node, the sample variance of its measurement column under a
    covering regime minus the interventional variance; estimates from
    multiple covering regimes are averaged, and the result is floored at
    a small positive value.
    """
    d = np.asarray(datasets[0]).shape[1]
    _require_identifiable(datasets, family, d)
    out = np.empty(d)
    for i in range(d):
        ests = []
        for k in _covering_regimes(datasets, family, i):
            col = np.asarray(datasets[k], dtype=float)[:, i]
            ests.append(np.var(col, ddof=1) - family.regimes[k].variance)
        out[i] = np.mean(ests)
    return np.maximum(out, VARIANCE_FLOOR)


def null_space_basis(a_minus_i_t: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a (d-1) x p matrix of rank d-1."""
    M = np.asarray(a_minus_i_t, dtype=float)
    k, p = M.shape
    _, svals, vt = np.linalg.svd(M, full_matrices=True)
    if svals.size and svals[-1] <= _NULL_RESID_TOL * max(1.0, svals[0]):
        raise RankError("column-deleted mixing matrix is numerically rank deficient")
    basis = vt[k:].T
    resid = np.max(np.abs(M @ basis)) if basis.size else 0.0
    if resid > _NULL_RESID_TOL:
        raise RankError(f"null-space residual {resid:.2e} exceeds tolerance")
    return basis


@dataclass
class ProjectionSet:
    """Accepted projection vectors for the linear-channel noise system.

    ``vectors`` holds the unit-norm projections row-wise, ``squares`` their
    elementwise squares (the least-squares design matrix), and
    ``source_node`` the latent index each row isolates.
    """

    vectors: np.ndarray
    source_node: np.ndarray

    @property
    def squares(self) -> np.ndarray:
        return self.vectors ** 2

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


def sample_projection_vectors(A: np.ndarray, m: int | None = None,
                              delta: float = DELTA_DIVERSITY,
                              seed=None,
                              signal_cap: float | None = None) -> ProjectionSet:
    """Sample projection vectors whose squares form a rank-p design matrix.

    Cycles over latent nodes; for node i, draws coefficients against the
    null-space basis of the other columns, keeps unit-norm vectors with
    enough signal on column i (|a_i' t| >= EPS_SIG) whose squared vector is
    sufficiently different (cosine <= 1 - delta) from every accepted row.
    A node rejected ``MAX_STREAK`` times in a row, or whose one-dimensional
    null space is already represented, is passed over, so square systems
    terminate with one row per node. Once every node has had its share of
    the m rows, nodes are asked round-robin for one row each until the
    squares reach rank p. Fails once the total draw budget (1e4 * m) is
    spent without reaching rank p; a rank-deficient A, for which no vector
    can isolate some latent, is rejected before any draw.

    ``signal_cap`` optionally rejects vectors whose signal exceeds the cap:
    the pinned-variance term it multiplies dominates the sampling noise of
    each equation's right-hand side, so low-signal rows estimate the noise
    variances far more precisely.

    At the pipeline settings (``PIPELINE_DELTA``) the diversity test binds
    only where a node's null space is one-dimensional (p = d): the fixed
    direction's second draw repeats the first. Random directions in a wider
    null space stay below the cosine limit.
    """
    A = np.asarray(A, dtype=float)
    p, d = A.shape
    if m is None:
        m = 2 * p
    if m < p:
        raise ParameterError(f"need at least p={p} rows, got m={m}")
    if signal_cap is not None and signal_cap <= EPS_SIG:
        raise ParameterError("signal_cap must exceed EPS_SIG")
    rank = np.linalg.matrix_rank(A)
    if rank < d:
        raise RankError(f"mixing matrix is rank deficient (rank {rank} < d={d})")
    rng = np.random.default_rng(seed)

    bases = [null_space_basis(np.delete(A, i, axis=1).T) for i in range(d)]
    quota = [m // d + (i < m % d) for i in range(d)]

    # Accepted rows: the vectors, their squares (the design matrix), the
    # squares' norms and the node each row isolates. The first d steps fill
    # at most m rows; every later step adds at most one.
    vecs, sqs = np.empty((m, p)), np.empty((m, p))
    sq_norms, sources = np.empty(m), np.empty(m, dtype=int)
    n, budget, ranked = 0, 10_000 * m, -1
    for step in itertools.count():
        if step >= d:  # top up until the design matrix certifies full rank
            if ranked != n:  # the rank changes only when a row is added
                achieved, ranked = np.linalg.matrix_rank(sqs[:n]), n
            if achieved == p or budget <= 0:
                break
            if n == len(vecs):
                vecs, sqs, sq_norms, sources = (np.resize(a, (2 * n, *a.shape[1:]))
                                                for a in (vecs, sqs, sq_norms, sources))
        node = step % d
        want = quota[node] if step < d else 1
        basis, col = bases[node], A[:, node]
        r = basis.shape[1]
        got = streak = 0
        best_sig, best_t = 0.0, None
        while got < want and streak < MAX_STREAK and budget > 0:
            budget -= 1
            if r == 1:
                t = basis[:, 0]  # only admissible direction, already unit norm
            else:
                t = basis @ rng.standard_normal(r)
                t /= np.linalg.norm(t)  # the basis is orthonormal, so the norm is |z| > 0
            sig = abs(col @ t)
            if sig > best_sig:
                best_sig, best_t = sig, t
            if EPS_SIG <= sig and (signal_cap is None or sig <= signal_cap):
                sq = t * t
                sq_norm = np.linalg.norm(sq)
                if np.all(sqs[:n] @ sq / (sq_norm * sq_norms[:n]) <= 1.0 - delta):
                    vecs[n], sqs[n], sq_norms[n], sources[n] = t, sq, sq_norm, node
                    n += 1
                    got += 1
                    streak = 0
                    continue
            if r == 1:
                break  # redraws cannot change a fixed direction
            streak += 1
        # A node whose admissible directions cannot pass the signal or
        # diversity tests (e.g. a one-dimensional null space whose forced
        # direction has weak signal or resembles another node's) would
        # otherwise never be represented, leaving the design matrix rank
        # deficient. Fall back to the node's strongest draw as long as it
        # is genuinely admissible (nonzero signal).
        if got == 0 and best_sig > 1e-8 and node not in sources[:n]:
            sq = best_t * best_t
            vecs[n], sqs[n], sq_norms[n], sources[n] = best_t, sq, np.linalg.norm(sq), node
            n += 1

    if achieved < p:
        raise SamplingFailureError(
            f"projection sampling exhausted its budget at rank {achieved} < {p}",
            achieved_rank=achieved,
        )
    return ProjectionSet(vectors=vecs[:n], source_node=sources[:n])


def nnls_projected_gradient(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize ||design @ x - rhs||^2 subject to x >= 0, exactly.

    One call to ``scipy.optimize.nnls``, the Lawson-Hanson active-set
    solver, which terminates at the exact solution (KKT conditions to
    rounding) where a projected-gradient loop can stall once constraints
    bind. The name is kept because the benchmark's per-layer timer wraps
    the solver under it. A solver that reaches its iteration cap raises
    ``ConvergenceError``.
    """
    # Imported here: scipy.optimize adds about 0.3 s to the start-up of
    # every command, and only the linear channel's estimate needs it.
    from scipy.optimize import nnls
    try:
        return nnls(design, rhs)[0]
    except RuntimeError as exc:
        raise ConvergenceError(f"NNLS did not converge: {exc}") from exc


def estimate_linear_variances(datasets, family: InterventionFamily, A: np.ndarray,
                              proj: ProjectionSet) -> np.ndarray:
    """Per-measurement noise variances for the linear channel.

    Each projection row yields one linear equation: the sample variance of
    the projected measurements, minus the pinned latent contribution, equals
    the squared projection applied to the noise variances. The stacked
    system is solved exactly under non-negativity (``nnls_projected_gradient``)
    and floored.

    Each (row, rhs) pair is rescaled by the inverse of the projected sample
    variance. Rescaling a projection vector scales its row and right-hand
    side together, so the ideal solution is unchanged, but on finite samples
    it equalizes the rows' noise levels (the sampling error of a variance
    estimate is proportional to the variance itself), which sharply reduces
    the estimation error.
    """
    A = np.asarray(A, dtype=float)
    p, d = A.shape
    width = np.shape(datasets[0])[1]
    if width != p:
        raise ParameterError(f"the mixing matrix has {p} rows, the regime data {width} columns")
    _require_identifiable(datasets, family, d)
    if np.linalg.matrix_rank(proj.squares) < p:
        raise RankError("projection design matrix must have rank p")
    rhs = np.empty(proj.m)
    proj_var = np.empty(proj.m)
    for node in range(d):
        rows = proj.source_node == node
        T = proj.vectors[rows]
        covering = _covering_regimes(datasets, family, node)
        var = np.array([np.var(np.asarray(datasets[k], dtype=float) @ T.T, axis=0, ddof=1)
                        for k in covering])
        pinned = np.outer([family.regimes[k].variance for k in covering], (T @ A[:, node]) ** 2)
        proj_var[rows] = var.mean(axis=0)
        rhs[rows] = (var - pinned).mean(axis=0)
    w = 1.0 / np.maximum(proj_var, VARIANCE_FLOOR)
    sigma_sq = nnls_projected_gradient(proj.squares * w[:, None], rhs * w)
    return np.maximum(sigma_sq, VARIANCE_FLOOR)


# Pipeline defaults: many low-signal rows plus weighting give the estimator
# most of the precision the projected data supports.
PIPELINE_ROWS_PER_MEASUREMENT = 40
PIPELINE_SIGNAL_CAP = 0.35
PIPELINE_DELTA = 0.001


def estimate_channel_noise(datasets, family: InterventionFamily,
                           channel_type: str, A: np.ndarray | None = None, seed=0):
    """Estimate a measurement channel's noise variances from regime data.

    Returns the estimated variance vector (length d for ``"gan"``, length p
    for ``"linear"``). The linear path samples an accuracy-oriented
    projection set (many rows, capped signal) and solves the weighted
    non-negative system.
    """
    if channel_type == "gan":
        return estimate_gan_variances(datasets, family)
    if channel_type == "linear":
        if A is None:
            raise ParameterError("linear channel estimation needs the mixing matrix")
        A = np.asarray(A, dtype=float)
        p = A.shape[0]
        proj = sample_projection_vectors(
            A, m=PIPELINE_ROWS_PER_MEASUREMENT * p,
            delta=PIPELINE_DELTA, signal_cap=PIPELINE_SIGNAL_CAP, seed=seed)
        return estimate_linear_variances(datasets, family, A, proj)
    raise ParameterError(f"unknown channel type {channel_type!r}; expected 'gan' or 'linear'")
