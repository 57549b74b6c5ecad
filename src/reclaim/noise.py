"""Measurement-noise variance estimation from interventional data.

Projection vectors t orthogonal to all but one mixing column a_i isolate a
single latent. When node i is intervened its latent variance is pinned to the
known interventional variance v, so the variance of t . y in excess of
v (t . a_i)^2 is noise. Linear channel: the squared projections stack into a
linear system in the per-measurement noise variances, solved exactly under a
non-negativity constraint by an active-set NNLS solver. Additive channel: the
same statistic at A = I and t = e_i is the estimate, with no sampler or solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, IdentifiabilityError, ParameterError, RankError,
                     SamplingFailureError, check_array)
from .measurement import check_mixing
from .scm import InterventionFamily

VARIANCE_FLOOR = 1e-6
_NULL_RESID_TOL = 1e-10

# The projection sampler's signal window acts on |a_i' t| for unit t, in units
# of A's RMS entry ||A||_F / sqrt(p d), so c A accepts the rows A accepts; at the
# simulator's mixing variance of 1.5 the unit is about sqrt(1.5), and EPS_SIG an
# absolute signal of about 0.1. The PIPELINE_* defaults are the pipeline's
# settings: many low-signal rows plus weighting give the estimator most of the
# precision the projected data supports.
EPS_SIG = 0.1 / math.sqrt(1.5)
MAX_STREAK = 500  # consecutive diversity rejections after which a node is passed over
PIPELINE_ROWS_PER_MEASUREMENT = 40
PIPELINE_SIGNAL_CAP = 0.35 / math.sqrt(1.5)  # in EPS_SIG's units
PIPELINE_DELTA = 0.001


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
    """Per-coordinate noise variances for the additive channel, floored.

    The linear statistic at the identity projections: per node, its column's
    sample variance minus the interventional variance, averaged over the
    covering regimes. ``scm.read_dataset`` refuses non-finite data, so y . e_i
    is the column exactly.
    """
    d = np.asarray(datasets[0]).shape[1]
    _require_identifiable(datasets, family, d)
    identity = ProjectionSet(vectors=np.eye(d), source_node=np.arange(d))
    _, excess = _projected_variances(datasets, family, np.eye(d), identity)
    return np.maximum(excess, VARIANCE_FLOOR)


def null_space_basis(a_minus_i_t: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a (d-1) x p matrix of rank d-1.

    The rank and residual tests are relative to the largest singular value.
    """
    M = np.asarray(a_minus_i_t, dtype=float)
    k, p = M.shape
    _, svals, vt = np.linalg.svd(M, full_matrices=True)
    largest = svals[0] if svals.size else 0.0
    if svals.size and svals[-1] <= _NULL_RESID_TOL * largest:
        raise RankError("column-deleted mixing matrix is numerically rank deficient")
    basis = vt[k:].T
    resid = np.max(np.abs(M @ basis), initial=0.0)
    if resid > _NULL_RESID_TOL * largest:
        raise RankError(f"null-space residual {resid:.2e} exceeds {_NULL_RESID_TOL:.0e} "
                        f"times the largest singular value {largest:.2e}")
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
                              delta: float = PIPELINE_DELTA, *, seed,
                              signal_cap: float = PIPELINE_SIGNAL_CAP) -> ProjectionSet:
    """Sample projection vectors whose squares form a rank-p design matrix.

    Node i's rows are unit vectors t in the null space of the other columns
    whose signal |a_i' t| lies in the window [EPS_SIG, signal_cap], in units
    of A's RMS entry, and whose squared vector is sufficiently different
    (cosine <= 1 - delta) from every accepted row. With B the null-space
    basis and w = B' a_i, the largest signal is |w|: a row draws its signal s
    uniformly in the window below |w| and a uniform unit vector u orthogonal
    to w, and is t = B(s/|w| w/|w| + sqrt(1 - s^2/|w|^2) u), so only the
    diversity test can reject it. In one pass each node draws its share of
    the m rows, and is passed over after ``MAX_STREAK`` rejections in a row.
    A node whose whole null space is below the window keeps one uniformly
    random direction of it (the strongest one, B w/|w|, can square to a row
    that other nodes already span), and one with |w| <= 1e-8 units keeps
    nothing. At p = d a node's one direction is its one row, with no window
    or diversity test: a repeat adds nothing to the design. Fails with
    ``SamplingFailureError`` when the pass ends short of rank p; a mixing
    matrix that ``measurement.check_mixing`` rejects is rejected before any
    draw.

    The defaults are the pipeline's: ``PIPELINE_ROWS_PER_MEASUREMENT`` rows per
    measurement, ``PIPELINE_DELTA``, and a ``PIPELINE_SIGNAL_CAP`` that narrows
    the window from above (``math.inf`` is no cap): the pinned-variance term
    the signal multiplies dominates the sampling noise of each equation's
    right-hand side, so low-signal rows estimate the noise variances far more
    precisely.
    """
    A = check_mixing(A)
    p, d = A.shape
    if m is None:
        m = PIPELINE_ROWS_PER_MEASUREMENT * p
    if m < p:
        raise ParameterError(f"need at least p={p} rows, got m={m}")
    if signal_cap <= EPS_SIG:
        raise ParameterError("signal_cap must exceed EPS_SIG")
    rng = np.random.default_rng(seed)

    bases = [null_space_basis(np.delete(A, i, axis=1).T) for i in range(d)]
    unit = np.linalg.norm(A) / math.sqrt(p * d)
    lo = EPS_SIG * unit
    hi = signal_cap * unit
    cos_limit = 1.0 - delta

    # Accepted rows: the vectors, their squares (the design matrix), the
    # squares' norms and the node each row isolates.
    vecs, sqs = np.empty((m, p)), np.empty((m, p))
    sq_norms, sources = np.empty(m), np.empty(m, dtype=int)
    n = 0

    def admit(t, node, diverse_only=True):
        """Add row t for node; with ``diverse_only``, only if its squares are diverse enough."""
        nonlocal n
        sq = t * t
        sq_norm = math.sqrt(sq @ sq)
        if diverse_only and n:
            cos = sqs[:n] @ sq
            cos /= sq_norm * sq_norms[:n]
            if cos.max() > cos_limit:
                return False
        vecs[n], sqs[n], sq_norms[n], sources[n] = t, sq, sq_norm, node
        n += 1
        return True

    for node, basis in enumerate(bases):
        w = basis.T @ A[:, node]
        top, r = math.sqrt(w @ w), basis.shape[1]
        if top <= 1e-8 * unit:  # no signal to speak of
            continue
        if r == 1:  # p = d: the one admissible direction, already unit norm
            admit(basis[:, 0], node, diverse_only=False)
            continue
        if top < lo:  # the whole null space is below the window
            t = basis @ rng.standard_normal(r)
            admit(t / math.sqrt(t @ t), node, diverse_only=False)
            continue
        w /= top
        want, got, streak = m // d + (node < m % d), 0, 0
        while got < want and streak < MAX_STREAK:
            # Each row's cosine s/|w| to w, and a unit vector orthogonal to w.
            cos = rng.uniform(lo / top, min(hi, top) / top, want - got)
            U = rng.standard_normal((want - got, r))
            U -= np.outer(U @ w, w)
            U /= np.sqrt(np.einsum("ij,ij->i", U, U))[:, None]
            rows = (np.outer(cos, w) + np.sqrt(1.0 - cos * cos)[:, None] * U) @ basis.T
            for t in rows:
                if admit(t, node):
                    got, streak = got + 1, 0
                else:
                    streak += 1
                    if streak == MAX_STREAK:
                        break

    achieved = np.linalg.matrix_rank(sqs[:n])
    if achieved < p:
        raise SamplingFailureError(
            f"projection sampling found no design of full rank: it stopped at "
            f"rank {achieved} < {p}")
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


def _projected_variances(datasets, family: InterventionFamily, A: np.ndarray,
                         proj: ProjectionSet):
    """Per projection row t of node i, ``(projected variance, excess)``: the mean over
    the regimes that cover i of var(t . y), and of var(t . y) - variance (t . a_i)^2."""
    excess = np.empty(proj.m)
    proj_var = np.empty(proj.m)
    for node in range(A.shape[1]):
        rows = proj.source_node == node
        T = proj.vectors[rows]
        covering = _covering_regimes(datasets, family, node)
        var = np.array([np.var(np.asarray(datasets[k], dtype=float) @ T.T, axis=0, ddof=1)
                        for k in covering])
        pinned = np.outer([family.regimes[k].variance for k in covering], (T @ A[:, node]) ** 2)
        proj_var[rows] = var.mean(axis=0)
        excess[rows] = (var - pinned).mean(axis=0)
    return proj_var, excess


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
    proj_var, rhs = _projected_variances(datasets, family, A, proj)
    w = 1.0 / np.maximum(proj_var, VARIANCE_FLOOR)
    sigma_sq = nnls_projected_gradient(proj.squares * w[:, None], rhs * w)
    return np.maximum(sigma_sq, VARIANCE_FLOOR)


def estimate_channel_noise(datasets, family: InterventionFamily,
                           channel_type: str, A: np.ndarray | None = None, seed=0):
    """Estimate a measurement channel's noise variances from regime data.

    Returns the estimated variance vector (length d for ``"gan"``, length p
    for ``"linear"``). The linear path samples a projection set at the
    sampler's defaults (many rows, capped signal) and solves the weighted
    non-negative system.
    """
    if channel_type == "gan":
        return estimate_gan_variances(datasets, family)
    if channel_type == "linear":
        A = check_mixing(check_array("linear channel's 'A'", A))
        proj = sample_projection_vectors(A, seed=seed)
        return estimate_linear_variances(datasets, family, A, proj)
    raise ParameterError(f"unknown channel type {channel_type!r}; expected 'gan' or 'linear'")
