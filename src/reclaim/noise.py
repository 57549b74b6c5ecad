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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, IdentifiabilityError, ParameterError, RankError,
                     SamplingFailureError, check_array)
from .measurement import check_mixing
from .scm import InterventionFamily

VARIANCE_FLOOR = 1e-6
_NULL_RESID_TOL = 1e-10

# Defaults for the projection sampler; thresholds act on unit-norm vectors.
EPS_SIG = 0.1
DELTA_DIVERSITY = 0.05
MAX_STREAK = 500  # consecutive rejections after which a node is passed over
_SCREEN_BLOCK = 128  # normals drawn and screened at a time


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
                              delta: float = DELTA_DIVERSITY,
                              seed=None,
                              signal_cap: float | None = None) -> ProjectionSet:
    """Sample projection vectors whose squares form a rank-p design matrix.

    For node i, draws coefficients against the null-space basis of the
    other columns and keeps unit-norm vectors with enough signal on column i
    (|a_i' t| >= EPS_SIG) whose squared vector is sufficiently different
    (cosine <= 1 - delta) from every accepted row. Each node first draws its
    share of the m rows; a node rejected ``MAX_STREAK`` times in a row is
    passed over, and one that accepts nothing keeps its strongest draw. At
    p = d a node's one direction is its one row, with no window or
    diversity test: a repeat adds nothing to the design. While the squares
    fall short of rank p, the nodes are then asked in turn for one row
    more, each with a fresh streak. Fails with ``SamplingFailureError`` once
    the draw budget (1e4 * m normals) is spent short of rank p, or at once
    when p = d; a mixing matrix that ``measurement.check_mixing`` rejects is
    rejected before any draw.

    ``signal_cap`` optionally rejects vectors whose signal exceeds the cap:
    the pinned-variance term it multiplies dominates the sampling noise of
    each equation's right-hand side, so low-signal rows estimate the noise
    variances far more precisely.

    Most draws fail the signal window, so a node screens the signals of
    ``_SCREEN_BLOCK`` draws with one product and takes the rows inside the
    window in order, each through the exact signal test and the diversity
    test; the rest of the block is discarded but spends budget.
    """
    A = check_mixing(A)
    p, d = A.shape
    if m is None:
        m = 2 * p
    if m < p:
        raise ParameterError(f"need at least p={p} rows, got m={m}")
    if signal_cap is not None and signal_cap <= EPS_SIG:
        raise ParameterError("signal_cap must exceed EPS_SIG")
    rng = np.random.default_rng(seed)

    bases = [null_space_basis(np.delete(A, i, axis=1).T) for i in range(d)]
    cos_limit = 1.0 - delta
    cap = math.inf if signal_cap is None else signal_cap

    # Accepted rows: the vectors, their squares (the design matrix), the
    # squares' norms and the node each row isolates. The shares fill at most
    # m rows; every top-up step adds at most one.
    vecs, sqs = np.empty((m, p)), np.empty((m, p))
    sq_norms, sources = np.empty(m), np.empty(m, dtype=int)
    n, budget = 0, 10_000 * m

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

    def draw(node, want):
        """Draw up to ``want`` rows for node; return whether any row was added."""
        nonlocal budget
        basis, col = bases[node], A[:, node]
        r = basis.shape[1]
        if r == 1:  # p = d: the one admissible direction, already unit norm
            best_t, best_sig = basis[:, 0], abs(col @ basis[:, 0])
        else:
            # B is orthonormal, so t = Bz / |z| has signal |(B' a_i) . z| / |z|: one
            # product screens a block. The streak would reach MAX_STREAK at draw `stop`.
            w = basis.T @ col
            best_sig, best_t = 0.0, None
            got, drawn, stop = 0, 0, MAX_STREAK
            while got < want and drawn < stop and budget > 0:
                Z = rng.standard_normal((_SCREEN_BLOCK, r))
                screened = np.abs(Z @ w)
                screened /= np.sqrt(np.einsum("ij,ij->i", Z, Z))
                budget -= _SCREEN_BLOCK
                for c in np.flatnonzero((screened >= EPS_SIG) & (screened <= cap)).tolist():
                    if drawn + c >= stop:
                        break
                    t = basis @ Z[c]
                    t /= math.sqrt(t @ t)
                    if EPS_SIG <= abs(col @ t) <= cap and admit(t, node):
                        got, stop = got + 1, drawn + c + 1 + MAX_STREAK
                        if got == want:
                            break
                if not got:
                    c = int(np.argmax(screened[:stop - drawn]))
                    if screened[c] > best_sig:
                        best_sig, best_t = screened[c], basis @ Z[c] / math.sqrt(Z[c] @ Z[c])
                drawn += _SCREEN_BLOCK
            if got:
                return True
        # A node with no row yet would leave the design rank deficient: it keeps
        # its strongest draw, unless that has no signal to speak of.
        return (best_sig > 1e-8 and node not in sources[:n]
                and admit(best_t, node, diverse_only=False))

    for node in range(d):
        draw(node, m // d + (node < m % d))
    achieved = np.linalg.matrix_rank(sqs[:n])
    # Top up: where few draws fall in the signal window, a node's streak can
    # end short of the rows rank p needs, and a fresh streak finds more. At
    # p = d every node's one direction is in already.
    for node in itertools.cycle(range(d)):
        if achieved == p or budget <= 0 or p == d:
            break
        if n == len(vecs):
            vecs, sqs, sq_norms, sources = (np.resize(a, (2 * n, *a.shape[1:]))
                                            for a in (vecs, sqs, sq_norms, sources))
        if draw(node, 1):
            achieved = np.linalg.matrix_rank(sqs[:n])

    if achieved < p:
        raise SamplingFailureError(
            f"projection sampling found no design of full rank: it stopped at "
            f"rank {achieved} < {p}",
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
        A = check_mixing(check_array("linear channel's 'A'", A))
        p = A.shape[0]
        proj = sample_projection_vectors(
            A, m=PIPELINE_ROWS_PER_MEASUREMENT * p,
            delta=PIPELINE_DELTA, signal_cap=PIPELINE_SIGNAL_CAP, seed=seed)
        return estimate_linear_variances(datasets, family, A, proj)
    raise ParameterError(f"unknown channel type {channel_type!r}; expected 'gan' or 'linear'")
