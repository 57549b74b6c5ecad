"""Learned latent mechanism: masked contractive network and its densities.

The mechanism is a single-hidden-layer tanh network evaluated coordinate-wise
on mask-filtered inputs: output i sees the input ``mask[:, i] * x``, so the
mask column support is exactly the candidate parent set of node i. Keeping
both layers inside a spectral-norm budget is meant to make the map
contractive, which gives each noise draw a unique equilibrium. The density
of that equilibrium needs log|det(I - J)| of the forward map's Jacobian J,
taken exactly from the pivots of an elimination of the free block B_FF below.

Index conventions used throughout:
    s: batch sample, j: input coordinate, i: output coordinate, h: hidden unit
    w_in[j, h], w_out[h, i], mask[j, i], jac[s, i, j] = dF_i/dx_j.

The batch kernels are plain matrix products over reshaped arrays, so the
work runs in BLAS. A regime clamps its targets; the other coordinates F are
free. For n rows, d coordinates and h hidden units:
    forward   pre = ([X, 1] (n, d+1) @ W (d+1, |F|*h)).reshape(n, |F|, h), where
              W[j, a*h + k] = M[j, F[a]] * w_in[j, k] and the last row of W
              holds b_in; only the outputs of F are formed;
    Jacobian  core = ((tanh' * w_out[:, F].T).reshape(n*|F|, h) @ w_in[F].T)
              .reshape(n, |F|, |F|) and B_FF = I - core * M[F, F].T, batch-last;
    log-det   an unpivoted elimination in place: LU, or Gauss-Jordan for B^-1 too;
    gradients over all d outputs, since the rows of one M-step minibatch come
              from mixed regimes: B = I - diag(free) (core * M.T) with each
              row's 0/1 ``free`` vector, dK = d value / d core as an
              (n*d, d) matrix, G = dK @ w_in (n*d, h), and E = tanh' * w_out.T,
              which the Jacobian leaves in the kernel's ``dw`` buffer:
              dw_in = dK.T @ E, and for tanh, with H = hid * G and Q = dF - H,
              dw_out = sum_s (G + hid * Q) and dpre = E * (Q - H); then
              P = (X.T @ dpre.reshape(n, d*h)).reshape(d, d, h) gives the rest
              of dw_in and the mask gradient by broadcast sums.

Why F suffices: a clamped coordinate's output does not depend on x, so its
row of the Jacobian J of x -> free * F(x) is zero. Ordering F first,
I - J = [[B_FF, -J_FC], [0, I]] is block upper-triangular, so
det(I - J) = det(B_FF). ``latent_logpdf_batch`` scores one regime's rows
and forms the free outputs and the F x F block only. ``latent_logpdf_grads``
scores rows of several regimes, their ``RegimeArrays`` and each row's index
into them, in one pass: it forms the full B with unit rows at each row's
clamped coordinates, whose determinant is det(B_FF) row by row. The inverse
of B has the same unit rows, so dD = d log det B / d J = -B^-T is zero on the
free-from-clamped entries (free row, clamped column) with no special case.
Its clamped rows are not zero, and are multiplied by ``free``. A row then
gives zero gradient to the w_out and b_out columns and the mask columns of
the coordinates it clamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConvergenceError, ParameterError, check_positive
from .measurement import diag_gauss_logpdf
from .scm import InterventionRegime, rescale_to_contractive

NEG_INF = -np.inf


@dataclass(frozen=True)
class ModelParams:
    """Masked single-hidden-layer mechanism plus edge-probability logits.

    ``edge_logits[j, i]`` scores the edge j -> i; its diagonal is pinned to
    -inf so self-loops have probability exactly zero. ``sigma_z`` holds the
    model-side exogenous standard deviations (fixed, not trained).
    """

    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    edge_logits: np.ndarray
    lipschitz_target: float = 0.9
    sigma_z: np.ndarray | float = 1.0
    activation: str = "tanh"

    def __post_init__(self):
        w_in = np.asarray(self.w_in, dtype=float)
        w_out = np.asarray(self.w_out, dtype=float)
        d, h = w_in.shape
        if w_out.shape != (h, d):
            raise ParameterError("w_out must be (hidden, d) matching w_in (d, hidden)")
        logits = np.asarray(self.edge_logits, dtype=float).copy()
        if logits.shape != (d, d):
            raise ParameterError("edge_logits must be d x d")
        np.fill_diagonal(logits, NEG_INF)
        if not (0 < self.lipschitz_target < 1):
            raise ParameterError("lipschitz_target must lie in (0, 1)")
        if self.activation not in ("tanh", "identity"):
            raise ParameterError("activation must be 'tanh' or 'identity'")
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "b_in", np.asarray(self.b_in, dtype=float))
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", np.asarray(self.b_out, dtype=float))
        object.__setattr__(self, "edge_logits", logits)
        object.__setattr__(self, "sigma_z", check_positive("sigma_z", self.sigma_z, (d,)))

    @property
    def d(self) -> int:
        return self.w_in.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_in.shape[1]


@dataclass(frozen=True)
class MaskSample:
    """One relaxed-Bernoulli draw of the dependency mask.

    ``values`` holds the relaxed entries, which enter the forward pass and
    through which gradients flow to the logits at ``temperature``.
    """

    values: np.ndarray
    temperature: float


def init_params(d: int, hidden: int | None = None, lipschitz_target: float = 0.9,
                seed=0, weight_scale: float = 0.1, sigma_z=1.0,
                activation: str = "tanh") -> ModelParams:
    """Random small-weight initialization, spectrally normalized, logits at 0."""
    hidden = d if hidden is None else hidden
    rng = np.random.default_rng(seed)
    logits = np.zeros((d, d))
    params = ModelParams(
        w_in=rng.normal(0.0, weight_scale, size=(d, hidden)),
        b_in=np.zeros(hidden),
        w_out=rng.normal(0.0, weight_scale, size=(hidden, d)),
        b_out=np.zeros(d),
        edge_logits=logits,
        lipschitz_target=lipschitz_target,
        sigma_z=sigma_z,
        activation=activation,
    )
    return spectral_normalize(params)


# ---------------------------------------------------------------------------
# spectral normalization


def spectral_normalize(params: ModelParams, **changes) -> ModelParams:
    """``params`` with the fields in ``changes`` replaced, each layer scaled into
    the per-layer budget sqrt(lipschitz_target), in one ``replace``.

    Uses the exact spectral norm of each layer; a layer already inside the
    budget is left untouched, so the product of the two layer norms stays at
    most the overall Lipschitz target.
    """
    bound = np.sqrt(changes.get("lipschitz_target", params.lipschitz_target))
    for name in ("w_in", "w_out"):
        changes[name] = rescale_to_contractive(changes.get(name, getattr(params, name)), bound)
    return replace(params, **changes)


# ---------------------------------------------------------------------------
# mask sampling and edge scores


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) is past the float range, so the sigmoid rounds to 0
        return 0.0


def expit(x) -> np.ndarray:
    """Elementwise sigmoid, bit-equal to ``scipy.special.expit``, whose import took
    0.3 s of the package's 0.5 s. numpy's vector ``exp`` rounds some entries
    differently; masks are d x d, so one scalar ``math.exp`` per entry is cheap."""
    x = np.asarray(x, dtype=float)
    return np.array([_logistic(v) for v in x.ravel().tolist()]).reshape(x.shape)


def sample_mask(edge_logits: np.ndarray, temperature: float = 1.0, *, seed) -> MaskSample:
    """Binary-concrete relaxation of the Bernoulli mask entries.

    Each off-diagonal entry is sigmoid((logit + g1 - g0) / temperature), with
    standard Gumbel draws g1, then g0, from ``default_rng(seed)``.
    """
    if temperature <= 0:
        raise ParameterError("temperature must be positive")
    logits = np.asarray(edge_logits, dtype=float)
    rng = np.random.default_rng(seed)
    g1 = rng.gumbel(size=logits.shape)
    g0 = rng.gumbel(size=logits.shape)
    values = expit((logits + g1 - g0) / temperature)
    np.fill_diagonal(values, 0.0)
    return MaskSample(values=values, temperature=temperature)


def expected_mask(edge_logits: np.ndarray) -> np.ndarray:
    """Edge probabilities sigmoid(logits) with an exactly-zero diagonal."""
    probs = expit(np.asarray(edge_logits, dtype=float))
    np.fill_diagonal(probs, 0.0)
    return probs


def edge_scores(params: ModelParams) -> np.ndarray:
    return expected_mask(params.edge_logits)


def _mask_values(mask) -> np.ndarray:
    if isinstance(mask, MaskSample):
        return mask.values
    m = np.asarray(mask, dtype=float)
    if np.any(np.diag(m) != 0):
        raise ParameterError("mask diagonal must be zero")
    return m


# ---------------------------------------------------------------------------
# forward pass and Jacobian


class _Kernel:
    """Forward pass and Jacobian block of the output coordinates ``idx``, a block of
    rows at a time.

    The layer constants are built once, when the kernel is: W (d+1, |F|*h), with
    W[j, a*h + k] = M[j, F[a]] * w_in[j, k] and b_in as its last row, so the bias
    rides in the input GEMM; w_out[:, F] and its (a, h)-ordered flattening;
    w_in[F].T; and -M[F, F].T flattened. Each call writes its block into buffers
    of ``rows`` rows, so the arrays it returns are views that the next call
    overwrites, and that ``_logdet`` may overwrite in place. After ``jacobian``,
    ``dw[:n]`` holds tanh' * w_out[:, F].T as (n, |F|*h), (a, h)-ordered, which
    ``latent_logpdf_grads`` reads for its pull-back.
    """

    def __init__(self, params: ModelParams, M: np.ndarray, idx, rows: int):
        d, h = params.d, params.hidden
        M_idx = M[:, idx]
        k = M_idx.shape[1]
        self.params = params
        self.k, self.h = k, h
        W = np.empty((d + 1, k, h))
        np.multiply(M_idx[:, :, None], params.w_in[:, None, :], out=W[:d])
        W[d] = params.b_in
        self.W = W.reshape(d + 1, k * h)
        self.w_out = params.w_out[:, idx]
        self.b_out = params.b_out[idx]
        self.X1 = np.empty((rows, d + 1))
        self.X1[:, d] = 1.0
        self.hid = np.empty((rows, k * h))
        self.w_out_flat = self.w_out.T.ravel()
        self.w_in_t = params.w_in[idx].T
        self.neg_mask = -M_idx[idx].T.ravel()
        self.dw = np.empty((rows, k * h))
        self.core = np.empty((rows * k, k))
        self.B = np.empty(k * k * rows)

    def forward(self, X: np.ndarray):
        """(outputs (n, |F|), hidden units (n, |F|, h)) of the rows of X."""
        n, d = X.shape
        X1 = self.X1[:n]
        X1[:, :d] = X
        hid = np.matmul(X1, self.W, out=self.hid[:n]).reshape(n, self.k, self.h)
        if self.params.activation == "tanh":
            np.tanh(hid, out=hid)
        out = np.einsum("sih,hi->si", hid, self.w_out)
        out += self.b_out
        return out, hid

    def jacobian(self, X: np.ndarray):
        """Forward pass and Jacobian block of the rows of X: ``(out, hid, core, B)``.

        ``out`` (n, |F|) and ``hid`` (n, |F|, h) are the outputs and hidden units
        of F; ``core[s, a, b]`` (n, |F|, |F|) is sum_h tanh'[s, a, h] w_out[h, F[a]]
        w_in[F[b], h], the Jacobian entry dF_{F[a]}/dx_{F[b]} before masking; and
        ``B[a, b, s]`` (|F|, |F|, n), batch-last for ``_logdet``, is row s's
        I - J_FF with J_FF = core * M[F, F].T. The broadcast products run on flat
        views, whose inner loops are |F|*h and n long instead of h and |F|.
        """
        out, hid = self.forward(X)
        n, f, h = hid.shape
        dw = self.dw[:n]  # the activation's derivative: 1 - hid^2 for tanh, 1 for the identity
        if self.params.activation == "tanh":
            np.multiply(self.hid[:n], self.hid[:n], out=dw)
            np.subtract(1.0, dw, out=dw)
        else:
            dw.fill(1.0)
        dw *= self.w_out_flat
        core = np.matmul(dw.reshape(n * f, h), self.w_in_t, out=self.core[:n * f])
        B = self.B[:f * f * n].reshape(f * f, n)
        np.multiply(core.reshape(n, f * f).T, self.neg_mask[:, None], out=B)
        # The mask diagonal is zero, so J_FF has a zero diagonal and B a unit one.
        B[::f + 1] = 1.0
        return out, hid, core.reshape(n, f, f), B.reshape(f, f, n)


# ---------------------------------------------------------------------------
# latent log-density


# Entries per (rows, d, h) temporary in one block of latent_logpdf_batch. On a
# 2-core x86 host with single-threaded OpenBLAS, blocks of this size score a
# row 15% (d = 10) to 34% (d = 15) faster than one pass over 65536 rows,
# whose temporaries fall out of cache.
_BLOCK_FLOATS = 1 << 16


# Smallest pivot the unpivoted elimination accepts. A block B = I - J with
# ||J||_2 < 1 has every pivot at least 1 - ||J||_2 (a pivot is a Schur complement,
# and x'Bx >= (1 - ||J||_2)|x|^2), and 60-round fits of both benchmark workloads
# stayed above 0.84. Above 1e-2 a multiplier a_ik / p_k is at most 100 |a_ik|, so
# rounding stays near LAPACK's; a row below, a zero or negative pivot among them,
# is rescored by the pivoted ``slogdet`` and ``inv``.
_PIVOT_FLOOR = 1e-2


def _logdet(A: np.ndarray, rebuild, invert: bool = False) -> np.ndarray:
    """log det of each block B_s = A[:, :, s] of the batch-last stack A (d, d, n).

    One unpivoted elimination of all n blocks in place, so each op's inner loop
    is n long: LU, which spends A, or when ``invert`` Gauss-Jordan, which leaves
    B_s^-1 in A[:, :, s]. A row whose smallest pivot is below ``_PIVOT_FLOOR`` or
    NaN is rescored from its blocks ``rebuild(rows)`` (m, d, d) by ``slogdet``
    (and ``inv``); a non-positive determinant there fails.
    """
    d, _, n = A.shape
    logdet, low = np.zeros(n), np.full(n, np.inf)
    with np.errstate(all="ignore"):  # a row with a small or zero pivot is rescored below
        for k in range(d):
            p = A[k, k].copy()
            np.minimum(low, p, out=low)
            logdet += np.log(p)
            if invert:
                col = A[:, k].copy()
                col[k] = 0.0
                A[:, k], A[k, k] = 0.0, 1.0  # column k becomes e_k, then row k is scaled
                A[k] /= p
                A -= col[:, None] * A[k]
            else:
                A[k, k + 1:] /= p
                # Row by row: a trailing-block temporary raised peak memory 0.3 MB.
                for i in range(k + 1, d):
                    A[i, k + 1:] -= A[i, k] * A[k, k + 1:]
    bad = np.flatnonzero(~(low >= _PIVOT_FLOOR))
    if bad.size:
        B = rebuild(bad)
        sign, logdet[bad] = np.linalg.slogdet(B)
        if np.any(sign <= 0):
            raise ConvergenceError("forward-map Jacobian is not orientation preserving")
        if invert:
            A[:, :, bad] = np.linalg.inv(B).transpose(1, 2, 0)
    return logdet


def _rows_of(params: ModelParams, X) -> np.ndarray:
    """X as a float array of rows, or a ``ParameterError`` unless it has d columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != params.d:
        raise ParameterError(f"X has shape {X.shape}, not (rows, {params.d}) for the "
                             f"model's d={params.d}")
    return X


def latent_logpdf_batch(params: ModelParams, mask, regime: InterventionRegime,
                        intervention_var: float, X: np.ndarray) -> np.ndarray:
    """Interventional log-density of each row of X under the learned model.

    Rows are scored in blocks of about ``_BLOCK_FLOATS`` entries per (rows, d, h)
    temporary, so the temporaries stay in cache; one ``_Kernel`` holds the layer
    constants and the block buffers for the whole call. Every step is row-wise:
    a block changes a value by no more than BLAS rounding in the last bits.
    X of no rows gives an empty array, and X of other than d columns raises
    ``ParameterError``.
    """
    M = _mask_values(mask)
    X = _rows_of(params, X)
    n, d = X.shape
    free_idx = np.flatnonzero(regime.free_mask(d))
    step = max(1, _BLOCK_FLOATS // (d * max(d, params.hidden)))
    kernel = _Kernel(params, M, free_idx, min(step, n))
    var = params.sigma_z[free_idx] ** 2
    # The clamped coordinates' term (constant in theta); per block, noise and log-det.
    ll = diag_gauss_logpdf(X[:, list(regime.targets)] - regime.mean, intervention_var)
    eye, neg_mask = np.eye(len(free_idx)), kernel.neg_mask.reshape(kernel.k, kernel.k)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out, _, core, B = kernel.jacobian(X[rows])
        ll[rows] += diag_gauss_logpdf(X[rows, free_idx] - out, var)
        ll[rows] += _logdet(B, lambda bad: eye + core[bad] * neg_mask)
    return ll


# ---------------------------------------------------------------------------
# analytic gradients


@dataclass(frozen=True)
class RegimeArrays:
    """K regimes as ``free`` (K, d), 1.0 where a regime leaves a coordinate free, and the
    clamp ``mean`` (K,): the M-step builds them once for its ``latent_logpdf_grads`` calls."""

    free: np.ndarray
    mean: np.ndarray

    @classmethod
    def of(cls, regimes, d: int) -> RegimeArrays:
        return cls(np.array([r.free_mask(d) for r in regimes], dtype=float),
                   np.array([r.mean for r in regimes], dtype=float))


def _masked_gauss_logpdf(resid: np.ndarray, var, on: np.ndarray) -> np.ndarray:
    """Per-row log N(resid_i; 0, var_i) summed over the coordinates where ``on`` is 1."""
    return -0.5 * np.sum(on * (np.log(2.0 * np.pi * var) + resid * resid / var), axis=-1)


def latent_logpdf_grads(params: ModelParams, mask, regime, intervention_var,
                        X: np.ndarray, index: np.ndarray | None = None):
    """Mean latent log-density over the rows of X and its parameter gradients.

    Returns ``(value, grads)`` where value = mean_s logpdf(x_s) and grads
    holds arrays for ``w_in``, ``b_in``, ``w_out``, ``b_out``, ``mask`` and,
    when ``mask`` is a MaskSample, ``edge_logits`` chained through the
    relaxed Bernoulli entries. X of no rows, or of other than d columns,
    raises ``ParameterError``.

    ``regime`` is one ``InterventionRegime`` for every row or, for rows of
    several regimes, their ``RegimeArrays``, with row s in regime ``index[s]``
    (any integer ``index``, such as a particle cache's per-row one), and
    ``intervention_var`` one clamp variance or one per regime. Either way the
    rows are scored in one pass over all d outputs: a per-row 0/1 vector
    ``free`` zeroes the clamped rows of J, so B = I - diag(free) (core * M.T)
    has unit rows at the clamped coordinates and det B = det B_FF row by row.
    Its inverse then has the same unit rows, so the free-from-clamped entries
    of dD = -B^-T are zero with no special case; the clamped rows of dD are
    not, and are multiplied by ``free``. The noise term sums over the free
    coordinates and the clamp term over the clamped ones, at each row's regime
    mean and variance. The pull-back reads E = tanh' * w_out.T from the
    Jacobian kernel's ``dw`` buffer.
    """
    M = _mask_values(mask)
    X = _rows_of(params, X)
    n, d = X.shape
    if n == 0:
        raise ParameterError(f"X has shape {X.shape}: the mean needs at least one row")
    w = 1.0 / n  # each row's weight in the mean
    if isinstance(regime, InterventionRegime):
        regime, index = RegimeArrays.of((regime,), d), np.zeros(n, dtype=np.intp)
    free, clamp_mean = regime.free[index], regime.mean[index]
    clamp_var = np.broadcast_to(np.asarray(intervention_var, float), regime.mean.shape)[index]

    h = params.hidden
    kernel = _Kernel(params, M, slice(None), n)
    out, hid, core, B = kernel.jacobian(X)
    B *= free.T[:, None, :]
    B.reshape(d * d, n)[::d + 1] = 1.0
    Z = X - out
    var = params.sigma_z ** 2

    # value: clamp term (constant in theta) + free-noise term + log-det term,
    # whose Gauss-Jordan pass leaves B^-1 in B
    ll = _masked_gauss_logpdf(X - clamp_mean[:, None], clamp_var[:, None], 1.0 - free)
    ll += _masked_gauss_logpdf(Z, var, free)
    ll += _logdet(B, lambda bad: np.eye(d) - free[bad, :, None] * core[bad] * M.T, invert=True)
    value = float(np.mean(ll))

    # dD = d value / d J = -B^-T, B^-T being the view B.transpose(2, 1, 0), zero on
    # the clamped rows and written C-ordered; z-term pull-back into the outputs
    dD = np.multiply(B.transpose(2, 1, 0), (-w * free)[:, :, None],
                     out=np.empty((n, d, d)))
    dF = w * free * Z / var

    # log-det pull-back through J = mask.T * core; dK = d value / d core. A
    # clamped output's row of dK and dF is zero, so its w_out and b_out
    # columns and its mask column get zeros.
    dM = np.sum(dD * core, axis=0).T
    dK = (dD * M.T).reshape(n * d, d)
    E = kernel.dw[:n].reshape(n, d, h)  # tanh' * w_out.T, left there by the Jacobian
    G = (dK @ params.w_in).reshape(n, d, h)
    dw_in = dK.T @ E.reshape(n * d, h)
    db_out = dF.sum(axis=0)
    dF = dF[:, :, None]

    # pull-back to the pre-activation: the output term, plus d tanh' / d hid for tanh,
    # where tanh' = 1 - hid^2 turns G tanh' + dF hid and dF - 2 hid G into these forms
    if params.activation == "tanh":
        H = hid * G
        Q = dF - H
        dw_out = np.sum(G + hid * Q, axis=0).T
        Q -= H
        dpre = np.multiply(E, Q, out=Q)
    else:
        dw_out = np.sum(G + dF * hid, axis=0).T
        dpre = dF * E
    P = (X.T @ dpre.reshape(n, d * h)).reshape(d, d, h)
    dw_in += np.sum(P * M[:, :, None], axis=1)
    db_in = dpre.sum(axis=(0, 1))
    dM += np.sum(P * params.w_in[:, None, :], axis=2)

    grads = {"w_in": dw_in, "b_in": db_in, "w_out": dw_out, "b_out": db_out, "mask": dM}
    if isinstance(mask, MaskSample):
        dlogits = dM * M * (1.0 - M) / mask.temperature
        np.fill_diagonal(dlogits, 0.0)
        grads["edge_logits"] = dlogits
    return value, grads


# ---------------------------------------------------------------------------
# checkpointing


def params_to_dict(params: ModelParams) -> dict:
    """The parameters as a JSON-ready dict of lists, numbers and strings, one key
    per ``ModelParams`` field."""
    values = {f.name: getattr(params, f.name) for f in fields(ModelParams)}
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}


def params_from_dict(obj: dict) -> ModelParams:
    """Parameters from a ``params_to_dict`` dict; other keys, such as the
    "pow_u_in"/"pow_u_out" vectors older checkpoints hold, are ignored."""
    params = ModelParams(**{f.name: obj[f.name] for f in fields(ModelParams)})
    for name in ("w_in", "b_in", "w_out", "b_out", "edge_logits"):
        value = getattr(params, name)  # a logit may be infinite, as the diagonal's -inf is
        if np.isnan(value).any() or name != "edge_logits" and np.isinf(value).any():
            raise ParameterError(f"{name} holds an entry that is not finite")
    return params
