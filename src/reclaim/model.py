"""Learned latent mechanism: masked contractive network and its densities.

The mechanism is a single-hidden-layer tanh network evaluated coordinate-wise
on mask-filtered inputs: output i sees the input ``mask[:, i] * x``, so the
mask column support is exactly the candidate parent set of node i. Keeping
both layers inside a spectral-norm budget is meant to make the map
contractive, which gives each noise draw a unique equilibrium. The density
of that equilibrium needs log|det(I - J)| of the forward map's Jacobian J,
taken exactly with ``slogdet`` of the free block B_FF below.

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
              .reshape(n, |F|, |F|) and B_FF = I - core * M[F, F].T;
    gradients over all d outputs, since the rows of one M-step minibatch come
              from mixed regimes: B = I - diag(free) (core * M.T) with each
              row's 0/1 ``free`` vector, dK = d value / d core as an
              (n*d, d) matrix, and the two products G = dK @ w_in (n*d, h)
              and P = (X.T @ dpre.reshape(n, d*h)).reshape(d, d, h) give
              dw_in, dw_out, the mask gradient and the tanh term by broadcast
              sums with the weights and the mask.

Why F suffices: a clamped coordinate's output does not depend on x, so its
row of the Jacobian J of x -> free * F(x) is zero. Ordering F first,
I - J = [[B_FF, -J_FC], [0, I]] is block upper-triangular, so
det(I - J) = det(B_FF). ``latent_logpdf_batch`` scores one regime's rows
and forms the free outputs and the F x F block only. ``latent_logpdf_grads``
scores rows of several regimes in one pass: it forms the full B with unit
rows at each row's clamped coordinates, whose determinant is det(B_FF) row
by row. The inverse of B has the same unit rows, so dD = d log det B / d J
= -B^-T is zero on the free-from-clamped entries (free row, clamped column)
with no special case. Its clamped rows are not zero, and are multiplied by
``free``. A row then gives zero gradient to the w_out and b_out columns and
the mask columns of the coordinates it clamps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import ConvergenceError, ParameterError
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
        sigma = np.broadcast_to(np.asarray(self.sigma_z, dtype=float), (d,)).copy()
        if np.any(sigma <= 0):
            raise ParameterError("sigma_z must be positive")
        object.__setattr__(self, "w_in", w_in)
        object.__setattr__(self, "b_in", np.asarray(self.b_in, dtype=float))
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", np.asarray(self.b_out, dtype=float))
        object.__setattr__(self, "edge_logits", logits)
        object.__setattr__(self, "sigma_z", sigma)

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


def spectral_normalize(params: ModelParams) -> ModelParams:
    """Scale each layer into the per-layer budget sqrt(lipschitz_target).

    Uses the exact spectral norm of each layer; a layer already inside the
    budget is left untouched, so the product of the two layer norms stays at
    most the overall Lipschitz target.
    """
    bound = np.sqrt(params.lipschitz_target)
    return replace(params,
                   w_in=rescale_to_contractive(params.w_in, bound),
                   w_out=rescale_to_contractive(params.w_out, bound))


# ---------------------------------------------------------------------------
# mask sampling and edge scores


def sample_mask(edge_logits: np.ndarray, temperature: float = 1.0,
                seed=None) -> MaskSample:
    """Binary-concrete relaxation of the Bernoulli mask entries.

    Each off-diagonal entry is sigmoid((logit + g1 - g0) / temperature) with
    independent standard Gumbel draws.
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


def _free_vector(d: int, targets) -> np.ndarray:
    free = np.ones(d)
    if len(targets):
        free[list(targets)] = 0.0
    return free


# ---------------------------------------------------------------------------
# forward pass and Jacobian


def _forward_core(params: ModelParams, M: np.ndarray, X: np.ndarray, idx=slice(None)):
    """Returns (outputs, hidden) of the output coordinates ``idx``; hidden is (s, i, h).

    The bias rides in the input GEMM: X gains a column of ones and W a row b_in.
    """
    n, d = X.shape
    h = params.hidden
    M = M[:, idx]
    k = M.shape[1]
    X1 = np.empty((n, d + 1))
    X1[:, :d] = X
    X1[:, d] = 1.0
    W = np.empty((d + 1, k, h))
    np.multiply(M[:, :, None], params.w_in[:, None, :], out=W[:d])
    W[d] = params.b_in
    hid = (X1 @ W.reshape(d + 1, k * h)).reshape(n, k, h)
    if params.activation == "tanh":
        np.tanh(hid, out=hid)
    out = np.einsum("sih,hi->si", hid, params.w_out[:, idx])
    out += params.b_out[idx]
    return out, hid


def masked_forward(params: ModelParams, mask, x: np.ndarray) -> np.ndarray:
    """Coordinate-wise masked mechanism; accepts (d,) or (n, d) inputs."""
    M = _mask_values(mask)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out, _ = _forward_core(params, M, np.atleast_2d(x))
    return out[0] if single else out


def _act_deriv(params: ModelParams, hid: np.ndarray) -> np.ndarray:
    if params.activation != "tanh":
        return np.ones_like(hid)
    deriv = np.multiply(hid, hid)
    return np.subtract(1.0, deriv, out=deriv)


def _forward_jacobian(params: ModelParams, M: np.ndarray, X: np.ndarray,
                      free_idx: np.ndarray):
    """Forward pass and Jacobian block of the free coordinates F = ``free_idx``.

    Returns (out, hid, core, B): ``out`` (n, |F|) and ``hid`` (n, |F|, h) are
    the outputs and hidden units of F; ``core[s, a, b]`` (n, |F|, |F|) is
    sum_h tanh'[s, a, h] w_out[h, F[a]] w_in[F[b], h], the Jacobian entry
    dF_{F[a]}/dx_{F[b]} before masking; and ``B = I - J_FF`` with
    J_FF = core * M[F, F].T. The broadcast products run on flat (n, .) views,
    whose inner loops are |F|*h and |F|*|F| long instead of h and |F|.
    """
    out, hid = _forward_core(params, M, X, free_idx)
    n, f, h = hid.shape
    dw = _act_deriv(params, hid).reshape(n, f * h)
    dw *= params.w_out[:, free_idx].T.ravel()
    core = dw.reshape(n * f, h) @ params.w_in[free_idx].T
    B = core.reshape(n, f * f) * -M[free_idx][:, free_idx].T.ravel()
    # The mask diagonal is zero, so J_FF has a zero diagonal and B a unit one.
    B[:, ::f + 1] = 1.0
    return out, hid, core.reshape(n, f, f), B.reshape(n, f, f)


def jacobian(params: ModelParams, mask, x: np.ndarray, targets=()) -> np.ndarray:
    """Analytic Jacobian of x -> free_mask * masked_forward(x)."""
    M = _mask_values(mask)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = params.d
    _, _, core, _ = _forward_jacobian(params, M, x, np.arange(d))
    return _free_vector(d, targets)[:, None] * M.T * core[0]


# ---------------------------------------------------------------------------
# latent log-density


# Entries per (rows, d, h) temporary in one block of latent_logpdf_batch. On a
# 2-core x86 host with single-threaded OpenBLAS, blocks of this size score a
# row 15% (d = 10) to 34% (d = 15) faster than one pass over the E-step's
# 65536-row chunk, whose temporaries fall out of cache.
_BLOCK_FLOATS = 1 << 16


def _clamp_logpdf(X: np.ndarray, regime: InterventionRegime, intervention_var: float):
    """Per-row log-density of the clamped coordinates (constant in theta)."""
    if not regime.targets:
        return 0.0
    return diag_gauss_logpdf(X[:, list(regime.targets)] - regime.mean, intervention_var)


def _free_noise_logpdf(params: ModelParams, free_idx: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Per-row Gaussian log-density of the free coordinates' noise Z (n, |F|)."""
    var = params.sigma_z[free_idx] ** 2
    return -0.5 * (np.sum(np.log(2.0 * np.pi * var)) + (Z * Z) @ (1.0 / var))


def _logdet(B: np.ndarray) -> np.ndarray:
    """log det of each (|F|, |F|) block of the stack B; a non-positive one fails."""
    sign, logdet = np.linalg.slogdet(B)
    if np.any(sign <= 0):
        raise ConvergenceError("forward-map Jacobian is not orientation preserving")
    return logdet


def latent_logpdf_batch(params: ModelParams, mask, regime: InterventionRegime,
                        intervention_var: float, X: np.ndarray) -> np.ndarray:
    """Interventional log-density of each row of X under the learned model.

    Rows are scored in blocks of about ``_BLOCK_FLOATS`` entries per (rows, d, h)
    temporary, so the temporaries stay in cache. Every step is row-wise: a
    block changes a value by no more than BLAS rounding in the last bits.
    """
    M = _mask_values(mask)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    free_idx = np.flatnonzero(regime.free_mask(d))

    ll = np.zeros(n)
    ll += _clamp_logpdf(X, regime, intervention_var)
    step = max(1, _BLOCK_FLOATS // (d * max(d, params.hidden)))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out, _, _, B = _forward_jacobian(params, M, X[rows], free_idx)
        ll[rows] += _free_noise_logpdf(params, free_idx, X[rows, free_idx] - out)
        ll[rows] += _logdet(B)
    return ll


# ---------------------------------------------------------------------------
# analytic gradients


@dataclass(frozen=True)
class RegimeRows:
    """The regimes of a batch whose rows come from several regimes.

    Row s of the batch belongs to ``regimes[index[s]]``; ``index`` may be any
    integer array, such as the small one a particle cache keeps per row.
    """

    regimes: tuple[InterventionRegime, ...]
    index: np.ndarray


def _row_regimes(regime, intervention_var, n: int, d: int):
    """Per-row (free (n, d) 0/1 floats, clamp mean (n,), clamp variance (n,)).

    One ``InterventionRegime`` is every row's; for ``RegimeRows``,
    ``intervention_var`` is one variance or one per regime.
    """
    if isinstance(regime, InterventionRegime):
        regimes, index = (regime,), np.zeros(n, dtype=np.intp)
    else:
        regimes, index = regime.regimes, regime.index
    free = np.ones((len(regimes), d))
    for k, r in enumerate(regimes):
        free[k, list(r.targets)] = 0.0
    mean = np.array([r.mean for r in regimes], dtype=float)
    var = np.broadcast_to(np.asarray(intervention_var, dtype=float), (len(regimes),))
    return free[index], mean[index], var[index]


def _masked_gauss_logpdf(resid: np.ndarray, var, on: np.ndarray) -> np.ndarray:
    """Per-row log N(resid_i; 0, var_i) summed over the coordinates where ``on`` is 1."""
    return -0.5 * np.sum(on * (np.log(2.0 * np.pi * var) + resid * resid / var), axis=-1)


def latent_logpdf_grads(params: ModelParams, mask, regime: InterventionRegime | RegimeRows,
                        intervention_var, X: np.ndarray):
    """Mean latent log-density over the rows of X and its parameter gradients.

    Returns ``(value, grads)`` where value = mean_s logpdf(x_s) and grads
    holds arrays for ``w_in``, ``b_in``, ``w_out``, ``b_out``, ``mask`` and,
    when ``mask`` is a MaskSample, ``edge_logits`` chained through the
    relaxed Bernoulli entries.

    ``regime`` is one ``InterventionRegime`` for every row, or ``RegimeRows``
    for rows of several regimes, with ``intervention_var`` one clamp
    variance or one per regime. Either way the rows are scored in one pass
    over all d outputs: a per-row 0/1 vector ``free`` zeroes the clamped rows
    of J, so B = I - diag(free) (core * M.T) has unit rows at the clamped
    coordinates and det B = det B_FF row by row. Its inverse then has the
    same unit rows, so the free-from-clamped entries of dD = -B^-T are zero
    with no special case; the clamped rows of dD are not, and are multiplied
    by ``free``. The noise term sums over the free coordinates and the clamp
    term over the clamped ones, at each row's regime mean and variance.
    """
    M = _mask_values(mask)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    weights = np.full(n, 1.0 / n)
    free, clamp_mean, clamp_var = _row_regimes(regime, intervention_var, n, d)

    h = params.hidden
    out, hid, core, B = _forward_jacobian(params, M, X, slice(None))
    B *= free[:, :, None]
    B.reshape(n, d * d)[:, ::d + 1] = 1.0
    Z = X - out
    var = params.sigma_z ** 2

    # value: clamp term (constant in theta) + free-noise term + log-det term
    ll = _masked_gauss_logpdf(X - clamp_mean[:, None], clamp_var[:, None], 1.0 - free)
    ll += _masked_gauss_logpdf(Z, var, free)
    ll += _logdet(B)
    value = float(weights @ ll)

    # dD = d value / d J, zero on the clamped rows; z-term pull-back into the outputs
    dD = np.transpose(np.linalg.inv(B), (0, 2, 1)) * (-weights[:, None] * free)[:, :, None]
    dF = weights[:, None] * free * Z / var

    # log-det pull-back through J = mask.T * core; dK = d value / d core. A
    # clamped output's row of dK and dF is zero, so its w_out and b_out
    # columns and its mask column get zeros.
    dM = np.sum(dD * core, axis=0).T
    dK = (dD * M.T).reshape(n * d, d)
    w_out_t = params.w_out.T
    deriv = _act_deriv(params, hid)
    G = (dK @ params.w_in).reshape(n, d, h)
    dw_in = dK.T @ (deriv * w_out_t).reshape(n * d, h)
    dw_out = np.sum(G * deriv + dF[:, :, None] * hid, axis=0).T
    db_out = dF.sum(axis=0)

    # pull-back to the pre-activation: the output term, plus d deriv / d hid for tanh
    dpre = dF[:, :, None] * w_out_t
    if params.activation == "tanh":
        dpre -= 2.0 * hid * (G * w_out_t)
        dpre *= deriv
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
    """The parameters as a JSON-ready dict of lists, numbers and strings."""
    return {
        "w_in": params.w_in.tolist(),
        "b_in": params.b_in.tolist(),
        "w_out": params.w_out.tolist(),
        "b_out": params.b_out.tolist(),
        "edge_logits": params.edge_logits.tolist(),
        "lipschitz_target": params.lipschitz_target,
        "sigma_z": params.sigma_z.tolist(),
        "activation": params.activation,
    }


def params_from_dict(obj: dict) -> ModelParams:
    """Parameters from a ``params_to_dict`` dict; other keys, such as the
    "pow_u_in"/"pow_u_out" vectors older checkpoints hold, are ignored."""
    return ModelParams(
        w_in=np.asarray(obj["w_in"], dtype=float),
        b_in=np.asarray(obj["b_in"], dtype=float),
        w_out=np.asarray(obj["w_out"], dtype=float),
        b_out=np.asarray(obj["b_out"], dtype=float),
        edge_logits=np.asarray(obj["edge_logits"], dtype=float),
        lipschitz_target=obj["lipschitz_target"],
        sigma_z=np.asarray(obj["sigma_z"], dtype=float),
        activation=obj["activation"],
    )
