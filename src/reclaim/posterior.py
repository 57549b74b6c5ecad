"""Sampling Importance Resampling for the latent posterior p(x | y).

Proposals are the Gaussian posterior of a linear-Gaussian stand-in for the
model: a diagonal per-regime prior on x combined in closed form with the
channel y = A x + eps (A = I for the additive channel). Weights combine the
learned latent density, the channel density and the proposal correction,
all in log space.
"""

from __future__ import annotations

import numpy as np

from .measurement import Channel, channel_logpdf
from .model import ModelParams, latent_logpdf_batch
from .scm import InterventionRegime

# Proposal draws (observations x proposals) scored per latent_logpdf_batch
# call, here and in the ELBO estimate.
CHUNK_ROWS = 65536


def _normalize_rows(log_w: np.ndarray) -> np.ndarray:
    """Row-wise normalized weights exp(log_w) / sum(exp(log_w)).

    Non-finite log-weights get weight 0; every row needs a finite entry.
    """
    finite = np.isfinite(log_w)
    shifted = log_w - np.max(np.where(finite, log_w, -np.inf), axis=1, keepdims=True)
    w = np.where(finite, np.exp(np.where(finite, shifted, -np.inf)), 0.0)
    return w / w.sum(axis=1, keepdims=True)


class GaussianProposal:
    """Latent-space proposal q(x | y) for a batch of one regime's observations.

    The prior is diagonal: N(0, sigma_z^2) on the free coordinates and
    N(regime.mean, regime.variance) on the clamped ones, i.e. N(m, diag(v)).
    Combined with the channel y = A x + eps, eps ~ N(0, scale * D), it gives
    the Gaussian with precision A'D^-1 A / scale + diag(1/v) and mean
    cov (A'D^-1 y / scale + m / v); ``scale`` > 1 widens it for the retry.
    The prior keeps the draws inside the latent law: the channel alone is as
    wide as its noise, which is not small against the latent variance, and
    unbounded along weakly measured directions of an ill-conditioned mixing;
    in both cases the importance weights would collapse onto a few draws.
    """

    def __init__(self, channel: Channel, Y: np.ndarray, regime: InterventionRegime,
                 sigma_z, scale: float = 1.0):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self.d = channel.d
        free = regime.free_mask(self.d)
        prior_var = np.where(free, np.square(sigma_z), regime.variance)
        prior_mean = np.where(free, 0.0, regime.mean)
        A_Dinv = channel.mixing.T / (scale * channel.noise_var)
        cov = np.linalg.inv(A_Dinv @ channel.mixing + np.diag(1.0 / prior_var))
        cov = 0.5 * (cov + cov.T)
        self.chol = np.linalg.cholesky(cov)
        self.logdet_cov = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        self.mean = (Y @ A_Dinv.T + prior_mean / prior_var) @ cov

    def draw(self, rng, rows, n_samples: int):
        """``(xs, log_q)``: (len(rows), n_samples, d) draws and their log-densities."""
        eps = rng.normal(size=(len(rows), n_samples, self.d))
        xs = self.mean[rows][:, None, :] + eps @ self.chol.T
        log_q = -0.5 * (self.d * np.log(2.0 * np.pi) + self.logdet_cov
                        + np.sum(eps * eps, axis=-1))
        return xs, log_q


def sir_sample_batch(Y: np.ndarray, params: ModelParams, mask, channel: Channel,
                     regime: InterventionRegime, intervention_var: float,
                     n_proposals: int, n_resample: int, seed=None):
    """Vectorized SIR across a regime's observations.

    Returns ``(particles, ess, kept)``: resampled particles of shape
    (n_kept, n_resample, d), per-kept-observation effective sample sizes,
    and the boolean keep mask over input rows (False marks observations
    whose weights collapsed even after the widened retry).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    rng = np.random.default_rng(seed)
    d = params.d

    S = n_proposals
    step = max(1, CHUNK_ROWS // S)
    log_w = np.full((n, S), -np.inf)
    xs_all = np.empty((n, S, d))
    pending = np.arange(n)
    for scale in (1.0, 2.0):
        if pending.size == 0:
            break
        proposal = GaussianProposal(channel, Y, regime, params.sigma_z, scale=scale)
        for start in range(0, pending.size, step):
            rows = pending[start:start + step]
            xs, log_q = proposal.draw(rng, rows, S)
            flat = xs.reshape(-1, d)
            log_latent = latent_logpdf_batch(params, mask, regime, intervention_var, flat)
            log_chan = channel_logpdf(channel, Y[rows][:, None, :], xs)
            log_w[rows] = log_latent.reshape(rows.size, S) + log_chan - log_q
            xs_all[rows] = xs
        finite_max = np.max(np.where(np.isfinite(log_w[pending]), log_w[pending], -np.inf),
                            axis=1)
        ok = np.isfinite(finite_max)
        w = np.exp(np.clip(log_w[pending] - finite_max[:, None], -745.0, 0.0))
        w_sum = w.sum(axis=1)
        ess_pending = np.where(ok, w_sum ** 2 / np.maximum((w ** 2).sum(axis=1), 1e-300), 0.0)
        bad = ~ok | ((S > 1) & (ess_pending < 2.0))
        pending = pending[bad]

    kept = np.ones(n, dtype=bool)
    kept[pending] = False
    keep_idx = np.nonzero(kept)[0]

    norm_w = _normalize_rows(log_w[keep_idx])
    ess = 1.0 / np.sum(norm_w ** 2, axis=1) if keep_idx.size else np.zeros(0)

    # Vectorized multinomial resampling via inverse-CDF on sorted uniforms.
    particles = np.empty((keep_idx.size, n_resample, d))
    if keep_idx.size:
        cdf = np.cumsum(norm_w, axis=1)
        cdf[:, -1] = 1.0
        u = rng.random((keep_idx.size, n_resample))
        pick = np.sum(u[:, :, None] > cdf[:, None, :], axis=2)
        particles = xs_all[keep_idx[:, None], pick]
    return particles, ess, kept
