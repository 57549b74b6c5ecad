"""Sampling Importance Resampling for the latent posterior p(x | y).

Proposals are Gaussians centered at the channel's latent-space pullback of
y; weights combine the learned latent density, the channel density, and the
proposal correction, all in log space.
"""

from __future__ import annotations

import numpy as np

from .measurement import (Channel, GaussianAdditiveChannel, channel_logpdf,
                          diag_gauss_logpdf)
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
    """Latent-space proposal q(x | y) for a batch of observations.

    Additive channel: N(y, D) with the channel's own noise variances. Linear
    channel: the Gaussian approximation of the posterior, combining the
    channel likelihood pulled back through the mixing with a diagonal prior
    at the latent noise scale: precision A'D^-1 A + diag(1/prior_var). The
    naive d-dimensional diagonal built from raw measurement variances is
    orders of magnitude wider than the posterior once the mixing has any
    redundancy (weights collapse), while the un-ridged pullback explodes
    along weakly measured directions of ill-conditioned square systems.
    """

    def __init__(self, channel: Channel, Y: np.ndarray, scale: float = 1.0,
                 prior_var=1.0):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self.d = channel.d
        if isinstance(channel, GaussianAdditiveChannel):
            self.diag_var = channel.noise_var * scale
            self.mean = Y.copy()
            self.chol = None
        else:
            A = channel.mixing
            prior_prec = 1.0 / np.broadcast_to(np.asarray(prior_var, dtype=float),
                                               (self.d,))
            precision = (A / channel.noise_var[:, None]).T @ A / scale \
                + np.diag(prior_prec)
            cov = np.linalg.inv(precision)
            cov = 0.5 * (cov + cov.T)
            self.chol = np.linalg.cholesky(cov)
            self.precision = precision
            self.logdet_cov = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
            self.mean = Y @ (A / channel.noise_var[:, None]) @ cov.T
            self.diag_var = None

    def draw(self, rng, rows, n_samples: int) -> np.ndarray:
        mu = self.mean[rows]
        eps = rng.normal(size=(mu.shape[0], n_samples, self.d))
        if self.chol is None:
            return mu[:, None, :] + eps * np.sqrt(self.diag_var)
        return mu[:, None, :] + eps @ self.chol.T

    def logpdf(self, xs: np.ndarray, rows) -> np.ndarray:
        mu = self.mean[rows]
        delta = xs - mu[:, None, :]
        if self.chol is None:
            return diag_gauss_logpdf(delta, self.diag_var)
        quad = np.einsum("ksi,ij,ksj->ks", delta, self.precision, delta)
        return -0.5 * (self.d * np.log(2.0 * np.pi) + self.logdet_cov + quad)


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
        proposal = GaussianProposal(channel, Y, scale=scale,
                                    prior_var=params.sigma_z ** 2)
        for start in range(0, pending.size, step):
            rows = pending[start:start + step]
            xs = proposal.draw(rng, rows, S)
            flat = xs.reshape(-1, d)
            log_latent = latent_logpdf_batch(params, mask, regime, intervention_var, flat)
            log_chan = channel_logpdf(channel, Y[rows][:, None, :], xs)
            log_q = proposal.logpdf(xs, rows)
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
