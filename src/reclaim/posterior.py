"""Sampling Importance Resampling for the latent posterior p(x | y).

Proposals are the Gaussian posterior of a linear-Gaussian stand-in for the
model: a diagonal per-regime prior on x combined in closed form with the
channel y = A x + eps (A = I for the additive channel). The importance
weight of a draw x for an observation y is

    log p(x) + log p(y | x) - log q(x | y) = log p(x) - log prior(x) + log Z(y),

since q(x | y) = prior(x) p(y | x) / Z(y) exactly: the channel and proposal
terms cancel, leaving the learned latent density, the d-wide stand-in prior
and the evidence Z(y) of the stand-in, one number per observation (the
locally optimal proposal weight of Doucet, Godsill & Andrieu 2000; Owen 2013,
ch. 9). ``weighted_draws`` draws and weights a regime's proposals, and SIR and
the ELBO read one summary of its weights, ``weight_summary``: the E-step
resamples from the normalized weights, the ELBO sums the log mean weights.
"""

from __future__ import annotations

import numpy as np

from .measurement import LinearChannel, channel_logpdf, diag_gauss_logpdf, stacked_matmul
from .model import ModelParams, latent_logpdf_batch
from .scm import InterventionRegime

# SIR keeps an observation whose effective sample size is at least this, or at
# least n_proposals when fewer are drawn: below it, its slots would copy one draw.
MIN_ESS = 2


def weight_summary(log_w: np.ndarray):
    """Per row of log importance weights, ``(log mean weight, normalized weights)``.

    Both are taken after shifting the row by its largest finite entry.
    Non-finite log-weights get weight 0; every row needs a finite entry.
    """
    finite = np.isfinite(log_w)
    top = np.max(np.where(finite, log_w, -np.inf), axis=1, keepdims=True)
    w = np.where(finite, np.exp(np.where(finite, log_w - top, -np.inf)), 0.0)
    total = w.sum(axis=1, keepdims=True)
    return (top + np.log(total / log_w.shape[1]))[:, 0], w / total


class GaussianProposal:
    """Latent-space proposal q(x | y) for a batch of one regime's observations.

    The prior is diagonal: N(0, sigma_z^2) on the free coordinates and
    N(regime.mean, regime.variance) on the clamped ones, i.e. N(m, diag(v)).
    Combined with the channel y = A x + eps, eps ~ N(0, D), it gives the
    Gaussian with precision A'D^-1 A + diag(1/v) and mean
    cov (A'D^-1 y + m / v).
    The prior keeps the draws inside the latent law: the channel alone is as
    wide as its noise, which is not small against the latent variance, and
    unbounded along weakly measured directions of an ill-conditioned mixing;
    in both cases the importance weights would collapse onto a few draws.

    q is the exact posterior of that prior under the channel, so
    log p(y | x) - log q(x | y) = log Z(y) - log prior(x) for every x.
    ``log_z`` holds log Z(y) per observation, taken at x = mean, where
    log q(mean | y) = -(d log 2 pi + log det cov) / 2.
    """

    def __init__(self, channel: LinearChannel, Y: np.ndarray, regime: InterventionRegime, sigma_z):
        self.d = channel.d
        free = regime.free_mask(self.d)
        self.prior_var = np.where(free, np.square(sigma_z), regime.variance)
        self.prior_mean = np.where(free, 0.0, regime.mean)
        A_Dinv = channel.mixing.T / channel.noise_var
        cov = np.linalg.inv(A_Dinv @ channel.mixing + np.diag(1.0 / self.prior_var))
        cov = 0.5 * (cov + cov.T)
        self.chol = np.linalg.cholesky(cov)
        logdet_cov = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        self.mean = (Y @ A_Dinv.T + self.prior_mean / self.prior_var) @ cov
        self.log_z = (channel_logpdf(channel, Y, self.mean) + self.log_prior(self.mean)
                      + 0.5 * (self.d * np.log(2.0 * np.pi) + logdet_cov))

    def log_prior(self, xs: np.ndarray) -> np.ndarray:
        """log N(x; m, diag(v)) of each d-vector of xs, over any leading axes."""
        return diag_gauss_logpdf(xs - self.prior_mean, self.prior_var)

    def draw(self, rng, n_samples: int) -> np.ndarray:
        """(n, n_samples, d) draws, row i for observation i."""
        eps = rng.standard_normal((len(self.mean), n_samples, self.d))
        return self.mean[:, None, :] + stacked_matmul(eps, self.chol.T)


def weighted_draws(Y: np.ndarray, params: ModelParams, mask, channel: LinearChannel,
                   regime: InterventionRegime, intervention_var: float,
                   n_proposals: int, rng):
    """Proposal draws for a regime's observations with their log importance weights.

    Returns ``(xs, log_w)``: the (n, n_proposals, d) draws of one
    ``GaussianProposal``, row i for observation i of ``Y``, and
    log p(x) + log p(y | x) - log q(x | y), computed as
    log p(x) - log prior(x) + log Z(y), all scored in one ``latent_logpdf_batch``
    call.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    proposal = GaussianProposal(channel, Y, regime, params.sigma_z)
    xs = proposal.draw(rng, n_proposals)
    log_w = latent_logpdf_batch(params, mask, regime, intervention_var,
                                xs.reshape(-1, params.d)).reshape(Y.shape[0], n_proposals)
    log_w -= proposal.log_prior(xs)
    log_w += proposal.log_z[:, None]
    return xs, log_w


def sir_sample_batch(Y: np.ndarray, params: ModelParams, mask, channel: LinearChannel,
                     regime: InterventionRegime, intervention_var: float,
                     n_proposals: int, n_resample: int, seed=None):
    """Vectorized SIR across a regime's observations, in one importance pass.

    Returns ``(particles, ess, kept)``: resampled particles of shape
    (n_kept, n_resample, d), each observation's in proposal order so that its
    copies of one proposal are adjacent, per-kept-observation effective sample
    sizes, and the boolean keep mask over input rows. An observation is dropped
    when none of its weights is finite or its effective sample size is below
    ``min(MIN_ESS, n_proposals)``; one proposal of finite weight has ESS 1.
    """
    rng = np.random.default_rng(seed)
    xs, log_w = weighted_draws(Y, params, mask, channel, regime, intervention_var,
                               n_proposals, rng)
    kept = np.isfinite(log_w).any(axis=1)
    _, norm_w = weight_summary(log_w[kept])
    ess = 1.0 / np.sum(norm_w ** 2, axis=1)
    enough = ess >= min(MIN_ESS, n_proposals)
    kept[kept] = enough
    norm_w, ess = norm_w[enough], ess[enough]
    keep_idx = np.nonzero(kept)[0]

    # Vectorized multinomial resampling: each uniform picks the first cdf entry above it.
    # Sorted uniforms pick in proposal order, so an observation's copies of one proposal
    # fill adjacent slots; the multiset of picks is that of the unsorted draw.
    cdf = np.cumsum(norm_w, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random((keep_idx.size, n_resample))
    u.sort(axis=1)
    pick = np.sum(u[:, :, None] > cdf[:, None, :], axis=2)
    return xs[keep_idx[:, None], pick], ess, kept
