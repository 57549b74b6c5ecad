import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from reclaim import em, posterior
from reclaim.measurement import GaussianAdditiveChannel, LinearChannel, channel_logpdf
from reclaim.model import ModelParams, expected_mask, init_params, latent_logpdf_batch
from reclaim.scm import InterventionRegime


def full_mask(d):
    m = np.ones((d, d))
    np.fill_diagonal(m, 0.0)
    return m


@pytest.fixture
def linear_gaussian():
    return _linear_gaussian(10)


def _linear_gaussian(n):
    """Identity-activation model x = W'x + z with an additive channel y = x + eps,
    and n observations.

    The latent prior is N(0, S) with S = B^-1 diag(sigma_z^2) B^-T, B = I - W',
    so the posterior of x given y is Gaussian with mean S (S + N)^-1 y and
    covariance S - S (S + N)^-1 S, N = diag(noise_var). The proposal's stand-in
    prior is N(0, diag(sigma_z^2)), not S, so the importance weights are not flat.
    """
    d = 3
    rng = np.random.default_rng(7)
    W = rng.normal(size=(d, d))
    np.fill_diagonal(W, 0.0)
    W *= 0.6 / np.linalg.norm(W, 2)
    sigma_z = np.array([1.0, 0.8, 1.2])
    params = ModelParams(w_in=np.eye(d), b_in=np.zeros(d), w_out=W, b_out=np.zeros(d),
                         edge_logits=np.full((d, d), 40.0), sigma_z=sigma_z,
                         activation="identity")
    channel = GaussianAdditiveChannel(np.array([0.3, 0.5, 0.4]))
    B_inv = np.linalg.inv(np.eye(d) - W.T)
    prior_cov = B_inv @ np.diag(sigma_z ** 2) @ B_inv.T
    gain = prior_cov @ np.linalg.inv(prior_cov + np.diag(channel.noise_var))
    X = rng.multivariate_normal(np.zeros(d), prior_cov, size=n)
    Y = X + rng.normal(size=X.shape) * np.sqrt(channel.noise_var)
    return {"params": params, "channel": channel, "Y": Y,
            "post_mean": Y @ gain.T, "post_cov": prior_cov - gain @ prior_cov}


def run_sir(case, n_proposals, n_resample, seed=0):
    return posterior.sir_sample_batch(case["Y"], case["params"], full_mask(3),
                                      case["channel"], InterventionRegime(), 1.0,
                                      n_proposals, n_resample, seed=seed)


class TestWeightSummary:
    def test_rows_sum_to_one_and_minus_inf_gets_zero(self):
        log_w = np.array([[0.0, -np.inf, 1.0, -np.inf],
                          [-1000.0, -1001.0, -np.inf, -999.0],
                          [800.0, 801.0, 799.0, 800.5]])
        _, w = posterior.weight_summary(log_w)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all(w[np.isneginf(log_w)] == 0.0)
        assert np.all(w[np.isfinite(log_w)] > 0.0)
        shifted = log_w - np.max(log_w, axis=1, keepdims=True)
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert np.allclose(w, expected, rtol=1e-14, atol=0)

    def test_single_finite_entry_takes_all_weight(self):
        log_mean, w = posterior.weight_summary(np.array([[-np.inf, 3.0, -np.inf]]))
        assert np.array_equal(w, [[0.0, 1.0, 0.0]])
        assert log_mean[0] == pytest.approx(3.0 - np.log(3.0), rel=1e-15)

    def test_log_mean_is_logsumexp_minus_log_s(self):
        log_w = np.random.default_rng(3).normal(0.0, 30.0, size=(6, 17))
        log_w[0] += 900.0  # exp would overflow without the shift
        log_w[1] -= 900.0  # and underflow
        log_mean, _ = posterior.weight_summary(log_w)
        assert np.allclose(log_mean, logsumexp(log_w, axis=1) - np.log(17), rtol=1e-14, atol=0)


class TestSirSampleBatch:
    def test_ess_within_one_and_proposal_count(self, linear_gaussian):
        S = 8
        particles, ess, kept = run_sir(linear_gaussian, S, 4)
        assert kept.any()  # rows whose weights collapse are dropped
        assert particles.shape == (kept.sum(), 4, 3)
        assert ess.shape == (kept.sum(),)
        assert np.all(ess >= 1.0) and np.all(ess <= S * (1 + 1e-12))
        assert ess.min() < S  # the weights are not all equal

    def test_one_proposal_keeps_every_observation_of_finite_weight(self, linear_gaussian,
                                                                  monkeypatch):
        """At S = 1 each kept observation has ESS 1, which meets min(MIN_ESS, S), and
        its slots all copy its one draw; only a non-finite weight drops it."""
        weighted_draws = posterior.weighted_draws

        def one_non_finite(*args, **kwargs):
            xs, log_w = weighted_draws(*args, **kwargs)
            log_w[4] = -np.inf
            return xs, log_w

        monkeypatch.setattr(posterior, "weighted_draws", one_non_finite)
        particles, ess, kept = run_sir(linear_gaussian, 1, 3)
        assert list(np.flatnonzero(~kept)) == [4]
        assert np.array_equal(ess, np.ones(9))
        assert particles.shape == (9, 3, 3) and np.all(particles == particles[:, :1])

    @staticmethod
    def _record_draws(monkeypatch) -> dict:
        """Each observation's proposals, by its row, as ``GaussianProposal`` draws them:
        row i of a draw is observation i."""
        drawn = {}
        draw = posterior.GaussianProposal.draw

        def recording_draw(self, rng, n_samples):
            xs = draw(self, rng, n_samples)
            drawn.update(enumerate(xs))
            return xs

        monkeypatch.setattr(posterior.GaussianProposal, "draw", recording_draw)
        return drawn

    def test_particles_come_from_their_own_rows_proposals(self, linear_gaussian,
                                                          monkeypatch):
        drawn = self._record_draws(monkeypatch)
        particles, _, kept = run_sir(linear_gaussian, 6, 5, seed=3)
        for pos, row in enumerate(np.nonzero(kept)[0]):
            proposals = drawn[int(row)]
            for particle in particles[pos]:
                assert np.any(np.all(proposals == particle, axis=1))
            others = [drawn[r] for r in drawn if r != row]
            assert not any(np.any(np.all(o == particles[pos][0], axis=1)) for o in others)

    def test_copies_of_a_proposal_fill_adjacent_slots(self, linear_gaussian, monkeypatch):
        """Resampling picks in proposal order: along an observation's slots the index of
        the picked proposal never falls, so its copies of one proposal are one run."""
        drawn = self._record_draws(monkeypatch)
        particles, _, kept = run_sir(linear_gaussian, 8, 32, seed=5)
        repeats = 0
        for pos, row in enumerate(np.nonzero(kept)[0]):
            index = [int(np.flatnonzero(np.all(drawn[int(row)] == x, axis=1))[0])
                     for x in particles[pos]]
            assert index == sorted(index)
            repeats += len(index) - len(set(index))
        assert repeats > 0  # 32 slots from 8 proposals repeat

    def test_particle_means_match_closed_form_posterior(self, linear_gaussian):
        R = 1000
        particles, ess, kept = run_sir(linear_gaussian, 2000, R, seed=1)
        assert kept.all()
        err = particles.mean(axis=1) - linear_gaussian["post_mean"]
        # resampled mean: importance-sampling error plus multinomial resampling error
        se = np.sqrt(np.diag(linear_gaussian["post_cov"])[None, :]
                     * (1.0 / ess[:, None] + 1.0 / R))
        assert np.all(np.abs(err) <= 4.0 * se)
        # y itself, a wrong answer, lies far outside that band
        assert np.max(np.abs(linear_gaussian["Y"] - linear_gaussian["post_mean"]) / se) > 8.0
        # The spread is the posterior's too: weights without the -log q correction
        # resample q * p, about half as wide here (variance ratio 0.44-0.55).
        spread = particles.var(axis=1, ddof=1) / np.diag(linear_gaussian["post_cov"])
        assert np.all(np.abs(spread - 1.0) <= 0.25)

    def test_the_default_budget_samples_the_closed_form_posterior(self):
        """At EmConfig()'s n_proposals and n_resample, the particles of 4,000
        observations, as z-scores against the exact posterior, have mean 0 and
        variance 1. Over seeds 0-39 the mean read +0.002 (sd 0.004) and the variance
        0.995 (sd 0.007), with a median ESS of 0.90 S. Weights without the
        -log prior(x) correction resample q * p: variance 0.896 (sd 0.007)."""
        cfg = em.EmConfig()
        case = _linear_gaussian(4000)
        particles, ess, kept = run_sir(case, cfg.n_proposals, cfg.n_resample)
        assert kept.mean() >= 0.99
        assert np.median(ess) < 0.95 * cfg.n_proposals  # the weights are not flat
        z = ((particles - case["post_mean"][kept][:, None, :])
             / np.sqrt(np.diag(case["post_cov"])))
        assert abs(z.mean()) <= 0.03
        assert abs(z.var() - 1.0) <= 0.04


@pytest.mark.parametrize("linear", [False, True], ids=["additive", "linear"])
def test_log_weights_are_latent_plus_channel_minus_the_proposal_density(linear):
    """The weights are taken as log p(x) - log prior(x) + log Z(y); they must equal
    the direct log p(x) + log p(y | x) - log q(x | y), with q the Gaussian of
    prior N(m, diag(v)) (v = sigma_z^2, m = 0 on free coordinates, the regime's
    variance and mean on clamped ones) under the channel: precision
    A'D^-1 A + diag(1/v), mean cov (A'D^-1 y + m / v), A = I for the additive
    channel. The linear channel's A has condition number 1e6."""
    rng = np.random.default_rng(9)
    regime = InterventionRegime((1,), variance=1.5, mean=0.4)
    params = init_params(3, seed=4, weight_scale=0.5, sigma_z=np.array([0.7, 1.1, 0.9]))
    mask = expected_mask(rng.normal(size=(3, 3)))
    if linear:
        U, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = U @ np.diag([2.0, 0.3, 2e-6]) @ V.T
        channel = LinearChannel(A, rng.uniform(0.2, 0.6, 5))
        assert np.linalg.cond(channel.mixing) == pytest.approx(1e6, rel=1e-6)
    else:
        channel = GaussianAdditiveChannel(np.array([0.3, 0.5, 0.4]))
        A = np.eye(3)
    prior_mean = np.array([0.0, 0.4, 0.0])
    prior_var = np.array([0.49, 1.5, 0.81])
    A_Dinv = A.T @ np.diag(1.0 / channel.noise_var)
    cov = np.linalg.inv(A_Dinv @ A + np.diag(1.0 / prior_var))
    Y = rng.normal(size=(4, channel.p))

    xs, log_w = posterior.weighted_draws(Y, params, mask, channel, regime,
                                         regime.variance, 6, np.random.default_rng(2))
    assert xs.shape == (4, 6, 3) and log_w.shape == (4, 6)
    for r in range(4):
        mean = cov @ (A_Dinv @ Y[r] + prior_mean / prior_var)
        direct = (latent_logpdf_batch(params, mask, regime, regime.variance, xs[r])
                  + channel_logpdf(channel, Y[r], xs[r])
                  - multivariate_normal(mean, cov).logpdf(xs[r]))
        assert np.allclose(log_w[r], direct, rtol=1e-10, atol=0.0)


def test_a_regime_of_80000_draws_is_scored_in_one_call(monkeypatch):
    """5,000 observations at S = 16: one ``latent_logpdf_batch`` call scores every
    draw; that call splits its rows into cache-sized blocks itself."""
    calls = []
    score = posterior.latent_logpdf_batch

    def counting_score(params, mask, regime, intervention_var, X):
        calls.append(len(X))
        return score(params, mask, regime, intervention_var, X)

    monkeypatch.setattr(posterior, "latent_logpdf_batch", counting_score)
    params = init_params(3, seed=1)
    channel = GaussianAdditiveChannel(np.array([0.3, 0.5, 0.4]))
    Y = np.random.default_rng(4).normal(size=(5000, 3))
    particles, ess, kept = posterior.sir_sample_batch(
        Y, params, full_mask(3), channel, InterventionRegime(), 1.0, 16, 4, seed=0)
    assert calls == [80000]
    assert particles.shape == (kept.sum(), 4, 3) and ess.shape == (kept.sum(),)
