import csv
import dataclasses
import logging

import numpy as np
import pytest

from reclaim import cli, em, model, scm
from reclaim.errors import EStepError
from reclaim.measurement import GaussianAdditiveChannel

# Tiny fits: d = 4, five regimes of 20 observations, few proposals and steps.
# A convergence tolerance far below any round-to-round change runs every round.
TINY = {"m_steps_per_round": 3, "batch_size": 32, "n_proposals": 8, "n_resample": 4,
        "convergence_tol": 1e-12, "seed": 7, "elbo_every": 2}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cli.run_simulate({"d": 4, "n_per_regime": 20, "seed": 3}, out)
    return scm.read_dataset(out)


@pytest.fixture(scope="module")
def straight(data):
    datasets, family = data
    return em.fit(datasets, family, {"type": "gan"}, em.EmConfig(em_rounds=4, **TINY))


def test_resume_from_checkpoint_equals_uninterrupted_run(data, straight):
    datasets, family = data
    first = em.fit(datasets, family, {"type": "gan"}, em.EmConfig(em_rounds=2, **TINY))
    theta, trace = em.checkpoint_from_json(
        em.checkpoint_to_json(first.theta, first.diagnostics["trace"]))
    resumed = em.fit(datasets, family, {"type": "gan"}, em.EmConfig(em_rounds=4, **TINY),
                     init_theta=theta, trace=trace)

    assert len(trace) == 2 and resumed.diagnostics["rounds_completed"] == 4
    assert np.array_equal(resumed.edge_scores, straight.edge_scores)
    for name in ("w_in", "b_in", "w_out", "b_out", "edge_logits"):
        assert np.array_equal(getattr(resumed.theta, name), getattr(straight.theta, name))
    assert resumed.diagnostics == straight.diagnostics
    assert em.report_to_json(resumed) == em.report_to_json(straight)


def test_trace_csv_reads_back_equal_to_the_trace(tmp_path, straight):
    trace = straight.diagnostics["trace"]
    em.write_trace_csv(tmp_path / "trace.csv", trace)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    parsed = [{"round": int(r["round"]), "q_value": float(r["q_value"]),
               "elbo_estimate": None if r["elbo_estimate"] == "" else float(r["elbo_estimate"]),
               "ess_median": float(r["ess_median"]), "channel_term": float(r["channel_term"]),
               "n_skipped": int(r["n_skipped"])} for r in rows]
    assert parsed == trace
    assert [r["elbo_estimate"] is None for r in parsed] == [True, False, True, False]


def test_trace_csv_of_an_empty_trace_is_its_header(tmp_path):
    em.write_trace_csv(tmp_path / "trace.csv", [])
    assert (tmp_path / "trace.csv").read_text() == \
        "round,q_value,elbo_estimate,ess_median,channel_term,n_skipped\n"


@pytest.mark.parametrize("dropped_per_regime,raises", [(1, False), (2, True)])
def test_e_step_raises_once_skips_exceed_tolerance(data, monkeypatch, caplog,
                                                   dropped_per_regime, raises):
    """Skips within the tolerance are logged at INFO, and at WARNING beyond it."""
    datasets, family = data

    def dropping_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample,
                     **kwargs):
        kept = np.ones(len(Y), dtype=bool)
        kept[:dropped_per_regime] = False
        n_kept = int(kept.sum())
        return np.zeros((n_kept, n_resample, params.d)), np.ones(n_kept), kept

    monkeypatch.setattr(em, "sir_sample_batch", dropping_sir)
    theta = model.init_params(4)
    channel = GaussianAdditiveChannel(np.full(4, 0.2))
    cfg = em.EmConfig(skip_tolerance=0.05, **TINY)
    # 5 regimes x 20 observations: 1 dropped each is 5% (allowed), 2 is 10%.
    caplog.set_level(logging.INFO, logger=em.logger.name)
    if raises:
        with pytest.raises(EStepError, match="10/100"):
            em.e_step(theta, channel, datasets, family, cfg)
    else:
        cache = em.e_step(theta, channel, datasets, family, cfg)
        assert cache.n_skipped == 5 and cache.n_observations == 100
        assert all(rc.particles.shape == (19, 4, 4) for rc in cache.regimes)
    skipped = 5 * dropped_per_regime
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING if raises else logging.INFO,
         f"e-step skipped {skipped}/100 degenerate observations")]


def test_e_step_passes_an_empty_regime_through_as_an_empty_cache_entry(data):
    datasets, family = data
    datasets = [datasets[0], np.zeros((0, 4)), *datasets[2:]]
    cfg = em.EmConfig(**TINY)
    cache = em.e_step(model.init_params(4), GaussianAdditiveChannel(np.full(4, 0.2)),
                      datasets, family, cfg)
    empty = cache.regimes[1]
    assert empty.regime is family.regimes[1] and empty.y.shape == (0, 4)
    assert empty.particles.shape == (0, 4, 4) and empty.ess.shape == (0,)
    assert cache.n_observations == 80 and cache.n_skipped == 0
    assert [rc.particles.shape[0] for rc in cache.regimes] == [20, 0, 20, 20, 20]
    assert np.isfinite(em.channel_term(cache, GaussianAdditiveChannel(np.full(4, 0.2))))


def test_d30_additive_e_step_keeps_every_observation(tmp_path):
    """At d = 30 the channel noise is not small against the latent spread; a
    proposal that ignores the latent prior lost 55 of 620 observations here."""
    cli.run_simulate({"d": 30, "n_per_regime": 20, "seed": 1}, tmp_path)
    datasets, family = scm.read_dataset(tmp_path)
    channel = em.build_channel({"type": "gan"}, datasets, family, seed=0)
    cache = em.e_step(model.init_params(30), channel, datasets, family, em.EmConfig())
    assert cache.n_skipped == 0 and cache.n_observations == 620


def test_e_step_holds_each_particle_once_in_regime_order(data):
    """Every regime's particles are a view into the cache's one flat array, whose
    row i is row i of the regimes' flattened particles taken one after another."""
    datasets, family = data
    datasets = [datasets[0], np.zeros((0, 4)), *datasets[2:]]
    cache = em.e_step(model.init_params(4), GaussianAdditiveChannel(np.full(4, 0.2)),
                      datasets, family, em.EmConfig(**TINY))
    assert cache.particles.shape == (80 * TINY["n_resample"], 4)
    assert all(np.shares_memory(rc.particles, cache.particles) for rc in cache.regimes
               if rc.particles.size)
    assert np.array_equal(cache.particles,
                          np.concatenate([rc.flat_particles for rc in cache.regimes]))
    assert np.array_equal(cache.regime_index, np.repeat(
        np.arange(len(cache.regimes)), [rc.flat_particles.shape[0] for rc in cache.regimes]))


def _per_regime_grads(theta, cache, rows, mask):
    """Reference: one latent_logpdf_grads call per regime over that regime's rows,
    each regime's mean scaled by its share of ``rows`` and summed; ``rows`` index
    the regimes' flattened particles taken one after another."""
    value, grads, offset = 0.0, None, 0
    for rc in cache.regimes:
        X = rc.flat_particles
        sel = rows[(rows >= offset) & (rows < offset + len(X))] - offset
        offset += len(X)
        if sel.size == 0:
            continue
        v, g = model.latent_logpdf_grads(theta, mask, rc.regime, rc.regime.variance, X[sel])
        share = sel.size / rows.size
        value += share * v
        g = {name: share * g[name] for name in g}
        grads = g if grads is None else {name: grads[name] + g[name] for name in g}
    return value, grads


@pytest.fixture(scope="module")
def mixed_cache():
    """A cache over observational, one-, two- and all-target regimes and an empty one,
    with the regimes' own clamp means and variances."""
    d = 4
    family = scm.InterventionFamily((
        scm.InterventionRegime(), scm.InterventionRegime((1,), 0.5, mean=0.3),
        scm.InterventionRegime((0, 2), 2.0, mean=-0.4), scm.InterventionRegime((3,)),
        scm.InterventionRegime((0, 1, 2, 3), 1.5, mean=0.2)))
    rng = np.random.default_rng(11)
    datasets = [rng.normal(size=(n, d)) for n in (6, 5, 7, 0, 4)]

    def stub_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample, seed=None):
        particles = np.random.default_rng(seed).normal(0.0, 0.8, size=(len(Y), n_resample, d))
        return particles, np.ones(len(Y)), np.ones(len(Y), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "sir_sample_batch", stub_sir)
        return em.e_step(model.init_params(d), GaussianAdditiveChannel(np.full(d, 0.2)),
                         datasets, family, em.EmConfig(**TINY))


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("relaxed", [True, False], ids=["mask-sample", "plain-mask"])
def test_one_mixed_regime_call_equals_the_per_regime_sum(mixed_cache, activation, relaxed):
    theta = model.init_params(4, hidden=3, seed=12, weight_scale=0.6, activation=activation)
    theta = dataclasses.replace(theta, b_in=np.full(3, 0.1), b_out=np.full(4, -0.2))
    mask = model.sample_mask(theta.edge_logits, seed=13)
    if not relaxed:
        mask = mask.values
    n = mixed_cache.n_particles
    rng = np.random.default_rng(14)
    for rows in (rng.permutation(n), rng.choice(n, size=9, replace=False)):
        value, grads = em._minibatch_grads(theta, mixed_cache, rows, mask)
        ref_value, ref = _per_regime_grads(theta, mixed_cache, rows, mask)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert set(grads) == set(ref) == {"w_in", "b_in", "w_out", "b_out", "mask",
                                          *(["edge_logits"] if relaxed else [])}
        for name in ref:
            assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * np.max(np.abs(ref[name]))

    # The all-target regime's rows: no coordinate is free, so nothing depends on theta.
    start = n - mixed_cache.regimes[-1].flat_particles.shape[0]
    value, grads = em._minibatch_grads(theta, mixed_cache, np.arange(start, n), mask)
    assert np.isfinite(value)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_surrogate_q_is_the_mean_closed_form_density_at_the_expected_mask(mixed_cache):
    """Identity activation and zero biases make the model the linear SCM with
    weights M o (w_in w_out); q takes M = sigmoid(edge_logits) and draws nothing."""
    d, h = 4, 3
    rng = np.random.default_rng(21)
    w_out = rng.normal(size=(h, d))
    w_out *= 0.5 / np.linalg.norm(w_out, 2)
    theta = model.ModelParams(w_in=rng.normal(size=(d, h)) / np.sqrt(h), b_in=np.zeros(h),
                              w_out=w_out, b_out=np.zeros(d),
                              edge_logits=rng.normal(0.0, 2.0, size=(d, d)),
                              sigma_z=np.array([1.0, 0.7, 1.3, 0.9]), activation="identity")
    weights = model.expected_mask(theta.edge_logits) * (theta.w_in @ theta.w_out)
    exact = np.mean([scm.linear_latent_logpdf_oracle(weights, theta.sigma_z, rc.regime, x)
                     for rc in mixed_cache.regimes for x in rc.flat_particles])

    q = em.surrogate_q(theta, mixed_cache)
    assert abs(q - exact) <= 1e-10 * abs(exact)
    assert em.surrogate_q(theta, mixed_cache) == q


class TestMStepRecovery:
    """m_step under a latent_logpdf_grads that returns NaN on chosen steps."""

    LR = 0.05

    def _run(self, data, monkeypatch, nan_steps):
        datasets, family = data
        cfg = em.EmConfig(learning_rate=self.LR, m_steps_per_round=6, **{
            k: v for k, v in TINY.items() if k != "m_steps_per_round"})
        theta = model.init_params(4, seed=5)
        cache = em.e_step(theta, GaussianAdditiveChannel(np.full(4, 0.2)), datasets,
                          family, cfg)
        grads_fn = em.latent_logpdf_grads
        masks, thetas = [], []

        def nan_on_chosen_steps(params, mask, *args, **kwargs):
            if not masks or masks[-1] is not mask:  # a new mask starts a new step
                masks.append(mask)
                thetas.append(params)
            value, grads = grads_fn(params, mask, *args, **kwargs)
            return (np.nan if len(masks) - 1 in nan_steps else value), grads

        monkeypatch.setattr(em, "latent_logpdf_grads", nan_on_chosen_steps)
        return em.m_step(theta, cache, cfg), thetas

    @staticmethod
    def _logit_step(before, after):
        off = ~np.eye(before.d, dtype=bool)
        return np.abs(after.edge_logits[off] - before.edge_logits[off])

    def test_nan_restores_last_finite_theta_and_halves_the_rate(self, data, monkeypatch):
        _, thetas = self._run(data, monkeypatch, nan_steps={2})
        assert len(thetas) == 6
        # Step 2 saw NaN at thetas[2]: step 3 starts again from thetas[1].
        assert thetas[3] is thetas[1]
        # Adam's first step moves each logit by lr * |g| / (|g| + eps), about lr; the
        # restarted optimizer's by about lr / 2. Spectral normalization leaves logits alone.
        assert np.allclose(self._logit_step(thetas[0], thetas[1]), self.LR, rtol=0.02)
        assert np.allclose(self._logit_step(thetas[3], thetas[4]), self.LR / 2, rtol=0.02)

    def test_second_nan_returns_last_finite_theta(self, data, monkeypatch):
        result, thetas = self._run(data, monkeypatch, nan_steps={2, 4})
        assert len(thetas) == 5  # the round stops at the second NaN
        assert result is thetas[3] and thetas[3] is thetas[1]
        assert not np.array_equal(result.edge_logits, thetas[0].edge_logits)


def test_elbo_matches_closed_form_marginal_likelihood():
    """Identity activation, zero biases, additive channel: y is exactly Gaussian.

    The latent law is x = B^-1 u, B = I - diag(free) W', W = M o (w_in w_out),
    with u ~ N(mu_u, diag(var_u)); so y = x + eps ~ N(B^-1 mu_u, B^-1 diag(var_u) B^-T + D).
    """
    from scipy.stats import multivariate_normal

    d = 3
    rng = np.random.default_rng(8)
    W = rng.normal(size=(d, d))
    W *= 0.8 / np.linalg.norm(W, 2)
    theta = model.ModelParams(w_in=np.eye(d), b_in=np.zeros(d), w_out=W, b_out=np.zeros(d),
                              edge_logits=rng.normal(1.0, 1.0, size=(d, d)),
                              sigma_z=np.array([1.0, 0.8, 1.2]), activation="identity")
    mask = model.expected_mask(theta.edge_logits)
    channel = GaussianAdditiveChannel(np.array([0.05, 0.08, 0.06]))
    family = scm.InterventionFamily((scm.InterventionRegime(),
                                     scm.InterventionRegime((1,), 1.5, mean=0.4)))
    datasets, exact = [], 0.0
    for regime in family.regimes:
        free = regime.free_mask(d)
        B = np.eye(d) - free[:, None] * (mask * (theta.w_in @ theta.w_out)).T
        B_inv = np.linalg.inv(B)
        mean = B_inv @ np.where(free, 0.0, regime.mean)
        cov = B_inv @ np.diag(np.where(free, theta.sigma_z ** 2, regime.variance)) @ B_inv.T
        marginal = multivariate_normal(mean, cov + np.diag(channel.noise_var))
        Y = marginal.rvs(size=40, random_state=rng)
        datasets.append(Y)
        exact += float(np.sum(marginal.logpdf(Y)))

    cfg = em.EmConfig(seed=3, elbo_proposals=256)
    estimate, se = em.elbo_estimate(theta, channel, datasets, family, cfg, return_se=True)
    # The prior-informed proposal keeps the Monte-Carlo error small: 0.12 at seed 3.
    assert 0.0 < se < 0.2
    assert abs(estimate - exact) <= 4.0 * se
