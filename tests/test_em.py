import csv
import dataclasses
import logging
from typing import get_type_hints

import numpy as np
import pytest

from oracles import linear_latent_logpdf_oracle
from reclaim import cli, em, measurement, model, scm
from reclaim.errors import EStepError, ParameterError
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


def test_a_cut_trace_csv_write_leaves_the_earlier_file_whole(tmp_path, monkeypatch, straight):
    path = tmp_path / "trace.csv"
    em.write_trace_csv(path, straight.diagnostics["trace"])
    before = path.read_bytes()

    class Interrupted(Exception):
        pass

    class HalfWritten:
        """A handle whose write puts down half the text, then raises."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise Interrupted

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def cut_open(path, *args, **kwargs):
        return HalfWritten(open(path, *args, **kwargs))

    for module in (em, scm):  # wherever the file is opened
        monkeypatch.setattr(module, "open", cut_open, raising=False)
    with pytest.raises(Interrupted):
        em.write_trace_csv(path, straight.diagnostics["trace"][:2])
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["trace.csv"]  # no .tmp file is left


def test_trace_csv_of_an_empty_trace_is_its_header(tmp_path):
    em.write_trace_csv(tmp_path / "trace.csv", [])
    assert (tmp_path / "trace.csv").read_text() == \
        "round,q_value,elbo_estimate,ess_median,channel_term,n_skipped\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_every_float_field_of_em_config_refuses_a_value_that_is_not_finite(value):
    names = [name for name, hint in get_type_hints(em.EmConfig).items()
             if hint in (float, float | None)]
    assert "learning_rate" in names
    for name in names:
        with pytest.raises(ParameterError, match=f"^{name} must be a finite real number, "
                                                 f"got {value!r}$"):
            em.EmConfig(**{name: value})


def test_em_config_refuses_two_proposals_which_keep_only_equal_weights():
    """SIR keeps an observation at ESS >= min(2, n_proposals): one proposal always
    reaches it, three or more can, two only with exactly equal weights."""
    with pytest.raises(ParameterError, match=r"^n_proposals must be 1 or above 2, "):
        em.EmConfig(n_proposals=2)
    assert [em.EmConfig(n_proposals=n).n_proposals for n in (1, 3)] == [1, 3]


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
        assert cache.n_skipped == 5
        assert cache.y.shape == (95, 4) and cache.ess.shape == (95,)
        # Each kept observation's 4 slots hold one particle: one row, counted 4 times.
        assert cache.particles.shape == (95, 4) and cache.n_particles == 95 * 4
        assert np.all(cache.counts == 4) and np.array_equal(cache.obs, np.arange(95))
        assert np.bincount(cache.regime_index).tolist() == [19] * 5
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
    obs_regime = np.empty(len(cache.y), dtype=int)
    obs_regime[cache.obs] = cache.regime_index  # the regime of each kept observation
    assert cache.regimes[1] is family.regimes[1] and cache.y[obs_regime == 1].shape == (0, 4)
    assert cache.particles[cache.regime_index == 1].shape == (0, 4)
    assert cache.ess[obs_regime == 1].shape == (0,)
    assert cache.n_skipped == 0
    assert np.bincount(obs_regime, minlength=5).tolist() == [20, 0, 20, 20, 20]
    assert cache.y.shape == (80, 4) and cache.ess.shape == (80,)
    assert cache.n_particles == 80 * TINY["n_resample"]
    assert np.isfinite(em.channel_term(cache, GaussianAdditiveChannel(np.full(4, 0.2))))


def test_d30_additive_e_step_keeps_every_observation(tmp_path):
    """At d = 30 the channel noise is not small against the latent spread; a
    proposal that ignores the latent prior lost 55 of 620 observations here."""
    cli.run_simulate({"d": 30, "n_per_regime": 20, "seed": 1}, tmp_path)
    datasets, family = scm.read_dataset(tmp_path)
    channel = em.build_channel({"type": "gan"}, datasets, family)
    cache = em.e_step(model.init_params(30), channel, datasets, family, em.EmConfig())
    assert cache.n_skipped == 0 and cache.y.shape == (620, 30)


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
@pytest.mark.parametrize("spec", [{"type": "gan"}, {"type": "gan", "sigma_sq": [0.2] * 4}],
                         ids=["estimated", "given"])
def test_a_dataset_count_other_than_the_regime_count_is_refused(data, extra, spec):
    datasets, family = data
    datasets = list(datasets) + [datasets[0]] if extra > 0 else datasets[:-1]
    with pytest.raises(ParameterError, match=rf"^{len(family) + extra} datasets for "
                                             rf"{len(family)} regimes"):
        em.build_channel(spec, datasets, family)


def test_e_step_holds_each_particle_once_in_regime_order(data, monkeypatch):
    """Row i of the cache's particles is a run of equal adjacent slots of kept
    observation ``obs[i]``, whose observation and ESS are row ``obs[i]`` of ``y`` and
    ``ess``, and ``counts[i]`` is the run's length; the kept observations come regime
    after regime, each regime's in its data's order."""
    datasets, family = data
    datasets = [datasets[0], np.zeros((0, 4)), *datasets[2:]]
    r = TINY["n_resample"]
    per_obs = r // 2  # rows per kept observation

    def stub_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample, seed=None):
        """Drops every third observation; slots 2j and 2j + 1 of observation l hold
        Y[l] + j, and its ESS is Y[l, 0]."""
        kept = np.arange(len(Y)) % 3 != 1
        particles = Y[kept][:, None, :] + (np.arange(n_resample) // 2)[:, None]
        return particles, Y[kept, 0], kept

    monkeypatch.setattr(em, "sir_sample_batch", stub_sir)
    cache = em.e_step(model.init_params(4), GaussianAdditiveChannel(np.full(4, 0.2)),
                      datasets, family, em.EmConfig(**{**TINY, "skip_tolerance": 0.5}))
    kept = [Y[np.arange(len(Y)) % 3 != 1] for Y in datasets]
    n_kept = sum(map(len, kept))
    assert cache.n_skipped == 80 - n_kept
    assert np.array_equal(cache.y, np.concatenate(kept))
    assert np.array_equal(cache.ess, cache.y[:, 0])
    assert cache.particles.shape == (n_kept * per_obs, 4)
    assert cache.n_particles == n_kept * r
    i = np.arange(len(cache.particles))
    assert np.array_equal(cache.obs, i // per_obs)
    assert np.all(cache.counts == 2)
    assert np.array_equal(cache.particles, cache.y[i // per_obs] + (i % per_obs)[:, None])
    assert np.array_equal(cache.regime_index, np.repeat(np.arange(len(family.regimes)),
                                                        [len(Y) * per_obs for Y in kept]))


def test_distinct_particles_sharing_a_first_coordinate_get_one_row_each(data, monkeypatch):
    """Only equal adjacent slots share a row: the slots a, a, b, b with b equal to a
    but for its last coordinate give two rows of count 2."""
    datasets, family = data
    shift = np.array([0.0, 0.0, 0.0, 1.0])

    def stub_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample, seed=None):
        particles = np.stack([Y, Y, Y + shift, Y + shift], axis=1)
        return particles, np.ones(len(Y)), np.ones(len(Y), dtype=bool)

    monkeypatch.setattr(em, "sir_sample_batch", stub_sir)
    cache = em.e_step(model.init_params(4), GaussianAdditiveChannel(np.full(4, 0.2)),
                      datasets, family, em.EmConfig(**TINY))
    assert cache.particles.shape == (200, 4) and cache.n_particles == 400
    assert np.array_equal(cache.particles[0::2], cache.y)
    assert np.array_equal(cache.particles[1::2], cache.y + shift)
    assert np.all(cache.counts == 2) and np.array_equal(cache.obs, np.arange(200) // 2)


def _per_regime_grads(theta, cache, rows, mask):
    """Reference: one latent_logpdf_grads call per regime over that regime's rows,
    each regime's mean scaled by its share of ``rows`` and summed; ``rows`` index
    ``cache.particles``."""
    value, grads = 0.0, None
    for k, regime in enumerate(cache.regimes):
        sel = rows[cache.regime_index[rows] == k]
        if sel.size == 0:
            continue
        v, g = model.latent_logpdf_grads(theta, mask, regime, regime.variance,
                                         cache.particles[sel])
        share = sel.size / rows.size
        value += share * v
        g = {name: share * g[name] for name in g}
        grads = g if grads is None else {name: grads[name] + g[name] for name in g}
    return value, grads


def _mixed_cache(stub_sir, theta, channel, n_resample=TINY["n_resample"]):
    """The cache ``stub_sir`` gives over observational, one-, two- and all-target
    regimes and an empty one, with the regimes' own clamp means and variances."""
    family = scm.InterventionFamily((
        scm.InterventionRegime(), scm.InterventionRegime((1,), 0.5, mean=0.3),
        scm.InterventionRegime((0, 2), 2.0, mean=-0.4), scm.InterventionRegime((3,)),
        scm.InterventionRegime((0, 1, 2, 3), 1.5, mean=0.2)))
    rng = np.random.default_rng(11)
    datasets = [rng.normal(size=(n, theta.d)) for n in (6, 5, 7, 0, 4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(em, "sir_sample_batch", stub_sir)
        return em.e_step(theta, channel, datasets, family,
                         em.EmConfig(**{**TINY, "n_resample": n_resample}))


@pytest.fixture(scope="module")
def mixed_cache():
    """Particles that are all distinct."""
    def stub_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample, seed=None):
        particles = np.random.default_rng(seed).normal(0.0, 0.8,
                                                       size=(len(Y), n_resample, params.d))
        return particles, np.ones(len(Y)), np.ones(len(Y), dtype=bool)

    return _mixed_cache(stub_sir, model.init_params(4), GaussianAdditiveChannel(np.full(4, 0.2)))


def _minibatch_grads(theta, cache, rows, mask):
    """m_step's call: the cache rows ``rows`` of mixed regimes scored in one call."""
    return model.latent_logpdf_grads(theta, mask, cache.regimes,
                                     [r.variance for r in cache.regimes], cache.particles[rows],
                                     cache.regime_index[rows])


@pytest.mark.parametrize("hidden", [3, 6], ids=["h3", "h6"])  # below and above d = 4
@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("relaxed", [True, False], ids=["mask-sample", "plain-mask"])
def test_one_mixed_regime_call_equals_the_per_regime_sum(mixed_cache, activation, relaxed,
                                                         hidden):
    theta = model.init_params(4, hidden=hidden, seed=12, weight_scale=0.6,
                              activation=activation)
    theta = dataclasses.replace(theta, b_in=np.full(hidden, 0.1), b_out=np.full(4, -0.2))
    mask = model.sample_mask(theta.edge_logits, seed=13)
    if not relaxed:
        mask = mask.values
    n = mixed_cache.n_particles
    rng = np.random.default_rng(14)
    for rows in (rng.permutation(n), rng.choice(n, size=9, replace=False)):
        value, grads = _minibatch_grads(theta, mixed_cache, rows, mask)
        ref_value, ref = _per_regime_grads(theta, mixed_cache, rows, mask)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert set(grads) == set(ref) == {"w_in", "b_in", "w_out", "b_out", "mask",
                                          *(["edge_logits"] if relaxed else [])}
        for name in ref:
            assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * np.max(np.abs(ref[name]))

    # The all-target regime's rows: no coordinate is free, so nothing depends on theta.
    rows = np.flatnonzero(mixed_cache.regime_index == len(mixed_cache.regimes) - 1)
    assert rows.size
    value, grads = _minibatch_grads(theta, mixed_cache, rows, mask)
    assert np.isfinite(value)
    assert all(np.all(g == 0.0) for g in grads.values())



def test_m_step_equals_the_adam_loop_written_out(mixed_cache):
    """Three m_step steps against the loop spelled out: per step the same slot draw,
    mask draw, gradient, penalty, Adam step and spectral normalization."""
    cfg = em.EmConfig(**{**TINY, "batch_size": 9, "learning_rate": 0.05})
    theta = model.init_params(4, seed=15, weight_scale=0.6)
    cache = mixed_cache
    rng = np.random.default_rng(16)
    slots = np.repeat(np.arange(len(cache.counts)), cache.counts)
    adam, ref = em._Adam(cfg.learning_rate), theta
    for _ in range(cfg.m_steps_per_round):
        rows = slots[rng.choice(slots.size, size=cfg.batch_size, replace=False)]
        mask = model.sample_mask(ref.edge_logits, cfg.temperature, seed=rng.integers(2 ** 63))
        _, grads = _minibatch_grads(ref, cache, rows, mask)
        _, pen_grad = em.sparsity_penalty(ref, cfg.sparsity_lambda)
        grads["edge_logits"] = grads["edge_logits"] - pen_grad
        del grads["mask"]
        updated = adam.step({name: getattr(ref, name) for name in grads}, grads)
        ref = model.spectral_normalize(dataclasses.replace(ref, **updated))
    assert cfg.m_steps_per_round == 3 and not np.allclose(ref.w_in, theta.w_in)

    out = em.m_step(theta, cache, cfg, seed=16)
    for name in ("w_in", "b_in", "w_out", "b_out", "edge_logits"):
        np.testing.assert_allclose(getattr(out, name), getattr(ref, name), rtol=0, atol=1e-12)

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
    exact = np.mean([linear_latent_logpdf_oracle(weights, theta.sigma_z,
                                                 mixed_cache.regimes[k], x)
                     for k, x in zip(mixed_cache.regime_index, mixed_cache.particles)])

    q = em.surrogate_q(theta, mixed_cache)
    assert abs(q - exact) <= 1e-10 * abs(exact)
    assert em.surrogate_q(theta, mixed_cache) == q


def _repeating_sir(Y, params, mask, channel, regime, var, n_proposals, n_resample, seed=None):
    """Each observation's slots hold copies of three rows in row order, as SIR resamples
    in proposal order; the first two rows share their first coordinate, and every slot
    of the first observation holds row 0."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 0.8, size=(len(Y), 3, params.d))
    rows[:, 1, 0] = rows[:, 0, 0]
    pick = np.sort(rng.integers(0, 3, size=(len(Y), n_resample)), axis=1)
    pick[:1] = 0
    particles = rows[np.arange(len(Y))[:, None], pick]
    return particles, np.ones(len(Y)), np.ones(len(Y), dtype=bool)


def _runs(particles):
    """Reference cache rows of (observations, slots, d) particles: per observation,
    each run of equal adjacent slots once, with its length and the observation."""
    rows, counts, obs = [], [], []
    for l, slots in enumerate(particles):
        for j, row in enumerate(slots):
            if j and np.array_equal(row, slots[j - 1]):
                counts[-1] += 1
            else:
                rows.append(row)
                counts.append(1)
                obs.append(l)
    return np.array(rows), counts, obs


@pytest.mark.parametrize("n_resample", [16, 300])
def test_distinct_rows_weighted_by_multiplicity_give_the_per_slot_means(n_resample):
    """The cache holds each run of equal adjacent slots once, with its length; weighted
    by those counts, q and the channel term equal the plain means over every slot. 300
    slots holding one row would wrap a uint8 count."""
    theta = model.init_params(4, hidden=3, seed=12, weight_scale=0.6)
    theta = dataclasses.replace(theta, b_in=np.full(3, 0.1), b_out=np.full(4, -0.2))
    channel = GaussianAdditiveChannel(np.array([0.2, 0.3, 0.25, 0.4]))
    drawn = []  # each regime's slots, as the E-step got them

    def recording_sir(*args, **kwargs):
        out = _repeating_sir(*args, **kwargs)
        drawn.append(out[0])
        return out

    cache = _mixed_cache(recording_sir, theta, channel, n_resample)
    slots = np.concatenate(drawn)  # (kept observations, slots, d)
    rows, counts, obs = _runs(slots)
    assert np.array_equal(cache.particles, rows)
    assert cache.counts.tolist() == counts and cache.obs.tolist() == obs
    assert cache.n_particles == slots.shape[0] * n_resample
    assert cache.counts[0] == n_resample
    assert len(cache.counts) < cache.n_particles

    mask = model.expected_mask(theta.edge_logits)
    q_slots = sum(float(model.latent_logpdf_batch(theta, mask, regime, regime.variance,
                                                  x.reshape(-1, 4)).sum())
                  for x, regime in zip(drawn, cache.regimes)) / cache.n_particles
    channel_slots = np.mean(measurement.channel_logpdf(channel, cache.y[:, None, :], slots))
    assert abs(em.surrogate_q(theta, cache) - q_slots) <= 1e-12 * abs(q_slots)
    assert abs(em.channel_term(cache, channel) - channel_slots) <= 1e-12 * abs(channel_slots)


def test_fewer_resampled_slots_do_not_bias_what_the_cache_scores(tmp_path):
    """At one E-step seed, 4 and 16 slots per observation come from the same proposals
    and weights; only the resampling uniforms differ. Multinomial resampling is
    unbiased, so over E-step seeds the paired differences of q and of the channel
    term average to 0. The default budget keeps at most 4 rows per observation."""
    cli.run_simulate({"d": 4, "n_per_regime": 60, "seed": 5}, tmp_path)
    datasets, family = scm.read_dataset(tmp_path)
    channel = em.build_channel({"type": "gan"}, datasets, family)
    theta = model.init_params(4, seed=1, weight_scale=0.5)
    diffs = []
    for seed in range(20):
        caches = [em.e_step(theta, channel, datasets, family, em.EmConfig(n_resample=r),
                            seed=seed) for r in (4, 16)]
        assert np.array_equal(caches[0].ess, caches[1].ess)  # the same weights
        assert np.array_equal(caches[0].y, caches[1].y)
        q4, q16 = (em.surrogate_q(theta, c) for c in caches)
        c4, c16 = (em.channel_term(c, channel) for c in caches)
        diffs.append((q4 - q16, c4 - c16))
    diffs = np.array(diffs)
    assert np.all(diffs != 0)  # the uniforms did differ
    se = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
    assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * se)

    cache = em.e_step(theta, channel, datasets, family, em.EmConfig())
    n_kept = len(cache.y)
    assert n_kept == 300 and cache.n_particles == 4 * n_kept
    assert len(cache.particles) <= 4 * n_kept


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


@pytest.mark.parametrize("linear", [False, True], ids=["additive", "linear"])
def test_elbo_matches_closed_form_marginal_likelihood(linear):
    """Identity activation, zero biases, Gaussian channel y = A x + eps: y is exactly Gaussian.

    The latent law is x = B^-1 u, B = I - diag(free) W', W = M o (w_in w_out),
    with u ~ N(mu_u, diag(var_u)); so
    y ~ N(A B^-1 mu_u, A B^-1 diag(var_u) B^-T A' + D), with A = I for the
    additive channel and a 5 x 3 A (p > d) for the linear one.
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
    if linear:
        channel = measurement.LinearChannel(rng.normal(size=(5, d)),
                                            np.array([0.05, 0.08, 0.06, 0.07, 0.04]))
    else:
        channel = GaussianAdditiveChannel(np.array([0.05, 0.08, 0.06]))
    A = channel.mixing
    family = scm.InterventionFamily((scm.InterventionRegime(),
                                     scm.InterventionRegime((1,), 1.5, mean=0.4)))
    datasets, exact = [], 0.0
    for regime in family.regimes:
        free = regime.free_mask(d)
        B = np.eye(d) - free[:, None] * (mask * (theta.w_in @ theta.w_out)).T
        B_inv = np.linalg.inv(B)
        mean = B_inv @ np.where(free, 0.0, regime.mean)
        cov = B_inv @ np.diag(np.where(free, theta.sigma_z ** 2, regime.variance)) @ B_inv.T
        marginal = multivariate_normal(A @ mean, A @ cov @ A.T + np.diag(channel.noise_var))
        Y = marginal.rvs(size=40, random_state=rng)
        datasets.append(Y)
        exact += float(np.sum(marginal.logpdf(Y)))

    cfg = em.EmConfig(seed=3, elbo_proposals=256)
    estimate, se = em.elbo_estimate(theta, channel, datasets, family, cfg)
    # The prior-informed proposal keeps the Monte-Carlo error small: 0.12 at seed 3
    # for the additive channel.
    assert 0.0 < se < 0.2
    assert abs(estimate - exact) <= 4.0 * se


def test_elbo_in_several_chunks_per_regime_equals_the_one_chunk_value(data, straight,
                                                                        monkeypatch):
    """``elbo_estimate`` draws blocks of ``CHUNK_ROWS // S`` observations. Blocks of 3
    of a regime's 20 draw the same stream as one block of 20, so the total and its
    standard error agree to rounding."""
    datasets, family = data
    channel = em.build_channel({"type": "gan"}, datasets, family)
    cfg = em.EmConfig(seed=5, elbo_proposals=64)
    whole = em.elbo_estimate(straight.theta, channel, datasets, family, cfg)
    blocks, draw = [], em.weighted_draws

    def recorded(Y, *args):
        blocks.append(len(Y))
        return draw(Y, *args)

    monkeypatch.setattr(em, "weighted_draws", recorded)
    monkeypatch.setattr(em, "CHUNK_ROWS", 3 * cfg.elbo_proposals)
    chunked = em.elbo_estimate(straight.theta, channel, datasets, family, cfg)
    assert blocks == [3, 3, 3, 3, 3, 3, 2] * len(family.regimes)
    assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("field, value, message", [
    ("hidden", 2, "initial parameters have hidden width 4, the config 2"),
    ("lipschitz_target", 0.5, "initial parameters have lipschitz_target 0.9, the config 0.5"),
])
def test_fit_refuses_initial_parameters_that_contradict_the_config(data, straight, field,
                                                                   value, message):
    """``straight`` ran at the default hidden width, d = 4, and Lipschitz target 0.9."""
    datasets, family = data
    trace = straight.diagnostics["trace"]
    cfg = em.EmConfig(em_rounds=5, **TINY)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        em.fit(datasets, family, {"type": "gan"}, dataclasses.replace(cfg, **{field: value}),
               init_theta=straight.theta, trace=trace)
    # A hidden width of d, given, is the default's: a fit with no round left accepts it.
    done = em.fit(datasets, family, {"type": "gan"},
                  dataclasses.replace(cfg, em_rounds=len(trace), hidden=4),
                  init_theta=straight.theta, trace=trace)
    assert done.theta is straight.theta
