"""The benchmark harness's calls into the package, on tiny one-round fits.

``perfbench/run.py``, ``perfbench/checks.py`` and ``perfbench/spans.py`` are
loaded as they stand and never written to, so a change of signature that
would break the benchmark, a noise estimate or a proposal that would fail
its check, or a call the traced run can no longer see, fails here first.
"""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from reclaim import cli, em, graphs, measurement, model, noise, posterior, scm

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "em": em, "graphs": graphs, "measurement": measurement,
           "model": model, "noise": noise, "posterior": posterior, "scm": scm}


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # a dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(monkeypatch):
    # Loading run.py pins the BLAS thread variables; monkeypatch restores them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    return _load(monkeypatch, "run")


def _tiny(s):
    """One short round at the default proposal count."""
    return dataclasses.replace(s, cfg=em.EmConfig(
        em_rounds=1, m_steps_per_round=2, batch_size=16, n_resample=2, seed=s.cfg.seed))


@pytest.mark.parametrize("workload", ["gan-d10", "linear-d10-p20"])
def test_set_up_and_a_one_round_fit_cycle(harness, tmp_path, monkeypatch, workload):
    checks = _load(monkeypatch, "checks")
    s = harness.set_up(MODULES, workload, seed=1, data_dir=tmp_path)
    assert type(measurement.channel_from_dict(s.spec)) is type(s.channel)
    # s.channel is the simulated channel that channel.json holds.
    noise_check = (checks._gan_noise(s, s.channel)
                   if isinstance(s.channel, measurement.GaussianAdditiveChannel)
                   else checks._linear_nnls(MODULES, s))
    s = _tiny(s)
    out = harness.fit_cycle(MODULES, s, tmp_path)

    assert out["error"] is None
    assert len(out["thetas"]) == 1  # the (r, theta, *_) callback ran once
    assert np.array_equal(out["report"].phi_hat.noise_var, s.spec["sigma_sq"])
    assert 0.0 <= out["evaluation"]["auprc"] <= 1.0
    cycles = [{"graph": 0, **out}]
    # The density and gradient checks call the kernels in the benchmark's positional form.
    rng = np.random.default_rng((1, 7))
    linear = checks._linear_gaussian_params(MODULES, s.channel.d, rng)
    for ok, detail in (noise_check,
                       checks._rounds_completed(cycles, s.cfg.em_rounds),
                       checks._edge_scores_valid(cycles),
                       checks._bit_identical(MODULES, [[s]], cycles),
                       checks._density_closed_form(MODULES, s, *linear, rng),
                       checks._grads_finite_diff(MODULES, s, cycles[0], rng)):
        assert ok, detail


@pytest.mark.parametrize("workload", ["gan-d10", "linear-d10-p20"])
def test_sir_matches_the_exact_posterior_on_each_workload(harness, tmp_path, monkeypatch,
                                                          workload):
    """The benchmark's SIR-vs-exact-posterior check, at the default proposal count."""
    checks = _load(monkeypatch, "checks")
    s = harness.set_up(MODULES, workload, seed=1, data_dir=tmp_path)
    rng = np.random.default_rng((1, 7))
    theta, mask = checks._linear_gaussian_params(MODULES, s.channel.d, rng)
    ok, detail = checks._sir_posterior_mean(MODULES, s, theta, mask, rng)
    assert ok, detail


def test_traced_fit_cycle_scores_each_observation_once(harness, tmp_path, monkeypatch):
    """The traced run sees the E-step's proposal rows: one pass of the default
    n_proposals each, and the proposal keeps most of them effective. It sees the
    M-step score each minibatch, rows of every regime together, in one gradient call,
    and the surrogate and the channel term score each regime's distinct particles in
    one call, with no mask draw."""
    spans = _load(monkeypatch, "spans")
    s = _tiny(harness.set_up(MODULES, "gan-d10", seed=1, data_dir=tmp_path))
    caches, e_step = [], em.e_step

    def recording_e_step(*args, **kwargs):
        caches.append(e_step(*args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(em, "e_step", recording_e_step)  # the tracer wraps this one
    with spans.Tracer(MODULES) as tracer:
        out = harness.fit_cycle(MODULES, s, tmp_path)
    assert out["error"] is None
    metrics = spans.layer_metrics(tracer.spans, n_setups=1, n_rounds=len(out["ends"]))
    assert metrics["posterior.sir_sample_batch.obs"][0] == sum(map(len, s.datasets))
    assert metrics["posterior.proposals_per_obs"][0] == em.EmConfig().n_proposals
    assert metrics["posterior.ess_frac"][0] >= 0.85
    assert metrics["posterior.retried_obs"][0] == 0
    n_rounds = len(out["ends"])
    # Only the M-step draws masks. A round scores each regime's proposals in one
    # E-step call and its particles in one surrogate call.
    assert metrics["model.sample_mask.calls"][0] == s.cfg.m_steps_per_round
    assert metrics["model.latent_logpdf_batch.calls"][0] == 2 * len(s.family.regimes)
    grad_calls = [span for span in tracer.spans if span[1] == "model.latent_logpdf_grads"]
    assert len(grad_calls) == s.cfg.m_steps_per_round * n_rounds
    n_particles = (sum(map(len, s.datasets)) - metrics["em.skipped_obs"][0]) * s.cfg.n_resample
    assert metrics["model.latent_logpdf_grads.rows"][0] == \
        s.cfg.m_steps_per_round * min(s.cfg.batch_size, n_particles)
    # Resampling repeats proposals: q and the channel term score each distinct row once.
    names = {span[0]: span[1] for span in tracer.spans}

    def under(caller, name):
        return [span for span in tracer.spans if span[1] == name and names.get(span[4]) == caller]

    def rows_under(caller, name):
        return sum(span[5]["rows"] for span in under(caller, name))

    distinct = sum(len(cache.counts) for cache in caches)
    assert sum(cache.n_particles for cache in caches) == n_particles * n_rounds
    assert rows_under("em.surrogate_q", "model.latent_logpdf_batch") == distinct
    assert rows_under("em.channel_term", "measurement.channel_logpdf") == distinct
    assert distinct < n_particles * n_rounds
    # One call per regime, not one over the whole cache: see em.surrogate_q's docstring.
    assert len(under("em.surrogate_q", "model.latent_logpdf_batch")) == \
        len(s.family.regimes) * n_rounds
    assert len(under("em.channel_term", "measurement.channel_logpdf")) == \
        len(s.family.regimes) * n_rounds
    assert em.sir_sample_batch is posterior.sir_sample_batch  # the tracer put them back
