import csv

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
    state = em.checkpoint_from_json(em.checkpoint_to_json({
        "theta": first.theta, "completed_rounds": first.diagnostics["rounds_completed"],
        "q_history": first.elbo_trace, "trace": first.diagnostics["trace"]}))
    resumed = em.fit(datasets, family, {"type": "gan"}, em.EmConfig(em_rounds=4, **TINY),
                     init_theta=state["theta"], start_round=state["completed_rounds"],
                     q_history=state["q_history"], trace=state["trace"])

    assert state["completed_rounds"] == 2 and resumed.diagnostics["rounds_completed"] == 4
    assert np.array_equal(resumed.edge_scores, straight.edge_scores)
    for name in ("w_in", "b_in", "w_out", "b_out", "edge_logits"):
        assert np.array_equal(getattr(resumed.theta, name), getattr(straight.theta, name))
    assert resumed.elbo_trace == straight.elbo_trace
    assert resumed.diagnostics["trace"] == straight.diagnostics["trace"]


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


@pytest.mark.parametrize("dropped_per_regime,raises", [(1, False), (2, True)])
def test_e_step_raises_once_skips_exceed_tolerance(data, monkeypatch, dropped_per_regime,
                                                   raises):
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
    if raises:
        with pytest.raises(EStepError, match="10/100"):
            em.e_step(theta, channel, datasets, family, cfg)
    else:
        cache = em.e_step(theta, channel, datasets, family, cfg)
        assert cache.n_skipped == 5 and cache.n_observations == 100
        assert all(rc.particles.shape == (19, 4, 4) for rc in cache.regimes)
