import json

import pytest

from reclaim import cli, em
from reclaim.errors import ConvergenceError, DegeneratePosteriorError, EStepError

TINY_EM = {"em_rounds": 1, "m_steps_per_round": 2, "batch_size": 16,
           "n_proposals": 8, "n_resample": 2}


@pytest.mark.parametrize("exc", [EStepError("12/40 observations degenerate (> 5%)"),
                                 ConvergenceError("model fixed point stalled"),
                                 DegeneratePosteriorError("all weights collapsed")],
                         ids=lambda e: type(e).__name__)
def test_numerical_failure_exits_5_with_one_line_error(tmp_path, monkeypatch, capsys, exc):
    cli.run_simulate({"d": 3, "n_per_regime": 5}, tmp_path / "data")
    config = tmp_path / "em.json"
    config.write_text(json.dumps({"em_rounds": 1}))

    def failing_fit(*args, **kwargs):
        raise exc

    monkeypatch.setattr(em, "fit", failing_fit)
    code = cli.main(["fit", "--data-dir", str(tmp_path / "data"), "--config", str(config)])
    assert code == cli.EXIT_NUMERICAL == 5
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


def test_sweep_cache_is_recomputed_when_the_seed_changes(tmp_path, monkeypatch):
    fits = []
    run_fit = cli.run_fit

    def counting_fit(data_dir, em_config, *args, **kwargs):
        fits.append(em_config["seed"])
        return run_fit(data_dir, em_config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_fit", counting_fit)
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    config = {"sweep": "beta", "grid": [1.0], "n_trials": 1, "out_dir": str(tmp_path),
              "base": {"d": 3, "n_per_regime": 20, "seed": 1, "em": TINY_EM}}

    first = cli.run_sweep(config)
    assert cli.run_sweep(config) == first and len(fits) == 1  # same inputs: cached

    config["base"]["seed"] = 2
    cli.run_sweep(config)
    assert len(fits) == 2 and fits[1] != fits[0]  # new seed: recomputed
    assert len(list(tmp_path.glob("cell_beta_1.0_0_*.json"))) == 2

    config["base"]["em"] = {**TINY_EM, "m_steps_per_round": 3}
    cli.run_sweep(config)
    assert len(fits) == 3  # new EM config: recomputed
